"""The uniform multi sampler and its seeds, and the simple-graph test
generator in tests/oracles.py: forced cases, exact marginals,
reproducibility."""

import hashlib
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from oracles import sample_uniform_simple
from wkorient.models import RngSeed, sample_uniform_multi


def _chi2_pvalue(observed: Counter, expected_law: dict, trials: int) -> float:
    assert set(observed) <= set(expected_law), "sampler left the support"
    keys = sorted(expected_law)
    obs = np.array([observed.get(x, 0) for x in keys], dtype=float)
    exp = np.array([float(expected_law[x]) * trials for x in keys])
    assert sum(observed.values()) == trials
    return stats.chisquare(obs, exp).pvalue


# ---------------------------------------------------------------------------
# seeds


def test_rng_seed_is_reproducible():
    a = RngSeed(123, 4).generator().integers(0, 1000, size=8)
    b = RngSeed(123, 4).generator().integers(0, 1000, size=8)
    assert (a == b).all()


def test_rng_seed_streams_differ():
    a = RngSeed(123, 0).generator().integers(0, 10**9)
    b = RngSeed(123, 1).generator().integers(0, 10**9)
    c = RngSeed(124, 0).generator().integers(0, 10**9)
    assert len({int(a), int(b), int(c)}) == 3


# ---------------------------------------------------------------------------
# samplers


def test_uniform_multi_single_vertex_is_forced():
    H = sample_uniform_multi(1, 3, 2, RngSeed(0).generator())
    assert H.n == 1
    assert H.edges == ((0, 0), (0, 0), (0, 0))


def test_uniform_multi_shape_and_determinism():
    seed = RngSeed(42, 1)
    H = sample_uniform_multi(50, 120, 3, seed.generator())
    assert H.n == 50 and H.num_edges == 120
    assert all(len(e) == 3 for e in H.edges)
    assert H == sample_uniform_multi(50, 120, 3, seed.generator())
    with pytest.raises(ValueError):
        sample_uniform_multi(0, 1, 2, seed.generator())
    with pytest.raises(ValueError, match="h=0"):
        sample_uniform_multi(5, 1, 0, seed.generator())
    with pytest.raises(ValueError, match="m=-1"):
        sample_uniform_multi(5, -1, 2, seed.generator())
    with pytest.raises(ValueError, match="seed=-1"):
        RngSeed(-1)
    with pytest.raises(ValueError, match="stream=-2"):
        RngSeed(0, -2)


def test_uniform_multi_mean_degree():
    n, m, h = 200, 600, 3
    H = sample_uniform_multi(n, m, h, RngSeed(7).generator())
    # each degree is Binomial(m*h, 1/n); the average over n vertices is
    # exactly m*h/n, so only the sampler's bookkeeping is at stake here
    assert H.total_degree == m * h
    sd = np.std(H.degrees())
    assert sd == pytest.approx(np.sqrt(m * h / n), rel=0.25)


# sha256 of the int64 vertex bytes of sample_uniform_multi(n, 400, 3) on
# seed 5, stream 2: below 2^32 numpy draws 32-bit bounded integers, above
# it 64-bit ones
PREFIX_DIGESTS = {
    10**3: "b1e53665de90430585a377589266e76c4f5651bea6aa2f9a00fafbc406587cf2",
    10**5: "90818f983234a530ad1c5251be19e7b940eb8bef78f82336986e5007a16b5084",
    2**31 - 1: "3679373d28eb94e745cabff61c4a21528fdbd33bf3ba1bcb43af3456bb0bdc98",
    2**32: "25c3744aab370c38f90d4c28e9887eec00cf18799b637c2ee2679a6ae3f5df69",
    2**32 + 1: "02a3b7f0e8df41f19d36dd80e9446f3716ee4bd97f89c97668aa9ba66d0d0ba4",
    2**33: "d958854563037953225a0c1281b24205791a965f044bac16262502a83e8e655e",
}


@pytest.mark.parametrize("n", list(PREFIX_DIGESTS))
def test_uniform_multi_is_prefix_consistent(n):
    # the first m rows of an m_max-row sample are the m-row sample on the
    # same stream: simulate's hitting search bisects over these prefixes.
    # The digest pins the draws themselves, so a change to numpy's
    # bounded-integer stream fails here even where prefixes still agree
    full = sample_uniform_multi(n, 400, 3, RngSeed(5, 2).generator())
    for m in (0, 1, 17, 200, 399):
        part = sample_uniform_multi(n, m, 3, RngSeed(5, 2).generator())
        assert part.ptr.tobytes() == full.ptr[: m + 1].tobytes(), m
        assert part.verts.tobytes() == full.verts[: full.ptr[m]].tobytes(), m
    assert hashlib.sha256(full.verts.tobytes()).hexdigest() == PREFIX_DIGESTS[n]


def test_uniform_simple_forced_instance():
    H = sample_uniform_simple(3, 1, 3, RngSeed(5).generator())
    assert H.edges == ((0, 1, 2),)


def test_uniform_simple_no_repeats():
    H = sample_uniform_simple(8, 25, 3, RngSeed(9).generator())
    assert H.num_edges == 25
    assert all(len(set(e)) == 3 for e in H.edges)
    assert len(set(H.edges)) == 25


def test_uniform_simple_capacity_check():
    with pytest.raises(ValueError):
        sample_uniform_simple(4, comb(4, 2) + 1, 2, RngSeed(0).generator())


def test_uniform_simple_retry_budget():
    with pytest.raises(RuntimeError, match="exhausted 2 attempts"):
        sample_uniform_simple(3, 3, 2, RngSeed(0).generator(), max_attempts=2)


def test_uniform_simple_single_edge_is_uniform():
    rng = RngSeed(17).generator()
    trials = 3000
    law = {e: Fraction(1, 6) for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    seen = Counter(sample_uniform_simple(4, 1, 2, rng).edges[0] for _ in range(trials))
    assert _chi2_pvalue(seen, law, trials) > 1e-3
