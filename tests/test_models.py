"""The uniform multi sampler and its seeds, and the simple-graph test
generator in tests/oracles.py: forced cases, exact marginals,
reproducibility."""

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
