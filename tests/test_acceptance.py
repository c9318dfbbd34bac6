"""End-to-end acceptance gate: reproduction targets plus cross-checks.

Heavier than the unit suites by design: the sampled checks run at
n = 10^5 and the equivalence sweeps enumerate thousands of instances,
so the file takes a few minutes on one core.  Each test prints a
one-line verdict (visible with -s, or in a captured run log).
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ode_reference import integrate_lambda_state
from oracles import (
    brute_force_core,
    expansion_condition,
    hakimi_check,
    orientation_search,
    sample_uniform_simple,
)
from wkorient.cli import (
    ExperimentConfig,
    core_profile,
    main,
    table1_rows,
)
from wkorient.flow import orient
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    verify_orientation,
)
from wkorient.models import RngSeed, sample_uniform_multi
from wkorient.ode import (
    InitialStateError,
    OdeParams,
    _initial_vector,
    _split,
    find_threshold,
    integrate,
)
from wkorient.peeling import ExtensionConflictError, extend_orientation, rancore
from wkorient.poisson import poisson_tail, solve_lambda, truncated_poisson_pmf

pytestmark = pytest.mark.acceptance

SEED = 20260814

# (h, w, k) -> (reference mu_tilde, reference mu_hat, tolerances on each)
REFERENCE_ROWS = {
    (3, 2, 4): (5.485, 6.65086, 5e-3, 1e-3),
    (3, 2, 10): (14.766, 15.5872, 5e-3, 1e-3),
    (3, 2, 40): (59.991, 60.0773, 1e-2, 5e-3),
    (10, 2, 4): (19.99999, 20.0003, 1e-3, 1e-3),
}

SMALL_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 2))
SMALL_KS = (1, 2, 3)


def _verdict(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# reference threshold table
# ---------------------------------------------------------------------------


def test_threshold_table_matches_references():
    t0 = time.monotonic()
    rows = table1_rows()
    elapsed = time.monotonic() - t0
    worst = 0.0
    for row in rows:
        key = (row["h"], row["w"], row["k"])
        _, _, tol_tilde, tol_hat = REFERENCE_ROWS[key]
        assert row["error"] == "", f"{key}: {row['error']}"
        assert abs(row["delta_mu_tilde"]) <= tol_tilde, (
            f"{key}: mu_tilde {row['mu_tilde']} vs {row['ref_mu_tilde']}"
        )
        assert abs(row["delta_mu_hat"]) <= tol_hat, (
            f"{key}: mu_hat {row['mu_hat']} vs {row['ref_mu_hat']}"
        )
        worst = max(
            worst,
            abs(row["delta_mu_tilde"]) / tol_tilde,
            abs(row["delta_mu_hat"]) / tol_hat,
        )
    assert elapsed < 300.0
    _verdict(
        "threshold table",
        f"4 rows, worst delta at {worst:.2f} of tolerance, {elapsed:.1f}s",
    )


# Load thresholds m/(kn) of (h,1,k)-orientability, which is cuckoo hashing
# with h choices and buckets of size k.  The digits are quoted as
# remembered from the papers cited, not re-read from their printed text,
# hence the 1e-4 tolerance in load.
W1_LOADS = {
    # Dietzfelbinger, Goerdt, Mitzenmacher, Montanari, Pagh & Rink, "Tight
    # thresholds for cuckoo hashing via XORSAT" (ICALP 2010); Frieze &
    # Melsted, "Maximum matchings in random bipartite graphs and the space
    # utilization of cuckoo hash tables" (RSA 2012); Fountoulakis &
    # Panagiotou, "Sharp load thresholds for cuckoo hashing" (RSA 2012)
    (3, 1, 1): 0.91794,
    (4, 1, 1): 0.97677,
    (5, 1, 1): 0.99244,
    # Cain, Sanders & Wormald, "The random graph threshold for
    # k-orientability and a fast algorithm for optimal multiple-choice
    # allocation" (SODA 2007); Fernholz & Ramachandran, "The
    # k-orientability thresholds for G_{n,p}" (SODA 2007)
    (2, 1, 2): 0.89701,
    (2, 1, 3): 0.95915,
    # a graph is 1-orientable iff no component has two cycles, which holds
    # whp below m/n = 1/2 (Erdos & Renyi, "On the evolution of random
    # graphs", 1960)
    (2, 1, 1): 0.5,
}


def test_w1_thresholds_match_the_literature():
    worst = 0.0
    for (h, w, k), load in W1_LOADS.items():
        res = find_threshold(OrientationParams(h, w, k), tol=1e-7)
        got = res.mu_tilde / (h * k)
        assert got == pytest.approx(load, abs=1e-4), (h, w, k, got)
        worst = max(worst, abs(got - load))
    _verdict("w = 1 literature loads", f"6 triples, worst load delta {worst:.1e}")


# ---------------------------------------------------------------------------
# four independent orientability deciders
# ---------------------------------------------------------------------------


def _holds_for_every_subset(H: Hypergraph, p: OrientationParams) -> bool:
    return all(
        expansion_condition(H, S, p)
        for r in range(H.n + 1)
        for S in combinations(range(H.n), r)
    )


def test_orientation_deciders_agree_exhaustively():
    """Flow, backtracking search, capacity counting, and the per-subset
    expansion inequality must render the same verdict on every instance.

    Edges here are vertex-distinct: with repeated vertices the subset
    census deciders answer a coarser question (see the flow tests for the
    counterexample), while flow vs. search stays exact and is covered
    there on multiset edges.
    """
    per_triple = 500
    total = positives = 0
    t0 = time.monotonic()
    for h, w in SMALL_PAIRS:
        for k in SMALL_KS:
            p = OrientationParams(h, w, k)
            rng = RngSeed(SEED, 100 * h + 10 * w + k).generator()
            for _ in range(per_triple):
                n = int(rng.integers(h, 9))
                m = int(rng.integers(0, min(7, math.comb(n, h)) + 1))
                H = sample_uniform_simple(n, m, h, rng)
                by_flow = isinstance(orient(H, p), Orientation)
                by_search = (
                    orientation_search(H.edges, H.n, h, w, k) is not None
                )
                by_counting = hakimi_check(H, p)
                by_expansion = _holds_for_every_subset(H, p)
                assert by_flow == by_search == by_counting == by_expansion, (
                    f"disagreement on {H} at (h,w,k)=({h},{w},{k}): "
                    f"flow={by_flow} search={by_search} "
                    f"counting={by_counting} expansion={by_expansion}"
                )
                total += 1
                positives += by_flow
    assert total == per_triple * len(SMALL_PAIRS) * len(SMALL_KS)
    _verdict(
        "decider agreement",
        f"{total} instances, {positives} orientable, 0 disagreements, "
        f"{time.monotonic() - t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# peeling vs. brute force, and orientation extension
# ---------------------------------------------------------------------------


def test_peeling_matches_brute_force_and_extension_verifies():
    """Deterministic and randomized peeling agree instance-by-instance and
    match the brute-force maximal min-degree subgraph; whenever the core
    orients, pushing the orientation back through the peeling order gives
    a valid orientation of the original hypergraph.

    Extension conflicts are possible only across repeated-vertex edges
    (asserted, and exercised: the mixed sampler produces both models).
    """
    per_triple = 90
    total = extensions = conflicts = 0
    t0 = time.monotonic()
    for h, w in SMALL_PAIRS:
        for k in SMALL_KS:
            p = OrientationParams(h, w, k)
            rng = RngSeed(SEED, 200 * h + 20 * w + k).generator()
            for i in range(per_triple):
                if i % 2:
                    n = int(rng.integers(1, 11))
                    m = int(rng.integers(0, 3 * n // h + 3))
                    H = sample_uniform_multi(n, m, h, rng)
                else:
                    n = int(rng.integers(h, 11))
                    m = int(rng.integers(0, min(8, math.comb(n, h)) + 1))
                    H = sample_uniform_simple(n, m, h, rng)
                det = rancore(H, p)
                rnd = rancore(H, p, mode="randomized", rng=rng)
                assert det.core == rnd.core
                assert det.core_vertices == rnd.core_vertices

                core_vs, core_edges = brute_force_core(H.edges, H.n, h, w, k)
                names = sorted(det.core_vertices)
                assert names == core_vs
                relabeled = tuple(
                    sorted(
                        tuple(sorted(names[v] for v in e))
                        for e in det.core.edges
                    )
                )
                assert relabeled == core_edges

                res = orient(det.core, p)
                if isinstance(res, Orientation):
                    try:
                        full = extend_orientation(det, res, p)
                    except ExtensionConflictError:
                        conflicts += 1
                        assert any(len(set(e)) < len(e) for e in H.edges)
                    else:
                        ok, reason = verify_orientation(H, full, p)
                        assert ok, reason
                        extensions += 1
                total += 1
    assert total >= 1000
    assert extensions >= 100  # the extension clause must not run vacuously
    _verdict(
        "peeling and extension",
        f"{total} instances, {extensions} extensions verified, "
        f"{conflicts} multiset conflicts, {time.monotonic() - t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# sampled cores vs. the fixed-point prediction
# ---------------------------------------------------------------------------


def test_core_profile_tracks_numeric_prediction():
    p_tuple = (3, 2, 4)
    details = []
    for mu_bar in (5.0, 5.485, 6.0):
        cfg = ExperimentConfig(*p_tuple, 100_000, mu_bar, 10, SEED)
        rep = core_profile(cfg)
        assert rep.prediction is not None and not rep.prediction.empty
        assert rep.deviations["alpha"] <= 0.01, rep.deviations
        assert rep.deviations["mu_hat"] <= 0.01, rep.deviations
        assert rep.chi2_pvalue is not None
        assert rep.chi2_pvalue >= 1e-3, (
            f"core degrees reject truncated Poisson at mu_bar={mu_bar}: "
            f"p={rep.chi2_pvalue}"
        )
        details.append(
            f"mu={mu_bar}: dev(alpha)={rep.deviations['alpha']:.4f} "
            f"dev(mu_hat)={rep.deviations['mu_hat']:.4f} "
            f"chi2 p={rep.chi2_pvalue:.3f}"
        )
    _verdict("core profile", "; ".join(details))


@pytest.mark.parametrize(
    "hwk, mu_bar", [((3, 1, 1), 2.75), ((3, 1, 1), 2.6), ((5, 3, 2), 2.8)]
)
def test_core_profile_predicts_small_k_cores(hwk, mu_bar):
    # the ODE leaves its domain here (mean heavy degree reaches k+2) before
    # the light balls run out, yet sampled graphs keep a large core
    cfg = ExperimentConfig(*hwk, 60_000, mu_bar, 5, SEED)
    rep = core_profile(cfg)
    assert not rep.prediction.empty
    assert abs(rep.prediction.alpha - rep.mean_alpha) <= 0.01, (
        rep.prediction.alpha,
        rep.mean_alpha,
    )
    _verdict(
        "small-k core profile",
        f"{hwk} mu={mu_bar}: predicted alpha {rep.prediction.alpha:.4f}, "
        f"sampled {rep.mean_alpha:.4f}",
    )


# ---------------------------------------------------------------------------
# the orientability transition, located by sampling alone
# ---------------------------------------------------------------------------


def test_orientability_transition_is_sharp(tmp_path):
    # one hitting load per instance: an instance is orientable at mean
    # degree mu exactly when its hitting count exceeds the edge count there
    n, out = 100_000, tmp_path / "hitting.json"
    argv = ["simulate", "--h", "3", "--w", "2", "--k", "4", "--n", str(n),
            "--trials", "10", "--seed", str(SEED), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    rep = json.loads(out.read_text())
    m_stars = [r["m_star"] for r in rep["records"]]
    fractions = {}
    for mu in (5.4, 5.6):
        edges = ExperimentConfig(3, 2, 4, n, mu, 10, SEED).num_edges
        fractions[mu] = sum(m > edges for m in m_stars) / len(m_stars)
    assert fractions[5.4] >= 0.9, fractions
    assert fractions[5.6] <= 0.1, fractions
    assert abs(rep["estimate"] - 5.485) <= 0.05, rep["estimate"]
    q1, q3 = rep["quartiles"]
    _verdict(
        "sharp transition",
        f"fraction {fractions[5.4]:.2f} at 5.4, {fractions[5.6]:.2f} at 5.6, "
        f"median hitting load {rep['estimate']:.4f} (quartiles {q1:.4f}, {q3:.4f})",
    )


# ---------------------------------------------------------------------------
# closed-form identities behind the integration
# ---------------------------------------------------------------------------


def test_rate_inversion_and_tail_identities():
    # mean -> rate -> mean round-trips across the domain, back through the
    # closed form mu = lam + (k+1) P(X = k+1 | X >= k+1): scipy's tail, not
    # the series the solver iterates on; (700, 650) has its root past the
    # series' lam = 600 cut
    worst_rt = 0.0
    grid = [(k + 1 + bump, k) for k in range(1, 9)
            for bump in (0.05, 0.3, 1.0, 3.0, 10.0, 40.0)]
    for mu, k in [*grid, (700.0, 650)]:
        lam = solve_lambda(mu, k)
        assert 0.0 < lam < mu
        back = lam + (k + 1) * truncated_poisson_pmf(k + 1, lam, k + 1)
        err = abs(back - mu) / max(1.0, mu)
        assert err <= 1e-9, (mu, k, lam, back)
        worst_rt = max(worst_rt, err)

    # tails against exact rational partial sums, P(< k) = e^-mu sum mu^j/j!:
    # the ODE's start holds mu P(< k) as its light ball mass z_L(0)
    for k in range(1, 21):
        for mu_rat in (
            Fraction(1, 4),
            Fraction(1),
            Fraction(5, 2),
            Fraction(7),
            Fraction(31, 2),
        ):
            head = sum(
                Fraction(mu_rat**j, math.factorial(j)) for j in range(k)
            )
            expected = math.exp(-float(mu_rat)) * float(head)
            p = OrientationParams(3, 2, k)
            z_l0 = _split(p, _initial_vector(OdeParams(p, float(mu_rat))))[0]
            assert z_l0 / float(mu_rat) == pytest.approx(expected, rel=1e-11, abs=1e-300)
            assert poisson_tail(k, float(mu_rat)) == pytest.approx(
                1.0 - expected, abs=1e-12
            )

    # along a trajectory: the integrated rate equals the algebraic inverse
    params = OdeParams(OrientationParams(3, 2, 10), 14.766)
    _, lam, mu, _ = integrate_lambda_state(params)
    algebraic = np.array([solve_lambda(m, 10) for m in mu])
    dev = float(np.max(np.abs(lam - algebraic)))
    assert dev <= 1e-6
    assert np.all(lam <= mu)
    _verdict(
        "rate inversion",
        f"round-trip {worst_rt:.1e}, 100 rational tails, "
        f"trajectory deviation {dev:.1e}",
    )


# ---------------------------------------------------------------------------
# numerical robustness of the reported numbers
# ---------------------------------------------------------------------------


def test_integration_is_tolerance_stable_and_monotone():
    # halving the bisection tolerance must not move a reported figure by
    # more than the tolerance the table claims for it
    shift = 0.0
    for (h, w, k), (_, _, tol_tilde, tol_hat) in REFERENCE_ROWS.items():
        p = OrientationParams(h, w, k)
        base = find_threshold(p, tol=1e-4)
        tight = find_threshold(p, tol=5e-5)
        d_tilde = abs(tight.mu_tilde - base.mu_tilde)
        d_hat = abs(tight.mu_hat - base.mu_hat)
        assert d_tilde < tol_tilde, (h, w, k, d_tilde)
        assert d_hat < tol_hat, (h, w, k, d_hat)
        shift = max(shift, d_tilde / tol_tilde, d_hat / tol_hat)

    # predicted core density responds monotonically to the mean degree
    def kappa_at(p: OrientationParams, mu_bar: float) -> float:
        try:
            _, stats = integrate(OdeParams(p, mu_bar))
        except InitialStateError:
            return 0.0  # below the heavy-vertex domain: no core
        return 0.0 if stats.kappa is None else stats.kappa  # empty or unknown: no core

    for h, w, k in REFERENCE_ROWS:
        p = OrientationParams(h, w, k)
        grid = np.linspace(k + 1.5, h * k / w + 2.0, 11)
        kappas = [kappa_at(p, mu) for mu in grid]
        assert all(
            lo <= hi + 1e-9 for lo, hi in zip(kappas, kappas[1:])
        ), (h, w, k, kappas)
    _verdict(
        "numerical robustness",
        f"tolerance-halving shift at {shift:.2f} of claimed tolerance; "
        "density nondecreasing on 4 grids",
    )
