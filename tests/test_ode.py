"""The peeling-process differential equations and the density threshold."""

import hashlib
import io
import math
import re
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq, minimize_scalar

from ode_reference import integrate_lambda_state
from oracles import classical_core_fixed_point, iterated_core_fixed_point, sign_demand
from wkorient.hypergraph import OrientationParams
from wkorient.models import RngSeed, sample_uniform_multi
import wkorient.ode as ode
from wkorient.ode import (
    BracketError,
    DomainError,
    OdeParams,
    _System,
    core_emergence,
    core_fixed_point,
    f_star,
    find_threshold,
    integrate,
    trajectory_vs_trace,
)
from wkorient.peeling import ProcessTrace, rancore
from wkorient.poisson import poisson_tail

P324 = OrientationParams(3, 2, 4)
FAST = dict(rtol=1e-10)


def _solve(p, mu_bar, **kw):
    return integrate(OdeParams(p, mu_bar, **{**FAST, **kw}))


def _start(p, mu_bar):
    """z_L, z_B and z_HV of the ODE's start."""
    return ode._split(p, ode._initial_vector(OdeParams(p, mu_bar)))[:3]


# ---------------------------------------------------------------------------
# pieces


def test_f_star_cases():
    assert f_star(0.0, 0.0, 0.5) == 0.0
    assert f_star(0.2, 0.4, 0.5) == pytest.approx(0.2 * 0.2 / (0.5 * 0.4))
    assert f_star(0.7, 0.4, 0.5) == pytest.approx(0.4 / 0.5)  # a overshoots b
    assert f_star(-0.2, -0.4, 0.5) == pytest.approx(0.2 * 0.2 / (0.5 * 0.4))
    assert f_star(0.3, 0.0, 0.5) == 0.0
    assert f_star(0.2, 0.4, 0.0) == 0.0  # outside the domain, events own it


def test_f_star_with_a_vanished_denominator():
    assert f_star(-1.0, 0.0, 1.0) == 0.0


def _reference_f_star(a, b, z_l):
    """`f_star` as it was, one branch per case of its docstring."""
    if z_l <= 0.0:
        return 0.0
    if a == 0.0 and b == 0.0:
        return 0.0
    if 0.0 <= a <= b:
        return a * a / (z_l * b)
    if a > b >= 0.0:
        return b / z_l
    aa, bb = abs(a), abs(b)
    if bb == 0.0:
        return 0.0
    return aa * aa / (z_l * bb)


def _outcome(f, *args) -> str:
    """repr of f(*args), or the type and text of the error it raises."""
    try:
        return repr(f(*args))
    except (BracketError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_f_star_is_its_reference_bit_for_bit():
    edge = [0.0, 5e-324, 2.2e-308, 1e-300, 1e-160, 0.3, 0.7, 1.0, 1e160, 1e300,
            math.inf, math.nan]
    rng = np.random.default_rng(12)
    values = [*edge, *(-v for v in edge), *rng.uniform(-2.0, 2.0, 24).tolist()]
    outcomes = set()
    for a in values:
        for b in values:
            for z_l in values:
                got = _outcome(f_star, a, b, z_l)
                assert got == _outcome(_reference_f_star, a, b, z_l), (a, b, z_l)
                outcomes.add(got)
    # z_l |b| underflows to 0 on some triples
    assert "ZeroDivisionError: float division by zero" in outcomes and "nan" in outcomes


def test_no_heavy_vertex_means_no_migration():
    # z_HV = 0 with heavy balls left: no rate is solved and nothing migrates
    y = np.array([0.1, 0.2, 0.5, 1.0, 0.0])  # light_2, heavy_2, z_L, z_B, z_HV
    dy = _System(OdeParams(P324, 6.0)).rhs(0.0, y)
    assert np.isfinite(dy).all()
    assert dy[-1] == 0.0


def test_ode_params_validation():
    with pytest.raises(ValueError):
        OdeParams(P324, -1.0)
    for mu_bar in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="positive and finite"):
            OdeParams(P324, mu_bar)
    for rtol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            OdeParams(P324, 5.0, rtol=rtol)
    with pytest.raises(ValueError, match=r"at least 100 \* machine epsilon = 2.220446049250313e-14"):
        OdeParams(P324, 5.0, rtol=1e-15)
    OdeParams(P324, 5.0, rtol=2.220446049250313e-14)


def test_columns_hold_the_mean_degree_identity():
    traj, _ = integrate(OdeParams(P324, 6.0, **FAST))
    cols = traj.columns()
    assert cols["z_B"] - cols["z_L"] == pytest.approx(cols["mu"] * cols["z_HV"])


def test_initial_ball_derivative():
    # one ball is recoloured per unit of x; with w >= 2 nothing else moves
    # at the start, while w = 1 kills the whole remaining edge alongside
    for p, mu_bar, want in [
        (P324, 6.0, -1.0),
        (OrientationParams(4, 3, 2), 8.0, -1.0),
        (OrientationParams(2, 1, 2), 5.0, -2.0),
    ]:
        params = OdeParams(p, mu_bar, **FAST)
        traj, _ = integrate(params)
        sys = _System(params)
        i_zB = 2 * (p.w - 1) + 1  # dz_B in the state layout
        rates = [sys.rhs(x, y)[i_zB] for x, y in zip(traj.x, traj.y.T)]
        assert rates[0] == pytest.approx(want, abs=1e-9)
        assert max(rates) <= -1.0 + 1e-9


def test_domain_is_checked_up_front():
    with pytest.raises(ValueError, match="not above k\\+2"):
        integrate(OdeParams(P324, 2.0))
    with pytest.raises(ValueError, match="no heavy vertices"):
        integrate(OdeParams(P324, 1e-300))


# ---------------------------------------------------------------------------
# whole trajectories


def test_supercritical_run_keeps_a_core():
    traj, stats = _solve(P324, 6.0)
    assert stats.terminated_by == "z_L"
    assert not stats.empty
    assert 0.0 < stats.alpha <= 1.0
    assert stats.kappa > P324.k  # above the threshold the core is too dense
    assert set(stats.beta) == {3, 2}
    assert all(b >= 0.0 for b in stats.beta.values())
    # density bounds from the size window: every core edge of size s
    # contributes s balls and s-(h-w) sign demands
    assert stats.kappa <= stats.mu_hat * P324.w / P324.h + 1e-12
    assert stats.kappa >= stats.mu_hat / (P324.h - P324.w + 1) - 1e-12


def test_mildly_subcritical_core_is_orientable():
    _, stats = _solve(P324, 5.0)
    assert stats.terminated_by == "z_L"
    assert 0.0 < stats.alpha < 0.5
    assert stats.kappa < P324.k


def test_strongly_subcritical_core_vanishes():
    # the ODE reads no core off a mu_floor ending: the core is unknown there,
    # and the fixed point gives the empty one
    _, stats = _solve(P324, 4.5)
    assert stats.terminated_by == "mu_floor"
    assert not stats.empty
    assert (stats.alpha, stats.beta, stats.kappa, stats.mu_hat) == (None,) * 4
    assert core_fixed_point(P324, 4.5).empty


def test_monotone_sample_columns():
    traj, _ = _solve(P324, 5.485)
    cols = traj.columns()
    assert (np.diff(cols["x"]) > 0).all()
    assert (np.diff(cols["z_B"]) < 0).all()
    assert (np.diff(cols["z_L"]) < 0).all()
    assert (cols["z_B"] - cols["z_L"] >= -1e-12).all()
    assert (cols["mu"] > P324.k + 2).all()  # strict until the terminal event
    for s in (3, 2):
        assert (cols[f"z_H_{s}"] >= -1e-9).all()


def test_w1_reduction_matches_classical_fixed_points():
    # with w = 1 the core is the plain min-degree-(k+1) core, whose size
    # solves a scalar fixed-point equation; four pinned cases
    cases = [
        ((2, 2), 5.0, 0.852805964569, 5.29489981673),
        ((3, 2), 6.0, 0.925562444723, 6.07145510553),
        ((3, 3), 9.0, 0.9768450781, 9.02448933921),
        ((2, 3), 6.0, 0.7927389608, 6.24804106049),
    ]
    for (h, k), mu_bar, alpha, mu_hat in cases:
        a_or, m_or = classical_core_fixed_point(h, k, mu_bar)
        assert float(a_or) == pytest.approx(alpha, rel=1e-9)
        assert float(m_or) == pytest.approx(mu_hat, rel=1e-9)
        _, stats = _solve(OrientationParams(h, 1, k), mu_bar)
        assert stats.alpha == pytest.approx(alpha, rel=1e-7)
        assert stats.mu_hat == pytest.approx(mu_hat, rel=1e-7)
        fixed = core_fixed_point(OrientationParams(h, 1, k), mu_bar)
        assert fixed.alpha == pytest.approx(alpha, rel=1e-9)
        assert fixed.mu_hat == pytest.approx(mu_hat, rel=1e-9)


def test_lambda_modes_agree():
    # the integrated rate of the reference against the algebraic inverse
    _, alg = _solve(P324, 5.485)
    *_, via_ode = integrate_lambda_state(OdeParams(P324, 5.485, **FAST))
    assert via_ode.kappa == pytest.approx(alg.kappa, abs=1e-8)
    assert via_ode.alpha == pytest.approx(alg.alpha, abs=1e-8)
    assert via_ode.x_star == pytest.approx(alg.x_star, abs=1e-8)


def test_almost_everything_is_heavy_at_large_mean():
    # the peelable remnant shrinks like the light tail of the degree law
    for mu_bar in (20.0, 30.0):
        _, stats = _solve(P324, mu_bar)
        slack = 3.0 * (1.0 - poisson_tail(P324.k, mu_bar)) * mu_bar
        assert 0.0 < stats.x_star <= slack
        assert stats.alpha >= 1.0 - 8.0 * slack


def test_integration_records_exactly_the_ending_it_reports(monkeypatch):
    """Every event is terminal, so scipy records one root per run, and
    integrate's ending is that root's event."""
    solved = []

    def solve(sys, y0):
        out = real_solve(sys, y0)
        solved.append(out[0])
        return out

    real_solve = ode._solve
    monkeypatch.setattr(ode, "_solve", solve)
    endings = Counter()
    for h in range(2, 5):
        for w in range(1, h):
            for k in (2, 6):
                for mu_bar in (3.0, 5.0, 8.0):
                    solved.clear()
                    try:
                        _, stats = _solve(OrientationParams(h, w, k), mu_bar)
                    except ode.InitialStateError:
                        continue
                    (sol,) = solved
                    recorded = [(name, len(te)) for name, te
                                in zip(ode._EVENT_NAMES, sol.t_events) if len(te)]
                    assert recorded == [(stats.terminated_by, 1)], (h, w, k, mu_bar)
                    endings[stats.terminated_by] += 1
    assert endings["z_L"] > 0 and endings["mu_floor"] > 0, endings


def test_all_light_mass_underflows_to_instant_core():
    traj, stats = integrate(OdeParams(P324, 1e4))
    z_l0, _, z_hv0 = _start(P324, 1e4)
    assert z_l0 == 0.0
    assert stats.x_star == 0.0
    assert stats.alpha == z_hv0
    assert traj.dense is None
    assert len(traj.x) == 1
    with pytest.raises(ValueError):
        trajectory_vs_trace(traj, None)


def test_trajectory_csv_layout():
    traj, _ = _solve(P324, 6.0)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,z_L,z_B,z_HV,z_L_3,z_L_2,z_H_3,z_H_2,lambda,mu"
    assert len(lines) >= 17
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    z_l0, z_b0, z_hv0 = _start(P324, 6.0)
    assert first["x"] == 0.0
    assert first["z_L"] == pytest.approx(z_l0, rel=1e-9)
    assert first["z_B"] == pytest.approx(z_b0, rel=1e-9)
    assert first["z_HV"] == pytest.approx(z_hv0, rel=1e-9)


# ---------------------------------------------------------------------------
# the closed-form core fixed point


@pytest.mark.parametrize(
    "hwk, mu_bar",
    [
        ((3, 2, 4), 5.0),
        ((3, 2, 4), 5.48471),
        ((3, 2, 4), 6.0),
        ((3, 2, 10), 14.7),
        ((3, 2, 40), 59.99),
        ((10, 2, 4), 19.9),
    ],
)
def test_fixed_point_matches_integrated_endpoint(hwk, mu_bar):
    # where the ODE ends cleanly at z_L, its endpoint is the core the
    # fixed point describes
    p = OrientationParams(*hwk)
    _, ref = integrate(OdeParams(p, mu_bar))
    assert ref.terminated_by == "z_L"
    got = core_fixed_point(p, mu_bar)
    assert got.terminated_by == "fixed_point"
    for name in ("alpha", "kappa", "mu_hat", "x_star"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-8), name
    assert set(got.beta) == set(ref.beta)
    for s, b in ref.beta.items():
        assert got.beta[s] == pytest.approx(b, rel=1e-8), s


def test_fixed_point_underflow_reads_as_empty_core():
    # below core emergence q -> 0; alpha would underflow towards 1e-169
    # and the demand ratio blow up instead of reading 0
    for mu_bar in (4.5, 1e-3):
        stats = core_fixed_point(P324, mu_bar)
        assert stats.empty
        assert stats.kappa is None and stats.mu_hat is None
        assert set(stats.beta.values()) == {0.0}


def test_fixed_point_rejects_undefined_mean_degree():
    for mu_bar in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            core_fixed_point(P324, mu_bar)
    assert issubclass(DomainError, ValueError)


def test_a_solve_without_a_sign_change_names_the_point(monkeypatch):
    # an emergence rate past mu_bar leaves mu(x) - mu_bar positive at both
    # ends of the core's bracket; one at hk/w leaves the threshold's
    # density above k at both ends of its bracket
    monkeypatch.setattr(ode, "core_emergence", lambda p: (10.0, 1.0))
    with pytest.raises(BracketError, match=r"\(h, w, k\) = \(3, 2, 4\)"):
        core_fixed_point(P324, 5.0)
    monkeypatch.setattr(
        ode, "core_emergence", lambda p: (6.0, ode._mean_degree(p, 6.0))
    )
    with pytest.raises(BracketError, match=r"\(h, w, k\) = \(3, 2, 4\)"):
        find_threshold(P324)


# mu_c, the minimum of mu(x) = x / r(q(x)), at six discontinuous emergences
EMERGENCE = {
    (3, 2, 4): 4.8952906802,
    (3, 2, 10): 12.4347574,
    (3, 2, 40): 46.9845180,
    (10, 2, 4): 8.2846496,
    (3, 1, 1): 2.4554075,
    (5, 3, 2): 2.4288979,
}
CONTINUOUS = [(2, 1, 1), (3, 2, 1), (4, 3, 1)]  # k(h-w) = 1


def test_core_emergence_finds_the_minimum():
    for hwk, mu_c in EMERGENCE.items():
        x_c, got = core_emergence(OrientationParams(*hwk))
        assert got == pytest.approx(mu_c, rel=1e-7), hwk
        assert 0.0 < x_c < got
    for h, w, k in CONTINUOUS:
        assert core_emergence(OrientationParams(h, w, k)) == (0.0, 1.0 / (h - 1))


def _reference_mean_degree(p, x):
    """`ode._mean_degree` as it was: gammainc given the int k, and bdtrc
    given gammainc's numpy-scalar q."""
    h, w, k = p.h, p.w, p.k
    r = float(special.bdtrc(h - w - 1, h - 1, special.gammainc(k, x)))
    if r > 0.0:
        return x / r
    return 1.0 / (h - 1) if x == 0.0 and k * (h - w) == 1 else math.inf


def _reference_emergence(p, mean_degree=_reference_mean_degree):
    """`core_emergence` as it was: scipy's bounded minimizer in log x."""
    h, w, k = p.h, p.w, p.k
    m = k * (h - w)
    if m == 1:
        return 0.0, mean_degree(p, 0.0)
    x_hi = h * k / w
    log_a = (h - w) * math.lgamma(k + 1) - math.log(math.comb(h - 1, h - w))
    t_lo = (log_a - math.log(mean_degree(p, x_hi))) / (m - 1)
    res = minimize_scalar(
        lambda t: mean_degree(p, math.exp(t)), bounds=(t_lo, math.log(x_hi)),
        method="bounded", options={"xatol": 1e-10},
    )
    return math.exp(res.x), float(res.fun)


def _counted(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def test_emergence_equals_scipys_bounded_minimizer(monkeypatch):
    # every (h, w) with h <= 20 across k: the same floats from the same
    # number of mean-degree evaluations
    counts = {}
    monkeypatch.setattr(ode, "_mean_degree", _counted(ode._mean_degree, counts, "package"))
    reference = _counted(_reference_mean_degree, counts, "reference")
    for h in range(2, 21):
        for w in range(1, h):
            for k in (1, 2, 3, 4, 5, 6, 7, 10, 20, 40, 100, 200):
                p = OrientationParams(h, w, k)
                counts.clear()
                assert repr(core_emergence(p)) == repr(_reference_emergence(p, reference)), p
                assert counts["package"] == counts["reference"], p


def test_bounded_minimum_stops_at_scipys_evaluation_cap():
    # xatol 1e-300 never converges: both stop at the 500th evaluation
    counts = {}
    res = minimize_scalar(_counted(abs, counts, "scipy"), bounds=(-1.0, 2.0),
                          method="bounded", options={"xatol": 1e-300})
    got = ode._bounded_minimum(_counted(abs, counts, "package"), -1.0, 2.0, xatol=1e-300)
    assert res.nfev == 500 and res.status == 1
    assert counts == {"scipy": 500, "package": 500}
    assert repr(got) == repr((float(res.x), float(res.fun)))


@pytest.mark.parametrize("hwk", EMERGENCE)
def test_fixed_point_matches_the_q_iteration_above_emergence(hwk):
    p = OrientationParams(*hwk)
    _, mu_c = core_emergence(p)
    for mu_bar in (mu_c + 0.01, mu_c + 0.5, mu_c + 2.0):
        got = core_fixed_point(p, mu_bar)
        ref = iterated_core_fixed_point(*hwk, mu_bar)
        for name in ("alpha", "kappa", "mu_hat", "x_star"):
            assert getattr(got, name) == pytest.approx(ref[name], rel=1e-9), (
                mu_bar,
                name,
            )
        assert set(got.beta) == set(ref["beta"])
        for s, b in ref["beta"].items():
            assert got.beta[s] == pytest.approx(b, rel=1e-9), (mu_bar, s)


@pytest.mark.parametrize("hwk", [*EMERGENCE, *CONTINUOUS])
def test_fixed_point_is_empty_below_emergence(hwk):
    # every edge dies, each granting its w signs; a continuous emergence
    # starts from the empty core at mu_c itself
    p = OrientationParams(*hwk)
    _, mu_c = core_emergence(p)
    below = [0.5 * mu_c, mu_c * (1 - 1e-9)]
    for mu_bar in below + ([mu_c] if hwk in CONTINUOUS else []):
        stats = core_fixed_point(p, mu_bar)
        assert stats.empty and stats.kappa is None and stats.mu_hat is None
        assert set(stats.beta.values()) == {0.0}
        assert stats.x_star == pytest.approx(p.w * mu_bar / p.h, rel=1e-15)


# ---------------------------------------------------------------------------
# the threshold and the simulated process


def test_threshold_brackets_the_known_crossing():
    res = find_threshold(P324, tol=1e-3)
    assert 5.4 < res.mu_tilde < 5.6
    assert res.bracket[1] - res.bracket[0] <= 1e-3
    assert res.kappa_lo <= P324.k < res.kappa_hi
    assert res.stats_at_threshold is not None
    assert res.mu_hat == pytest.approx(6.65, abs=0.05)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            find_threshold(P324, tol=tol)


def test_threshold_stays_below_counting_bound():
    # hk/w balls per vertex is a hard wall; the threshold sits strictly under
    res = find_threshold(OrientationParams(10, 2, 4), tol=1e-3)
    assert res.mu_tilde < 10 * 4 / 2


@pytest.mark.parametrize("hwk, mu_tilde", [
    ((20, 1, 5), None),  # the density at hk/w rounds to exactly k
    ((3, 2, 200), 299.9999996828614),
    ((2, 1, 100), 199.999999693981),
    ((20, 2, 4), 39.99999953351622),
    ((30, 1, 1), 29.999999627247412),
])
def test_threshold_within_float_noise_of_the_counting_bound(hwk, mu_tilde):
    h, w, k = hwk
    res = find_threshold(OrientationParams(h, w, k), tol=1e-6)
    assert res.mu_tilde == pytest.approx(h * k / w, abs=1e-6)
    assert res.bracket[0] <= res.mu_tilde <= res.bracket[1]
    assert res.bracket[1] - res.bracket[0] <= 1e-6
    assert res.kappa_lo <= k < res.kappa_hi
    if mu_tilde is not None:
        assert res.mu_tilde == pytest.approx(mu_tilde, rel=1e-12)


def _reference_core(p, mu_bar, x):
    """`ode._core_at` as it was: the core at rate x, its density weighted
    by `sign_demand`."""
    h, w, k = p.h, p.w, p.k
    q = float(special.gammainc(k, x))
    edges = mu_bar / h
    beta = {s: edges * math.comb(h, s) * q**s * (1.0 - q) ** (h - s) for s in p.sizes}
    x_star = mu_bar / h * w * float(special.bdtr(h - w, h, q)) + sum(
        (h - s) * b for s, b in beta.items()
    )
    alpha = float(special.gammainc(k + 1, x))
    kappa = mu_hat = None
    if alpha > 0:
        kappa = sum(sign_demand(h, w, s) * b for s, b in beta.items()) / alpha
        mu_hat = sum(s * b for s, b in beta.items()) / alpha
    return ode.CoreStats(x_star, alpha, beta, kappa, mu_hat, "fixed_point")


def _reference_fixed_point(p, mu_bar, x_c, mu_c):
    """`ode._fixed_point` as it was, on the reference mean degree and core."""
    if mu_bar < mu_c:
        return _reference_core(p, mu_bar, 0.0)

    def gap(x):
        return _reference_mean_degree(p, x) - mu_bar

    if not gap(x_c) <= 0.0 <= gap(mu_bar):
        raise BracketError(f"mu(x) = {mu_bar} has no root on x in [{x_c}, "
                           f"{mu_bar}] at (h, w, k) = ({p.h}, {p.w}, {p.k})")
    return _reference_core(p, mu_bar, brentq(gap, x_c, mu_bar))


def _reference_threshold(p, tol, emergence=_reference_emergence):
    """`find_threshold` as it was before it shared work, on none of the
    package's solver functions: emergence through scipy's bounded minimizer,
    solved a second time by the closing fixed point, and a full core built
    at each end and bisection point.  The solve must equal it bit for bit."""
    x_c, mu_c = emergence(p)
    x_lo, x_hi = x_c, p.h * p.k / p.w
    mu_lo, mu_hi = mu_c, _reference_mean_degree(p, x_hi)
    kappa_lo = _reference_core(p, mu_lo, x_lo).kappa
    kappa_hi = _reference_core(p, mu_hi, x_hi).kappa
    if kappa_hi <= p.k:
        x_hi *= 2
        mu_hi = _reference_mean_degree(p, x_hi)
        kappa_hi = _reference_core(p, mu_hi, x_hi).kappa
    if not ((kappa_lo is None or kappa_lo <= p.k) and p.k < kappa_hi):
        raise BracketError(f"core density {kappa_lo} to {kappa_hi} on x in [{x_lo}, "
                           f"{x_hi}] at (h, w, k) = ({p.h}, {p.w}, {p.k})")
    iterations = 0
    while mu_hi - mu_lo > tol:
        x = 0.5 * (x_lo + x_hi)
        if x in (x_lo, x_hi):
            break
        mu_x = _reference_mean_degree(p, x)
        kappa_x = _reference_core(p, mu_x, x).kappa
        if kappa_x <= p.k:
            x_lo, mu_lo, kappa_lo = x, mu_x, kappa_x
        else:
            x_hi, mu_hi, kappa_hi = x, mu_x, kappa_x
        iterations += 1
    mu_tilde = mu_c if x_c == 0.0 else 0.5 * (mu_lo + mu_hi)
    stats = _reference_fixed_point(p, mu_tilde, *emergence(p))
    return ode.ThresholdResult(mu_tilde, (mu_lo, mu_hi), kappa_lo, kappa_hi, iterations, stats)


def test_threshold_equals_the_reference_bit_for_bit():
    # every (h, w) with h <= 10, across k and tol, and (20, 1, 5), whose
    # upper end moves to 2hk/w
    triples = [(h, w, k) for h in range(2, 11) for w in range(1, h)
               for k in (1, 2, 3, 4, 5, 7, 10, 40)] + [(20, 1, 5)]
    for hwk in triples:
        p = OrientationParams(*hwk)
        for tol in (1e-3, 1e-4, 1e-7):
            assert _outcome(find_threshold, p, tol) == _outcome(_reference_threshold, p, tol), (
                hwk, tol)


def test_threshold_bracket_errors_keep_their_messages(monkeypatch):
    # the two sign-change failures of test_a_solve_without_a_sign_change_names_the_point
    monkeypatch.setattr(ode, "core_emergence", lambda p: (10.0, 1.0))
    with pytest.raises(BracketError) as got:
        core_fixed_point(P324, 5.0)
    assert str(got.value) == "mu(x) = 5.0 has no root on x in [10.0, 5.0] at (h, w, k) = (3, 2, 4)"
    monkeypatch.setattr(ode, "core_emergence", lambda p: (6.0, ode._mean_degree(p, 6.0)))
    reference = partial(_reference_threshold,
                        emergence=lambda p: (6.0, _reference_mean_degree(p, 6.0)))
    assert _outcome(find_threshold, P324, 1e-4) == _outcome(reference, P324, 1e-4)
    assert _outcome(find_threshold, P324, 1e-4).startswith("BracketError: core density ")


def test_threshold_solves_emergence_once_and_builds_one_core(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("core_emergence", "_core_at", "CoreStats"):
        monkeypatch.setattr(ode, name, counted(name, getattr(ode, name)))
    for hwk in [*EMERGENCE, *CONTINUOUS, (20, 1, 5)]:
        calls.clear()
        res = find_threshold(OrientationParams(*hwk))
        assert calls == {"core_emergence": 1, "_core_at": 1, "CoreStats": 1}, hwk
        assert res.stats_at_threshold is not None


def test_bisection_point_reads_mean_degree_and_density_bit_for_bit():
    def same(p, x):
        mu, kappa = ode._mean_degree_and_kappa(p, x)
        assert repr(mu) == repr(_reference_mean_degree(p, x)), (p, x)
        assert repr(kappa) == repr(_reference_core(p, mu, x).kappa), (p, x)
        return kappa

    for h, w, k in CONTINUOUS:
        assert same(OrientationParams(h, w, k), 0.0) is None
    for hwk in [*EMERGENCE, *CONTINUOUS, (20, 1, 5)]:
        p = OrientationParams(*hwk)
        same(p, p.h * p.k / p.w)
        same(p, 2 * p.h * p.k / p.w)
    for hwk in EMERGENCE:
        p = OrientationParams(*hwk)
        for x in np.linspace(0.0, 2 * p.h * p.k / p.w, 401)[1:]:
            same(p, float(x))


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_continuous_emergence_is_the_threshold(tol):
    # k(h-w) = 1: the core grows from nothing at density k, so the density
    # exceeds k from mu_c = 1/(h-1) on
    for h, w, k in CONTINUOUS:
        res = find_threshold(OrientationParams(h, w, k), tol=tol)
        assert res.mu_tilde == pytest.approx(1.0 / (h - 1), abs=1e-12)
        assert res.bracket[0] <= res.mu_tilde <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= tol
        assert res.kappa_lo is None and k < res.kappa_hi
        assert res.stats_at_threshold.empty


def test_threshold_bisection_ends_on_a_collapsed_bracket():
    # a tol below the float spacing of the mean degree ends when its two
    # ends round to the same float (mu_hi - mu_lo == 0.0), while x_lo < x_hi
    res = find_threshold(P324, tol=1e-300)
    assert res.bracket == (5.484710208326618, 5.484710208326618)
    assert res.kappa_lo <= P324.k < res.kappa_hi
    assert res.iterations == 50


def test_threshold_bisection_ends_on_an_exhausted_midpoint():
    # below every float spacing only the midpoint meeting an end stops it
    p = OrientationParams(2, 1, 2)
    res = find_threshold(p, tol=5e-324)
    assert res.bracket[0] < res.bracket[1]
    assert res.kappa_lo <= p.k < res.kappa_hi
    assert res.iterations == 52


def test_heavy_bin_share_is_the_rate_identity():
    # z_A / z_HV, the share of heavy bins at exactly k+1 balls, is
    # (mu - lambda) / (k+1): the inversion's closed form read off the ODE
    for hwk, mu_bar in (((3, 2, 4), 5.0), ((3, 2, 10), 14.766), ((3, 1, 1), 2.75)):
        traj, _ = integrate(OdeParams(OrientationParams(*hwk), mu_bar))
        cols = traj.columns()
        on = ~np.isnan(cols["lambda"])
        assert on.sum() > 10, hwk
        k = hwk[2]
        want = (cols["mu"][on] - cols["lambda"][on]) / (k + 1) * cols["z_HV"][on]
        np.testing.assert_allclose(cols["z_A"][on], want, rtol=0, atol=1e-13)


def test_trajectory_vs_trace_is_pinned():
    # repr of every deviation of one seeded n = 2000 randomized trace: any
    # change in how a state matrix is read into columns shows up here
    n = 2000
    H = sample_uniform_multi(n, round(5.0 * n / 3), 3, RngSeed(5, 1).generator())
    pr = rancore(H, P324, mode="randomized", rng=RngSeed(5, 2).generator(), trace=True)
    traj, _ = integrate(OdeParams(P324, 5.0))
    devs = trajectory_vs_trace(traj, pr.trace)
    assert {name: repr(d) for name, d in devs.items()} == {
        "z_L": "0.04794194231273288",
        "z_B": "0.0036172425512444903",
        "z_HV": "0.025024365668657702",
        "z_L_3": "0.027217255945987753",
        "z_H_3": "0.01187302056364632",
        "z_L_2": "0.19914827517936598",
        "z_H_2": "0.043450865243610776",
        "z_A": "0.06826636712176619",
    }


def test_trajectory_vs_trace_rejects_other_parameters():
    H = sample_uniform_multi(300, 500, 3, RngSeed(5, 1).generator())
    trace = rancore(H, P324, mode="randomized", rng=RngSeed(5, 2).generator(),
                    trace=True).trace
    for hwk, mu_bar in (((4, 2, 3), 6.5), ((3, 1, 1), 3.0)):
        traj, _ = integrate(OdeParams(OrientationParams(*hwk), mu_bar))
        want = f"trace of (h, w, k) = (3, 2, 4) against a trajectory of {hwk}"
        with pytest.raises(ValueError, match=re.escape(want)):
            trajectory_vs_trace(traj, trace)


def test_trajectory_vs_trace_needs_an_overlap():
    # a hand-built one-row trace recorded past the trajectory's end
    traj, _ = integrate(OdeParams(P324, 5.0))
    census = np.zeros((1, 3 + 2 * (P324.h + 1)), dtype=np.int64)
    census[0, 0] = 1000
    trace = ProcessTrace(1, P324, 1, census)
    assert trace.scaled()["x"][0] > traj.x[-1]
    with pytest.raises(ValueError, match="share no x-range"):
        trajectory_vs_trace(traj, trace)


@pytest.mark.parametrize(
    "hwk, mu_bar, digest, stats",
    [
        (
            (4, 3, 2),
            5.0,
            "d20f1028e9c5e39326fd0448ec7f9d5bb911c03df42a715364c4707d1d03c1c7",
            "CoreStats(x_star=0.20219077175744968, alpha=0.8753201291699148, "
            "beta={4: 1.0597433185136547, 3: 0.17864321067354202, "
            "2: 0.011292851354507126}, kappa=4.053156222520577, "
            "mu_hat=5.480838894147016, terminated_by='z_L')",
        ),
        (
            (6, 4, 3),
            9.0,
            "4e9c987fb5cbbcfdc6ae82a5b9086481ce5cd951fd02a4d3634a357ce9758c6f",
            "CoreStats(x_star=0.056089758911590584, alpha=0.9787735126842722, "
            "beta={6: 1.4447769189112112, 5: 0.05436359735284566, "
            "4: 0.0008523232544856703, 3: 7.126876223496206e-06}, "
            "kappa=6.0728147667048, mu_hat=9.13787516516417, terminated_by='z_L')",
        ),
    ],
)
def test_trajectory_beyond_two_signs_is_pinned(hwk, mu_bar, digest, stats):
    # w >= 3 leaves more than one bucket beside size h, so the order in
    # which the bucket columns are summed shows up in the bits: sha256 of
    # x, the state matrix and every named column, and the core's repr
    traj, got = integrate(OdeParams(OrientationParams(*hwk), mu_bar))
    h = hashlib.sha256(traj.x.tobytes())
    h.update(traj.y.tobytes())
    for name, col in sorted(traj.columns().items()):
        h.update(name.encode())
        h.update(col.tobytes())
    assert h.hexdigest() == digest
    assert repr(got) == stats


@pytest.mark.slow
def test_simulated_process_converges_to_trajectory():
    traj, _ = _solve(P324, 5.0)
    devs = {}
    for n, seed in [(1000, 3), (10000, 3)]:
        H = sample_uniform_multi(n, round(5.0 * n / 3), 3, RngSeed(seed, 1).generator())
        pr = rancore(H, P324, mode="randomized", rng=RngSeed(seed, 2).generator(), trace=True)
        devs[n] = trajectory_vs_trace(traj, pr.trace)
    assert set(devs[1000]) == set(devs[10000])
    for var, coarse in devs[1000].items():
        assert devs[10000][var] < max(coarse, 0.01)
    assert max(devs[10000].values()) < 0.1
