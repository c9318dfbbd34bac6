"""Truncated-Poisson machinery against an mpmath oracle and frozen values."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import f_k_mp, solve_lambda_mp, truncated_mean_mp
import wkorient.ode as ode
import wkorient.poisson as poisson
from wkorient.hypergraph import OrientationParams
from wkorient.ode import DomainError, OdeParams
from wkorient.poisson import (
    LambdaSolveError,
    log_poisson_tail,
    poisson_tail,
    solve_lambda,
    truncated_poisson_pmf,
)

# Frozen from tests/oracles.py (mpmath at 60 digits).
F_1_AT_2 = 0.86466471676338731
F_2_AT_1 = 0.26424111765711536
F_3_AT_2_5 = 0.45618688411667048
LAMBDA_MU2_K0 = 1.5936242600400401
MU_MINUS_LAMBDA_60_40 = 0.0888961417
MU_MINUS_LAMBDA_80_40 = 2.35229116e-5
MU_MINUS_LAMBDA_100_40 = 4.55938999e-10
TRUNC_MEAN_3_GE2 = 3.5595088334929184


def _start(mu_bar, k, w=2):
    """z_L, z_B and z_HV of the ODE's start at (h, w, k) = (w+1, w, k)."""
    p = OrientationParams(w + 1, w, k)
    return ode._split(p, ode._initial_vector(OdeParams(p, mu_bar)))[:3]


def _regularized_gamma_mp(k, mu, upper):
    """Q(k, mu) = P(Po(mu) <= k-1) (upper) or P(k, mu) = P(Po(mu) >= k),
    by mpmath at 60 digits."""
    with mpmath.workdps(60):
        mu = mpmath.mpf(mu)
        ends = (mu, mpmath.inf) if upper else (0, mu)
        return float(mpmath.gammainc(k, *ends, regularized=True))


def test_tail_convention_below_one():
    for mu in (0.0, 0.3, 7.0, 400.0):
        assert poisson_tail(0, mu) == 1.0
        assert poisson_tail(-3, mu) == 1.0


def test_tail_frozen_values():
    assert poisson_tail(1, 2.0) == pytest.approx(F_1_AT_2, rel=1e-14)
    assert poisson_tail(2, 1.0) == pytest.approx(F_2_AT_1, rel=1e-14)
    assert poisson_tail(3, 2.5) == pytest.approx(F_3_AT_2_5, rel=1e-14)


def test_tail_rejects_negative_mu():
    with pytest.raises(ValueError):
        poisson_tail(2, -0.5)


def test_log_tail_at_zero_rate():
    assert log_poisson_tail(3, 0.0) == -math.inf
    assert log_poisson_tail(0, 0.0) == 0.0


def test_log_tail_series_fallback_matches_mpmath():
    # P(Poisson(1e-6) >= 60) ~ e^-1017.6 underflows; the series form takes over
    assert poisson_tail(60, 1e-6) == 0.0
    got = log_poisson_tail(60, 1e-6)
    with mpmath.workdps(50):
        want = mpmath.log(mpmath.gammainc(60, 0, mpmath.mpf(1e-6), regularized=True))
        assert abs(mpmath.mpf(got) - want) <= 1e-16 * abs(want)
    assert got == pytest.approx(-1017.5588078851346, rel=1e-15)


@pytest.mark.parametrize("k", [1, 3, 5, 17, 40, 120, 200])
@pytest.mark.parametrize("mu", [0.1, 1.0, 17.5, 60.0, 200.0, 500.0])
def test_tail_matches_mpmath(k, mu):
    want = float(f_k_mp(k, mu))
    got = poisson_tail(k, mu)
    if want > 1e-290:
        assert got == pytest.approx(want, rel=1e-12)
    else:
        assert got <= 1e-290


def test_tail_complement_is_not_one_minus():
    """The ODE's light share z_L(0)/mu_bar = P(Po <= k-1) must come out
    exact even when it is ~1e-75."""
    with mpmath.workdps(60):
        want = float(1 - f_k_mp(5, 200.0))
    z_l0, _, _ = _start(200.0, 5)
    assert want < 1e-60
    assert z_l0 / 200.0 == pytest.approx(want, rel=1e-12)


def test_tail_pair_sums_to_one():
    # the ODE's light share P(Po <= k-1) and the tail P(Po >= k)
    for k in (1, 4, 33):
        for mu in (0.2, 5.0, 78.0):
            z_l0, _, _ = _start(mu, k)
            assert poisson_tail(k, mu) + z_l0 / mu == pytest.approx(1.0, abs=1e-14)


@given(
    k=st.integers(min_value=0, max_value=60),
    mu=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)
def test_tail_monotonicity(k, mu):
    f = poisson_tail(k, mu)
    assert 0.0 <= f <= 1.0
    assert poisson_tail(k + 1, mu) <= f + 1e-15
    assert poisson_tail(k, mu + 0.7) >= f - 1e-15


def test_tail_exact_rational_evaluation():
    """Agreement with big-integer series evaluation for rational mu, k <= 20.

    f_k(p/q) = 1 - exp(-mu) * sum_{i<k} mu^i/i!, with the sum done in
    Fractions and only the final product in 60-digit floats.
    """
    for k in range(1, 21):
        for mu_frac in (Fraction(1, 3), Fraction(5, 2), Fraction(41, 4)):
            head = sum(
                mu_frac**i / math.factorial(i) for i in range(k)
            )
            with mpmath.workdps(60):
                exact = 1 - mpmath.exp(-mpmath.mpf(mu_frac.numerator) / mu_frac.denominator) * (
                    mpmath.mpf(head.numerator) / head.denominator
                )
            got = poisson_tail(k, float(mu_frac))
            if exact > 1e-280:
                assert got == pytest.approx(float(exact), rel=1e-12)


# ---------------------------------------------------------------------------
# the lambda-mu relation
# ---------------------------------------------------------------------------


def test_solve_lambda_frozen():
    assert solve_lambda(2.0, 0) == pytest.approx(LAMBDA_MU2_K0, rel=1e-12)


def test_solve_lambda_residual():
    for mu, k in ((2.0, 0), (7.3, 3), (60.0, 40), (450.0, 200)):
        lam = solve_lambda(mu, k)
        resid = lam * poisson_tail(k, lam) - mu * poisson_tail(k + 1, lam)
        assert abs(resid) <= 1e-12 * mu


def test_solve_lambda_raises_on_a_residual_above_its_bound(monkeypatch):
    # a nan mean compares false both ways: the loop bisects up to mu and
    # would return it as the rate
    monkeypatch.setattr(poisson, "_mean_and_slope", lambda lam, k: (math.nan, math.nan))
    with pytest.raises(LambdaSolveError, match=r"mean 6\.0 at k = 4: residual nan"):
        solve_lambda(6.0, 4)


def test_solve_lambda_gap_at_k40():
    """mu - lambda for k=40 is ~0.089 at mu=60 and collapses as mu grows
    (frozen from the bisection oracle; the gap is mu*pmf_k/f_k)."""
    assert 60.0 - solve_lambda(60.0, 40) == pytest.approx(
        MU_MINUS_LAMBDA_60_40, rel=1e-6
    )
    assert 80.0 - solve_lambda(80.0, 40) == pytest.approx(
        MU_MINUS_LAMBDA_80_40, rel=1e-6
    )
    assert 100.0 - solve_lambda(100.0, 40) == pytest.approx(
        MU_MINUS_LAMBDA_100_40, rel=1e-4
    )


@given(
    k=st.integers(min_value=0, max_value=150),
    excess=st.floats(min_value=1e-6, max_value=300.0),
)
@settings(max_examples=200)
@example(k=650, excess=49.0)  # mu = 700: the root lies past the series' 600 cut
def test_solve_lambda_roundtrip_and_order(k, excess):
    mu = k + 1 + excess  # any mean above the support floor k+1 is solvable
    lam = solve_lambda(mu, k)
    assert 0.0 < lam <= mu + 1e-12
    # the closed form mu = lam + (k+1) P(X = k+1 | X >= k+1), whose tail is
    # scipy's, not the solver's series
    back = lam + (k + 1) * truncated_poisson_pmf(k + 1, lam, k + 1)
    assert back == pytest.approx(mu, rel=1e-9)


def test_solve_lambda_matches_mpmath():
    for mu, k in ((7.0, 4), (18.5, 10), (60.0, 40)):
        assert solve_lambda(mu, k) == pytest.approx(
            float(solve_lambda_mp(mu, k)), rel=1e-10
        )


def test_solve_lambda_takes_numpy_floats_where_the_slope_square_overflows():
    # T_5 exceeds 1e154 at these rates, so its square would overflow: a
    # numpy float must neither warn nor move the root
    for mu in (400.0, 500.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_lambda(np.float64(mu), 4) == solve_lambda(mu, 4)


def test_truncated_mean_frozen_and_oracle():
    # solve_lambda(mu, k - 1) inverts the mean of Poisson(lam) given >= k
    assert solve_lambda(TRUNC_MEAN_3_GE2, 1) == pytest.approx(3.0, rel=1e-13)
    for lam, k in ((0.5, 1), (4.0, 6), (90.0, 40), (700.0, 3)):
        mu = float(truncated_mean_mp(lam, k))
        assert solve_lambda(mu, k - 1) == pytest.approx(lam, rel=1e-10)


def test_solve_lambda_rejects_a_mean_below_the_support():
    for mu in (3.0, 2.5):
        with pytest.raises(ValueError, match="no truncated-Poisson rate"):
            solve_lambda(mu, 2)


def test_rate_layer_rejects_non_finite_input():
    # nan would run the tail series to its term guard; inf has no rate
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"mean {bad} "):
            solve_lambda(bad, 4)
        with pytest.raises(ValueError, match=f"got {bad}"):
            truncated_poisson_pmf(3, bad, 2)
    for tail in (poisson_tail, log_poisson_tail):
        with pytest.raises(ValueError, match="got nan"):
            tail(4, math.nan)
    assert poisson_tail(4, math.inf) == 1.0
    assert log_poisson_tail(4, math.inf) == 0.0


# ---------------------------------------------------------------------------
# the truncated Poisson pmf
# ---------------------------------------------------------------------------


def test_truncated_pmf_normalises():
    for lam, k in ((0.7, 1), (6.0, 3), (50.0, 20)):
        total = sum(truncated_poisson_pmf(j, lam, k) for j in range(k, k + 400))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert truncated_poisson_pmf(k - 1, lam, k) == 0.0
    with pytest.raises(ValueError):
        truncated_poisson_pmf(3, 0.0, 2)


def test_truncated_pmf_k0_is_plain_poisson():
    for j in range(8):
        want = math.exp(-3.0) * 3.0**j / math.factorial(j)
        assert truncated_poisson_pmf(j, 3.0, 0) == pytest.approx(want, rel=1e-12)


def test_truncated_mean_property():
    for lam, k in ((2.0, 2), (11.0, 4)):
        series = sum(j * truncated_poisson_pmf(j, lam, k) for j in range(k, k + 300))
        assert series == pytest.approx(float(truncated_mean_mp(lam, k)), rel=1e-10)


def test_heavy_bin_share_identity():
    # the share of heavy bins holding exactly k+1 balls, the ODE's z_A / z_HV
    for lam, k in ((1.3, 1), (6.0, 4), (55.0, 40), (700.0, 3)):
        want = math.exp(-lam) * lam ** (k + 1) / math.factorial(k + 1) / poisson_tail(k + 1, lam)
        assert truncated_poisson_pmf(k + 1, lam, k + 1) == pytest.approx(want, rel=1e-12)
    assert truncated_poisson_pmf(3, 4000.0, 3) < 1e-200


# ---------------------------------------------------------------------------
# the ODE's start, off the Poisson(mu_bar) degree law (`ode._initial_vector`)


def test_initial_conditions_reject_a_nonpositive_mean():
    # the start is read off OdeParams, which admits no such mean
    for mu_bar in (0.0, -1.0):
        with pytest.raises(DomainError, match="mu_bar must be positive"):
            _start(mu_bar, 2)


def test_initial_conditions_formulas():
    for mu_bar, k, w in ((5.485, 4, 2), (14.766, 10, 2), (2.0, 1, 3)):
        p = OrientationParams(w + 1, w, k)
        y0 = ode._initial_vector(OdeParams(p, mu_bar))
        assert not y0[: 2 * (w - 1)].any()  # no residual edge yet
        z_l0, z_b0, z_hv0 = ode._split(p, y0)[:3]
        assert z_b0 == mu_bar
        # heavy vertices: P(Poisson(mu_bar) >= k+1)
        assert z_hv0 == pytest.approx(_regularized_gamma_mp(k + 1, mu_bar, False), rel=1e-13)
        # light balls: mu_bar * P(Poisson(mu_bar) <= k-1)
        assert z_l0 == pytest.approx(mu_bar * _regularized_gamma_mp(k, mu_bar, True), rel=1e-13)
        # heavy degrees are Poisson(mu_bar) given >= k+1, so their rate
        # lambda(0), where tests/ode_reference.py starts, is mu_bar
        assert solve_lambda((z_b0 - z_l0) / z_hv0, k) == pytest.approx(mu_bar, rel=1e-9)


def test_initial_conditions_tail_limits():
    # at mu_bar = 500 the light mass keeps digits where 1 - tail has none
    z_l0, _, z_hv0 = _start(500.0, 4)
    assert 1.0 - poisson_tail(4, 500.0) == 0.0
    assert 0.0 < z_l0 < 1e-150
    assert z_l0 == pytest.approx(500.0 * _regularized_gamma_mp(4, 500.0, True), rel=1e-12)
    assert z_hv0 == pytest.approx(1.0, abs=1e-12)
