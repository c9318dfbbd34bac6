"""Truncated-Poisson machinery against an mpmath oracle and frozen values."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import f_k_mp, solve_lambda_mp, truncated_mean_mp
from wkorient.poisson import (
    TruncatedPoisson,
    heavy_bucket_fraction,
    initial_conditions,
    poisson_tail,
    poisson_tail_complement,
    solve_lambda,
    truncated_mean_from_rate,
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
    """The lower tail must come out exact even when it is ~1e-75."""
    with mpmath.workdps(60):
        want = float(1 - f_k_mp(5, 200.0))
    got = poisson_tail_complement(5, 200.0)
    assert want < 1e-60
    assert got == pytest.approx(want, rel=1e-12)


def test_tail_pair_sums_to_one():
    for k in (1, 4, 33):
        for mu in (0.2, 5.0, 78.0):
            total = poisson_tail(k, mu) + poisson_tail_complement(k, mu)
            assert total == pytest.approx(1.0, abs=1e-14)


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
def test_solve_lambda_roundtrip_and_order(k, excess):
    mu = k + 1 + excess  # any mean above the support floor k+1 is solvable
    lam = solve_lambda(mu, k)
    assert 0.0 < lam <= mu + 1e-12
    back = truncated_mean_from_rate(lam, k + 1)
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
    assert truncated_mean_from_rate(3.0, 2) == pytest.approx(
        TRUNC_MEAN_3_GE2, rel=1e-13
    )
    for lam, k in ((0.5, 1), (4.0, 6), (90.0, 40), (700.0, 3)):
        want = float(truncated_mean_mp(lam, k))
        assert truncated_mean_from_rate(lam, k) == pytest.approx(want, rel=1e-10)


def test_truncated_mean_zero_rate():
    # conditioning Poisson(0) on >= k concentrates at exactly k
    assert truncated_mean_from_rate(0.0, 5) == 5.0


# ---------------------------------------------------------------------------
# TruncatedPoisson distribution object
# ---------------------------------------------------------------------------


def test_truncated_pmf_normalises():
    for lam, k in ((0.7, 1), (6.0, 3), (50.0, 20)):
        d = TruncatedPoisson(lam, k)
        total = sum(d.pmf(j) for j in range(k, k + 400))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert d.pmf(k - 1) == 0.0


def test_truncated_pmf_k0_is_plain_poisson():
    d = TruncatedPoisson(3.0, 0)
    for j in range(8):
        want = math.exp(-3.0) * 3.0**j / math.factorial(j)
        assert d.pmf(j) == pytest.approx(want, rel=1e-12)


def test_truncated_mean_property():
    for lam, k in ((2.0, 2), (11.0, 4)):
        d = TruncatedPoisson(lam, k)
        series = sum(j * d.pmf(j) for j in range(k, k + 300))
        assert d.mean() == pytest.approx(series, rel=1e-10)
        assert d.mean() == pytest.approx(
            truncated_mean_from_rate(lam, k), rel=1e-12
        )


def test_sampler_moments_and_support():
    d = TruncatedPoisson(4.5, 3)
    rng = np.random.default_rng(1234)
    draws = d.sample_array(rng, 200_000)
    assert draws.min() >= 3
    sigma = math.sqrt(float(np.var(draws)) / draws.size)
    assert abs(float(draws.mean()) - d.mean()) < 4 * sigma


def test_sampler_reproducible():
    d = TruncatedPoisson(2.2, 1)
    a = d.sample_array(np.random.default_rng(7), 50)
    b = d.sample_array(np.random.default_rng(7), 50)
    assert np.array_equal(a, b)


def test_heavy_bucket_fraction_identity():
    for lam, k in ((1.3, 1), (6.0, 4), (55.0, 40)):
        want = TruncatedPoisson(lam, k + 1).pmf(k + 1)
        assert heavy_bucket_fraction(lam, k) == pytest.approx(want, rel=1e-12)
    assert heavy_bucket_fraction(4000.0, 2) < 1e-200


def test_initial_conditions_formulas():
    for mu_bar, k in ((5.485, 4), (14.766, 10), (2.0, 1)):
        z_l0, z_b0, z_hv0, lam0 = initial_conditions(mu_bar, k)
        assert z_b0 == mu_bar
        assert lam0 == mu_bar
        assert z_hv0 == pytest.approx(poisson_tail(k + 1, mu_bar), rel=1e-13)
        # light balls: mu_bar * P(Poisson(mu_bar) <= k-1)
        assert z_l0 == pytest.approx(
            mu_bar * poisson_tail_complement(k, mu_bar), rel=1e-13
        )


def test_initial_conditions_tail_limits():
    z_l0, _, z_hv0, _ = initial_conditions(500.0, 4)
    assert z_l0 < 1e-150
    assert z_hv0 == pytest.approx(1.0, abs=1e-12)
