"""Truncated-Poisson analytics.

Everything downstream (the peeling ODE, the core degree check) reduces to three
ingredients computed here: the Poisson upper tail, the mean of a truncated
Poisson, and the inverse map from a target mean back to the rate. The mean
of Poisson(y) conditioned on being >= k has the closed form

    y * P(Poisson(y) >= k-1) / P(Poisson(y) >= k)  =  y + k / T_k(y),

where T_k(y) = sum_{j>=0} y^j * k!/(k+j)! is an all-positive, cancellation-free
series.  We lean on that form whenever the raw tails would underflow.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "poisson_tail",
    "log_poisson_tail",
    "solve_lambda",
    "LambdaSolveError",
    "truncated_poisson_pmf",
]

# below this, scipy's regularized gamma loses relative accuracy to underflow
# and we switch to the series form
_TAIL_FLOOR = 1e-250


def poisson_tail(k: int, mu: float) -> float:
    """P(Poisson(mu) >= k); by convention 1 for k <= 0.

    Computed as the regularized lower incomplete gamma P(k, mu), which is
    exactly the Poisson upper tail.  A negative or nan mu raises ValueError.
    """
    if not mu >= 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if k <= 0:
        return 1.0
    return float(special.gammainc(k, mu))


def _log_pmf(j: int, mu: float) -> float:
    """log of the Poisson(mu) pmf at j, for mu > 0."""
    return j * math.log(mu) - mu - math.lgamma(j + 1)


def _tail_series(k: int, mu: float) -> tuple[float, float]:
    """T_k(mu) = sum_{j>=0} mu^j k!/(k+j)!  (= f_k(mu) * e^mu * k! / mu^k)
    and its derivative T_k'(mu).

    All terms positive; converges for every mu (terms decay once j > mu-k).
    Intended for 0 < mu <= ~600 where no term can overflow.
    """
    term = 1.0
    total = 1.0
    dtotal = 0.0  # sum of j * mu^(j-1) k!/(k+j)!
    j = 0
    while True:
        j += 1
        term *= mu / (k + j)
        total += term
        dtotal += j * term / mu
        if term < 1e-18 * total and j > mu - k:
            break
        if j > 100000:  # pragma: no cover - defensive
            raise RuntimeError("tail series failed to converge")
    return total, dtotal


def log_poisson_tail(k: int, mu: float) -> float:
    """log P(Poisson(mu) >= k), stable even deep in the left tail; a
    negative or nan mu raises ValueError (from `poisson_tail`) for k >= 1."""
    if k <= 0:
        return 0.0
    if mu == 0.0:
        return -math.inf
    t = poisson_tail(k, mu)
    if t > _TAIL_FLOOR:
        return math.log(t)
    return _log_pmf(k, mu) + math.log(_tail_series(k, mu)[0])


def _mean_and_slope(lam: float, k: int) -> tuple[float, float]:
    """Mean of Poisson(lam) conditioned on being >= k, for lam > 0 and
    k >= 1, and its derivative in lam."""
    if lam > 600.0:
        # T_k would overflow; fall back to the pmf/tail ratio, which is
        # perfectly conditioned out here:
        # mean = lam * f_{k-1}/f_k = lam * (1 + pmf(k-1)/f_k), slope ~1
        ratio = math.exp(_log_pmf(k - 1, lam) - log_poisson_tail(k, lam))
        return lam * (1.0 + ratio), 1.0
    t, dt = _tail_series(k, lam)
    # past T_k = 1e150 (lam above about 350) T_k^2 nears overflow, and
    # k T_k'/T_k^2 <= k/T_k (T_k' <= T_k) leaves the slope at exactly 1.0
    return lam + k / t, (1.0 if t > 1e150 else 1.0 - k * dt / (t * t))


class LambdaSolveError(RuntimeError):
    """`solve_lambda` ended with a residual above its 1e-12 mu bound."""


def solve_lambda(mu: float, k: int, x0: float | None = None) -> float:
    """Invert the truncated mean: the unique lam with

        lam * P(Pois(lam) >= k) = mu * P(Pois(lam) >= k+1),

    equivalently mean(Poisson(lam) | >= k+1) = mu.  The left side of the
    mean function tends to k+1 as lam -> 0 and is strictly increasing, so a
    solution exists iff mu > k+1.

    Bracketed Newton on the mean (bisection fallback); `x0` warm-starts the
    iteration.  A mean outside (k+1, inf), nan included, raises ValueError;
    a residual above 1e-12 * mu raises LambdaSolveError.
    """
    if not k + 1 < mu < math.inf:
        raise ValueError(
            f"no truncated-Poisson rate has mean {mu} with support >= {k + 1}"
        )
    kk = k + 1  # truncation point of the conditioned variable
    lo, hi = 0.0, mu  # mean(mu) = mu + kk/T > mu, mean(0+) = kk < mu
    y = x0 if x0 is not None and lo < x0 < hi else mu - 1.0 / (1.0 + 1.0 / (mu - kk))
    for _ in range(100):
        m, dm = _mean_and_slope(y, kk)
        if m > mu:
            hi = y
        else:
            lo = y
        err = m - mu
        if abs(err) <= 1e-14 * mu:
            break
        step = err / dm if dm > 0 else math.inf
        ynew = y - step
        if not (lo < ynew < hi):
            ynew = 0.5 * (lo + hi)
        if ynew == y:
            break
        y = ynew
    if not abs(err) <= 1e-12 * mu:
        raise LambdaSolveError(f"no rate for mean {mu} at k = {k}: residual {err}")
    return y


def truncated_poisson_pmf(j: int, lam: float, kk: int) -> float:
    """P(X = j) for X ~ Poisson(lam) conditioned on X >= kk (the plain
    Poisson pmf for kk <= 0); a rate outside (0, inf) raises ValueError."""
    if not 0 < lam < math.inf:
        raise ValueError(f"rate must be positive and finite, got {lam}")
    if j < kk:
        return 0.0
    return math.exp(_log_pmf(j, lam) - log_poisson_tail(kk, lam))
