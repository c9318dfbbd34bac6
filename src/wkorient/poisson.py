"""Truncated-Poisson analytics.

Everything downstream (degree samplers, the peeling ODE) reduces to three
ingredients computed here: the Poisson upper tail, the mean of a truncated
Poisson, and the inverse map from a target mean back to the rate. The mean
of Poisson(y) conditioned on being >= k has the closed form

    y * P(Poisson(y) >= k-1) / P(Poisson(y) >= k)  =  y + k / T_k(y),

where T_k(y) = sum_{j>=0} y^j * k!/(k+j)! is an all-positive, cancellation-free
series.  We lean on that form whenever the raw tails would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "poisson_tail",
    "poisson_tail_complement",
    "log_poisson_tail",
    "solve_lambda",
    "truncated_mean_from_rate",
    "TruncatedPoisson",
    "heavy_bucket_fraction",
    "initial_conditions",
]

# below this, scipy's regularized gamma loses relative accuracy to underflow
# and we switch to the series form
_TAIL_FLOOR = 1e-250


def poisson_tail(k: int, mu: float) -> float:
    """P(Poisson(mu) >= k); by convention 1 for k <= 0.

    Computed as the regularized lower incomplete gamma P(k, mu), which is
    exactly the Poisson upper tail.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if k <= 0:
        return 1.0
    return float(special.gammainc(k, mu))


def poisson_tail_complement(k: int, mu: float) -> float:
    """P(Poisson(mu) <= k-1), i.e. 1 - poisson_tail(k, mu), computed directly.

    The complement can be ~1e-6 or smaller where 1 - tail would retain no
    significant digits, so it gets its own gammaincc evaluation.
    """
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if k <= 0:
        return 0.0
    return float(special.gammaincc(k, mu))


def _log_pmf(j: int, mu: float) -> float:
    """log of the Poisson(mu) pmf at j."""
    if mu == 0.0:
        return 0.0 if j == 0 else -math.inf
    return j * math.log(mu) - mu - math.lgamma(j + 1)


def _tail_series(k: int, mu: float) -> tuple[float, float]:
    """T_k(mu) = sum_{j>=0} mu^j k!/(k+j)!  (= f_k(mu) * e^mu * k! / mu^k)
    and its derivative T_k'(mu).

    All terms positive; converges for every mu (terms decay once j > mu-k).
    Intended for mu <= ~600 where no term can overflow.
    """
    if mu == 0.0:
        return 1.0, 1.0 / (k + 1)
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
    """log P(Poisson(mu) >= k), stable even deep in the left tail."""
    if k <= 0:
        return 0.0
    if mu == 0.0:
        return -math.inf
    t = poisson_tail(k, mu)
    if t > _TAIL_FLOOR:
        return math.log(t)
    return _log_pmf(k, mu) + math.log(_tail_series(k, mu)[0])


def truncated_mean_from_rate(lam: float, k: int) -> float:
    """Mean of Poisson(lam) conditioned on being >= k.

    Uses mean = lam + k/T_k(lam); exact identity, no tail cancellation.
    """
    if lam < 0:
        raise ValueError(f"rate must be nonnegative, got {lam}")
    if k <= 0:
        return lam
    if lam == 0.0:
        return float(k)
    return _mean_and_slope(lam, k)[0]


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


def solve_lambda(mu: float, k: int, x0: float | None = None) -> float:
    """Invert the truncated mean: the unique lam with

        lam * P(Pois(lam) >= k) = mu * P(Pois(lam) >= k+1),

    equivalently mean(Poisson(lam) | >= k+1) = mu.  The left side of the
    mean function tends to k+1 as lam -> 0 and is strictly increasing, so a
    solution exists iff mu > k+1.

    Bracketed Newton on the mean (bisection fallback); `x0` warm-starts the
    iteration.  Residual of the defining identity is <= 1e-12 * mu.
    """
    if mu <= k + 1:
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
    return y


@dataclass(frozen=True)
class TruncatedPoisson:
    """Poisson(lam) conditioned on being >= k (ordinary Poisson for k <= 0)."""

    lam: float
    k: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"rate must be positive, got {self.lam}")

    def _log_norm(self) -> float:
        return log_poisson_tail(self.k, self.lam)

    def pmf(self, j: int) -> float:
        if j < max(self.k, 0):
            return 0.0
        return math.exp(_log_pmf(j, self.lam) - self._log_norm())

    def mean(self) -> float:
        return truncated_mean_from_rate(self.lam, self.k)

    def _cdf_table(self, tail_eps: float = 1e-15) -> np.ndarray:
        """Cumulative pmf from the truncation point until mass 1 - tail_eps."""
        start = max(self.k, 0)
        p = self.pmf(start)
        out = [p]
        j = start
        acc = p
        while acc < 1.0 - tail_eps:
            j += 1
            p *= self.lam / j
            acc += p
            out.append(acc)
            if j > start + 100000:  # pragma: no cover - defensive
                raise RuntimeError("cdf table failed to accumulate")
        return np.asarray(out)

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inversion sampling with a tail guard.

        Draws land in the precomputed cdf table; the residual tail mass
        (< 1e-15) is clamped to the last table entry.
        """
        cdf = self._cdf_table()
        u = rng.random(size)
        idx = np.searchsorted(cdf, u, side="right")
        idx = np.minimum(idx, len(cdf) - 1)  # tail guard
        return idx + max(self.k, 0)


def heavy_bucket_fraction(lam: float, k: int) -> float:
    """Predicted fraction of heavy bins holding exactly k+1 balls:

        e^-lam * lam^(k+1) / ((k+1)! * P(Pois(lam) >= k+1)),

    i.e. the pmf of the >=(k+1)-truncated Poisson at its lowest point.
    """
    if lam <= 0:
        raise ValueError(f"rate must be positive, got {lam}")
    return math.exp(_log_pmf(k + 1, lam) - log_poisson_tail(k + 1, lam))


def initial_conditions(mu_bar: float, k: int) -> tuple[float, float, float, float]:
    """Start of the peeling ODE: (z_L(0), z_B(0), z_HV(0), lambda(0)).

    z_B(0) = mu_bar (balls per vertex), z_L(0) = mu_bar * P(Pois <= k-1)
    (balls in light bins), z_HV(0) = P(Pois >= k+1) (heavy-vertex fraction),
    lambda(0) = mu_bar.
    """
    if mu_bar <= 0:
        raise ValueError(f"mu_bar must be positive, got {mu_bar}")
    z_l0 = mu_bar * poisson_tail_complement(k, mu_bar)
    z_hv0 = poisson_tail(k + 1, mu_bar)
    return z_l0, mu_bar, z_hv0, mu_bar
