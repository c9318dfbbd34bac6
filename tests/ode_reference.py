"""The peeling ODE with the heavy-degree rate lambda as a state variable.

`wkorient.ode` recovers lambda algebraically from mu = (z_B - z_L)/z_HV at
every evaluation.  This reference integrates it instead, through the
differentiated form of the defining identity
lambda f_k(lambda) = mu(x) f_{k+1}(lambda), over the package's own
right-hand side; agreement of the two checks the rate inversion along
whole trajectories.  Unlike `oracles`, it builds on wkorient.
"""

from __future__ import annotations

import math

import numpy as np

from wkorient.ode import (
    SAMPLE_POINTS,
    CoreStats,
    OdeParams,
    _initial_vector,
    _solve,
    _split,
    _stats_from_state,
    _System,
)
from wkorient.poisson import initial_conditions, poisson_tail


def _poisson_pmf(j: int, lam: float) -> float:
    return math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))


class LambdaStateSystem(_System):
    """`_System` with lambda appended to the state vector: the rate is read
    off the state instead of solved for, and lambda' is integrated."""

    def solve_rate(self, mu: float) -> float:
        return self._lam

    def rhs(self, x: float, y: np.ndarray) -> np.ndarray:
        self._lam = float(y[-1])
        dy = super().rhs(x, y[:-1])
        return np.append(dy, self._lambda_prime(y, dy))

    def _lambda_prime(self, y: np.ndarray, dy: np.ndarray) -> float:
        k, lam = self.p.k, self._lam
        zL, zB, zHV, _, _ = _split(self.p, y.tolist())
        if zHV <= 0.0 or lam <= 0.0:
            return 0.0
        heavy = zB - zL
        mu = heavy / zHV
        dzL, dzB, dzHV, _, _ = _split(self.p, dy)
        mu_prime = ((dzB - dzL) * zHV - heavy * dzHV) / (zHV * zHV)
        pmf_km1, pmf_k = _poisson_pmf(k - 1, lam), _poisson_pmf(k, lam)
        denom = poisson_tail(k, lam) + lam * pmf_km1 - mu * pmf_k
        return mu_prime * poisson_tail(k + 1, lam) / denom


def integrate_lambda_state(
    params: OdeParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, CoreStats]:
    """Integrate with lambda as a state variable to the first boundary
    event.  Returns the sample grid, the integrated lambda and
    mu = (z_B - z_L)/z_HV on it (nan where z_HV <= 0), and the core read
    off the ending as `integrate` reads it."""
    sys = LambdaStateSystem(params)
    lam0 = initial_conditions(params.mu_bar, params.p.k)[3]
    y0 = np.append(_initial_vector(params), lam0)
    sol, x_star, y_star, ending = _solve(sys, y0)
    x = np.linspace(0.0, x_star, SAMPLE_POINTS)
    y = sol.sol(x)
    zL, zB, zHV, _, _ = _split(params.p, y)
    mu = np.array([hv / z if z > 0 else math.nan for hv, z in zip(zB - zL, zHV)])
    return x, y[-1], mu, _stats_from_state(params.p, x_star, y_star[:-1], ending)
