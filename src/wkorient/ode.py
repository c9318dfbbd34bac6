"""Core prediction, threshold bisection, and the peeling-process
differential equations.

Cores and thresholds come from the closed-form core fixed point
(`core_fixed_point`): iterate q = P(Po(mu_bar r) >= k) with
r = P(Bin(h-1, q) >= h-w) down from q = 1 to its largest root and read the
core's vertex fraction, edge counts per size and density off that root
(Molloy, RSA 2005; Lelarge, SODA 2012, here with edges that shrink to
h-w+1 vertices).  `find_threshold` bisects on it.

The ODE draws the process itself: `integrate` follows the light/heavy
ball buckets as the peel runs, for the `ode` command and for comparison
with simulated traces.  State vector (w-1 bucket pairs plus three scalars):

    y = [zL_{h-1} .. zL_{h-w+1},  zH_{h-1} .. zH_{h-w+1},  z_L, z_B, z_HV]

where zL_s / zH_s are light/heavy balls (per initial vertex) in residual
edges of size s.  The size-h buckets are algebraic: zL_h = z_L - sum of the
others, zH_h likewise from z_B - z_L.  `_split` is the one reader of this
layout: the right-hand side, the events, the named columns and the core
read at the ending all go through it.  The rate lambda of the heavy-degree
law is recovered algebraically from mu = (z_B - z_L)/z_HV at every
evaluation.

Integration runs until the first boundary event: z_L hitting 0 (the clean
ending — the light balls run out and what remains is the core), the heavy
ball mass or heavy vertex count hitting 0 (core dissolves), or the mean
heavy degree falling to k+2 (edge of the provable domain; reported, not
guessed at).  Only the z_L ending carries a core; the fixed point answers
for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special
from scipy.integrate import solve_ivp

from .hypergraph import OrientationParams
from .peeling import ProcessTrace
from .poisson import heavy_bucket_fraction, initial_conditions, solve_lambda

__all__ = [
    "OdeParams",
    "CoreStats",
    "ThresholdResult",
    "Trajectory",
    "StiffnessError",
    "BracketError",
    "DomainError",
    "InitialStateError",
    "FixedPointError",
    "f_star",
    "integrate",
    "core_fixed_point",
    "find_threshold",
    "trajectory_vs_trace",
]


class StiffnessError(RuntimeError):
    """The integrator's step size collapsed before any boundary event."""


class BracketError(RuntimeError):
    """Threshold bisection could not find a sign change to bracket."""


class DomainError(ValueError):
    """A mean degree outside (0, inf): the random model is undefined there."""


class InitialStateError(ValueError):
    """The ODE's start already lies outside its domain: no heavy vertices,
    or a mean heavy degree not above k+2."""


class FixedPointError(RuntimeError):
    """The core fixed-point iteration did not settle within its cap."""


# Far above the iteration count of any point the package evaluates (a few
# thousand at core emergence, where convergence is slowest).
MAX_FIXED_POINT_ITERATIONS = 10**6

# Points on the grid a trajectory is sampled at, from 0 to its ending.
SAMPLE_POINTS = 512

# Predicted vertex fractions below this are read as the empty core: as
# q -> 0 alpha underflows towards 1e-169 while the demand ratio kappa blows
# up towards 1e100.
EMPTY_CORE_ALPHA = 1e-12


@dataclass(frozen=True)
class OdeParams:
    """Integration controls for one (h, w, k, mu_bar) run."""

    p: OrientationParams
    mu_bar: float
    rtol: float = 1e-12
    atol: float = 1e-14

    def __post_init__(self):
        if not 0 < self.mu_bar < math.inf:
            raise DomainError(f"mu_bar must be positive and finite, got {self.mu_bar}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


def f_star(a: float, b: float, z_l: float) -> float:
    """Extension of (a/z_l)*(a/b) used for the shrink-rate terms.

    Matches the Lipschitz continuation: exact ratio on 0 <= a <= b with
    b > 0; 0 at the double origin; b/z_l when a overshoots b; absolute
    values elsewhere.  z_l <= 0 (outside the domain) contributes 0 — the
    events own that region.
    """
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


def _ratio(num: float, den: float) -> float:
    """num/den as a proportion: 0 when either side has vanished, capped at 1."""
    if num <= 0.0 or den <= 0.0:
        return 0.0
    r = num / den
    return r if r < 1.0 else 1.0


def _split(p: OrientationParams, y):
    """Read a state in the layout above: a state vector (float list or
    1-d array) or a matrix with one row per entry and one column per point.
    Returns z_L, z_B, z_HV and the light and heavy ball lists per size,
    for sizes h, h-1, .., h-w+1 (index i = size h-i), the size-h entries
    solved from the others.  Entries past the layout are ignored."""
    nb = p.w - 1
    zL, zB, zHV = y[2 * nb], y[2 * nb + 1], y[2 * nb + 2]
    light, heavy = y[:nb], y[nb : 2 * nb]
    ZL = [zL - sum(light), *light]
    ZH = [zB - zL - sum(heavy), *heavy]
    return zL, zB, zHV, ZL, ZH


class _System:
    """RHS and events for one parameter set; keeps a warm-started lambda."""

    def __init__(self, params: OdeParams):
        self.params = params
        self.p = params.p
        self._warm_lambda: Optional[float] = None

    def solve_rate(self, mu: float) -> float:
        k = self.p.k
        mu_eff = max(mu, k + 1 + 1e-9)
        lam = solve_lambda(mu_eff, k, x0=self._warm_lambda)
        self._warm_lambda = lam
        return lam

    def rhs(self, x: float, y: np.ndarray) -> np.ndarray:
        p = self.p
        h, w, k = p.h, p.w, p.k
        nb = w - 1
        zL, zB, zHV, ZL, ZH = _split(p, y.tolist())
        heavy = zB - zL
        ZB = [l + hh for l, hh in zip(ZL, ZH)]

        # rate of heavy->light migrations: an edge dies (its light ball was
        # drawn from the smallest class), freeing h-w balls, each of which
        # sits in an exactly-(k+1)-ball heavy bin with probability
        # (k+1) z_A / (z_B - z_L)
        if zHV > 0.0 and heavy > 0.0:
            z_a = heavy_bucket_fraction(self.solve_rate(heavy / zHV), k) * zHV
            hit_small = _ratio((k + 1) * z_a, heavy)
        else:
            hit_small = 0.0
        pick_last = _ratio(ZL[-1], zL)
        G = pick_last * (h - w) * _ratio(ZH[-1], ZB[-1]) * hit_small

        dy = np.empty(2 * nb + 3)
        for j in range(1, w):  # residual size s = h - j
            s = h - j
            pick = _ratio(ZL[j], zL)
            dy[j - 1] = (
                -pick
                - (s - 1) * f_star(ZL[j], ZB[j], zL)
                + G * k * _ratio(ZH[j], heavy)
                + s * f_star(ZL[j - 1], ZB[j - 1], zL)
            )
            dy[nb + j - 1] = (
                -pick * (s - 1) * _ratio(ZH[j], ZB[j])
                - G * k * _ratio(ZH[j], heavy)
                + _ratio(ZL[j - 1], zL) * s * _ratio(ZH[j - 1], ZB[j - 1])
            )
        dy[2 * nb :] = (
            -1.0 - (h - w) * f_star(ZL[-1], ZB[-1], zL) + k * G,  # z_L
            -1.0 - (h - w) * pick_last,  # z_B
            -G,  # z_HV
        )
        return dy

    def events(self) -> list[Callable]:
        p = self.p

        def ev_zl(x, y):
            return _split(p, y)[0]

        def ev_heavy(x, y):
            zL, zB, *_ = _split(p, y)
            return zB - zL

        def ev_hv(x, y):
            return _split(p, y)[2]

        def ev_mu(x, y):
            # linear form of mu > k+2, safe when z_HV crosses zero
            zL, zB, zHV, *_ = _split(p, y)
            return (zB - zL) - (p.k + 2) * zHV

        evs = [ev_zl, ev_heavy, ev_hv, ev_mu]
        for ev in evs:
            ev.terminal = True
            ev.direction = -1
        return evs


_EVENT_NAMES = ("z_L", "z_B_minus_z_L", "z_HV", "mu_floor")


@dataclass(frozen=True)
class CoreStats:
    """Predicted core: alpha = surviving vertex fraction, beta[s] = edges
    of size s per initial vertex, kappa/mu_hat its density and mean degree.
    terminated_by is "fixed_point" from `core_fixed_point`, or the event
    that ended `integrate`."""

    x_star: float
    alpha: float
    beta: dict
    kappa: float
    mu_hat: float
    terminated_by: str

    @property
    def empty(self) -> bool:
        return self.alpha <= 0.0


def _core_stats(
    p: OrientationParams,
    x_star: float,
    terminated_by: str,
    alpha: float = 0.0,
    beta: Optional[dict] = None,
) -> CoreStats:
    """CoreStats with the density and mean degree read off the vertex
    fraction and the edges per size; no beta is the empty core."""
    if beta is None:
        beta = dict.fromkeys(p.sizes, 0.0)
    demand = sum(p.sign_demand(s) * b for s, b in beta.items())
    balls = sum(s * b for s, b in beta.items())
    return CoreStats(
        x_star=x_star,
        alpha=alpha,
        beta=beta,
        kappa=demand / alpha if alpha > 0 else 0.0,
        mu_hat=balls / alpha if alpha > 0 else 0.0,
        terminated_by=terminated_by,
    )


def _read_states(p: OrientationParams, y: np.ndarray) -> dict[str, np.ndarray]:
    """Named columns of a state matrix (one column per point): z_L, z_B,
    z_HV, z_L_s and z_H_s for every size s, the heavy mean degree mu, its
    rate lambda and z_A.  Where mu <= k+1 no rate exists: mu and lambda are
    nan there and z_A is 0.  lambda is solved point by point, each
    warm-started from the last one solved."""
    zL, zB, zHV, light_by_size, heavy_by_size = _split(p, y)
    heavy = zB - zL
    cols = {"z_L": zL, "z_B": zB, "z_HV": zHV}
    for s, col_l, col_h in zip(p.sizes, light_by_size, heavy_by_size):
        cols[f"z_L_{s}"] = col_l
        cols[f"z_H_{s}"] = col_h
    k = p.k
    mu = np.full(len(zL), math.nan)
    lam = np.full(len(zL), math.nan)
    z_a = np.zeros(len(zL))
    warm = None
    for i in range(len(zL)):
        if zHV[i] > 0 and heavy[i] > 0 and heavy[i] / zHV[i] > k + 1 + 1e-9:
            mu[i] = heavy[i] / zHV[i]
            lam[i] = warm = solve_lambda(mu[i], k, x0=warm)
            z_a[i] = heavy_bucket_fraction(lam[i], k) * zHV[i]
    cols["mu"] = mu
    cols["lambda"] = lam
    cols["z_A"] = z_a
    return cols


@dataclass(frozen=True)
class Trajectory:
    """The solved process on a sample grid x: the state matrix y (one
    column per point) and the dense solution over [0, x_end] (None for the
    single-point trajectory).  The named columns are computed from y on
    demand, each call solving lambda anew at every point."""

    params: OdeParams
    x: np.ndarray
    y: np.ndarray
    dense: object

    def columns(self) -> dict[str, np.ndarray]:
        return {"x": self.x, **_read_states(self.params.p, self.y)}

    def to_csv(self, fh) -> None:
        cols = self.columns()
        sizes = self.params.p.sizes
        names = ["x", "z_L", "z_B", "z_HV"]
        names += [f"z_L_{s}" for s in sizes]
        names += [f"z_H_{s}" for s in sizes]
        names += ["lambda", "mu"]
        fh.write(",".join(names) + "\n")
        for i in range(len(self.x)):
            fh.write(",".join(f"{cols[c][i]:.12g}" for c in names) + "\n")


def _initial_vector(params: OdeParams) -> np.ndarray:
    z_l0, z_b0, z_hv0, _ = initial_conditions(params.mu_bar, params.p.k)
    nb = params.p.w - 1
    y0 = np.zeros(2 * nb + 3)
    y0[2 * nb :] = z_l0, z_b0, z_hv0
    return y0


def _stats_from_state(
    p: OrientationParams, x_star: float, y: np.ndarray, terminated_by: str
) -> CoreStats:
    """The core read off the ending state y; empty unless it is z_L's."""
    if terminated_by != "z_L":
        return _core_stats(p, x_star, terminated_by)
    _, _, zHV, _, ZH = _split(p, y.tolist())
    beta = {s: max(zh, 0.0) / s for s, zh in zip(p.sizes, ZH)}
    return _core_stats(p, x_star, terminated_by, zHV, beta)


def _solve(sys: _System, y0: np.ndarray):
    """Integrate sys from y0 to its first boundary event.  Returns the
    solution, the event's x and state, and the event's name."""
    params = sys.params
    sol = solve_ivp(
        sys.rhs,
        (0.0, params.mu_bar),
        y0,
        method="DOP853",
        events=sys.events(),
        dense_output=True,
        rtol=params.rtol,
        atol=params.atol,
        first_step=min(_split(sys.p, y0)[0] / 10.0, params.mu_bar / 2),
    )
    if sol.status == -1:
        raise StiffnessError(f"integrator failed: {sol.message}; last x={sol.t[-1]}")
    if sol.status != 1:
        raise StiffnessError(
            f"no boundary event before x={params.mu_bar}; final state {sol.y[:, -1]}"
        )
    fired = [i for i, te in enumerate(sol.t_events) if len(te)]
    idx = min(fired, key=lambda i: sol.t_events[i][0])
    # simultaneous crossings: prefer the z_L root, it defines the core
    first = float(sol.t_events[idx][0])
    for i in fired:
        if _EVENT_NAMES[i] == "z_L" and sol.t_events[i][0] <= first + 1e-15:
            idx = i
            break
    return sol, float(sol.t_events[idx][0]), sol.y_events[idx][0], _EVENT_NAMES[idx]


def integrate(params: OdeParams) -> tuple[Trajectory, CoreStats]:
    """Run the system from its initial conditions to the first boundary
    event and read off the core prediction.

    Raises InitialStateError when the start already sits outside the domain
    (no heavy vertices, or mean heavy degree <= k+2) and StiffnessError when
    the integrator stalls.
    """
    p = params.p
    y0 = _initial_vector(params)
    z_l0, z_b0, z_hv0, _, _ = _split(p, y0)
    heavy0 = z_b0 - z_l0
    if z_hv0 <= 0.0:
        raise InitialStateError(f"no heavy vertices at mu_bar={params.mu_bar}")
    if heavy0 - (p.k + 2) * z_hv0 <= 0.0:
        raise InitialStateError(
            f"initial mean heavy degree {heavy0 / z_hv0:.6g} is not above k+2"
        )

    if z_l0 <= 0.0:
        # mu_bar so large that no vertex starts light (the complement tail
        # underflows): the whole graph is its own core
        traj = Trajectory(params, np.zeros(1), y0.reshape(-1, 1), dense=None)
        return traj, _stats_from_state(p, 0.0, y0, "z_L")

    sol, x_star, y_star, terminated_by = _solve(_System(params), y0)
    xgrid = np.linspace(0.0, x_star, SAMPLE_POINTS)
    traj = Trajectory(params, xgrid, sol.sol(xgrid), dense=sol.sol)
    return traj, _stats_from_state(p, x_star, y_star, terminated_by)


def core_fixed_point(
    p: OrientationParams, mu_bar: float, rtol: float = 1e-12, atol: float = 1e-14
) -> CoreStats:
    """Predicted (w,k+1)-core of the Poisson(mu_bar)-degree h-uniform model.

    q is the chance that a vertex, seen from one of its edges, survives
    (keeps k other core edges); r the chance that an edge, seen from one
    of its vertices, survives (keeps at least h-w other core vertices):

        r = P(Bin(h-1, q) >= h-w),    q = P(Po(mu_bar r) >= k).

    Iterating from q = 1 descends to the largest root, which is the core;
    it stops once |dq| <= atol + rtol q.  A core edge of size s has s
    surviving vertices, so beta[s] = (mu_bar/h) P(Bin(h, q) = s) for
    s >= h-w+1; x_star counts the signs granted on the way (w per dead
    edge, h-s per surviving one), matching `integrate`'s x at its z_L
    ending.  A vertex fraction below EMPTY_CORE_ALPHA is the empty core.

    Raises DomainError unless 0 < mu_bar < inf, and FixedPointError when
    the iteration has not settled after MAX_FIXED_POINT_ITERATIONS steps.
    """
    if not (math.isfinite(mu_bar) and mu_bar > 0):
        raise DomainError(f"mu_bar must be positive and finite, got {mu_bar}")
    h, w, k = p.h, p.w, p.k

    def rate(q: float) -> float:
        return mu_bar * float(special.bdtrc(h - w - 1, h - 1, q))

    q = 1.0
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        q_next = float(special.gammainc(k, rate(q)))
        settled = abs(q_next - q) <= atol + rtol * q_next
        q = q_next
        if settled:
            break
    else:
        raise FixedPointError(
            f"core fixed point at (h, w, k) = ({h}, {w}, {k}), "
            f"mu_bar = {mu_bar} not settled after "
            f"{MAX_FIXED_POINT_ITERATIONS} iterations (q = {q})"
        )

    edges = mu_bar / h
    beta = {s: edges * math.comb(h, s) * q**s * (1.0 - q) ** (h - s) for s in p.sizes}
    x_star = edges * w * float(special.bdtr(h - w, h, q)) + sum(
        (h - s) * b for s, b in beta.items()
    )
    alpha = float(special.gammainc(k + 1, rate(q)))
    if alpha < EMPTY_CORE_ALPHA:
        return _core_stats(p, x_star, "fixed_point")
    return _core_stats(p, x_star, "fixed_point", alpha, beta)


@dataclass(frozen=True)
class ThresholdResult:
    mu_tilde: float
    bracket: tuple[float, float]
    kappa_lo: float
    kappa_hi: float
    iterations: int
    stats_at_threshold: Optional[CoreStats]

    @property
    def mu_hat(self) -> float:
        return self.stats_at_threshold.mu_hat if self.stats_at_threshold else 0.0


def find_threshold(
    p: OrientationParams,
    tol: float = 1e-4,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> ThresholdResult:
    """Bisection on mu_bar for the core density kappa(mu_bar) = k, with
    kappa from `core_fixed_point` at stopping tolerances rtol/atol.

    An empty core counts as kappa = 0.  The seed bracket is [k, hk/w]; hk/w
    is the hard counting bound above which density must exceed k, but both
    ends are expanded a few times if the sign change isn't there yet.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def kappa_of(mu_bar: float) -> float:
        return core_fixed_point(p, mu_bar, rtol=rtol, atol=atol).kappa

    lo = float(p.k)
    hi = p.h * p.k / p.w
    kappa_lo = kappa_of(lo)
    tries = 0
    while kappa_lo > p.k:
        lo *= 0.8
        kappa_lo = kappa_of(lo)
        tries += 1
        if tries > 8:
            raise BracketError(f"no lower bracket below mu_bar={lo}")
    kappa_hi = kappa_of(hi)
    tries = 0
    while kappa_hi <= p.k:
        hi += max(0.5, 0.1 * hi)
        kappa_hi = kappa_of(hi)
        tries += 1
        if tries > 8:
            raise BracketError(f"no upper bracket up to mu_bar={hi}")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        kappa_mid = kappa_of(mid)
        if kappa_mid <= p.k:
            lo, kappa_lo = mid, kappa_mid
        else:
            hi, kappa_hi = mid, kappa_mid
        iterations += 1
        if iterations > 200:  # pragma: no cover - a finite tol > 0 guarantees exit
            raise BracketError("bisection failed to converge")
    mu_tilde = 0.5 * (lo + hi)
    return ThresholdResult(
        mu_tilde=mu_tilde,
        bracket=(lo, hi),
        kappa_lo=kappa_lo,
        kappa_hi=kappa_hi,
        iterations=iterations,
        stats_at_threshold=core_fixed_point(p, mu_tilde, rtol=rtol, atol=atol),
    )


def trajectory_vs_trace(traj: Trajectory, trace: ProcessTrace) -> dict[str, float]:
    """Sup-norm deviation between the solved trajectory and a scaled
    simulation trace, per variable, relative to the variable's sup over the
    trace.  Only the overlap of the two x-ranges is compared."""
    if traj.dense is None:
        raise ValueError("single-point trajectory has nothing to compare")
    scaled = trace.scaled()
    xs = scaled["x"]
    mask = xs <= traj.x[-1]
    if not mask.any():
        raise ValueError("trace and trajectory share no x-range")
    xs = xs[mask]
    cols = _read_states(traj.params.p, traj.dense(xs))
    del cols["mu"], cols["lambda"]  # a trace counts balls and vertices only
    out = {}
    for name, series in cols.items():
        ref = scaled[name][mask]
        scale = max(float(np.max(np.abs(ref))), 1e-9)
        out[name] = float(np.max(np.abs(series - ref))) / scale
    return out
