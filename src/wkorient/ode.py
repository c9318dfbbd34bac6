"""Core prediction, threshold bisection, and the peeling-process
differential equations.

Cores and thresholds are solved in x, the Poisson rate at which a core
vertex sees core edges.  Seen from an edge, a vertex survives with chance
q = P(Po(x) >= k); seen from a vertex, an edge survives with chance
r = P(Bin(h-1, q) >= h-w); and mean degree mu_bar gives x = mu_bar r.  So
mu(x) = x / r(q(x)) is explicit (Molloy, RSA 2005; Lelarge, SODA 2012,
here with edges that shrink to h-w+1 vertices).  It falls to one minimum
mu_c, where the core emerges (`core_emergence`, by Brent's bounded
minimizer: `_bounded_minimum`, scipy's steps in plain floats), and rises
after it; the core at mu_bar >= mu_c is read off the root on [x_c, mu_bar]
(`core_fixed_point`), and `find_threshold` bisects in x.  q and r are
scalar calls to `scipy.special.cython_special`, the same C loops as the
ufuncs (same bits) without numpy's per-call dispatch.

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
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special.cython_special import bdtr, bdtrc, gammainc, gammaincc

from .hypergraph import OrientationParams
from .peeling import ProcessTrace
from .poisson import solve_lambda, truncated_poisson_pmf

__all__ = [
    "OdeParams",
    "CoreStats",
    "ThresholdResult",
    "Trajectory",
    "StiffnessError",
    "BracketError",
    "DomainError",
    "InitialStateError",
    "f_star",
    "integrate",
    "core_emergence",
    "core_fixed_point",
    "find_threshold",
    "trajectory_vs_trace",
]


class StiffnessError(RuntimeError):
    """The integrator's step size collapsed before any boundary event."""


class BracketError(RuntimeError):
    """A core or threshold solve found no sign change on its x bracket."""


class DomainError(ValueError):
    """A mean degree outside (0, inf): the random model is undefined there."""


class InitialStateError(ValueError):
    """The ODE's start already lies outside its domain: no heavy vertices,
    or a mean heavy degree not above k+2."""


# Points on the grid a trajectory is sampled at, from 0 to its ending.
SAMPLE_POINTS = 512

# The smallest rtol DOP853 runs at: scipy raises any smaller one to this
# and only warns.
_RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class OdeParams:
    """Integration controls for one (h, w, k, mu_bar) run: the relative
    tolerance rtol, at least 100 machine epsilons (2.2e-14), with the
    absolute one at rtol/100."""

    p: OrientationParams
    mu_bar: float
    rtol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.mu_bar < math.inf:
            raise DomainError(f"mu_bar must be positive and finite, got {self.mu_bar}")
        if not 0 < self.rtol < math.inf:
            raise ValueError(f"rtol must be positive and finite, got {self.rtol}")
        if self.rtol < _RTOL_FLOOR:
            raise ValueError(f"rtol must be at least 100 * machine epsilon = {_RTOL_FLOOR}, "
                             f"the integrator's floor, got {self.rtol}")


def f_star(a: float, b: float, z_l: float) -> float:
    """Extension of (a/z_l)*(a/b) used for the shrink-rate terms.

    Matches the Lipschitz continuation: b/z_l when a overshoots b >= 0,
    else a*a/(z_l |b|), which is the exact ratio on 0 <= a <= b, and 0
    where b vanishes.  z_l <= 0 (outside the domain) contributes 0 — the
    events own that region.
    """
    if z_l <= 0.0:
        return 0.0
    if a > b >= 0.0:
        return b / z_l
    bb = abs(b)
    return 0.0 if bb == 0.0 else a * a / (z_l * bb)


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
            z_a = truncated_poisson_pmf(k + 1, self.solve_rate(heavy / zHV), k + 1) * zHV
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

        evs = [ev_zl, ev_heavy, ev_hv, ev_mu]  # z_L first: it wins a tie (`_solve`)
        for ev in evs:
            ev.terminal = True
            ev.direction = -1
        return evs


_EVENT_NAMES = ("z_L", "z_B_minus_z_L", "z_HV", "mu_floor")


@dataclass(frozen=True)
class CoreStats:
    """Predicted core: alpha = surviving vertex fraction, beta[s] = edges
    of size s per initial vertex, kappa/mu_hat its density and mean degree
    (None for an empty core).  All four are None for an unknown core,
    where `integrate` ends on an event other than z_L.
    terminated_by is "fixed_point" from `core_fixed_point`, or the event
    that ended `integrate`."""

    x_star: float
    alpha: Optional[float]
    beta: Optional[dict]
    kappa: Optional[float]
    mu_hat: Optional[float]
    terminated_by: str


def _core_stats(
    p: OrientationParams, x_star: float, terminated_by: str, alpha: float, beta: dict
) -> CoreStats:
    """CoreStats with the density and mean degree read off the vertex
    fraction and the edges per size."""
    mu_hat = sum(s * b for s, b in beta.items()) / alpha if alpha > 0 else None
    return CoreStats(x_star, alpha, beta, _kappa(p, beta, alpha), mu_hat, terminated_by)


def _kappa(p: OrientationParams, beta: dict, alpha: float) -> Optional[float]:
    """Core density: the signs its edges owe per core vertex (None: empty)."""
    h_w = p.h - p.w  # an edge of size s owes s - (h - w) signs
    return sum((s - h_w) * b for s, b in beta.items()) / alpha if alpha > 0 else None


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
            z_a[i] = truncated_poisson_pmf(k + 1, lam[i], k + 1) * zHV[i]
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
    """The start, from the Poisson(mu_bar) degree law: z_L = mu_bar
    P(Po <= k-1), z_B = mu_bar and z_HV = P(Po >= k+1), no residual edge.
    z_L takes the upper gamma itself: where it is tiny, 1 - P(Po >= k)
    keeps none of its digits."""
    mu, k, nb = params.mu_bar, params.p.k, params.p.w - 1
    y0 = np.zeros(2 * nb + 3)
    y0[2 * nb :] = mu * gammaincc(k, mu), mu, gammainc(k + 1, mu)
    return y0


def _stats_from_state(
    p: OrientationParams, x_star: float, y: np.ndarray, terminated_by: str
) -> CoreStats:
    """The core read off the ending state y; unknown unless it is z_L's."""
    if terminated_by != "z_L":
        return CoreStats(x_star, None, None, None, None, terminated_by)
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
        atol=params.rtol * 1e-2,
        first_step=min(_split(sys.p, y0)[0] / 10.0, params.mu_bar / 2),
    )
    if sol.status == -1:
        raise StiffnessError(f"integrator failed: {sol.message}; last x={sol.t[-1]}")
    if sol.status != 1:
        raise StiffnessError(
            f"no boundary event before x={params.mu_bar}; final state {sol.y[:, -1]}"
        )
    # every event is terminal, so scipy records only the step's first root:
    # it sorts the roots (a tie keeps list order, z_L first) and stops there
    idx = next(i for i, te in enumerate(sol.t_events) if len(te))
    return sol, float(sol.t_events[idx][0]), sol.y_events[idx][0], _EVENT_NAMES[idx]


def integrate(params: OdeParams) -> tuple[Trajectory, CoreStats]:
    """Run the system from its initial conditions to the first boundary
    event and read off the core prediction, which is unknown (None fields)
    unless that event is z_L.

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


def _mean_degree(p: OrientationParams, x: float, q: Optional[float] = None) -> float:
    """mu(x) = x / r(q), q = q(x) unless given; at x = 0 its limit, 1/(h-1)
    where k(h-w) = 1 (r ~ (h-1) x there), else inf; inf where r underflows."""
    h, w, k = p.h, p.w, p.k
    if q is None:
        q = gammainc(k, x)
    r = bdtrc(h - w - 1, h - 1, q)
    if r > 0.0:
        return x / r
    return 1.0 / (h - 1) if x == 0.0 and k * (h - w) == 1 else math.inf


def _beta(p: OrientationParams, mu_bar: float, q: float) -> dict:
    h, edges = p.h, mu_bar / p.h
    return {s: edges * math.comb(h, s) * q**s * (1.0 - q) ** (h - s) for s in p.sizes}


def _mean_degree_and_kappa(p: OrientationParams, x: float) -> tuple[float, Optional[float]]:
    """`_mean_degree(p, x)` and the density of `_core_at` there, off one q."""
    q = gammainc(p.k, x)
    mu = _mean_degree(p, x, q)
    return mu, _kappa(p, _beta(p, mu, q), gammainc(p.k + 1, x))


def _core_at(p: OrientationParams, mu_bar: float, x: float) -> CoreStats:
    """The core at mean degree mu_bar and rate x (x = 0: the empty core).
    A core edge of size s has s surviving vertices: beta[s] = (mu_bar/h)
    P(Bin(h, q) = s) for s >= h-w+1 (`_beta`).  x_star counts the signs
    granted on the way (w per dead edge, h-s per surviving one), matching
    `integrate`'s x at its z_L ending."""
    h, w, k = p.h, p.w, p.k
    q = gammainc(k, x)
    beta = _beta(p, mu_bar, q)
    x_star = mu_bar / h * w * bdtr(h - w, h, q) + sum((h - s) * b for s, b in beta.items())
    return _core_stats(p, x_star, "fixed_point", gammainc(k + 1, x), beta)


def core_emergence(p: OrientationParams) -> tuple[float, float]:
    """The minimum mu_c of mu(x), where the core emerges, and its rate x_c.

    Where k(h-w) = 1, mu(x) rises from its limit 1/(h-1) at x_c = 0: the
    core grows continuously from nothing.  Elsewhere the minimum is found
    in log x on [x_lo, hk/w], to 1e-10 in log x (`_bounded_minimum`):
    q <= x^k/k! and r <= C(h-1, h-w) q^(h-w) give mu(x) >= A x^(1-k(h-w)),
    A = k!^(h-w)/C(h-1, h-w), so mu(x) >= mu(hk/w) for every x <= x_lo.
    """
    h, w, k = p.h, p.w, p.k
    m = k * (h - w)
    if m == 1:
        return 0.0, _mean_degree(p, 0.0)
    x_hi = h * k / w
    log_a = (h - w) * math.lgamma(k + 1) - math.log(math.comb(h - 1, h - w))
    t_lo = (log_a - math.log(_mean_degree(p, x_hi))) / (m - 1)
    t_c, mu_c = _bounded_minimum(
        lambda t: _mean_degree(p, math.exp(t)), t_lo, math.log(x_hi), xatol=1e-10
    )
    return math.exp(t_c), mu_c


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_minimum(func: Callable[[float], float], a: float, b: float,
                     xatol: float) -> tuple[float, float]:
    """Brent's bounded minimizer (Brent 1973, ch. 5) of func on [a, b]:
    the point found and func there.  A copy of scipy's
    `minimize_scalar(method="bounded")`, step for step and with its
    500-evaluation cap, in plain floats (scipy's numpy scalars cost more
    than the objective here); it returns the same floats."""
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = fnfc = ffulc = func(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # a step of at least tol1, in rat's direction (+ for a zero rat)
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def core_fixed_point(p: OrientationParams, mu_bar: float) -> CoreStats:
    """Predicted (w,k+1)-core of the Poisson(mu_bar)-degree h-uniform model.

    Below mu_c (`core_emergence`) the core is empty and every edge grants
    its w signs: x_star = w mu_bar/h.  From mu_c on the core sits at the
    root x of mu(x) = mu_bar that `brentq` finds on [x_c, mu_bar], where
    mu rises from mu_c to at least mu_bar (r <= 1 gives mu(x) >= x); its
    fractions follow from q = P(Po(x) >= k) and alpha = P(Po(x) >= k+1).

    Raises DomainError unless 0 < mu_bar < inf, and BracketError naming
    (h, w, k) when mu(x) - mu_bar does not change sign on [x_c, mu_bar].
    """
    if not (math.isfinite(mu_bar) and mu_bar > 0):
        raise DomainError(f"mu_bar must be positive and finite, got {mu_bar}")
    return _fixed_point(p, mu_bar, *core_emergence(p))


def _fixed_point(p: OrientationParams, mu_bar: float, x_c: float, mu_c: float) -> CoreStats:
    """`core_fixed_point` at a valid mu_bar, given the emergence."""
    if mu_bar < mu_c:
        return _core_at(p, mu_bar, 0.0)

    def gap(x: float) -> float:
        return _mean_degree(p, x) - mu_bar

    if not gap(x_c) <= 0.0 <= gap(mu_bar):
        raise BracketError(f"mu(x) = {mu_bar} has no root on x in [{x_c}, "
                           f"{mu_bar}] at (h, w, k) = ({p.h}, {p.w}, {p.k})")
    return _core_at(p, mu_bar, brentq(gap, x_c, mu_bar))


@dataclass(frozen=True)
class ThresholdResult:
    """mu_tilde: the mean degree at which the core density crosses k.
    bracket: the mean degrees (mu_lo, mu_hi) at the bisection's x ends.
    kappa_lo: the core density at the low end; None at an empty low end.
    kappa_hi: the core density at the high end, above k.
    iterations: bisection steps, which perfbench sums as `ode.bisect_iters`.
    stats_at_threshold: the core at mu_tilde (`find_threshold`)."""

    mu_tilde: float
    bracket: tuple[float, float]
    kappa_lo: Optional[float]
    kappa_hi: float
    iterations: int
    stats_at_threshold: CoreStats

    @property
    def mu_hat(self) -> Optional[float]:
        """The mean degree of `stats_at_threshold`; None where that core is
        empty (a continuous emergence, where only a limit from above exists)."""
        return self.stats_at_threshold.mu_hat


def find_threshold(p: OrientationParams, tol: float = 1e-4) -> ThresholdResult:
    """The mean degree mu_tilde at which the core's density kappa crosses k.

    Bisects in x on [x_c, hk/w], keeping kappa_lo <= k < kappa_hi, until
    the mean degrees at the ends (the bracket) lie within tol or the
    midpoint falls on an end.  mu(hk/w) >= hk/w gives the graph density at
    least k there, which peeling (at most k demand per peeled vertex) passes
    on to the core.  For a threshold within float noise of hk/w the core
    density there rounds to k, and the upper end moves once to 2hk/w,
    where the same argument gives at least 2k.  A core emerging
    continuously (x_c = 0) has density k at mu_c, the threshold then;
    otherwise mu_tilde is the bracket's midpoint.  Emergence is solved once
    per call, each end and bisection point reads mu and kappa off one q(x),
    and the one CoreStats built is the core at mu_tilde.

    Raises ValueError unless 0 < tol < inf, and BracketError naming
    (h, w, k) when kappa - k does not change sign on that bracket.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    x_c, mu_c = core_emergence(p)
    x_lo, x_hi = x_c, p.h * p.k / p.w
    mu_lo, kappa_lo = _mean_degree_and_kappa(p, x_lo)
    mu_hi, kappa_hi = _mean_degree_and_kappa(p, x_hi)
    if kappa_hi <= p.k:
        x_hi *= 2
        mu_hi, kappa_hi = _mean_degree_and_kappa(p, x_hi)
    if not ((kappa_lo is None or kappa_lo <= p.k) and p.k < kappa_hi):
        raise BracketError(f"core density {kappa_lo} to {kappa_hi} on x in [{x_lo}, "
                           f"{x_hi}] at (h, w, k) = ({p.h}, {p.w}, {p.k})")
    iterations = 0
    while mu_hi - mu_lo > tol:
        x = 0.5 * (x_lo + x_hi)
        if x in (x_lo, x_hi):
            break
        mu_x, kappa_x = _mean_degree_and_kappa(p, x)
        if kappa_x <= p.k:
            x_lo, mu_lo, kappa_lo = x, mu_x, kappa_x
        else:
            x_hi, mu_hi, kappa_hi = x, mu_x, kappa_x
        iterations += 1
    mu_tilde = mu_c if x_c == 0.0 else 0.5 * (mu_lo + mu_hi)
    stats = _fixed_point(p, mu_tilde, x_c, mu_c)
    return ThresholdResult(mu_tilde, (mu_lo, mu_hi), kappa_lo, kappa_hi, iterations, stats)


def trajectory_vs_trace(traj: Trajectory, trace: ProcessTrace) -> dict[str, float]:
    """Sup-norm deviation between the solved trajectory and a scaled
    simulation trace, per variable, relative to the variable's sup over the
    trace.  Only the overlap of the two x-ranges is compared; a trace of
    another (h, w, k), or one with no overlap, raises ValueError."""
    if traj.dense is None:
        raise ValueError("single-point trajectory has nothing to compare")
    tp, p = trace.params, traj.params.p
    if tp != p:
        raise ValueError(f"trace of (h, w, k) = ({tp.h}, {tp.w}, {tp.k}) against a "
                         f"trajectory of ({p.h}, {p.w}, {p.k})")
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
