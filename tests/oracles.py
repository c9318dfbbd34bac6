"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in the most direct style possible
(exhaustive enumeration, plain BFS augmenting paths, mpmath series, tuple
loops) so that agreement with the package is meaningful.  Three entries
are not references but live here because only tests use them:
`min_max_indegree`, a binary search that calls the package's flow decider,
`sample_uniform_simple`, which draws the simple instances the
exhaustive deciders are checked on, and `peel_views`, the per-edge tuple
views of a peel's arrays.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

import mpmath
import numpy as np
from scipy import special
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from wkorient.flow import orient
from wkorient.hypergraph import Hypergraph, Orientation, OrientationParams
from wkorient.peeling import ExtensionConflictError, PeelResult


# ---------------------------------------------------------------------------
# simple random instances (test input for the exhaustive deciders)
# ---------------------------------------------------------------------------

def sample_uniform_simple(
    n: int, m: int, h: int, rng: np.random.Generator, max_attempts: int | None = None
) -> Hypergraph:
    """Uniform simple h-hypergraph: distinct vertices within each edge, no
    repeated edge.

    Sequential per-edge redraws: edge i is uniform over the admissible
    values given edges 0..i-1, which makes every ordered outcome equally
    likely — the same law as rejecting whole multigraph samples, at far
    higher acceptance.
    """
    if m > math.comb(n, h):
        raise ValueError(f"cannot fit {m} distinct edges of size {h} on {n} vertices")
    if max_attempts is None:
        max_attempts = 200 * (m + 1)
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"simple sampler exhausted {max_attempts} attempts "
                f"({len(edges)}/{m} edges placed)"
            )
        e = tuple(sorted(int(v) for v in rng.integers(0, n, size=h)))
        if len(set(e)) != h or e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph(n, edges)


# ---------------------------------------------------------------------------
# hypergraph statistics, recounted from scratch
# ---------------------------------------------------------------------------

def sign_demand(h: int, w: int, size: int) -> int:
    """Signs a residual edge of the given size still needs: w - (h - size)."""
    return w - (h - size)


def window_demand(e, p: OrientationParams) -> int:
    """`sign_demand` of edge e, which must have a size in [h-w+1, h]."""
    s = len(e)
    if not p.h - p.w < s <= p.h:
        raise ValueError(f"edge {tuple(e)} has size {s}, outside [{p.h - p.w + 1}, {p.h}]")
    return sign_demand(p.h, p.w, s)


def kappa_exact(edges, n: int, h: int, w: int) -> Fraction:
    num = sum(sign_demand(h, w, len(e)) for e in edges)
    return Fraction(num, n)


def w_induced(edges, S, h: int, w: int):
    """Edges x∩S (multiplicity kept) of size >= h-w+1, over original labels."""
    S = set(S)
    out = []
    for e in edges:
        inter = tuple(v for v in e if v in S)
        if len(inter) >= h - w + 1:
            out.append(inter)
    return out


def induced_degrees(edges, S, h: int, w: int) -> Counter:
    deg: Counter = Counter()
    for e in w_induced(edges, S, h, w):
        deg.update(e)
    return deg


def all_subsets_kappa_ok(edges, n: int, h: int, w: int, k: int) -> bool:
    """kappa(w-induced on S) <= k for every nonempty S, exact rationals."""
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            sub = w_induced(edges, S, h, w)
            if sub and kappa_exact(sub, len(S), h, w) > k:
                return False
    return True


def subset_stats_recount(edges, n: int, h: int, w: int, S):
    """Second, independent counting of the S-statistics (different style)."""
    S = set(S)
    comp = set(range(n)) - S
    d_S = 0
    m_table: Counter = Counter()  # (size, i) -> count
    rho = nu = eta = 0
    for e in edges:
        i = sum(1 for v in e if v in S)
        if i == 0:
            continue  # untouched edges appear in no field
        d_S += i
        m_table[(len(e), i)] += 1
        if i >= 2:
            rho += 1
        if i >= 1:
            nu += 1
        if i >= 1 and any(v in comp for v in e):
            eta += 1
    penalty = 0
    for (size, i), cnt in m_table.items():
        demand = sign_demand(h, w, size)
        if i > demand:
            penalty += (i - demand) * cnt
    q = Counter()
    for (size, i), cnt in m_table.items():
        q[size] += i * cnt
    return {
        "d_S": d_S,
        "m_table": dict(m_table),
        "rho": rho,
        "nu": nu,
        "eta": eta,
        "q": dict(q),
        "dstar": d_S - penalty,
    }


# ---------------------------------------------------------------------------
# subset censuses and structural predicates on a Hypergraph H (vertex count
# H.n, sorted edge tuples H.edges) under OrientationParams p
# ---------------------------------------------------------------------------

class SubsetStats(NamedTuple):
    """One-pass counts for a vertex subset S.

    m_table[(s, i)] counts size-s edges with exactly i of their balls in S
    (i >= 1 only); q[s] is the degree contribution of size-s edges to d_S;
    dstar is d_S minus the over-demand sum, the expansion functional.
    """

    S: frozenset
    d_S: int
    m_table: dict
    rho: int
    nu: int
    eta: int
    q: dict
    dstar: int


def subset_stats(H: Hypergraph, S: Iterable[int], p: OrientationParams) -> SubsetStats:
    Sset = frozenset(S)
    if any(v < 0 or v >= H.n for v in Sset):
        raise ValueError("subset contains vertices outside the hypergraph")
    d_S = 0
    m_table: dict[tuple[int, int], int] = {}
    rho = nu = eta = 0
    q: dict[int, int] = {}
    over = 0  # sum over edges of max(0, i - sign_demand) clipped per the table
    for e in H.edges:
        s = len(e)
        demand = window_demand(e, p)
        i = sum(1 for v in e if v in Sset)
        if i == 0:
            continue
        d_S += i
        m_table[(s, i)] = m_table.get((s, i), 0) + 1
        q[s] = q.get(s, 0) + i
        nu += 1
        if i >= 2:
            rho += 1
        if i < s:
            eta += 1
        if i > demand:
            over += i - demand
    return SubsetStats(Sset, d_S, m_table, rho, nu, eta, q, d_S - over)


def check_property_A(
    H: Hypergraph, gamma: float, p: OrientationParams, max_n: int = 20
) -> bool:
    """Exhaustively test the small-set sparsity condition: every nonempty S
    with |S| < gamma*n has rho(S) < k|S|/(2w).  Exponential in n."""
    if H.n > max_n:
        raise ValueError(f"brute-force property check capped at n={max_n}")
    limit = gamma * H.n
    for size in range(1, H.n + 1):
        if size >= limit:
            break
        for S in combinations(range(H.n), size):
            st = subset_stats(H, S, p)
            if st.rho * 2 * p.w >= p.k * size:
                return False
    return True


class DeterministicConditions(NamedTuple):
    """Truth values of the four structural inequalities tested on a subset
    whose complement would have to absorb the flow.  Used as test oracles."""

    dense_complement: bool  # rho(S̄) > k|S̄|/w
    light_contact: bool  # nu(S) < k|S|
    shrink_dominates: bool  # (h-w)·rho(S) > d(S) - k|S|
    thin_boundary: bool | None  # eta(S) < h²·delta·k|S|, if delta given


def check_deterministic_conditions(
    H: Hypergraph,
    S: Iterable[int],
    p: OrientationParams,
    delta: float | None = None,
) -> DeterministicConditions:
    Sset = frozenset(S)
    comp = frozenset(range(H.n)) - Sset
    st = subset_stats(H, Sset, p)
    st_c = subset_stats(H, comp, p)
    size = len(Sset)
    d_S = st.d_S
    c1 = st_c.rho * p.w > p.k * len(comp)
    c2 = st.nu < p.k * size
    c3 = (p.h - p.w) * st.rho > d_S - p.k * size
    c4 = None
    if delta is not None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        c4 = st.eta < p.h * p.h * delta * p.k * size
    return DeterministicConditions(c1, c2, c3, c4)


def expansion_condition(H: Hypergraph, S: Iterable[int], p: OrientationParams) -> bool:
    """dstar(S) >= k|S| + (total sign demand) - k·n.

    Holding for every S is equivalent to every w-induced subgraph having
    density <= k, which is the orientability certificate on simple edges.
    """
    st = subset_stats(H, S, p)
    total_demand = sum(sign_demand(p.h, p.w, len(e)) for e in H.edges)
    return st.dstar >= p.k * len(st.S) + total_demand - p.k * H.n


def recommended_gamma(p: OrientationParams) -> float:
    """Small-set cutoff e^-4 h^-6 / 4 under which the sparsity property is
    provable for the random model."""
    return math.exp(-4) / (4 * p.h ** 6)


def hakimi_check(H: Hypergraph, p: OrientationParams, max_n: int = 20) -> bool:
    """Exhaustive density test: kappa(w-induced on S) <= k for every S.

    On simple-edge instances this is exactly orientability; an edge with
    fewer distinct vertices than its sign demand is a trivial obstruction
    checked first (the density criterion cannot see multiplicities).
    """
    if H.n > max_n:
        raise ValueError(f"exhaustive density check capped at n={max_n}")
    for e in H.edges:
        if len(set(e)) < window_demand(e, p):
            return False
    return all_subsets_kappa_ok(H.edges, H.n, p.h, p.w, p.k)


# ---------------------------------------------------------------------------
# brute-force core: maximal S whose w-induced subgraph has min degree >= k+1
# ---------------------------------------------------------------------------

def brute_force_core(edges, n: int, h: int, w: int, k: int):
    """Union of all subsets S on which every vertex has induced degree >= k+1.

    Returns (sorted vertex list, sorted tuple of sorted core edges).
    """
    good = []
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            deg = induced_degrees(edges, S, h, w)
            if all(deg[v] >= k + 1 for v in S):
                good.append(set(S))
    core_vs: set = set()
    for S in good:
        core_vs |= S
    if core_vs:
        deg = induced_degrees(edges, core_vs, h, w)
        assert all(deg[v] >= k + 1 for v in core_vs), "union not closed"
    core_edges = tuple(sorted(tuple(sorted(e))
                              for e in w_induced(edges, core_vs, h, w)))
    return sorted(core_vs), core_edges


# ---------------------------------------------------------------------------
# sequential FIFO peel: one light vertex at a time, removed wholesale
# ---------------------------------------------------------------------------

class FifoPeel(NamedTuple):
    core_vertices: tuple
    core_edges: tuple  # surviving edges in source order, relabeled by rank
    edge_fate: tuple  # (core edge id, residual size) or None per edge
    peel_signs: tuple  # per edge, signed vertices in grant order
    elimination: tuple  # (vertex, edge ids it signed), in removal order


def fifo_peel(edges, n: int, h: int, w: int, k: int) -> FifoPeel:
    """Peel with a FIFO queue of light vertices.  A popped vertex loses all
    its alive balls; each of its edges grants it min(its balls there, the
    demand still owed) signs; an edge left with h-w balls dies and frees its
    other balls unsigned, which can turn their vertices light."""
    edges = [tuple(sorted(e)) for e in edges]
    floor = h - w
    ball_vertex, ball_edge, edge_balls = [], [], []
    vertex_balls = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        edge_balls.append([])
        for v in e:
            b = len(ball_vertex)
            ball_vertex.append(v)
            ball_edge.append(ei)
            vertex_balls[v].append(b)
            edge_balls[ei].append(b)
    ball_alive = [True] * len(ball_vertex)
    esize = [len(e) for e in edges]
    deg = [len(bs) for bs in vertex_balls]
    light = [d <= k for d in deg]
    signs = [[] for _ in edges]
    elimination = []
    queue = deque(v for v in range(n) if light[v])
    processed = [False] * n
    while queue:
        v = queue.popleft()
        if processed[v]:
            continue
        processed[v] = True
        by_edge: dict = {}
        for b in vertex_balls[v]:
            if ball_alive[b]:
                by_edge.setdefault(ball_edge[b], []).append(b)
        granted, newly_light = [], []
        for ei, balls in by_edge.items():
            s, c = esize[ei], len(balls)
            for _ in range(min(c, s - floor)):
                signs[ei].append(v)
                granted.append(ei)
            for b in balls:
                ball_alive[b] = False
            deg[v] -= c
            esize[ei] = s - c
            if s - c <= floor:
                esize[ei] = 0
                for b in edge_balls[ei]:
                    if ball_alive[b]:
                        ball_alive[b] = False
                        u = ball_vertex[b]
                        deg[u] -= 1
                        if not light[u] and deg[u] <= k:
                            light[u] = True
                            newly_light.append(u)
        elimination.append((v, tuple(granted)))
        queue.extend(reversed(newly_light))
    core_vertices = tuple(v for v in range(n) if not light[v])
    rank = {v: i for i, v in enumerate(core_vertices)}
    core_edges, fate = [], []
    for ei in range(len(edges)):
        if esize[ei] == 0:
            fate.append(None)
            continue
        kept = tuple(sorted(rank[ball_vertex[b]] for b in edge_balls[ei] if ball_alive[b]))
        core_edges.append(kept)
        fate.append((len(core_edges) - 1, len(kept)))
    return FifoPeel(
        core_vertices, tuple(core_edges), tuple(fate),
        tuple(tuple(s) for s in signs), tuple(elimination),
    )


def peel_views(pr: PeelResult) -> tuple[tuple, tuple]:
    """(edge_fate, peel_signs) of a peel, per original edge: its (core edge
    id, residual size), or None once removed; and the vertices it signed
    while peeling, in grant order."""
    fate, cid = [], 0
    for r in pr.residual.tolist():
        fate.append((cid, r) if r else None)
        cid += r > 0
    signs = [[] for _ in fate]
    for ei, v in zip(pr.sign_edge.tolist(), pr.step_vertex[pr.sign_step].tolist()):
        signs[ei].append(v)
    return tuple(fate), tuple(tuple(s) for s in signs)


def tuple_extend(pr: PeelResult, core_orientation: Orientation) -> Orientation:
    """Edge by edge: the peel's signs, then the core orientation's signs
    mapped back to original ids; the first edge that signs a vertex twice
    raises ExtensionConflictError."""
    fate, peel_signs = peel_views(pr)
    core_vertices = pr.core_ids.tolist()
    merged = []
    for ei, f in enumerate(fate):
        sig = list(peel_signs[ei])
        if f is not None:
            sig.extend(core_vertices[r] for r in core_orientation.signs[f[0]])
        if len(set(sig)) != len(sig):
            raise ExtensionConflictError(
                f"edge {ei} would sign a vertex twice: {sorted(sig)}"
            )
        merged.append(tuple(sig))
    return Orientation(merged)


# ---------------------------------------------------------------------------
# the flow network arc by arc, and the decision read back through dicts
# ---------------------------------------------------------------------------

def tuple_network(edges, n: int, h: int, w: int, k: int) -> csr_matrix:
    """Capacity matrix: source 0 -> edge node 1+i (its sign demand), edge
    node -> vertex node 1+m+v for each distinct vertex (1), vertex node ->
    sink m+n+1 (k); assembled from coordinate lists."""
    m = len(edges)
    rows, cols, caps = [], [], []
    for i, e in enumerate(edges):
        rows.append(0)
        cols.append(1 + i)
        caps.append(sign_demand(h, w, len(e)))
        for v in sorted(set(e)):
            rows.append(1 + i)
            cols.append(1 + m + v)
            caps.append(1)
    for v in range(n):
        rows.append(1 + m + v)
        cols.append(m + n + 1)
        caps.append(k)
    size = m + n + 2
    return csr_matrix((np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(size, size))


def dict_orient(edges, n: int, h: int, w: int, k: int):
    """("signs", per-edge sorted sign tuples) when scipy's max flow
    saturates the source, else ("witness", S, kappa_S, degenerate edge):
    S is the vertex side of the residual-reachable set, found by a DFS
    over dicts."""
    edges = [tuple(sorted(e)) for e in edges]
    for i, e in enumerate(edges):
        if len(set(e)) < sign_demand(h, w, len(e)):
            return ("witness", (), None, i)
    m = len(edges)
    cap = tuple_network(edges, n, h, w, k)
    res = maximum_flow(cap, 0, m + n + 1)
    coo = res.flow.tocoo()
    fmap = {(int(i), int(j)): int(f) for i, j, f in zip(coo.row, coo.col, coo.data) if f > 0}
    if res.flow_value == sum(sign_demand(h, w, len(e)) for e in edges):
        return ("signs", tuple(
            tuple(v for v in sorted(set(e)) if fmap.get((1 + i, 1 + m + v), 0) >= 1)
            for i, e in enumerate(edges)
        ))
    seen = residual_reachable(cap, res.flow, 0)
    S = tuple(v for v in range(n) if 1 + m + v in seen)
    kappa = kappa_exact(w_induced(edges, S, h, w), len(S), h, w) if S else None
    return ("witness", S, kappa, None)


def residual_reachable(cap: csr_matrix, flow: csr_matrix, source: int) -> set:
    """Nodes reachable from source over the arcs with cap - f > 0 and the
    reverse of every arc carrying f > 0, by a DFS over dicts."""
    coo = flow.tocoo()
    fmap = {(int(i), int(j)): int(f) for i, j, f in zip(coo.row, coo.col, coo.data) if f > 0}
    nxt: dict = {}
    c = cap.tocoo()
    for i, j, cc in zip(c.row.tolist(), c.col.tolist(), c.data.tolist()):
        f = fmap.get((i, j), 0)
        if cc - f > 0:
            nxt.setdefault(i, []).append(j)
        if f > 0:
            nxt.setdefault(j, []).append(i)
    seen, stack = {source}, [source]
    while stack:
        for v in nxt.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


# ---------------------------------------------------------------------------
# exhaustive orientation search
# ---------------------------------------------------------------------------

def orientation_search(edges, n: int, h: int, w: int, k: int):
    """Backtracking search over all per-edge sign sets; None if impossible.

    A size-s edge needs w-(h-s) distinct signed vertices chosen from its
    distinct vertex support.
    """
    choices = []
    for e in edges:
        need = sign_demand(h, w, len(e))
        support = sorted(set(e))
        if need < 0 or need > len(support):
            return None
        choices.append(list(itertools.combinations(support, need)))
    indeg = [0] * n

    def rec(i: int):
        if i == len(choices):
            return []
        for pick in choices[i]:
            if all(indeg[v] < k for v in pick):
                for v in pick:
                    indeg[v] += 1
                rest = rec(i + 1)
                if rest is not None:
                    return [pick] + rest
                for v in pick:
                    indeg[v] -= 1
        return None

    return rec(0)


def min_max_indegree(H, w: int, h: int | None = None) -> tuple[int, Orientation]:
    """Smallest k admitting a (w,k)-orientation, with one such orientation,
    found by binary search over the package's `orient`.

    h defaults to the largest edge size (i.e. the input is taken to be
    unpeeled).  The search runs between the density lower bound and the
    max degree, which always suffices.
    """
    if not H.edges:
        return 0, Orientation([])
    if h is None:
        h = max(len(e) for e in H.edges)
    for e in H.edges:
        if len(set(e)) < sign_demand(h, w, len(e)):
            raise ValueError(f"edge {e} has too few distinct vertices for {w} signs")
    kappa = kappa_exact(H.edges, H.n, h, w)
    lo = max(1, math.ceil(kappa))
    hi = max(max(Counter(v for e in H.edges for v in e).values()), lo)
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        res = orient(H, OrientationParams(h, w, mid))
        if isinstance(res, Orientation):
            best = (mid, res)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise AssertionError("max degree must orient")
    return best


def min_max_indegree_search(edges, n: int, h: int, w: int):
    if not edges:
        return 0
    kmax = max(Counter(v for e in edges for v in e).values())
    for k in range(0, kmax + 1):
        if orientation_search(edges, n, h, w, k) is not None:
            return k
    raise AssertionError("max degree must orient")


# ---------------------------------------------------------------------------
# naive max flow (Edmonds-Karp on a dict of dicts)
# ---------------------------------------------------------------------------

def naive_max_flow(cap: dict, s, t):
    """cap: {(u, v): capacity}. Returns (value, {(u,v): flow})."""
    residual: dict = {}
    adj: dict = {}
    for (u, v), c in cap.items():
        residual[(u, v)] = residual.get((u, v), 0) + c
        residual.setdefault((v, u), residual.get((v, u), 0))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    value = 0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for v in adj.get(u, ()):
                if v not in parent and residual.get((u, v), 0) > 0:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            break
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(residual[(u, v)] for u, v in path)
        for u, v in path:
            residual[(u, v)] -= aug
            residual[(v, u)] = residual.get((v, u), 0) + aug
        value += aug
    flow = {}
    for (u, v), c in cap.items():
        f = c - residual[(u, v)]
        if f > 0:
            flow[(u, v)] = f
    return value, flow


# ---------------------------------------------------------------------------
# Poisson tails and the lambda-mu relation in mpmath
# ---------------------------------------------------------------------------

def f_k_mp(k: int, mu, dps: int = 60):
    """P(Poisson(mu) >= k) at high precision (mpmath.mpf result)."""
    if k <= 0:
        return mpmath.mpf(1)
    with mpmath.workdps(dps):
        mu = mpmath.mpf(mu)
        head = mpmath.mpf(0)
        for i in range(k):
            head += mpmath.exp(-mu) * mu**i / mpmath.factorial(i)
        return 1 - head


def truncated_mean_mp(lam, k: int, dps: int = 60):
    """Mean of Poisson(lam) conditioned on >= k: lam*f_{k-1}/f_k."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        return lam * f_k_mp(k - 1, lam, dps) / f_k_mp(k, lam, dps)


def solve_lambda_mp(mu, k: int, dps: int = 60):
    """Bisection for lambda with lambda*f_k = mu*f_{k+1}; needs mu > k+1."""
    with mpmath.workdps(dps):
        mu = mpmath.mpf(mu)

        def g(y):
            return y * f_k_mp(k, y, dps) - mu * f_k_mp(k + 1, y, dps)

        lo, hi = mpmath.mpf("1e-6"), mu
        while g(lo) >= 0:
            lo /= 2
        assert g(hi) >= 0
        for _ in range(dps * 4):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# classical (k+1)-core fixed point (the w = 1 specialisation)
# ---------------------------------------------------------------------------

def classical_core_fixed_point(h: int, k: int, mu_bar, dps: int = 40):
    """Largest fixed point of lam = mu_bar * f_k(lam)^(h-1).

    Returns (alpha, mu_hat) = (f_{k+1}(lam), lam*f_k(lam)/f_{k+1}(lam)),
    or (0, 0) when the iteration collapses to ~0 (empty core).
    """
    with mpmath.workdps(dps):
        lam = mpmath.mpf(mu_bar)
        for _ in range(20000):
            new = mu_bar * f_k_mp(k, lam, dps) ** (h - 1)
            if abs(new - lam) < mpmath.mpf(10) ** (-dps + 5):
                lam = new
                break
            lam = new
        if lam < mpmath.mpf("1e-8"):
            return mpmath.mpf(0), mpmath.mpf(0)
        alpha = f_k_mp(k + 1, lam, dps)
        mu_hat = lam * f_k_mp(k, lam, dps) / alpha
        return alpha, mu_hat


# ---------------------------------------------------------------------------
# the (w,k+1)-core fixed point by iteration in q
# ---------------------------------------------------------------------------

def iterated_core_fixed_point(h: int, w: int, k: int, mu_bar: float) -> dict:
    """The core of the Poisson(mu_bar)-degree h-uniform model by iterating

        q <- P(Po(mu_bar r(q)) >= k),    r(q) = P(Bin(h-1, q) >= h-w),

    down from q = 1 to its largest root, until a step moves q by at most
    1e-14 q.  Converges ever more slowly towards core emergence.  Returns
    alpha, beta (edges per size per vertex), kappa, mu_hat and x_star.
    """
    def rate(q: float) -> float:
        return mu_bar * float(special.bdtrc(h - w - 1, h - 1, q))

    q = 1.0
    for _ in range(10**6):
        q_next = float(special.gammainc(k, rate(q)))
        done = abs(q_next - q) <= 1e-14 * q_next
        q = q_next
        if done:
            break
    else:
        raise RuntimeError(f"q iteration unsettled at {(h, w, k)}, mu_bar={mu_bar}")
    edges = mu_bar / h
    sizes = range(h, h - w, -1)
    beta = {s: edges * math.comb(h, s) * q**s * (1.0 - q) ** (h - s) for s in sizes}
    alpha = float(special.gammainc(k + 1, rate(q)))
    return {
        "alpha": alpha,
        "beta": beta,
        "kappa": sum(sign_demand(h, w, s) * b for s, b in beta.items()) / alpha,
        "mu_hat": sum(s * b for s, b in beta.items()) / alpha,
        "x_star": edges * w * float(special.bdtr(h - w, h, q))
        + sum((h - s) * b for s, b in beta.items()),
    }
