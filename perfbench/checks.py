"""Output checks that do not trust the code they check.

Every check takes plain integer arrays (or parsed text) and recomputes the
property from scratch with numpy: orientations with ``bincount``, witnesses
by recounting the induced demand, cores by an independent round-parallel
peel.  A check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Acceptance tolerances for the four reference rows, copied from the
# threshold-table acceptance test: (h, w, k) -> (tol on mu_tilde, tol on mu_hat).
TABLE1_TOLERANCES = {
    (3, 2, 4): (5e-3, 1e-3),
    (3, 2, 10): (5e-3, 1e-3),
    (3, 2, 40): (1e-2, 5e-3),
    (10, 2, 4): (1e-3, 1e-3),
}

# Largest sup-norm deviation allowed between the ODE trajectory and a
# simulated process trace (the bound the process-convergence test uses).
TRACE_DEVIATION_LIMIT = 0.1


class Incidence:
    """Flat incidence of a multi-hypergraph: edge i owns
    ``verts[ptr[i]:ptr[i+1]]`` (with multiplicity)."""

    def __init__(self, n: int, edges):
        sizes = np.fromiter((len(e) for e in edges), dtype=np.int64, count=len(edges))
        self.n = int(n)
        self.m = len(sizes)
        self.sizes = sizes
        self.ptr = np.concatenate(([0], np.cumsum(sizes)))
        self.verts = np.fromiter(
            (v for e in edges for v in e), dtype=np.int64, count=int(self.ptr[-1])
        )
        self.ball_edge = np.repeat(np.arange(self.m), sizes)

    def has_repeated_vertex(self) -> bool:
        keys = self.ball_edge * max(self.n, 1) + self.verts
        return len(np.unique(keys)) != len(keys)


def demand_of_size(size, h: int, w: int):
    return w - (h - size)


def check_orientation(inc: Incidence, signs, h: int, w: int, k: int) -> list[str]:
    """Sign count equals demand, signs are distinct and on the edge's own
    vertices, and no vertex receives more than k signs."""
    if len(signs) != inc.m:
        return [f"orientation covers {len(signs)} edges, graph has {inc.m}"]
    counts = np.fromiter((len(s) for s in signs), dtype=np.int64, count=inc.m)
    flat = np.fromiter((v for s in signs for v in s), dtype=np.int64, count=int(counts.sum()))
    owner = np.repeat(np.arange(inc.m), counts)
    fails = []
    bad = np.flatnonzero(counts != demand_of_size(inc.sizes, h, w))
    if len(bad):
        fails.append(f"{len(bad)} edges with a wrong sign count (first: edge {bad[0]})")
    if len(flat) and (flat.min() < 0 or flat.max() >= inc.n):
        return fails + ["sign on a vertex outside the graph"]
    n = max(inc.n, 1)
    sign_keys = owner * n + flat
    if len(np.unique(sign_keys)) != len(sign_keys):
        fails.append("an edge signs the same vertex twice")
    off_edge = ~np.isin(sign_keys, inc.ball_edge * n + inc.verts)
    if off_edge.any():
        fails.append(f"{int(off_edge.sum())} signs on vertices outside their edge")
    indeg = np.bincount(flat, minlength=inc.n)
    if len(indeg) and indeg.max() > k:
        fails.append(f"indegree {int(indeg.max())} exceeds k={k}")
    return fails


def induced_demand(inc: Incidence, S, h: int, w: int) -> int:
    """Total sign demand of the subgraph w-induced by S: each edge keeps its
    balls in S, and survives when at least h-w+1 of them remain."""
    in_S = np.zeros(inc.n, dtype=bool)
    in_S[np.asarray(S, dtype=np.int64)] = True
    kept = np.bincount(inc.ball_edge[in_S[inc.verts]], minlength=inc.m)
    kept = kept[kept >= h - w + 1]
    return int(demand_of_size(kept, h, w).sum())


def forced_demand(inc: Incidence, S, h: int, w: int) -> int:
    """Signs any orientation must put inside S: an edge can place at most
    one sign on each of its distinct vertices outside S, so it owes S at
    least demand - |distinct vertices outside S|."""
    in_S = np.zeros(inc.n, dtype=bool)
    in_S[np.asarray(S, dtype=np.int64)] = True
    pairs = np.unique(inc.ball_edge * max(inc.n, 1) + inc.verts)
    edge, vert = np.divmod(pairs, max(inc.n, 1))
    outside = np.bincount(edge[~in_S[vert]], minlength=inc.m)
    return int(np.maximum(demand_of_size(inc.sizes, h, w) - outside, 0).sum())


def check_witness(inc: Incidence, S, kappa_S, degenerate_edge, h: int, w: int, k: int) -> list[str]:
    """A witness proves non-orientability.  A degenerate edge has fewer
    distinct vertices than signs owed.  A set S must be owed more than k|S|
    signs (always true for the source side of a minimum cut), and its
    w-induced demand must exceed k|S| too unless some edge repeats a vertex."""
    if degenerate_edge is not None:
        lo, hi = inc.ptr[degenerate_edge], inc.ptr[degenerate_edge + 1]
        distinct = len(np.unique(inc.verts[lo:hi]))
        if distinct >= demand_of_size(hi - lo, h, w):
            return [f"edge {degenerate_edge} is not degenerate"]
        return []
    if len(S) == 0:
        return ["empty witness set"]
    fails = []
    forced = forced_demand(inc, S, h, w)
    if forced <= k * len(S):
        fails.append(f"witness is owed {forced} signs <= k|S| = {k * len(S)}")
    demand = induced_demand(inc, S, h, w)
    if kappa_S is not None and Fraction(demand, len(S)) != Fraction(kappa_S):
        fails.append(f"reported kappa_S {kappa_S} != recomputed {demand}/{len(S)}")
    if demand <= k * len(S) and not inc.has_repeated_vertex():
        fails.append(f"witness demand {demand} <= k|S| = {k * len(S)}")
    return fails


def _rows(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ptr[r]:ptr[r+1] of the given CSR rows."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)


def peel_core(inc: Incidence, h: int, w: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (w,k+1)-core by round-parallel peeling: every vertex of degree at
    most k leaves at once, and every edge left with fewer than h-w+1 balls
    goes, freeing its other balls.  The core is the unique maximal set of
    minimum degree k+1, so the removal order does not matter.  Returns
    (core vertex mask, surviving edge mask)."""
    by_vertex = np.argsort(inc.verts, kind="stable")
    vptr = np.concatenate(([0], np.cumsum(np.bincount(inc.verts, minlength=inc.n))))
    deg = np.diff(vptr)
    size = inc.sizes.copy()
    ball = np.ones(len(inc.verts), dtype=bool)
    alive_v = np.ones(inc.n, dtype=bool)
    alive_e = np.ones(inc.m, dtype=bool)
    light = np.flatnonzero(deg <= k)
    while len(light):
        alive_v[light] = False
        gone = by_vertex[_rows(vptr, light)]
        gone = gone[ball[gone]]
        ball[gone] = False
        edges, hits = np.unique(inc.ball_edge[gone], return_counts=True)
        size[edges] -= hits
        dying = edges[size[edges] < h - w + 1]
        alive_e[dying] = False
        freed = _rows(inc.ptr, dying)
        freed = freed[ball[freed]]
        ball[freed] = False
        np.subtract.at(deg, inc.verts[freed], 1)
        touched = np.unique(inc.verts[freed])
        light = touched[alive_v[touched] & (deg[touched] <= k)]
    return alive_v, alive_e


def check_core(source: Incidence, core_vertices, core: Incidence, h: int, w: int, k: int) -> list[str]:
    """The core has minimum degree k+1 and equals the independent peel of
    the source: same vertices, and each surviving edge restricted to them
    in source order, relabeled by rank."""
    fails = []
    if core.n:
        deg = np.bincount(core.verts, minlength=core.n)
        if deg.min() < k + 1:
            fails.append(f"core minimum degree {int(deg.min())} < k+1 = {k + 1}")
    alive_v, alive_e = peel_core(source, h, w, k)
    expect = np.flatnonzero(alive_v)
    got = np.asarray(core_vertices, dtype=np.int64)
    if len(got) != len(expect) or not np.array_equal(got, expect):
        return fails + [f"core has {len(got)} vertices, independent peel {len(expect)}"]
    rank = np.full(source.n, -1, dtype=np.int64)
    rank[expect] = np.arange(len(expect))
    ball = alive_e[source.ball_edge] & alive_v[source.verts]
    edge_ids = source.ball_edge[ball]
    order = np.lexsort((rank[source.verts[ball]], edge_ids))
    want_verts = rank[source.verts[ball]][order]
    want_sizes = np.bincount(edge_ids, minlength=source.m)[alive_e]
    if not (np.array_equal(want_sizes, core.sizes) and np.array_equal(want_verts, core.verts)):
        fails.append("core edges differ from the restriction of the source edges")
    return fails


def check_table_rows(rows) -> list[str]:
    fails = []
    seen = set()
    for row in rows:
        key = (row["h"], row["w"], row["k"])
        seen.add(key)
        if row.get("error"):
            fails.append(f"{key}: {row['error']}")
            continue
        tol_tilde, tol_hat = TABLE1_TOLERANCES[key]
        if not abs(row["delta_mu_tilde"]) <= tol_tilde:
            fails.append(f"{key}: mu_tilde {row['mu_tilde']} off by more than {tol_tilde}")
        if not abs(row["delta_mu_hat"]) <= tol_hat:
            fails.append(f"{key}: mu_hat {row['mu_hat']} off by more than {tol_hat}")
    if seen != set(TABLE1_TOLERANCES):
        fails.append(f"table rows {sorted(seen)} are not the four reference rows")
    return fails


def check_trace_deviation(devs: dict) -> list[str]:
    worst = max(devs.values()) if devs else float("nan")
    if not worst < TRACE_DEVIATION_LIMIT:
        return [f"trajectory deviates from the trace by {worst:.4g}"]
    return []
