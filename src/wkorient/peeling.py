"""Core computation by peeling, with sign bookkeeping for later extension.

A vertex is *light* while its degree (alive-ball count) is at most k.
Peeling removes light vertices' balls; an edge that shrinks to size h-w is
deleted outright, freeing its remaining balls unsigned.  Every ball removed
from a still-alive edge earns its vertex a positive sign for that edge, and
the ball chosen at the moment an edge dies earns the edge's last sign — so a
fully peeled edge hands out exactly its total sign demand, and a surviving
edge of residual size h-j has handed out exactly j of them.

Two modes compute the identical core (the (w,k+1)-core is the unique
maximal set of minimum degree k+1, so removal order cannot change it):

* deterministic — round-parallel: every light vertex leaves at once, each
  hit edge grants min(removed balls, remaining demand) signs in ball order,
  and the round's dying edges then free their other balls unsigned
  (Jiang, Mitzenmacher & Thaler, "Parallel peeling algorithms", SPAA
  2014).  Production path, vectorised over numpy arrays.
* randomized — one uniformly random light *ball* per step, matching the
  idealized random process the ODE models; this is the mode that can emit a
  ProcessTrace.  It is one fused scalar loop over local Python lists that
  keeps the census on every step, traced or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    verify_orientation,
    w_density,
)

__all__ = [
    "PeelResult",
    "ProcessTrace",
    "CoreStatistics",
    "ExtensionConflictError",
    "rancore",
    "extend_orientation",
    "core_statistics",
    "check_property_T",
]


class ExtensionConflictError(RuntimeError):
    """Merging peel signs with a core orientation would sign the same vertex
    twice for one edge (only possible when an edge repeats a vertex)."""


@dataclass(frozen=True, eq=False)
class ProcessTrace:
    """The census of the randomized peeling process at its record points.

    census has one int64 row [step, HV, A, B_0..B_h, L_0..L_h] per record
    point, B_s and L_s counting the alive and the light balls in edges of
    residual size s.  Counts are raw; scaled() divides by the initial
    vertex count.
    """

    n_bar: int
    params: OrientationParams
    stride: int
    census: np.ndarray

    @property
    def steps(self) -> np.ndarray:
        return self.census[:, 0]

    def counts(self) -> dict[str, np.ndarray]:
        """The raw census columns under scaled()'s names."""
        c, h = self.census, self.params.h
        B, L = c[:, 3 : h + 4], c[:, h + 4 :]
        out = {"x": c[:, 0], "z_B": B.sum(axis=1), "z_L": L.sum(axis=1),
               "z_HV": c[:, 1], "z_A": c[:, 2]}
        for s in self.params.sizes:
            out[f"z_B_{s}"] = B[:, s]
            out[f"z_L_{s}"] = L[:, s]
        return out

    def scaled(self) -> dict[str, np.ndarray]:
        scale = 1.0 / self.n_bar
        out = {name: col * scale for name, col in self.counts().items()}
        for s in self.params.sizes:
            out[f"z_H_{s}"] = out[f"z_B_{s}"] - out[f"z_L_{s}"]
        return out


def _groups(keys: np.ndarray, values: np.ndarray, count: int) -> list[tuple[int, ...]]:
    """values grouped by key 0..count-1, keeping their order within a group."""
    order = np.argsort(keys, kind="stable")
    flat = values[order].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=count)))).tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _balls_by_vertex(verts: np.ndarray) -> np.ndarray:
    """Ball ids ordered by vertex, ascending ball id within a vertex (a
    stable argsort, done as one sort of unique keys because that is faster)."""
    D = len(verts)
    return np.sort(verts * D + np.arange(D)) % max(D, 1)


def _row_entries(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ptr[r]:ptr[r+1] of the given CSR rows."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lens, lens)


@dataclass(frozen=True, eq=False)
class PeelResult:
    """Outcome of peeling: the core (vertices relabeled, rank i of
    core_vertices becomes id i), who got signed for what along the way, and
    what became of each original edge.

    The arrays are the record; the tuple views ``core_vertices`` and
    ``elimination`` are built on first use.
    An elimination step is one removed vertex (deterministic) or one removed
    ball (randomized); every granted sign belongs to one step.
    """

    source: Hypergraph
    core: Hypergraph
    core_ids: np.ndarray  # original ids of the core vertices, ascending
    step_vertex: np.ndarray  # vertex removed at each elimination step
    sign_step: np.ndarray  # per granted sign, in grant order: its step
    sign_edge: np.ndarray  # ... and the original edge it signs
    residual: np.ndarray  # per original edge: alive balls, 0 once removed
    trace: Optional[ProcessTrace] = None

    @cached_property
    def core_vertices(self) -> tuple[int, ...]:
        return tuple(self.core_ids.tolist())

    @cached_property
    def elimination(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(vertex, edge ids it was signed for at that step), in removal order."""
        edges = _groups(self.sign_step, self.sign_edge, len(self.step_vertex))
        return tuple(zip(self.step_vertex.tolist(), edges))


def _harvest(H, in_core, ball_alive, residual, step_vertex, sign_step, sign_edge, trace):
    """Relabel the surviving balls into the core and wrap up the record."""
    core_ids = np.flatnonzero(in_core)
    rank = np.cumsum(in_core) - 1
    ptr = np.concatenate(([0], np.cumsum(residual[residual > 0])))
    core = Hypergraph(len(core_ids), ptr=ptr, verts=rank[H.verts[ball_alive]])
    return PeelResult(
        H, core, core_ids, step_vertex, sign_step, sign_edge, residual, trace
    )


def _peel_rounds(H: Hypergraph, p: OrientationParams) -> PeelResult:
    """Deterministic round-parallel peel (see the module docstring)."""
    H.validate_sizes(p)
    n, floor, k = H.n, p.h - p.w, p.k
    verts, edge_of = H.verts, H.row_of
    by_vertex = _balls_by_vertex(verts)
    deg = np.bincount(verts, minlength=n)
    vptr = np.concatenate(([0], np.cumsum(deg)))
    size = H.sizes.copy()
    ball = np.ones(len(verts), dtype=bool)
    alive = np.ones(n, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    removed, granted = [empty], [empty]
    light = np.flatnonzero(deg <= k)
    while len(light):
        alive[light] = False
        removed.append(light)
        gone = by_vertex[_row_entries(vptr, light)]
        gone = np.sort(gone[ball[gone]])
        ball[gone] = False
        hit = edge_of[gone]
        first = np.flatnonzero(np.diff(hit, prepend=-1))
        counts = np.diff(np.append(first, len(hit)))
        edges = hit[first]
        # the first min(count, remaining demand) removed balls of an edge sign
        place = np.arange(len(hit)) - np.repeat(first, counts)
        granted.append(gone[place < np.repeat(size[edges] - floor, counts)])
        size[edges] -= counts
        dying = edges[size[edges] <= floor]
        freed = _row_entries(H.ptr, dying)
        freed = freed[ball[freed]]
        ball[freed] = False
        deg -= np.bincount(verts[freed], minlength=n)
        touched = np.sort(verts[freed])  # np.unique hashes ints, ten times slower
        touched = touched[np.diff(touched, prepend=-1) > 0]
        light = touched[alive[touched] & (deg[touched] <= k)]
    step_vertex = np.concatenate(removed)
    step_of = np.zeros(n, dtype=np.int64)
    step_of[step_vertex] = np.arange(len(step_vertex))
    signs = np.concatenate(granted)
    residual = np.where(size > floor, size, 0)
    return _harvest(
        H, alive, ball, residual, step_vertex, step_of[verts[signs]], edge_of[signs], None
    )


def _peel_random(
    H: Hypergraph,
    p: OrientationParams,
    rng: np.random.Generator,
    stride: Optional[int],
) -> PeelResult:
    """Randomized one-ball-per-step peel (see the module docstring).

    Balls are numbered in edge order and the pool of light balls starts in
    ball order, losing members by swap-remove; each step draws
    idx = int(u * len(pool)) from a 4096-value buffer.  Those three choices
    fix the whole run for a given rng.  All state lives in local lists
    (scalar numpy indexing would be slower).  The census per size class
    (alive balls Bs, light balls Ls) moves when an edge shrinks, and a heavy
    vertex turning light moves all its alive balls into Ls and the pool at
    once.  Degrees are kept for heavy vertices only.
    """
    H.validate_sizes(p)
    floor, k1, k2 = p.h - p.w, p.k + 1, p.k + 2
    verts, row_of = H.verts, H.row_of
    deg0 = np.bincount(verts, minlength=H.n)
    light0 = deg0 <= p.k
    ball_light = light0[verts]
    Bs = np.bincount(H.sizes[row_of], minlength=p.h + 1).tolist()
    Ls = np.bincount(H.sizes[row_of[ball_light]], minlength=p.h + 1).tolist()
    HV = int(np.count_nonzero(~light0))
    A = int(np.count_nonzero(deg0 == k1))
    ball_vertex = verts.tolist()
    ball_edge = row_of.tolist()
    ptr = H.ptr.tolist()
    by_vertex = _balls_by_vertex(verts).tolist()
    vptr = np.concatenate(([0], np.cumsum(deg0))).tolist()
    alive = [True] * len(verts)
    esize = H.sizes.tolist()
    deg = deg0.tolist()
    light = light0.tolist()
    edge_light = np.bincount(row_of[ball_light], minlength=H.num_edges).tolist()
    pool = np.flatnonzero(ball_light).tolist()
    pool_pos = np.zeros(len(verts), dtype=np.int64)  # read for pool members only
    pool_pos[pool] = np.arange(len(pool))
    pool_pos = pool_pos.tolist()
    pool_pop, pool_append = pool.pop, pool.append
    step_ball: list[int] = []  # one removed ball per step, each step one sign
    log = step_ball.append

    t = 0
    mark = -1  # the next step to record
    census = []
    if stride is not None:
        census.append([0, HV, A, *Bs, *Ls])
        mark = stride
    while pool:
        for u in rng.random(4096).tolist():
            # u <= 1 - 2**-53, so u * size rounds below size for any pool
            idx = int(u * len(pool))
            b = pool[idx]
            log(b)
            alive[b] = False
            last = pool_pop()
            if last != b:
                pool[idx] = last
                pool_pos[last] = pool_pos[b]
            ei = ball_edge[b]
            s = esize[ei]
            nl = edge_light[ei] - 1
            edge_light[ei] = nl
            if s - 1 > floor:
                # the edge shrinks: its other balls move from class s to s-1
                esize[ei] = s - 1
                Bs[s] -= s
                Bs[s - 1] += s - 1
                Ls[s] -= nl + 1
                Ls[s - 1] += nl
            else:
                # the edge dies: its other balls go unsigned, their bins
                # lose degree
                esize[ei] = 0
                freed = [c for c in range(ptr[ei], ptr[ei + 1]) if alive[c]]
                Bs[s] -= 1 + len(freed)
                Ls[s] -= 1
                for c in freed:
                    alive[c] = False
                    if light[ball_vertex[c]]:
                        Ls[s] -= 1
                        i = pool_pos[c]
                        last = pool_pop()
                        if last != c:
                            pool[i] = last
                            pool_pos[last] = i
                for c in freed:
                    v = ball_vertex[c]
                    if light[v]:
                        continue
                    d = deg[v]
                    deg[v] = d - 1
                    if d == k2:
                        A += 1
                    elif d == k1:
                        # heavy to light: its alive balls join Ls and the pool
                        A -= 1
                        HV -= 1
                        light[v] = True
                        for c2 in by_vertex[vptr[v] : vptr[v + 1]]:
                            if alive[c2]:
                                e2 = ball_edge[c2]
                                Ls[esize[e2]] += 1
                                edge_light[e2] += 1
                                pool_pos[c2] = len(pool)
                                pool_append(c2)
            t += 1
            if t == mark:
                census.append([t, HV, A, *Bs, *Ls])
                mark += stride
            if not pool:
                break
    trace = None
    if stride is not None:
        if t % stride:
            census.append([t, HV, A, *Bs, *Ls])
        trace = ProcessTrace(H.n, p, stride, np.array(census, dtype=np.int64))

    steps = np.asarray(step_ball, dtype=np.int64)
    del step_ball, log  # free the log before the harvest sets peak memory
    return _harvest(
        H,
        ~np.asarray(light, dtype=bool),
        np.asarray(alive, dtype=bool),
        np.asarray(esize, dtype=np.int64),
        verts[steps],
        np.arange(len(steps)),
        row_of[steps],
        trace,
    )


def rancore(
    H: Hypergraph,
    p: OrientationParams,
    mode: str = "deterministic",
    rng: Optional[np.random.Generator] = None,
    trace: bool = False,
) -> PeelResult:
    """Peel H down to its (w, k+1)-core.

    mode="deterministic" peels in parallel rounds; mode="randomized"
    removes one uniform light ball per step (rng required) and, with
    trace=True, samples the process census every ceil(n/1000) steps (a
    trace needs n >= 1).
    """
    if mode == "deterministic":
        if trace:
            raise ValueError("process traces require the randomized mode")
        return _peel_rounds(H, p)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("randomized mode needs an rng")
    if trace and H.n == 0:
        raise ValueError("a process trace needs at least one vertex")
    stride = max(1, -(-H.n // 1000)) if trace else None
    return _peel_random(H, p, rng, stride)


def extend_orientation(
    pr: PeelResult, core_orientation: Orientation, p: OrientationParams
) -> Orientation:
    """Merge the signs recorded during peeling with a valid orientation of
    the core, giving an orientation of the original hypergraph.

    Raises ExtensionConflictError for the smallest edge the peel signed a
    vertex twice for: a peeled vertex holding two balls of an edge that
    still owes two signs collects both (core signs go to core vertices,
    which never sign while peeling).  Such an instance is non-orientable as
    far as this certificate goes.
    """
    o = core_orientation
    ok, reason = verify_orientation(pr.core, o, p)
    if not ok:
        raise ValueError(f"core orientation invalid: {reason}")
    # (original edge, signed vertex) pairs: the peel's grants, then the core's
    edge = np.concatenate((pr.sign_edge, np.flatnonzero(pr.residual > 0)[o.row_of]))
    vert = np.concatenate((pr.step_vertex[pr.sign_step], pr.core_ids[o.verts]))
    order = np.lexsort((vert, edge))
    edge, vert = edge[order], vert[order]
    twice = np.flatnonzero((edge[1:] == edge[:-1]) & (vert[1:] == vert[:-1]))
    if len(twice):
        ei = int(edge[twice[0]])
        raise ExtensionConflictError(
            f"edge {ei} would sign a vertex twice: {vert[edge == ei].tolist()}"
        )
    counts = np.bincount(edge, minlength=pr.source.num_edges)
    out = Orientation(ptr=np.concatenate(([0], np.cumsum(counts))), verts=vert)
    ok, reason = verify_orientation(pr.source, out, p)
    if not ok:  # pragma: no cover - internal consistency
        raise RuntimeError(f"extension produced an invalid orientation: {reason}")
    return out


@dataclass(frozen=True)
class CoreStatistics:
    """Vertex count, edge counts by size (size -> count, zero counts
    absent), w-density and mean degree of a core; the density and mean
    degree of an empty core are undefined (None)."""

    n_core: int
    m_core: dict[int, int]
    kappa: Optional[Fraction]
    mu_hat: Optional[float]


def core_statistics(pr: PeelResult, p: OrientationParams) -> CoreStatistics:
    """Statistics of the core of a peel."""
    core = pr.core
    if core.n == 0:
        return CoreStatistics(0, {}, None, None)
    return CoreStatistics(
        n_core=core.n,
        m_core=dict(core.edge_size_counts()),
        kappa=w_density(core, p),
        mu_hat=core.total_degree / core.n,
    )


def check_property_T(H: Hypergraph, p: OrientationParams) -> bool:
    """True iff the (w, k+1)-core has w-density <= k, counted as its sign
    demand against k per core vertex (so an empty core passes)."""
    core = rancore(H, p).core
    return int(core.sign_demands(p).sum()) <= p.k * core.n
