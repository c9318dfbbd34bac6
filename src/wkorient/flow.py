"""Orientability decisions via max flow.

The network has a source feeding one node per hyperedge (capacity = that
edge's sign demand), unit arcs from an edge-node to each *distinct* incident
vertex, and vertex nodes draining into the sink at capacity k.  The instance
is (w,k)-orientable exactly when the max flow saturates every source arc;
the saturated unit arcs then name the signed vertices.  When saturation
fails, the vertex nodes reachable from the source in the residual network
form a subset S, and if every edge consists of distinct vertices the
w-induced subgraph on S has density > k — the canonical violating-set
certificate.  An edge that repeats a vertex contributes one unit arc but
several units of induced density, so with such edges non-orientability is
still decided exactly while S may fail the density bound (instances exist
with no dense subset at all); kappa_S is reported as computed either way.

Production flow is scipy's Dinic; tests cross-check a naive augmenting-path
implementation.  Dinic runs from the source unless the total sign demand
exceeds the sink capacity k|V|.  Such an instance is non-orientable by
counting, and Dinic then runs on the transposed network from the sink,
which is faster on those cores.  S does not depend on the direction: the
residual-reachable set is the same for every maximum flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    verify_orientation,
    w_density,
    w_induced_subgraph,
)

__all__ = [
    "FlowNetwork",
    "CutWitness",
    "build_network",
    "max_flow",
    "orient",
]


@dataclass(frozen=True)
class FlowNetwork:
    """Capacity graph in CSR form.  Node layout: 0 = source, 1..m edge
    nodes, m+1..m+n vertex nodes, m+n+1 = sink."""

    capacities: csr_matrix
    num_edges: int
    num_vertices: int
    total_demand: int
    sink_capacity: int

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.num_edges + self.num_vertices + 1

    @property
    def num_arcs(self) -> int:
        return self.capacities.nnz


@dataclass(frozen=True)
class CutWitness:
    """Certificate of non-orientability.

    For a flow-derived witness, S is the source side of a minimum cut and
    kappa_S its induced w-density — strictly above k whenever the edges are
    vertex-distinct (repeated vertices inside an edge can leave every subset
    at density ≤ k even though no orientation exists).  A degenerate edge
    (fewer distinct vertices than signs owed) short-circuits the flow
    entirely and is reported by index instead.
    """

    S: tuple[int, ...]
    kappa_S: Optional[Fraction]
    degenerate_edge: Optional[int] = None


def build_network(H: Hypergraph, p: OrientationParams) -> FlowNetwork:
    H.validate_sizes(p)
    m, n = H.num_edges, H.n
    demand = H.sign_demands(p)
    first = H.first_of_vertex
    # rows in node order: source, edge nodes, vertex nodes, sink
    counts = np.concatenate(([m], H.distinct_sizes, np.ones(n, dtype=np.int64), [0]))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    indices = np.concatenate(
        (np.arange(1, m + 1), 1 + m + H.verts[first], np.full(n, m + n + 1))
    ).astype(np.int32)
    data = np.concatenate(
        (demand, np.ones(len(indices) - m - n, dtype=np.int64), np.full(n, p.k))
    ).astype(np.int32)
    size = m + n + 2
    mat = csr_matrix((data, indices, indptr), shape=(size, size))
    return FlowNetwork(mat, m, n, int(demand.sum()), p.k * n)


def max_flow(net: FlowNetwork) -> tuple[int, csr_matrix]:
    """Exact integral max flow from source to sink; returns (value, flow
    matrix on the capacity sparsity, with the reverse arcs holding -f).

    When the demand exceeds the sink capacity k|V|, no flow saturates the
    source arcs, and Dinic runs from the sink on the transposed capacities.
    scipy's flow matrix holds f on each arc and -f on its reverse, so the
    transpose of that flow is its negation.  Every maximum flow leaves the
    same nodes reachable from the source in its residual network (the
    source side of the smallest minimum cut), so the witness S is the same
    either way; instances that can orient keep the forward flow and with
    it their orientation bytes.
    """
    if net.total_demand > net.sink_capacity:
        res = maximum_flow(net.capacities.T.tocsr(), net.sink, net.source)
        res.flow.data *= -1  # transpose back
        return int(res.flow_value), res.flow
    res = maximum_flow(net.capacities, net.source, net.sink)
    return int(res.flow_value), res.flow


def _residual_reachable(net: FlowNetwork, flow: csr_matrix) -> np.ndarray:
    """Nodes reachable from the source when arcs keep residual capacity
    cap - f and every positive flow opens the reverse arc (scipy stores a
    reverse entry of flow -f, so cap - flow covers both)."""
    residual = (net.capacities - flow).tocsr()
    # float64, which breadth_first_order would otherwise copy the data to
    residual.data = (residual.data > 0).astype(np.float64)
    residual.eliminate_zeros()
    return breadth_first_order(residual, net.source, return_predecessors=False)


def orient(H: Hypergraph, p: OrientationParams) -> Union[Orientation, CutWitness]:
    """Decide (w,k)-orientability; return a valid Orientation or a
    CutWitness whose induced density exceeds k (checked in exact rationals).
    """
    net = build_network(H, p)  # validates the edge sizes, once per call
    degenerate = np.flatnonzero(H.distinct_sizes < H.sign_demands(p))
    if len(degenerate):
        return CutWitness(S=(), kappa_S=None, degenerate_edge=int(degenerate[0]))
    value, flow = max_flow(net)
    m = net.num_edges
    if value == net.total_demand:
        # the edge-node rows: positive entries are the saturated unit arcs
        # (the source column holds the reverse flow, negative)
        lo, hi = flow.indptr[1], flow.indptr[m + 1]
        picked = flow.data[lo:hi] > 0
        owner = np.repeat(np.arange(m), np.diff(flow.indptr[1 : m + 2]))[picked]
        out = Orientation(
            ptr=np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=m)))),
            verts=flow.indices[lo:hi][picked] - (m + 1),
        )
        ok, reason = verify_orientation(H, out, p)
        if not ok:  # pragma: no cover - internal consistency
            raise RuntimeError(f"flow produced an invalid orientation: {reason}")
        return out
    reach = _residual_reachable(net, flow)
    S = tuple(np.sort(reach[(reach > m) & (reach <= m + H.n)] - (m + 1)).tolist())
    kappa = w_density(w_induced_subgraph(H, S, p), p) if S else None
    witness = CutWitness(S=S, kappa_S=kappa)
    # Guaranteed impossible for vertex-distinct edges; with internal repeats
    # the min cut can under-count density (see module docstring).
    if (kappa is None or kappa <= p.k) and H.first_of_vertex.all():  # pragma: no cover
        raise RuntimeError(f"cut witness fails to violate the density bound: {witness}")
    return witness
