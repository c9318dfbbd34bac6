"""The max-flow orientability solver and its certificates."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import maximum_flow

from oracles import (
    hakimi_check,
    min_max_indegree,
    min_max_indegree_search,
    naive_max_flow,
    orientation_search,
    residual_reachable,
    sign_demand,
)
from wkorient.flow import (
    CutWitness,
    _residual_reachable,
    build_network,
    max_flow,
    orient,
)
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    verify_orientation,
    w_density,
    w_induced_subgraph,
)

TRIANGLE = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
DOUBLE_ABC = Hypergraph(3, [(0, 1, 2), (0, 1, 2)])
# Non-orientable, yet no subset has induced density above k=2: the repeated
# vertices starve the edges of distinct sign targets without adding density.
NO_DENSE_WITNESS = Hypergraph(5, [(3, 4, 4), (1, 3, 3), (1, 2, 4), (0, 4, 4), (0, 0, 3)])


@st.composite
def flow_instances(draw, max_n=7, max_m=6, simple_edges=False):
    h = draw(st.integers(2, 4))
    w = draw(st.integers(1, h - 1))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(h - w + 1 if simple_edges else 1, max_n))
    vertex = st.integers(0, n - 1)
    if simple_edges:
        edge = st.sets(vertex, min_size=h - w + 1, max_size=min(h, n)).map(tuple)
    else:
        edge = st.lists(vertex, min_size=h - w + 1, max_size=h).map(tuple)
    edges = draw(st.lists(edge, max_size=max_m))
    return Hypergraph(n, edges), OrientationParams(h, w, k)


# ---------------------------------------------------------------------------
# the network itself


def test_network_layout():
    p = OrientationParams(3, 2, 2)
    net = build_network(Hypergraph(3, [(0, 1, 2)]), p)
    assert (net.source, net.sink) == (0, 5)
    # edge i is node 1 + i, vertex v is node 1 + m + v
    assert net.total_demand == 2
    caps = net.capacities.toarray()
    assert caps[0, 1] == 2  # source feeds the edge its sign demand
    assert caps[1, 2] == caps[1, 3] == caps[1, 4] == 1
    assert caps[2, 5] == caps[3, 5] == caps[4, 5] == 2  # k per vertex
    assert net.num_arcs == 7


def test_repeated_vertex_contributes_one_arc():
    net = build_network(Hypergraph(2, [(0, 0, 1)]), OrientationParams(3, 2, 2))
    caps = net.capacities.toarray()
    assert caps[1, 2] == 1 and caps[1, 3] == 1
    assert net.num_arcs == 5


@given(flow_instances())
@settings(max_examples=100)
def test_max_flow_matches_naive_solver(inst):
    H, p = inst
    net = build_network(H, p)
    value, _ = max_flow(net)
    coo = net.capacities.tocoo()
    caps = {(int(u), int(v)): int(c) for u, v, c in zip(coo.row, coo.col, coo.data)}
    want, _ = naive_max_flow(caps, net.source, net.sink)
    assert value == want
    assert value <= net.total_demand


@given(flow_instances(max_m=10))
@example((DOUBLE_ABC, OrientationParams(3, 2, 1)))  # demand 4 > k|V| = 3
@settings(max_examples=150)
def test_max_flow_and_its_cut_match_a_forward_flow(inst):
    # an instance owing more signs than k|V| gets its flow from the sink
    # side; its value, its conservation and the residual-reachable set must
    # be those of scipy's flow run forward from the source
    H, p = inst
    net = build_network(H, p)
    value, flow = max_flow(net)
    ref = maximum_flow(net.capacities, net.source, net.sink)
    assert value == ref.flow_value
    F, cap = flow.toarray(), net.capacities.toarray()
    assert (F == -F.T).all() and (F <= cap).all()  # f on arcs, -f reversed
    net_out = F.sum(axis=1)
    assert net_out[net.source] == value == -net_out[net.sink]
    assert not net_out[net.source + 1 : net.sink].any()
    S = residual_reachable(net.capacities, flow, net.source)
    assert S == residual_reachable(net.capacities, ref.flow, net.source)
    assert S == set(_residual_reachable(net, flow).tolist())


# ---------------------------------------------------------------------------
# orientation decisions


def test_triangle_is_1_orientable():
    o = orient(TRIANGLE, OrientationParams(2, 1, 1))
    assert isinstance(o, Orientation)
    ok, why = verify_orientation(TRIANGLE, o, OrientationParams(2, 1, 1))
    assert ok, why


def test_double_triple_witness():
    res = orient(DOUBLE_ABC, OrientationParams(3, 2, 1))
    assert isinstance(res, CutWitness)
    assert res.S == (0, 1, 2)
    assert res.kappa_S == Fraction(4, 3)
    assert res.degenerate_edge is None


def test_empty_hypergraph_orients():
    o = orient(Hypergraph(4, []), OrientationParams(3, 2, 1))
    assert isinstance(o, Orientation)
    assert o.signs == ()


def test_degenerate_edge_short_circuits():
    p = OrientationParams(4, 3, 5)
    res = orient(Hypergraph(2, [(0, 0, 1, 1)]), p)
    assert isinstance(res, CutWitness)
    assert res.degenerate_edge == 0
    assert res.S == () and res.kappa_S is None


def test_multiset_witness_reports_honest_density():
    # decided non-orientable even though every subset has density <= k
    p = OrientationParams(3, 2, 2)
    res = orient(NO_DENSE_WITNESS, p)
    assert isinstance(res, CutWitness)
    assert orientation_search(NO_DENSE_WITNESS.edges, 5, 3, 2, 2) is None
    assert res.S, "flow failure always leaves reachable vertex nodes"
    assert res.kappa_S == w_density(w_induced_subgraph(NO_DENSE_WITNESS, res.S, p), p)
    assert res.kappa_S <= p.k  # the bound a simple-edge witness would violate


@given(flow_instances())
@settings(max_examples=200)
def test_orient_agrees_with_exhaustive_search(inst):
    H, p = inst
    res = orient(H, p)
    picks = orientation_search(H.edges, H.n, p.h, p.w, p.k)
    if isinstance(res, Orientation):
        assert picks is not None
        ok, why = verify_orientation(H, res, p)
        assert ok, why
    else:
        assert picks is None


@given(flow_instances(simple_edges=True))
@settings(max_examples=150)
def test_witness_density_exceeds_k_on_simple_edges(inst):
    H, p = inst
    res = orient(H, p)
    if isinstance(res, CutWitness):
        assert res.degenerate_edge is None
        assert res.kappa_S > p.k
        sub = w_induced_subgraph(H, res.S, p)
        assert w_density(sub, p) == res.kappa_S


@given(flow_instances(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_decision_is_relabel_invariant(inst, pyrandom):
    H, p = inst
    perm = list(range(H.n))
    pyrandom.shuffle(perm)
    relabeled = Hypergraph(H.n, [tuple(perm[v] for v in e) for e in H.edges])
    assert isinstance(orient(H, p), Orientation) == isinstance(
        orient(relabeled, p), Orientation
    )


# ---------------------------------------------------------------------------
# derived deciders


def test_min_max_indegree_examples():
    assert min_max_indegree(Hypergraph(4, []), 2) == (0, Orientation([]))
    k, o = min_max_indegree(TRIANGLE, 1)
    assert k == 1
    k, o = min_max_indegree(DOUBLE_ABC, 2)
    assert k == 2  # kappa = 4/3 rules out k=1, and a flow exists at 2
    ok, why = verify_orientation(DOUBLE_ABC, o, OrientationParams(3, 2, 2))
    assert ok, why


def test_min_max_indegree_rejects_degenerate():
    with pytest.raises(ValueError):
        min_max_indegree(Hypergraph(2, [(0, 0, 1, 1)]), 3)


@given(flow_instances(max_n=6, max_m=5))
@settings(max_examples=75)
def test_min_max_indegree_matches_search(inst):
    H, p = inst
    try:
        k_star, o = min_max_indegree(H, p.w, h=p.h)
    except ValueError:
        assert any(len(set(e)) < sign_demand(p.h, p.w, len(e)) for e in H.edges)
        return
    assert k_star == min_max_indegree_search(H.edges, H.n, p.h, p.w)
    if H.num_edges:
        ok, why = verify_orientation(H, o, OrientationParams(p.h, p.w, k_star))
        assert ok, why
        assert isinstance(orient(H, OrientationParams(p.h, p.w, k_star)), Orientation)
        if k_star > 1:
            worse = orient(H, OrientationParams(p.h, p.w, k_star - 1))
            assert isinstance(worse, CutWitness)


def test_hakimi_examples():
    assert hakimi_check(TRIANGLE, OrientationParams(2, 1, 1))
    assert not hakimi_check(DOUBLE_ABC, OrientationParams(3, 2, 1))
    assert hakimi_check(DOUBLE_ABC, OrientationParams(3, 2, 2))
    # the density criterion is blind to repeats; the degenerate guard is not
    assert not hakimi_check(Hypergraph(2, [(0, 0, 1, 1)]), OrientationParams(4, 3, 5))
    with pytest.raises(ValueError):
        hakimi_check(Hypergraph(25, []), OrientationParams(2, 1, 1), max_n=20)


@given(flow_instances(simple_edges=True, max_n=6))
@settings(max_examples=100)
def test_hakimi_equals_flow_on_simple_edges(inst):
    H, p = inst
    assert hakimi_check(H, p) == isinstance(orient(H, p), Orientation)
