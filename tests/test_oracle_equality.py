"""The array-native peel, network builder and flow glue against the
sequential tuple implementations kept in oracles.py: same cores, same
network CSR, same orientations and witnesses.  Also the vectorised
all-subsets oracles against the per-subset loops they stand for."""

from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_subsets_expansion_ok,
    all_subsets_kappa_ok,
    dict_orient,
    expansion_condition,
    fifo_peel,
    kappa_exact,
    peel_views,
    sign_demand,
    tuple_network,
    w_induced,
)
from wkorient.flow import CutWitness, build_network, orient
from wkorient.hypergraph import Hypergraph, Orientation, OrientationParams
from wkorient.models import RngSeed, sample_uniform_multi
from wkorient.peeling import rancore


@st.composite
def multi_instances(draw, max_n=30, max_m=40):
    """Mixed edge sizes in [h-w+1, h], vertices may repeat inside an edge;
    dense enough that several light vertices often share an edge in one
    peeling round."""
    h = draw(st.integers(2, 5))
    w = draw(st.integers(1, h - 1))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edge = st.lists(vertex, min_size=h - w + 1, max_size=h)
    edges = draw(st.lists(edge, max_size=max_m))
    return Hypergraph(n, edges), OrientationParams(h, w, k)


@given(multi_instances())
@settings(max_examples=300, deadline=None)
def test_round_parallel_peel_matches_fifo_peel(inst):
    H, p = inst
    pr = rancore(H, p)
    want = fifo_peel(H.edges, H.n, p.h, p.w, p.k)
    edge_fate, peel_signs = peel_views(pr)
    assert pr.core_vertices == want.core_vertices
    assert pr.core.edges == want.core_edges
    assert edge_fate == want.edge_fate
    # the same vertices leave and every edge grants the same number of
    # signs; only who signs within a round may differ
    assert sorted(v for v, _ in pr.elimination) == sorted(v for v, _ in want.elimination)
    assert [len(s) for s in peel_signs] == [len(s) for s in want.peel_signs]
    per_vertex = Counter()
    for ei, signed in enumerate(peel_signs):
        per_vertex.update(signed)
        assert Counter(signed) <= Counter(H.edges[ei])  # signs sit on own balls
        demand = sign_demand(p.h, p.w, len(H.edges[ei]))
        if edge_fate[ei] is None:
            assert len(signed) == demand
        else:
            assert len(signed) == len(H.edges[ei]) - edge_fate[ei][1]
    assert all(got <= p.k for got in per_vertex.values())
    granted = Counter(e for _, edges in pr.elimination for e in edges)
    assert granted == Counter({ei: len(s) for ei, s in enumerate(peel_signs) if s})


@given(multi_instances())
@settings(max_examples=200, deadline=None)
def test_network_csr_matches_tuple_builder(inst):
    H, p = inst
    got = build_network(H, p).capacities
    want = tuple_network(H.edges, H.n, p.h, p.w, p.k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


@given(multi_instances(max_n=20, max_m=30))
@settings(max_examples=200, deadline=None)
def test_orient_matches_dict_orient(inst):
    H, p = inst
    got = orient(H, p)
    want = dict_orient(H.edges, H.n, p.h, p.w, p.k)
    if want[0] == "signs":
        assert isinstance(got, Orientation)
        assert got.signs == want[1]
    else:
        assert isinstance(got, CutWitness)
        assert (got.S, got.kappa_S, got.degenerate_edge) == want[1:]


def test_orient_matches_dict_orient_on_sampled_graphs():
    # an orientable core, a core that is its own witness, and an unpeeled
    # graph whose witness is a proper subset
    p = OrientationParams(3, 2, 4)
    kinds = []
    for mu, seed, peel in ((5.3, 1, True), (5.9, 2, True), (5.9, 2, False)):
        H = sample_uniform_multi(3000, round(mu * 3000 / 3), 3, RngSeed(seed).generator())
        G = rancore(H, p).core if peel else H
        got = orient(G, p)
        want = dict_orient(G.edges, G.n, p.h, p.w, p.k)
        if want[0] == "signs":
            assert got.signs == want[1]
        else:
            assert (got.S, got.kappa_S, got.degenerate_edge) == want[1:]
        kinds.append((want[0], len(got.S) if want[0] == "witness" else G.n))
    assert [kind for kind, _ in kinds] == ["signs", "witness", "witness"]
    assert 0 < kinds[2][1] < 3000


def test_all_subsets_oracles_match_their_per_subset_loops():
    # mixed edge sizes in [h-w+1, h], vertices may repeat inside an edge
    verdicts = Counter()
    rng = RngSeed(26).generator()
    for _ in range(300):
        h = int(rng.integers(2, 5))
        w = int(rng.integers(1, h))
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 8))
        sizes = rng.integers(h - w + 1, h + 1, int(rng.integers(0, 9)))
        H = Hypergraph(n, [rng.integers(0, n, s).tolist() for s in sizes])
        p = OrientationParams(h, w, k)
        subsets = [S for r in range(n + 1) for S in combinations(range(n), r)]
        expansion = all(expansion_condition(H, S, p) for S in subsets)
        kappa = all(
            not (sub := w_induced(H.edges, S, h, w)) or kappa_exact(sub, len(S), h, w) <= k
            for S in subsets[1:]
        )
        assert all_subsets_expansion_ok(H, p) == expansion
        assert all_subsets_kappa_ok(H.edges, n, h, w, k) == kappa
        verdicts[expansion, kappa] += 1
    assert {(True, True), (False, False)} <= set(verdicts), verdicts
