"""Peeling to the core, sign bookkeeping, and the randomized process trace."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_core, peel_views, sign_demand, tuple_extend
from wkorient.flow import orient
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    verify_orientation,
    w_density,
)
from wkorient.models import RngSeed, sample_uniform_multi
from wkorient.peeling import (
    ExtensionConflictError,
    check_property_T,
    core_statistics,
    extend_orientation,
    rancore,
)

P322 = OrientationParams(3, 2, 2)
QUAD = Hypergraph(4, list(combinations(range(4), 3)))


@st.composite
def peel_instances(draw, max_n=9, max_m=8, simple_edges=False):
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
# the core itself


def test_single_edge_peels_to_nothing():
    pr = rancore(Hypergraph(3, [(0, 1, 2)]), P322)
    assert pr.core.n == 0 and pr.core.num_edges == 0
    assert peel_views(pr)[0] == (None,)
    assert sorted(v for v, _ in pr.elimination) == [0, 1, 2]
    stats = core_statistics(pr, P322)
    assert (stats.n_core, stats.m_core, stats.kappa, stats.mu_hat) == (0, {}, None, None)


def test_all_triples_survive_intact():
    # min degree 3 = k+1, so nothing is light and the core is H itself
    pr = rancore(QUAD, P322)
    assert pr.core == QUAD
    assert pr.core_vertices == (0, 1, 2, 3)
    assert pr.elimination == ()
    stats = core_statistics(pr, P322)
    assert stats.n_core == 4
    assert stats.m_core == {3: 4}
    assert stats.kappa == Fraction(2)
    assert stats.mu_hat == 3.0


def test_partial_peel_keeps_residual_sizes():
    # d only touches one triple; removing it trims that edge to a pair
    H = Hypergraph(4, [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 3)])
    pr = rancore(H, P322)
    assert pr.core_vertices == (0, 1, 2)
    assert sorted(pr.core.edge_size_counts().items()) == [(2, 1), (3, 3)]
    fate = peel_views(pr)[0]
    assert fate[3] is not None
    assert fate[3][1] == 2  # residual size after losing d's ball


@given(peel_instances())
@settings(max_examples=150)
def test_modes_produce_identical_cores(inst):
    H, p = inst
    det = rancore(H, p)
    ran = rancore(H, p, mode="randomized", rng=RngSeed(0).generator())
    assert det.core == ran.core
    assert det.core_vertices == ran.core_vertices
    assert peel_views(det)[0] == peel_views(ran)[0]


@given(peel_instances(max_n=8, max_m=6))
@settings(max_examples=100)
def test_core_matches_brute_force(inst):
    H, p = inst
    pr = rancore(H, p)
    want_vertices, want_edges = brute_force_core(H.edges, H.n, p.h, p.w, p.k)
    assert list(pr.core_vertices) == want_vertices
    names = pr.core_vertices
    mine = sorted(tuple(names[v] for v in e) for e in pr.core.edges)
    assert mine == sorted(want_edges)


@given(peel_instances(max_n=6, max_m=12))
@example((Hypergraph(0), P322))
@example((Hypergraph(3), P322))
@settings(max_examples=200, deadline=None)
def test_property_T_counts_what_the_density_compares(inst):
    # sign demand <= k·|V| on the core is its w-density <= k, and holds
    # on an empty core, which has no density
    H, p = inst
    core = rancore(H, p).core
    assert check_property_T(H, p) == (core.n == 0 or w_density(core, p) <= p.k)


@given(peel_instances())
@settings(max_examples=100)
def test_peeling_is_idempotent(inst):
    H, p = inst
    core = rancore(H, p).core
    again = rancore(core, p)
    assert again.core == core
    assert again.elimination == ()


@given(peel_instances(max_m=5), st.data())
@settings(max_examples=100)
def test_core_grows_with_extra_edges(inst, data):
    H, p = inst
    vertex = st.integers(0, H.n - 1)
    extra = data.draw(
        st.lists(
            st.lists(vertex, min_size=p.min_edge_size, max_size=p.h).map(tuple),
            max_size=3,
        ),
        label="extra",
    )
    bigger = Hypergraph(H.n, list(H.edges) + extra)
    assert set(rancore(H, p).core_vertices) <= set(rancore(bigger, p).core_vertices)


# ---------------------------------------------------------------------------
# sign bookkeeping and extension


@given(peel_instances())
@settings(max_examples=150)
def test_peel_signs_respect_capacity_and_demand(inst):
    H, p = inst
    pr = rancore(H, p)
    fate, peel_signs = peel_views(pr)
    per_vertex = Counter()
    for ei, signed in enumerate(peel_signs):
        per_vertex.update(signed)
        demand = sign_demand(p.h, p.w, len(H.edges[ei]))
        if fate[ei] is None:
            assert len(signed) == demand  # fully peeled: all signs granted
        else:
            residual = fate[ei][1]
            assert len(signed) == len(H.edges[ei]) - residual
    for v, got in per_vertex.items():
        assert got <= p.k  # only light vertices ever receive signs


@given(peel_instances(simple_edges=True))
@settings(max_examples=100)
def test_extension_of_empty_core_orientation(inst):
    H, p = inst
    pr = rancore(H, p)
    if pr.core.num_edges > 0:
        return  # exercised via the flow solver elsewhere
    o = extend_orientation(pr, Orientation([]), p)
    ok, why = verify_orientation(H, o, p)
    assert ok, why


def test_extension_conflict_on_repeated_vertex_edge():
    # {a,a,b} peels away entirely but must sign a twice for the one edge
    pr = rancore(Hypergraph(2, [(0, 0, 1)]), P322)
    assert pr.core.num_edges == 0
    with pytest.raises(ExtensionConflictError):
        extend_orientation(pr, Orientation([]), P322)
    # two such edges: the smaller one is named, although sorting by vertex
    # would meet edge 1's conflict on vertex 0 first
    pr = rancore(Hypergraph(4, [(2, 2, 3), (0, 0, 1)]), P322)
    with pytest.raises(ExtensionConflictError) as err:
        extend_orientation(pr, Orientation([]), P322)
    assert str(err.value) == "edge 0 would sign a vertex twice: [2, 2]"


@given(peel_instances(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_extension_matches_the_per_edge_merge(inst, randomized):
    H, p = inst
    if randomized:
        pr = rancore(H, p, mode="randomized", rng=RngSeed(0).generator())
    else:
        pr = rancore(H, p)
    core_o = orient(pr.core, p)
    if not isinstance(core_o, Orientation):
        return  # no core orientation to extend
    try:
        want = tuple_extend(pr, core_o)
    except ExtensionConflictError as exc:
        with pytest.raises(ExtensionConflictError) as err:
            extend_orientation(pr, core_o, p)
        assert str(err.value) == str(exc)
        return
    got = extend_orientation(pr, core_o, p)
    assert np.array_equal(got.ptr, want.ptr) and np.array_equal(got.verts, want.verts)


@given(peel_instances(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_randomized_records_have_the_deterministic_dtypes(inst, traced):
    H, p = inst
    det = rancore(H, p)
    ran = rancore(H, p, mode="randomized", rng=RngSeed(0).generator(), trace=traced and H.n > 0)
    for name in ("core_ids", "step_vertex", "sign_step", "sign_edge", "residual"):
        got, want = getattr(ran, name), getattr(det, name)
        assert got.dtype == want.dtype == np.int64, name
    core_o = orient(ran.core, p)
    if isinstance(core_o, Orientation) and all(len(set(e)) == len(e) for e in H.edges):
        # vertex-distinct edges cannot conflict, so the extension must verify
        ok, why = verify_orientation(H, extend_orientation(ran, core_o, p), p)
        assert ok, why


def test_extension_rejects_invalid_core_orientation():
    pr = rancore(QUAD, P322)
    with pytest.raises(ValueError):
        # empty orientation does not cover the four surviving edges
        extend_orientation(pr, Orientation([]), P322)


def test_extension_rejects_a_core_orientation_with_too_few_signs():
    pr = rancore(QUAD, P322)
    one_each = Orientation([e[:1] for e in pr.core.edges])  # each edge owes 2
    with pytest.raises(ValueError, match="core orientation invalid: edge 0: 1 signs, needs 2"):
        extend_orientation(pr, one_each, P322)


# ---------------------------------------------------------------------------
# the randomized process census


def _traced(H, p, seed=0):
    return rancore(
        H, p, mode="randomized", rng=RngSeed(seed).generator(), trace=True
    ).trace


def test_trace_gating():
    with pytest.raises(ValueError):
        rancore(QUAD, P322, trace=True)
    with pytest.raises(ValueError):
        rancore(QUAD, P322, mode="randomized")
    with pytest.raises(ValueError):
        rancore(QUAD, P322, mode="fifo")


def test_a_trace_needs_a_vertex():
    # the census is scaled by the vertex count; the untraced peel takes n = 0
    rng = RngSeed(0).generator()
    with pytest.raises(ValueError, match="a process trace needs at least one vertex"):
        rancore(Hypergraph(0), P322, mode="randomized", rng=rng, trace=True)
    pr = rancore(Hypergraph(0), P322, mode="randomized", rng=rng)
    assert (pr.core.n, pr.trace) == (0, None)


def test_a_draw_below_one_indexes_inside_every_pool():
    # numpy's Generator.random draws from [0, 1), so u is at most the double
    # below 1.0, and int(u * size) < size for every pool the loop can hold
    u = np.nextafter(1.0, 0.0)
    sizes = np.arange(1, 10**6 + 1)
    assert ((u * sizes).astype(np.int64) < sizes).all()
    for e in range(53):
        for size in (2**e - 1, 2**e, 2**e + 1):
            assert size == 0 or int(u * size) < size


def test_trace_initial_census():
    H = Hypergraph(4, [(0, 1, 2), (0, 1, 2), (0, 1, 3), (1, 2, 3)])
    tr = _traced(H, P322)
    c = tr.counts()
    assert tr.census.shape == (len(tr.steps), 2 * P322.h + 5)
    assert tr.steps[0] == 0
    assert c["z_B"][0] == H.total_degree
    # degrees: a=3, b=4, c=3, d=2 -> d alone is light, holding 2 balls
    assert c["z_HV"][0] == 3
    assert c["z_L"][0] == 2
    assert sorted(name for name in c if name.startswith("z_B_")) == ["z_B_2", "z_B_3"]
    assert c["z_B_3"][0] == 12 and c["z_B_2"][0] == 0


def test_trace_one_ball_per_step():
    H = Hypergraph(
        30, [tuple(sorted(np.random.default_rng(3).integers(0, 30, 3))) for _ in range(40)]
    )
    tr = _traced(H, P322, seed=4)
    assert tr.stride == 1
    b = tr.counts()["z_B"]
    t = tr.steps
    assert (np.diff(t) == 1).all()
    assert (np.diff(b) == -1).all()  # every step recolours exactly one ball


def test_trace_census_identities():
    H = Hypergraph(
        25, [tuple(sorted(np.random.default_rng(9).integers(0, 25, 3))) for _ in range(35)]
    )
    tr = _traced(H, P322, seed=6)
    c = tr.counts()
    B, L, HV = c["z_B"], c["z_L"], c["z_HV"]
    by_size = np.sum([c[f"z_B_{s}"] for s in P322.sizes], axis=0)
    light_by_size = np.sum([c[f"z_L_{s}"] for s in P322.sizes], axis=0)
    assert (B == by_size).all()
    assert (L == light_by_size).all()
    assert ((0 <= L) & (L <= B)).all()
    assert (np.diff(HV) <= 0).all()  # heavy vertices only ever turn light
    for s in P322.sizes:
        heavy = c[f"z_B_{s}"] - c[f"z_L_{s}"]
        assert (heavy >= 0).all()


SEEDED = [((3, 2, 4), 5.6, 1), ((4, 2, 3), 6.5, 2)]


def _seeded_instance(hwk, mu, seed, n=2000):
    p = OrientationParams(*hwk)
    H = sample_uniform_multi(n, round(mu * n / p.h), p.h, RngSeed(seed).generator())
    return H, p


def _assert_final_census_is_the_core(H, p, seed):
    # the pool is empty at the last record, so what the census still counts
    # is exactly the core: recount it from the core's arrays
    pr = rancore(H, p, mode="randomized", rng=RngSeed(seed).generator(), trace=True)
    c, core = pr.trace.counts(), pr.core
    deg = np.bincount(core.verts, minlength=core.n)
    edges_of_size = np.bincount(core.sizes, minlength=p.h + 1)
    assert c["z_L"][-1] == 0
    assert c["z_B"][-1] == core.total_degree
    assert c["z_HV"][-1] == core.n
    assert c["z_A"][-1] == np.count_nonzero(deg == p.k + 1)
    for s in p.sizes:
        assert c[f"z_B_{s}"][-1] == s * edges_of_size[s]


@pytest.mark.parametrize("hwk,mu,seed", SEEDED)
def test_final_census_matches_core(hwk, mu, seed):
    H, p = _seeded_instance(hwk, mu, seed)
    _assert_final_census_is_the_core(H, p, seed)


@given(peel_instances())
@settings(max_examples=100)
def test_final_census_matches_core_on_small_instances(inst):
    H, p = inst
    _assert_final_census_is_the_core(H, p, 0)


@pytest.mark.parametrize("hwk,mu,seed", SEEDED)
def test_trace_leaves_the_rng_path_alone(hwk, mu, seed):
    H, p = _seeded_instance(hwk, mu, seed)
    plain, traced = (
        rancore(H, p, mode="randomized", rng=RngSeed(seed, 1).generator(), trace=t)
        for t in (False, True)
    )
    assert plain.trace is None
    assert plain.elimination == traced.elimination
    assert peel_views(plain) == peel_views(traced)
    assert plain.core == traced.core


# ---------------------------------------------------------------------------
# derived statistics


@given(peel_instances())
@settings(max_examples=100)
def test_core_statistics_recount(inst):
    H, p = inst
    pr = rancore(H, p)
    stats = core_statistics(pr, p)
    if pr.core.n == 0:
        assert (stats.n_core, stats.m_core, stats.kappa, stats.mu_hat) == (0, {}, None, None)
        return
    assert stats.n_core == pr.core.n
    assert stats.m_core == dict(pr.core.edge_size_counts())
    assert stats.kappa == w_density(pr.core, p)
    assert stats.mu_hat == pr.core.total_degree / pr.core.n


# ---------------------------------------------------------------------------
# the randomized process is pinned: ball numbering, pool order and RNG use


def _randomized_peel_digest(p, mu, seed, n=2000):
    import hashlib
    import json

    from wkorient.models import sample_uniform_multi

    H = sample_uniform_multi(n, round(mu * n / p.h), p.h, RngSeed(seed).generator())
    pr = rancore(H, p, mode="randomized", rng=RngSeed(seed, 1).generator(), trace=True)
    edge_fate, peel_signs = peel_views(pr)
    doc = [
        [[v, list(edges)] for v, edges in pr.elimination],
        [list(s) for s in peel_signs],
        list(pr.core_vertices),
        [list(e) for e in pr.core.edges],
        [None if f is None else list(f) for f in edge_fate],
    ]
    digest = hashlib.sha256(json.dumps(doc).encode())
    scaled = pr.trace.scaled()
    for key in sorted(scaled):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(scaled[key], dtype=np.float64).tobytes())
    return digest.hexdigest(), pr.core.n, pr.core.num_edges, len(pr.elimination)


@pytest.mark.parametrize(
    "hwk,mu,seed,want",
    [
        ((3, 2, 4), 5.6, 1,
         ("08e50b73b2868ef2c0c697538c7429eec0d38b0c2b366e3eec4a8d4f02abee43", 1272, 3345, 2248)),
        ((4, 2, 3), 6.5, 2,
         ("58d82909fb35cd49aebca9e26928f6e71f2fb5b1114c7b9e3760f5fef6a8b562", 1772, 3211, 580)),
        # pins the freeing order: killing every freed ball before any degree
        # drops differs here from freeing and migrating ball by ball
        ((4, 2, 3), 6.5, 27,
         ("b15bd5d7b2619622f7ceeff7a8e83d38272f1600ce3395f167df2e0cb63d263d", 1760, 3211, 611)),
    ],
)
def test_randomized_peel_is_pinned(hwk, mu, seed, want):
    # digests of the elimination log, peel signs, core, edge fates and every
    # scaled trace column, recorded with the original list-based peeler
    assert _randomized_peel_digest(OrientationParams(*hwk), mu, seed) == want
