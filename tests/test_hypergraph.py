"""Domain types, subset statistics, and structural predicates."""

import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_deterministic_conditions,
    check_property_A,
    expansion_condition,
    hakimi_check,
    kappa_exact,
    recommended_gamma,
    subset_stats,
    subset_stats_recount,
    w_induced,
)
from wkorient.hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    read_hypergraph,
    verify_orientation,
    w_density,
    w_induced_subgraph,
    write_hypergraph,
)
from wkorient.peeling import check_property_T

# a, b, c, ... = 0, 1, 2, ... in the examples below.
P32 = OrientationParams(3, 2, 2)
TRIPLE_PAIR = Hypergraph(4, [(0, 1, 2), (2, 3)])  # kappa = (2+1)/4
DOUBLE_ABC = Hypergraph(3, [(0, 1, 2), (0, 1, 2)])  # kappa = 4/3
THREE_PATH = Hypergraph(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])


@st.composite
def small_instances(draw, max_n=8, max_m=6, simple_edges=False):
    h = draw(st.integers(2, 4))
    w = draw(st.integers(1, h - 1))
    n = draw(st.integers(h - w + 1 if simple_edges else 1, max_n))
    m = draw(st.integers(0, max_m))
    vertex = st.integers(0, n - 1)
    if simple_edges:
        edge = st.sets(vertex, min_size=h - w + 1, max_size=min(h, n)).map(tuple)
    else:
        edge = st.lists(vertex, min_size=h - w + 1, max_size=h).map(tuple)
    edges = draw(st.lists(edge, min_size=m, max_size=m))
    return Hypergraph(n, edges), h, w


# ---------------------------------------------------------------------------
# parameters and the basic container


def test_params_validation():
    with pytest.raises(ValueError):
        OrientationParams(2, 2, 1)  # w must be < h
    with pytest.raises(ValueError):
        OrientationParams(3, 0, 1)
    with pytest.raises(ValueError):
        OrientationParams(3, 2, 0)


def test_params_must_be_integers():
    with pytest.raises(ValueError, match="must be integers"):
        OrientationParams(3.0, 2, 4)


def test_sign_demand_and_size_window():
    p = OrientationParams(5, 3, 2)
    assert p.min_edge_size == 3
    H = Hypergraph(5, [(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)])
    H.validate_sizes(p)
    assert H.sign_demands(p).tolist() == [1, 2, 3]
    for bad in (2, 6):
        with pytest.raises(ValueError, match=f"has size {bad}, outside \\[3, 5\\]"):
            Hypergraph(6, [range(bad)]).validate_sizes(p)


def test_oracles_reject_edges_outside_the_size_window():
    # the second edge lies outside [3, 3] though S = {3} does not touch it
    H, p = Hypergraph(4, [(0, 1, 2), (0, 1)]), OrientationParams(3, 1, 1)
    fault = r"edge \(0, 1\) has size 2, outside \[3, 3\]"
    for oracle in (subset_stats, expansion_condition):
        with pytest.raises(ValueError, match=fault):
            oracle(H, [3], p)
    with pytest.raises(ValueError, match=fault):
        hakimi_check(H, p)


def test_edges_are_canonicalized():
    H = Hypergraph(5, [(3, 1, 4), (2, 0, 2)])
    assert H.edges == ((1, 3, 4), (0, 2, 2))
    assert H.num_edges == 2
    assert H.total_degree == 6
    assert H.degrees()[2] == 2  # multiplicity counts


def test_hypergraphs_are_immutable_values():
    H = Hypergraph(3, [(2, 0, 1), (1, 2)])
    with pytest.raises(AttributeError, match="Hypergraph is immutable"):
        H.n = 4
    same = Hypergraph(3, [(0, 1, 2), (2, 1)])
    assert H == same and hash(H) == hash(same)
    assert len({H, same, Hypergraph(4, [(0, 1, 2), (1, 2)])}) == 2


def test_container_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(-1, [])


@pytest.mark.parametrize(
    "ptr, verts, fragment",
    [
        ([0, 2], [0, 1, 2], "ptr ends at 2, but verts has 3 entries"),  # an orphan ball
        ([0, 3], [0, 1, 2, 0], "ptr ends at 3, but verts has 4 entries"),
        ([1, 4], [0, 1, 2, 0], r"ptr must start at 0, got \[1\]"),
        ([], [], r"ptr must start at 0, got \[\]"),
        ([0, 3, 2], [0, 1, 2], "ptr decreases at row 1: 3 to 2"),
        ([[0, 3]], [0, 1, 2], r"must be 1-d, got shapes \(1, 2\) and \(3,\)"),
    ],
)
def test_malformed_csr_is_named(ptr, verts, fragment):
    with pytest.raises(ValueError, match=fragment):
        Hypergraph(3, ptr=ptr, verts=verts)
    with pytest.raises(ValueError, match=fragment):
        Orientation(ptr=ptr, verts=verts)


def test_degrees_count_multiplicity():
    H = Hypergraph(3, [(0, 0, 1), (1, 2)])
    assert H.degrees() == [2, 2, 1]
    assert H.edge_size_counts() == {3: 1, 2: 1}


def test_validate_sizes():
    DOUBLE_ABC.validate_sizes(P32)
    with pytest.raises(ValueError):
        Hypergraph(4, [(0, 1)]).validate_sizes(OrientationParams(3, 1, 1))


# ---------------------------------------------------------------------------
# w-density


def test_w_density_known_values():
    assert w_density(TRIPLE_PAIR, P32) == Fraction(3, 4)
    assert w_density(DOUBLE_ABC, P32) == Fraction(4, 3)
    assert w_density(Hypergraph(5, []), P32) == 0
    with pytest.raises(ValueError):
        w_density(Hypergraph(0, []), P32)


@given(small_instances())
def test_w_density_ball_count_identity(inst):
    # n*kappa = d(H) - (h-w)*m holds exactly, whatever the size mix.
    H, h, w = inst
    p = OrientationParams(h, w, 1)
    kappa = w_density(H, p)
    assert kappa == kappa_exact(H.edges, H.n, h, w)
    assert H.n * kappa == H.total_degree - (h - w) * H.num_edges


# ---------------------------------------------------------------------------
# induced subgraphs


def test_w_induced_keeps_only_large_intersections():
    H = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    sub = w_induced_subgraph(H, {0, 1, 2}, P32)
    assert sub.n == 3
    assert sub.edges == ((0, 1, 2),)  # {c,d,e} meets S in one ball only


def test_w_induced_full_set_is_identity():
    sub = w_induced_subgraph(THREE_PATH, range(6), P32)
    assert sub.edges == THREE_PATH.edges


def test_w_induced_w1_requires_whole_edge():
    p = OrientationParams(3, 1, 1)
    H = Hypergraph(3, [(0, 1, 2)])
    assert w_induced_subgraph(H, {0, 1}, p).num_edges == 0
    assert w_induced_subgraph(H, {0, 1, 2}, p).num_edges == 1


def test_w_induced_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        w_induced_subgraph(DOUBLE_ABC, {0, 7}, P32)


@given(small_instances(), st.data())
def test_w_induced_matches_oracle(inst, data):
    H, h, w = inst
    p = OrientationParams(h, w, 1)
    S = data.draw(st.sets(st.integers(0, H.n - 1)), label="S")
    sub = w_induced_subgraph(H, S, p)
    names = sorted(S)
    relabeled = sorted(tuple(names[v] for v in e) for e in sub.edges)
    assert relabeled == sorted(w_induced(H.edges, S, h, w))
    assert sub.n == len(S)


# ---------------------------------------------------------------------------
# subset statistics and the expansion functional


def test_subset_stats_worked_example():
    st_ = subset_stats(THREE_PATH, {1, 2}, P32)
    assert st_.d_S == 4
    assert st_.rho == 2
    assert st_.nu == 2
    assert st_.eta == 2
    assert st_.m_table == {(3, 2): 2}
    assert st_.q == {3: 4}
    assert st_.dstar == 4  # no edge exceeds its sign demand inside S


def test_subset_stats_full_set_counts_overdemand():
    p = OrientationParams(3, 2, 1)
    st_ = subset_stats(DOUBLE_ABC, {0, 1, 2}, p)
    assert st_.m_table == {(3, 3): 2}
    assert st_.d_S == 6
    assert st_.dstar == 4  # each edge holds 3 balls but owes only 2 signs
    assert st_.eta == 0


def test_subset_stats_empty_set():
    st_ = subset_stats(THREE_PATH, (), P32)
    assert (st_.d_S, st_.rho, st_.nu, st_.eta, st_.dstar) == (0, 0, 0, 0, 0)
    assert st_.m_table == {}


def test_subset_stats_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        subset_stats(THREE_PATH, {0, 6}, P32)


@given(small_instances(), st.data())
def test_subset_stats_matches_recount(inst, data):
    H, h, w = inst
    k = data.draw(st.integers(1, 3), label="k")
    p = OrientationParams(h, w, k)
    S = data.draw(st.sets(st.integers(0, H.n - 1)), label="S")
    st_ = subset_stats(H, S, p)
    want = subset_stats_recount(H.edges, H.n, h, w, S)
    assert st_.d_S == want["d_S"]
    assert st_.m_table == want["m_table"]
    assert (st_.rho, st_.nu, st_.eta) == (want["rho"], want["nu"], want["eta"])
    assert st_.q == want["q"]
    assert st_.dstar == want["dstar"]
    assert st_.dstar >= 0
    assert sum(st_.q.values()) == st_.d_S


@given(small_instances(), st.data())
def test_eta_is_symmetric_under_complement(inst, data):
    # An edge straddles S exactly when it straddles the complement.
    H, h, w = inst
    p = OrientationParams(h, w, 1)
    S = data.draw(st.sets(st.integers(0, H.n - 1)), label="S")
    comp = set(range(H.n)) - S
    assert subset_stats(H, S, p).eta == subset_stats(H, comp, p).eta


@given(small_instances(max_n=7, max_m=5), st.data())
def test_expansion_equals_density_bound_on_complement(inst, data):
    # dstar(S) >= k|S| + D - kn  <=>  the w-induced subgraph on the
    # complement has density <= k; checked subset by subset.
    H, h, w = inst
    k = data.draw(st.integers(1, 3), label="k")
    p = OrientationParams(h, w, k)
    for size in range(H.n + 1):
        for S in combinations(range(H.n), size):
            comp = sorted(set(range(H.n)) - set(S))
            if comp:
                sub = w_induced_subgraph(H, comp, p)
                dense = w_density(sub, p) > k
            else:
                dense = False
            assert expansion_condition(H, S, p) == (not dense)


def test_expansion_worked_example():
    p = OrientationParams(3, 2, 1)
    # full set: dstar = 4 and k|S| + D - kn = 3 + 4 - 3 = 4, tight
    assert expansion_condition(DOUBLE_ABC, {0, 1, 2}, p)
    # empty set: 0 >= D - kn = 1 fails, flagging the too-dense whole graph
    assert not expansion_condition(DOUBLE_ABC, (), p)


# ---------------------------------------------------------------------------
# orientation checking


def test_verify_orientation_accepts_valid():
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    p = OrientationParams(2, 1, 1)
    ok, why = verify_orientation(H, Orientation([(0,), (1,), (2,)]), p)
    assert ok, why


@pytest.mark.parametrize(
    "signs,fragment",
    [
        ([(0,), (1,), (0,)], "indegree"),  # vertex a collects two signs
        ([(0, 1), (1,), (2,)], "signs"),  # edge 0 over-delivers
        ([(2,), (1,), (0,)], "not in the edge"),  # sign off-support
    ],
)
def test_verify_orientation_rejections(signs, fragment):
    H = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    p = OrientationParams(2, 1, 1)
    ok, why = verify_orientation(H, Orientation(signs), p)
    assert not ok
    assert fragment in why


def test_verify_orientation_rejects_repeated_sign():
    H = Hypergraph(2, [(0, 0, 1)])
    p = OrientationParams(3, 2, 2)
    ok, why = verify_orientation(H, Orientation([(0, 0)]), p)
    assert not ok and "repeated" in why


def test_verify_orientation_length_mismatch_raises():
    with pytest.raises(ValueError):
        verify_orientation(DOUBLE_ABC, Orientation([(0, 1)]), P32)


def test_orientation_canonicalizes_signs():
    o = Orientation([(2, 0), (1,)])
    assert o.signs == ((0, 2), (1,))
    assert np.bincount(o.verts, minlength=3).tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# structural predicates


def test_property_T_cases():
    p = OrientationParams(3, 2, 1)
    assert check_property_T(Hypergraph(4, []), p)
    assert check_property_T(Hypergraph(4, [(0, 1, 2)]), p)
    # all four triples on four vertices: the core is everything, density 2
    quad = Hypergraph(4, list(combinations(range(4), 3)))
    assert not check_property_T(quad, p)
    assert check_property_T(quad, OrientationParams(3, 2, 2))


def test_property_A_dense_pair_fails():
    p = OrientationParams(3, 2, 4)
    H = Hypergraph(10, [(0, 1, 2), (0, 1, 2)])
    # S = {a, b} has rho = 2 = k|S|/(2w); the strict inequality fails
    assert not check_property_A(H, 0.5, p)


def test_property_A_trivial_cases():
    p = OrientationParams(3, 2, 4)
    assert check_property_A(Hypergraph(10, []), 0.5, p)
    # gamma*n <= 1 leaves no nonempty subset below the cutoff
    assert check_property_A(DOUBLE_ABC, 0.3, p)


def test_property_A_respects_size_cap():
    with pytest.raises(ValueError):
        check_property_A(Hypergraph(25, []), 0.1, P32, max_n=20)


def test_deterministic_conditions_edgeless():
    # (iii) reads 0 > -k|S| on an edgeless instance, so it holds vacuously.
    got = check_deterministic_conditions(Hypergraph(3, []), {0, 1}, P32)
    assert got == (False, True, True, None)


def test_deterministic_conditions_dense_pair():
    p = OrientationParams(3, 2, 1)
    got = check_deterministic_conditions(DOUBLE_ABC, {0, 1, 2}, p)
    assert got.light_contact  # nu = 2 < k|S| = 3
    assert not got.shrink_dominates  # (h-w)*rho = 2, d(S) - k|S| = 3
    assert got.thin_boundary is None


def test_deterministic_conditions_delta():
    p = OrientationParams(3, 2, 1)
    got = check_deterministic_conditions(THREE_PATH, {1, 2}, p, delta=1.0)
    assert got.thin_boundary  # eta = 2 < 9*1*1*2
    with pytest.raises(ValueError):
        check_deterministic_conditions(THREE_PATH, {1, 2}, p, delta=0.0)


def test_recommended_gamma_values():
    assert recommended_gamma(OrientationParams(2, 1, 1)) == pytest.approx(
        math.exp(-4) / 256, rel=1e-15
    )
    assert recommended_gamma(P32) == pytest.approx(math.exp(-4) / 2916, rel=1e-15)
    gammas = [recommended_gamma(OrientationParams(h, 1, 1)) for h in range(2, 8)]
    assert gammas == sorted(gammas, reverse=True)


# ---------------------------------------------------------------------------
# text format


@given(small_instances())
def test_read_write_round_trip(inst):
    H, _, _ = inst
    buf = io.StringIO()
    write_hypergraph(H, buf)
    back = read_hypergraph(io.StringIO(buf.getvalue()))
    assert back == H


def test_read_skips_comments_and_blanks():
    text = "# instance\n\n3 2  # n m\n0 1 2\n\n0 1 2 # again\n"
    H = read_hypergraph(io.StringIO(text))
    assert H == DOUBLE_ABC


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3 x\n", "line 1"),
        ("2 1\n0 one\n", "line 2"),
        ("# nothing\n\n", "empty"),
        ("3\n", "header"),
        ("3 2\n0 1 2\n", "promises 2 edges"),
    ],
)
def test_read_reports_errors_with_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_hypergraph(io.StringIO(text))
