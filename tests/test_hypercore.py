from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochroma import (
    Hypergraph,
    NotTwoLOColorable,
    RankedColoring,
    check_even_is,
    check_lo,
    check_odd_is,
    check_partial_lo,
    degree_stats,
    gen_planted,
    induced,
    is_linear,
    lift_coloring,
    lo_color,
    make_linear,
)
from lochroma.hypercore import first_violation

from conftest import all_lo_colorings


def small_hypergraphs():
    """Hypothesis strategy: valid small canonical hypergraphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=3, max_value=9))
        m = draw(st.integers(min_value=0, max_value=8))
        edges = []
        for _ in range(m):
            e = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=3,
                    max_size=3,
                    unique=True,
                )
            )
            edges.append(tuple(e))
        return Hypergraph(n, edges)

    return build()


def canonical_edges_reference(n, edges):
    """The constructor's per-edge loop: check each edge, then sort and dedupe."""
    triples = []
    for i, e in enumerate(edges):
        t = tuple(sorted(int(v) for v in e))
        if len(t) != 3:
            raise ValueError(f"edge {i} {t} is not a triple")
        if not 0 <= t[0] < t[1] < t[2] < n:
            bad = "repeated vertex" if len(set(t)) < 3 else f"vertex out of range 0..{n - 1}"
            raise ValueError(f"{bad} in edge {i} {t}")
        triples.append(t)
    return tuple(sorted(set(triples)))


def raw_edge_lists(min_len=3, max_len=3):
    """Hypothesis strategy: (n, rows) with ids slightly out of range and repeats."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=7))
        row = st.lists(st.integers(-2, n + 1), min_size=min_len, max_size=max_len)
        return n, draw(st.lists(row, max_size=8))

    return build()


class TestValidate:
    """The constructor is the one validity check: every Hypergraph is valid."""

    @given(raw_edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_triples(self, case):
        self._assert_matches_reference(*case)

    @given(raw_edge_lists(min_len=2, max_len=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_ragged_rows(self, case):
        self._assert_matches_reference(*case)

    @given(small_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_valid_edges(self, H):
        rows = [tuple(reversed(e)) for e in H.edges] * 2
        self._assert_matches_reference(H.n, rows)

    @staticmethod
    def _assert_matches_reference(n, rows):
        try:
            expected = canonical_edges_reference(n, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Hypergraph(n, rows)
            assert str(got.value) == str(exc)
        else:
            H = Hypergraph(n, rows)
            assert H.edges == expected
            assert np.array_equal(H.edge_array(), np.array(expected, dtype=np.int64).reshape(-1, 3))

    def test_large_n_sorts_without_packed_key_overflow(self):
        # At n = 3*10**6, (a*n + b)*n + c exceeds 2**63 once a > 1.02*10**6,
        # and wraps to a negative key for a = 1.5*10**6.
        n = 3_000_000
        half = (1_500_000, 1_500_001, 1_500_002)
        rows = [(n - 1, n - 2, n - 3), half, (0, 1, 2), (n - 3, n - 2, n - 1),
                (1, n - 2, n - 1), (n - 4, n - 2, n - 1), (n - 2, 0, n - 1)]
        H = Hypergraph(n, rows)
        assert H.edges == canonical_edges_reference(n, rows)
        assert H.edges == ((0, 1, 2), (0, n - 2, n - 1), (1, n - 2, n - 1), half,
                           (n - 4, n - 2, n - 1), (n - 3, n - 2, n - 1))
        assert not is_linear(H)
        with pytest.raises(ValueError, match=f"out of range 0..{n - 1} in edge 1"):
            Hypergraph(n, [(0, 1, 2), (n - 2, n - 1, n)])

    def test_minimal_valid(self, single_edge):
        assert single_edge.n == 3 and single_edge.edges == ((0, 1, 2),)

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match=r"repeated vertex in edge 0 \(0, 1, 1\)"):
            Hypergraph(3, [(0, 1, 1)])

    def test_out_of_range(self):
        for n, edges in [(3, [(0, 1, 5)]), (2, [(0, 1, 2)]), (3, [(0, 1, 2), (0, 1, -1)])]:
            with pytest.raises(ValueError, match=f"out of range.*edge {len(edges) - 1}"):
                Hypergraph(n, edges)

    def test_duplicate_edge_raw(self):
        # A repeated edge, in any vertex order, is kept once.
        H = Hypergraph(4, [(0, 1, 2), (2, 1, 0)])
        assert H.edges == ((0, 1, 2),)

    def test_canonical_constructor_dedups_and_sorts(self):
        H = Hypergraph(4, [(2, 1, 0), (0, 1, 2), (3, 2, 1)])
        assert H.edges == ((0, 1, 2), (1, 2, 3))

    def test_non_triple_rejected(self):
        with pytest.raises(ValueError, match="not a triple"):
            Hypergraph(4, [(0, 1)])
        with pytest.raises(ValueError, match="not a triple"):
            Hypergraph(4, [(0, 1, 2, 3)])

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="negative"):
            Hypergraph(-1, [])

    def test_negative_id_never_reaches_lo_color(self):
        # List and array indexing would alias vertex -1 to vertex 2, and
        # check_lo would accept a coloring of the aliased graph.
        with pytest.raises(ValueError, match="out of range"):
            lo_color(Hypergraph(3, [(0, 1, -1)]))


def is_linear_reference(H):
    pairs = set()
    for a, b, c in H.edges:
        for p in ((a, b), (a, c), (b, c)):
            if p in pairs:
                return False
            pairs.add(p)
    return True


class TestLinear:
    @given(small_hypergraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, H):
        assert is_linear(H) is is_linear_reference(H)

    def test_share_one_vertex(self):
        assert is_linear(Hypergraph(5, [(0, 1, 2), (0, 3, 4)]))

    def test_share_pair(self):
        assert not is_linear(Hypergraph(4, [(0, 1, 2), (0, 1, 3)]))

    def test_vacuous(self):
        assert is_linear(Hypergraph(3, []))


def _make_linear_reference(H):
    """Union-find linearization: merge the thirds of shared pairs to a fixpoint."""
    if is_linear(H):
        return H, tuple(range(H.n))
    edges = H.edge_array().tolist()
    parent = list(range(H.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    while True:
        mapped = set()
        for e in edges:
            t = tuple(sorted(find(v) for v in e))
            if len(set(t)) != 3:
                e = tuple(e)
                raise NotTwoLOColorable(
                    f"edge {e} collapses under merging: not 2-LO colorable", witness=e
                )
            mapped.add(t)
        changed = False
        third_of = {}
        for a, b, c in sorted(mapped):
            for pair, other in (((a, b), c), ((a, c), b), ((b, c), a)):
                prev = third_of.get(pair)
                if prev is None:
                    third_of[pair] = other
                elif prev != other:
                    changed = union(prev, other) or changed
        if not changed:
            reps = tuple(find(v) for v in range(H.n))
            return Hypergraph(H.n, sorted(mapped)), reps


@st.composite
def overlapping_hypergraphs(draw):
    """Up to 18 edges on at most 14 vertices, so edges often share pairs."""
    n = draw(st.integers(min_value=3, max_value=14))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    return Hypergraph(n, draw(st.lists(triple, max_size=18)))


class TestMakeLinear:
    @given(overlapping_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_union_find_reference(self, H):
        try:
            expected = _make_linear_reference(H)
        except NotTwoLOColorable as exc:
            with pytest.raises(NotTwoLOColorable) as got:
                make_linear(H)
            assert got.value.witness == exc.witness
            return
        H2, rep = make_linear(H)
        assert H2 == expected[0]
        assert rep == expected[1]

    def test_pair_share_merges_thirds(self):
        H = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
        # Exhaustive oracle: in every 2-color LO coloring of H, vertices 2 and
        # 3 receive the same color, so merging them is sound.
        for c in all_lo_colorings(H, 2):
            assert c[2] == c[3]
        H2, M = make_linear(H)
        assert is_linear(H2)
        assert M[2] == M[3]
        assert H2.edges == ((0, 1, 2),)

    def test_already_linear_fixpoint(self, star_three):
        H2, M = make_linear(star_three)
        assert H2 == star_three
        assert M == tuple(range(star_three.n))

    def test_linear_input_returned_as_is(self):
        H = gen_planted(60, 40, 3).H
        assert is_linear(H)
        H2, M = make_linear(H)
        assert H2 is H
        assert M == tuple(range(H.n))

    def test_k4_collapse_witness(self, k4_triples):
        # Brute force over all 2^4 colorings: none is a valid LO 2-coloring.
        assert not list(all_lo_colorings(k4_triples, 2))
        with pytest.raises(NotTwoLOColorable):
            make_linear(k4_triples)

    def test_merge_map_idempotent(self):
        H = Hypergraph(6, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 2, 5)])
        try:
            _, M = make_linear(H)
        except NotTwoLOColorable:
            return
        for v in range(6):
            assert M[M[v]] == M[v]

    def test_roundtrip_against_brute_colorings(self):
        # Merging cascades: 2~3 via the {0,1} pair, then 0~4 via {1,2}.
        H = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
        H2, M = make_linear(H)
        assert is_linear(H2)
        found = False
        for c2 in all_lo_colorings(H2, 2):
            lifted = lift_coloring(M, c2)
            assert check_lo(H, lifted)
            found = True
        assert found

    def test_collapse_raises_even_when_satisfiable(self):
        # Contract behavior: a collapsing edge aborts the reduction, although
        # a 2-color LO coloring of the original instance can still exist
        # (here (2,1,1,1,2) works).  The planted families never trigger this.
        H = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        assert any(True for _ in all_lo_colorings(H, 2))
        with pytest.raises(NotTwoLOColorable) as exc:
            make_linear(H)
        # Vertices 2 and 3 merge, so (2, 3, 4) falls into two classes: that
        # stops the reduction but proves nothing about colorability.
        assert exc.value.witness == (2, 3, 4)
        assert "not 2-LO colorable" not in str(exc.value)
        assert "linearization cannot continue" in str(exc.value)


class TestLift:
    def test_identity(self):
        M = tuple(range(3))
        c = RankedColoring({0: 1, 1: 2, 2: 1})
        assert lift_coloring(M, c) == c

    def test_copy_through_representative(self):
        M = (0, 1, 2, 2)
        c = RankedColoring({0: 1, 1: 1, 2: 2})
        lifted = lift_coloring(M, c)
        assert lifted[3] == 2

    def test_unassigned_representative(self):
        M = (0, 0)
        with pytest.raises(ValueError, match="unassigned"):
            lift_coloring(M, RankedColoring({1: 1}))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_composed_merges_equal_direct_evaluation(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))

        def compress(reps):
            # Follow chains to their roots so the map is idempotent.
            for _ in range(n):
                reps = [reps[r] for r in reps]
            return reps

        reps1 = compress([data.draw(st.integers(min_value=0, max_value=v)) for v in range(n)])
        reps2 = compress([data.draw(st.integers(min_value=0, max_value=v)) for v in range(n)])
        M1, M2 = tuple(reps1), tuple(reps2)
        composed = tuple(reps2[reps1[v]] for v in range(n))
        base = RankedColoring({v: data.draw(st.integers(0, 5)) for v in range(n)})
        via_two = lift_coloring(M1, lift_coloring(M2, base))
        via_one = lift_coloring(composed, base)
        assert via_two == via_one


class TestInduced:
    def test_drops_partial_edges(self, single_edge):
        sub, ids = induced(single_edge, {0, 1})
        assert sub.n == 2 and sub.m == 0
        assert ids == (0, 1)

    def test_full_set_identity(self, star_three):
        sub, ids = induced(star_three, range(star_three.n))
        assert sub == star_three
        assert ids == tuple(range(star_three.n))

    def test_keeps_contained_edge(self):
        H = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
        sub, ids = induced(H, {2, 3, 4})
        assert sub.m == 1
        assert sub.edges == ((0, 1, 2),)
        assert ids == (2, 3, 4)

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_validity_and_degrees(self, H, data):
        S = data.draw(st.sets(st.integers(0, H.n - 1)))
        sub, ids = induced(H, S)
        assert sub == Hypergraph(sub.n, sub.edges)
        old_degs = H.degrees()
        new_degs = sub.degrees()
        for new, old in enumerate(ids):
            assert new_degs[new] <= old_degs[old]


def induced_reference(H, vertices):
    """The set-based induced subhypergraph, through the constructor."""
    ids = tuple(sorted(int(v) for v in set(vertices)))
    index = {old: new for new, old in enumerate(ids)}
    keep = set(ids)
    sub_edges = [
        (index[a], index[b], index[c])
        for a, b, c in H.edges
        if a in keep and b in keep and c in keep
    ]
    return Hypergraph(len(ids), sub_edges), ids


def check_lo_reference(H, coloring):
    """The per-edge loop check_lo replaced: first unassigned vertex, then each edge."""
    for v in range(H.n):
        if v not in coloring:
            raise ValueError(f"vertex {v} unassigned")
    for a, b, c in H.edges:
        ranks = (coloring[a], coloring[b], coloring[c])
        top = max(ranks)
        if ranks.count(top) != 1:
            return False
    return True


def degrees_reference(H):
    counts = np.zeros(H.n, dtype=np.int64)
    for e in H.edges:
        for v in e:
            counts[v] += 1
    return counts


def assert_same_induced(H, vertices):
    sub, ids = induced(H, vertices)
    ref, ref_ids = induced_reference(H, vertices)
    assert sub.n == ref.n
    assert sub.edges == ref.edges
    assert all(type(v) is int for e in sub.edges for v in e)
    assert ids == ref_ids
    assert all(type(v) is int for v in ids)
    E = sub.edge_array()
    assert E.dtype == np.int64 and E.shape == (ref.m, 3)
    assert np.array_equal(E, ref.edge_array())
    assert sub == ref and hash(sub) == hash(ref)


class TestInducedArrays:
    @given(small_hypergraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_random_subsets(self, H, data):
        S = data.draw(st.lists(st.integers(0, H.n - 1)))
        assert_same_induced(H, S)

    @given(small_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_empty_and_full(self, H):
        assert_same_induced(H, [])
        assert_same_induced(H, range(H.n))

    def test_keeps_degree_zero_vertices(self):
        H = Hypergraph(8, [(0, 2, 4), (2, 5, 7)])
        assert_same_induced(H, {1, 2, 3, 4, 0, 6})
        sub, ids = induced(H, {1, 2, 3, 4, 0, 6})
        assert sub.n == 6 and list(sub.degrees()) == [1, 0, 1, 0, 1, 0]

    def test_vertices_outside_the_graph_stay_isolated(self, single_edge):
        assert_same_induced(single_edge, {0, 1, 2, 5})


class TestEdgeArray:
    def test_cached_object(self, star_three):
        H = Hypergraph(star_three.n, star_three.edges)
        assert H.edge_array() is H.edge_array()

    def test_read_only(self, single_edge):
        E = single_edge.edge_array()
        with pytest.raises(ValueError):
            E[0, 0] = 1
        sub, _ = induced(single_edge, range(3))
        with pytest.raises(ValueError):
            sub.edge_array()[0, 0] = 1

    def test_dtype_and_shape(self, star_three):
        E = star_three.edge_array()
        assert E.dtype == np.int64 and E.shape == (3, 3)
        assert E.tolist() == [list(e) for e in star_three.edges]

    def test_empty_shape(self):
        E = Hypergraph(4, []).edge_array()
        assert E.dtype == np.int64 and E.shape == (0, 3)
        assert Hypergraph(0, []).degrees().shape == (0,)

    def test_equality_and_hash_use_n_and_edges(self):
        a = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
        b = Hypergraph(5, [(4, 3, 2), (2, 1, 0), (0, 1, 2)])
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != Hypergraph(6, a.edges)
        assert a != Hypergraph(5, a.edges[:1])

    @given(small_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_degrees_match_edge_loop(self, H):
        degs = H.degrees()
        assert degs.dtype == np.int64
        assert np.array_equal(degs, degrees_reference(H))


def check_odd_is_reference(H, vertices):
    S = set(vertices)
    return all(len(S.intersection(e)) <= 1 for e in H.edges)


def check_even_is_reference(H, vertices):
    S = set(vertices)
    return all(len(S.intersection(e)) in (0, 2) for e in H.edges)


# Offsets for drawn ranks: above 2**53 floats round neighbouring ranks
# together, and from 2**63 on ranks no longer fit in int64.
RANK_BASES = st.sampled_from([0, 2**53, 2**63 - 2, 2**70])


def first_violation_reference(H, coloring):
    for i, e in enumerate(H.edges):
        ranks = [coloring.get(v) for v in e if v in coloring]
        if ranks and ranks.count(max(ranks)) != 1:
            return i
    return None


class TestCheckers:
    def test_lo_unique_max(self, single_edge):
        assert check_lo(single_edge, RankedColoring({0: 2, 1: 1, 2: 1}))

    def test_lo_duplicated_max(self, single_edge):
        assert not check_lo(single_edge, RankedColoring({0: 2, 1: 2, 2: 1}))

    def test_lo_all_distinct(self, single_edge):
        assert check_lo(single_edge, RankedColoring({0: 1, 1: 2, 2: 3}))

    def test_lo_requires_full_assignment(self, single_edge):
        with pytest.raises(ValueError, match="unassigned"):
            check_lo(single_edge, RankedColoring({0: 1}))

    def test_partial_singleton(self, single_edge):
        assert check_partial_lo(single_edge, RankedColoring({0: 1}))

    def test_partial_equal_pair(self, single_edge):
        assert not check_partial_lo(single_edge, RankedColoring({0: 1, 1: 1}))

    def test_partial_vacuous(self, single_edge):
        assert check_partial_lo(single_edge, RankedColoring())

    def test_odd_even_single_vertex(self, single_edge):
        assert check_odd_is(single_edge, {0})
        assert not check_even_is(single_edge, {0})

    def test_odd_even_pair(self, single_edge):
        assert not check_odd_is(single_edge, {0, 1})
        assert check_even_is(single_edge, {0, 1})

    def test_odd_even_empty(self, single_edge):
        assert check_odd_is(single_edge, set())
        assert check_even_is(single_edge, set())

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_odd_and_even_iff_disjoint(self, H, data):
        S = data.draw(st.sets(st.integers(0, H.n - 1)))
        both = check_odd_is(H, S) and check_even_is(H, S)
        disjoint = all(not S.intersection(e) for e in H.edges)
        assert both == disjoint

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_odd_even_match_reference(self, H, data):
        # Ids outside 0..n-1 and repeats are allowed and meet no edge.
        S = data.draw(st.lists(st.integers(-3, H.n + 3)))
        assert check_odd_is(H, S) is check_odd_is_reference(H, S)
        assert check_even_is(H, S) is check_even_is_reference(H, S)

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_violation_matches_reference(self, H, data):
        base = data.draw(RANK_BASES)
        colored = {}
        for v in range(H.n + 2):
            if data.draw(st.booleans()):
                colored[v] = base + data.draw(st.integers(-2, 2))
        coloring = RankedColoring(colored)
        expected = first_violation_reference(H, coloring)
        assert first_violation(H, coloring) == expected
        assert check_partial_lo(H, coloring) is (expected is None)

    def test_first_violation_large_ranks(self, single_edge):
        top = 2**53
        assert first_violation(single_edge, RankedColoring({0: top, 1: top + 1})) is None
        assert first_violation(single_edge, RankedColoring({0: top + 1, 1: top + 1, 2: top})) == 0

    @given(small_hypergraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lo_matches_edge_loop(self, H, data):
        base = data.draw(RANK_BASES)
        ranks = data.draw(st.lists(st.integers(-2, 3), min_size=H.n, max_size=H.n))
        colored = {v: base + r for v, r in enumerate(ranks)}
        for v in data.draw(st.sets(st.integers(0, H.n - 1), max_size=2)):
            del colored[v]
        for v in data.draw(st.sets(st.integers(H.n, H.n + 5), max_size=3)):
            colored[v] = base + data.draw(st.integers(-2, 3))
        coloring = RankedColoring(colored)
        try:
            expected = check_lo_reference(H, coloring)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                check_lo(H, coloring)
        else:
            assert check_lo(H, coloring) is expected


class TestDegreeStats:
    def test_single_edge(self, single_edge):
        stats = degree_stats(single_edge)
        assert stats.delta_bar == 1.0
        assert list(stats.degrees) == [1, 1, 1]

    def test_arithmetic(self):
        H = Hypergraph(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
        assert degree_stats(H).delta_bar == 2.0

    def test_empty(self):
        stats = degree_stats(Hypergraph(0, []))
        assert stats.delta_bar == 0.0

    @given(small_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_count_bound(self, H):
        stats = degree_stats(H)
        assert H.m <= stats.delta_bar * H.n / 3 + 1e-12


class TestRankedColoring:
    def test_normalize_order_preserving(self):
        c = RankedColoring({0: -5, 1: 7, 2: 0, 3: 7})
        norm = c.normalized()
        assert norm == RankedColoring({0: 1, 1: 3, 2: 2, 3: 3})

    def test_assign_refuses_overwrite(self):
        c = RankedColoring({0: 1})
        with pytest.raises(ValueError):
            c.assign([0], 2)

    def test_shift_and_merge(self):
        a = RankedColoring({0: 1})
        b = RankedColoring({1: 5})
        merged = a.shifted(10).merged(b)
        assert merged[0] == 11 and merged[1] == 5
        assert merged.num_colors() == 2
