from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochroma import (
    Hypergraph,
    brute_max_even_is,
    check_even_is,
    even_independent_set,
    even_is_quality,
    gen_planted,
)


class TestEvenIndependentSet:
    def test_single_edge_pair(self, single_edge):
        # Any two of the three vertices form a maximum even set.
        S = even_independent_set(single_edge)
        assert check_even_is(single_edge, S)
        assert len(S) == len(brute_max_even_is(single_edge)) == 2

    def test_star_gives_even_set(self, star_three):
        S = even_independent_set(star_three)
        assert check_even_is(star_three, S)
        assert 0 < len(S) <= len(brute_max_even_is(star_three))

    def test_side_edge_gives_even_set(self):
        # The hub's pairs {a, b, c, d} meet the side edge {a, e, f} once, so
        # they are not even; the maximum even set has five vertices.
        v, a, b, c, d, e, f = range(7)
        H = Hypergraph(7, [(v, a, b), (v, c, d), (a, e, f)])
        S = even_independent_set(H)
        assert check_even_is(H, S)
        assert 0 < len(S) <= len(brute_max_even_is(H))

    def test_output_always_even(self):
        for seed in range(10):
            inst = gen_planted(20, 24, seed)
            S = even_independent_set(inst.H)
            assert check_even_is(inst.H, S)
            assert S  # planted instances have positive degrees

    def test_rejects_nonlinear(self):
        H = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(ValueError, match="linear"):
            even_independent_set(H)

    def test_no_edges_empty(self):
        assert even_independent_set(Hypergraph(5, [])) == frozenset()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_linear_against_oracle(self, data):
        # Every even set is a parity-kernel vector, so the heaviest basis
        # vector is empty only when no nonempty even set exists.
        n = data.draw(st.integers(min_value=3, max_value=12))
        triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        edges = []
        for e in data.draw(st.lists(triple, min_size=1, max_size=12)):
            if all(len(set(e) & set(f)) <= 1 for f in edges):
                edges.append(e)
        H = Hypergraph(n, edges)
        S = even_independent_set(H)
        best = brute_max_even_is(H)
        assert check_even_is(H, S)
        assert len(S) <= len(best)
        assert bool(S) == bool(best)

    def test_small_instances_against_oracle(self):
        for seed in range(8):
            inst = gen_planted(12, 9, seed)
            S = even_independent_set(inst.H)
            best = brute_max_even_is(inst.H)
            assert len(S) <= len(best)
            # Quality tracking (not asserted as a hard bound, but recorded
            # here as at least half on this family).
            assert len(S) >= max(1, len(best) // 2)


class TestQuality:
    def test_single_edge_arithmetic(self, single_edge):
        S = frozenset({1, 2})
        assert even_is_quality(single_edge, S, 1.0) == pytest.approx(2 / math.sqrt(3))

    def test_empty_set(self, single_edge):
        assert even_is_quality(single_edge, frozenset(), 1.0) == 0.0

    def test_star_ratio(self, star_three):
        S = even_independent_set(star_three)
        delta = 3.0 * star_three.m / star_three.n
        expected = len(S) / math.sqrt(star_three.n * delta)
        assert even_is_quality(star_three, S, delta) == pytest.approx(expected)

    def test_rejects_invalid_set(self, single_edge):
        with pytest.raises(ValueError):
            even_is_quality(single_edge, frozenset({0}), 1.0)
