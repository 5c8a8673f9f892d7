from __future__ import annotations

import math

import pytest

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

    def test_star_takes_all_leaves(self, star_three):
        S = even_independent_set(star_three)
        assert S == frozenset({1, 2, 3, 4, 5, 6})
        assert check_even_is(star_three, S)

    def test_repair_drops_offending_pair(self):
        # The hub's pairs {a, b, c, d} meet the side edge {a, e, f} once, so
        # they are not even; the maximum even set has five vertices.
        v, a, b, c, d, e, f = range(7)
        H = Hypergraph(7, [(v, a, b), (v, c, d), (a, e, f)])
        S = even_independent_set(H)
        assert check_even_is(H, S)
        assert len(S) == len(brute_max_even_is(H))

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
