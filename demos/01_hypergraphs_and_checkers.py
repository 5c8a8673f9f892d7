#!/usr/bin/env python3
"""Hypergraphs, linearly ordered colorings, and the structural checkers.

A linearly ordered (LO) coloring assigns integer colors so that every edge
has a unique maximum.  This walk-through builds tiny instances (the
constructor rejects an invalid edge), exercises the validity checkers, and
shows the linearity reduction merging forced-equal vertices.
"""

from lochroma import (
    Hypergraph,
    RankedColoring,
    check_even_is,
    check_lo,
    check_odd_is,
    check_partial_lo,
    degree_stats,
    is_linear,
    lift_coloring,
    make_linear,
)
from lochroma.formats import format_coloring, format_h3

print("== a single edge ==")
H = Hypergraph(3, [(0, 1, 2)])
try:
    Hypergraph(3, [(0, 1, -1)])
except ValueError as exc:
    print("constructor rejects a bad edge:", exc)
print("LO (2,1,1):", check_lo(H, RankedColoring({0: 2, 1: 1, 2: 1})))
print("LO (2,2,1):", check_lo(H, RankedColoring({0: 2, 1: 2, 2: 1})))
print("partial, only vertex 0:", check_partial_lo(H, RankedColoring({0: 1})))

print()
print("== odd / even independent sets ==")
print("{0} odd:", check_odd_is(H, {0}), " even:", check_even_is(H, {0}))
print("{0,1} odd:", check_odd_is(H, {0, 1}), " even:", check_even_is(H, {0, 1}))

print()
print("== degrees ==")
star = Hypergraph(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
stats = degree_stats(star)
print("per-vertex:", stats.degrees.tolist(), " average bound:", stats.delta_bar)

print()
print("== linearity reduction ==")
# Two edges sharing the pair {0, 1}: in every 2-color LO coloring the third
# vertices must match, so the reduction merges them.
H2 = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
print("linear before:", is_linear(H2))
H2lin, merge = make_linear(H2)
print("linear after:", is_linear(H2lin), " edges:", H2lin.edges)
print("representatives:", merge)

coloring_small = RankedColoring({0: 2, 1: 1, 2: 1, 3: 1, 4: 1})
lifted = lift_coloring(merge, coloring_small)
print("lifted coloring valid on the original:", check_lo(H2, lifted))

print()
print("== file formats ==")
print(format_h3(H, comment="single edge"), end="")
print(format_coloring(RankedColoring({0: 2, 1: 1, 2: 1})), end="")
