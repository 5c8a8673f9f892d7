#!/usr/bin/env python3
"""Bisection rounding: coloring the unbalanced vertices combinatorially.

The projections gamma live in [-1, 1] and sum to -1 on every edge.  Halving
the interval toward the balance point -1/3 (lower half on even steps, upper
half on odd steps) and coloring whatever falls out of the kept half uses one
color per step, and no edge ever loses two vertices to the same step while it
still lives in the kept interval.
"""

import numpy as np

from lochroma import (
    GammaProfile,
    Hypergraph,
    balanced_log_coloring,
    check_lo,
    check_partial_lo,
    combinatorial_rounding,
    gamma_profile,
    gen_balanced_tripartite,
    interval,
    ortho_profile,
    perturb_gammas,
    schedule,
)

print("== the interval cascade ==")
for j in range(7):
    lo, hi = interval(j)
    print(f"I_{j} = [{lo}, {hi}]")

sched = schedule(1e-6)
print(f"schedule for eps = 1e-6: {sched.T} steps (bound 21)")

print()
print("== rounding a hand-made profile ==")
H = Hypergraph(3, [(0, 1, 2)])
profile = GammaProfile(np.array([1.0, -1.0, -1.0]), eps=1e-3)
coloring = combinatorial_rounding(H, profile)
print("ranks:", dict(coloring.items()))
print("partial LO:", check_partial_lo(H, coloring))
print("colors used:", coloring.num_colors())

print()
print("== balanced instances need a kick first ==")
tri, cert = gen_balanced_tripartite(30, 25, seed=1)
prof = gamma_profile(cert, eps=1e-6)
print("balanced everywhere:", prof.unbalanced.size == 0)
empty = combinatorial_rounding(tri.H, prof)
print("rounding colors nothing:", len(empty) == 0)

op = ortho_profile(cert)
kicked = perturb_gammas(prof, op, seed=1)
spread = np.abs(kicked.gamma + 1.0 / 3.0)
print(f"after the kick, |gamma + 1/3| in [{spread.min():.2e}, {spread.max():.2e}]")
E = tri.H.edge_array()
sums = kicked.gamma[E[:, 0]] + kicked.gamma[E[:, 1]] + kicked.gamma[E[:, 2]]
print(f"edge sums still -1 (max error {np.abs(sums + 1).max():.2e})")

full = balanced_log_coloring(tri.H, prof, op, seed=5)
print("full coloring valid:", check_lo(tri.H, full), "with", full.num_colors(), "colors")
