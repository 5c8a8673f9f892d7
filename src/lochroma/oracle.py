"""Brute-force references for small instances.

Exhaustive LO-colorability and maximum odd/even independent sets, used as
ground truth when testing the heuristics and the SDP pipeline.  Backtracking
with per-edge pruning keeps n around 20 for colorings and 24 for sets.
"""

from __future__ import annotations

from .hypercore import Hypergraph, RankedColoring

LO_GUARD = 10**8
SET_GUARD = 24


def brute_lo(H: Hypergraph, k: int) -> RankedColoring | None:
    """Some LO coloring of H with colors 1..k, or None if exhaustion proves none exists."""
    if k < 1:
        raise ValueError("need at least one color")
    if k**H.n > LO_GUARD:
        raise ValueError(f"search space {k}^{H.n} exceeds guard {LO_GUARD}")

    # Order vertices by decreasing degree so edges complete early.
    degs = H.degrees()
    order = sorted(range(H.n), key=lambda v: (-degs[v], v))
    pos = {v: i for i, v in enumerate(order)}
    colors = [0] * H.n

    def edge_alive(e, depth) -> bool:
        assigned = [colors[v] for v in e if pos[v] <= depth]
        if not assigned:
            return True
        top = max(assigned)
        dup = assigned.count(top) > 1
        if len(assigned) == 3:
            return not dup
        # Unassigned slots can still beat a duplicated max if a larger color exists.
        return not (dup and top == k)

    incident = [[] for _ in range(H.n)]
    for e in H.edge_array().tolist():
        for v in e:
            incident[v].append(e)

    def rec(depth: int) -> bool:
        if depth == H.n:
            return True
        v = order[depth]
        for color in range(1, k + 1):
            colors[v] = color
            if all(edge_alive(e, depth) for e in incident[v]):
                if rec(depth + 1):
                    return True
        colors[v] = 0
        return False

    if rec(0):
        return RankedColoring({v: colors[v] for v in range(H.n)})
    return None


def _brute_max_set(H: Hypergraph, even: bool) -> frozenset[int]:
    if H.n > SET_GUARD:
        raise ValueError(f"n={H.n} exceeds guard {SET_GUARD}")
    m = H.m
    incident = [[] for _ in range(H.n)]
    for ei, e in enumerate(H.edge_array().tolist()):
        for v in e:
            incident[v].append(ei)
    count = [0] * m
    undecided = [3] * m
    best: list[int] = []
    cur: list[int] = []

    def feasible(ei: int) -> bool:
        c, u = count[ei], undecided[ei]
        if even:
            if c > 2:
                return False
            if u == 0:
                return c in (0, 2)
            # With u slots open, any count <= 2 can still land on 0 or 2.
            return True
        return c <= 1

    def rec(v: int) -> None:
        nonlocal best
        if len(cur) + (H.n - v) <= len(best):
            return
        if v == H.n:
            if all(count[ei] in ((0, 2) if even else (0, 1)) for ei in range(m)):
                if len(cur) > len(best):
                    best = list(cur)
            return
        # Include first: among maximum sets the first one found is
        # lexicographically smallest.
        cur.append(v)
        ok = True
        for ei in incident[v]:
            count[ei] += 1
            undecided[ei] -= 1
            if not feasible(ei):
                ok = False
        if ok:
            rec(v + 1)
        for ei in incident[v]:
            count[ei] -= 1
            undecided[ei] += 1
        cur.pop()

        for ei in incident[v]:
            undecided[ei] -= 1
        if all(feasible(ei) for ei in incident[v]):
            rec(v + 1)
        for ei in incident[v]:
            undecided[ei] += 1

    rec(0)
    return frozenset(best)


def brute_max_odd_is(H: Hypergraph) -> frozenset[int]:
    """Maximum-cardinality odd independent set (ties: lexicographically smallest)."""
    return _brute_max_set(H, even=False)


def brute_max_even_is(H: Hypergraph) -> frozenset[int]:
    """Maximum-cardinality even independent set (ties: lexicographically smallest)."""
    return _brute_max_set(H, even=True)
