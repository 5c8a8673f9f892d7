"""Even independent set extraction for the high-degree regime.

Parity kernel: a set meets every edge 0 or 2 times exactly when its indicator
lies in the GF(2) kernel of the edge incidence matrix, because a 3-element
edge has even intersection iff the three indicator bits XOR to zero.  Any
2-color LO coloring's base class is such a vector, so on promise instances
the kernel is nontrivial; a hill climb over the kernel basis looks for a
heavy vector.  Instances with at most 16 vertices are also searched exactly.
"""

from __future__ import annotations

from .hypercore import Hypergraph, check_even_is, is_linear
from .oracle import brute_max_even_is


def _solve_kernel(rows: list[int], n: int) -> list[int]:
    """GF(2) kernel basis, rows as bitmasks, fully reduced elimination."""
    echelon: list[tuple[int, int]] = []  # (pivot column, row); RREF
    for row in rows:
        r = row
        for lead, er in echelon:
            if (r >> lead) & 1:
                r ^= er
        if r:
            p = r.bit_length() - 1
            echelon = [
                (lead, er ^ r if (er >> p) & 1 else er) for lead, er in echelon
            ]
            echelon.append((p, r))
    pivot_cols = {lead for lead, _ in echelon}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = 1 << free
        # In reduced form each pivot bit appears in exactly one row, so the
        # per-row parity fixes are independent of each other.
        for lead, er in echelon:
            if bin(er & vec).count("1") % 2 == 1:
                vec ^= 1 << lead
        basis.append(vec)
    return basis


def _kernel_phase(H: Hypergraph) -> set[int]:
    """Heaviest kernel vector found by a deterministic XOR hill climb."""
    rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in H.edge_array().tolist()]
    basis = _solve_kernel(rows, H.n)
    if not basis:
        return set()
    current = max(basis, key=lambda v: (bin(v).count("1"), -v))
    improved = True
    while improved:
        improved = False
        weight = bin(current).count("1")
        for b in basis:
            trial = current ^ b
            if bin(trial).count("1") > weight:
                current = trial
                improved = True
                weight = bin(current).count("1")
    return {v for v in range(H.n) if (current >> v) & 1}


def even_independent_set(H: Hypergraph) -> frozenset[int]:
    """Best even independent set found; nonempty whenever one exists.

    Requires a linear hypergraph.  Takes the parity-kernel hill climb and,
    for instances with at most 16 vertices, the exact search when it finds a
    strictly larger set.  The result is verified before it is returned.
    """
    if not is_linear(H):
        raise ValueError("even independent set extraction requires a linear hypergraph")
    if H.m == 0:
        return frozenset()
    best = _kernel_phase(H)
    if H.n <= 16:
        exact = set(brute_max_even_is(H))
        if len(exact) > len(best):
            best = exact
    assert check_even_is(H, best)
    return frozenset(best)


def even_is_quality(H: Hypergraph, S, delta: float) -> float:
    """|S| / sqrt(|V| * Delta), the empirical quality ratio."""
    S = frozenset(S)
    if not check_even_is(H, S):
        raise ValueError("set fails the even intersection property")
    denom = (H.n * float(delta)) ** 0.5
    if denom == 0.0:
        return 0.0 if not S else float("inf")
    return len(S) / denom
