"""Even independent set extraction for the high-degree regime.

Parity kernel: a set meets every edge 0 or 2 times exactly when its indicator
lies in the GF(2) kernel of the edge incidence matrix, because a 3-element
edge has even intersection iff the three indicator bits XOR to zero.  Any
2-color LO coloring's base class is such a vector, so on promise instances
the kernel is nontrivial; the heaviest vector of the reduced kernel basis is
taken.
"""

from __future__ import annotations

from .hypercore import Hypergraph, check_even_is, is_linear
# Not called here; layerbench/spans.py wraps evenset.brute_max_even_is by name.
from .oracle import brute_max_even_is  # noqa: F401


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


def even_independent_set(H: Hypergraph) -> frozenset[int]:
    """Heaviest vector of the reduced parity-kernel basis, as a vertex set.

    Requires a linear hypergraph.  Ties go to the smallest bitmask.  The set
    is nonempty whenever a nonempty even set exists, except on an edgeless
    hypergraph: there every vertex set is even, and the empty set is
    returned.  The result is verified before it is returned.
    """
    if not is_linear(H):
        raise ValueError("even independent set extraction requires a linear hypergraph")
    if H.m == 0:
        return frozenset()
    rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in H.edge_array().tolist()]
    basis = _solve_kernel(rows, H.n)
    best = max(basis, key=lambda v: (bin(v).count("1"), -v), default=0)
    S = frozenset(v for v in range(H.n) if (best >> v) & 1)
    assert check_even_is(H, S)
    return S


def even_is_quality(H: Hypergraph, S, delta: float) -> float:
    """|S| / sqrt(|V| * Delta), the empirical quality ratio."""
    S = frozenset(S)
    if not check_even_is(H, S):
        raise ValueError("set fails the even intersection property")
    denom = (H.n * float(delta)) ** 0.5
    if denom == 0.0:
        return 0.0 if not S else float("inf")
    return len(S) / denom
