"""Core 3-uniform hypergraph types, structural transforms, and validity checks.

Vertices are the integers ``0..n-1``.  A ``Hypergraph`` keeps its edges in
one form, a read-only (m, 3) int64 array of sorted triples of distinct
vertex ids, in lexicographic order without repeats.  The constructor is the
one place that checks and canonicalizes edges; ``induced`` builds its result
on an array that is canonical by construction.  The transforms and checkers
below work on that array.  Colorings are partial maps from vertices to
integer ranks, where a larger rank means a larger color.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Edge = tuple[int, int, int]


class NotTwoLOColorable(Exception):
    """Linearization stopped at a collapsing edge, its ``witness``.

    The message says whether the collapse certifies that no 2-color LO
    coloring exists (see :func:`make_linear`).
    """

    def __init__(self, message: str, witness: Edge | None = None):
        super().__init__(message)
        self.witness = witness


def _checked_triple(n: int, i: int, e: Iterable[int]) -> Edge:
    """Edge ``i`` as a sorted triple; ``ValueError`` unless it is valid for ``n``."""
    t = tuple(sorted(int(v) for v in e))
    if len(t) != 3:
        raise ValueError(f"edge {i} {t} is not a triple")
    if not 0 <= t[0] < t[1] < t[2] < n:
        bad = "repeated vertex" if len(set(t)) < 3 else f"vertex out of range 0..{n - 1}"
        raise ValueError(f"{bad} in edge {i} {t}")
    return t


class Hypergraph:
    """Immutable 3-uniform hypergraph on vertices ``0..n-1``.

    The edges are stored once, as a read-only (m, 3) int64 array: each row is
    a sorted triple ``a < b < c`` with ``0 <= a`` and ``c < n``, and the rows
    are in lexicographic order with no repeats.  The constructor sorts,
    checks and deduplicates the edges it is given; an edge that is not a
    triple, repeats a vertex or has a vertex out of range raises
    ``ValueError``.  ``edges`` derives the same rows as a tuple of triples.
    """

    __slots__ = ("n", "_E")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        n = int(n)
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            E = np.array(rows, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            E = None
        if len(rows) == 0:
            E = np.empty((0, 3), dtype=np.int64)
        elif E is None or E.shape != (len(rows), 3):
            # Rows numpy cannot read as (m, 3) integers are checked one at a
            # time, so the first bad edge is the one reported.
            E = np.array([_checked_triple(n, i, e) for i, e in enumerate(rows)], dtype=np.int64)
        E.sort(axis=1)
        valid = (0 <= E[:, 0]) & (E[:, 0] < E[:, 1]) & (E[:, 1] < E[:, 2]) & (E[:, 2] < n)
        if not valid.all():
            i = int(np.argmin(valid))
            _checked_triple(n, i, E[i].tolist())  # raises: row i is invalid
        # Sort on the columns, not on a packed key: (a*n + b)*n + c overflows
        # int64 once n exceeds about 2*10**6.
        E = E[np.lexsort((E[:, 2], E[:, 1], E[:, 0]))]
        keep = np.ones(len(E), dtype=bool)
        keep[1:] = (E[1:] != E[:-1]).any(axis=1)
        E = E[keep]
        E.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_E", E)

    @classmethod
    def _from_canonical_array(cls, n: int, E: np.ndarray) -> "Hypergraph":
        """Hypergraph stored on ``E`` as it is, without the constructor's checks.

        Precondition: ``E`` is an (m, 3) int64 array whose rows are valid
        edges for ``n`` and strictly increasing, as the constructor would
        leave them, and no one writes to it afterwards.  ``E`` is made
        read-only.
        """
        H = object.__new__(cls)
        object.__setattr__(H, "n", int(n))
        E.flags.writeable = False
        object.__setattr__(H, "_E", E)
        return H

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        return len(self._E)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as a tuple of sorted triples, converted from the array on each call."""
        return tuple(map(tuple, self._E.tolist()))

    def edge_array(self) -> np.ndarray:
        """The stored edges: a read-only (m, 3) int64 array."""
        return self._E

    def degrees(self) -> np.ndarray:
        return np.bincount(self._E.ravel(), minlength=self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and np.array_equal(self._E, other._E)
        )

    def __hash__(self):
        return hash((self.n, self._E.tobytes()))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


class RankedColoring:
    """Partial map vertex -> integer rank.  Larger rank = larger color."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks: Mapping[int, int] | None = None):
        object.__setattr__(self, "_ranks", dict(ranks) if ranks else {})

    def __setattr__(self, name, value):
        raise AttributeError("RankedColoring is immutable")

    def __contains__(self, v: int) -> bool:
        return v in self._ranks

    def __getitem__(self, v: int) -> int:
        return self._ranks[v]

    def __len__(self) -> int:
        return len(self._ranks)

    def __bool__(self) -> bool:
        return bool(self._ranks)

    def __eq__(self, other):
        return isinstance(other, RankedColoring) and self._ranks == other._ranks

    def __repr__(self):
        return f"RankedColoring({self._ranks!r})"

    def get(self, v: int, default=None):
        return self._ranks.get(v, default)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._ranks.items()))

    def domain(self) -> frozenset[int]:
        return frozenset(self._ranks)

    def used_ranks(self) -> list[int]:
        return sorted(set(self._ranks.values()))

    def num_colors(self) -> int:
        return len(set(self._ranks.values()))

    def max_rank(self) -> int:
        return max(self._ranks.values())

    def min_rank(self) -> int:
        return min(self._ranks.values())

    def assign(self, vertices: Iterable[int], rank: int) -> "RankedColoring":
        """New coloring with all of ``vertices`` at ``rank``; refuses overwrites."""
        new = dict(self._ranks)
        for v in vertices:
            v = int(v)
            if v in new:
                raise ValueError(f"vertex {v} already colored")
            new[v] = int(rank)
        return RankedColoring(new)

    def merged(self, other: "RankedColoring") -> "RankedColoring":
        overlap = self.domain() & other.domain()
        if overlap:
            raise ValueError(f"colorings overlap on vertices {sorted(overlap)[:5]}")
        new = dict(self._ranks)
        new.update(other._ranks)
        return RankedColoring(new)

    def shifted(self, delta: int) -> "RankedColoring":
        return RankedColoring({v: r + delta for v, r in self._ranks.items()})

    def relabeled(self, ids: Sequence[int]) -> "RankedColoring":
        """Translate vertex v to ``ids[v]`` (e.g. induced-subgraph ids back to parent ids)."""
        return RankedColoring({int(ids[v]): r for v, r in self._ranks.items()})

    def normalized(self) -> "RankedColoring":
        """Map the distinct ranks order-preservingly onto 1..k."""
        order = {r: i + 1 for i, r in enumerate(self.used_ranks())}
        return RankedColoring({v: order[r] for v, r in self._ranks.items()})


@dataclass(frozen=True)
class DegreeStats:
    degrees: np.ndarray
    delta_bar: float


def _pair_codes(E: np.ndarray, n: int) -> np.ndarray:
    """The codes ``a*n + b`` of the pairs (a, b), (a, c), (b, c), one row per edge.

    A code is below n**2, so it is exact in int64 for n up to 3*10**9.
    """
    return E[:, [0, 0, 1]] * n + E[:, [1, 2, 2]]


def is_linear(H: Hypergraph) -> bool:
    """True iff no two edges share two or more vertices, that is, no pair code repeats."""
    codes = _pair_codes(H.edge_array(), H.n).ravel()
    return len(np.unique(codes)) == len(codes)


def make_linear(H: Hypergraph) -> tuple[Hypergraph, tuple[int, ...]]:
    """Identify vertices until no two edges share a pair of vertices.

    Whenever two edges agree on two vertices, their third vertices must take
    equal colors in any 2-color LO coloring, so they are merged.  Each round
    maps the edges onto the current representatives, links the third
    vertices of every pair that more than one edge holds, and merges each
    connected component into its smallest id, until no pair is shared.

    Returns the merged hypergraph, which keeps the vertex count of ``H``
    (merged-away vertices end up in no edge), and the tuple ``rep`` with
    ``rep[v]`` the smallest id of v's class.  A linear ``H`` is returned as
    it is, with ``rep = (0, 1, ..., n-1)``.

    If an edge collapses to fewer than three classes, the first such edge in
    ``H.edge_array()`` order is raised as the witness of
    :class:`NotTwoLOColorable`.  When all three of its vertices fall into one
    class, no 2-color LO coloring exists.  A collapse to two classes
    ``{a, a, b}`` only forces b above a, which this reduction cannot express,
    so it stops there without deciding the instance.
    """
    if is_linear(H):
        return H, tuple(range(H.n))
    E = H.edge_array()
    rep = np.arange(H.n)
    while True:
        mapped = np.sort(rep[E], axis=1)
        collapsed = (mapped[:, 0] == mapped[:, 1]) | (mapped[:, 1] == mapped[:, 2])
        if collapsed.any():
            i = int(np.argmax(collapsed))
            e = tuple(E[i].tolist())
            if mapped[i, 0] == mapped[i, 2]:
                reason = "collapses under merging: not 2-LO colorable"
            else:
                reason = "collapses to two classes under merging: linearization cannot continue"
            raise NotTwoLOColorable(f"edge {e} {reason}", witness=e)
        mapped = np.unique(mapped, axis=0)
        codes = _pair_codes(mapped, H.n).ravel()
        thirds = mapped[:, [2, 1, 0]].ravel()
        order = np.argsort(codes)
        sorted_codes = codes[order]
        shared = np.flatnonzero(sorted_codes[1:] == sorted_codes[:-1])
        if not len(shared):
            return Hypergraph(H.n, mapped), tuple(rep.tolist())
        # Imported here: no linear input needs scipy.sparse.csgraph loaded.
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        u, w = thirds[order[shared]], thirds[order[shared + 1]]
        links = coo_matrix((np.ones(len(u)), (u, w)), shape=(H.n, H.n))
        _, label = connected_components(links, directed=False)
        _, smallest = np.unique(label, return_index=True)
        rep = smallest[label][rep]


def lift_coloring(rep: Sequence[int], coloring: RankedColoring) -> RankedColoring:
    """Pull a coloring of the merged hypergraph back to the original vertices.

    ``rep`` is the representative tuple of :func:`make_linear`: vertex v
    takes the rank of ``rep[v]``, which must be colored.
    """
    lifted = {}
    for v, r in enumerate(rep):
        if r not in coloring:
            raise ValueError(f"representative {r} of vertex {v} is unassigned")
        lifted[v] = coloring[r]
    return RankedColoring(lifted)


def induced(H: Hypergraph, vertices: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Subhypergraph induced on a vertex set, reindexed to 0..|S|-1.

    Returns the induced hypergraph and the sorted tuple of original ids, so
    ``ids[new]`` recovers the parent vertex of each new id.  An edge survives
    iff all three of its vertices are kept.  The relabeling is increasing, so
    the surviving rows stay sorted and strictly increasing.
    """
    # fromiter converts each element as ``int`` would, without a Python loop.
    ids = np.unique(np.fromiter(vertices, dtype=np.int64))
    new_id = np.full(H.n, -1, dtype=np.int64)
    inside = (ids >= 0) & (ids < H.n)
    new_id[ids[inside]] = np.flatnonzero(inside)
    E = new_id[H.edge_array()]
    E = E[(E >= 0).all(axis=1)]
    return Hypergraph._from_canonical_array(len(ids), E), tuple(ids.tolist())


def _rank_array(ranks: list[int]) -> np.ndarray:
    """Ranks as an array that compares them exactly.

    A plain ``np.array`` turns a mix of int64 and larger ranks into float64,
    which rounds neighbours above 2**53 together; such ranks are kept as
    Python ints instead.
    """
    try:
        return np.array(ranks, dtype=np.int64)
    except OverflowError:
        return np.array(ranks, dtype=object)


def check_lo(H: Hypergraph, coloring: RankedColoring) -> bool:
    """True iff every vertex is assigned and every edge has a unique maximum rank.

    Colored vertices outside the hypergraph are ignored.  An unassigned
    vertex raises ``ValueError``; with every vertex assigned this is
    :func:`first_violation` finding no edge.
    """
    get = coloring._ranks.get
    for v in range(H.n):
        if get(v) is None:
            raise ValueError(f"vertex {v} unassigned")
    return first_violation(H, coloring) is None


def first_violation(H: Hypergraph, coloring: RankedColoring) -> int | None:
    """Index of the first edge whose assigned ranks tie at their maximum, or None.

    Unassigned vertices are ignored: they stand in with the smallest assigned
    rank, which cannot lift an edge's maximum, and are left out of the tie
    count.  Ranks are compared exactly, as in :func:`check_lo`.
    """
    get = coloring._ranks.get
    ranks = [get(v) for v in range(H.n)]
    assigned = np.array([r is not None for r in ranks], dtype=bool)
    if not assigned.any():
        return None
    if not assigned.all():
        floor = min(r for r in ranks if r is not None)
        ranks = [floor if r is None else r for r in ranks]
    E = H.edge_array()
    R = _rank_array(ranks)[E]
    ties = ((R == R.max(axis=1, keepdims=True)) & assigned[E]).sum(axis=1) > 1
    return int(np.argmax(ties)) if ties.any() else None


def check_partial_lo(H: Hypergraph, coloring: RankedColoring) -> bool:
    """True iff each edge's assigned portion is empty or has a unique maximum rank."""
    return first_violation(H, coloring) is None


def _edge_hits(H: Hypergraph, vertices: Iterable[int]) -> np.ndarray:
    """How many distinct members of ``vertices`` each edge contains.

    Ids outside ``0..n-1`` are in no edge and count for nothing.
    """
    S = np.fromiter(vertices, dtype=np.int64)
    member = np.zeros(H.n, dtype=bool)
    member[S[(S >= 0) & (S < H.n)]] = True
    return member[H.edge_array()].sum(axis=1)


def check_odd_is(H: Hypergraph, vertices: Iterable[int]) -> bool:
    """True iff the set meets every edge at most once."""
    return bool((_edge_hits(H, vertices) <= 1).all())


def check_even_is(H: Hypergraph, vertices: Iterable[int]) -> bool:
    """True iff the set meets every edge zero or two times."""
    hits = _edge_hits(H, vertices)
    return bool(((hits == 0) | (hits == 2)).all())


def degree_stats(H: Hypergraph) -> DegreeStats:
    """Per-vertex degrees plus the average degree bound with |E| <= delta_bar * |V| / 3."""
    degrees = H.degrees()
    if H.n == 0:
        return DegreeStats(degrees, 0.0)
    return DegreeStats(degrees, 3.0 * H.m / H.n)
