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
    """A structural reduction produced a witness that no 2-color LO coloring exists."""

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

    def relabeled(self, vmap: Mapping[int, int]) -> "RankedColoring":
        """Apply a vertex-id translation (e.g. induced-subgraph ids back to parent ids)."""
        return RankedColoring({int(vmap[v]): r for v, r in self._ranks.items()})

    def normalized(self) -> "RankedColoring":
        """Map the distinct ranks order-preservingly onto 1..k."""
        order = {r: i + 1 for i, r in enumerate(self.used_ranks())}
        return RankedColoring({v: order[r] for v, r in self._ranks.items()})


@dataclass(frozen=True)
class MergeMap:
    """Vertex identification record: original id -> surviving representative id.

    The map is idempotent: ``rep[rep[v]] == rep[v]`` for every vertex.
    """

    representative: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.representative[v]

    def __len__(self) -> int:
        return len(self.representative)

    @classmethod
    def identity(cls, n: int) -> "MergeMap":
        return cls(tuple(range(n)))

    def is_identity(self) -> bool:
        return all(r == v for v, r in enumerate(self.representative))


@dataclass(frozen=True)
class DegreeStats:
    degrees: np.ndarray
    delta_bar: float


def is_linear(H: Hypergraph) -> bool:
    """True iff no two edges share two or more vertices.

    Each edge's three vertex pairs get the code ``a*n + b``, which is below
    n**2 and so exact in int64 for n up to 3*10**9; the hypergraph is linear
    iff no code repeats.
    """
    E = H.edge_array()
    codes = (E[:, [0, 0, 1]] * H.n + E[:, [1, 2, 2]]).ravel()
    return len(np.unique(codes)) == len(codes)


def make_linear(H: Hypergraph) -> tuple[Hypergraph, MergeMap]:
    """Identify vertices until no two edges share a pair of vertices.

    Whenever two edges agree on two vertices, their third vertices must take
    equal colors in any 2-color LO coloring, so they are merged.  Merging is
    iterated to a fixpoint with union-find (smallest id in each class becomes
    the representative).  If an edge ever collapses to fewer than three
    distinct representatives, that certifies the instance admits no 2-color
    LO coloring and :class:`NotTwoLOColorable` is raised.

    The output hypergraph keeps the vertex count of ``H``; merged-away
    vertices simply end up in no edge.  A linear ``H`` is returned as it is,
    with the identity map.
    """
    if is_linear(H):
        return H, MergeMap.identity(H.n)
    edges = H.edge_array().tolist()
    parent = list(range(H.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    while True:
        mapped: set[Edge] = set()
        for e in edges:
            t = tuple(sorted(find(v) for v in e))
            if len(set(t)) != 3:
                e = tuple(e)
                raise NotTwoLOColorable(
                    f"edge {e} collapses under merging: not 2-LO colorable", witness=e
                )
            mapped.add(t)
        changed = False
        third_of: dict[tuple[int, int], int] = {}
        for a, b, c in sorted(mapped):
            for pair, other in (((a, b), c), ((a, c), b), ((b, c), a)):
                prev = third_of.get(pair)
                if prev is None:
                    third_of[pair] = other
                elif prev != other:
                    changed = union(prev, other) or changed
        if not changed:
            reps = tuple(find(v) for v in range(H.n))
            return Hypergraph(H.n, sorted(mapped)), MergeMap(reps)


def lift_coloring(M: MergeMap, coloring: RankedColoring) -> RankedColoring:
    """Pull a coloring of the merged hypergraph back to the original vertices."""
    lifted = {}
    for v in range(len(M)):
        rep = M(v)
        if rep not in coloring:
            raise ValueError(f"representative {rep} of vertex {v} is unassigned")
        lifted[v] = coloring[rep]
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
