"""Core 3-uniform hypergraph types, structural transforms, and validity checks.

Vertices are the integers ``0..n-1``.  Every edge is a sorted triple of
distinct vertex ids; the constructor, the one place that checks this, also
sorts and deduplicates the edge list so iteration order is reproducible.
Colorings are partial maps from vertices to integer ranks, where a larger
rank means a larger color.
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


class Hypergraph:
    """Immutable 3-uniform hypergraph on vertices ``0..n-1``.

    Each edge is kept as a sorted triple ``a < b < c`` with ``0 <= a`` and
    ``c < n``; the edge list is sorted and deduplicated.  An edge that is not
    a triple, repeats a vertex or has a vertex out of range raises
    ``ValueError``.  The edges as an array are built on first use and cached;
    equality and hashing ignore the cache.
    """

    __slots__ = ("n", "edges", "_edge_array")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        n = int(n)
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        triples = []
        for i, e in enumerate(edges):
            t = tuple(sorted(int(v) for v in e))
            if len(t) != 3:
                raise ValueError(f"edge {i} {t} is not a triple")
            if not 0 <= t[0] < t[1] < t[2] < n:
                bad = "repeated vertex" if len(set(t)) < 3 else f"vertex out of range 0..{n - 1}"
                raise ValueError(f"{bad} in edge {i} {t}")
            triples.append(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(set(triples))))
        object.__setattr__(self, "_edge_array", None)

    @classmethod
    def _from_canonical_array(cls, n: int, E: np.ndarray) -> "Hypergraph":
        """Hypergraph on an (m, 3) int64 array whose rows are already canonical.

        Each row must be a valid edge and the rows strictly increasing, as
        the constructor would leave them; ``E`` becomes the cache.
        """
        H = object.__new__(cls)
        object.__setattr__(H, "n", int(n))
        # Share one int object per vertex id between the edge triples, as
        # the constructor's relabeling dicts do; E.tolist() would
        # make a fresh int for every entry above 256.
        vertex = list(range(n)).__getitem__
        a, b, c = (map(vertex, col) for col in E.T.tolist())
        object.__setattr__(H, "edges", tuple(zip(a, b, c)))
        E.flags.writeable = False
        object.__setattr__(H, "_edge_array", E)
        return H

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (m, 3) int64 array, built once and cached."""
        E = self._edge_array
        if E is None:
            E = np.array(self.edges, dtype=np.int64).reshape(-1, 3)
            E.flags.writeable = False
            object.__setattr__(self, "_edge_array", E)
        return E

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array().ravel(), minlength=self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

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
    """True iff no two edges share two or more vertices."""
    pairs: set[tuple[int, int]] = set()
    for a, b, c in H.edges:
        for p in ((a, b), (a, c), (b, c)):
            if p in pairs:
                return False
            pairs.add(p)
    return True


def make_linear(H: Hypergraph) -> tuple[Hypergraph, MergeMap]:
    """Identify vertices until no two edges share a pair of vertices.

    Whenever two edges agree on two vertices, their third vertices must take
    equal colors in any 2-color LO coloring, so they are merged.  Merging is
    iterated to a fixpoint with union-find (smallest id in each class becomes
    the representative).  If an edge ever collapses to fewer than three
    distinct representatives, that certifies the instance admits no 2-color
    LO coloring and :class:`NotTwoLOColorable` is raised.

    The output hypergraph keeps the vertex count of ``H``; merged-away
    vertices simply end up in no edge.
    """
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
        for e in H.edges:
            t = tuple(sorted(find(v) for v in e))
            if len(set(t)) != 3:
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
    ids = np.unique(np.fromiter((int(v) for v in vertices), dtype=np.int64))
    new_id = np.full(H.n, -1, dtype=np.int64)
    inside = (ids >= 0) & (ids < H.n)
    new_id[ids[inside]] = np.flatnonzero(inside)
    E = new_id[H.edge_array()]
    E = E[(E >= 0).all(axis=1)]
    return Hypergraph._from_canonical_array(len(ids), E), tuple(ids.tolist())


def check_lo(H: Hypergraph, coloring: RankedColoring) -> bool:
    """True iff every vertex is assigned and every edge has a unique maximum rank.

    Colored vertices outside the hypergraph are ignored.  The ranks go into
    one array, and each edge's maximum is compared over ``H.edge_array()``.
    """
    get = coloring._ranks.get
    ranks = [get(v) for v in range(H.n)]
    if None in ranks:
        raise ValueError(f"vertex {ranks.index(None)} unassigned")
    if H.m == 0:
        return True
    R = np.array(ranks)[H.edge_array()]
    return bool(((R == R.max(axis=1, keepdims=True)).sum(axis=1) == 1).all())


def first_violation(H: Hypergraph, coloring: RankedColoring) -> int | None:
    """Index of the first edge whose assigned ranks tie at their maximum, or None.

    Unassigned vertices are ignored.
    """
    get = coloring._ranks.get
    for i, e in enumerate(H.edges):
        ranks = [r for r in map(get, e) if r is not None]
        if ranks and ranks.count(max(ranks)) != 1:
            return i
    return None


def check_partial_lo(H: Hypergraph, coloring: RankedColoring) -> bool:
    """True iff each edge's assigned portion is empty or has a unique maximum rank."""
    return first_violation(H, coloring) is None


def check_odd_is(H: Hypergraph, vertices: Iterable[int]) -> bool:
    """True iff the set meets every edge at most once."""
    S = set(vertices)
    return all(len(S.intersection(e)) <= 1 for e in H.edges)


def check_even_is(H: Hypergraph, vertices: Iterable[int]) -> bool:
    """True iff the set meets every edge zero or two times."""
    S = set(vertices)
    return all(len(S.intersection(e)) in (0, 2) for e in H.edges)


def degree_stats(H: Hypergraph) -> DegreeStats:
    """Per-vertex degrees plus the average degree bound with |E| <= delta_bar * |V| / 3."""
    degrees = H.degrees()
    if H.n == 0:
        return DegreeStats(degrees, 0.0)
    return DegreeStats(degrees, 3.0 * H.m / H.n)
