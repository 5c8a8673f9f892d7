"""Generators for test families: planted linear instances with a hidden
2-color LO coloring, balanced tripartite instances with an explicit
3-dimensional vector certificate, and the rank-1 certificate planted by the
hidden coloring itself.

Generation is deterministic given (n, m, seed).  Linearity is enforced by
rejection: an edge is accepted only if none of its three vertex pairs has been
used before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercore import Hypergraph, RankedColoring, check_lo, is_linear
from .rng import substream
from .sdp import VectorSolution

REJECTION_FACTOR = 100


class GenerationError(RuntimeError):
    """Rejection sampling could not place the requested number of linear edges."""


def _linear_edges(m: int, draw) -> list[tuple[int, int, int]]:
    """``m`` edges from repeated ``draw()`` calls, each a triple of vertices.

    A drawn edge is kept when none of its three vertex pairs is in an edge
    kept before; after ``REJECTION_FACTOR * max(m, 1)`` draws the sampler
    gives up.
    """
    pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    budget = REJECTION_FACTOR * max(m, 1)
    while len(edges) < m and budget > 0:
        budget -= 1
        edge = tuple(sorted(draw()))
        ps = ((edge[0], edge[1]), (edge[0], edge[2]), (edge[1], edge[2]))
        if any(p in pairs for p in ps):
            continue
        pairs.update(ps)
        edges.append(edge)
    if len(edges) < m:
        raise GenerationError(
            f"placed only {len(edges)} of {m} linear edges within the retry budget"
        )
    return edges


@dataclass(frozen=True)
class PlantedInstance:
    """Hypergraph shipped with a hidden valid 2-color LO coloring."""

    H: Hypergraph
    planted: RankedColoring
    seed: int


def gen_planted(n: int, m: int, seed: int) -> PlantedInstance:
    """Planted instance: each edge has one top-class vertex and two base-class.

    The vertex set is split (seeded, about one third top class); the planted
    coloring puts the top class at rank 2 and the rest at rank 1, so every
    edge has a unique maximum by construction.
    """
    if m < 0 or n < 0:
        raise ValueError("n and m must be nonnegative")
    if m > 0 and n < 3:
        raise GenerationError("need at least 3 vertices to place an edge")
    rng = substream(seed, "gen:planted")
    perm = rng.permutation(n)
    k2 = max(1, n // 3) if n else 0
    tops = perm[:k2]
    bases = perm[k2:]
    if m > 0 and len(bases) < 2:
        raise GenerationError("base class too small for any edge")

    def draw():
        v = int(tops[rng.integers(len(tops))])
        i, j = rng.choice(len(bases), size=2, replace=False)
        return (v, int(bases[i]), int(bases[j]))

    H = Hypergraph(n, _linear_edges(m, draw))
    top_set = set(int(v) for v in tops)
    planted = RankedColoring({v: 2 if v in top_set else 1 for v in range(n)})
    inst = PlantedInstance(H, planted, seed)
    if not is_linear(H) or not check_lo(H, planted):
        raise GenerationError("generated instance failed its own invariants")
    return inst


def gen_balanced_tripartite(
    n: int, m: int, seed: int
) -> tuple[PlantedInstance, VectorSolution]:
    """Tripartite instance plus an exactly balanced 3-dimensional certificate.

    Parts A, B, C each get n/3 vertices and every edge takes one vertex per
    part.  The certificate puts the special vector on the first axis and the
    per-part directions at 120 degrees in the remaining plane:
    v = -(1/3) e0 + (2 sqrt 2 / 3) u_part, so each vector is unit, each edge
    sums to -e0, and every projection onto e0 is exactly -1/3.
    """
    if n % 3 != 0:
        raise ValueError("tripartite generation needs n divisible by 3")
    if m > 0 and n == 0:
        raise GenerationError("cannot place edges without vertices")
    rng = substream(seed, "gen:tripartite")
    perm = rng.permutation(n)
    third = n // 3
    parts = [perm[:third], perm[third : 2 * third], perm[2 * third :]]

    def draw():
        return [int(part[rng.integers(len(part))]) for part in parts]

    H = Hypergraph(n, _linear_edges(m, draw))
    part_of = np.zeros(n, dtype=int)
    for k, part in enumerate(parts):
        for v in part:
            part_of[int(v)] = k
    planted = RankedColoring({v: 2 if part_of[v] == 0 else 1 for v in range(n)})

    u = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, -0.5, math.sqrt(3.0) / 2.0],
            [0.0, -0.5, -math.sqrt(3.0) / 2.0],
        ]
    )
    vstar = np.array([1.0, 0.0, 0.0])
    radial = 2.0 * math.sqrt(2.0) / 3.0
    vecs = -vstar / 3.0 + radial * u[part_of]
    cert = VectorSolution.from_vectors(H, vstar, vecs, tol=1e-9)

    inst = PlantedInstance(H, planted, seed)
    if not is_linear(H) or not check_lo(H, planted):
        raise GenerationError("generated instance failed its own invariants")
    return inst, cert


def plant_rank1_certificate(inst: PlantedInstance) -> VectorSolution:
    """One-dimensional certificate +-1 from the planted two-color coloring.

    Rank-2 vertices map to +1 and rank-1 vertices to -1, so each edge sums to
    -1 exactly and both residuals are zero.
    """
    signs = np.array(
        [1.0 if inst.planted[v] == 2 else -1.0 for v in range(inst.H.n)]
    ).reshape(-1, 1)
    return VectorSolution.from_vectors(inst.H, np.array([1.0]), signs, tol=1e-12)
