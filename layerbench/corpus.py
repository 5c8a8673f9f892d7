"""Workload corpora for the layered benchmark.

Every corpus is a fixed function of the workload seed: instance sizes come
from the workload's table below, and each generator seed and pipeline seed is
derived from the workload seed and the instance's position.  No instance is
filtered after generation, whether it is slow or fails.

Besides the library's own generators this module holds the Z_3^d certificate
family: exactly balanced vector solutions whose odd-set rounding differs
between the ``n15`` and ``logn`` strategies.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from lochroma import (
    Hypergraph,
    RankedColoring,
    VectorSolution,
    check_lo,
    gen_balanced_tripartite,
    gen_planted,
    is_linear,
)

CERT_TOL = 1e-9


def derive(seed: int, label: str) -> int:
    """63-bit seed for (workload seed, label), independent of the library's streams."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class Case:
    """One pipeline call of a corpus pass."""

    ident: str
    H: Hypergraph
    strategy: str
    seed: int
    cert: VectorSolution | None = None


def gen_z3_certificate(d: int, keep: float, seed: int) -> tuple[Hypergraph, VectorSolution]:
    """Lines of Z_3^d with all-nonzero directions, kept at a seeded fraction.

    Vertices are the points x of Z_3^d, numbered in base 3.  Each edge is a
    line {x, x+o, x-o} with o in {1,2}^d.  Two points fix the line through
    them, so the hypergraph is linear.  Vertex x gets the unit vector
    -e0/3 + (2 sqrt 2 / 3) * omega^x / sqrt d, written out as cos/sin pairs,
    and the special vector is e0.  Along a line every coordinate runs over
    all three cube roots of unity, so each edge's vectors sum to -e0 exactly
    and every gamma is -1/3.  Coloring by "x_1 = 0" is a 2-LO coloring.
    """
    n = 3**d
    pts = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.int64)
    weights = 3 ** np.arange(d - 1, -1, -1)
    # o and 2o = -o give the same line, so fix the first direction coordinate.
    dirs = np.array([(1,) + o for o in itertools.product((1, 2), repeat=d - 1)])
    a = np.repeat(np.arange(n), len(dirs))
    step = np.tile(dirs, (n, 1))
    base = pts[a]
    b = ((base + step) % 3) @ weights
    c = ((base + 2 * step) % 3) @ weights
    lines = np.unique(np.sort(np.stack([a, b, c], axis=1), axis=1), axis=0)
    kept = lines[np.random.Generator(np.random.PCG64(seed)).random(len(lines)) < keep]
    H = Hypergraph(n, kept.tolist())

    angle = 2.0 * math.pi * pts / 3.0
    ring = np.empty((n, 2 * d))
    ring[:, 0::2] = np.cos(angle)
    ring[:, 1::2] = np.sin(angle)
    vstar = np.zeros(2 * d + 1)
    vstar[0] = 1.0
    vecs = np.concatenate(
        [np.full((n, 1), -1.0 / 3.0), (2.0 * math.sqrt(2.0) / 3.0) * ring / math.sqrt(d)],
        axis=1,
    )
    cert = VectorSolution.from_vectors(H, vstar, vecs, tol=CERT_TOL)

    planted = RankedColoring({v: 2 if pts[v, 0] == 0 else 1 for v in range(n)})
    if not is_linear(H):
        raise RuntimeError("Z3 family: hypergraph is not linear")
    if max(cert.norm_residual, cert.edge_residual) > CERT_TOL:
        raise RuntimeError(
            f"Z3 family: residuals {cert.norm_residual:.3e}, {cert.edge_residual:.3e}"
        )
    if not np.allclose(cert.gamma(), -1.0 / 3.0, rtol=0.0, atol=1e-12):
        raise RuntimeError("Z3 family: some gamma differs from -1/3")
    if not check_lo(H, planted):
        raise RuntimeError("Z3 family: the x_1 = 0 coloring fails check_lo")
    return H, cert


STRATEGIES = ("n15", "logn")

# planted-dense: m = 3n.  The null space stays narrow, so the dense SVD in
# the solve dominates and memory grows with n.
DENSE_SIZES = (600, 750, 900, 1050, 1200)

# planted-sparse: m = n/2, as (n, instances).  n = 45 runs the full rank
# ladder of the reduced LM; n = 1600 has q > 400, so the ladder is empty and
# the full-space fallback does the work.  Many small instances average out
# the rare rung stalls and the seed-to-seed spread of their color counts.
SPARSE_MIX = ((1600, 2), (45, 192))

# cert-balanced: dense tripartite certificates (delta_bar >= n^0.6, so n15
# takes even sets) as (n, m, count), and sparsified Z_3^d certificates (odd
# sets) as (d, keep, count).  Each certificate runs with both strategies.
# Many small Z_3 certificates keep the share of failing n15 calls, and with
# it ok_share and colors.n15, from swinging with the seed.
TRIPARTITE = ((150, 1200, 1), (90, 480, 2))
Z3 = ((5, 0.5, 40), (6, 0.5, 1))


def _planted(name: str, seed: int, plan) -> list[Case]:
    cases = []
    for i, (n, m) in enumerate(plan):
        inst = gen_planted(n, m, derive(seed, f"{name}:gen:{i}"))
        # Alternate strategies per instance; the seed picks which goes first.
        strategy = STRATEGIES[(i + seed) % 2]
        cases.append(
            Case(f"{name}/{i}:n{n}:m{m}", inst.H, strategy, derive(seed, f"{name}:run:{i}"))
        )
    return cases


def planted_dense(seed: int) -> list[Case]:
    return _planted("planted-dense", seed, [(n, 3 * n) for n in DENSE_SIZES])


def planted_sparse(seed: int) -> list[Case]:
    plan = [(n, n // 2) for n, count in SPARSE_MIX for _ in range(count)]
    return _planted("planted-sparse", seed, plan)


def _cert_cases(ident: str, H: Hypergraph, cert: VectorSolution, seed: int) -> list[Case]:
    return [Case(ident, H, strategy, seed, cert) for strategy in STRATEGIES]


def cert_balanced(seed: int) -> list[Case]:
    cases = []
    i = 0
    for n, m, count in TRIPARTITE:
        for _ in range(count):
            inst, cert = gen_balanced_tripartite(n, m, derive(seed, f"cert:gen:{i}"))
            ident = f"cert-balanced/{i}:tripartite:n{n}:m{m}"
            cases += _cert_cases(ident, inst.H, cert, derive(seed, f"cert:run:{i}"))
            i += 1
    for d, keep, count in Z3:
        for _ in range(count):
            H, cert = gen_z3_certificate(d, keep, derive(seed, f"cert:gen:{i}"))
            ident = f"cert-balanced/{i}:z3:d{d}:m{H.m}"
            cases += _cert_cases(ident, H, cert, derive(seed, f"cert:run:{i}"))
            i += 1
    return cases


WORKLOADS = {
    "planted-dense": planted_dense,
    "planted-sparse": planted_sparse,
    "cert-balanced": cert_balanced,
}


def warmup(seed: int) -> list[Case]:
    """One small call per planted density plus one pass over both certificate kinds."""
    cases = _planted("warmup", seed, [(60, 180), (60, 30)])
    inst, cert = gen_balanced_tripartite(30, 80, derive(seed, "warmup:tripartite"))
    cases += _cert_cases("warmup/tripartite", inst.H, cert, seed)
    H, cert = gen_z3_certificate(3, 0.5, derive(seed, "warmup:z3"))
    return cases + _cert_cases("warmup/z3", H, cert, seed)
