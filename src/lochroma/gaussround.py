"""Gaussian tail utilities, threshold rounding for odd independent sets, and
the two-sided rounding that produces a proper (non-monochromatic) 2-coloring.

The threshold rounding projects each vertex's orthogonal direction onto one
shared Gaussian vector and keeps the vertices whose projection clears a
threshold t chosen so the selection probability is alpha; vertices meeting a
doubly-selected edge are then dropped, which forces the odd-intersection
property on every draw.

The draws of a round are handled as one batch: every public entry point
takes the raw selections of its draws from ``_selections`` and their
surviving sets from ``_survivors``.  All draws of a round read one substream,
``round``, at fixed positions: draw i takes the uniforms 2*dim*i to
2*dim*(i+1) of it, the first dim for ``u1`` and the next dim for ``u2``.  A
batch of draws starting at i jumps there with the generator's ``advance``
and reads all its uniforms in one call, so draw i's Gaussian depends only on
(seed, i, dim) and a single draw, a trace in batches and a whole round agree
on it.  Box-Muller runs once over the batch, which is elementwise.  Edge hits
are counted for all draws at once as a small-integer (draws, m) array.

The projections of a batch come from one matrix product ``g @ ubar.T``, which
sums each dot product in another order than the per-draw ``ubar @ g[i]``.  Two
summation orders of a length-dim dot product u . g differ by at most
2 gamma_dim sum_j |u_j g_j| <= 2 gamma_dim |u| |g| (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, section 3.1), with
gamma_dim = dim eps / (1 - dim eps) and eps = 2^-53.  The rows of ``ubar`` are
unit vectors, so a projection farther than slack_i = 4 dim eps |g_i| from t
(``_slack``) is on the same side of t in both orders and in exact arithmetic.
A draw with any projection within slack_i of t is recomputed as
``ubar @ g[i]``, so every selection is the per-draw one bit for bit, and none
depends on the BLAS thread count except in the draws that are recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv

from .combround import ResampleBudgetExceeded
from .hypercore import Hypergraph, RankedColoring
from .rng import box_muller, substream, unit_vector
from .sdp import THIRD, OrthoProfile, VectorSolution, ortho_profile

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# Most draws ``threshold_trace`` holds at once, which bounds the memory of a
# long trace; best_odd_is batches all of its 16 ceil(ln n) draws.
TRACE_BATCH = 256

# Random hyperplanes ``two_sided_round`` tries before giving up.
HYPERPLANE_BUDGET = 50


def gcap(t):
    """Upper tail of the standard Gaussian, Pr[g >= t]."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / SQRT2) if np.ndim(t) else 0.5 * math.erfc(t / SQRT2)


def gauss_pdf(t):
    return np.exp(-0.5 * np.square(t)) / SQRT_2PI


def gcap_inv(alpha: float) -> float:
    """The t with gcap(t) = alpha, from ``erfcinv``."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(SQRT2 * erfcinv(2.0 * alpha))


def alpha_for(delta: float) -> float:
    """Threshold mass (1/32) / (Delta^(1/3) sqrt(ln Delta)), with Delta clamped to >= 4."""
    d = max(float(delta), 4.0)
    return 1.0 / (32.0 * d ** (1.0 / 3.0) * math.sqrt(math.log(d)))


@dataclass(frozen=True)
class RoundingConfig:
    delta: float
    alpha: float
    t: float
    seed: int

    @classmethod
    def for_degree(
        cls,
        delta: float,
        seed: int = 0,
        alpha_override: float | None = None,
    ) -> "RoundingConfig":
        delta = max(float(delta), 4.0)
        alpha = alpha_for(delta) if alpha_override is None else float(alpha_override)
        if not (0.0 < alpha < gcap(1.0)):
            raise ValueError(f"alpha={alpha} outside (0, gcap(1))")
        t = gcap_inv(alpha)
        if abs(gcap(t) - alpha) > 1e-12:
            raise AssertionError("threshold inversion missed tolerance")
        return cls(delta, alpha, t, int(seed))


def default_reps(n: int) -> int:
    """Amplification count 16 * ceil(ln n)."""
    return 16 * max(1, math.ceil(math.log(max(n, 2))))


def _selections(ortho: OrthoProfile, cfg: RoundingConfig, draws: range) -> np.ndarray:
    """Raw selections of the given draws, one boolean row per draw.

    Draw i reads uniforms 2*dim*i to 2*dim*(i+1) of substream ``round``:
    ``dim`` for ``u1``, then ``dim`` for ``u2``, exactly as ``normals`` reads
    them.  One generator serves the whole batch.
    """
    rng = substream(cfg.seed, "round")
    rng.bit_generator.advance(2 * ortho.dim * draws.start)
    u = rng.random((len(draws), 2, ortho.dim))
    g = box_muller(u[:, 0], u[:, 1])
    proj = g @ ortho.ubar.T
    selected = proj >= cfg.t
    # Draws with a projection within rounding of t take the per-draw product
    # (the bound is in the module docstring).
    proj -= cfg.t
    np.abs(proj, out=proj)
    for row in np.flatnonzero(proj.min(axis=1, initial=np.inf) <= _slack(g)):
        selected[row] = ortho.ubar @ g[row] >= cfg.t
    return selected


def _slack(g: np.ndarray) -> np.ndarray:
    """Per draw i, 4 dim eps |g_i|: about twice the bound 2 gamma_dim |g_i| on
    how far the entries of ``(g @ ubar.T)[i]`` and ``ubar @ g[i]`` can differ
    when the rows of ``ubar`` are unit vectors."""
    return (4.0 * g.shape[1] * 2.0**-53) * np.linalg.norm(g, axis=1)


def _survivors(H_B: Hypergraph, selected: np.ndarray) -> np.ndarray:
    """Each row of ``selected`` minus the vertices of every edge it hits twice or more."""
    E = H_B.edge_array()
    hits = selected[:, E].sum(axis=2, dtype=np.uint8)
    rows, edges = np.nonzero(hits >= 2)
    keep = selected.copy()
    keep[rows[:, None], E[edges]] = False
    return keep


def _vertex_set(row: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(row).tolist())


def sample_round(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    cfg: RoundingConfig,
    draw: int = 0,
) -> frozenset[int]:
    """One threshold-rounding draw; output meets every edge at most once."""
    if draw < 0:
        raise ValueError(f"draw must be at least 0, got {draw}")
    kept = _survivors(H_B, _selections(ortho, cfg, range(draw, draw + 1)))
    return _vertex_set(kept[0])


def threshold_trace(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    cfg: RoundingConfig,
    draws: int,
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """(raw selection, surviving set) per draw, on the config's seed stream."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    out = []
    for start in range(0, draws, TRACE_BATCH):
        batch = range(start, min(start + TRACE_BATCH, draws))
        selected = _selections(ortho, cfg, batch)
        kept = _survivors(H_B, selected)
        out += [(_vertex_set(raw), _vertex_set(k)) for raw, k in zip(selected, kept)]
    return out


def best_odd_is(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    delta: float,
    reps: int | None = None,
    seed: int = 0,
) -> frozenset[int]:
    """Largest surviving set over repeated draws (ties: lexicographically smallest)."""
    reps = default_reps(H_B.n) if reps is None else max(1, int(reps))
    cfg = RoundingConfig.for_degree(delta, seed=seed)
    kept = _survivors(H_B, _selections(ortho, cfg, range(reps)))
    sizes = kept.sum(axis=1)
    tied = np.flatnonzero(sizes == sizes.max())
    # Equal-length sorted vertex lists compare lexicographically.
    best = min(tied, key=lambda row: np.flatnonzero(kept[row]).tolist())
    return _vertex_set(kept[best])


@dataclass(frozen=True)
class GaussianFactsReport:
    """Smallest observed margins for the tail-bound inequalities."""

    sandwich_margin: float
    concentration_margin: float
    inv_log_margin: float
    double_t_margin: float

    @property
    def ok(self) -> bool:
        return min(
            self.sandwich_margin,
            self.concentration_margin,
            self.inv_log_margin,
            self.double_t_margin,
        ) >= 0.0


def check_gaussian_facts(
    t_grid: np.ndarray | None = None,
    cor_grid: np.ndarray | None = None,
) -> GaussianFactsReport:
    """Numerically assert the four tail inequalities on the given grids.

    Default grids: t in [0.1, 6] step 0.05 for the sandwich and concentration
    facts, t in [1, 6] step 0.05 for the two corollaries.  Raises on any
    violated inequality; otherwise returns the observed margins.
    """
    if t_grid is None:
        t_grid = np.arange(2, 121) * 0.05
    if cor_grid is None:
        cor_grid = np.arange(20, 121) * 0.05
    t = np.asarray(t_grid, dtype=float)
    tails = gcap(t)
    pdf = gauss_pdf(t)
    lower = t / (t * t + 1.0) * pdf
    upper = pdf / t
    sandwich = float(min((tails - lower).min(), (upper - tails).min()))
    if sandwich <= 0.0:
        raise ArithmeticError("tail sandwich bound violated")

    # Pr[g in [a, b]] <= (b - a) / sqrt(2 pi) over all grid pairs a < b.
    diffs = tails[None, :] - tails[:, None]
    widths = (t[:, None] - t[None, :]) / SQRT_2PI
    iu = np.triu_indices(len(t), k=1)
    concentration = float((widths.T[iu] - diffs.T[iu]).min())
    if concentration < 0.0:
        raise ArithmeticError("concentration bound violated")

    tc = np.asarray(cor_grid, dtype=float)
    beta = gcap(tc)
    L = np.log(1.0 / beta)
    upper_mid = np.sqrt(2.0 * L - np.log(L))
    upper_loose = np.sqrt(2.0 * L)
    lower_rad = np.clip(2.0 * L - np.log(L) - math.log(16.0 * math.pi), 0.0, None)
    inv_log = float(
        min(
            (tc - np.sqrt(lower_rad)).min(),
            (upper_mid - tc).min(),
            (upper_loose - upper_mid).min(),
        )
    )
    if inv_log < 0.0:
        raise ArithmeticError("inverse tail log bound violated")

    rhs = 512.0 * np.power(L, 1.5) * np.power(beta, 4)
    double_t = float((rhs - gcap(2.0 * tc)).min())
    if double_t <= 0.0:
        raise ArithmeticError("doubled-threshold tail bound violated")

    return GaussianFactsReport(sandwich, concentration, inv_log, double_t)


def two_sided_round(
    H: Hypergraph,
    sol: VectorSolution,
    seed: int,
) -> RankedColoring:
    """Proper 2-coloring: split on gamma around -1/3, hyperplane-split the rest.

    Vertices with gamma clearly below -1/3 take color 1, clearly above take
    color 2 (slack 10x solver tolerance to absorb numerics).  The remaining
    near-balanced vertices are split by the sign of their orthogonal
    direction's projection onto a random unit vector; since balanced edge
    directions sum to zero, no edge can land entirely on one side.  The
    result is verified and the hyperplane redrawn on failure.
    """
    gamma = sol.gamma()
    delta = 10.0 * sol.tol
    left = gamma < -THIRD - delta
    right = gamma > -THIRD + delta
    middle = ~(left | right)
    ortho = ortho_profile(sol)
    ranks = np.where(right, 2, 1)
    mids = np.flatnonzero(middle)
    E = H.edge_array()
    for attempt in range(HYPERPLANE_BUDGET):
        r = unit_vector(substream(seed, f"hyperplane:{attempt}"), ortho.dim)
        ranks[mids] = np.where(ortho.ubar[mids] @ r >= 0.0, 2, 1)
        R = ranks[E]
        if (R.min(axis=1) < R.max(axis=1)).all():
            return RankedColoring(dict(enumerate(ranks.tolist())))
    raise ResampleBudgetExceeded(f"no proper 2-coloring in {HYPERPLANE_BUDGET} hyperplane draws")
