"""Gaussian tail utilities, threshold rounding for odd independent sets, and
the two-sided rounding that produces a proper (non-monochromatic) 2-coloring.

The threshold rounding projects each vertex's orthogonal direction onto one
shared Gaussian vector and keeps the vertices whose projection clears a
threshold t chosen so the selection probability is alpha; vertices meeting a
doubly-selected edge are then dropped, which forces the odd-intersection
property on every draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv

from .combround import ResampleBudgetExceeded
from .hypercore import Hypergraph, RankedColoring
from .rng import normals, substream, unit_vector
from .sdp import THIRD, OrthoProfile, VectorSolution, ortho_profile

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def gcap(t):
    """Upper tail of the standard Gaussian, Pr[g >= t]."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / SQRT2) if np.ndim(t) else 0.5 * math.erfc(t / SQRT2)


def gauss_pdf(t):
    return np.exp(-0.5 * np.square(t)) / SQRT_2PI


def gcap_inv(alpha: float) -> float:
    """The t with gcap(t) = alpha, polished by Newton to 1e-12 absolute."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = float(SQRT2 * erfcinv(2.0 * alpha))
    for _ in range(3):
        pdf = float(gauss_pdf(t))
        if pdf < 1e-300:
            break
        t += (gcap(t) - alpha) / pdf
    return t


def alpha_for(delta: float) -> float:
    """Threshold mass (1/32) / (Delta^(1/3) sqrt(ln Delta)), with Delta clamped to >= 4."""
    d = max(float(delta), 4.0)
    return 1.0 / (32.0 * d ** (1.0 / 3.0) * math.sqrt(math.log(d)))


@dataclass(frozen=True)
class RoundingConfig:
    delta: float
    alpha: float
    t: float
    reps: int
    seed: int

    @classmethod
    def for_degree(
        cls,
        delta: float,
        reps: int = 1,
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
        return cls(delta, alpha, t, max(1, int(reps)), int(seed))


def default_reps(n: int) -> int:
    """Amplification count 16 * ceil(ln n)."""
    return 16 * max(1, math.ceil(math.log(max(n, 2))))


def _draw_selection(ortho: OrthoProfile, cfg: RoundingConfig, draw: int) -> np.ndarray:
    """Draw ``draw``'s raw selection: one Gaussian from substream ``round:{draw}``."""
    g = normals(substream(cfg.seed, f"round:{draw}"), ortho.dim)
    return (ortho.ubar @ g) >= cfg.t


def _drop_doubly_hit(H_B: Hypergraph, selected: np.ndarray) -> frozenset[int]:
    E = H_B.edge_array()
    keep = selected.copy()
    keep[E[selected[E].sum(axis=1) >= 2].ravel()] = False
    return frozenset(np.flatnonzero(keep).tolist())


def sample_round(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    cfg: RoundingConfig,
    draw: int = 0,
) -> frozenset[int]:
    """One threshold-rounding draw; output meets every edge at most once."""
    return _drop_doubly_hit(H_B, _draw_selection(ortho, cfg, draw))


def threshold_trace(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    cfg: RoundingConfig,
    draws: int,
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """(raw selection, surviving set) per draw, on the config's seed stream."""
    out = []
    for i in range(draws):
        sel = _draw_selection(ortho, cfg, i)
        raw = frozenset(int(v) for v in np.flatnonzero(sel))
        out.append((raw, _drop_doubly_hit(H_B, sel)))
    return out


def best_odd_is(
    H_B: Hypergraph,
    ortho: OrthoProfile,
    delta: float,
    reps: int | None = None,
    seed: int = 0,
) -> frozenset[int]:
    """Largest surviving set over repeated draws (ties: lexicographically smallest)."""
    if reps is None:
        reps = default_reps(H_B.n)
    cfg = RoundingConfig.for_degree(delta, reps=reps, seed=seed)
    best: frozenset[int] = frozenset()
    best_key = None
    for i in range(cfg.reps):
        cand = sample_round(H_B, ortho, cfg, draw=i)
        if len(cand) < len(best):
            continue
        key = (-len(cand), tuple(sorted(cand)))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


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
    *,
    retry_budget: int = 50,
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
    for attempt in range(retry_budget):
        r = unit_vector(substream(seed, f"hyperplane:{attempt}"), ortho.dim)
        ranks[mids] = np.where(ortho.ubar[mids] @ r >= 0.0, 2, 1)
        R = ranks[E]
        if (R.min(axis=1) < R.max(axis=1)).all():
            return RankedColoring(dict(enumerate(ranks.tolist())))
    raise ResampleBudgetExceeded(f"no proper 2-coloring in {retry_budget} hyperplane draws")
