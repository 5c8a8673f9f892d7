"""Bisection rounding of gamma values into a partial coloring, plus the
Gaussian perturbation that converts an all-balanced profile into a fully
unbalanced one so the same rounding colors everything.

The rounding halves the interval [-1, 1] toward the balance point -1/3,
alternating lower/upper halves; the vertices falling out of the kept half at
step j receive the (j+1)-th largest color.  Interval endpoints are exact
rationals so the closed forms and the recurrence agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercore import Hypergraph, RankedColoring, check_lo
from .rng import derive_seed, normals, substream
from .sdp import DEFAULT_TOL, GammaProfile, OrthoProfile, THIRD

_BAND_CENTER = Fraction(-1, 3)

# The logn strategy's perturbation: radius of the band around -1/3 that no
# kicked gamma may land in, and Gaussian draws per coloring.
EPS_PRIME = 1e-9
DRAW_BUDGET = 100


class ResampleBudgetExceeded(RuntimeError):
    """A verify-and-retry loop ran out of fresh random draws."""


@dataclass(frozen=True)
class IntervalSchedule:
    """Nested closed intervals I_0 contains I_1 ... down to the balance band."""

    eps: float
    lowers: tuple[Fraction, ...]
    uppers: tuple[Fraction, ...]

    @property
    def T(self) -> int:
        return len(self.lowers) - 1

    def interval(self, j: int) -> tuple[Fraction, Fraction]:
        return self.lowers[j], self.uppers[j]


def interval(j: int) -> tuple[Fraction, Fraction]:
    """Closed-form endpoints of the j-th bisection interval."""
    if j < 0:
        raise ValueError("interval index must be nonnegative")
    if j == 0:
        return Fraction(-1), Fraction(1)
    # Width 1/p with p = 2^(j-1); upper = -(p-2)/(3p) for even j and
    # -(p-1)/(3p) for odd j, lower = upper - 1/p.
    p = 2 ** (j - 1)
    top = p - 2 if j % 2 == 0 else p - 1
    return Fraction(-(top + 3), 3 * p), Fraction(-top, 3 * p)


def interval_by_recurrence(j: int) -> tuple[Fraction, Fraction]:
    """Same endpoints obtained by iterating the halving rule."""
    if j < 0:
        raise ValueError("interval index must be nonnegative")
    lo, hi = Fraction(-1), Fraction(1)
    for step in range(j):
        mid = (lo + hi) / 2
        if step % 2 == 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def iteration_bound(eps) -> int:
    """Smallest k with 2^k >= 4 / (3 eps), evaluated in exact arithmetic."""
    e = Fraction(eps)
    k = 0
    power = Fraction(1)
    while 3 * e * power < 4:
        power *= 2
        k += 1
    return k


def check_eps(eps) -> Fraction:
    """``eps`` as an exact Fraction; a ``ValueError`` unless it is finite and
    in (0, 2/3), the band radii whose schedule ends."""
    if not (math.isfinite(eps) and 0 < Fraction(eps) < Fraction(2, 3)):
        raise ValueError(f"eps must be a finite number in (0, 2/3), got {eps}")
    return Fraction(eps)


@functools.lru_cache
def schedule(eps) -> IntervalSchedule:
    """All intervals until the first one inside [-1/3 - eps, -1/3 + eps].

    ``eps`` may be a float (used exactly, at its binary value) or a Fraction.
    The result is frozen and depends on ``eps`` alone, so it is built once
    per value; an invalid ``eps`` raises on every call.
    """
    e = check_eps(eps)
    band_lo = _BAND_CENTER - e
    band_hi = _BAND_CENTER + e
    intervals = [interval(0)]
    while not (band_lo <= intervals[-1][0] and intervals[-1][1] <= band_hi):
        intervals.append(interval(len(intervals)))
    lowers, uppers = zip(*intervals)
    sched = IntervalSchedule(float(e), lowers, uppers)
    bound = iteration_bound(e)
    if sched.T > bound:
        raise AssertionError(f"schedule length {sched.T} exceeds bound {bound}")
    return sched


def check_gamma_sums(H: Hypergraph, gamma: np.ndarray, slack: float) -> None:
    """Abort when some edge's gamma values do not sum to -1 within slack."""
    if H.m == 0:
        return
    E = H.edge_array()
    sums = gamma[E[:, 0]] + gamma[E[:, 1]] + gamma[E[:, 2]]
    worst = int(np.argmax(np.abs(sums + 1.0)))
    err = abs(float(sums[worst]) + 1.0)
    if err > slack:
        raise ValueError(
            f"inconsistent gammas: edge {tuple(E[worst].tolist())} sums to "
            f"{float(sums[worst]):.9f}, off by {err:.3e} > slack {slack:.3e}"
        )


def combinatorial_rounding(
    H: Hypergraph,
    profile: GammaProfile,
    *,
    sum_slack: float = 1e-4,
) -> RankedColoring:
    """Color every unbalanced vertex by bisection on the gamma values.

    Step j keeps interval I_{j+1} and colors the vertices falling in
    I_j minus I_{j+1} with rank T - j, so the first step hands out the largest
    color.  Vertices whose gamma stays inside every interval (the balanced
    ones) remain uncolored.  The per-edge sum precondition is checked first.
    """
    check_gamma_sums(H, profile.gamma, sum_slack)
    sched = schedule(profile.eps)
    T = sched.T
    # Unit-norm residuals can push a gamma epsilon past +-1; clip so the
    # outermost windows still catch those vertices.
    gamma = np.clip(profile.gamma, -1.0, 1.0)
    ranks: dict[int, int] = {}
    for j in range(T):
        lo_j, hi_j = float(sched.lowers[j]), float(sched.uppers[j])
        if j % 2 == 0:
            mid = float(sched.uppers[j + 1])
            mask = (gamma > mid) & (gamma <= hi_j)
        else:
            mid = float(sched.lowers[j + 1])
            mask = (gamma >= lo_j) & (gamma < mid)
        for v in np.flatnonzero(mask):
            ranks[int(v)] = T - j
    return RankedColoring(ranks)


def _check_perturbable(profile: GammaProfile, ortho: OrthoProfile) -> None:
    if not bool(profile.balanced_mask.all()):
        raise ValueError("profile has unbalanced vertices; perturbation expects all balanced")
    if ortho.degenerate:
        raise ValueError(f"orthogonal directions degenerate at {sorted(ortho.degenerate)[:5]}")


def perturb_gammas(
    profile: GammaProfile, ortho: OrthoProfile, seed: int, draw: int = 0
) -> GammaProfile | None:
    """Kick every gamma off the balance point with one shared Gaussian draw.

    Each vertex moves by its orthogonal direction's projection onto the
    Gaussian vector of substream ``perturb:{draw}`` of ``seed``, scaled by
    1/n^2.  Because the orthogonal directions of an exactly balanced edge sum
    to zero, the per-edge gamma sums are preserved.  The draw is rejected,
    and ``None`` returned, when some kick exceeds 1/2 or some kicked gamma
    lands inside the open band of radius ``EPS_PRIME`` around -1/3.
    """
    _check_perturbable(profile, ortho)
    g = normals(substream(seed, f"perturb:{draw}"), ortho.dim)
    kick = (ortho.ubar @ g) / float(profile.gamma.size) ** 2
    kicked = profile.gamma + kick
    in_band = (kicked > -THIRD - EPS_PRIME) & (kicked < -THIRD + EPS_PRIME)
    if not (np.abs(kick) <= 0.5).all() or in_band.any():
        return None
    return GammaProfile(kicked, EPS_PRIME)


def perturbation_slack(n: int, eps: float, tol: float = DEFAULT_TOL) -> float:
    """Per-edge sum slack after perturbing an eps-balanced profile on n vertices."""
    return 3.0 * tol + math.sqrt(18.0 * eps) / n


def balanced_log_coloring(
    H_B: Hypergraph,
    profile: GammaProfile,
    ortho: OrthoProfile,
    seed: int,
    *,
    tol: float = DEFAULT_TOL,
) -> RankedColoring:
    """Full coloring of a balanced hypergraph: perturb, then bisection-round.

    Draws 0, 1, ... of one seeded stream are tried in turn, up to
    ``DRAW_BUDGET``.  A draw is rejected when ``perturb_gammas`` rejects it,
    when an edge's kicked gammas miss -1 by more than the perturbation slack,
    when the rounding leaves a vertex uncolored, or when the coloring fails
    ``check_lo``.  An unbalanced profile or degenerate orthogonal directions
    fail every draw alike, so they raise ``ValueError`` before the first.
    """
    if H_B.n == 0:
        return RankedColoring()
    _check_perturbable(profile, ortho)
    slack = perturbation_slack(H_B.n, profile.eps, tol)
    # "retry:0" is the stream logn has always drawn from first: its colorings stay the same.
    stream = derive_seed(seed, "retry:0")
    rejected = Counter()
    for draw in range(DRAW_BUDGET):
        kicked = perturb_gammas(profile, ortho, stream, draw)
        if kicked is None:
            rejected["kick"] += 1
            continue
        try:
            coloring = combinatorial_rounding(H_B, kicked, sum_slack=slack)
        except ValueError:
            rejected["sum"] += 1
            continue
        if len(coloring) < H_B.n:
            rejected["uncolored"] += 1
        elif not check_lo(H_B, coloring):
            rejected["lo"] += 1
        else:
            return coloring
    raise ResampleBudgetExceeded(
        f"no valid coloring in {DRAW_BUDGET} draws: {rejected['kick']} kicked a gamma"
        f" by over 1/2 or into the eps' band, {rejected['sum']} broke an edge sum, {rejected['uncolored']}"
        f" left a vertex uncolored, {rejected['lo']} failed check_lo"
    )
