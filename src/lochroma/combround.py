"""Bisection rounding of gamma values into a partial coloring, plus the
Gaussian perturbation that converts an all-balanced profile into a fully
unbalanced one so the same rounding colors everything.

The rounding halves the interval [-1, 1] toward the balance point -1/3,
alternating lower/upper halves; the vertices falling out of the kept half at
step j receive the (j+1)-th largest color.  Interval endpoints are exact
rationals so the closed forms and the recurrence agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypercore import Hypergraph, RankedColoring, check_lo, first_violation
from .rng import derive_seed, normals, substream
from .sdp import DEFAULT_TOL, GammaProfile, OrthoProfile, THIRD

_BAND_CENTER = Fraction(-1, 3)


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
    p = Fraction(2) ** (j - 1)
    if j % 2 == 0:
        upper = -(p - 2) / 3 / p
    else:
        upper = -(p - 1) / 3 / p
    return upper - 1 / p, upper


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


def schedule(eps) -> IntervalSchedule:
    """All intervals until the first one inside [-1/3 - eps, -1/3 + eps].

    ``eps`` may be a float (used exactly, at its binary value) or a Fraction.
    """
    e = Fraction(eps)
    if not (0 < e < Fraction(2, 3)):
        raise ValueError(f"eps must lie in (0, 2/3), got {eps}")
    band_lo = _BAND_CENTER - e
    band_hi = _BAND_CENTER + e
    lowers = [Fraction(-1)]
    uppers = [Fraction(1)]
    j = 0
    while not (band_lo <= lowers[-1] and uppers[-1] <= band_hi):
        lo, hi = lowers[-1], uppers[-1]
        mid = (lo + hi) / 2
        if j % 2 == 0:
            lo, hi = lo, mid
        else:
            lo, hi = mid, hi
        lowers.append(lo)
        uppers.append(hi)
        j += 1
    sched = IntervalSchedule(float(e), tuple(lowers), tuple(uppers))
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


def _forbidden(gamma: np.ndarray, eps_prime: float) -> bool:
    return bool(np.any((gamma > -THIRD - eps_prime) & (gamma < -THIRD + eps_prime)))


def perturb_gammas(
    H_B: Hypergraph,
    profile: GammaProfile,
    ortho: OrthoProfile,
    seed: int,
    *,
    eps_prime: float = 1e-9,
    budget: int = 100,
) -> GammaProfile:
    """Kick every gamma off the balance point with one shared Gaussian draw.

    Each vertex moves by its orthogonal direction's projection onto a common
    Gaussian vector, scaled by 1/n^2.  Because the orthogonal directions of an
    exactly balanced edge sum to zero, the per-edge gamma sums are preserved.
    A draw is rejected (and resampled) when some vertex lands inside the open
    band of radius ``eps_prime`` or some kick exceeds 1/2.
    """
    if not bool(profile.balanced_mask.all()):
        raise ValueError("profile has unbalanced vertices; perturbation expects all balanced")
    if ortho.degenerate:
        raise ValueError(f"orthogonal directions degenerate at {sorted(ortho.degenerate)[:5]}")
    if H_B.n == 0:
        return GammaProfile(np.zeros(0), eps_prime)
    scale = float(H_B.n) ** 2
    for attempt in range(budget):
        g = normals(substream(seed, f"perturb:{attempt}"), ortho.dim)
        zeta = ortho.ubar @ g
        kicked = profile.gamma + zeta / scale
        if np.abs(zeta).max() / scale <= 0.5 and not _forbidden(kicked, eps_prime):
            return GammaProfile(kicked, eps_prime)
    raise ResampleBudgetExceeded(f"no acceptable perturbation in {budget} draws")


def perturbation_slack(n: int, eps: float, tol: float = DEFAULT_TOL) -> float:
    """Per-edge sum slack after perturbing an eps-balanced profile on n vertices."""
    if n <= 0:
        return 3.0 * tol
    return 3.0 * tol + math.sqrt(18.0 * eps) / n


def balanced_log_coloring(
    H_B: Hypergraph,
    profile: GammaProfile,
    ortho: OrthoProfile,
    seed: int,
    *,
    eps_prime: float = 1e-9,
    retry_budget: int = 20,
    perturb_budget: int = 100,
    tol: float = DEFAULT_TOL,
) -> RankedColoring:
    """Full coloring of a balanced hypergraph: perturb, then bisection-round.

    After a successful perturbation no gamma is balanced, so the rounding
    colors every vertex; validity is still verified and the whole draw is
    retried on failure, which makes the output deterministically valid.
    """
    if H_B.n == 0:
        return RankedColoring()
    slack = perturbation_slack(H_B.n, profile.eps, tol)
    last_error: Exception | None = None
    for attempt in range(retry_budget):
        try:
            kicked = perturb_gammas(
                H_B,
                profile,
                ortho,
                derive_attempt_seed(seed, attempt),
                eps_prime=eps_prime,
                budget=perturb_budget,
            )
            partial = combinatorial_rounding(H_B, kicked, sum_slack=slack)
        except (ResampleBudgetExceeded, ValueError) as exc:
            last_error = exc
            continue
        leftover = [v for v in range(H_B.n) if v not in partial]
        if leftover:
            floor_rank = (partial.min_rank() - 1) if partial else 1
            full = partial.assign(leftover, floor_rank)
        else:
            full = partial
        if check_lo(H_B, full):
            return full
        e = tuple(H_B.edge_array()[first_violation(H_B, full)].tolist())
        last_error = ValueError(f"edge {e} has duplicated maximum rank {max(map(full.get, e))}")
    raise ResampleBudgetExceeded(
        f"no valid coloring in {retry_budget} attempts; last failure: {last_error}"
    )


def derive_attempt_seed(seed: int, attempt: int) -> int:
    # Keep retry draws on disjoint substreams of the caller's seed.
    return derive_seed(seed, f"retry:{attempt}")
