"""Feasibility vector program: per edge the three vertex vectors plus one
special vector sum to zero, and all vectors have unit norm.

Both solver phases run one Levenberg-Marquardt loop, ``_lm``: one damping
rule, and one stop rule, so an attempt that does not reach the tolerance
runs to the end of its iteration budget.  The phases differ only in their
residuals and in how a step is solved.  The edge constraints are linear in
the stacked factor, so the reduced phase eliminates them exactly: restrict
the factor to the null space of the edge indicator vectors (edge sums then
vanish to machine precision by construction) and solve the remaining
unit-norm system at a small factor rank, min(q, 3) for a q-dimensional null
space, each step a dense solve.  Under the 2-LO promise the hidden coloring
is itself a rank-1 feasible point (top vertices at +v*, base vertices at
-v*), so a rank-3 factor of the null space always contains one.  Each solve
builds the (n+1) x (n+1) Gram G = Z Z^T of the edge incidence Z once.  The
basis spans the null space of G, read off a rank-revealing pivoted Cholesky
factor of the dense G (LAPACK ``dpstrf``); it is not built when n+1-m alone
puts the reduced system above ``MAX_DOF``.  Each reduced start is drawn in
the ambient space and projected onto the basis, and the reduced LM step
commutes with any rotation of the basis, so the solutions depend only on the
null space, not on the basis rounding (and BLAS threading) picks for it.
Where both rank-3 attempts stall, or the reduced phase is skipped, a
full-space phase runs on the stacked edge-sum and unit-norm residuals, from
one seeded start at the wider rank ``rank_for(H)``, about sqrt(2m), where
the Burer-Monteiro landscape is more benign (Boumal, Voroninski & Bandeira
2016), each step a CG solve only to the relative residual min(0.1, ||F||)
(an inexact-Newton forcing term, Dembo, Eisenstat & Steihaug 1982).  G is
its Gauss-Newton matrix, and G times the factor is the edge part of its
gradient.
A stall is never reported as an infeasibility certificate; it carries the
residuals of the best candidate (smallest worst-residual) as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.linalg.lapack import dpstrf

from .hypercore import Hypergraph
from .rng import normals, substream

DEFAULT_TOL = 1e-8

# LM iterations of the full-space start; near the rank-deficient solutions of
# the harder planted cores it converges only linearly.  Alone on the cores of
# gen_planted(n, m, s) at 8 shapes (n = 150-600, m/n = 0.5-0.8, s = 0-5, and
# s = 6-11 at m/n = 0.7-0.8), from lo_color's solver seed, it solves 57 of
# 60, within 196 iterations bar (150, 112, 0) at 299, (300, 210, 4) at 746
# and (600, 420, 10) at 822; (3000, 2250, 1) stalls.
FULL_SPACE_ITERS = 1000

# Reduced-LM rank on a q-dimensional null space: min(q, REDUCED_RANK).  Each
# step solves a dense (q*r)^2 system; null spaces with q*r above MAX_DOF go
# to the full-space phase.
REDUCED_RANK = 3
MAX_DOF = 1200

# The pivoted Cholesky factor of the edge Gram G stops at the first pivot (a
# diagonal entry of the Schur complement left) up to NULL_CUT * ||G||_inf;
# the pivots not taken span the null space.  In units of ||G||_inf, over 140
# planted cores (n = 150-900, m/n = 0.5-3, seeds 0-3) every accepted pivot was
# at least 5.66e-9 (the core of gen_planted(900, 810, 2)) and every diagonal
# entry left at most 3.5e-16, so the cut clears both sides by more than 2800x.
NULL_CUT = 1e-12

THIRD = 1.0 / 3.0


class SolverStalled(RuntimeError):
    """No attempt reached tolerance within its budget; likely infeasible or under-iterated."""

    def __init__(self, message: str, norm_residual: float, edge_residual: float, iters: int):
        super().__init__(
            f"{message} (norm_residual={norm_residual:.3e}, "
            f"edge_residual={edge_residual:.3e}, iters={iters})"
        )
        self.norm_residual = norm_residual
        self.edge_residual = edge_residual
        self.iters = iters


@dataclass(frozen=True)
class SdpConfig:
    """Solver settings.

    ``tol`` bounds both the worst |norm^2 - 1| and the worst per-edge sum norm
    of an accepted solution.  ``seed`` roots every random draw of the solve:
    each attempt's start.
    """

    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        check_tol(self.tol)


def check_tol(tol: float) -> None:
    """Reject a solver tolerance that is not a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")


def rank_for(H: Hypergraph) -> int:
    """Factor width of the full-space phase: min(n+1, ceil(sqrt(2m)) + 2)."""
    return min(H.n + 1, math.ceil(math.sqrt(2 * max(H.m, 1))) + 2)


@dataclass(frozen=True)
class VectorSolution:
    """Unit vectors per vertex plus the special vector, with achieved residuals.

    ``tol`` is the tolerance the solution is judged by, finite and positive.
    """

    vstar: np.ndarray
    vecs: np.ndarray
    norm_residual: float
    edge_residual: float
    tol: float = DEFAULT_TOL
    iters: int = 0

    def __post_init__(self):
        check_tol(self.tol)

    @property
    def n(self) -> int:
        return self.vecs.shape[0]

    @property
    def d(self) -> int:
        return self.vstar.shape[0]

    @classmethod
    def from_vectors(
        cls,
        H: Hypergraph,
        vstar: np.ndarray,
        vecs: np.ndarray,
        tol: float = DEFAULT_TOL,
        iters: int = 0,
    ) -> "VectorSolution":
        vstar = np.asarray(vstar, dtype=float)
        vecs = np.asarray(vecs, dtype=float)
        if vstar.ndim != 1 or vecs.shape != (H.n, len(vstar)):
            raise ValueError(
                f"certificate shapes {vstar.shape} and {vecs.shape} do not fit "
                f"{H.n} vertices: expected (d,) and ({H.n}, d)"
            )
        nr, er = _residuals(H, vstar, vecs)
        return cls(vstar, vecs, nr, er, tol=tol, iters=iters)

    def gamma(self) -> np.ndarray:
        return self.vecs @ self.vstar

    def restrict(self, H_sub: Hypergraph, old_ids) -> "VectorSolution":
        """Solution rows for an induced subhypergraph; per-edge feasibility survives."""
        ids = np.asarray(list(old_ids), dtype=int)
        return VectorSolution.from_vectors(
            H_sub, self.vstar, self.vecs[ids], tol=self.tol, iters=self.iters
        )


@dataclass(frozen=True)
class GammaProfile:
    """Per-vertex projections onto the special vector, split at the balance band.

    A vertex is balanced when its gamma lies in the closed interval
    [-1/3 - eps, -1/3 + eps].
    """

    gamma: np.ndarray
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def balanced_mask(self) -> np.ndarray:
        return (self.gamma >= -THIRD - self.eps) & (self.gamma <= -THIRD + self.eps)

    @property
    def balanced(self) -> np.ndarray:
        return np.flatnonzero(self.balanced_mask)

    @property
    def unbalanced(self) -> np.ndarray:
        return np.flatnonzero(~self.balanced_mask)

    def restrict(self, old_ids) -> "GammaProfile":
        ids = np.asarray(list(old_ids), dtype=int)
        return GammaProfile(self.gamma[ids], self.eps)


@dataclass(frozen=True)
class OrthoProfile:
    """Unit components orthogonal to the special vector, one row per vertex.

    Vertices whose orthogonal component was numerically zero get a fixed
    substitute direction and are listed in ``degenerate``.  Rows may live in
    max(d, 2) dimensions so a substitute direction always exists.
    """

    ubar: np.ndarray
    degenerate: frozenset[int]

    @property
    def n(self) -> int:
        return self.ubar.shape[0]

    @property
    def dim(self) -> int:
        return self.ubar.shape[1]

    def restrict(self, old_ids) -> "OrthoProfile":
        """The rows of ``old_ids`` (distinct), reindexed to 0..len-1."""
        ids = np.asarray(old_ids, dtype=np.int64)
        degen = np.flatnonzero(np.isin(ids, list(self.degenerate)))
        return OrthoProfile(self.ubar[ids], frozenset(degen.tolist()))


def _residuals(H: Hypergraph, vstar: np.ndarray, vecs: np.ndarray) -> tuple[float, float]:
    norms = np.concatenate([(vecs * vecs).sum(axis=1), [float(vstar @ vstar)]])
    norm_res = float(np.abs(norms - 1.0).max())
    if H.m == 0:
        return norm_res, 0.0
    E = H.edge_array()
    T = vecs[E[:, 0]] + vecs[E[:, 1]] + vecs[E[:, 2]] + vstar
    return norm_res, float(np.linalg.norm(T, axis=1).max())


def residual(H: Hypergraph, sol: VectorSolution) -> tuple[float, float]:
    """Exact (max |norm^2 - 1|, max per-edge sum norm) for a candidate solution."""
    return _residuals(H, sol.vstar, sol.vecs)


def _edge_gram(E: np.ndarray, n: int) -> sp.csr_matrix:
    """The Gram G = Z Z^T of the (n+1) x m edge incidence Z.

    Column e of Z has ones at rows a, b, c and n.  G's indices are sorted,
    as the full-space LM's CG matvec sums in stored order.
    """
    m = len(E)
    rows = np.concatenate([E.T.ravel(), np.full(m, n)])
    cols = np.tile(np.arange(m), 4)
    Z = sp.csr_matrix((np.ones(4 * m), (rows, cols)), shape=(n + 1, m))
    G = Z @ Z.T
    G.sort_indices()
    return G


def _lm(P, residuals, step, tol, max_iters):
    """Levenberg-Marquardt from ``P``: the one loop of both solver phases.

    ``residuals(P)`` gives (F, val, worst): what ``step(P, F, val, lam)``
    takes, the sum of squared residuals and the largest residual.  lam starts
    at 1e-3 and scales by 0.3 (floor 1e-14) after a step that lowers val, by
    10 (cap 1e9) after any other; the loop stops only at worst <= tol or
    after ``max_iters`` steps.  Returns (P, steps, converged).
    """
    lam = 1e-3
    F, val, worst = residuals(P)
    iters = 0
    while worst > tol and iters < max_iters:
        iters += 1
        try:
            trial = P + step(P, F, val, lam)
        except np.linalg.LinAlgError:
            vt = math.inf  # a step that cannot be solved is rejected
        else:
            Ft, vt, wt = residuals(trial)
        if vt < val:
            P, F, val, worst = trial, Ft, vt, wt
            lam = max(lam * 0.3, 1e-14)
        else:
            lam = min(lam * 10.0, 1e9)
    return P, iters, worst <= tol


def _cg(apply, B, rtol, maxiter):
    """Conjugate gradients for apply(X) = B on (n+1, r) arrays, from X = 0.

    ``apply`` is a symmetric positive definite operator.  As scipy's ``cg``
    does, the loop tests sqrt(r.r) < rtol * ||B|| on the residual r before
    each iteration and returns after ``maxiter`` iterations; a zero B gives
    zeros.  x, r and p are allocated once, and each iteration updates them
    in place by BLAS-1 calls on their raveled views.
    """
    x = np.zeros_like(B)
    r = B.copy()
    p = B.copy()
    xf, rf, pf = x.ravel(), r.ravel(), p.ravel()
    rho = ddot(rf, rf)
    if rho == 0.0:
        return x
    stop = rtol * math.sqrt(rho)
    for it in range(maxiter):
        if math.sqrt(rho) < stop:
            break
        if it:
            dscal(rho / rho_prev, pf)
            daxpy(rf, pf)
        qf = apply(p).ravel()
        alpha = rho / ddot(pf, qf)
        daxpy(pf, xf, a=alpha)
        daxpy(qf, rf, a=-alpha)
        rho_prev, rho = rho, ddot(rf, rf)
    return x


def _full_space_lm(X, E, G, tol, max_iters):
    """Levenberg-Marquardt (``_lm``) on stacked edge-sum and unit-norm residuals.

    The edge residuals are T = Z^T X, so the Gauss-Newton matrix of the edge
    part is the Gram G = Z Z^T and J^T F's edge part is Z T = G X.  Each
    step is solved by ``_cg`` only to the relative residual min(0.1, ||F||),
    with ||F||^2 = val the current sum of squared residuals: an
    inexact-Newton forcing term of order ||F||, which gives quadratic local
    convergence at a regular solution (Dembo, Eisenstat & Steihaug 1982;
    Eisenstat & Walker 1996).  Far from a solution a loose step is as good
    as an exact one and costs a few matvecs, so the method needs no
    first-order phase to reach its basin; near the rank-deficient solutions
    of some cores convergence is linear and each CG solve stops at
    ``maxiter`` (see ``FULL_SPACE_ITERS``).

    The phase alone from its ``sdp:init:0`` start at lo_color's solver seed
    (SdpConfig seed 1 on the first core), in LM iterations / CG iterations
    / seconds, BLAS 1 thread; "stall" is 1000 LM iterations unconverged:

        planted core      LM / CG / s
        (150, 112, 1)     81 / 22367 / 0.53
        (450, 360, 6)     116 / 36386 / 3.02
        (150, 112, 0)     299 / 73992 / 1.80
        (300, 210, 4)     746 / 297242 / 14.3
        (240, 120, 12)    14 / 553 / 0.02
        (300, 210, 3)     stall / 449729 / 21.8
        (600, 420, 4)     stall / 486343 / 56.3
    """
    n1 = X.shape[0]
    n = n1 - 1
    shift = sp.identity(n1, format="csr")

    def residuals(Y):
        T = Y[E[:, 0]] + Y[E[:, 1]] + Y[E[:, 2]] + Y[n]
        g = (Y * Y).sum(axis=1) - 1.0
        # initial=0.0: E may hold no edges.
        worst = max(np.linalg.norm(T, axis=1).max(initial=0.0), np.abs(g).max())
        return g, float((T * T).sum() + (g * g).sum()), float(worst)

    def step(Y, g, val, lam):
        JtF = G @ Y + 2.0 * g[:, None] * Y
        GL = G + lam * shift
        Y4 = 4.0 * Y
        work = np.empty_like(Y)

        def apply(D):
            # (G + lam I) D + 4 diag(Y D^T) Y, the damped Gauss-Newton matrix.
            np.multiply(np.einsum("ij,ij->i", Y, D)[:, None], Y4, out=work)
            out = GL @ D
            out += work
            return out

        return _cg(apply, -JtF, min(0.1, math.sqrt(val)), 500)

    return _lm(X, residuals, step, tol, max_iters)


def _edge_null_basis(G: sp.csr_matrix) -> np.ndarray:
    """Orthonormal basis of the space orthogonal to every edge indicator.

    Any stacked factor built from these columns satisfies all edge-sum
    constraints identically; only the unit-norm rows remain to be arranged.

    The edge indicators are the columns of the incidence Z, so the basis
    spans the null space of the Gram G = Z Z^T.  G is positive
    semidefinite, and LAPACK's pivoted Cholesky (``dpstrf``) factors it as
    Pi^T G Pi = L L^T, stopping once every pivot left is at most
    ``NULL_CUT * ||G||_inf``; L = [L11; L21] has rank r.  With N = n+1,
    the q = N - r columns of K = Pi [-L11^-T L21^T; I_q] span the null space,
    and the basis is the Q factor of K.  Which basis of that space comes
    out moves with rounding, and so with BLAS threading; the solver's
    outputs depend only on the space.
    """
    Gd = G.toarray(order="F")
    N = Gd.shape[0]
    cut = NULL_CUT * float(Gd.sum(axis=1).max())
    # Gd is Fortran-ordered, so the factor overwrites it in place.
    L, piv, r, info = dpstrf(Gd, lower=1, tol=cut, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpstrf: argument {-info} is invalid")
    # info = 1 means rank r < N: the normal case, as (1, ..., 1, -3) is null.
    # piv is 1-based.
    K = np.empty((N, N - r))
    K[piv[:r] - 1] = -solve_triangular(L[:r, :r], L[r:, :r].T, trans="T", lower=True)
    K[piv[r:] - 1] = np.eye(N - r)
    B, _ = np.linalg.qr(K)
    return B


def _reduced_lm(B: np.ndarray, Y: np.ndarray, tol: float, max_iters: int):
    """Levenberg-Marquardt (``_lm``) on the unit-norm residuals of rows of B @ Y."""
    N, q = B.shape
    r = Y.shape[1]

    def residuals(Y):
        R = B @ Y
        f = (R * R).sum(axis=1) - 1.0
        return (R, f), float(f @ f), float(np.abs(f).max())

    def step(Y, F, val, lam):
        R, f = F
        JtF = 2.0 * (B.T @ (f[:, None] * R))
        J = (B[:, :, None] * R[:, None, :]).reshape(N, q * r)
        M = 4.0 * (J.T @ J)
        return np.linalg.solve(M + lam * np.eye(q * r), -JtF.ravel()).reshape(q, r)

    return _lm(Y, residuals, step, tol, max_iters)


def solve_feasibility(H: Hypergraph, cfg: SdpConfig | None = None) -> VectorSolution:
    """Find unit vectors meeting every edge-sum constraint within ``cfg.tol``.

    Every solve makes the same attempts: at most two reduced-LM starts at
    rank min(q, 3), when q * min(q, 3) <= ``MAX_DOF``, then one full-space
    start.  Raises :class:`SolverStalled` when no attempt reaches ``tol``
    within its budget.
    """
    cfg = cfg or SdpConfig()
    if H.m == 0:
        return VectorSolution(np.array([1.0]), np.ones((H.n, 1)), 0.0, 0.0, tol=cfg.tol)

    E = H.edge_array()
    G = _edge_gram(E, H.n)

    def attempts():
        """Stacked candidates (X, iterations spent, converged), in the order tried."""
        # Phase 1: exact edge-constraint elimination, unit norms by reduced LM.
        # q >= n+1-m, so when that bound alone puts the system above MAX_DOF
        # the basis is not built.
        if REDUCED_RANK * (H.n + 1 - H.m) <= MAX_DOF:
            B = _edge_null_basis(G)
            q = B.shape[1]
            # q >= 1, as (1, ..., 1, -3) is null, so rank >= 1.
            rank = min(q, REDUCED_RANK)
            if q * rank <= MAX_DOF:
                for attempt in range(2):
                    # Drawn in the ambient space: B @ Y0 is the projection of
                    # one draw onto span B, whichever basis B holds.
                    rng = substream(cfg.seed, f"sdp:reduced:{rank}:{attempt}")
                    Y0 = B.T @ normals(rng, (H.n + 1, rank)) / math.sqrt(rank)
                    Y, it, ok = _reduced_lm(B, Y0, cfg.tol, 300)
                    yield B @ Y, it, ok

        # Phase 2: full-space LM from one seeded start.
        # "sdp:init:0" is the stream this phase has always drawn first: its solutions stay the same.
        rng = substream(cfg.seed, "sdp:init:0")
        X = normals(rng, (H.n + 1, rank_for(H)))
        X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        yield _full_space_lm(X, E, G, cfg.tol, FULL_SPACE_ITERS)

    total_iters = 0
    # Residuals of the candidate with the smallest worst residual: the
    # evidence a stall carries.
    best: tuple[float, float, float] | None = None
    for X, iters, ok in attempts():
        total_iters += iters
        nr, er = _residuals(H, X[H.n], X[: H.n])
        if ok and nr <= cfg.tol and er <= cfg.tol:
            return VectorSolution(
                X[H.n].copy(), X[: H.n].copy(), nr, er, tol=cfg.tol, iters=total_iters
            )
        if best is None or max(nr, er) < best[0]:
            best = (max(nr, er), nr, er)
    _, nr, er = best
    raise SolverStalled("solver stalled above tolerance", nr, er, total_iters)


def gamma_profile(sol: VectorSolution, eps: float) -> GammaProfile:
    """Projections onto the special vector with the balanced/unbalanced split.

    ``eps`` below 100x the solver tolerance would classify solver noise, so it
    is rejected.
    """
    if eps < 100 * sol.tol:
        raise ValueError(f"eps={eps} below 100*tol={100 * sol.tol}; band would be noise")
    return GammaProfile(sol.gamma(), eps)


def unit_orthogonal(v: np.ndarray) -> np.ndarray:
    """A deterministic unit vector orthogonal to v (dim >= 2)."""
    v = np.asarray(v, dtype=float)
    i = int(np.argmin(np.abs(v)))
    e = np.zeros_like(v)
    e[i] = 1.0
    w = e - (v @ e) / max(v @ v, 1e-300) * v
    return w / np.linalg.norm(w)


def ortho_profile(sol: VectorSolution) -> OrthoProfile:
    """Normalized components orthogonal to the special vector.

    A vertex whose component norm is at most 10x solver tolerance is
    degenerate and receives a fixed substitute orthogonal direction.  When the
    solution is one-dimensional the vectors are padded to two dimensions so
    that substitute exists.
    """
    vstar = sol.vstar
    vecs = sol.vecs
    if sol.d < 2:
        vstar = np.concatenate([vstar, [0.0]])
        vecs = np.concatenate([vecs, np.zeros((sol.n, 1))], axis=1)
    # Project against the normalized direction: that keeps the output exactly
    # orthogonal even when the special vector's norm is only 1 +- tol, which
    # matters for vertices with a tiny orthogonal component.
    vhat = vstar / np.linalg.norm(vstar)
    comp = vecs - (vecs @ vhat)[:, None] * vhat[None, :]
    norms = np.linalg.norm(comp, axis=1)
    cutoff = 10.0 * sol.tol
    degen = norms <= cutoff
    ubar = np.empty_like(comp)
    fallback = unit_orthogonal(vstar)
    ubar[degen] = fallback
    ubar[~degen] = comp[~degen] / norms[~degen, None]
    return OrthoProfile(ubar, frozenset(int(v) for v in np.flatnonzero(degen)))
