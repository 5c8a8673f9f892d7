"""Solver internals: the edge Gram, the null-space basis from its pivoted
Cholesky factor and the cut on that factor's pivots, the skip of an unused
basis, the reduced LM step and its one rank, solutions that do not depend on
the choice of null basis, and the full-space LM: its Gauss-Newton matrix,
its CG against scipy's, its inexact steps against a reference, and the
phase alone on planted cores."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh, null_space
from scipy.linalg.lapack import dpstrf
from scipy.sparse.linalg import cg

from lochroma import Hypergraph, SdpConfig, gen_planted, residual, solve_feasibility
from lochroma import sdp
from lochroma.hypercore import induced, is_linear, make_linear
from lochroma.rng import derive_seed
from lochroma.sdp import _edge_null_basis, _reduced_lm


@st.composite
def linear_hypergraphs(draw, wide: bool):
    """Random linear 3-uniform hypergraphs; ``wide`` asks for m >= n+1."""
    n = draw(st.integers(11, 15) if wide else st.integers(3, 15))
    # A greedy pass over all triples in random order gives a maximal linear
    # packing; a prefix of its edges picks the side of m = n+1.
    pairs: set[tuple[int, int]] = set()
    edges = []
    for a, b, c in draw(st.permutations(list(itertools.combinations(range(n), 3)))):
        if pairs.isdisjoint({(a, b), (a, c), (b, c)}):
            pairs.update({(a, b), (a, c), (b, c)})
            edges.append((a, b, c))
    assume(len(edges) >= n + 1 or not wide)
    m = draw(st.integers(n + 1, len(edges)) if wide else st.integers(1, min(n, len(edges))))
    return Hypergraph(n, edges[:m])


def _gram(H: Hypergraph):
    return sdp._edge_gram(H.edge_array(), H.n)


def _planted_core(n: int, m: int, seed: int) -> Hypergraph:
    """The core lo_color solves for gen_planted(n, m, seed)."""
    H_lin, _ = make_linear(gen_planted(n, m, seed).H)
    return induced(H_lin, [v for v, d in enumerate(H_lin.degrees()) if d > 0])[0]


def _dense_incidence(H: Hypergraph) -> np.ndarray:
    Z = np.zeros((H.n + 1, H.m))
    for e, (a, b, c) in enumerate(H.edges):
        Z[[a, b, c, H.n], e] = 1.0
    return Z


@pytest.mark.parametrize("wide", [False, True], ids=["m<n+1", "m>=n+1"])
@given(H=st.booleans().flatmap(linear_hypergraphs))
# One edge and eight isolated vertices: q = 11.  A seeded rotation of this
# basis by a second QR once magnified its rounding off the null space to
# 1.22e-12 on Z^T B.
@example(H=Hypergraph(11, [(5, 7, 10)]))
@settings(max_examples=60, deadline=None)
def test_edge_null_basis_matches_svd_reference(wide, H):
    assume((H.m >= H.n + 1) == wide)
    assert is_linear(H)
    B = _edge_null_basis(_gram(H))
    Z = _dense_incidence(H)
    ref = null_space(Z.T)
    assert B.shape == ref.shape
    assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-12
    assert np.abs(Z.T @ B).max() <= 1e-12
    assert np.abs(B @ B.T - ref @ ref.T).max() <= 1e-10


def test_null_cut_clears_both_sides_of_the_spectrum():
    """On the core of gen_planted(900, 810, 2), the closest measured case to
    the cut (m < n+1, smallest nonzero eigenvalue 4.9e-10 * ||G||_inf), the
    cut sits 100x or more from the zero and the nonzero eigenvalues."""
    H = _planted_core(900, 810, 2)
    assert (H.n, H.m) == (829, 810)
    Z = _dense_incidence(H)
    q = H.n + 1 - np.linalg.matrix_rank(Z)
    Gd = Z @ Z.T
    ev = eigvalsh(Gd)
    cut = sdp.NULL_CUT * Gd.sum(axis=1).max()
    assert _edge_null_basis(_gram(H)).shape == (H.n + 1, q) == (830, 20)
    assert 100 * np.abs(ev[:q]).max() <= cut and 100 * cut <= ev[q]


def test_null_cut_clears_both_sides_of_the_pivots():
    """On the same core, the one with the smallest accepted pivot over 140
    measured planted cores (5.7e-9 * ||G||_inf), every pivot the factor
    takes is 100x or more above the cut, and every diagonal entry of the
    Schur complement it leaves is 100x or more below it."""
    H = _planted_core(900, 810, 2)
    Gd = _gram(H).toarray()
    cut = sdp.NULL_CUT * Gd.sum(axis=1).max()
    L, piv, r, info = dpstrf(Gd, lower=1, tol=cut)
    assert (info, H.n + 1 - r) == (1, 20)
    L1 = np.tril(L[:, :r])
    p = piv - 1
    taken = np.diag(L1[:r]) ** 2
    left = np.diag(Gd)[p[r:]] - (L1[r:] ** 2).sum(axis=1)
    assert taken.min() >= 100 * cut
    assert np.abs(left).max() <= cut / 100


def test_edge_null_basis_matches_eigh_reference_at_planted_dense_size():
    """On a core of planted-dense's largest size the basis spans the
    eigenvectors of G with eigenvalues up to the cut, to 1e-12."""
    H = _planted_core(1200, 3600, 0)
    G = _gram(H)
    Gd = G.toarray()
    cut = sdp.NULL_CUT * Gd.sum(axis=1).max()
    _, U = eigh(Gd, subset_by_value=(-np.inf, cut))
    B = _edge_null_basis(G)
    assert B.shape == U.shape and B.shape[1] >= 1
    assert np.abs(B @ B.T - U @ U.T).max() <= 1e-12


@pytest.mark.parametrize(
    "n, m, seed", [(45, 22, 0), (45, 22, 1), (45, 22, 2), (300, 900, 0), (240, 120, 1)]
)
def test_solution_does_not_depend_on_null_basis(monkeypatch, n, m, seed):
    """Rotating the null basis, B -> B Q, leaves the solve's iterations and
    vectors unchanged, on both sides of m = n+1."""
    H = _planted_core(n, m, seed)
    cfg = SdpConfig(seed=derive_seed(seed, "sdp"))
    ref = solve_feasibility(H, cfg)
    basis = sdp._edge_null_basis

    def rotated(G):
        B = basis(G)
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((B.shape[1],) * 2))
        return B @ Q

    monkeypatch.setattr(sdp, "_edge_null_basis", rotated)
    sol = solve_feasibility(H, cfg)
    assert sol.iters == ref.iters
    assert np.abs(sol.vecs - ref.vecs).max() <= 1e-9
    assert np.abs(sol.vstar - ref.vstar).max() <= 1e-9


def test_solve_skips_basis_when_bound_exceeds_max_dof(monkeypatch):
    # 200 disjoint edges on 600 vertices: q >= n+1-m = 401, and 3*401 > 1200.
    H = Hypergraph(600, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(200)])
    assert sdp.REDUCED_RANK * (H.n + 1 - H.m) > sdp.MAX_DOF

    def forbidden(*args, **kwargs):
        raise AssertionError("null-space basis built for a reduced system above MAX_DOF")

    monkeypatch.setattr(sdp, "_edge_null_basis", forbidden)
    sol = solve_feasibility(H, SdpConfig(seed=0))
    assert sol.norm_residual <= 1e-8 and sol.edge_residual <= 1e-8


def test_reduced_lm_step_matches_einsum_hessian():
    """One LM step equals the step built from the 4-index Hessian sum."""
    rng = np.random.default_rng(0)
    N, q, r = 46, 24, 4
    B = np.linalg.qr(rng.standard_normal((N, q)))[0]
    Y0 = rng.standard_normal((q, r))
    R = B @ Y0
    f = (R * R).sum(axis=1) - 1.0
    JtF = 2.0 * (B.T @ (f[:, None] * R))
    M = 4.0 * np.einsum("ip,is,iq,it->psqt", B, R, B, R).reshape(q * r, q * r)
    step = np.linalg.solve(M + 1e-3 * np.eye(q * r), -JtF.ravel()).reshape(q, r)
    Y1, iters, ok = _reduced_lm(B, Y0, tol=0.0, max_iters=1)
    assert (iters, ok) == (1, False)
    assert np.abs(Y1 - (Y0 + step)).max() <= 1e-10
    assert not np.array_equal(Y1, Y0)


def test_lm_takes_a_failed_step_solve_as_a_rejected_step():
    """A step whose solve raises LinAlgError spends an iteration and raises
    the damping tenfold, and the loop goes on."""
    lams = []

    def residuals(x):
        return None, float(x @ x), float(np.abs(x).max())

    def step(x, F, val, lam):
        lams.append(lam)
        if len(lams) <= 2:
            raise np.linalg.LinAlgError("singular matrix")
        return -x / (1.0 + lam)

    x, iters, ok = sdp._lm(np.array([2.0]), residuals, step, tol=0.0, max_iters=3)
    assert lams == [1e-3, 1e-2, 1e-1]
    assert (iters, ok) == (3, False)
    assert x[0] == 2.0 - 2.0 / 1.1


def _spd_operator(seed, n, r):
    """A random SPD operator on (n, r) arrays, eigenvalues in [0.1, 10], and its matrix."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n * r, n * r)))
    M = (Q * rng.uniform(0.1, 10.0, n * r)) @ Q.T
    calls = []

    def apply(D):
        calls.append(1)
        return (M @ D.ravel()).reshape(n, r)

    return apply, M, calls


@pytest.mark.parametrize("seed, n, r", [(0, 12, 3), (1, 30, 1), (2, 8, 6), (3, 41, 2)])
@pytest.mark.parametrize("rtol", [0.1, 1e-3, 1e-8])
def test_cg_matches_scipy_cg(seed, n, r, rtol):
    """``_cg`` agrees with scipy's ``cg`` to about rtol, and when it returns
    before maxiter its relative residual is at most rtol."""
    apply, M, calls = _spd_operator(seed, n, r)
    B = np.random.default_rng(seed + 100).standard_normal((n, r))
    x = sdp._cg(apply, B, rtol, 500)
    ref, _ = cg(M, B.ravel(), rtol=rtol, atol=0.0, maxiter=500)
    assert x.shape == B.shape
    assert np.linalg.norm(x.ravel() - ref) <= rtol * np.linalg.norm(ref)
    assert len(calls) < 500
    assert np.linalg.norm(B.ravel() - M @ x.ravel()) <= rtol * np.linalg.norm(B)


def test_cg_zero_right_hand_side_returns_zeros():
    apply, _, calls = _spd_operator(0, 10, 2)
    x = sdp._cg(apply, np.zeros((10, 2)), 0.1, 500)
    assert np.array_equal(x, np.zeros((10, 2))) and not calls


@pytest.mark.parametrize("maxiter", [1, 5, 17])
def test_cg_stops_at_maxiter(maxiter):
    apply, M, calls = _spd_operator(4, 20, 3)
    B = np.random.default_rng(5).standard_normal((20, 3))
    x = sdp._cg(apply, B, 0.0, maxiter)
    assert len(calls) == maxiter
    assert np.linalg.norm(B.ravel() - M @ x.ravel()) > 0.0


def _polish_matrix_reference(E, n):
    """The per-edge quadruple loop that built _full_space_lm's Gauss-Newton matrix."""
    rows, cols = [], []
    for a, b, c in E:
        quad = (a, b, c, n)
        for i in quad:
            for j in quad:
                rows.append(i)
                cols.append(j)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))


def _full_space_lm_reference(X, E, tol, max_iters):
    """_full_space_lm with the quadruple-loop matrix A, and the damping and
    stop rules of the shared LM loop written out: each step is ``sdp._cg``
    on (A + lam I) D + 4 diag(X D^T) X to the relative residual
    min(0.1, sqrt(val))."""
    n1, r = X.shape
    n = n1 - 1
    A = _polish_matrix_reference(E, n)

    def residual_parts(Y):
        T = Y[E[:, 0]] + Y[E[:, 1]] + Y[E[:, 2]] + Y[n] if len(E) else np.zeros((0, r))
        return T, (Y * Y).sum(axis=1) - 1.0

    def value(T, g):
        return float((T * T).sum() + (g * g).sum())

    def converged(T, g):
        edge_res = float(np.linalg.norm(T, axis=1).max()) if len(E) else 0.0
        return edge_res <= tol and float(np.abs(g).max()) <= tol

    lam = 1e-3
    T, g = residual_parts(X)
    val = value(T, g)
    iters = 0
    while iters < max_iters and not converged(T, g):
        iters += 1
        JtF = A @ X + 2.0 * g[:, None] * X
        AL = A + lam * sp.identity(n1, format="csr")
        Xc, X4 = X, 4.0 * X

        def apply(D):
            return AL @ D + np.einsum("ij,ij->i", Xc, D)[:, None] * X4

        delta = sdp._cg(apply, -JtF, min(0.1, math.sqrt(val)), 500)
        trial = X + delta
        Tt, gt = residual_parts(trial)
        tv = value(Tt, gt)
        if tv < val:
            X, T, g, val = trial, Tt, gt, tv
            lam = max(lam * 0.3, 1e-14)
        else:
            lam = min(lam * 10.0, 1e9)
    return X, iters, converged(T, g)


@st.composite
def lm_inputs(draw):
    """A linear hypergraph, maybe with degree-0 vertices or no edges, and a random start."""
    if draw(st.integers(0, 7)) == 0:
        H = Hypergraph(draw(st.integers(1, 8)), [])
    else:
        H = draw(linear_hypergraphs(wide=draw(st.booleans())))
    isolated = draw(st.integers(0, 3))
    H = Hypergraph(H.n + isolated, H.edges)
    r = draw(st.integers(1, 6))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((H.n + 1, r))
    return H, X


@given(inputs=lm_inputs())
@settings(max_examples=40, deadline=None)
def test_polish_matrix_is_sorted_incidence_gram(inputs):
    H, _ = inputs
    E = H.edge_array()
    A = sdp._edge_gram(E, H.n)
    ref = _polish_matrix_reference(E, H.n)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


@given(inputs=lm_inputs(), iters=st.integers(1, 8), tol=st.sampled_from([0.0, 1e-8]))
@settings(max_examples=20, deadline=None)
def test_lm_polish_matches_reference(inputs, iters, tol):
    H, X = inputs
    E = H.edge_array()
    G = sdp._edge_gram(E, H.n)
    Xg, ig, okg = sdp._full_space_lm(X.copy(), E, G, tol, iters)
    Xw, iw, okw = _full_space_lm_reference(X.copy(), E, tol, iters)
    assert np.array_equal(Xg, Xw)
    assert (ig, okg) == (iw, okw)


def _stalled_reduced_lm(calls):
    """A stand-in for ``_reduced_lm`` that records the start and reports a stall."""

    def stall(B, Y, tol, max_iters):
        calls.append(Y.shape)
        return Y, max_iters, False

    return stall


@pytest.mark.parametrize(
    "H, cfg",
    [
        (gen_planted(30, 15, 4).H, SdpConfig(seed=0)),
        # A core at m/n = 0.84; the start converges in 81 iterations.
        (_planted_core(150, 112, 1), SdpConfig(seed=1)),
        # The seed lo_color uses for this input.  Convergence is linear near
        # a low-rank solution, and the start needs 116 iterations, above
        # the 80 that each start ran after the removed penalty descent.
        (_planted_core(450, 360, 6), SdpConfig(seed=derive_seed(6, "sdp"))),
        # Again lo_color's seed.  The start converges linearly and needs
        # 299 iterations, more than a cap of 200 per start allows.
        (_planted_core(150, 112, 0), SdpConfig(seed=derive_seed(0, "sdp"))),
    ],
    ids=["planted-30-15-4", "core-150-112-1", "core-450-360-6", "core-150-112-0"],
)
def test_full_space_phase_solves_planted(monkeypatch, H, cfg):
    """With every reduced attempt stalled, phase 2 alone returns a feasible solution."""
    monkeypatch.setattr(sdp, "_reduced_lm", _stalled_reduced_lm([]))
    sol = solve_feasibility(H, cfg)
    assert sol.norm_residual <= cfg.tol and sol.edge_residual <= cfg.tol
    nr, er = residual(H, sol)
    assert nr <= cfg.tol and er <= cfg.tol


def test_reduced_phase_tries_rank_three_twice(monkeypatch):
    """Phase 1 makes two attempts at rank 3, and when both stall the
    full-space phase takes over and returns a feasible solution."""
    H = gen_planted(40, 20, 2).H
    q = _edge_null_basis(_gram(H)).shape[1]
    assert q >= 3 and q * sdp.REDUCED_RANK <= sdp.MAX_DOF
    calls = []
    monkeypatch.setattr(sdp, "_reduced_lm", _stalled_reduced_lm(calls))
    cfg = SdpConfig(seed=0)
    sol = solve_feasibility(H, cfg)
    assert calls == [(q, 3), (q, 3)]
    nr, er = residual(H, sol)
    assert nr <= cfg.tol and er <= cfg.tol


def test_full_space_solves_core_where_rank_three_stalls(monkeypatch):
    """On the core of gen_planted(240, 120, 12), as lo_color solves it with
    pipeline seed 12, both rank-3 attempts stall and the full-space phase
    converges (in 14 iterations)."""
    H = _planted_core(240, 120, 12)
    calls = []
    reduced_lm, full_space_lm = sdp._reduced_lm, sdp._full_space_lm

    def recording(lm):
        def run(*args):
            out = lm(*args)
            calls.append((out[0].shape[1], out[2]))
            return out

        return run

    monkeypatch.setattr(sdp, "_reduced_lm", recording(reduced_lm))
    monkeypatch.setattr(sdp, "_full_space_lm", recording(full_space_lm))
    sol = solve_feasibility(H, SdpConfig(seed=derive_seed(12, "sdp")))
    assert calls == [(3, False), (3, False), (sdp.rank_for(H), True)]
    assert max(residual(H, sol)) <= sol.tol
