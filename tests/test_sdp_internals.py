"""Solver internals: the edge null-space basis, the skip of an unused basis and
the reduced LM step."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from lochroma import Hypergraph, SdpConfig, solve_feasibility
from lochroma import sdp
from lochroma.hypercore import is_linear
from lochroma.sdp import _edge_null_basis, _reduced_lm, _reduced_rank_ladder


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


def _dense_incidence(H: Hypergraph) -> np.ndarray:
    Z = np.zeros((H.n + 1, H.m))
    for e, (a, b, c) in enumerate(H.edges):
        Z[[a, b, c, H.n], e] = 1.0
    return Z


@pytest.mark.parametrize("wide", [False, True], ids=["m<n+1", "m>=n+1"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_edge_null_basis_matches_svd_reference(wide, data):
    H = data.draw(linear_hypergraphs(wide))
    assert is_linear(H)
    seed = data.draw(st.integers(0, 2**32 - 1))
    B = _edge_null_basis(H, seed)
    Z = _dense_incidence(H)
    ref = null_space(Z.T)
    assert B.shape == ref.shape
    assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-12
    assert np.abs(Z.T @ B).max() <= 1e-12
    assert np.abs(B @ B.T - ref @ ref.T).max() <= 1e-10


def test_edge_null_basis_rotation_follows_seed():
    """On the Gram side the basis is a seeded rotation of one subspace."""
    # The affine plane of order 3 on vertices 0..8, plus two isolated vertices.
    H = Hypergraph(11, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
                        (0, 4, 8), (1, 5, 6), (2, 3, 7), (0, 5, 7), (1, 3, 8), (2, 4, 6)])
    assert _edge_null_basis(H).shape == (12, 3)
    B1, B1_again, B2 = (_edge_null_basis(H, s) for s in (1, 1, 2))
    assert np.array_equal(B1, B1_again)
    assert not np.allclose(B1, B2)
    assert np.abs(B1 @ B1.T - B2 @ B2.T).max() <= 1e-12


@given(
    q_low=st.integers(min_value=9, max_value=2000),
    extra=st.integers(min_value=0, max_value=2000),
    cap=st.none() | st.integers(min_value=-2, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_rank_ladder_shrinks_as_q_grows(q_low, extra, cap):
    """Above q = 8 a wider null space never adds a rank; the basis skip relies on it."""
    assert set(_reduced_rank_ladder(q_low + extra, cap)) <= set(
        _reduced_rank_ladder(q_low, cap)
    )


def test_solve_skips_basis_when_bound_empties_ladder(monkeypatch):
    # 200 disjoint edges on 600 vertices: q >= n+1-m = 401, and 401*3 > 1200.
    H = Hypergraph(600, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(200)])
    assert _reduced_rank_ladder(H.n + 1 - H.m, None) == []

    def forbidden(*args, **kwargs):
        raise AssertionError("null-space basis built for an empty rank ladder")

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
