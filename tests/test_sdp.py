from __future__ import annotations

import numpy as np
import pytest

from lochroma import (
    Hypergraph,
    OrthoProfile,
    SdpConfig,
    SolverStalled,
    VectorSolution,
    gamma_profile,
    gen_balanced_tripartite,
    gen_planted,
    ortho_profile,
    plant_rank1_certificate,
    residual,
    solve_feasibility,
)
from lochroma import sdp
from lochroma.sdp import rank_for

THIRD = 1.0 / 3.0


@pytest.fixture(scope="module")
def planted30():
    return gen_planted(30, 40, 7)


@pytest.fixture(scope="module")
def solved30(planted30):
    return solve_feasibility(planted30.H, SdpConfig(seed=0))


class TestResidual:
    def test_rank1_certificate_zero(self, planted30):
        cert = plant_rank1_certificate(planted30)
        assert residual(planted30.H, cert) == (0.0, 0.0)

    def test_tripartite_certificate(self):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        nr, er = residual(inst.H, cert)
        assert nr <= 1e-12 and er <= 1e-12

    def test_scaled_vector_detected(self, planted30):
        cert = plant_rank1_certificate(planted30)
        vecs = cert.vecs.copy()
        vecs[0] *= 1.1
        bad = VectorSolution.from_vectors(planted30.H, cert.vstar, vecs)
        assert bad.norm_residual == pytest.approx(abs(1.1**2 - 1.0))


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol, planted30):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            SdpConfig(tol=tol)
        cert = plant_rank1_certificate(planted30)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            VectorSolution.from_vectors(planted30.H, cert.vstar, cert.vecs, tol=tol)


class TestSolver:
    def test_cold_start_meets_tolerance(self, solved30):
        assert solved30.norm_residual <= 1e-6
        assert solved30.edge_residual <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_k4_stalls_with_evidence(self, k4_triples, seed):
        # Subtracting constraints of edges sharing a pair forces all four
        # vectors equal, so one edge would need ||3v|| = 1 with ||v|| = 1.
        with pytest.raises(SolverStalled) as exc:
            solve_feasibility(k4_triples, SdpConfig(seed=seed))
        assert exc.value.edge_residual >= 0.1
        # A stall spends the whole budget of each attempt: two reduced
        # attempts of 300 iterations, then the full-space one.  As warnings
        # are errors here, this also shows the damping never overflows.
        assert exc.value.iters == 2 * 300 + sdp.FULL_SPACE_ITERS

    def test_deterministic(self, planted30):
        a = solve_feasibility(planted30.H, SdpConfig(seed=3))
        b = solve_feasibility(planted30.H, SdpConfig(seed=3))
        assert np.array_equal(a.vecs, b.vecs)
        assert np.array_equal(a.vstar, b.vstar)

    def test_empty_hypergraph(self):
        sol = solve_feasibility(Hypergraph(0, []))
        assert sol.n == 0

    def test_default_rank_formula(self, planted30):
        # min(n + 1, ceil(sqrt(2m)) + 2) with n=30, m=40.
        assert rank_for(planted30.H) == 11


class TestGammaProfile:
    def test_rank1_profile(self, planted30):
        cert = plant_rank1_certificate(planted30)
        profile = gamma_profile(cert, 1e-3)
        assert profile.balanced.size == 0
        assert profile.unbalanced.size == 30

    def test_balanced_certificate(self):
        _, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        assert profile.unbalanced.size == 0

    def test_boundary_counts_as_balanced(self):
        eps = 1e-3
        gamma = np.array([-THIRD - eps, -THIRD + eps, -THIRD - 2 * eps])
        from lochroma import GammaProfile

        profile = GammaProfile(gamma, eps)
        assert profile.balanced_mask.tolist() == [True, True, False]

    def test_eps_floor_enforced(self, solved30):
        with pytest.raises(ValueError, match="100"):
            gamma_profile(solved30, 1e-9)


class TestOrthoProfile:
    def test_balanced_certificate_recovers_directions(self):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        op = ortho_profile(cert)
        assert not op.degenerate
        # Substituting into the normalization: (v + e0/3) / sqrt(8/9) is the
        # planar 120-degree direction, a unit vector orthogonal to e0.
        expected = (cert.vecs + cert.vstar / 3.0) / np.sqrt(8.0 / 9.0)
        assert np.abs(op.ubar - expected).max() < 1e-12

    def test_rank1_vertices_degenerate(self, planted30):
        cert = plant_rank1_certificate(planted30)
        op = ortho_profile(cert)
        assert op.degenerate == frozenset(range(30))
        norms = np.linalg.norm(op.ubar, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_orthogonality(self, solved30):
        op = ortho_profile(solved30)
        vstar = solved30.vstar
        if op.dim > solved30.d:
            vstar = np.concatenate([vstar, [0.0]])
        dots = op.ubar @ vstar
        keep = [v for v in range(30) if v not in op.degenerate]
        assert np.abs(dots[keep]).max() <= 10 * solved30.tol + 1e-12

    @pytest.mark.parametrize("ids", [(1, 4, 5, 9), [0, 2, 9], np.array([4, 7]), ()])
    def test_restrict_reindexes_degenerate(self, ids):
        ubar = np.arange(20.0).reshape(10, 2)
        op = OrthoProfile(ubar, frozenset({2, 4, 9}))
        sub = op.restrict(ids)
        ids = list(ids)
        assert np.array_equal(sub.ubar, ubar[ids])
        assert sub.degenerate == frozenset(i for i, v in enumerate(ids) if v in op.degenerate)
        assert all(type(v) is int for v in sub.degenerate)


class TestSolutionInvariants:
    def test_gamma_sum_observation(self, planted30, solved30):
        E = planted30.H.edge_array()
        g = solved30.gamma()
        sums = g[E[:, 0]] + g[E[:, 1]] + g[E[:, 2]]
        assert np.abs(sums + 1.0).max() <= 3 * 1e-6

    def test_inner_product_identities(self, planted30, solved30):
        # Writing gamma = -1/3 + e, each edge satisfies e_a + e_b + e_c = 0
        # and <v_a, v_b> = -1/3 + e_c, all up to residual-scale error.
        g = solved30.gamma()
        eps_of = g + THIRD
        V = solved30.vecs
        for a, b, c in planted30.H.edges:
            assert abs(eps_of[a] + eps_of[b] + eps_of[c]) <= 1e-5
            assert abs(V[a] @ V[b] - (-THIRD + eps_of[c])) <= 1e-5
            assert abs(V[b] @ V[c] - (-THIRD + eps_of[a])) <= 1e-5
            assert abs(V[c] @ V[a] - (-THIRD + eps_of[b])) <= 1e-5

    def test_balanced_edge_direction_bound(self):
        # On the exactly balanced certificate the three orthogonal directions
        # of every edge cancel.
        inst, cert = gen_balanced_tripartite(60, 50, 4)
        op = ortho_profile(cert)
        E = inst.H.edge_array()
        sums = op.ubar[E[:, 0]] + op.ubar[E[:, 1]] + op.ubar[E[:, 2]]
        sq = (sums * sums).sum(axis=1)
        assert sq.max() <= 1e-10

    def test_restrict_keeps_feasibility(self, planted30, solved30):
        from lochroma import induced

        keep = list(range(0, 30, 2))
        sub, ids = induced(planted30.H, keep)
        restricted = solved30.restrict(sub, ids)
        assert restricted.edge_residual <= solved30.edge_residual + 1e-15
        assert restricted.norm_residual <= solved30.norm_residual + 1e-15
