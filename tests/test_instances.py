from __future__ import annotations

import hashlib

import numpy as np
import pytest

from lochroma import (
    GenerationError,
    check_lo,
    gamma_profile,
    gen_balanced_tripartite,
    gen_planted,
    is_linear,
    plant_rank1_certificate,
    residual,
)

from conftest import all_lo_colorings


class TestGenPlanted:
    def test_minimal(self):
        inst = gen_planted(3, 1, 0)
        assert inst.H.m == 1
        assert sorted(inst.planted[v] for v in range(3)) == [1, 1, 2]

    def test_invariants(self):
        inst = gen_planted(30, 40, 7)
        assert is_linear(inst.H)
        assert check_lo(inst.H, inst.planted)

    def test_k4_family_infeasible(self):
        # 4 linear edges on 4 vertices would need all four triples, and
        # exhaustive 2-coloring enumeration shows that family is off-promise.
        from lochroma import Hypergraph

        k4 = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert not list(all_lo_colorings(k4, 2))
        with pytest.raises(GenerationError):
            gen_planted(4, 4, 0)

    def test_deterministic(self):
        a = gen_planted(30, 40, 123)
        b = gen_planted(30, 40, 123)
        assert a.H == b.H and a.planted == b.planted

    def test_seed_changes_instance(self):
        assert gen_planted(30, 40, 1).H != gen_planted(30, 40, 2).H


class TestGenBalancedTripartite:
    def test_unit_norms(self):
        _, cert = gen_balanced_tripartite(30, 25, 1)
        norms = (cert.vecs * cert.vecs).sum(axis=1)
        # 1/9 + 8/9 = 1 exactly, up to float rounding.
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_edge_sums_cancel(self):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        E = inst.H.edge_array()
        T = cert.vecs[E[:, 0]] + cert.vecs[E[:, 1]] + cert.vecs[E[:, 2]] + cert.vstar
        assert np.abs(T).max() < 1e-12

    def test_all_gammas_exactly_balanced(self):
        _, cert = gen_balanced_tripartite(30, 25, 2)
        gamma = cert.gamma()
        assert np.abs(gamma + 1.0 / 3.0).max() < 1e-12
        profile = gamma_profile(cert, 1e-6)
        assert profile.unbalanced.size == 0

    def test_needs_divisible_n(self):
        with pytest.raises(ValueError):
            gen_balanced_tripartite(10, 5, 0)

    def test_invariants_and_residual(self):
        inst, cert = gen_balanced_tripartite(30, 25, 3)
        assert is_linear(inst.H)
        assert check_lo(inst.H, inst.planted)
        nr, er = residual(inst.H, cert)
        assert nr <= 1e-12 and er <= 1e-12


class TestRank1Certificate:
    def test_single_edge_signs(self):
        inst = gen_planted(3, 1, 0)
        cert = plant_rank1_certificate(inst)
        gamma = cert.gamma()
        assert sorted(gamma.tolist()) == [-1.0, -1.0, 1.0]
        assert abs(gamma.sum() + 1.0) < 1e-15

    def test_residual_exact_zero(self):
        inst = gen_planted(30, 40, 5)
        cert = plant_rank1_certificate(inst)
        assert residual(inst.H, cert) == (0.0, 0.0)

    def test_no_vertex_balanced(self):
        inst = gen_planted(30, 40, 6)
        cert = plant_rank1_certificate(inst)
        profile = gamma_profile(cert, 1e-3)
        assert profile.balanced.size == 0
        assert set(np.abs(profile.gamma).tolist()) == {1.0}


class TestRejectionSampler:
    """Both generators share one linear-edge sampler.  Its draws must stay
    the same RNG calls in the same order, so the edge arrays are pinned by
    SHA-256 prefixes taken before the two loops were merged."""

    @pytest.mark.parametrize(
        "gen, n, m, seed, digest",
        [
            (gen_planted, 30, 40, 7, "0a9556ed9e28380c"),
            (gen_planted, 90, 120, 3, "de5003fcd6aeb540"),
            (gen_planted, 300, 900, 11, "701533850f2563f8"),
            (gen_balanced_tripartite, 30, 25, 1, "1af500246ddbab7a"),
            (gen_balanced_tripartite, 90, 480, 2, "937c1c21321c6ea3"),
            (gen_balanced_tripartite, 150, 300, 9, "e5641f17dc009187"),
        ],
    )
    def test_edge_array_digest(self, gen, n, m, seed, digest):
        out = gen(n, m, seed)
        inst = out[0] if isinstance(out, tuple) else out
        E = np.ascontiguousarray(inst.H.edge_array(), dtype="<i8")
        assert hashlib.sha256(E.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "gen, n, m, seed, placed",
        [(gen_planted, 4, 4, 1, 1), (gen_planted, 6, 9, 2, 2),
         (gen_balanced_tripartite, 6, 9, 2, 4), (gen_balanced_tripartite, 9, 30, 1, 7)],
    )
    def test_budget_message(self, gen, n, m, seed, placed):
        with pytest.raises(
            GenerationError,
            match=f"^placed only {placed} of {m} linear edges within the retry budget$",
        ):
            gen(n, m, seed)
