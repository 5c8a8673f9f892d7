from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from lochroma import (
    Hypergraph,
    PipelineConfig,
    RankedColoring,
    SdpConfig,
    VectorSolution,
    check_lo,
    check_partial_lo,
    color_balanced,
    combinatorial_rounding,
    combine,
    extend_with_even,
    extend_with_odd,
    gamma_profile,
    gen_balanced_tripartite,
    gen_planted,
    induced,
    lo_color,
    logn_color_bound,
    make_linear,
    ortho_profile,
    solve_feasibility,
)
from lochroma.rng import derive_seed


class TestExtend:
    def test_odd_on_empty_coloring(self, single_edge):
        c = extend_with_odd(single_edge, RankedColoring(), {0})
        assert c[0] == 1

    def test_odd_gets_rank_above(self, star_three):
        base = RankedColoring({1: 1, 2: 2})
        c = extend_with_odd(star_three, base, {0})
        assert c[0] == 3

    def test_even_gets_rank_below(self, star_three):
        base = RankedColoring({0: 1, 1: 2})
        c = extend_with_even(star_three, base, {3, 4})
        assert c[3] == c[4] == 0

    def test_odd_checks_independence(self, single_edge):
        # The colored vertex 2 was left when {0, 1} was drawn, so the edge is
        # checked.
        with pytest.raises(
            ValueError, match="odd independent on the vertices left when it was drawn"
        ):
            extend_with_odd(single_edge, RankedColoring({2: 1}), {0, 1})

    def test_even_checks_independence(self, single_edge):
        with pytest.raises(ValueError, match="even independent"):
            extend_with_even(single_edge, RankedColoring({1: 1, 2: 2}), {0})

    def test_earlier_rounds_are_not_checked(self, single_edge):
        # Vertex 2 is uncolored: it was drawn in an earlier round, so the
        # edge is not induced on the vertices left when {0, 1} was drawn.
        c = extend_with_odd(single_edge, RankedColoring(), {0, 1})
        assert c[0] == c[1] == 1

    def test_rejects_overlap(self, single_edge):
        with pytest.raises(ValueError, match="overlap"):
            extend_with_odd(single_edge, RankedColoring({0: 1}), {0})


class TestCombine:
    def test_shifts_unbalanced_above(self):
        H = Hypergraph(3, [])
        c_u = RankedColoring({0: 1})
        c_b = RankedColoring({1: 1, 2: 1})
        merged = combine(H, c_u, c_b)
        assert merged[0] > merged[1]
        assert merged.num_colors() == 2

    def test_color_count_is_sum(self):
        H = Hypergraph(6, [])
        c_u = RankedColoring({0: 3, 1: 9})
        c_b = RankedColoring({2: 1, 3: 2, 4: 5, 5: 5})
        merged = combine(H, c_u, c_b)
        assert merged.num_colors() == c_u.num_colors() + c_b.num_colors()

    def test_empty_balanced_part(self, single_edge):
        c_u = RankedColoring({0: 2, 1: 1, 2: 1})
        merged = combine(single_edge, c_u, RankedColoring())
        assert merged == c_u

    def test_detects_violated_preconditions(self, single_edge):
        # Both of an edge's base vertices in the balanced part at equal rank
        # with the third vertex above: the shifted union has a unique max,
        # but equal-rank pairs below are fine; instead make all three equal.
        c_u = RankedColoring()
        c_b = RankedColoring({0: 1, 1: 1, 2: 1})
        with pytest.raises(ValueError):
            combine(single_edge, c_u, c_b)


class TestColorBalanced:
    def test_tripartite_instance(self):
        inst, cert = gen_balanced_tripartite(60, 40, 3)
        cfg = PipelineConfig(seed=1)
        coloring = color_balanced(inst.H, ortho_profile(cert), cfg)
        assert check_lo(inst.H, coloring)

    def test_no_edges_single_color(self):
        inst, cert = gen_balanced_tripartite(6, 1, 0)
        H = Hypergraph(4, [])
        coloring = color_balanced(H, ortho_profile(cert), PipelineConfig(seed=0))
        assert coloring.num_colors() == 1

    def test_single_balanced_edge(self):
        inst, cert = gen_balanced_tripartite(3, 1, 0)
        coloring = color_balanced(inst.H, ortho_profile(cert), PipelineConfig(seed=2))
        assert check_lo(inst.H, coloring)
        assert coloring.num_colors() <= 2

    def test_uses_even_route_at_high_degree(self):
        # delta_exponent near zero forces the even route immediately.
        inst, cert = gen_balanced_tripartite(30, 25, 7)
        cfg = PipelineConfig(seed=3, delta_exponent=1e-9)
        coloring = color_balanced(inst.H, ortho_profile(cert), cfg)
        assert check_lo(inst.H, coloring)


def z3_line_core(d: int, keep: float, seed: int) -> tuple[Hypergraph, VectorSolution]:
    """Seeded lines of Z_3^d with an exactly balanced certificate, on the
    vertices of positive degree.

    Vertex x (base-3 numbered) gets -e0/3 + (2 sqrt 2 / 3) omega^x / sqrt d
    as cos/sin pairs, with e0 the special vector; every line's vectors sum
    to -e0, so every gamma is -1/3.
    """
    n = 3**d
    pts = np.array(list(itertools.product(range(3), repeat=d)), dtype=np.int64)
    weights = 3 ** np.arange(d - 1, -1, -1)
    dirs = np.array([(1,) + o for o in itertools.product((1, 2), repeat=d - 1)])
    a = np.repeat(np.arange(n), len(dirs))
    step = np.tile(dirs, (n, 1))
    b = ((pts[a] + step) % 3) @ weights
    c = ((pts[a] + 2 * step) % 3) @ weights
    lines = np.unique(np.sort(np.stack([a, b, c], axis=1), axis=1), axis=0)
    kept = lines[np.random.Generator(np.random.PCG64(seed)).random(len(lines)) < keep]
    H = Hypergraph(n, kept.tolist())
    angle = 2.0 * math.pi * pts / 3.0
    ring = np.empty((n, 2 * d))
    ring[:, 0::2] = np.cos(angle)
    ring[:, 1::2] = np.sin(angle)
    vecs = np.concatenate(
        [np.full((n, 1), -1.0 / 3.0), (2.0 * math.sqrt(2.0) / 3.0) * ring / math.sqrt(d)],
        axis=1,
    )
    vstar = np.zeros(2 * d + 1)
    vstar[0] = 1.0
    core = [v for v, deg in enumerate(H.degrees()) if deg > 0]
    H_core, ids = induced(H, core)
    return H_core, VectorSolution.from_vectors(H_core, vstar, vecs[list(ids)], tol=1e-9)


class TestKnownDefects:
    def test_n15_z3_core_assembles(self):
        H, cert = z3_line_core(3, 0.5, 56)
        assert (H.n, H.m) == (25, 15)
        assert max(cert.norm_residual, cert.edge_residual) <= 1e-9
        coloring = color_balanced(H, ortho_profile(cert), PipelineConfig(seed=0))
        assert check_lo(H, coloring)

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="bisection windows are half-open with no margin, so gammas within "
        "the sum slack of a window endpoint can land on either side of it",
    )
    def test_bisection_endpoint_ties(self):
        # The input checks use pytest.fail: an AssertionError there would
        # pass for the expected failure.
        H_lin, _ = make_linear(gen_planted(400, 200, 0).H)
        core, _ = induced(H_lin, [v for v, d in enumerate(H_lin.degrees()) if d > 0])
        if (core.n, core.m) != (303, 200):
            pytest.fail(f"core has shape {(core.n, core.m)}, expected (303, 200)")
        seed = derive_seed(0, "sdp")
        a, b = (solve_feasibility(core, SdpConfig(seed=s)) for s in (seed, seed + 7919))
        # The average of two solutions, side by side and scaled, is feasible.
        sol = VectorSolution.from_vectors(
            core,
            np.concatenate([a.vstar, b.vstar]) / math.sqrt(2.0),
            np.hstack([a.vecs, b.vecs]) / math.sqrt(2.0),
        )
        if max(sol.norm_residual, sol.edge_residual) > 1e-8:
            pytest.fail("the averaged solution is not feasible")
        # Edge (23, 136, 199) has gammas (3.3e-12, 1.1e-11, -1.0): both near
        # zeros fall just above the endpoint 0 and get the same top rank.
        coloring = combinatorial_rounding(core, gamma_profile(sol, 1e-6), sum_slack=3e-8)
        assert check_partial_lo(core, coloring)


class TestLoColor:
    def test_single_edge(self, single_edge):
        coloring, report = lo_color(single_edge, PipelineConfig(seed=0))
        assert check_lo(single_edge, coloring)
        assert report.colors == 2
        assert sorted(coloring[v] for v in range(3)) == [1, 1, 2]

    def test_planted_n15(self):
        inst = gen_planted(100, 130, 3)
        coloring, report = lo_color(inst.H, PipelineConfig(strategy="n15", seed=1))
        assert check_lo(inst.H, coloring)
        assert report.colors <= 50

    def test_planted_logn(self):
        inst = gen_planted(100, 130, 3)
        coloring, report = lo_color(inst.H, PipelineConfig(strategy="logn", seed=1))
        assert check_lo(inst.H, coloring)
        assert report.colors <= logn_color_bound(1e-6) == 44

    def test_normalized_output(self):
        inst = gen_planted(30, 40, 8)
        coloring, report = lo_color(inst.H, PipelineConfig(seed=5))
        ranks = coloring.used_ranks()
        assert ranks == list(range(1, len(ranks) + 1))

    def test_edgeless_instance(self):
        H = Hypergraph(5, [])
        coloring, report = lo_color(H, PipelineConfig(seed=0))
        assert report.colors == 1
        assert check_lo(H, coloring)

    def test_nonlinear_instance_reduced(self):
        H = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
        coloring, report = lo_color(H, PipelineConfig(seed=4))
        assert check_lo(H, coloring)

    def test_deterministic(self):
        inst = gen_planted(30, 40, 2)
        cfg = PipelineConfig(strategy="logn", seed=9)
        a, ra = lo_color(inst.H, cfg)
        b, rb = lo_color(inst.H, cfg)
        assert a == b
        assert ra.csv_row() == rb.csv_row()

    def test_balanced_tripartite_both_strategies(self):
        inst, _ = gen_balanced_tripartite(30, 25, 1)
        for strategy in ("n15", "logn"):
            coloring, report = lo_color(inst.H, PipelineConfig(strategy=strategy, seed=2))
            assert check_lo(inst.H, coloring)


class TestConfig:
    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError):
            PipelineConfig(strategy="fast")

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            PipelineConfig(delta_exponent=1.5)

    def test_rejects_eps_below_tol_floor(self):
        from lochroma import SdpConfig

        with pytest.raises(ValueError):
            PipelineConfig(eps=1e-9, sdp=SdpConfig(tol=1e-8))


class TestBalancedBranchEngaged:
    """Sparse instances with a wide balance band leave solver gammas inside
    the band, so these runs route vertices through the balanced branch of the
    pipeline proper (certificate-driven unit tests cover the components)."""

    def test_logn_with_wide_band(self):
        inst = gen_planted(15, 6, 7005)
        cfg = PipelineConfig(strategy="logn", eps=2e-1, seed=0)
        coloring, report = lo_color(inst.H, cfg)
        assert report.balanced > 0
        assert check_lo(inst.H, coloring)
        from lochroma import logn_color_bound

        assert report.colors <= logn_color_bound(2e-1)

    def test_n15_with_wide_band(self):
        inst = gen_planted(15, 6, 7005)
        cfg = PipelineConfig(strategy="n15", eps=2e-1, seed=0)
        coloring, report = lo_color(inst.H, cfg)
        assert report.balanced > 0
        assert check_lo(inst.H, coloring)

    def test_polarized_solution_skips_branch(self):
        inst = gen_planted(60, 78, 12)
        coloring, report = lo_color(inst.H, PipelineConfig(seed=3))
        assert check_lo(inst.H, coloring)
        # The solver polarizes this family, leaving no balanced remainder.
        assert report.balanced == 0
