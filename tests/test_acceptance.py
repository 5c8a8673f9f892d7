"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints a short summary line (visible with ``-s``).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import null_space

import lochroma as lc
from lochroma import rng as lrng
from lochroma.combround import check_gamma_sums
from lochroma.gaussround import RoundingConfig

THIRD = 1.0 / 3.0

SOLVE_SIZES = [30] * 17 + [60] * 17 + [120] * 16


@pytest.fixture(scope="module")
def solved_corpus():
    """50 planted instances (n in {30, 60, 120}, m ~ 1.3 n) with solutions."""
    corpus = []
    for i, n in enumerate(SOLVE_SIZES):
        inst = lc.gen_planted(n, round(1.3 * n), 1000 + i)
        t0 = time.perf_counter()
        sol = lc.solve_feasibility(inst.H, lc.SdpConfig(seed=i, tol=1e-8))
        corpus.append((inst, sol, time.perf_counter() - t0))
    return corpus


@pytest.fixture(scope="module")
def k4():
    return lc.Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_criterion_01_sdp_feasibility(solved_corpus, k4):
    for inst, sol, dt in solved_corpus:
        assert sol.norm_residual <= 1e-6
        assert sol.edge_residual <= 1e-6
        assert dt <= 10.0
    with pytest.raises(lc.SolverStalled) as exc:
        lc.solve_feasibility(k4, lc.SdpConfig(seed=0))
    assert exc.value.edge_residual >= 0.1
    worst = max(max(s.norm_residual, s.edge_residual) for _, s, _ in solved_corpus)
    slowest = max(dt for _, _, dt in solved_corpus)
    print(f"[PASS] criterion 1: 50 solves, worst residual {worst:.2e}, "
          f"slowest {slowest:.2f}s, K4 stall edge residual "
          f"{exc.value.edge_residual:.3f}")


def test_criterion_02_gamma_identities(solved_corpus):
    worst_sum = worst_inner = 0.0
    for inst, sol, _ in solved_corpus:
        E = inst.H.edge_array()
        g = sol.gamma()
        sums = g[E[:, 0]] + g[E[:, 1]] + g[E[:, 2]]
        worst_sum = max(worst_sum, float(np.abs(sums + 1.0).max()))
        assert np.abs(sums + 1.0).max() <= 3e-6
        eps_of = g + THIRD
        V = sol.vecs
        for cols, opposite in (((0, 1), 2), ((1, 2), 0), ((2, 0), 1)):
            dots = (V[E[:, cols[0]]] * V[E[:, cols[1]]]).sum(axis=1)
            err = np.abs(dots - (-THIRD + eps_of[E[:, opposite]])).max()
            worst_inner = max(worst_inner, float(err))
            assert err <= 1e-5
        zero = np.abs(eps_of[E[:, 0]] + eps_of[E[:, 1]] + eps_of[E[:, 2]]).max()
        assert zero <= 1e-5
    print(f"[PASS] criterion 2: gamma sums off by <= {worst_sum:.2e}, "
          f"inner products off by <= {worst_inner:.2e}")


def test_criterion_03_bisection_exactness(solved_corpus):
    for j in range(65):
        assert lc.interval(j) == lc.interval_by_recurrence(j)
    for eps in (1e-2, 1e-4, 1e-6):
        sched = lc.schedule(eps)
        assert sched.T <= math.ceil(math.log2(4.0 / (3.0 * eps)))
        # Rounding executes exactly the schedule's iterations: top rank == T.
        profile = lc.GammaProfile(np.array([1.0, -1.0, -1.0]), eps)
        col = lc.combinatorial_rounding(lc.Hypergraph(3, [(0, 1, 2)]), profile)
        assert col.max_rank() == sched.T

    two_color_checked = 0
    for i in range(0, 50, 5):
        inst = lc.gen_planted(SOLVE_SIZES[i], round(1.3 * SOLVE_SIZES[i]), 1000 + i)
        profile = lc.gamma_profile(lc.plant_rank1_certificate(inst), 1e-6)
        coloring = lc.combinatorial_rounding(inst.H, profile)
        assert coloring.domain() == frozenset(range(inst.H.n))
        assert coloring.num_colors() == 2
        assert lc.check_partial_lo(inst.H, coloring)
        two_color_checked += 1

    # 200 randomized exact-sum profiles: every per-iteration color class is an
    # odd independent set on the hypergraph induced by the still-alive band.
    rng = np.random.default_rng(42)
    checked_sets = 0
    for trial in range(200):
        n_t = 15 + trial % 10
        inst = lc.gen_planted(n_t, round(1.2 * n_t), 2000 + trial)
        H = inst.H
        A = np.zeros((H.m, H.n))
        for ei, e in enumerate(H.edges):
            A[ei, list(e)] = 1.0
        N = null_space(A)
        direction = N @ rng.normal(size=N.shape[1])
        scale = 0.6 / max(np.abs(direction).max(), 1e-9)
        gamma = np.full(H.n, -THIRD) + scale * direction
        check_gamma_sums(H, gamma, 1e-9)
        profile = lc.GammaProfile(gamma, 1e-4)
        sched = lc.schedule(1e-4)
        coloring = lc.combinatorial_rounding(H, profile)
        assert lc.check_partial_lo(H, coloring)
        for j in range(sched.T):
            rank = sched.T - j
            S_j = {v for v in range(H.n) if coloring.get(v) == rank}
            if not S_j:
                continue
            lo, hi = float(sched.lowers[j]), float(sched.uppers[j])
            alive = [v for v in range(H.n) if lo <= gamma[v] <= hi]
            sub, ids = lc.induced(H, alive)
            index = {old: new for new, old in enumerate(ids)}
            assert lc.check_odd_is(sub, [index[v] for v in S_j])
            checked_sets += 1
    print(f"[PASS] criterion 3: intervals exact to j=64, iteration bounds hold, "
          f"{two_color_checked} rank-1 colorings used exactly 2 colors, "
          f"{checked_sets} per-iteration sets odd-independent over 200 profiles")


def test_criterion_04_balanced_direction_bound():
    worst_exact = 0.0
    for seed in (1, 2, 3):
        inst, cert = lc.gen_balanced_tripartite(60, 50, seed)
        op = lc.ortho_profile(cert)
        E = inst.H.edge_array()
        sums = op.ubar[E[:, 0]] + op.ubar[E[:, 1]] + op.ubar[E[:, 2]]
        sq = (sums * sums).sum(axis=1)
        worst_exact = max(worst_exact, float(sq.max()))
        assert sq.max() <= 1e-10

    # Solver outputs near the balanced manifold: the solver's full-space LM
    # started from a noisy certificate, zero-padded to the phase's rank,
    # then classify at eps = 1e-4 and check the quadratic bound.
    eps = 1e-4
    worst_ratio = 0.0
    balanced_edges = 0
    for seed in (4, 5, 6):
        inst, cert = lc.gen_balanced_tripartite(30, 25, seed)
        H = inst.H
        noise = lrng.normals(lrng.substream(seed, "accept4"), cert.vecs.shape)
        # Noise small enough that the converged gammas stay 1e-4-balanced.
        X = np.zeros((H.n + 1, lc.sdp.rank_for(H)))
        X[: H.n, : cert.d] = cert.vecs + 1e-5 * noise
        X[H.n, : cert.d] = cert.vstar
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        E = H.edge_array()
        G = lc.sdp._edge_gram(E, H.n)
        X, iters, _ = lc.sdp._full_space_lm(X, E, G, 1e-10, lc.sdp.FULL_SPACE_ITERS)
        sol = lc.VectorSolution.from_vectors(H, X[H.n], X[: H.n], tol=1e-10, iters=iters)
        assert sol.edge_residual <= 1e-10
        profile = lc.gamma_profile(sol, eps)
        op = lc.ortho_profile(sol)
        for a, b, c in inst.H.edges:
            if not (profile.balanced_mask[a] and profile.balanced_mask[b]
                    and profile.balanced_mask[c]):
                continue
            s = op.ubar[a] + op.ubar[b] + op.ubar[c]
            val = float(s @ s)
            assert val <= 18.0 * eps + 1e-6
            worst_ratio = max(worst_ratio, val / (18.0 * eps))
            balanced_edges += 1
    assert balanced_edges > 0
    print(f"[PASS] criterion 4: exact certificates <= {worst_exact:.1e}; "
          f"{balanced_edges} solver balanced edges within 18*eps "
          f"(worst at {worst_ratio:.3f} of the bound)")


def test_criterion_05_threshold_rounding_statistics():
    inst, cert = lc.gen_balanced_tripartite(300, 200, 77)
    stats = lc.degree_stats(inst.H)
    assert stats.delta_bar == 2.0  # clamped up to 4 inside the config
    cfg = RoundingConfig.for_degree(stats.delta_bar, seed=20250809)
    assert cfg.delta == 4.0
    assert cfg.alpha == pytest.approx(0.016720, abs=1e-6)
    op = lc.ortho_profile(cert)
    trace = lc.threshold_trace(inst.H, op, cfg, draws=500)
    raw_sizes = np.array([len(raw) for raw, _ in trace], dtype=float)
    kept_sizes = np.array([len(kept) for _, kept in trace], dtype=float)
    for _, kept in trace:
        assert lc.check_odd_is(inst.H, kept)
    target = cfg.alpha * inst.H.n
    se = raw_sizes.std(ddof=1) / math.sqrt(len(raw_sizes))
    assert abs(raw_sizes.mean() - target) <= 3.0 * se
    assert kept_sizes.mean() >= 0.5 * target
    print(f"[PASS] criterion 5: mean |S| {raw_sizes.mean():.2f} vs alpha*n "
          f"{target:.2f} (3SE = {3 * se:.2f}); mean |S'| {kept_sizes.mean():.2f} "
          f">= {0.5 * target:.2f}; 500/500 draws odd-independent")


def test_criterion_06_pair_correlation_bound():
    _, cert = lc.gen_balanced_tripartite(3, 1, 5)
    op = lc.ortho_profile(cert)
    t = lc.gcap_inv(0.0167)
    draws = 10**5
    G = lrng.normals(lrng.substream(99, "accept6"), (draws, op.dim))
    Z = (G @ op.ubar.T) >= t
    bound = lc.gcap(2.0 * t)
    worst = 0.0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        phat = float(np.mean(Z[:, a] & Z[:, b]))
        se = math.sqrt(max(phat * (1.0 - phat), 0.0) / draws)
        assert phat <= bound + 3.0 * se
        worst = max(worst, phat)
    print(f"[PASS] criterion 6: worst pair rate {worst:.2e} <= "
          f"gcap(2t) = {bound:.2e} (+3SE)")


def test_criterion_07_gaussian_facts():
    report = lc.check_gaussian_facts()
    assert report.ok
    import mpmath

    worst = 0.0
    with mpmath.workdps(30):
        for t in np.linspace(-2.0, 6.0, 50):
            oracle = float(
                mpmath.quad(
                    lambda x: mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi),
                    [float(t), mpmath.inf],
                )
            )
            worst = max(worst, abs(lc.gcap(float(t)) - oracle))
    assert worst <= 1e-12
    print(f"[PASS] criterion 7: four tail inequalities hold on the grids "
          f"(min margin {min(report.sandwich_margin, report.concentration_margin, report.inv_log_margin, report.double_t_margin):.2e}); "
          f"gcap within {worst:.1e} of quadrature at 50 points")


def test_criterion_08_logn_color_bound():
    bound = lc.logn_color_bound(1e-6)
    assert bound == 44
    worst_colors = 0
    slowest = 0.0
    for n in (30, 60, 120, 200, 400):
        for seed in (0, 1):
            inst = lc.gen_planted(n, round(1.3 * n), 300 + seed)
            t0 = time.perf_counter()
            coloring, report = lc.lo_color(
                inst.H, lc.PipelineConfig(strategy="logn", eps=1e-6, seed=seed)
            )
            dt = time.perf_counter() - t0
            assert lc.check_lo(inst.H, coloring)
            assert report.colors <= bound
            assert dt <= 60.0
            worst_colors = max(worst_colors, report.colors)
            slowest = max(slowest, dt)
    print(f"[PASS] criterion 8: 10 planted runs (n <= 400), max colors "
          f"{worst_colors} <= {bound}, slowest {slowest:.1f}s <= 60s")


def test_criterion_09_n15_bench_validity_and_scaling():
    cfg = lc.PipelineConfig(strategy="n15", seed=424242)
    rows, slope = lc.bench_rows([50, 100, 200, 400], 5, cfg)
    assert len(rows) == 20
    for row in rows:
        assert row.status == "ok"
        assert 0 < row.colors <= row.n / 2
    # Inspect validity directly for a sample row's parameters.
    inst = lc.gen_planted(200, 260, lrng.derive_seed(424242, "bench:200:0"))
    coloring, _ = lc.lo_color(
        inst.H, replace(cfg, seed=lrng.derive_seed(424242, "bench:200:0"))
    )
    assert lc.check_lo(inst.H, coloring)
    print(f"[PASS] criterion 9: 20/20 bench runs valid, colors <= n/2; "
          f"fitted log-log slope {slope:.3f} (informational)")


def test_criterion_10_oracle_equivalence(k4):
    # 2-LO status matches the exhaustive oracle on every tiny corpus entry.
    corpus = []
    for seed in range(4):
        inst = lc.gen_planted(9 + seed, 7 + seed, 3000 + seed)
        corpus.append((inst.H, True))
    corpus.append((k4, False))
    for H, promised in corpus:
        got = lc.brute_lo(H, 2) is not None
        assert got == promised

    sets_checked = 0
    for H, promised in corpus:
        max_even = lc.brute_max_even_is(H)
        max_odd = lc.brute_max_odd_is(H)
        if lc.is_linear(H):
            S = lc.even_independent_set(H)
            assert len(S) <= len(max_even)
            sets_checked += 1
        if promised:
            inst_sol = lc.plant_rank1_certificate(
                lc.PlantedInstance(H, lc.brute_lo(H, 2), 0)
            )
            op = lc.ortho_profile(inst_sol)
            cfg = RoundingConfig.for_degree(4.0, seed=1)
            for draw in range(10):
                S = lc.sample_round(H, op, cfg, draw=draw)
                assert len(S) <= len(max_odd)
                sets_checked += 1

    # Linearity reduction round trip against brute-force colorings.
    H = lc.Hypergraph(5, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
    H2, M = make_lin = lc.make_linear(H)
    lifted_any = False
    for k in (2, 3):
        c2 = lc.brute_lo(H2, k)
        if c2 is not None:
            assert lc.check_lo(H, lc.lift_coloring(M, c2))
            lifted_any = True
    assert lifted_any
    print(f"[PASS] criterion 10: 2-LO status matches enumeration on 5 instances, "
          f"{sets_checked} heuristic sets bounded by brute maxima, "
          f"reduction round trip preserves validity")


def test_criterion_11_two_coloring_supplement():
    runs = 0
    for seed in range(5):
        inst, cert = lc.gen_balanced_tripartite(30, 25, 700 + seed)
        for s in range(20):
            coloring = lc.two_sided_round(inst.H, cert, seed=s)
            for e in inst.H.edges:
                assert len({coloring[v] for v in e}) >= 2
            runs += 1
    for seed in range(5):
        inst = lc.gen_planted(30, 40, 800 + seed)
        sol = lc.solve_feasibility(inst.H, lc.SdpConfig(seed=seed))
        for s in range(20):
            coloring = lc.two_sided_round(inst.H, sol, seed=s)
            for e in inst.H.edges:
                assert len({coloring[v] for v in e}) >= 2
            runs += 1
    assert runs == 200
    print(f"[PASS] criterion 11: {runs}/200 seeded runs proper 2-colorings, "
          f"zero failures after retries")


def test_criterion_12_determinism(tmp_path):
    from lochroma.cli import main

    inst_path = tmp_path / "det.h3"
    assert main(["--seed", "9", "gen", "--kind", "planted", "--n", "60",
                 "--m", "78", "-o", str(inst_path)]) == 0
    blobs = []
    for i in (1, 2):
        out = tmp_path / f"det{i}.coloring"
        assert main(["--seed", "11", "color", str(inst_path), "--strategy",
                     "logn", "-o", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    cfg = lc.PipelineConfig(strategy="n15", seed=31337)
    rows_a, _ = lc.bench_rows([30, 60], 2, cfg)
    rows_b, _ = lc.bench_rows([30, 60], 2, cfg)
    assert [r.csv_row() for r in rows_a] == [r.csv_row() for r in rows_b]
    print("[PASS] criterion 12: byte-identical coloring files and CSV rows "
          "across repeated seeded runs")
