from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochroma import (
    GammaProfile,
    Hypergraph,
    OrthoProfile,
    RankedColoring,
    ResampleBudgetExceeded,
    balanced_log_coloring,
    check_lo,
    check_odd_is,
    check_partial_lo,
    combinatorial_rounding,
    gamma_profile,
    gen_balanced_tripartite,
    gen_planted,
    induced,
    interval,
    interval_by_recurrence,
    ortho_profile,
    perturb_gammas,
    plant_rank1_certificate,
    schedule,
)
from lochroma import combround
from lochroma.combround import check_gamma_sums
from lochroma.rng import derive_seed

THIRD = 1.0 / 3.0


class TestIntervals:
    def test_first_interval(self):
        assert interval(1) == (Fraction(-1), Fraction(0))

    def test_second_interval(self):
        assert interval(2) == (Fraction(-1, 2), Fraction(0))

    def test_third_interval(self):
        # Odd closed form at j=3: upper -(4-1)/3/4 = -1/4, lower -1/2.
        assert interval(3) == (Fraction(-1, 2), Fraction(-1, 4))

    def test_closed_form_equals_recurrence_exactly(self):
        for j in range(65):
            assert interval(j) == interval_by_recurrence(j)

    def test_nesting(self):
        for j in range(30):
            lo, hi = interval(j)
            lo1, hi1 = interval(j + 1)
            assert lo <= lo1 and hi1 <= hi
            assert (hi1 - lo1) * 2 == hi - lo


class TestSchedule:
    def test_eps_third_by_direct_nesting(self):
        # Iterate the recurrence: I_1 = [-1, 0] is not inside [-2/3, 0],
        # I_2 = [-1/2, 0] is, so the loop runs exactly twice.
        band_lo, band_hi = Fraction(-2, 3), Fraction(0)
        j = 0
        while True:
            lo, hi = interval_by_recurrence(j)
            if band_lo <= lo and hi <= band_hi:
                break
            j += 1
        assert j == 2
        assert schedule(Fraction(1, 3)).T == 2
        # The binary double nearest 1/3 sits just below it, which shrinks the
        # band enough to need one more halving; the exact bound moves with it.
        assert schedule(1.0 / 3.0).T == 3

    def test_eps_1e6_bound(self):
        sched = schedule(1e-6)
        assert sched.T <= math.ceil(math.log2(4.0 / 3e-6)) == 21

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_iteration_bound(self, eps):
        assert schedule(eps).T <= math.ceil(math.log2(4.0 / (3.0 * eps)))

    def test_band_containment_monotone(self):
        sched = schedule(1e-3)
        band_lo = Fraction(-1, 3) - Fraction(1e-3)
        band_hi = Fraction(-1, 3) + Fraction(1e-3)
        inside = [
            band_lo <= sched.lowers[j] and sched.uppers[j] <= band_hi
            for j in range(sched.T + 1)
        ]
        # Once inside, always inside (nested intervals).
        first = inside.index(True)
        assert all(inside[first:])
        assert first == sched.T

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            schedule(0.7)
        with pytest.raises(ValueError):
            schedule(0.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                schedule(bad)

    def test_built_once_per_eps(self):
        assert schedule(1e-6) is schedule(1e-6)

    def test_invalid_eps_raises_on_every_call(self):
        # A raising call caches nothing, so a repeat raises again.
        for _ in range(3):
            with pytest.raises(ValueError):
                schedule(0.7)
            with pytest.raises(ValueError):
                schedule(-1e-6)


class TestRounding:
    def test_single_edge_trace(self, single_edge):
        # Hand trace with gamma (1, -1, -1): iteration 1 colors (0, 1], so
        # only the +1 vertex, with the top rank T; iteration 2 colors
        # [-1, -1/2), both -1 vertices, with rank T-1.
        profile = GammaProfile(np.array([1.0, -1.0, -1.0]), 1e-3)
        coloring = combinatorial_rounding(single_edge, profile)
        T = schedule(1e-3).T
        assert coloring[0] == T
        assert coloring[1] == coloring[2] == T - 1
        assert check_partial_lo(single_edge, coloring)
        assert coloring.num_colors() == 2

    def test_all_balanced_empty(self, single_edge):
        profile = GammaProfile(np.array([-THIRD] * 3), 1e-3)
        assert len(combinatorial_rounding(single_edge, profile)) == 0

    def test_surviving_midpoint_stays_uncolored_that_round(self):
        # j = 0 keeps the lower half [-1, 0]; gamma exactly 0 sits on the
        # surviving boundary and is not colored in round 1.
        H = Hypergraph(3, [])
        profile = GammaProfile(np.array([0.0, 0.5, -0.9]), 1e-2)
        coloring = combinatorial_rounding(H, profile)
        T = schedule(1e-2).T
        assert coloring[1] == T          # in (0, 1]
        assert coloring.get(0) != T      # not taken by round 1

    def test_rank1_certificate_two_colors(self):
        inst = gen_planted(30, 40, 11)
        profile = gamma_profile(plant_rank1_certificate(inst), 1e-6)
        coloring = combinatorial_rounding(inst.H, profile)
        assert coloring.domain() == frozenset(range(30))
        assert coloring.num_colors() == 2
        assert check_partial_lo(inst.H, coloring)

    def test_colors_every_unbalanced_vertex(self):
        inst = gen_planted(24, 30, 3)
        profile = gamma_profile(plant_rank1_certificate(inst), 1e-6)
        coloring = combinatorial_rounding(inst.H, profile)
        for v in profile.unbalanced:
            assert int(v) in coloring

    def test_gamma_sum_precondition(self, single_edge):
        profile = GammaProfile(np.array([1.0, 1.0, 1.0]), 1e-3)
        with pytest.raises(ValueError, match="inconsistent gammas"):
            combinatorial_rounding(single_edge, profile)

    def test_per_iteration_sets_odd_independent(self):
        # Randomized profiles with exact edge sums: perturb the balanced
        # profile along the edge-sum null space.
        from scipy.linalg import null_space

        rng = np.random.default_rng(0)
        for trial in range(20):
            inst = gen_planted(18, 22, 100 + trial)
            H = inst.H
            A = np.zeros((H.m, H.n))
            for ei, e in enumerate(H.edges):
                A[ei, list(e)] = 1.0
            N = null_space(A)
            coeffs = rng.normal(size=N.shape[1])
            direction = N @ coeffs
            scale = 0.6 / max(np.abs(direction).max(), 1e-9)
            gamma = np.full(H.n, -THIRD) + scale * direction
            check_gamma_sums(H, gamma, 1e-9)
            profile = GammaProfile(gamma, 1e-4)
            sched = schedule(1e-4)
            coloring = combinatorial_rounding(H, profile)
            assert check_partial_lo(H, coloring)
            for j in range(sched.T):
                rank = sched.T - j
                S_j = {v for v in range(H.n) if coloring.get(v) == rank}
                lo, hi = float(sched.lowers[j]), float(sched.uppers[j])
                alive = [v for v in range(H.n) if lo <= gamma[v] <= hi]
                sub, ids = induced(H, alive)
                index = {old: new for new, old in enumerate(ids)}
                assert check_odd_is(sub, [index[v] for v in S_j if v in index])


class TestPerturb:
    def test_tripartite_kick_sums_cancel(self):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        op = ortho_profile(cert)
        kicked = perturb_gammas(profile, op, seed=1)
        E = inst.H.edge_array()
        sums = kicked.gamma[E[:, 0]] + kicked.gamma[E[:, 1]] + kicked.gamma[E[:, 2]]
        # The 120-degree directions cancel, so the kicks cancel too.
        assert np.abs(sums + 1.0).max() < 1e-12

    def test_tripartite_seed1_accepts_quickly(self):
        # Recorded run: each of the first 5 draws of seed 1 clears the
        # forbidden band with every kick at most 1/2.
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        op = ortho_profile(cert)
        for draw in range(5):
            kicked = perturb_gammas(profile, op, seed=1, draw=draw)
            assert not np.any(
                (kicked.gamma > -THIRD - 1e-9) & (kicked.gamma < -THIRD + 1e-9)
            )
            assert np.abs(kicked.gamma - profile.gamma).max() <= 0.5

    def test_zero_kick_is_rejected_by_band_test(self):
        # Zero directions give a zero kick, which leaves every gamma at -1/3,
        # inside the forbidden band, so the draw is refused.
        profile = GammaProfile(np.full(5, -THIRD), 1e-6)
        zero = OrthoProfile(np.zeros((5, 2)), frozenset())
        assert perturb_gammas(profile, zero, seed=0) is None

    def test_requires_all_balanced(self):
        profile = GammaProfile(np.array([1.0, -1.0, -1.0]), 1e-3)
        inst, cert = gen_balanced_tripartite(3, 1, 0)
        with pytest.raises(ValueError, match="balanced"):
            perturb_gammas(profile, ortho_profile(cert), seed=0)

    def test_budget_exhaustion(self, monkeypatch):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        op = ortho_profile(cert)
        # An absurdly wide forbidden band rejects every draw.
        monkeypatch.setattr(combround, "EPS_PRIME", 0.4)
        assert all(perturb_gammas(profile, op, seed=1, draw=d) is None for d in range(3))


def _edge_sum_off(H, profile, *, sum_slack):
    raise ValueError("inconsistent gammas")


class TestBalancedLogColoring:
    def test_tripartite_instance(self):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        op = ortho_profile(cert)
        coloring = balanced_log_coloring(inst.H, profile, op, seed=5)
        assert check_lo(inst.H, coloring)
        assert coloring.num_colors() <= schedule(1e-9).T + 1

    def test_single_balanced_edge(self):
        inst, cert = gen_balanced_tripartite(3, 1, 0)
        profile = gamma_profile(cert, 1e-6)
        coloring = balanced_log_coloring(inst.H, profile, ortho_profile(cert), seed=2)
        assert check_lo(inst.H, coloring)
        assert 2 <= coloring.num_colors() <= 3

    def test_empty_hypergraph(self):
        inst, cert = gen_balanced_tripartite(3, 1, 0)
        profile = gamma_profile(cert, 1e-6)
        out = balanced_log_coloring(Hypergraph(0, []), profile, ortho_profile(cert), seed=0)
        assert len(out) == 0

    def test_isolated_vertices_get_colored(self):
        inst, cert = gen_balanced_tripartite(6, 1, 0)
        profile = gamma_profile(cert, 1e-6)
        coloring = balanced_log_coloring(inst.H, profile, ortho_profile(cert), seed=3)
        assert coloring.domain() == frozenset(range(6))
        assert check_lo(inst.H, coloring)

    def test_unbalanced_profile_rejected_before_any_draw(self, monkeypatch):
        # The rank-1 certificate puts every gamma at +-1, far from the band.
        inst = gen_planted(30, 20, 1)
        cert = plant_rank1_certificate(inst)
        calls = []
        monkeypatch.setattr(combround, "perturb_gammas", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="unbalanced"):
            balanced_log_coloring(
                inst.H, gamma_profile(cert, 1e-6), ortho_profile(cert), seed=0
            )
        assert calls == []

    def test_degenerate_directions_rejected_before_any_draw(self, monkeypatch):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile = gamma_profile(cert, 1e-6)
        op = replace(ortho_profile(cert), degenerate=frozenset({4}))
        calls = []
        monkeypatch.setattr(combround, "perturb_gammas", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="degenerate at \\[4\\]"):
            balanced_log_coloring(inst.H, profile, op, seed=0)
        assert calls == []

    def test_budget_exhausted_when_every_perturbation_fails(self, monkeypatch):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        perturb = combround.perturb_gammas
        calls = []

        def recording(profile, ortho, seed, draw=0):
            calls.append((seed, draw))
            return perturb(profile, ortho, seed, draw)

        # An absurdly wide forbidden band rejects every draw.
        monkeypatch.setattr(combround, "EPS_PRIME", 0.4)
        monkeypatch.setattr(combround, "perturb_gammas", recording)
        with pytest.raises(
            ResampleBudgetExceeded,
            match=r"^no valid coloring in 100 draws: 100 kicked a gamma by over 1/2 or into "
            r"the eps' band, 0 broke an edge sum, 0 left a vertex uncolored, 0 failed check_lo$",
        ):
            balanced_log_coloring(
                inst.H, gamma_profile(cert, 1e-6), ortho_profile(cert), seed=0
            )
        # Draws 0, 1, ... of one stream.
        assert calls == [(derive_seed(0, "retry:0"), d) for d in range(combround.DRAW_BUDGET)]

    @pytest.mark.parametrize(
        "name, fake, count",
        [
            ("combinatorial_rounding", _edge_sum_off, "100 broke an edge sum"),
            ("combinatorial_rounding", lambda H, p, *, sum_slack: RankedColoring({0: 1}),
             "100 left a vertex uncolored"),
            ("check_lo", lambda H, coloring: False, "100 failed check_lo"),
        ],
        ids=["edge_sum", "uncolored", "check_lo"],
    )
    def test_each_check_rejects_the_draw(self, monkeypatch, name, fake, count):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        monkeypatch.setattr(combround, name, fake)
        with pytest.raises(ResampleBudgetExceeded, match=f"in 100 draws: 0 kicked .*{count}"):
            balanced_log_coloring(
                inst.H, gamma_profile(cert, 1e-6), ortho_profile(cert), seed=0
            )

    def test_rejected_draw_moves_to_the_next(self, monkeypatch):
        inst, cert = gen_balanced_tripartite(30, 25, 1)
        profile, op = gamma_profile(cert, 1e-6), ortho_profile(cert)
        check, verdicts = combround.check_lo, [False]
        monkeypatch.setattr(
            combround, "check_lo", lambda H, c: verdicts.pop() if verdicts else check(H, c)
        )
        coloring = balanced_log_coloring(inst.H, profile, op, seed=0)
        kicked = perturb_gammas(profile, op, derive_seed(0, "retry:0"), draw=1)
        slack = combround.perturbation_slack(inst.H.n, profile.eps)
        assert coloring == combinatorial_rounding(inst.H, kicked, sum_slack=slack)


class TestLognProperties:
    """On exactly balanced tripartite certificates, logn colors everything
    validly within the schedule's color count, and every accepted draw keeps
    the edge sums and clears the forbidden band."""

    @given(
        k=st.integers(1, 12),
        data=st.data(),
        gen_seed=st.integers(0, 999),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_balanced_tripartite(self, k, data, gen_seed, seed):
        m = data.draw(st.integers(0, k), label="m")
        inst, cert = gen_balanced_tripartite(3 * k, m, gen_seed)
        profile, op = gamma_profile(cert, 1e-6), ortho_profile(cert)
        coloring = balanced_log_coloring(inst.H, profile, op, seed)
        assert coloring.domain() == frozenset(range(inst.H.n))
        assert check_lo(inst.H, coloring)
        assert coloring.num_colors() <= schedule(combround.EPS_PRIME).T + 1
        E = inst.H.edge_array()
        for draw in range(4):
            kicked = perturb_gammas(profile, op, seed, draw)
            if kicked is None:
                continue
            sums = kicked.gamma[E].sum(axis=1)
            assert np.all(np.abs(sums + 1.0) <= 1e-12)
            g = kicked.gamma
            eps_prime = combround.EPS_PRIME
            assert not np.any((g > -THIRD - eps_prime) & (g < -THIRD + eps_prime))


class TestRoundingProperties:
    """The rounding lemma as a property: any profile with exact per-edge
    sums yields a partial coloring with a unique maximum on every touched
    edge, and each color class is odd-independent on the surviving band."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_sum_profiles_round_validly(self, data):
        from scipy.linalg import null_space as _null_space

        n = data.draw(st.integers(min_value=6, max_value=14))
        m = data.draw(st.integers(min_value=1, max_value=6))
        edges = [
            tuple(
                data.draw(
                    st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
                )
            )
            for _ in range(m)
        ]
        H = Hypergraph(n, edges)
        A = np.zeros((H.m, H.n))
        for ei, e in enumerate(H.edges):
            A[ei, list(e)] = 1.0
        N = _null_space(A)
        coeffs = np.array(
            [data.draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(N.shape[1])]
        )
        direction = N @ coeffs if N.shape[1] else np.zeros(H.n)
        peak = float(np.abs(direction).max())
        gamma = np.full(H.n, -THIRD) + (0.6 / peak) * direction if peak > 1e-9 else np.full(H.n, -THIRD)
        check_gamma_sums(H, gamma, 1e-9)
        eps = data.draw(st.sampled_from([1e-1, 1e-2, 1e-3]))
        profile = GammaProfile(gamma, eps)
        coloring = combinatorial_rounding(H, profile)
        assert check_partial_lo(H, coloring)
        for v in profile.unbalanced:
            assert int(v) in coloring
        sched = schedule(eps)
        for j in range(sched.T):
            S_j = {v for v in range(H.n) if coloring.get(v) == sched.T - j}
            if not S_j:
                continue
            lo, hi = float(sched.lowers[j]), float(sched.uppers[j])
            alive = [v for v in range(H.n) if lo <= gamma[v] <= hi]
            sub, ids = induced(H, alive)
            index = {old: new for new, old in enumerate(ids)}
            assert check_odd_is(sub, [index[v] for v in S_j])
