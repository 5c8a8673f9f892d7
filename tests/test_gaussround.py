from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lochroma import (
    Hypergraph,
    OrthoProfile,
    ResampleBudgetExceeded,
    RoundingConfig,
    VectorSolution,
    alpha_for,
    best_odd_is,
    check_gaussian_facts,
    check_odd_is,
    gcap,
    gcap_inv,
    gen_balanced_tripartite,
    gen_planted,
    ortho_profile,
    plant_rank1_certificate,
    sample_round,
    solve_feasibility,
    threshold_trace,
    two_sided_round,
)
from lochroma.gaussround import TRACE_BATCH, _survivors, _vertex_set, default_reps
from lochroma.rng import normals, substream


def tail_oracle(t: float) -> float:
    """Adaptive quadrature of the Gaussian density: the independent reference.

    Evaluated in 30-digit arithmetic so the reference is good far beyond the
    1e-12 comparisons below.
    """
    import mpmath

    with mpmath.workdps(30):
        val = mpmath.quad(
            lambda x: mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi),
            [t, mpmath.inf],
        )
        return float(val)


class TestGcap:
    def test_zero_is_half(self):
        assert gcap(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_t1_matches_oracle(self):
        assert gcap(1.0) == pytest.approx(tail_oracle(1.0), abs=1e-14)
        assert gcap(1.0) == pytest.approx(0.15865525393145705, abs=1e-12)

    def test_matches_oracle_on_grid(self):
        for t in np.linspace(-3.0, 6.0, 50):
            assert abs(gcap(float(t)) - tail_oracle(float(t))) <= 1e-12

    def test_symmetry(self):
        for t in (0.3, 1.7, 2.9):
            assert gcap(-t) == pytest.approx(1.0 - gcap(t), abs=1e-14)

    def test_monotone_decreasing(self):
        grid = np.linspace(-4, 6, 200)
        vals = gcap(grid)
        assert np.all(np.diff(vals) < 0)


class TestGcapInv:
    def test_half_maps_to_zero(self):
        assert gcap_inv(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_inverse_of_oracle(self):
        assert gcap_inv(0.15865525393145705) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_on_log_grid(self):
        for alpha in np.logspace(-9, -0.5, 25):
            t = gcap_inv(float(alpha))
            assert abs(gcap(t) - alpha) <= 1e-12

    @given(st.floats(min_value=math.log(1e-300), max_value=math.log(gcap(1.0)),
                     exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_log_uniform(self, log_alpha):
        alpha = math.exp(log_alpha)
        assert abs(gcap(gcap_inv(alpha)) - alpha) <= 1e-12

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            gcap_inv(0.0)
        with pytest.raises(ValueError):
            gcap_inv(1.0)


class TestAlphaFor:
    def test_delta_four_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = 1 / (32 * mpmath.cbrt(4) * mpmath.sqrt(mpmath.log(4)))
        assert alpha_for(4.0) == pytest.approx(float(expected), abs=1e-15)
        assert alpha_for(4.0) == pytest.approx(0.016720, abs=5e-7)

    def test_delta_e_cubed_symbolic(self):
        expected = (1.0 / 32.0) * math.exp(-1.0) / math.sqrt(3.0)
        assert alpha_for(math.e**3) == pytest.approx(expected, rel=1e-12)

    def test_small_delta_clamped(self):
        assert alpha_for(1.0) == alpha_for(4.0)
        assert alpha_for(0.0) == alpha_for(4.0)

    def test_strictly_decreasing(self):
        grid = np.linspace(4.0, 500.0, 40)
        vals = [alpha_for(float(d)) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestRoundingConfig:
    def test_threshold_consistency(self):
        cfg = RoundingConfig.for_degree(4.0, seed=1)
        assert cfg.alpha == pytest.approx(alpha_for(4.0))
        assert abs(gcap(cfg.t) - cfg.alpha) <= 1e-12
        assert cfg.t >= 1.0

    def test_alpha_override_validated(self):
        with pytest.raises(ValueError):
            RoundingConfig.for_degree(4.0, alpha_override=0.9)


@pytest.fixture(scope="module")
def tripartite():
    inst, cert = gen_balanced_tripartite(30, 25, 2)
    return inst, ortho_profile(cert)


class TestSampleRound:
    def test_always_odd_independent(self, tripartite):
        inst, op = tripartite
        cfg = RoundingConfig.for_degree(4.0, seed=7)
        for draw in range(50):
            S = sample_round(inst.H, op, cfg, draw=draw)
            assert check_odd_is(inst.H, S)

    def test_large_threshold_often_empty(self, tripartite):
        inst, op = tripartite
        cfg = RoundingConfig.for_degree(4.0, seed=3, alpha_override=1e-9)
        S = sample_round(inst.H, op, cfg, draw=0)
        assert S == frozenset()

    def test_mean_selection_mass(self):
        # The raw selection has expectation alpha * n regardless of the
        # correlations between vertices.
        inst, cert = gen_balanced_tripartite(300, 200, 4)
        op = ortho_profile(cert)
        cfg = RoundingConfig.for_degree(4.0, seed=11)
        trace = threshold_trace(inst.H, op, cfg, draws=200)
        sizes = np.array([len(raw) for raw, _ in trace], dtype=float)
        target = cfg.alpha * inst.H.n
        se = sizes.std(ddof=1) / math.sqrt(len(sizes))
        assert abs(sizes.mean() - target) <= 3.0 * se + 1e-9


def drop_doubly_hit_reference(H, selected):
    """The set-based original: drop every vertex of an edge hit twice or more."""
    S = set(int(v) for v in np.flatnonzero(selected))
    if not S:
        return frozenset()
    removed: set[int] = set()
    for e in H.edges:
        if len(S.intersection(e)) >= 2:
            removed.update(e)
    return frozenset(S - removed)


def best_odd_is_reference(H, ortho, delta, reps, seed):
    """Largest draw, building the full tie-break key on every draw."""
    cfg = RoundingConfig.for_degree(delta, seed=seed)
    best, best_key = frozenset(), None
    for i in range(reps):
        cand = sample_round(H, ortho, cfg, draw=i)
        key = (-len(cand), tuple(sorted(cand)))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def linear_prefix(n: int, triples) -> Hypergraph:
    """The triples in order, skipping each that shares a pair with an earlier kept one."""
    pairs: set[tuple[int, int]] = set()
    edges = []
    for t in triples:
        a, b, c = sorted(int(v) for v in t)
        ps = {(a, b), (a, c), (b, c)}
        if not ps & pairs:
            pairs |= ps
            edges.append((a, b, c))
    return Hypergraph(n, edges)


@st.composite
def linear_hypergraphs(draw):
    n = draw(st.integers(min_value=3, max_value=30))
    triples = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True),
            max_size=40,
        )
    )
    return linear_prefix(n, triples)


def drop_doubly_hit(H, selected):
    """One selection's surviving set, as the batched ``_survivors`` gives it."""
    return _vertex_set(_survivors(H, selected[None])[0])


class TestDropDoublyHit:
    @given(linear_hypergraphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, H, data):
        selected = np.array(
            data.draw(st.lists(st.booleans(), min_size=H.n, max_size=H.n)), dtype=bool
        )
        for sel in (selected, np.zeros(H.n, dtype=bool), np.ones(H.n, dtype=bool)):
            out = drop_doubly_hit(H, sel)
            assert out == drop_doubly_hit_reference(H, sel)
            assert all(type(v) is int for v in out)
            assert check_odd_is(H, out)

    def test_no_edges_keeps_selection(self):
        H = Hypergraph(5, [])
        sel = np.array([True, False, True, True, False])
        assert drop_doubly_hit(H, sel) == frozenset({0, 2, 3})
        assert drop_doubly_hit(H, np.zeros(5, dtype=bool)) == frozenset()

    def test_single_edge(self, single_edge):
        assert drop_doubly_hit(single_edge, np.array([True, True, False])) == frozenset()
        assert drop_doubly_hit(single_edge, np.array([False, True, False])) == frozenset({1})


def random_linear_instance(n: int, tries: int, dim: int, seed: int):
    """A linear hypergraph from ``tries`` random triples, and unit directions
    in general position.

    Tripartite certificates give each part one shared direction, so their
    draws are all-or-nothing per part and ties between draws never need the
    lexicographic tie-break; random directions make small draws, and ties
    among them, common.
    """
    rng = np.random.default_rng(seed)
    H = linear_prefix(n, (rng.choice(n, 3, replace=False) for _ in range(tries)))
    ubar = rng.normal(size=(n, dim))
    ubar /= np.linalg.norm(ubar, axis=1, keepdims=True)
    return H, OrthoProfile(ubar, frozenset())


_RANDOM_INSTANCE = random_linear_instance(80, 120, 4, 0)


class TestThresholdTrace:
    def test_kept_sets_are_the_draws(self):
        # ``lochroma stats`` reports threshold_trace while best_odd_is picks
        # among sample_round draws; both must read draw i from the same place.
        H, op = _RANDOM_INSTANCE
        cfg = RoundingConfig.for_degree(4.0, seed=5, alpha_override=0.15)
        trace = threshold_trace(H, op, cfg, draws=40)
        assert any(kept and kept != raw for raw, kept in trace)
        for i, (raw, kept) in enumerate(trace):
            assert kept == sample_round(H, op, cfg, draw=i)
            assert kept <= raw

    @pytest.mark.parametrize("draws", [0, -3])
    def test_needs_a_draw(self, draws):
        H, op = _RANDOM_INSTANCE
        cfg = RoundingConfig.for_degree(4.0, seed=5)
        with pytest.raises(ValueError, match=f"draws must be at least 1, got {draws}"):
            threshold_trace(H, op, cfg, draws)


class TestBestOddISEarlySkip:
    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([4.0, 9.0, 30.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_key_reference(self, reps, seed, delta):
        H, op = _RANDOM_INSTANCE
        got = best_odd_is(H, op, delta, reps=reps, seed=seed)
        assert got == best_odd_is_reference(H, op, delta, reps, seed)


def draw_reference(H, ortho, cfg, draw):
    """(raw, kept) of one draw at its fixed place in the round's stream, one
    matrix-vector product and the set-based drop; no gaussround internals."""
    rng = substream(cfg.seed, "round")
    rng.bit_generator.advance(2 * ortho.dim * draw)
    g = normals(rng, ortho.dim)
    selected = (ortho.ubar @ g) >= cfg.t
    raw = frozenset(int(v) for v in np.flatnonzero(selected))
    return raw, drop_doubly_hit_reference(H, selected)


class TestBatchMatchesPerDrawReference:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([4.0, 9.0, 30.0]),
        st.sampled_from([None, 0.15]),
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_and_best(self, reps, seed, delta, alpha):
        # _RANDOM_INSTANCE makes small draws, so equal sizes are common and the
        # lexicographic tie-break decides; alpha 0.15 makes doubly hit edges common.
        H, op = _RANDOM_INSTANCE
        cfg = RoundingConfig.for_degree(delta, seed=seed, alpha_override=alpha)
        ref = [draw_reference(H, op, cfg, i) for i in range(reps)]
        assert threshold_trace(H, op, cfg, reps) == ref
        assert sample_round(H, op, cfg, draw=reps - 1) == ref[-1][1]
        if alpha is None:
            best = min((kept for _, kept in ref), key=lambda S: (-len(S), sorted(S)))
            assert best_odd_is(H, op, delta, reps=reps, seed=seed) == best

    def test_trace_longer_than_one_batch(self):
        H, op = _RANDOM_INSTANCE
        cfg = RoundingConfig.for_degree(4.0, seed=8, alpha_override=0.15)
        draws = TRACE_BATCH + 3
        trace = threshold_trace(H, op, cfg, draws)
        assert trace == [draw_reference(H, op, cfg, i) for i in range(draws)]
        # The rows on either side of the batch boundary are the single draws.
        for i in (TRACE_BATCH - 1, TRACE_BATCH):
            assert trace[i][1] == sample_round(H, op, cfg, draw=i)

    def test_one_generator_per_round(self, monkeypatch):
        # All draws of a round come from one stream; seeding a generator per
        # draw cost most of the rounding's time.
        from lochroma import gaussround

        labels = []

        def counting_substream(seed, label):
            labels.append(label)
            return substream(seed, label)

        monkeypatch.setattr(gaussround, "substream", counting_substream)
        H, op = _RANDOM_INSTANCE
        best_odd_is(H, op, 4.0, reps=40, seed=6)
        assert labels == ["round"]


def _set_digest(S) -> str:
    return hashlib.sha256(repr(sorted(S)).encode()).hexdigest()[:16]


class TestBestOddISGolden:
    """Pinned outputs: any reimplementation of the draws must reproduce them."""

    def test_random_instance(self):
        H, op = _RANDOM_INSTANCE
        S = best_odd_is(H, op, 4.0, reps=32, seed=3)
        assert (len(S), _set_digest(S)) == (7, "9bba55721349e355")

    def test_larger_random_instance_default_reps(self):
        H, op = random_linear_instance(300, 500, 7, 1)
        S = best_odd_is(H, op, 9.0, seed=11)
        assert (len(S), _set_digest(S)) == (11, "9e42e916e2621340")

    def test_tripartite_certificate(self):
        inst, cert = gen_balanced_tripartite(60, 50, 6)
        S = best_odd_is(inst.H, ortho_profile(cert), 4.0, seed=4)
        assert (len(S), _set_digest(S)) == (20, "81c7cf237f1b951d")


class TestBestOddIS:
    def test_reps_one_equals_first_draw(self):
        inst, cert = gen_balanced_tripartite(30, 25, 5)
        op = ortho_profile(cert)
        cfg = RoundingConfig.for_degree(4.0, seed=9)
        assert best_odd_is(inst.H, op, 4.0, reps=1, seed=9) == sample_round(
            inst.H, op, cfg, draw=0
        )
        # Fewer than one draw is clamped to one.
        assert best_odd_is(inst.H, op, 4.0, reps=0, seed=9) == sample_round(
            inst.H, op, cfg, draw=0
        )

    def test_monotone_in_reps(self):
        inst, cert = gen_balanced_tripartite(60, 50, 6)
        op = ortho_profile(cert)
        sizes = [len(best_odd_is(inst.H, op, 4.0, reps=r, seed=4)) for r in (1, 2, 4, 8, 16)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_default_reps(self):
        assert default_reps(300) == 16 * math.ceil(math.log(300))


class TestGaussianFacts:
    def test_report_margins_positive(self):
        report = check_gaussian_facts()
        assert report.ok

    def test_sandwich_values_at_one(self):
        # The bound formulas evaluated directly at t = 1.
        pdf1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        lower = pdf1 / 2.0
        upper = pdf1
        assert lower == pytest.approx(0.120985, abs=1e-6)
        assert upper == pytest.approx(0.241971, abs=1e-6)
        assert lower < tail_oracle(1.0) < upper

    def test_concentration_example(self):
        lhs = gcap(0.0) - gcap(1.0)
        assert lhs == pytest.approx(0.341345, abs=1e-6)
        assert lhs <= 1.0 / math.sqrt(2 * math.pi)

    def test_double_threshold_example(self):
        beta = gcap(1.0)
        rhs = 512.0 * math.log(1.0 / beta) ** 1.5 * beta**4
        assert gcap(2.0) == pytest.approx(0.02275013, abs=1e-8)
        assert gcap(2.0) <= rhs
        assert rhs == pytest.approx(0.810357, abs=1e-6)

    def test_violation_detected(self):
        # Feeding t below the corollaries' validity range must trip the check.
        with pytest.raises(ArithmeticError):
            check_gaussian_facts(cor_grid=np.array([0.2]))


class TestTwoSided:
    def test_rank1_single_edge(self):
        inst = gen_planted(3, 1, 0)
        cert = plant_rank1_certificate(inst)
        coloring = two_sided_round(inst.H, cert, seed=1)
        tops = [v for v in range(3) if coloring[v] == 2]
        assert len(tops) == 1
        assert coloring[tops[0]] == 2
        assert inst.planted[tops[0]] == 2

    def test_balanced_edge_never_monochromatic(self):
        inst, cert = gen_balanced_tripartite(3, 1, 0)
        for seed in range(100):
            coloring = two_sided_round(inst.H, cert, seed=seed)
            ranks = {coloring[v] for v in range(3)}
            assert len(ranks) == 2

    def test_solver_solutions_proper(self):
        inst = gen_planted(24, 30, 9)
        sol = solve_feasibility(inst.H)
        for seed in range(20):
            coloring = two_sided_round(inst.H, sol, seed=seed)
            for e in inst.H.edges:
                assert len({coloring[v] for v in e}) == 2

    def test_budget_exceeded_when_every_hyperplane_fails(self, single_edge):
        # Three balanced vertices with one orthogonal direction: every
        # hyperplane puts all of them on the same side.
        vec = [-1.0 / 3.0, math.sqrt(8.0) / 3.0]
        sol = VectorSolution.from_vectors(single_edge, [1.0, 0.0], [vec, vec, vec])
        with pytest.raises(ResampleBudgetExceeded, match="in 50 hyperplane draws"):
            two_sided_round(single_edge, sol, seed=0)
