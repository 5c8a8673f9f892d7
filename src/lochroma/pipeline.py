"""End-to-end orchestration: reduce to a linear instance, solve the vector
program, color the unbalanced vertices by bisection rounding, color the
balanced remainder by one of two strategies, combine, lift, and verify.

Strategies for the balanced part:

* ``n15``: iterated independent-set extraction, choosing per round between an
  even set (high degree) and a Gaussian threshold odd set (low degree).
  Each set is checked when it is drawn, on that round's induced hypergraph;
  ``extend_with_odd`` and ``extend_with_even`` then only rank the sets, in
  reverse order of drawing.
* ``logn``: a single Gaussian perturbation of the gammas followed by another
  bisection rounding, giving a logarithmic color count.

Every returned coloring has passed the full validity check; failures abort
with the offending stage and edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import combround, gaussround
from .evenset import even_independent_set
from .hypercore import (
    Hypergraph,
    RankedColoring,
    check_even_is,
    check_lo,
    check_odd_is,
    degree_stats,
    induced,
    lift_coloring,
    make_linear,
)
from .rng import derive_seed
from .sdp import (
    DEFAULT_TOL,
    OrthoProfile,
    SdpConfig,
    check_tol,
    gamma_profile,
    ortho_profile,
    solve_feasibility,
)

STRATEGIES = ("n15", "logn")

# n15 removes an even set in a round whose average degree is at least
# (uncolored vertex count)^DELTA_EXPONENT, and a threshold odd set otherwise.
DELTA_EXPONENT = 3.0 / 5.0


class PipelineError(RuntimeError):
    """A stage produced an invalid intermediate; carries stage and witness."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings.

    ``strategy`` colors the balanced part (one of ``STRATEGIES``); ``eps`` is
    the balance band radius, finite and in (0, 2/3); ``tol`` is the solver
    tolerance, finite and positive, and ``eps`` must be at least 100 times
    it.  ``seed`` roots every random draw of the
    run through named substreams.  The paper's fixed constants are module
    constants: ``DELTA_EXPONENT`` here, ``combround.EPS_PRIME`` and
    ``combround.DRAW_BUDGET`` for ``logn``, and ``gaussround.default_reps``
    for the threshold rounding's amplification.
    """

    strategy: str = "n15"
    eps: float = 1e-6
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        check_tol(self.tol)
        combround.check_eps(self.eps)
        if self.eps < 100 * self.tol:
            raise ValueError(f"eps={self.eps} must be at least 100x tol={self.tol}")


@dataclass(frozen=True)
class RunReport:
    """Deterministic run facts plus wall-clock stage timings.

    The timings are excluded from the CSV row so identical seeds give
    byte-identical rows under one BLAS setup; across BLAS thread counts only
    the residual fields may differ.  ``sdp_iters`` sums the LM iterations of
    every solver attempt, reduced and full-space; a planted n = 1600,
    m = 800 call, which only the full-space phase solves, takes 17–35.
    """

    n: int
    m: int
    strategy: str
    eps: float
    seed: int
    colors: int
    sdp_iters: int
    norm_residual: float
    edge_residual: float
    status: str = "ok"
    balanced: int = 0
    timings: dict = field(default_factory=dict, compare=False)

    CSV_FIELDS = (
        "n",
        "m",
        "strategy",
        "eps",
        "eps_prime",
        "seed",
        "colors",
        "sdp_iters",
        "norm_residual",
        "edge_residual",
        "status",
    )

    @property
    def eps_prime(self) -> float:
        return combround.EPS_PRIME

    def csv_row(self) -> str:
        vals = []
        for name in self.CSV_FIELDS:
            v = getattr(self, name)
            vals.append(f"{v:.12e}" if isinstance(v, float) else str(v))
        return ",".join(vals)


def extend_with_odd(coloring: RankedColoring, S) -> RankedColoring:
    """Give an odd set a rank strictly above everything colored so far (1 on an empty coloring)."""
    return coloring.assign(S, coloring.max_rank() + 1 if coloring else 1)


def extend_with_even(coloring: RankedColoring, S) -> RankedColoring:
    """Give an even set a rank strictly below everything colored so far (1 on an empty coloring)."""
    return coloring.assign(S, coloring.min_rank() - 1 if coloring else 1)


def combine(
    H: Hypergraph, c_unbalanced: RankedColoring, c_balanced: RankedColoring
) -> RankedColoring:
    """Union of the two colorings with the unbalanced ranks shifted above.

    The color count of the result is the sum of the two parts' counts; the
    union must pass the full validity check, otherwise a precondition was
    violated and we raise.
    """
    if c_unbalanced and c_balanced:
        shift = c_balanced.max_rank() - c_unbalanced.min_rank() + 1
        shifted = c_unbalanced.shifted(shift)
    else:
        shifted = c_unbalanced
    merged = shifted.merged(c_balanced)
    if not check_lo(H, merged):
        raise ValueError("combined coloring fails the unique-maximum check")
    return merged


def color_balanced(H_B: Hypergraph, ortho: OrthoProfile, cfg: PipelineConfig) -> RankedColoring:
    """Color a balanced hypergraph by iterated independent-set extraction.

    Each round works on the hypergraph induced on the still-uncolored
    vertices; with average degree at least (vertex count)^DELTA_EXPONENT an
    even set is removed, otherwise a threshold-rounding odd set.  Empty
    finds fall back to degree-zero vertices, then to a single odd vertex, so
    the vertex set strictly shrinks and the loop always terminates.  An
    edgeless remainder is taken whole as the last odd set.

    Each set is checked when it is drawn, on that round's induced
    hypergraph; a set that is not independent there raises
    ``PipelineError``.  The sets are then ranked in reverse order of
    drawing, odd sets above and even sets below everything ranked so far.
    """
    remaining = list(range(H_B.n))
    stack: list[tuple[frozenset[int], str]] = []
    round_no = 0
    while remaining:
        sub, ids = induced(H_B, remaining)
        stats = degree_stats(sub)
        if sub.m == 0:
            S_sub, kind = frozenset(range(sub.n)), "odd"
        elif stats.delta_bar >= len(remaining) ** DELTA_EXPONENT:
            S_sub, kind = even_independent_set(sub), "even"
        else:
            S_sub = gaussround.best_odd_is(
                sub,
                ortho.restrict(ids),
                stats.delta_bar,
                seed=derive_seed(cfg.seed, f"balanced:round:{round_no}"),
            )
            kind = "odd"
        if not S_sub:
            isolated = [int(v) for v in np.flatnonzero(stats.degrees == 0)]
            if isolated:
                S_sub, kind = frozenset(isolated), "even"
            else:
                S_sub, kind = frozenset({0}), "odd"
        is_independent = check_odd_is if kind == "odd" else check_even_is
        if not is_independent(sub, S_sub):
            raise PipelineError(
                "color_balanced", f"round {round_no}: set is not {kind} independent"
            )
        S = frozenset(ids[v] for v in S_sub)
        stack.append((S, kind))
        keep = set(remaining) - S
        if len(keep) == len(remaining):
            raise PipelineError("color_balanced", "no progress in an iteration")
        remaining = sorted(keep)
        round_no += 1

    coloring = RankedColoring()
    for S, kind in reversed(stack):
        extend = extend_with_odd if kind == "odd" else extend_with_even
        coloring = extend(coloring, S)
    if H_B.n and not check_lo(H_B, coloring):
        raise PipelineError("color_balanced", "assembled coloring failed validation")
    return coloring


def lo_color(H: Hypergraph, cfg: PipelineConfig | None = None) -> tuple[RankedColoring, RunReport]:
    """Full pipeline; returns a verified coloring normalized to colors 1..k."""
    cfg = cfg or PipelineConfig()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    H_lin, merge = make_linear(H)
    timings["linearize"] = time.perf_counter() - t0

    degs = H_lin.degrees()
    core_ids = [v for v in range(H_lin.n) if degs[v] > 0]
    lonely = [v for v in range(H_lin.n) if degs[v] == 0 and merge[v] == v]
    H_core, core_map = induced(H_lin, core_ids)

    sdp_iters = 0
    norm_res = edge_res = 0.0
    n_balanced = 0
    c_core = RankedColoring()
    if H_core.n:
        t1 = time.perf_counter()
        sdp_cfg = SdpConfig(tol=cfg.tol, seed=derive_seed(cfg.seed, "sdp"))
        sol = solve_feasibility(H_core, sdp_cfg)
        sdp_iters, norm_res, edge_res = sol.iters, sol.norm_residual, sol.edge_residual
        timings["solve"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        profile = gamma_profile(sol, cfg.eps)
        c_unbal = combround.combinatorial_rounding(
            H_core, profile, sum_slack=3.0 * cfg.tol
        )
        timings["round_unbalanced"] = time.perf_counter() - t2

        t3 = time.perf_counter()
        balanced_ids = [v for v in range(H_core.n) if v not in c_unbal]
        H_bal, bal_map = induced(H_core, balanced_ids)
        n_balanced = H_bal.n
        if H_bal.n:
            ortho = ortho_profile(sol)
            ortho_bal = ortho.restrict(bal_map)
            if cfg.strategy == "logn":
                c_bal_sub = combround.balanced_log_coloring(
                    H_bal,
                    profile.restrict(bal_map),
                    ortho_bal,
                    derive_seed(cfg.seed, "logn"),
                    tol=cfg.tol,
                )
            else:
                c_bal_sub = color_balanced(H_bal, ortho_bal, cfg)
            c_bal = c_bal_sub.relabeled(bal_map)
        else:
            c_bal = RankedColoring()
        timings["color_balanced"] = time.perf_counter() - t3

        try:
            c_core = combine(H_core, c_unbal, c_bal)
        except ValueError as exc:
            raise PipelineError("combine", str(exc)) from exc

    c_lin = c_core.relabeled(core_map)
    if lonely:
        floor = c_lin.min_rank() if c_lin else 1
        c_lin = c_lin.assign(lonely, floor)

    t4 = time.perf_counter()
    final = lift_coloring(merge, c_lin).normalized() if H.n else RankedColoring()
    if not check_lo(H, final):
        raise PipelineError("final", "lifted coloring failed validation")
    timings["lift_verify"] = time.perf_counter() - t4
    timings["total"] = time.perf_counter() - t0

    report = RunReport(
        n=H.n,
        m=H.m,
        strategy=cfg.strategy,
        eps=cfg.eps,
        seed=cfg.seed,
        colors=final.num_colors(),
        sdp_iters=sdp_iters,
        norm_residual=norm_res,
        edge_residual=edge_res,
        balanced=n_balanced,
        timings=timings,
    )
    return final, report


def logn_color_bound(eps: float) -> int:
    """Color budget for the logn strategy: two bisection passes plus slack."""
    return 2 * math.ceil(math.log2(4.0 / (3.0 * eps))) + 2


def bench_rows(
    sizes, seeds_per_size: int, cfg: PipelineConfig
) -> tuple[list[RunReport], float | None]:
    """One pipeline run per (size, seed) on planted instances with m = 1.3 n,
    plus the fitted log-log color slope.

    Failures are recorded as rows with a non-ok status so a sweep survives
    individual errors.  The slope is None when fewer than two distinct sizes
    succeeded.
    """
    from .instances import gen_planted

    rows: list[RunReport] = []
    for n in sizes:
        m = round(1.3 * n)
        for i in range(seeds_per_size):
            seed = derive_seed(cfg.seed, f"bench:{n}:{i}")
            try:
                inst = gen_planted(n, m, seed)
                _, report = lo_color(inst.H, replace(cfg, seed=seed))
            except Exception as exc:  # noqa: BLE001 - sweep must continue
                rows.append(
                    RunReport(
                        n=n,
                        m=m,
                        strategy=cfg.strategy,
                        eps=cfg.eps,
                        seed=seed,
                        colors=0,
                        sdp_iters=0,
                        norm_residual=float("nan"),
                        edge_residual=float("nan"),
                        status=f"error:{type(exc).__name__}",
                    )
                )
                continue
            rows.append(report)
    good = [(r.n, r.colors) for r in rows if r.status == "ok" and r.colors > 0]
    slope = None
    if len({n for n, _ in good}) >= 2:
        xs = np.log([n for n, _ in good])
        ys = np.log([c for _, c in good])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope
