"""Linearly ordered (LO) coloring of 3-uniform hypergraphs via SDP rounding.

An LO coloring orders the colors and demands that every edge have a unique
maximum color.  This package solves the natural unit-vector relaxation for
instances promised to be 2-LO colorable, rounds the projections onto the
special vector combinatorially, rounds the balanced remainder with Gaussian
thresholds or a perturbation trick, and assembles verified colorings.
"""

from .combround import (
    IntervalSchedule,
    ResampleBudgetExceeded,
    balanced_log_coloring,
    combinatorial_rounding,
    interval,
    interval_by_recurrence,
    perturb_gammas,
    schedule,
)
from .evenset import even_independent_set, even_is_quality
from .gaussround import (
    GaussianFactsReport,
    RoundingConfig,
    alpha_for,
    best_odd_is,
    check_gaussian_facts,
    gcap,
    gcap_inv,
    sample_round,
    threshold_trace,
    two_sided_round,
)
from .hypercore import (
    DegreeStats,
    Hypergraph,
    NotTwoLOColorable,
    RankedColoring,
    check_even_is,
    check_lo,
    check_odd_is,
    check_partial_lo,
    degree_stats,
    induced,
    is_linear,
    lift_coloring,
    make_linear,
)
from .instances import (
    GenerationError,
    PlantedInstance,
    gen_balanced_tripartite,
    gen_planted,
    plant_rank1_certificate,
)
from .oracle import brute_lo, brute_max_even_is, brute_max_odd_is
from .pipeline import (
    PipelineConfig,
    PipelineError,
    RunReport,
    bench_rows,
    color_balanced,
    combine,
    extend_with_even,
    extend_with_odd,
    lo_color,
    logn_color_bound,
)
from .sdp import (
    GammaProfile,
    OrthoProfile,
    SdpConfig,
    SolverStalled,
    VectorSolution,
    gamma_profile,
    ortho_profile,
    residual,
    solve_feasibility,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeStats",
    "GammaProfile",
    "GaussianFactsReport",
    "GenerationError",
    "Hypergraph",
    "IntervalSchedule",
    "NotTwoLOColorable",
    "OrthoProfile",
    "PipelineConfig",
    "PipelineError",
    "PlantedInstance",
    "RankedColoring",
    "ResampleBudgetExceeded",
    "RoundingConfig",
    "RunReport",
    "SdpConfig",
    "SolverStalled",
    "VectorSolution",
    "alpha_for",
    "balanced_log_coloring",
    "bench_rows",
    "best_odd_is",
    "brute_lo",
    "brute_max_even_is",
    "brute_max_odd_is",
    "check_even_is",
    "check_gaussian_facts",
    "check_lo",
    "check_odd_is",
    "check_partial_lo",
    "color_balanced",
    "combinatorial_rounding",
    "combine",
    "degree_stats",
    "even_independent_set",
    "even_is_quality",
    "extend_with_even",
    "extend_with_odd",
    "gamma_profile",
    "gcap",
    "gcap_inv",
    "gen_balanced_tripartite",
    "gen_planted",
    "induced",
    "interval",
    "interval_by_recurrence",
    "is_linear",
    "lift_coloring",
    "lo_color",
    "logn_color_bound",
    "make_linear",
    "ortho_profile",
    "perturb_gammas",
    "plant_rank1_certificate",
    "residual",
    "sample_round",
    "schedule",
    "solve_feasibility",
    "threshold_trace",
    "two_sided_round",
]
