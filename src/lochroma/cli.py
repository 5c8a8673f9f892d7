"""Command-line front end.

Subcommands: ``gen`` (instance files), ``solve`` (vector program only, writes
a ``.cert``), ``color`` (run the pipeline), ``verify`` (check a coloring, or
a certificate's residuals with ``--cert``), ``oracle`` (brute-force
references), ``stats`` (per-draw threshold rounding sizes), ``bench``
(scaling sweep).

Exit codes: 0 success; 1 I/O or parse error, or an invalid flag value; 2
generation failure (argparse's usage errors also exit 2); 3 solver stall; 4
validity failure.  ``FAILURES`` maps the errors a command raises to these
codes in one place.  All randomness flows from ``--seed`` through
named per-stage substreams.  Without ``--seed`` the seed is read from the
``LO_CHROMA_SEED`` environment variable, a value that is not an integer
exits with 1, and with neither set it is 0.  CSV rows contain only
deterministic fields; wall-clock stage timings go to stderr as JSON when
``--timings`` is set.

Flag defaults come from the library (``PipelineConfig``, ``STRATEGIES``,
``DEFAULT_TOL``); the paper's fixed constants have no flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import formats, oracle
from .combround import ResampleBudgetExceeded
from .gaussround import RoundingConfig, threshold_trace
from .hypercore import NotTwoLOColorable, check_lo, check_partial_lo, degree_stats, first_violation
from .instances import GenerationError, gen_balanced_tripartite, gen_planted
from .pipeline import (
    STRATEGIES,
    PipelineConfig,
    PipelineError,
    RunReport,
    bench_rows,
    lo_color,
)
from .sdp import (
    DEFAULT_TOL,
    SdpConfig,
    SolverStalled,
    VectorSolution,
    ortho_profile,
    solve_feasibility,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_GENERATION = 2
EXIT_STALL = 3
EXIT_INVALID = 4

# The CLI's one failure policy.  A command lets errors propagate; ``main``
# exits with the code of the first row whose types match and prints its
# label and the message as one stderr line.  ``FormatError`` is a
# ``ValueError``.  Any other exception is a bug and keeps its traceback.
FAILURES = (
    ((GenerationError,), EXIT_GENERATION, "generation failed"),
    ((SolverStalled,), EXIT_STALL, "solver stalled"),
    ((NotTwoLOColorable,), EXIT_INVALID, "instance rejected"),
    ((PipelineError, ResampleBudgetExceeded), EXIT_INVALID, "validity failure"),
    ((OSError,), EXIT_IO, "I/O error"),
    ((ValueError,), EXIT_IO, "invalid input"),
)
_HANDLED = tuple(t for types, _, _ in FAILURES for t in types)

CSV_SCHEMA_COMMENT = "# schema=1"


def _message(exc: Exception) -> str:
    """The error's message, with a ``NotTwoLOColorable`` witness edge named
    in the file's 1-based ids (the library's ids are 0-based)."""
    if isinstance(exc, NotTwoLOColorable) and exc.witness is not None:
        one_based = tuple(v + 1 for v in exc.witness)
        return str(exc).replace(f"edge {exc.witness}", f"edge {one_based}", 1)
    return str(exc)


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    # Also accepted after the subcommand; a separate dest keeps the
    # subparser's default from clobbering a seed given before it.
    p.add_argument("--seed", type=int, default=None, dest="seed_sub")


def _add_tol_flag(p: argparse.ArgumentParser, what: str = "solver tolerance") -> None:
    p.add_argument("--sdp-tol", type=float, default=DEFAULT_TOL, help=what)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()
    _add_seed_flag(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=defaults.strategy)
    p.add_argument("--eps", type=float, default=defaults.eps, help="balance band radius")
    _add_tol_flag(p)
    p.add_argument("--timings", action="store_true", help="emit stage timings to stderr")


def _config_from(args) -> PipelineConfig:
    return PipelineConfig(strategy=args.strategy, eps=args.eps, tol=args.sdp_tol, seed=args.seed)


def _emit_report(report: RunReport, stream) -> None:
    print(CSV_SCHEMA_COMMENT, file=stream)
    print(",".join(RunReport.CSV_FIELDS), file=stream)
    print(report.csv_row(), file=stream)


def cmd_gen(args) -> int:
    out = Path(args.output)
    try:
        if args.kind == "planted":
            inst, cert = gen_planted(args.n, args.m, args.seed), None
        else:
            inst, cert = gen_balanced_tripartite(args.n, args.m, args.seed)
    except ValueError as exc:
        # A size the family cannot take is a generation failure (exit 2).
        raise GenerationError(str(exc)) from exc
    formats.write_h3(out, inst.H, comment=f"{args.kind} n={args.n} m={args.m} seed={args.seed}")
    formats.write_coloring(out.with_suffix(".planted"), inst.planted)
    if cert is not None:
        formats.write_cert(out.with_suffix(".cert"), cert.vstar, cert.vecs)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = SdpConfig(tol=args.sdp_tol, seed=args.seed)
    sol = solve_feasibility(formats.read_h3(args.instance), cfg)
    formats.write_cert(args.output or f"{args.instance}.cert", sol.vstar, sol.vecs)
    print(f"norm_residual={sol.norm_residual:.12e} "
          f"edge_residual={sol.edge_residual:.12e} iters={sol.iters}")
    return EXIT_OK


def cmd_color(args) -> int:
    cfg = _config_from(args)
    coloring, report = lo_color(formats.read_h3(args.instance), cfg)
    formats.write_coloring(args.output or f"{args.instance}.coloring", coloring)
    _emit_report(report, sys.stdout)
    if args.timings:
        print(json.dumps({"timings": report.timings}), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    H = formats.read_h3(args.instance)
    if args.cert:
        vstar, vecs = formats.read_cert(args.coloring)
        sol = VectorSolution.from_vectors(H, vstar, vecs, tol=args.sdp_tol)
        print(f"norm_residual={sol.norm_residual:.12e} "
              f"edge_residual={sol.edge_residual:.12e}")
        ok = sol.norm_residual <= args.sdp_tol and sol.edge_residual <= args.sdp_tol
        return EXIT_OK if ok else EXIT_INVALID
    coloring = formats.read_coloring(args.coloring)
    # check_lo ignores colored vertices outside the hypergraph; a file that
    # names one does not color this instance.
    outside = [v for v in coloring.domain() if v >= H.n]
    if outside:
        raise formats.FormatError(
            f"{args.coloring}: vertex {min(outside) + 1} is outside 1..{H.n}"
        )
    check = check_partial_lo if args.partial else check_lo
    if check(H, coloring):
        print("OK")
        return EXIT_OK
    idx = first_violation(H, coloring)
    e = tuple(H.edge_array()[idx].tolist())
    ranks = [coloring.get(v) for v in e]
    print(f"violation: edge {idx} = {tuple(v + 1 for v in e)} ranks {ranks}")
    return EXIT_INVALID


def cmd_oracle(args) -> int:
    H = formats.read_h3(args.instance)
    if args.what == "lo":
        result = oracle.brute_lo(H, args.k)
        if result is None:
            print(f"no LO coloring with {args.k} colors")
            return EXIT_INVALID
        print(formats.format_coloring(result), end="")
    else:
        largest = oracle.brute_max_odd_is if args.what == "maxodd" else oracle.brute_max_even_is
        print(" ".join(str(v + 1) for v in sorted(largest(H))))
    return EXIT_OK


def cmd_stats(args) -> int:
    H = formats.read_h3(args.instance)
    # Checked first, so a bad --draws or --alpha-override fails before any solve.
    if args.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {args.draws}")
    cfg = RoundingConfig.for_degree(
        degree_stats(H).delta_bar, seed=args.seed, alpha_override=args.alpha_override,
    )
    if args.cert:
        vstar, vecs = formats.read_cert(args.cert)
        sol = VectorSolution.from_vectors(H, vstar, vecs)
    else:
        sol = solve_feasibility(H, SdpConfig(tol=args.sdp_tol, seed=args.seed))
    trace = threshold_trace(H, ortho_profile(sol), cfg, args.draws)
    print(CSV_SCHEMA_COMMENT)
    print("draw,selected,kept")
    for i, (raw, kept) in enumerate(trace):
        print(f"{i},{len(raw)},{len(kept)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --sizes list {args.sizes!r}: {exc}") from None
    if any(n < 1 for n in sizes):
        raise ValueError(f"bad --sizes list {args.sizes!r}: sizes must be at least 1")
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    cfg = _config_from(args)
    rows, slope = bench_rows(sizes, args.runs, cfg)
    lines = [CSV_SCHEMA_COMMENT, ",".join(RunReport.CSV_FIELDS)]
    lines.extend(r.csv_row() for r in rows)
    if slope is not None:
        lines.append(f"# loglog_slope={slope:.6f}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    if args.timings:
        payload = [{"n": r.n, "seed": r.seed, "timings": r.timings} for r in rows]
        print(json.dumps(payload), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lochroma",
        description="Linearly ordered coloring of 3-uniform hypergraphs via SDP rounding.",
    )
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    _add_seed_flag(p)
    p.add_argument("--kind", choices=("planted", "balanced"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help=".h3 output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the vector program, write a .cert")
    _add_seed_flag(p)
    p.add_argument("instance", help=".h3 input path")
    p.add_argument("-o", "--output", default=None, help=".cert output path")
    _add_tol_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("color", help="run the coloring pipeline")
    p.add_argument("instance", help=".h3 input path")
    p.add_argument("-o", "--output", default=None, help="coloring output path")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring file (or a .cert with --cert)")
    p.add_argument("instance")
    p.add_argument("coloring", help="coloring path, or certificate path with --cert")
    p.add_argument("--partial", action="store_true", help="allow partially assigned colorings")
    p.add_argument("--cert", action="store_true", help="treat the second path as a .cert")
    _add_tol_flag(p, "residual gate for --cert")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force references for small instances")
    p.add_argument("what", choices=("lo", "maxodd", "maxeven"))
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=2, help="color budget for 'lo'")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("stats", help="per-draw threshold rounding sizes as CSV")
    _add_seed_flag(p)
    p.add_argument("instance")
    p.add_argument("--cert", default=None, help="use this .cert instead of solving")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--alpha-override", type=float, default=None)
    _add_tol_flag(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="scaling sweep over planted instances")
    p.add_argument("--sizes", default="50,100,200,400", help="comma-separated vertex counts")
    p.add_argument("--runs", type=int, default=5, help="seeds per size")
    p.add_argument("--csv", default=None, help="write rows to this file instead of stdout")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sub_seed = getattr(args, "seed_sub", None)
    if sub_seed is not None:
        args.seed = sub_seed
    if args.seed is None:
        env = os.environ.get("LO_CHROMA_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            print(f"LO_CHROMA_SEED is not an integer: {env!r}", file=sys.stderr)
            return EXIT_IO
    try:
        return args.func(args)
    except _HANDLED as exc:
        code, label = next(
            (code, label) for types, code, label in FAILURES if isinstance(exc, types)
        )
        print(f"{label}: {_message(exc)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
