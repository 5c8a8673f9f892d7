"""Layered benchmark for the lochroma pipeline.

    python3 layerbench/run.py --workload planted-dense --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process is one closed-loop caller: it calls ``lo_color`` on one instance at a
time and re-checks every returned coloring with ``check_lo``.  The corpus is a
fixed function of ``--seed`` (see ``corpus.py``).  After set-up the corpus is
run in passes until ``--seconds`` is used up, at least twice; each call's time
is its median over passes.  Between passes the set-up is repeated in fresh
processes (``--setup-only``), and ``setup_s`` is the median of all set-ups.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from spans
that ``spans.py`` records around the library's public functions.  Colors,
iterations, set sizes, draws and rounds must repeat exactly across all passes,
traced or not; any difference fails the run.  The last line of stdout is the
JSON result; its ``attempted`` and ``failed`` count each corpus call once.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Fixed for every commit measured.  One thread: the caller then needs one
# core only, and small BLAS calls do not wait for a second thread to wake.
BLAS_THREADS = "1"
# Set-ups per run: this process's own, then fresh processes between passes.
SETUP_REPS = 7
MIN_PASSES = 2

END_TO_END = {
    "corpus_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "colors.n15": "colors",
    "colors.logn": "colors",
    "ok_share": "ratio",
}


@dataclass(frozen=True)
class Outcome:
    """Deterministic facts of one call; ``seconds`` is kept apart."""

    ident: str
    strategy: str
    error: str
    message: str
    colors: int
    sdp_iters: int
    balanced: int
    digest: str
    valid: bool


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


@contextmanager
def certified(case):
    """Feed the case's certificate to lo_color in place of the vector solve.

    lo_color solves on the hypergraph induced by vertices of positive degree,
    so the certificate is restricted to those rows.
    """
    if case.cert is None:
        yield
        return
    from lochroma import pipeline

    core = [v for v, d in enumerate(case.H.degrees()) if d > 0]

    def solve(H_core, cfg=None):
        if H_core.n != len(core):
            raise RuntimeError(f"{case.ident}: core has {H_core.n} vertices, expected {len(core)}")
        return case.cert.restrict(H_core, core)

    saved = pipeline.solve_feasibility
    pipeline.solve_feasibility = solve
    try:
        yield
    finally:
        pipeline.solve_feasibility = saved


def call(case, tracer=None) -> tuple[Outcome, float]:
    from lochroma import PipelineConfig, check_lo, lo_color

    cfg = PipelineConfig(strategy=case.strategy, seed=case.seed)
    with certified(case), (tracer.root("pipeline.lo_color") if tracer else nullcontext()):
        t0 = time.perf_counter()
        try:
            coloring, report = lo_color(case.H, cfg)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            error = exc
        seconds = time.perf_counter() - t0
    if error is not None:
        return Outcome(case.ident, case.strategy, type(error).__name__, str(error)[:200],
                       0, 0, 0, "", False), seconds
    try:
        valid = check_lo(case.H, coloring)
    except ValueError:
        valid = False
    ranks = ",".join(str(coloring.get(v, 0)) for v in range(case.H.n))
    digest = hashlib.sha256(ranks.encode()).hexdigest()[:16]
    return Outcome(case.ident, case.strategy, "", "", report.colors, report.sdp_iters,
                   report.balanced, digest, valid), seconds


def run_pass(cases, tracer=None) -> tuple[list[Outcome], list[float]]:
    outcomes, seconds = [], []
    for case in cases:
        outcome, dt = call(case, tracer)
        outcomes.append(outcome)
        seconds.append(dt)
    return outcomes, seconds


def corpus_seconds(passes: list[list[float]]) -> float:
    """Sum over calls of each call's median time across passes.

    A burst of host load slows the calls it overlaps; the per-call median
    drops it unless it hits the same call in most passes.
    """
    return sum(statistics.median(call_s) for call_s in zip(*passes))


def mean_colors(outcomes, strategy) -> float:
    ok = [o.colors for o in outcomes if o.strategy == strategy and o.valid]
    return sum(ok) / len(ok) if ok else 0.0


def set_up(workload: str, seed: int):
    """Everything before timing: imports, first-call costs, corpus and warm-up.

    Returns the corpus, its generation time and the set-up time since the
    process started.
    """
    from lochroma import gen_planted, lo_color

    from layerbench import corpus

    # Pay the first-call costs (lazy imports, BLAS start-up) here.
    lo_color(gen_planted(12, 8, 0).H)
    t0 = time.perf_counter()
    cases = corpus.WORKLOADS[workload](seed)
    gen_s = time.perf_counter() - t0
    for case in corpus.warmup(seed):
        call(case)
    return cases, gen_s, time.perf_counter() - T_START


def set_up_again(workload: str, seed: int) -> tuple[float, float]:
    """(setup_s, gen_s) of one more set-up, in a fresh process."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rep = json.loads(child.stdout.strip().splitlines()[-1])
    return rep["setup_s"], rep["gen_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lochroma" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from layerbench import corpus, spans

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cases, gen_s, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "gen_s": gen_s}))
        return 0
    # Set-up runs once here and again in fresh processes, one after each
    # pass, so that the median samples the host over the whole run and not
    # over one burst of a few seconds.
    setups, gens = [setup_s], [gen_s]

    def set_up_once_more():
        s, g = set_up_again(args.workload, args.seed)
        setups.append(s)
        gens.append(g)

    facts = machine_facts()
    print("machine", json.dumps(facts))
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} calls")

    # The corpus lives for the whole run.  Freeze it out of the cyclic
    # collector, so that collections during the passes cost what they would
    # in a process holding one instance, not a time that swings with the
    # corpus size.
    gc.collect()
    gc.freeze()

    # Passes: untraced only, or alternating untraced/traced under --trace 1.
    untraced, traced, layer_times, layer_counts = [], [], [], []
    reference = None
    mismatch = ""
    t_measure = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = spans.Tracer()
            with tracer.installed():
                outcomes, seconds = run_pass(cases, tracer)
            times, counts = spans.layer_metrics(tracer.spans)
            layer_times.append(times)
            if layer_counts and counts != layer_counts[0]:
                mismatch = mismatch or f"layer counts differ between traced passes: {counts}"
            layer_counts.append(counts)
            traced.append(seconds)
        else:
            outcomes, seconds = run_pass(cases)
            untraced.append(seconds)
        if reference is None:
            reference = outcomes
        elif outcomes != reference:
            diff = next(o for o, r in zip(outcomes, reference) if o != r)
            mismatch = mismatch or f"outcome differs between passes: {diff}"
        passes = len(untraced) + len(traced)
        if len(setups) < SETUP_REPS:
            set_up_once_more()
        elapsed = time.perf_counter() - t_measure
        # With --trace 1 the second pass is traced, so both kinds are present.
        longest = max(statistics.median(map(sum, p)) for p in (untraced, traced) if p)
        if passes >= MIN_PASSES and elapsed + longest > args.seconds:
            break
    while len(setups) < SETUP_REPS:
        set_up_once_more()
    print(f"set-up {[round(x, 3) for x in setups]} s, generation {[round(x, 3) for x in gens]} s")

    for o in reference:
        if o.error:
            print(f"failure {o.ident} {o.strategy} {o.error}: {o.message}")
        elif not o.valid:
            print(f"invalid {o.ident} {o.strategy}: returned coloring fails check_lo")
    for label, p in (("untraced", untraced), ("traced", traced)):
        if p:
            print(f"{label} pass totals {[round(sum(x), 3) for x in p]}, "
                  f"per-call medians sum to {corpus_seconds(p):.3f} s")

    # Every pass repeats the same calls with the same outcomes (checked
    # above), so a call counts once, however many passes the time allowed.
    # attempted and failed are then a function of the seed alone.
    failed = sum(1 for o in reference if not o.valid)
    verified = len(reference) - failed
    invalid = [o for o in reference if not o.error and not o.valid]
    correct = not invalid and not mismatch
    if mismatch:
        print("determinism check failed:", mismatch)

    if args.trace:
        times = {k: statistics.median(t[k] for t in layer_times) for k in layer_times[0]}
        counts = dict(layer_counts[0])
        counts["pipeline.balanced"] = sum(o.balanced for o in reference)
        errors = {f"pipeline.errors.{t}": 0 for t in spans.ERROR_TYPES + ("other",)}
        for o in reference:
            if o.error:
                key = f"pipeline.errors.{o.error}"
                errors[key if key in errors else "pipeline.errors.other"] += 1
        counts.update(errors)
        times["instances.gen_s"] = statistics.median(gens)
        times["trace.overhead_s"] = corpus_seconds(traced) - corpus_seconds(untraced)
        metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in {**times, **counts}.items()}
        for k in sorted(metrics):
            print(f"  {k:34s} {metrics[k]['value']:>14.6g} {metrics[k]['unit']}")
    else:
        values = {
            "corpus_s": corpus_seconds(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "colors.n15": mean_colors(reference, "n15"),
            "colors.logn": mean_colors(reference, "logn"),
            "ok_share": verified / len(reference),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for k, m in metrics.items():
            print(f"  {k:12s} {m['value']:>12.6g} {m['unit']}")

    result = {
        "correct": correct,
        "attempted": len(reference),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
