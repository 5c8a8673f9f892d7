"""Colorings and iteration counts do not depend on the BLAS thread count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lochroma

# (n, m) of planted instances on both sides of m = n+1; seeds 0..2 each.
SIZES = [(600, 1800), (300, 900), (240, 120), (45, 22)]
CASES = [(n, m, seed) for n, m in SIZES for seed in range(3)]

SCRIPT = """
import json, sys
from lochroma import PipelineConfig, gen_planted, lo_color
out = []
for n, m, seed in json.loads(sys.argv[1]):
    coloring, report = lo_color(gen_planted(n, m, seed).H, PipelineConfig(seed=seed))
    out.append([sorted(coloring.items()), report.colors, report.sdp_iters])
print(json.dumps(out))
"""


def _run(threads: int):
    src = str(Path(lochroma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CASES)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_same_colorings_and_iters_across_blas_threads():
    one, two = _run(1), _run(2)
    for case, a, b in zip(CASES, one, two):
        assert a == b, f"planted (n, m, seed) = {case} differs between 1 and 2 BLAS threads"
