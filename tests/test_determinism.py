"""Colorings, iteration counts and odd-set draws do not depend on the BLAS
thread count."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lochroma

# (n, m) of planted instances on both sides of m = n+1; seeds 0..2 each.
# At (300, 270) the cores have m < n+1 and q = 13-19, and the rank-3
# attempt converges; there the basis the null-space factor returns is not the
# same under one and two threads, and the outputs must not follow it.  At
# (1200, 3600), the largest planted-dense size, the null-space factor runs
# blocked and threaded.  At (1600, 800) no basis is built and the
# full-space LM alone solves the core.  At (300, 210) seed 2 and (240, 120)
# seeds 0 and 2 the second rank-3 attempt converges after the first stalls,
# and at (240, 120) seed 12 both stall and the full-space LM solves the core:
# both handoffs between attempts.
SIZES = [
    (1600, 800), (1200, 3600), (600, 1800), (300, 900), (300, 270), (300, 210), (240, 120),
    (45, 22),
]
CASES = [(n, m, seed) for n, m in SIZES for seed in range(3)] + [(240, 120, 12)]

SCRIPT = """
import json, sys
from lochroma import PipelineConfig, gen_planted, lo_color
out = []
for n, m, seed in json.loads(sys.argv[1]):
    coloring, report = lo_color(gen_planted(n, m, seed).H, PipelineConfig(seed=seed))
    out.append([sorted(coloring.items()), report.colors, report.sdp_iters])
print(json.dumps(out))
"""

# Balanced inputs, which the planted cases never reach (balanced = 0 there):
# color_balanced and balanced_log_coloring on low-degree tripartite
# certificates, and best_odd_is on random directions.  n * dim is 9900 and
# 32000, above the 9216 below which OpenBLAS runs a matrix-vector product on
# one thread whatever the setting.
BALANCED_SCRIPT = """
import json
from lochroma import (
    PipelineConfig, balanced_log_coloring, best_odd_is, gamma_profile,
    gen_balanced_tripartite, ortho_profile,
)
from lochroma.pipeline import color_balanced
from test_gaussround import random_linear_instance
out = []
for seed in range(3):
    inst, cert = gen_balanced_tripartite(3300, 1650, seed)
    op = ortho_profile(cert)
    coloring = color_balanced(inst.H, op, PipelineConfig(seed=seed))
    out.append(sorted(coloring.items()))
    coloring = balanced_log_coloring(inst.H, gamma_profile(cert, 1e-6), op, seed)
    out.append(sorted(coloring.items()))
    H, op = random_linear_instance(2000, 3000, 16, seed)
    out.append(sorted(best_odd_is(H, op, 4.0, seed=seed)))
print(json.dumps(out))
"""


def _run(threads: int, script: str, *argv: str):
    src = str(Path(lochroma.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, tests, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_same_colorings_and_iters_across_blas_threads():
    one, two = _run(1, SCRIPT, json.dumps(CASES)), _run(2, SCRIPT, json.dumps(CASES))
    for case, a, b in zip(CASES, one, two):
        assert a == b, f"planted (n, m, seed) = {case} differs between 1 and 2 BLAS threads"


def test_same_balanced_rounding_across_blas_threads():
    one, two = _run(1, BALANCED_SCRIPT), _run(2, BALANCED_SCRIPT)
    assert len(one) == 9 and all(one)
    assert one == two
