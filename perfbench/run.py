"""Benchmark entry point: runs one workload in its own single-threaded process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-long --seed 1 --seconds 30 --trace 0

The workload process (``workload.py``) imports tracesvm from ``src/`` and
starts with every BLAS/OpenMP pool capped at one thread.  This script relays
its standard output, whose last line is the result object, and exits with
the workload's exit code.  It fails without printing a result when the
tracesvm sources are missing or the workload process crashes or times out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "tracesvm" / "__init__.py").is_file():
        print(f"error: no tracesvm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        **os.environ,
        **THREAD_CAPS,
        # Fixed string hashing keeps set and dict layouts, and so timings,
        # the same from run to run; no output depends on it.
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *argv]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        print("error: the workload printed no result line", file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
