"""Record bench/reference.json: the outcome of every operation in every pool.

    python3 bench/record_reference.py

Runs each pool operation once, in this process, and stores its values,
error estimates, exit status, whether it failed by the checker's rule, and
its time (used only to order strata for sampling).  Re-record only when a
change is meant to alter the program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    (BENCH / "out").mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cache-", dir=BENCH / "out")
    os.environ["MOCKTRACE_CACHE"] = cache
    warnings.simplefilter("ignore")
    ops = {}
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.POOLS[workload]():
                t = time.perf_counter()
                try:
                    outcome = workloads.run_op(op)
                except Exception as exc:
                    outcome = {"raised": f"{type(exc).__name__}: {exc}"[:300]}
                outcome["t"] = round(time.perf_counter() - t, 6)
                why = workloads.judge(op, outcome, None)
                ops[op] = {"defect": bool(why), "why": why, **outcome}
                print(f"{op:<28} {outcome['t']:8.3f}s {why or 'ok'}", flush=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    import numpy
    import scipy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    meta = {
        "git_sha": sha.stdout.strip() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    text = json.dumps({"meta": meta, "ops": ops}, indent=0, sort_keys=True)
    (BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
