"""One benchmark round in a fresh interpreter (started by run.py, one at a time).

Reads {"workload", "ops", "trace", "spans_out"} as JSON on stdin, times the
set-up (import mocktrace.cli, plus the SPF sieve for workloads that reach
`series`), then runs the operations in order and prints one JSON result on
stdout.  With "ops" empty it only times the set-up.  The program's own
output is captured per operation, so stdout carries nothing else.
"""

from __future__ import annotations

import json
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

import workloads
from tracer import SIEVE_TARGET, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if job["trace"] else None

    t0 = perf_counter()
    import mocktrace.cli  # noqa: F401  (the set-up being timed)

    if tracer:
        tracer.install()
    if job["workload"] in workloads.SIEVE_WORKLOADS:
        from mocktrace import series

        if tracer:
            with tracer.only(SIEVE_TARGET):
                series.factorize(2)
        else:
            series.factorize(2)
    setup_s = perf_counter() - t0

    if not Path(mocktrace.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mocktrace from {mocktrace.cli.__file__}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    from scipy.integrate import IntegrationWarning

    results = []
    t_wall = perf_counter()
    for i, op in enumerate(job["ops"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = perf_counter()
            try:
                if tracer:
                    outcome = tracer.run_op(i, op, lambda: workloads.run_op(op))
                else:
                    outcome = workloads.run_op(op)
            except Exception as exc:  # an operation that raises is a failed operation
                outcome = {"raised": f"{type(exc).__name__}: {exc}"[:300]}
            outcome["t"] = perf_counter() - t
        outcome["quad_warnings"] = sum(issubclass(w.category, IntegrationWarning) for w in caught)
        results.append(outcome)
    wall_s = perf_counter() - t_wall

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        tracer.restore()
        tracer.counts["geodesic.quad_warnings"] = sum(r["quad_warnings"] for r in results)
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent_metrics()
        if job["spans_out"]:
            spans = [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in tracer.spans]
            Path(job["spans_out"]).write_text(json.dumps({"ops": job["ops"], "spans": spans}))
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
