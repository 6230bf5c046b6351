"""mocktrace benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload trace_table --seed 1 --seconds 30 --trace 0

Runs rounds of the workload's seeded operations, each round in a fresh
interpreter (bench/child.py), one at a time and with BLAS threads pinned to
1, so every round starts with cold lru_caches and a cold SPF sieve, as a CLI
user or a test session does.  Rounds repeat while another one fits in
--seconds (at least one).  With --trace 0 it also times several set-up-only
interpreters and reports the end-to-end metrics; with --trace 1 each round is
an untraced run followed by a traced one, and it reports the per-layer
metrics plus the tracing overhead.  Every operation is checked against the
committed reference (reference.json).  The last line of stdout is the JSON
result; details go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "xcheck_growth": "ratio",
}


class BenchError(Exception):
    pass


def run_child(job: dict, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MOCKTRACE_CACHE")}
    env.update(BLAS_PIN)
    cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    env["MOCKTRACE_CACHE"] = cache
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round exceeded the {DEADLINE_S:.0f} s budget") from exc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (inclusive method), or the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def environment(seed: int, versions: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "nproc_note": "2-core shared sandbox" if nproc == 2 else f"{nproc}-core machine",
        **versions,
        "git_sha": sha or "unknown (not a git checkout)",
        "blas_threads": BLAS_PIN,
        "seed": seed,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "mocktrace" / "cli.py").is_file():
        print(f"error: no mocktrace source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())["ops"]
    broken = [name for name, ok in workloads.self_test() if not ok]
    if broken:
        print(f"error: checker self-test failed: {broken}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)

    ops = workloads.select(args.workload, args.seed, reference)
    job = {"workload": args.workload, "ops": ops, "trace": False, "spans_out": None}
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    rounds, traced, setups = [], [], []
    probe = {**job, "ops": []}
    try:
        # set-up probes go before and after the rounds, so that their median
        # does not hinge on one stretch of a machine whose speed drifts
        if not args.trace:
            setups += [run_child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        while True:
            t = time.monotonic()
            rounds.append(run_child(job, deadline))
            if args.trace:
                traced.append(run_child({**job, "trace": True, "spans_out": str(spans_out)}, deadline))
            took = time.monotonic() - t
            if time.monotonic() - start + took > args.seconds:
                break
        setups += [r["setup_s"] for r in rounds]
        if not args.trace:
            setups += [run_child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # ---- check every operation against the reference
    attempted = failed = defects = 0
    regressions, by_kind, growth, gaps = [], {}, [], []
    for r in rounds + traced:
        for op, outcome in zip(ops, r["ops"]):
            ref = reference[op]
            why = workloads.judge(op, outcome, None if ref["defect"] else ref)
            attempted += 1
            k = by_kind.setdefault(workloads.kind(op), [0, 0])
            k[1] += 1
            if why:
                defects += 1
                k[0] += 1
                if not ref["defect"]:
                    failed += 1
                    regressions.append(f"{op}: {why}")
            if "gap" in outcome and not why:
                gaps.append(outcome["gap"])
                growth.append(outcome["gap"] / ref["gap"])

    per_op = [statistics.median(r["ops"][i]["t"] for r in rounds) for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": quantile(per_op, 9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "pass_frac": (attempted - defects) / attempted,
        "xcheck_growth": max(growth, default=1.0),
    }
    env = environment(args.seed, rounds[0]["versions"])

    # ---- human-readable summary
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations x {len(rounds)} round(s)")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_frac':<14} {defects / attempted:.6g} ratio ({defects}/{attempted} failed)")
    if gaps:
        print(f"  {'xcheck_gap':<14} {max(gaps):.6g} ratio (max over {len(gaps)} cross-checks)")
    print("  failed by kind: " + ", ".join(f"{k} {f}/{n}" for k, (f, n) in sorted(by_kind.items())))
    print(f"  setup samples: {len(setups)}; regressions against the reference: {len(regressions)}")
    for line in regressions[:20]:
        print(f"    {line}")
    print("env: " + json.dumps(env, sort_keys=True))

    detail = {"env": env, "ops": ops, "rounds": rounds, "traced": traced, "metrics": metrics}
    result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    if args.trace:
        names = [name for name, *_ in tracer.PER_LAYER]
        layers = {n: statistics.mean(t["layers"][n] for t in traced) for n in names}
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - metrics["wall_s"]
        units = {name: unit for name, unit, *_ in tracer.PER_LAYER} | {"trace.overhead_s": "s"}
        absent = sorted({a for t in traced for a in t["absent"]})
        print("per-layer:")
        for name, value in layers.items():
            print(f"  {name:<42} {value:.6g} {units[name]}")
        print(f"  absent (helper gone, reported as 0): {absent or 'none'}; spans in {spans_out}")
        result_metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
        detail["layers"] = layers
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
