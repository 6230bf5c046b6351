"""Alternating parent/change benchmark pairs, summarised into a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent HEAD --workload coeff_verify --seed 7 \
        --pairs 10 --out BENCH_6.json [--trace 1]

The parent tree is exported with `git archive <rev> | tar -x` into a
temporary directory; the change is the working tree.  Pair i runs
`bench/run.py --workload W --seed S --seconds T --trace X` in both trees,
the parent first when i is even.  T is BENCHMARK.json's run_seconds.  Each
run's JSON result (the last line of its stdout) is kept, and every metric
gets the parent's and the change's quartiles (inclusive method), the ratio
of the medians and the number of pairs the change won; the better direction
of each metric comes from BENCHMARK.json.  Results land in the output file
under the key W, W_seed<S> for a seed other than 7, and W_trace for a
traced run; other keys of an existing file are kept.  Nothing under bench/
and nothing in BENCHMARK.json is written, apart from the bench/out/ scratch
files that bench/run.py leaves in each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = (
    "alternating parent/change pairs on one host; pair i runs the parent first "
    "when i is even; seed 7 unless the workload key says otherwise"
)


def export_tree(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def short_rev(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_pairs(trees: dict[str, Path], pairs: int, run) -> list[dict]:
    """run(tree) in the parent and the change tree, `pairs` times, the parent first in even pairs.

    Returns one {"pair", "side", "first", "result"} record per run, result
    being what run returned.
    """
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs.append({"pair": i, "side": side, "first": order[0], "result": run(trees[side])})
            print(f"pair {i} {side} done", flush=True)
    return runs


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    pairs = max(r["pair"] for r in runs) + 1
    by_side = {(r["pair"], r["side"]): r["result"]["metrics"] for r in runs}
    summary = {}
    for name in by_side[(0, "parent")]:
        parent = [by_side[(i, "parent")][name]["value"] for i in range(pairs)]
        change = [by_side[(i, "change")][name]["value"] for i in range(pairs)]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        p, c = quartiles(parent), quartiles(change)
        summary[name] = {
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "pairs": pairs,
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]
    rev = short_rev(args.parent)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export_tree(rev, trees["parent"])
        runs = run_pairs(trees, args.pairs, lambda tree: run_bench(
            tree, args.workload, args.seed, seconds, args.trace))
    for r in runs:
        wall = r["result"]["metrics"].get("wall_s", {}).get("value")
        print(f"pair {r['pair']} {r['side']}: failed {r['result']['failed']}"
              + (f", wall_s {wall:.3f}" if wall is not None else ""))

    key = args.workload
    if args.seed != 7:
        key += f"_seed{args.seed}"
    if args.trace:
        key += "_trace"
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(
        command=f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace T",
        protocol=PROTOCOL,
        host={"cpus": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "machine": platform.machine()},
        parent=rev,
    )
    doc.setdefault("workloads", {})[key] = {"summary": summarise(runs, better), "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {key} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
