"""Wall time of whole CLI processes, parent against change, in alternating pairs.

    python3 tools/cold_start.py --parent HEAD --pairs 10 --out BENCH_19.json

The bench times only `import mocktrace.cli`; this script times what a user
waits for: a fresh `python -m mocktrace.cli <command>` from start to exit,
import and work together.  The parent tree is exported as
tools/bench_pairs.py does, and the pairs run through its run_pairs: one run
is every command once in one tree, and pair i runs the parent first when i
is even.  One untimed run per tree comes first.  Every command gets
bench_pairs' summary (quartiles, ratio of the medians, pairs won).  Results
land in the output file under the key `cli_cold_start`; other keys of an
existing file are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import ROOT, export_tree, run_pairs, short_rev, summarise

COMMANDS = (
    "trace --d -7 --D 1 --m 1",
    "trace --d 5 --D 1 --m 1",
    "jm coeffs --m 1 --n 8",
    "jm coeffs --m 10 --n 64",
    "qforms list --disc 5",
    "verify prop1 --m 1 --bound 60",
)


def run_cli(tree: Path, command: str) -> float:
    """Seconds from the start of `python -m mocktrace.cli command` to its exit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mocktrace.cli", *command.split()],
                          env=env, capture_output=True, text=True)
    elapsed = perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{command} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def run_commands(tree: Path) -> dict:
    return {"metrics": {command: {"value": run_cli(tree, command)} for command in COMMANDS}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    rev = short_rev(args.parent)

    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export_tree(rev, trees["parent"])
        for tree in trees.values():
            run_commands(tree)
        runs = run_pairs(trees, args.pairs, run_commands)

    summary = summarise(runs, {})
    for command, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{command:32s} parent {p['median']:.3f} s [{p['q1']:.3f}, {p['q3']:.3f}]  "
              f"change {c['median']:.3f} s [{c['q1']:.3f}, {c['q3']:.3f}]  "
              f"won {s['change_better_pairs']}/{args.pairs}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["cli_cold_start"] = {
        "command": "python -m mocktrace.cli <command>, one fresh process per run",
        "protocol": "alternating parent/change pairs on one host; pair i runs every command "
                    "in the parent first when i is even; one untimed run per tree first",
        "parent": rev,
        "cpus": len(os.sched_getaffinity(0)),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote cli_cold_start to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
