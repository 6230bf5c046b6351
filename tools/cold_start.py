"""Wall time of whole CLI processes, parent against change, in alternating pairs.

    python3 tools/cold_start.py --parent HEAD --pairs 10 --out BENCH_19.json

The bench times only `import mocktrace.cli`; this script times what a user
waits for: a fresh `python -m mocktrace.cli <command>` from start to exit,
import and work together.  The parent tree is exported with
`git archive <rev> | tar -x` into a temporary directory, as
tools/bench_pairs.py does; the change is the working tree.  Each tree gets a
private, initially empty MOCKTRACE_CACHE, and one untimed run of every
command fills it, so that every timed run meets the same cache state.  Pair i
runs the parent first when i is even.  Every command gets the parent's and
the change's quartiles (inclusive method), the ratio of the medians and the
number of pairs the change won.  Results land in the output file under the
key `cli_cold_start`; other keys of an existing file are kept.
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

from bench_pairs import ROOT, export_tree, quartiles

COMMANDS = (
    "trace --d -7 --D 1 --m 1",
    "trace --d 5 --D 1 --m 1",
    "jm coeffs --m 1 --n 8",
    "qforms list --disc 5",
    "verify prop1 --m 1 --bound 60",
)


def run_cli(tree: Path, cache: Path, command: str) -> float:
    """Seconds from the start of `python -m mocktrace.cli command` to its exit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               MOCKTRACE_CACHE=str(cache))
    t = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mocktrace.cli", *command.split()],
                          env=env, capture_output=True, text=True)
    elapsed = perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{command} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         check=True, capture_output=True, text=True).stdout.strip()

    times = {command: {"parent": [], "change": []} for command in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        trees["parent"].mkdir()
        export_tree(rev, trees["parent"])
        caches = {side: tmp / f"cache-{side}" for side in trees}
        for side, tree in trees.items():
            for command in COMMANDS:
                run_cli(tree, caches[side], command)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for command in COMMANDS:
                for side in order:
                    times[command][side].append(run_cli(trees[side], caches[side], command))
            print(f"pair {i} done", flush=True)

    summary = {}
    for command, t in times.items():
        p, c = quartiles(t["parent"]), quartiles(t["change"])
        won = sum(b < a for a, b in zip(t["parent"], t["change"]))
        summary[command] = {
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"],
            "change_better_pairs": won,
            "pairs": args.pairs,
            "runs": t,
        }
        print(f"{command:32s} parent {p['median']:.3f} s [{p['q1']:.3f}, {p['q3']:.3f}]  "
              f"change {c['median']:.3f} s [{c['q1']:.3f}, {c['q3']:.3f}]  "
              f"won {won}/{args.pairs}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["cli_cold_start"] = {
        "command": "python -m mocktrace.cli <command>, one fresh process per run",
        "protocol": "alternating parent/change pairs on one host; pair i runs the parent "
                    "first when i is even; private MOCKTRACE_CACHE per tree, filled by one "
                    "untimed run of every command",
        "parent": rev,
        "cpus": len(os.sched_getaffinity(0)),
        "commands": summary,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote cli_cold_start to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
