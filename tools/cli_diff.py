"""Compare CLI stdout bytes and exit codes between a parent revision and the working tree.

    python3 tools/cli_diff.py --parent HEAD

The parent tree is exported with `git archive <rev> | tar -x` into a
temporary directory, as tools/bench_pairs.py does; the change is the working
tree.  Both trees run the same invocations, each tree in one interpreter of
its own with PYTHONPATH=<tree>/src, through `mocktrace.cli.dispatch` with
stdout and stderr captured per invocation:

- every operation of bench/workloads.py's `trace_table` pool (`trace` and
  `jm coeffs`), and `trace --route semicircle` on its square operations;
- `coeff --d d --D 1` for the d of its `coeff_verify` pool, and `coeff` at
  (d, D) = (1, 8), (1, 12) and (8, 5), whose root tables lift the roots
  mod 2^k of an even dD and the roots mod 5^k;
- `coeff --d 5 --D 1 --deltas 0.2 0.1 0.05`, the grid option that was
  dropped;
- `verify prop1` on the shapes of its `prop1_box` pool, and on the same
  shapes at `--bound 40` and `--bound 80`, where prop1_lhs's ray height
  y_max = max(20, bound / 6) sits on its floor of 20,
  `verify prop1 --d -3 --D -3 --m 0 --bound 100`, whose dD is a positive
  square outside the identity's domain d, D > 0, and
  `verify prop1 --d 25 --D 1 --m 2 --s 2 --bound 100`, whose classes cancel
  below the summed error of their rays, and
  `verify prop1 --d 9 --D 1 --m 1 --s 2 --bound 100`, whose class sum is
  zero within its error;
- `qforms list --disc n` for -200 <= n <= 200;
- `jm coeffs` at (m, N) = (0, 1) and (10, 64);
- `trace --D 1` at the last d whose CM values fit in a double and the first
  refused one, for m = 1 (d = -51044, -51047) and m = 10 (d = -508, -511),
  and `trace --d 5 --D 1 --m 4`, whose series keeps most terms near the arc;
- `table --D 1 --m 1` over d in [-20, 30] and [25, 45], and
  `table --D 5 --m 1` over d in [-12, 12];
- `table --D 1 --m 2` over d in [1, 30] and `table --D 5 --m 2` over d in
  [1, 10], whose square d reuse cusp-to-cusp classes integrated earlier in
  the same interpreter, and `trace --d 10001 --D 1 --m 3`, whose j_m
  overflows a double at the apex of the principal cycle;
- `verify values`, `verify symmetry`, `verify kloosterman` and
  `verify thm2 --d 1 --D 1 --m 1`, and `verify thm2 --m 1` at (d, D) = (5, 1)
  and (-3, 1), refused because dD is not a positive square;
- usage errors: every `--cmax` at 0, -3, 250000 and `lots`,
  `verify prop1 --bound` at 0, 3000 and `x`, `--tol` at 0, -1, nan and
  inf on `verify prop1` and `verify thm2`, `--m 11` on `trace`, on
  `table --D 1 --d-min -5 --d-max 5`, on `jm coeffs --n 8` and on
  `verify thm2 --d 1 --D 1`, `jm coeffs --m 2 --n 65` and
  `verify prop1 --m -1`;
- `trace --d 0 --D 1 --m 1`, refused by the router,
  `coeff --d 2624406480004 --D 1 --cmax 100`, whose square part
  f = 810001 lies past the prime sieve, and
  `coeff --d 1000005 --D 1 --cmax 100`, whose fundamental part d0 = 1000005
  lies past the limit of the L-series sum.

Every difference in stdout bytes, in exit code or in an exception that
escaped dispatch is printed, and the script exits 1 if there is any.
Stderr differences are printed as notes and do not count.  bench/ is only
read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_tree

RUNNER = """
import io, json, sys, warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from mocktrace import cli

results = []
for argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            rc = cli.dispatch(argv)
        except Exception as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
    results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def invocations() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import coeff_verify_pool, kind, prop1_box_pool, trace_table_pool

    calls, semicircle = [], []
    for op in trace_table_pool():
        name, *a = op.split()
        if name == "trace":
            calls.append(["trace", "--d", a[0], "--D", a[1], "--m", a[2]])
            if kind(op) == "sq":
                semicircle.append(calls[-1] + ["--route", "semicircle"])
        else:
            calls.append(["jm", "coeffs", "--m", a[0], "--n", a[1]])
    calls += semicircle
    calls += [["coeff", "--d", op.split()[1], "--D", "1"] for op in coeff_verify_pool()]
    calls += [["coeff", "--d", d, "--D", D] for d, D in (("1", "8"), ("1", "12"), ("8", "5"))]
    calls.append(["coeff", "--d", "5", "--D", "1", "--deltas", "0.2", "0.1", "0.05"])
    for low in (None, "40", "80"):
        for op in prop1_box_pool():
            d, D, m, s, bound = op.split()[1:]
            bound = low or bound
            calls.append(["verify", "prop1", "--d", d, "--D", D, "--m", m, "--s", s]
                         + ([] if bound == "default" else ["--bound", bound]))
    calls.append(["verify", "prop1", "--d", "-3", "--D", "-3", "--m", "0", "--bound", "100"])
    calls.append(["verify", "prop1", "--d", "25", "--D", "1", "--m", "2", "--s", "2", "--bound", "100"])
    calls.append(["verify", "prop1", "--d", "9", "--D", "1", "--m", "1", "--s", "2", "--bound", "100"])
    calls += [["qforms", "list", "--disc", str(n)] for n in range(-200, 201)]
    calls += [["jm", "coeffs", "--m", m, "--n", n] for m, n in (("0", "1"), ("10", "64"))]
    calls += [["trace", "--d", d, "--D", "1", "--m", m]
              for d, m in (("-51044", "1"), ("-51047", "1"), ("-508", "10"), ("-511", "10"),
                           ("5", "4"))]
    calls += [["table", "--D", D, "--m", "1", "--d-min", lo, "--d-max", hi]
              for D, lo, hi in (("1", "-20", "30"), ("1", "25", "45"), ("5", "-12", "12"))]
    calls += [["table", "--D", D, "--m", "2", "--d-min", "1", "--d-max", hi]
              for D, hi in (("1", "30"), ("5", "10"))]
    calls.append(["trace", "--d", "10001", "--D", "1", "--m", "3"])
    calls += [["verify", check] for check in ("values", "symmetry", "kloosterman")]
    thm2 = ["verify", "thm2", "--d", "1", "--D", "1", "--m", "1"]
    calls.append(thm2)
    calls += [["verify", "thm2", "--d", d, "--D", "1", "--m", "1"] for d in ("5", "-3")]
    for command in (["coeff", "--d", "1", "--D", "1"], ["verify", "prop1"],
                    ["verify", "kloosterman"], ["verify", "symmetry"]):
        calls += [command + ["--cmax", v] for v in ("0", "-3", "250000", "lots")]
    calls += [["verify", "prop1", "--bound", v] for v in ("0", "3000", "x")]
    calls += [command + ["--tol", v] for command in (["verify", "prop1"], thm2)
              for v in ("0", "-1", "nan", "inf")]
    calls += [["trace", "--d", "5", "--D", "1", "--m", "11"],
              ["table", "--D", "1", "--m", "11", "--d-min", "-5", "--d-max", "5"],
              ["jm", "coeffs", "--m", "11", "--n", "8"], ["jm", "coeffs", "--m", "2", "--n", "65"],
              ["verify", "thm2", "--d", "1", "--D", "1", "--m", "11"],
              ["verify", "prop1", "--m", "-1"],
              ["trace", "--d", "0", "--D", "1", "--m", "1"],
              ["coeff", "--d", "2624406480004", "--D", "1", "--cmax", "100"],
              ["coeff", "--d", "1000005", "--D", "1", "--cmax", "100"]]
    return calls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    args = ap.parse_args()
    calls = invocations()
    print(f"running {len(calls)} invocations in each tree", flush=True)
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        trees["parent"].mkdir()
        export_tree(args.parent, trees["parent"])
        (tmp / "calls.json").write_text(json.dumps(calls))
        procs = {}
        for side, tree in trees.items():
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            procs[side] = subprocess.Popen(
                [sys.executable, "-c", RUNNER, str(tmp / "calls.json"), str(tmp / f"{side}.json")],
                env=env, stderr=subprocess.PIPE, text=True,
            )
        for side, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"the {side} runner exited {proc.returncode}: {err[-2000:]}")
        parent, change = (json.loads((tmp / f"{side}.json").read_text()) for side in trees)

    differences = notes = 0
    for argv, old, new in zip(calls, parent, change):
        shown = " ".join(argv)
        if old["rc"] != new["rc"]:
            differences += 1
            print(f"DIFF {shown}: exit {old['rc']} -> {new['rc']}")
        if old["out"] != new["out"]:
            differences += 1
            print(f"DIFF {shown}: stdout\n  parent: {old['out']!r}\n  change: {new['out']!r}")
        if old["err"] != new["err"]:
            notes += 1
            print(f"note {shown}: stderr\n  parent: {old['err']!r}\n  change: {new['err']!r}")
    print(f"{len(calls)} invocations: {differences} stdout or exit-code differences, "
          f"{notes} stderr differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
