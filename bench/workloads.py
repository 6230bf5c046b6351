"""Operation pools, seeded selection, operation runners and the output checker.

An operation is named by a short id string, e.g. "trace -7 1 3" or
"coeff 13"; the committed reference (reference.json) is keyed by the same
ids.  Nothing here imports mocktrace at module level: the runners import it
when first called, after the round has timed its set-up.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

WORKLOADS = ("trace_table", "coeff_verify", "prop1_box")

# Workloads whose first operation would build the SPF sieve in `series`.
SIEVE_WORKLOADS = ("coeff_verify", "prop1_box")

# Zagier's classical traces (criterion 9): run in every trace_table round and
# checked against the exact value, not only against the reference.
ORACLES = {"trace -3 1 1": -248.0, "trace -4 1 1": 492.0, "trace -7 1 1": -4119.0}
ORACLE_TOL = 1e-6

# Sampling step per operation kind: a round takes 1/step of each stratum,
# evenly spaced.  Step 1 runs the whole stratum every round.
STEPS = {
    "trace_table": {"cm": 4, "ns": 6, "sq": 1, "jm": 10},
    "coeff_verify": {"coeff_sq": 1, "coeff_ns": 8},
    "prop1_box": {"prop1": 1},
}


def _is_square(n: int) -> bool:
    return n > 0 and math.isqrt(n) ** 2 == n


def trace_table_pool() -> list[str]:
    ops = []
    for D in (1, 5, 8):
        for d in range(-200, 121):
            dD = d * D
            if d % 4 not in (0, 1) or dD == 0:
                continue
            if _is_square(dD):
                keep = math.isqrt(dD) <= 5
            else:
                keep = -200 <= dD <= 120
            if keep:
                ops += [f"trace {d} {D} {m}" for m in (1, 2, 3)]
    ops += [f"jm {m} {N}" for m in range(1, 11) for N in range(8, 65, 8)]
    return ops


def coeff_verify_pool() -> list[str]:
    return [f"coeff {d}" for d in (1, 4, 5, 8, 12, 13, 17, 21, 24, 28)]


def prop1_box_pool() -> list[str]:
    # s = 2 shapes use `verify prop1`'s default bound (300); s = 1.5 passes
    # 300 explicitly (its default, 1500, is criterion 4 and too long to repeat)
    return [
        "prop1 1 1 0 2.0 default",
        "prop1 1 1 1 2.0 default",
        "prop1 1 1 2 2.0 default",
        "prop1 1 1 1 1.5 300",
        "prop1 4 1 0 2.0 default",
    ]


POOLS = {
    "trace_table": trace_table_pool,
    "coeff_verify": coeff_verify_pool,
    "prop1_box": prop1_box_pool,
}


def kind(op: str) -> str:
    name, *rest = op.split()
    if name == "trace":
        d, D = int(rest[0]), int(rest[1])
        return "cm" if d * D < 0 else ("sq" if _is_square(d * D) else "ns")
    if name == "coeff":
        return "coeff_sq" if _is_square(int(rest[0])) else "coeff_ns"
    return name


def select(workload: str, seed: int, reference: dict) -> list[str]:
    """The operations of one round, in execution order.

    Each stratum (operation kind x whether the reference run passed) is
    ordered by its reference cost and sampled systematically, a fixed count
    per stratum from a seeded offset, so every seed gets the same mix of
    cheap and costly, passing and failing operations.  Each `jm coeffs` pick
    runs twice: the first visit writes the round's private cache and the
    repeat reads it.
    """
    rng = random.Random(f"{workload}:{seed}")
    steps = STEPS[workload]
    cells: dict[tuple[str, bool], list[str]] = {}
    for op in POOLS[workload]():
        if op not in ORACLES:
            cells.setdefault((kind(op), reference[op]["defect"]), []).append(op)
    picked = list(ORACLES) if workload == "trace_table" else []
    for key in sorted(cells):
        ops = sorted(cells[key], key=lambda op: (reference[op]["t"], op))
        count = max(1, round(len(ops) / steps[key[0]]))
        u = rng.random()
        picked += [ops[int((j + u) * len(ops) / count)] for j in range(count)]
    picked += [op for op in picked if op.startswith("jm ")]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------- running


def _dispatch(argv: list[str]) -> tuple[int, str, str]:
    from mocktrace import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.dispatch(argv)
    return rc, out.getvalue(), err.getvalue().strip()[:300]


def run_op(op: str) -> dict:
    """Run one operation and return its raw outcome (exceptions propagate)."""
    name, *a = op.split()
    if name == "trace":
        rc, out, err = _dispatch(["trace", "--d", a[0], "--D", a[1], "--m", a[2]])
        res = {"rc": rc, "msg": err}
        if rc == 0:
            payload = json.loads(out)
            res.update(value=payload["value"], err=payload["err_estimate"])
        return res
    if name == "jm":
        rc, out, err = _dispatch(["jm", "coeffs", "--m", a[0], "--n", a[1]])
        res = {"rc": rc, "msg": err}
        if rc == 0:
            res["digest"] = hashlib.sha256(out.encode()).hexdigest()
        return res
    from mocktrace import geodesic, poincare, series

    t0 = perf_counter()
    if name == "coeff":
        d = int(a[0])
        sv = series.coeff_a(d, 1)
        t1 = perf_counter()
        trace = geodesic.trace_square if _is_square(d) else geodesic.trace_nonsquare
        tr = trace(d, 1, 1)
        geo, geo_err = tr.value, tr.err_estimate
    elif name == "prop1":
        d, D, m, s = int(a[0]), int(a[1]), int(a[2]), float(a[3])
        bound = None if a[4] == "default" else int(a[4])
        geo, geo_err = poincare.prop1_lhs(d, D, m, s, bound)
        t1 = perf_counter()
        sv = series.prop1_rhs(d, D, m, s, c_max=10_000)
    else:
        raise ValueError(f"unknown operation {op!r}")
    t2 = perf_counter()
    return {
        "rc": 0,
        "value": sv.value,
        "err": sv.tail_estimate,
        "geo": geo,
        "geo_err": geo_err,
        "gap": abs(geo - sv.value) / max(1.0, abs(sv.value)),
        "t_first": t1 - t0,
        "t_second": t2 - t1,
    }


# ---------------------------------------------------------------- checking


def judge(op: str, outcome: dict, ref: dict | None) -> str:
    """Why the operation failed, or "" if it passed.

    An operation fails if it raised, exited non-zero, returned a non-finite
    value or error estimate, or moved from the reference value by more than
    the larger of the two results' own error estimates.  Cached q-expansions
    are exact and must match the reference bytes.
    """
    if "raised" in outcome:
        return f"raised {outcome['raised']}"
    if outcome.get("rc", 0) != 0:
        return f"exit {outcome['rc']}: {outcome.get('msg', '')}"
    for key, err_key in (("value", "err"), ("geo", "geo_err")):
        if key not in outcome:
            continue
        v, e = outcome[key], outcome[err_key]
        if v is None or e is None or not (math.isfinite(v) and math.isfinite(e)):
            return f"non-finite {key}"
        if ref is not None and ref.get(key) is not None:
            tol = max(ref[err_key], e)
            if abs(v - ref[key]) > tol:
                return f"{key} {v!r} moved from reference {ref[key]!r} by more than {tol:.3g}"
    if ref is not None and ref.get("digest") and outcome.get("digest") != ref["digest"]:
        return "output differs from the reference bytes"
    if op in ORACLES and abs(outcome["value"] - ORACLES[op]) > ORACLE_TOL:
        return f"value {outcome['value']!r} misses the classical value {ORACLES[op]}"
    return ""


def self_test() -> list[tuple[str, bool]]:
    """The checker must fail moved, non-zero-exit and NaN results and pass a clean one."""
    ref = {"defect": False, "value": 1.0, "err": 1e-3}
    cases = [
        ("moved by 10x its err_estimate", {"rc": 0, "value": 1.01, "err": 1e-3}, True),
        ("non-zero exit code", {"rc": 1, "msg": "error"}, True),
        ("NaN value", {"rc": 0, "value": float("nan"), "err": 1e-3}, True),
        ("clean result", {"rc": 0, "value": 1.0005, "err": 1e-3}, False),
    ]
    return [(name, bool(judge("self-test", out, ref)) == want) for name, out, want in cases]
