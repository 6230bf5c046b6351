"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints a single `criterion N: PASS/FAIL` line (visible in the
captured output on failure; the pytest -v status line mirrors it) and then
asserts.  Shared expensive quantities (trace values, extrapolated series
coefficients) are computed once per session.
"""

import math
import random
import time
from functools import lru_cache

import pytest

from mocktrace.arith import pell_fundamental
from mocktrace.geodesic import (
    cycle_integral_closed,
    trace_negative,
    trace_nonsquare,
    trace_square,
)
from mocktrace.modfun import eval_jm, eval_jmQ
from mocktrace.poincare import prop1_lhs
from mocktrace.qform import (
    IDENTITY,
    QuadForm,
    S,
    apply,
    chi_D,
    classes_nonsquare,
    classes_square,
    translation,
)
from mocktrace.series import coeff_a, kloosterman_plus, prop1_rhs, s_m_sum, thm2_rhs
from mocktrace.arith import divisors, kronecker


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@lru_cache(maxsize=None)
def trace_11_1():
    return trace_square(1, 1, 1)


@lru_cache(maxsize=None)
def coeff(d, D):
    return coeff_a(d, D)


def test_criterion_01_reference_trace_and_route_agreement():
    t0 = time.time()
    res_v = trace_11_1()
    res_s = trace_square(1, 1, 1, route="semicircle")
    elapsed = time.time() - t0
    dev = abs(res_v.value - (-16.028))
    route_gap = abs(res_v.value - res_s.value)
    ok = dev <= 1e-3 and route_gap <= 1e-6 and elapsed < 5.0
    report(1, ok, f"value={res_v.value:.7f} route_gap={route_gap:.2e} t={elapsed:.1f}s")
    assert dev <= 1e-3
    assert route_gap <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_endpoint_limit_all_m():
    # j_{m,Q}(iy)/y -> -4 pi m as y -> 0.  The ratio is even in y with a
    # curvature term (2 pi m)^3 y^2 / 3 that alone exceeds the tolerance at
    # y = 1e-3 for m = 2, 3, so the limit is taken by one Richardson step
    # over y and y/2, which removes the y^2 term.
    y = 1e-3
    Q = QuadForm(0, 1, 0)

    def ratio(m, yy):
        return (eval_jmQ(m, Q, complex(0.0, yy)) / yy).real

    raw, devs, tols = {}, {}, {}
    for m in (1, 2, 3):
        r1, r2 = ratio(m, y), ratio(m, y / 2)
        limit = (4 * r2 - r1) / 3
        raw[m] = abs(r1 + 4 * math.pi * m)
        devs[m] = abs(limit + 4 * math.pi * m)
        tols[m] = 1e-5 * (1 + 4 * math.pi * m)
    ok = all(devs[m] <= tols[m] for m in devs)
    report(
        2,
        ok,
        " ".join(f"m={m}:raw={raw[m]:.2e},dev={devs[m]:.2e}(tol={tols[m]:.2e})" for m in devs),
    )
    for m in (1, 2, 3):
        assert devs[m] <= tols[m], f"m={m}"


@pytest.mark.parametrize("d,D", [(1, 1), (4, 1)])
def test_criterion_03_prop1_m0(d, D):
    t0 = time.time()
    lhs, _ = prop1_lhs(d, D, 0, 2.0, bound=300)
    rhs = prop1_rhs(d, D, 0, 2.0, c_max=10_000)
    elapsed = time.time() - t0
    rel = abs(lhs - rhs.value) / abs(rhs.value)
    ok = rel <= 1e-3 and elapsed < 60.0
    report(3, ok, f"(d,D)=({d},{D}) lhs={lhs:.7f} rhs={rhs.value:.7f} rel={rel:.2e} t={elapsed:.0f}s")
    assert rel <= 1e-3
    assert elapsed < 60.0


def test_criterion_04_prop1_m1():
    t0 = time.time()
    lhs, lhs_err = prop1_lhs(1, 1, 1, 1.5, bound=1500)
    rhs = prop1_rhs(1, 1, 1, 1.5, c_max=10_000)
    elapsed = time.time() - t0
    rel = abs(lhs - rhs.value) / abs(rhs.value)
    ok = rel <= 1e-2 and elapsed < 300.0
    report(
        4,
        ok,
        f"lhs={lhs:.5f}(err {lhs_err:.1e}) rhs={rhs.value:.5f}(tail {rhs.tail_estimate:.1e}) "
        f"rel={rel:.2e} t={elapsed:.0f}s",
    )
    assert rel <= 1e-2
    assert elapsed < 300.0


def test_criterion_05_exact_kloosterman_identity_and_symmetry():
    worst_id = 0.0
    grid = [(1, 1), (4, 1), (1, 4), (9, 1), (4, 4), (5, 5)]
    rejected = []
    for d, D in grid:
        if D == 4:
            # the character behind S_m is defined only for fundamental D
            # (the operation's own precondition); these grid points must
            # raise a domain error rather than return an undefined value
            with pytest.raises(ValueError):
                s_m_sum(1, d, D, 4)
            rejected.append((d, D))
            continue
        for m in range(1, 7):
            for c in range(1, 51):
                lhs = s_m_sum(m, d, D, 4 * c)
                rhs = 0.5 * sum(
                    kronecker(D, n)
                    * math.sqrt(n / c)
                    * kloosterman_plus(d, m * m * D // (n * n), 4 * c // n)
                    for n in divisors(math.gcd(m, c))
                )
                worst_id = max(worst_id, abs(lhs - rhs))
    worst_sym = 0.0
    for c in range(1, 101):
        for d in (0, 1, 4, 5, 8, 9, 12):
            for D in (0, 1, 4, 5, 8, 9, 12):
                worst_sym = max(
                    worst_sym,
                    abs(kloosterman_plus(d, D, 4 * c) - kloosterman_plus(D, d, 4 * c)),
                )
    ok = worst_id <= 1e-9 and worst_sym <= 1e-9
    report(
        5,
        ok,
        f"identity worst={worst_id:.2e} symmetry worst={worst_sym:.2e} "
        f"non-fundamental D rejected at {rejected}",
    )
    assert worst_id <= 1e-9
    assert worst_sym <= 1e-9


@pytest.mark.parametrize("d", [5, 8])
def test_criterion_06_nonsquare_trace_matches_series(d):
    tr = trace_nonsquare(d, 1, 1)
    sv = coeff(d, 1)
    budget = tr.err_estimate + sv.tail_estimate
    gap = abs(tr.value - sv.value)
    ok = gap <= budget and budget <= 0.05
    report(6, ok, f"d={d} trace={tr.value:.5f} series={sv.value:.5f} gap={gap:.3f} budget={budget:.3f}")
    assert gap <= budget
    assert budget <= 0.05


def test_criterion_07_square_trace_matches_series():
    tr = trace_11_1()
    sv = coeff(1, 1)
    budget = tr.err_estimate + sv.tail_estimate
    gap = abs(tr.value - sv.value)
    ok = gap <= budget and budget <= 0.05
    report(7, ok, f"trace={tr.value:.5f} series={sv.value:.5f} gap={gap:.3f} budget={budget:.3f}")
    assert gap <= budget
    assert budget <= 0.05


def test_criterion_08_m2_trace_matches_divisor_sum():
    tr = trace_square(1, 1, 2)
    rhs = thm2_rhs(1, 1, 2)
    budget = tr.err_estimate + rhs.tail_estimate
    gap = abs(tr.value - rhs.value)
    ok = gap <= budget and budget <= 0.1
    report(8, ok, f"trace={tr.value:.5f} series={rhs.value:.5f} gap={gap:.3f} budget={budget:.3f}")
    assert gap <= budget
    assert budget <= 0.1


def test_criterion_09_classical_cm_traces():
    targets = {-3: -248.0, -4: 492.0, -7: -4119.0}
    worst = 0.0
    for d, want in targets.items():
        got = trace_negative(d, 1, 1).value
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-6
    report(9, ok, f"worst deviation {worst:.2e} over d in {sorted(targets)}")
    assert worst <= 1e-6


def test_criterion_10_structural_suite():
    # (a) square-discriminant representative count equals b
    counts_ok = all(len(classes_square(b * b).reps) == b for b in range(1, 21))

    # (b) chi invariance under 100 random unimodular actions
    rng = random.Random(17)
    chi_ok = True
    cases = [(1, QuadForm(0, 1, 0)), (5, QuadForm(-1, 1, 1)), (8, QuadForm(1, 0, -2))]
    for D, Q in cases:
        base = chi_D(D, Q)
        for _ in range(100):
            g = IDENTITY
            for _ in range(rng.randint(1, 5)):
                g = (translation(rng.randint(-4, 4)) @ S) @ g
            chi_ok = chi_ok and chi_D(D, apply(g, Q)) == base

    # (c) closed-cycle constant integrand gives 2 log eps_d / sqrt d
    cycle_worst = 0.0
    for d in (5, 8, 12, 13):
        expected = 2.0 * math.log(pell_fundamental(d).unit) / math.sqrt(d)
        for Q in classes_nonsquare(d).reps:
            got = cycle_integral_closed(Q, lambda tau: 1.0 + 0.0j)[0].real
            cycle_worst = max(cycle_worst, abs(got - expected))

    # (d) Gamma-invariance of eval_jm via fundamental-domain base points
    rng = random.Random(23)
    inv_worst = 0.0
    for _ in range(8):
        tau0 = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.1))
        if abs(tau0) < 1.0:
            tau0 = complex(tau0.real, math.sqrt(1.0 - tau0.real**2) + 0.05)
        g = IDENTITY
        for _ in range(3):
            g = (translation(rng.choice([-1, 1])) @ S) @ g
        tau1 = g.moebius(tau0)
        if tau1.imag < 0.05:
            continue
        inv_worst = max(inv_worst, abs(eval_jm(1, tau1) - eval_jm(1, tau0)))

    ok = counts_ok and chi_ok and cycle_worst <= 1e-8 and inv_worst <= 1e-9
    report(
        10,
        ok,
        f"rep counts {'ok' if counts_ok else 'BAD'}; chi invariance "
        f"{'ok' if chi_ok else 'BAD'}; cycle worst={cycle_worst:.2e}; "
        f"invariance worst={inv_worst:.2e}",
    )
    assert counts_ok
    assert chi_ok
    assert cycle_worst <= 1e-8
    assert inv_worst <= 1e-9
