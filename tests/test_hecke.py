"""Hecke relations across discriminants, inside the geometric pipeline only.

T(p^2) on the generating series of the traces ties Tr(j_p) at d to Tr(j_1) at
p^2 d, d and d/p^2 (Zagier, Traces of singular moduli; Duke-Imamoglu-Toth).
For p prime, with (d/p) the Kronecker symbol and a trace at a non-discriminant
counted as 0:

    d < 0:  Tr_{d,D}(j_p) = Tr_{p^2 d,D}(j_1) + (d/p) Tr_{d,D}(j_1) + p Tr_{d/p^2,D}(j_1)
    d > 0:  Tr_{d,D}(j_p) = p Tr_{p^2 d,D}(j_1) + (d/p) Tr_{d,D}(j_1) + Tr_{d/p^2,D}(j_1)

Every value here is a geometric trace; none comes from the spectral side.
"""

import math

import pytest

from mocktrace.arith import kronecker
from mocktrace.geodesic import LOG_DBL_MAX, trace


def _hecke_sides(d: int, D: int, p: int) -> tuple[float, float, float]:
    """(lhs, rhs, budget): the two sides and the sum of the err_estimates times |coefficient|."""
    lhs = trace(d, D, p)
    outer, inner = (1, p) if d < 0 else (p, 1)  # the weights of Tr at p^2 d and at d/p^2
    terms = [(outer, p * p * d), (kronecker(d, p), d)]
    if d % (p * p) == 0 and (d // (p * p)) % 4 in (0, 1):
        terms.append((inner, d // (p * p)))
    rhs, budget = 0.0, lhs.err_estimate
    for coef, disc in terms:
        if coef:
            t = trace(disc, D, 1)
            rhs += coef * t.value
            budget += abs(coef) * t.err_estimate
    return lhs.value, rhs, budget


def _overflows(d: int, D: int, p: int) -> bool:
    """Whether pi p sqrt|dD| > ln DBL_MAX: then Tr_{d,D}(j_p) and Tr_{p^2 d,D}(j_1) are refused."""
    return math.pi * p * math.sqrt(-d * D) > LOG_DBL_MAX


class TestCMGrid:
    def test_cm_traces(self):
        # D in {1, 5, 8, 13}, every discriminant -200 <= d <= -3, p in {2, 3, 5}
        checked, refused, worst = 0, [], 0.0
        for D in (1, 5, 8, 13):
            for d in range(-200, -2):
                if d % 4 not in (0, 1):
                    continue
                for p in (2, 3, 5):
                    if _overflows(d, D, p):
                        with pytest.raises(ValueError, match="j_m overflows a double"):
                            _hecke_sides(d, D, p)
                        refused.append((d, D, p))
                        continue
                    lhs, rhs, budget = _hecke_sides(d, D, p)
                    assert abs(lhs - rhs) <= budget, (d, D, p, lhs, rhs, budget)
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    checked += 1
        assert checked == 1178 and len(refused) == 22
        assert worst < 1e-12


class TestPositive:
    # (5, 1, 2) misses by 10.3 until trace_nonsquare(20, 1, 1) integrates its
    # imprimitive class over the true stabilizer's period (ROADMAP item 1)
    @pytest.mark.parametrize("d, D, p", [(8, 1, 2), (1, 1, 2), (4, 1, 2)])
    def test_within_budget(self, d, D, p):
        lhs, rhs, budget = _hecke_sides(d, D, p)
        assert abs(lhs - rhs) <= budget, (lhs, rhs, budget)
