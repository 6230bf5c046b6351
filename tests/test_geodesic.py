"""Cycle integrals and traces across the three discriminant regimes."""

import cmath
import math
from collections import Counter

import pytest
import scipy.integrate
from scipy.integrate import IntegrationWarning

from mocktrace import geodesic
from mocktrace.arith import pell_fundamental
from mocktrace.geodesic import (
    THETA_EPS,
    _quad_complex,
    _semicircle_integral,
    cycle_integral_closed,
    trace_negative,
    trace_nonsquare,
    trace_square,
)
from mocktrace.modfun import M_MAX
from mocktrace.qform import QuadForm, classes_nonsquare


@pytest.fixture(autouse=True)
def cold_cusp_memo():
    # the cusp-to-cusp memo lives for the process: each test starts from a
    # cold one, so that what it counts does not depend on the tests before it
    geodesic._cusp_integral.cache_clear()


class TestGeodesicCycle:
    """The semicircle S_Q that closed and cusp-to-cusp integrals run along."""

    def test_negative_disc_rejected(self):
        with pytest.raises(ValueError):
            cycle_integral_closed(QuadForm(1, 0, 1), lambda tau: 1.0)

    def test_apex_on_geodesic(self):
        Q = QuadForm(1, 1, -1)
        # the memoized integrand is Q(tau, 1) / sin(theta) at tau(theta)
        _, _, f = _semicircle_integral(
            Q, lambda tau: Q.a * tau * tau + Q.b * tau + Q.c, math.pi / 2, math.pi / 4
        )
        val = f(math.pi / 2)
        # at the top of the semicircle Q(tau, 1) = -disc / (2a), purely real
        assert abs(val.imag) < 1e-12
        assert val.real == pytest.approx(-Q.disc / (2 * Q.a), rel=1e-12)


class TestQuadComplex:
    def test_reversed_limits_flip_the_sign(self):
        # closed cycles integrate from pi/2 down to the automorph image,
        # so reversed limits must negate both parts
        fwd = _quad_complex(lambda x: cmath.exp(1j * x), 0.0, 1.0)[0]
        bwd = _quad_complex(lambda x: cmath.exp(1j * x), 1.0, 0.0)[0]
        assert fwd == pytest.approx(complex(math.sin(1.0), 1.0 - math.cos(1.0)), rel=1e-12)
        assert bwd == pytest.approx(-fwd, rel=1e-12)


class TestClosedCycleIntegral:
    @pytest.mark.parametrize("d", [5, 8, 12, 13, 17, 21, 24, 28])
    def test_constant_integrand_gives_regulator(self, d):
        # int dtau_Q over one period equals 2 log eps_d / sqrt(d)
        expected = 2.0 * math.log(pell_fundamental(d).unit) / math.sqrt(d)
        for Q in classes_nonsquare(d).reps:
            got, abserr = cycle_integral_closed(Q, lambda tau: 1.0 + 0.0j)
            assert abs(got.imag) < 1e-10
            assert abs(got.real - expected) < 1e-8, (d, Q)
            assert 0 <= abserr <= 1e-8, (d, Q)

    def test_square_disc_rejected(self):
        with pytest.raises(ValueError):
            cycle_integral_closed(QuadForm(1, 2, 0), lambda tau: 1.0)

    @pytest.mark.parametrize("d", [5, 8, 12, 13, 17, 21, 24, 28])
    def test_cycles_run_downward(self, d, monkeypatch):
        # the path runs from the apex (theta = pi/2) down to the automorph
        # image, so the quadrature limits are reversed
        limits = []
        real = geodesic._semicircle_integral

        def spy(Q, f, th0, th1):
            limits.append((Q, th0, th1))
            return real(Q, f, th0, th1)

        monkeypatch.setattr(geodesic, "_semicircle_integral", spy)
        for Q in classes_nonsquare(d).reps:
            cycle_integral_closed(Q, lambda tau: 1.0 + 0.0j)
        assert len(limits) == len(classes_nonsquare(d).reps)
        for Q, th0, th1 in limits:
            assert th0 == math.pi / 2 and 0 < th1 < th0, (d, Q)


class TestIntegrandEvaluations:
    """Each quadrature node is evaluated once per integral."""

    def _record(self, monkeypatch, name):
        calls = []
        real = getattr(geodesic, name)

        def spy(m, *args, **kwargs):
            calls.append((m, *args))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(geodesic, name, spy)
        return calls

    def test_closed_cycle_nodes(self, monkeypatch):
        calls = self._record(monkeypatch, "eval_jm")
        assert trace_nonsquare(5, 1, 1).value == pytest.approx(-5.1616294, abs=1e-5)
        assert calls and max(Counter(calls).values()) == 1

    @pytest.mark.parametrize("route", ["vertical", "semicircle"])
    def test_cusp_to_cusp_nodes(self, monkeypatch, route):
        # the two classes of d = 4 have different forms, so (m, Q, tau)
        # separates the integrals
        calls = self._record(monkeypatch, "eval_jmQ")
        assert trace_square(4, 1, 1, route=route).value == pytest.approx(-19.9933332, abs=1e-4)
        assert calls and max(Counter(calls).values()) == 1


class TestMRange:
    """Each trace routine checks m against its own range before any work."""

    @pytest.mark.parametrize(
        "trace, d, lowest", [(trace_negative, -3, 1), (trace_nonsquare, 5, 0), (trace_square, 1, 1)]
    )
    def test_rejected_up_front(self, monkeypatch, trace, d, lowest):
        def refuse(*args):
            raise AssertionError("work started before the m check")

        for name in ("chi_D", "eval_jm", "eval_jmQ"):
            monkeypatch.setattr(geodesic, name, refuse)
        for m in (lowest - 1, M_MAX + 1):
            with pytest.raises(ValueError, match=rf"^m must be in \[{lowest}, {M_MAX}\], got {m}$"):
                trace(d, 1, m)


class TestRouter:
    """trace picks the regime from the sign and squareness of dD."""

    @pytest.mark.parametrize(
        "d, D, m, route, name",
        [
            (-7, 1, 1, "vertical", "trace_negative"),
            (5, 1, 1, "vertical", "trace_nonsquare"),
            (4, 1, 1, "vertical", "trace_square"),
            (4, 1, 1, "semicircle", "trace_square"),
        ],
    )
    def test_same_result_as_its_regime(self, d, D, m, route, name, monkeypatch):
        regime = getattr(geodesic, name)
        kwargs = {"route": route} if name == "trace_square" else {}
        want = regime(d, D, m, **kwargs)
        calls = []

        def spy(*args, **kw):
            calls.append((args, kw))
            return regime(*args, **kw)

        # the regime is looked up in the module, so a wrapper set there sees the call
        monkeypatch.setattr(geodesic, name, spy)
        assert geodesic.trace(d, D, m, route) == want
        assert calls == [((d, D, m), kwargs)]

    def test_zero_dD_refused(self):
        with pytest.raises(ValueError, match=r"^d \* D must be nonzero$"):
            geodesic.trace(0, 1, 1)


def zagier_g1(n_max: int) -> dict[int, int]:
    """B(n) for 0 <= n <= n_max, q^n coefficients of g_1 = theta_1(tau) E_4(4 tau) / eta(4 tau)^6.

    theta_1 = sum over all integers k of (-1)^k q^{k^2}, and g_1 = q^{-1} theta_1 H(q^4) with
    H = E_4 / prod (1 - x^j)^6, all in exact integers.  Zagier's "Traces of singular
    moduli": Tr_d(j - 744) = -B(d) for every discriminant -d < 0."""
    size = (n_max + 1) // 4 + 1
    sigma1, sigma3 = [0] * size, [0] * size
    for k in range(1, size):
        for multiple in range(k, size, k):
            sigma1[multiple] += k
            sigma3[multiple] += k**3
    # n F_n = 6 sum_k sigma_1(k) F_{n-k}, from the logarithmic derivative of prod (1 - x^j)^-6
    inverse_eta = [1] + [0] * (size - 1)
    for n in range(1, size):
        inverse_eta[n] = 6 * sum(sigma1[k] * inverse_eta[n - k] for k in range(1, n + 1)) // n
    e4 = [1] + [240 * sigma3[k] for k in range(1, size)]
    h = [sum(e4[k] * inverse_eta[n - k] for k in range(n + 1)) for n in range(size)]
    coeffs = {}
    for n in range(n_max + 1):
        k_max = math.isqrt(n + 1)
        coeffs[n] = sum((-1) ** abs(k) * h[(n + 1 - k * k) // 4] for k in range(-k_max, k_max + 1)
                        if (n + 1 - k * k) % 4 == 0)
    return coeffs


class TestTraceNegative:
    @pytest.mark.parametrize("d,value", [(-3, -248.0), (-4, 492.0), (-7, -4119.0)])
    def test_classical_cm_traces(self, d, value):
        res = trace_negative(d, 1, 1)
        assert abs(res.value - value) < 1e-6
        assert res.method == "cm_points"

    def test_matches_zagier_integers(self):
        # an oracle outside both pipelines, exact, for every discriminant -1999 <= -n <= -3
        B = zagier_g1(1999)
        for n in range(3, 2000):
            if n % 4 in (0, 3):
                res = trace_negative(-n, 1, 1)
                assert abs(res.value + B[n]) <= res.err_estimate, (n, res.value, B[n])

    def test_domain(self):
        with pytest.raises(ValueError):
            trace_negative(5, 1, 1)
        with pytest.raises(ValueError):
            trace_negative(-3, 1, 0)
        with pytest.raises(ValueError):
            trace_negative(-5, 1, 1)  # not 0, 1 mod 4

    def test_large_value_passes_residue_check(self):
        # j_3 = j^3 - 2232 j^2 + 1069956 j - 36866976 at j(tau_7) = -3375;
        # the rounding residue in Im is far above 1e-8 in absolute terms
        res = trace_negative(-7, 1, 3)
        assert res.value == pytest.approx(-67515202851.0, abs=res.err_estimate)

    @pytest.mark.parametrize(
        "m,last,first", [(1, -51044, -51047), (2, -12760, -12763), (3, -5671, -5672), (10, -508, -511)]
    )
    def test_overflow_refused_up_front(self, m, last, first, monkeypatch):
        # j_m at the principal CM point is about e^{pi m sqrt|dD|}: the last d
        # below ln(DBL_MAX) still sums to a finite value, and the next d that
        # is 0 or 1 mod 4 is refused before its classes are listed
        res = trace_negative(last, 1, m)
        assert math.isfinite(res.value) and abs(res.value) > 1e300
        monkeypatch.setattr(geodesic, "classes_negative", None)
        with pytest.raises(ValueError, match=rf"d={first}, D=1, m={m}\).*ln\(DBL_MAX\) = 709\.78"):
            trace_negative(first, 1, m)


class TestTraceNonsquare:
    def test_frozen_values(self):
        # frozen from converged runs, cross-checked against the series side
        res5 = trace_nonsquare(5, 1, 1)
        assert res5.value == pytest.approx(-5.1616294, abs=1e-5)
        res8 = trace_nonsquare(8, 1, 1)
        assert res8.value == pytest.approx(-6.7661258, abs=1e-5)

    def test_square_redirected(self):
        with pytest.raises(ValueError):
            trace_nonsquare(4, 1, 1)

    @pytest.mark.parametrize("m,last,first", [(1, 51044, 51045), (3, 5669, 5672), (10, 509, 512)])
    def test_overflow_refused_up_front(self, m, last, first, monkeypatch):
        # j_m at the apex of the principal cycle, height sqrt(dD)/2, is about
        # e^{pi m sqrt(dD)}: the last nonsquare d below ln(DBL_MAX) reaches the
        # class list, the next one is refused before it
        class Listed(Exception):
            pass

        def listed(dD):
            raise Listed(dD)

        monkeypatch.setattr(geodesic, "classes_nonsquare", listed)
        with pytest.raises(Listed):
            trace_nonsquare(last, 1, m)
        monkeypatch.setattr(geodesic, "classes_nonsquare", None)
        with pytest.raises(ValueError, match=rf"d={first}, D=1, m={m}\).*ln\(DBL_MAX\) = 709\.78"):
            trace_nonsquare(first, 1, m)

    def test_residue_check_stays_absolute(self):
        # a genuine quadrature failure, not rounding noise: the relative
        # check of the CM sums must not spread to the quadrature traces
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            trace_nonsquare(41, 1, 1)


class TestTraceSquare:
    def test_reference_value(self):
        res = trace_square(1, 1, 1)
        assert res.value == pytest.approx(-16.0284504, abs=1e-4)
        assert res.err_estimate < 1e-3

    def test_route_agreement(self):
        v = trace_square(1, 1, 1, route="vertical").value
        s = trace_square(1, 1, 1, route="semicircle").value
        assert abs(v - s) < 1e-6

    def test_m2_frozen_value(self):
        res = trace_square(1, 1, 2)
        assert res.value == pytest.approx(-56.0151169, abs=1e-3)

    def test_budget_carries_quad_abserr(self, monkeypatch):
        # (1, 1, 3) exhausts quad's subdivisions; the abserr quad reports
        # then, in the trace's units (1 / 2 pi b, b = 1), must be in the budget
        abserrs = []
        inner = scipy.integrate.quad

        def recording(*args, **kwargs):
            value, abserr = inner(*args, **kwargs)
            abserrs.append(abserr)
            return value, abserr

        # geodesic._quad_complex imports quad from scipy.integrate on each call
        monkeypatch.setattr(scipy.integrate, "quad", recording)
        with pytest.warns(IntegrationWarning, match="maximum number of subdivisions"):
            res = trace_square(1, 1, 3)
        assert max(abserrs) > 1.0
        assert res.err_estimate >= sum(abserrs) / (2 * math.pi)

    def test_d4_value(self):
        res = trace_square(4, 1, 1)
        assert res.value == pytest.approx(-19.9933332, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            trace_square(5, 1, 1)
        with pytest.raises(ValueError):
            trace_square(1, 1, 0)
        with pytest.raises(ValueError):
            trace_square(1, 1, 1, route="spiral")


class TestCuspMemo:
    """Each cusp-to-cusp class is integrated once per process, keyed on m and the primitive form."""

    # the square traces of the bench pool: dD = b^2, b <= 5, D in {1, 5}
    POOL_SQUARES = [(1, 1), (4, 1), (9, 1), (16, 1), (25, 1), (5, 5)]

    def _record(self, monkeypatch):
        calls = []
        real = geodesic._quad_complex

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(geodesic, "_quad_complex", spy)
        return calls

    def test_shared_classes_are_not_integrated_again(self, monkeypatch):
        calls = self._record(monkeypatch)
        trace_square(25, 1, 1)
        assert calls
        calls.clear()
        trace_square(5, 5, 1)  # the same five classes, twisted by chi_5
        assert calls == []

    def test_only_the_new_primitive_class_is_integrated(self, monkeypatch):
        trace_square(1, 1, 2)  # [0, 1, 0] on the vertical route
        calls = self._record(monkeypatch)
        forms = []
        real = geodesic.eval_jmQ

        def spy(m, Q, tau):
            forms.append(Q)
            return real(m, Q, tau)

        monkeypatch.setattr(geodesic, "eval_jmQ", spy)
        trace_square(4, 1, 2)  # [0, 2, 0] is [0, 1, 0]; only [1, 2, 0] is new
        assert calls == [(THETA_EPS, math.pi - THETA_EPS)]
        assert set(forms) == {QuadForm(1, 2, 0)}

    def test_route_keys_the_vertical_class(self, monkeypatch):
        trace_square(1, 1, 1, route="vertical")
        calls = self._record(monkeypatch)
        trace_square(1, 1, 1, route="semicircle")  # [0, 1, 0] moved onto [1, 1, 0]
        assert calls == [(THETA_EPS, math.pi - THETA_EPS)]

    @staticmethod
    def _outcome(d, D, m):
        try:
            res = trace_square(d, D, m)
        except ArithmeticError as exc:
            return str(exc)
        return res.value, res.err_estimate

    def test_warm_memo_gives_the_cold_bits(self):
        cases = [(d, D, m) for d, D in self.POOL_SQUARES for m in (1, 2)]
        warm = [self._outcome(*case) for case in cases]
        assert geodesic._cusp_integral.cache_info().hits > 0
        for case, got in zip(cases, warm):
            geodesic._cusp_integral.cache_clear()
            assert self._outcome(*case) == got, case

    def test_multiple_of_a_form_has_its_integral(self):
        want = geodesic._cusp_integral(1, QuadForm(1, 2, 0), None)
        geodesic._cusp_integral.cache_clear()
        assert geodesic._cusp_integral(1, QuadForm(2, 4, 0), None) == want

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_vertical_line_is_one_integral_for_every_b(self, b):
        want = geodesic._cusp_integral(2, QuadForm(0, 1, 0), "vertical")
        geodesic._cusp_integral.cache_clear()
        assert geodesic._cusp_integral(2, QuadForm(0, b, 0), "vertical") == want
