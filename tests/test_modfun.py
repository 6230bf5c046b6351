"""Faber basis functions: exact coefficients, evaluation, cusp corrections."""


import cmath
import math
import random
from functools import lru_cache

import mpmath
import pytest

from mocktrace.arith import sigma_real
from mocktrace.modfun import (
    CUT_BITS,
    M_MAX,
    N_DEFAULT,
    N_MAX,
    V_STAR,
    _cusp_term,
    _cut_table,
    _j_int_coeffs,
    _jm_int_coeffs,
    _reduce,
    eval_jm,
    eval_jmQ,
    jm_coeffs,
)
from mocktrace.qform import IDENTITY, QuadForm, S, UnimodularMatrix, cusp_matrix, translation


# Independent oracles: j from quotients of truncated integer power series and
# j_m from the Faber recursion, a route that shares no code with modfun's.


def _mul_trunc(f: list[int], g: list[int], n: int) -> list[int]:
    """Product of integer power series (index = exponent), truncated below n."""
    out = [0] * n
    for i, fi in enumerate(f[:n]):
        if fi == 0:
            continue
        for j, gj in enumerate(g[: n - i]):
            out[i + j] += fi * gj
    return out


def _series_div(f: list[int], g: list[int], n: int) -> list[int]:
    """Quotient f / g of integer power series of length n with g[0] = 1."""
    out = [0] * n
    for k in range(n):
        out[k] = f[k] - sum(g[j] * out[k - j] for j in range(1, k + 1))
    return out


def _delta_over_q(n: int) -> list[int]:
    """Delta/q = prod (1 - q^k)^24 through q^(n-1), from Euler's pentagonal series."""
    eta = [0] * n
    for k in range(math.isqrt(n) + 1):
        for g in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if g < n:
                eta[g] += (-1) ** k
    e3 = _mul_trunc(_mul_trunc(eta, eta, n), eta, n)
    e6 = _mul_trunc(e3, e3, n)
    e12 = _mul_trunc(e6, e6, n)
    return _mul_trunc(e12, e12, n)


@lru_cache(maxsize=None)
def _j_e4(N: int) -> tuple[int, ...]:
    """j = E4^3/Delta from q^-1 through q^N, indexed as _j_int_coeffs."""
    n = N + 2
    e4 = [1] + [240 * sigma_real(k, 3) for k in range(1, n)]
    return tuple(_series_div(_mul_trunc(_mul_trunc(e4, e4, n), e4, n), _delta_over_q(n), n))


def _j_e6(N: int) -> tuple[int, ...]:
    """j = E6^2/Delta + 1728, indexed as _j_int_coeffs."""
    n = N + 2
    e6 = [1] + [-504 * sigma_real(k, 5) for k in range(1, n)]
    out = _series_div(_mul_trunc(e6, e6, n), _delta_over_q(n), n)
    out[1] += 1728
    return tuple(out)


@lru_cache(maxsize=None)
def _faber(m: int, N: int) -> tuple[int, ...]:
    """j_m from q^-m through q^N: j_1 j_{m-1} less the multiples of j_{m-1}, ..., j_0."""
    if m == 0:
        return (1,) + (0,) * N
    if m == 1:
        return (1, 0) + _j_e4(N)[2:]
    prod = _mul_trunc(list(_faber(1, N + m - 1)), list(_faber(m - 1, N + 1)), m + N + 1)
    for k in range(m - 1, -1, -1):
        coef = prod[m - k]  # coefficient of q^-k
        for i, b in enumerate(_faber(k, N)):
            prod[m - k + i] -= coef * b
    return tuple(prod)


class TestCoefficients:
    def test_j_expansion_classical_values(self):
        # c(-1), c(0), ..., c(4), exact integers indexed from q^-1
        assert _j_int_coeffs(5)[:6] == (1, 744, 196884, 21493760, 864299970, 20245856256)

    def test_jm_normalization(self):
        # q^-m + O(q): the list runs from q^-m through q^10
        for m in range(1, 7):
            coeffs = jm_coeffs(m, 10)
            assert len(coeffs) == m + 11
            assert coeffs[0] == 1
            for k in range(-m + 1, 1):
                assert coeffs[k + m] == 0, (m, k)

    def test_j2_hecke_image_coefficients(self):
        # c_2(n) = c(2n) + sum over the T_2 action: spot-check against the
        # evaluation identity j_2(tau) = j_1(2 tau) + j_1(tau/2) + j_1((tau+1)/2)
        tau = complex(0.23, 1.31)
        lhs = eval_jm(2, tau)
        rhs = eval_jm(1, 2 * tau) + eval_jm(1, tau / 2) + eval_jm(1, (tau + 1) / 2)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_j3_hecke_image(self):
        tau = complex(0.23, 1.31)
        lhs = eval_jm(3, tau)
        rhs = eval_jm(1, 3 * tau) + sum(eval_jm(1, (tau + b) / 3) for b in range(3))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_whole_advertised_grid(self):
        # every m <= M_MAX, N <= N_MAX works, and a shorter expansion is a
        # prefix of a longer one
        for m in range(M_MAX + 1):
            full = jm_coeffs(m, N_MAX)
            for N in range(1, N_MAX + 1):
                coeffs = jm_coeffs(m, N)
                assert coeffs == full[: len(coeffs)], (m, N)

    def test_exact_duality(self):
        # n c_m(n) = m c_n(m) for the Faber basis, in exact integers
        assert _jm_int_coeffs(2, N_MAX)[2 + 1] == 2 * 21493760
        c = {m: _jm_int_coeffs(m, N_MAX) for m in range(1, M_MAX + 1)}
        for m in range(1, M_MAX + 1):
            for n in range(1, M_MAX + 1):
                assert n * c[m][m + n] == m * c[n][n + m], (m, n)

    def test_hecke_relation_whole_table(self):
        # modfun builds j_m as the Hecke image of j_1; the Faber recursion builds
        # it from products j_1 j_{m-1}.  Equal in exact integers over the whole
        # advertised table, m = 0 included
        for m in range(M_MAX + 1):
            assert _jm_int_coeffs(m, N_MAX) == _faber(m, N_MAX), m

    @pytest.mark.parametrize("N", [1, 8, 64, 640])
    def test_e4_and_e6_routes_agree(self, N):
        # the recurrence from q dj/dq = -(E6/E4) j against E4^3/Delta and
        # E6^2/Delta + 1728, in exact integers; 640 = M_MAX N_MAX is the
        # longest j the Hecke sum reads
        assert _j_int_coeffs(N) == _j_e4(N) == _j_e6(N)

    def test_returned_list_is_a_copy(self):
        tau = complex(0.1, 0.8)
        before = eval_jm(3, tau)
        coeffs = jm_coeffs(3, N_DEFAULT)
        kept = list(coeffs)
        coeffs[5] = 1e9
        assert jm_coeffs(3, N_DEFAULT) == kept
        assert eval_jm(3, tau) == before

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            jm_coeffs(11, 10)
        with pytest.raises(ValueError):
            jm_coeffs(1, 0)


class TestReduction:
    def test_lands_in_fundamental_domain(self):
        rng = random.Random(5)
        for _ in range(100):
            tau = complex(rng.uniform(-8, 8), rng.uniform(0.05, 4.0))
            tau0 = UnimodularMatrix(*_reduce(tau)).moebius(tau)
            assert abs(tau0.real) <= 0.5 + 1e-9
            assert abs(tau0) >= 1.0 - 1e-9

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            _reduce(complex(0.0, -1.0))

    def test_gamma_matches_matrix_product(self):
        # the reduction loop as a product of UnimodularMatrix steps
        def oracle(tau):
            gamma, tau0 = IDENTITY, tau
            while True:
                n = round(tau.real)
                if n != 0:
                    tau -= n
                    gamma = translation(-n) @ gamma
                if tau.real * tau.real + tau.imag * tau.imag >= 1.0 - 1e-12:
                    return gamma.moebius(tau0), gamma
                tau = -1.0 / tau
                gamma = S @ gamma

        rng = random.Random(11)
        for _ in range(300):
            tau = complex(rng.uniform(-20, 20), 10 ** rng.uniform(-3, 1))
            gamma = UnimodularMatrix(*_reduce(tau))
            assert (gamma.moebius(tau), gamma) == oracle(tau), tau


class TestEvalJm:
    def test_matches_klein_invariant(self):
        for tau in (complex(0.1, 1.2), complex(-0.4, 0.9), complex(0.0, 2.0)):
            ref = complex(1728 * mpmath.kleinj(mpmath.mpc(tau.real, tau.imag))) - 744
            got = eval_jm(1, tau)
            assert abs(got - ref) < 1e-7 * max(1.0, abs(ref)), tau

    def test_gamma_invariance_base_points(self):
        # sample base points inside the fundamental domain and push them
        # around by short group words; keeps all evaluations well away from
        # the noise floor of the truncated q-series
        from mocktrace.qform import IDENTITY, S, translation

        rng = random.Random(23)
        worst = 0.0
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
            worst = max(worst, abs(eval_jm(1, tau1) - eval_jm(1, tau0)))
        assert worst < 1e-9


def _term_level(c, k):
    """The least Im tau0 at which |c q^k| <= 2^-CUT_BITS, for c != 0 and k >= 1."""
    return (math.log(abs(c)) + CUT_BITS * math.log(2)) / (2 * math.pi * k)


def _eval_jm_public(m, tau, cut=True):
    """eval_jm rebuilt from the reduction matrix and the coefficient list, Horner from the top.

    With cut, the sum stops at the last coefficient whose term can still reach
    2^-CUT_BITS of the leading one at this height (c_0 = 1 when none can).
    """
    tau0 = UnimodularMatrix(*_reduce(tau)).moebius(tau)
    coeffs = jm_coeffs(m, N_DEFAULT)
    if cut:
        K = max((k for k, c in enumerate(coeffs) if k and c and _term_level(c, k) > tau0.imag),
                default=0)
        coeffs = coeffs[: K + 1]
    q = cmath.exp(2j * math.pi * tau0)
    total = 0.0 + 0.0j
    for c in reversed(coeffs):
        total = total * q + c
    return total * q**-m


def _eval_jmQ_public(m, Q, tau):
    """eval_jmQ rebuilt from public pieces, with the explicit cusp terms."""
    ws = [cusp_matrix(p, q).moebius(tau) for p, q in Q.roots()]
    if max(w.imag for w in ws) <= V_STAR:
        total = _eval_jm_public(m, tau)
        for w in ws:
            total -= _cusp_term(m, w)
        return total
    i_big = max(range(len(ws)), key=lambda i: ws[i].imag)
    w = ws[i_big]
    coeffs = jm_coeffs(m, N_DEFAULT)  # coeffs[n + m] = c_m(n)
    # c_m(1) .. c_m(48) by Horner from the top, then times e(w) once
    qw = cmath.exp(2j * math.pi * w)
    tail = 0.0 + 0.0j
    for c in reversed(coeffs[m + 1 :]):
        tail = tail * qw + c
    total = cmath.exp(-2j * math.pi * m * w.conjugate()) + tail * qw
    for i, wi in enumerate(ws):
        if i != i_big:
            total -= _cusp_term(m, wi)
    return total


class TestAgainstPublicRoute:
    # the evaluators read cached coefficient tuples, a cached cut table and
    # integer matrices; the floating-point operations, and where the series
    # is cut, are the public route's, so results are bit-equal.  The
    # parameter seeds the sampled points.
    @pytest.mark.parametrize("seed", [8, 48, 64])
    def test_eval_jm(self, seed):
        rng = random.Random(seed)
        for m in range(1, M_MAX + 1):
            for y in (0.2, 0.9, 1.7, 2.3, 3.0):
                tau = complex(rng.uniform(-3, 3), y * rng.uniform(0.9, 1.1))
                assert eval_jm(m, tau) == _eval_jm_public(m, tau), (m, tau)

    @pytest.mark.parametrize("seed", [8, 48, 64])
    def test_eval_jmQ(self, seed):
        rng = random.Random(100 + seed)
        forms = [QuadForm(0, 1, 0), QuadForm(0, 2, 0), QuadForm(1, 2, 0), QuadForm(2, 5, 0)]
        grouped = direct = 0
        for m in range(1, M_MAX + 1):
            for Q in forms:
                for _ in range(6):
                    if Q.a == 0:  # the vertical geodesic
                        tau = complex(0.0, math.exp(rng.uniform(-2.5, 2.5)))
                    else:  # the semicircle between the two roots
                        c0, r = -Q.b / (2 * Q.a), Q.b / (2 * Q.a)
                        th = rng.uniform(0.02, math.pi - 0.02)
                        tau = complex(c0 + r * math.cos(th), r * math.sin(th))
                    want = _eval_jmQ_public(m, Q, tau)
                    assert eval_jmQ(m, Q, tau) == want, (m, Q, tau)
                    vmax = max(cusp_matrix(p, q).moebius(tau).imag for p, q in Q.roots())
                    grouped += vmax > V_STAR
                    direct += vmax <= V_STAR
        assert grouped > 20 and direct > 20


class TestSeriesCut:
    # eval_jm sums j_m's q-series only down to 2^-CUT_BITS of its q^-m term
    @staticmethod
    def _points():
        """Reduced points on the bottom arc, rho and i among them, and at four heights."""
        arc = [cmath.exp(1j * math.pi * t) for t in (1 / 3, 0.4, 0.5, 0.6, 2 / 3)]
        rows = [complex(x, 0.9) for x in (-0.5, -0.45, 0.44, 0.5)]
        rows += [complex(x, y) for y in (1.2, 2.0, 4.0) for x in (-0.5, -0.2, 0.0, 0.3, 0.5)]
        return arc + rows

    def test_every_dropped_term_is_below_the_floor(self):
        for m in range(1, M_MAX + 1):
            neg_h, prefixes = _cut_table(m)
            coeffs = jm_coeffs(m, N_DEFAULT)
            assert [list(p) for p in prefixes] == [coeffs[: K + 1] for K in range(len(coeffs))]
            assert list(neg_h) == sorted(neg_h) and neg_h[-1] == math.inf
            for K in range(len(coeffs) - 1):
                y = -neg_h[K]
                rel = [abs(c) * math.exp(-2 * math.pi * y * k) for k, c in enumerate(coeffs) if k > K]
                # below the floor, and tight: the largest dropped term sits on it
                assert max(rel) <= 2.0**-CUT_BITS * (1 + 1e-12), (m, K)
                assert max(rel) >= 2.0**-CUT_BITS * (1 - 1e-12), (m, K)

    def test_cut_within_rounding_of_full_series(self):
        for m in range(1, M_MAX + 1):
            for tau in self._points():
                tau0 = UnimodularMatrix(*_reduce(tau)).moebius(tau)
                floor = math.exp(2 * math.pi * m * tau0.imag)  # |q|^-m
                cut, full = eval_jm(m, tau), _eval_jm_public(m, tau, cut=False)
                assert abs(cut - full) <= 2.0**-52 * floor, (m, tau)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_both_within_rounding_of_long_exact_series(self, m):
        # the 40-digit sum runs through q^120 at the same float q, so it
        # measures the summation alone.  Its rounding scales with the sum of
        # |c_k q^(k - m)|, not with |q|^-m: near rho the terms cancel to j_3(rho)
        # = -36866976 from a sum of |terms| 232 |q|^-3, and the 48-term Horner
        # is 24.6 * 2^-52 |q|^-3 off there (0.11 * 2^-52 of the |terms|)
        exact = _jm_int_coeffs(m, 120)
        with mpmath.workdps(40):
            for tau in self._points():
                tau0 = UnimodularMatrix(*_reduce(tau)).moebius(tau)
                q = cmath.exp(2j * math.pi * tau0)
                qm = mpmath.mpc(q.real, q.imag)
                ref = complex(sum(c * qm ** (k - m) for k, c in enumerate(exact)))
                scale = sum(abs(c) * abs(q) ** (k - m) for k, c in enumerate(exact))
                for got in (eval_jm(m, tau), _eval_jm_public(m, tau, cut=False)):
                    assert abs(got - ref) <= 2.0**-50 * scale, (m, tau)


class TestCuspMatrix:
    def test_bottom_row_and_determinant(self):
        for r, s in ((0, 1), (1, 0), (-2, 1), (3, 2), (5, -3)):
            g = cusp_matrix(r, s)
            assert (g.c, g.d) == (s, -r)
            assert g.a * g.d - g.b * g.c == 1

    def test_sends_cusp_to_infinity(self):
        g = cusp_matrix(-2, 1)
        near = complex(-2.0, 1e-6)
        assert g.moebius(near).imag > 1e5

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            cusp_matrix(2, 4)


class TestEvalJmQ:
    def test_grouped_and_direct_paths_agree(self):
        Q = QuadForm(0, 1, 0)
        # the direct path loses accuracy with height as e^{2 pi m y} eps;
        # tolerances follow that envelope
        for y, tol in ((2.5, 1e-7), (3.0, 1e-6), (4.0, 1e-4)):
            grouped = eval_jmQ(1, Q, complex(0.0, y))
            # j_1(iy) less the cusp terms of the roots infinity (w = iy) and
            # 0 (w = -1/(iy) = i/y), both on Re w = 0
            direct = eval_jm(1, complex(0.0, y)) - 2 * math.sinh(2 * math.pi * y)
            direct -= 2 * math.sinh(2 * math.pi / y)
            assert abs(grouped - direct) < tol, y

    def test_continuous_across_switch_height(self):
        Q = QuadForm(0, 1, 0)
        lo = eval_jmQ(1, Q, complex(0.0, 1.999))
        hi = eval_jmQ(1, Q, complex(0.0, 2.001))
        assert abs(hi - lo) < 1e-2 * max(1.0, abs(lo))

    def test_endpoint_linear_law_m1(self):
        # along the vertical geodesic the corrected function behaves like
        # -4 pi m y as y -> 0; the ratio is even in y, so one Richardson
        # step over y and y/2 removes its y^2 term
        Q = QuadForm(0, 1, 0)
        y = 1e-3
        val = eval_jmQ(1, Q, complex(0.0, y))
        half = eval_jmQ(1, Q, complex(0.0, y / 2))
        limit = (4 * half.real / (y / 2) - val.real / y) / 3
        assert abs(limit - (-4 * math.pi)) < 1e-4
        assert abs(val.imag) < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_endpoint_curvature_term(self, m):
        # j_{m,Q}(iy)/y = -2 sinh(2 pi m y)/y + O(e^{-2 pi/y}), so the
        # deviation from -4 pi m is -(2 pi m)^3 y^2 / 3 times
        # 1 + (2 pi m y)^2 / 20 + ...; the gap must stay below twice that
        Q = QuadForm(0, 1, 0)
        c2 = (2 * math.pi * m) ** 3 / 3
        for y in (1e-2, 1e-3, 1e-4):
            ratio = (eval_jmQ(m, Q, complex(0.0, y)) / y).real
            curvature = -(ratio + 4 * math.pi * m) / y**2
            assert abs(curvature / c2 - 1) < (2 * math.pi * m * y) ** 2 / 10, (m, y)

    def test_endpoint_law_at_top(self):
        # the geodesic [0, 1, 0] is symmetric under y -> 1/y, so the same
        # -4 pi m law shows up as y * j_{m,Q}(iy) -> -4 pi m for y -> inf
        Q = QuadForm(0, 1, 0)
        val = eval_jmQ(1, Q, complex(0.0, 1000.0))
        assert abs(val.real * 1000.0 - (-4 * math.pi)) < 1e-3

    def test_nonsquare_form_rejected(self):
        # on every call, not only on the first
        for _ in range(2):
            with pytest.raises(ValueError):
                eval_jmQ(1, QuadForm(1, 1, -1), complex(0.0, 1.0))
