"""Kloosterman-type sums, square roots modulo prime powers, and the Bessel series."""

import cmath
import math
import re
import time
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mocktrace import series
from mocktrace.series import (
    C_MAX_LIMIT,
    MODULUS_LIMIT,
    TAIL_SERIES_SPLIT,
    _bessel_tail_integral,
    _kp_direct,
    _root_sum_array,
    _spf_sieve,
    _sqrt_mod_prime_power,
    b_series,
    coeff_a,
    kloosterman_plus,
    prop1_rhs,
    s_m_sum,
    thm2_rhs,
)
from mocktrace.arith import divisors, kronecker
from mocktrace.qform import QuadForm, chi_D


def brute_root_sum(d: int, D: int, c: int, m: int = 1) -> float:
    """R(c) from its definition: b over every residue mod 4c, chi_D by its box scan."""
    dD, M = d * D, 4 * c
    total = 0j
    for b in range(M):
        if (b * b - dD) % M == 0:
            chi = chi_D(D, QuadForm(c, b, (b * b - dD) // M))
            total += chi * cmath.exp(1j * math.pi * m * b / c)
    return total.real


class TestSqrtsMod:
    """The local square roots behind the root table, modulo prime powers."""

    @pytest.mark.parametrize(
        "p, k_max", [(2, 11), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3), (97, 2)]
    )
    def test_matches_brute_force(self, p, k_max):
        # every residue a, so a = 0 mod p^e for odd and even e included
        for k in range(1, k_max + 1):
            q = p**k
            brute = [[] for _ in range(q)]
            for x in range(q):
                brute[x * x % q].append(x)
            for a in range(q):
                assert _sqrt_mod_prime_power(a, p, k) == brute[a], (a, p, k)

    def test_prime_power_cases(self):
        assert _sqrt_mod_prime_power(0, 2, 3) == [0, 4]
        assert _sqrt_mod_prime_power(1, 2, 3) == [1, 3, 5, 7]
        assert _sqrt_mod_prime_power(4, 2, 4) == [2, 6, 10, 14]


class TestLocalRootTable:
    """The batched root table against a brute-force table of squares."""

    def test_every_prime_power_to_5000(self):
        # a <= 200 takes in multiples of every small p (the scalar path),
        # squares, zero and, below 0, the dD < 0 of a swapped d/D pair; the
        # last a exceed every q
        factors = sorted(
            ((p, k) for p in range(2, 5001) if series.factorize(p) == [(p, 1)]
             for k in range(1, 13) if p**k <= 5000),
            key=lambda pk: pk[0] ** pk[1],
        )
        squares = {}
        for p, k in factors:
            q = p**k
            sq = np.arange(q) ** 2 % q
            order = np.argsort(sq, kind="stable")  # roots ascending within a residue
            squares[q] = (order, sq[order])
        plan = series._crt_plan(np.arange(1, 1251), factors)  # the moduli 4c <= 5000
        for a in (*range(-20, 201), 328, 2_042_040 * 5, -2_042_040):
            qs, start, roots = series._local_root_table(a, plan)
            assert qs.tolist() == [p**k for p, k in factors]
            for i, q in enumerate(qs.tolist()):
                order, sq = squares[q]
                lo, hi = np.searchsorted(sq, [a % q, a % q + 1])
                assert roots[start[i] : start[i + 1]].tolist() == order[lo:hi].tolist(), (a, q)


class TestPrimePowers:
    @pytest.mark.parametrize("c_max", [1, 2, 100, 3000])
    def test_matches_definition(self, c_max):
        # every p^k || 4c for some c <= c_max, by value
        want = {pk for c in range(1, c_max + 1) for pk in series.factorize(4 * c)}
        got = series._prime_powers(c_max).tolist()
        assert sorted(want, key=lambda pk: pk[0] ** pk[1]) == [tuple(pk) for pk in got]


class TestSpfSieve:
    def test_matches_brute_force_below_1e5(self):
        n_max = 10**5
        brute = np.zeros(n_max, dtype=np.int64)
        brute[1] = 1
        for n in range(2, n_max):
            if brute[n] == 0:
                brute[n::n][brute[n::n] == 0] = n
        assert np.array_equal(_spf_sieve()[:n_max], brute)


class TestTwists:
    def test_square_part_past_the_sieve(self):
        # d = 4 * 810001^2 has f = 2 * 810001, past the prime sieve's bound
        def mobius(n):
            out, p = 1, 2
            while p * p <= n:
                if n % p == 0:
                    n //= p
                    if n % p == 0:
                        return 0
                    out = -out
                p += 1
            return -out if n > 1 else out

        d = 4 * 810001**2
        d0, twists = series._twists(d)
        f = math.isqrt(d // d0)
        assert d0 * f * f == d and f >= series.SIEVE_MAX
        want = [(u, w, f // u) for u in divisors(f) if (w := mobius(u) * kronecker(d0, u))]
        assert twists == want


class TestKloostermanPlus:
    # the degenerate pairs with f > 1 in n = n0 f^2 reach the twist sums over u | f
    GRID = [
        (1, 1), (4, 1), (1, 4), (9, 1), (5, 5), (8, 8), (5, 0), (0, 8), (0, 0), (12, 1),
        (4, 0), (0, 9), (36, 0), (0, 72), (180, 0),
    ]

    def test_fast_matches_direct(self):
        for d, D in self.GRID:
            for c in range(1, 21):
                fast = kloosterman_plus(d, D, 4 * c)
                direct = _kp_direct(d, D, c)
                assert fast == pytest.approx(direct, abs=1e-8), (d, D, c)

    def test_symmetry_in_d_and_D(self):
        for c in range(1, 31):
            for d in (0, 1, 4, 5, 8, 9, 12):
                for D in (0, 1, 4, 5, 8, 9, 12):
                    a = kloosterman_plus(d, D, 4 * c)
                    b = kloosterman_plus(D, d, 4 * c)
                    assert a == pytest.approx(b, abs=1e-9), (d, D, c)

    def test_zero_zero_supported_on_squares(self):
        # K+(0,0;4c) = 4 sqrt(c) phi(sqrt c) when c is a square, else 0
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        for c in range(1, 30):
            got = _kp_direct(0, 0, c)
            r = math.isqrt(c)
            expected = 4 * math.sqrt(c) * phi(r) if r * r == c else 0.0
            assert got == pytest.approx(expected, abs=1e-8), c

    def test_weil_type_growth_trend(self):
        # |K+| should grow no faster than about c^{1/2 + eps} on average
        import numpy as np

        cs = np.arange(4, 200)
        vals = np.array([abs(kloosterman_plus(5, 1, 4 * int(c))) + 1e-9 for c in cs])
        slope = np.polyfit(np.log(cs), np.log(vals + 1.0), 1)[0]
        assert slope <= 0.6

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            kloosterman_plus(1, 1, 6)  # not divisible by 4

    def test_values_are_python_floats(self):
        # the CLI's verify reports serialize them to JSON
        for value in (kloosterman_plus(5, 8, 64), kloosterman_plus(8, 5, 64), s_m_sum(2, 8, 8, 64)):
            assert type(value) is float


class TestSmSum:
    def test_identity_with_kloosterman(self):
        # S_m(d, D; 4c) = (1/2) sum_{n | (m,c)} (D/n) sqrt(n/c) K+(d, m^2 D / n^2; 4c/n)
        for d, D in ((1, 1), (4, 1), (9, 1), (5, 5)):
            for m in range(1, 5):
                for c in range(1, 21):
                    lhs = s_m_sum(m, d, D, 4 * c)
                    rhs = 0.5 * sum(
                        kronecker(D, n)
                        * math.sqrt(n / c)
                        * kloosterman_plus(d, m * m * D // (n * n), 4 * c // n)
                        for n in divisors(math.gcd(m, c))
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-10), (d, D, m, c)

    def test_s1_and_kloosterman_share_one_root_sum(self):
        # K+(d, D; 4c) = 2 sqrt(c) S_1(d, D; 4c): both callers hit one cache key
        series._root_sum_at.cache_clear()
        for c in range(1, 21):
            assert kloosterman_plus(5, 5, 4 * c) == 2.0 * math.sqrt(c) * s_m_sum(1, 5, 5, 4 * c)
        info = series._root_sum_at.cache_info()
        assert (info.misses, info.hits) == (20, 20)

    def test_nonfundamental_twist_rejected(self):
        # the character underlying S_m is only defined for fundamental D
        with pytest.raises(ValueError):
            s_m_sum(1, 1, 4, 8)

    def test_nonsquare_dD_rejected(self):
        with pytest.raises(ValueError):
            s_m_sum(1, 2, 1, 8)


class TestBSeries:
    def test_symmetry_at_s_one(self):
        for d, D in ((1, 4), (5, 1)):
            a = b_series(d, D, 1.0, 2000)
            b = b_series(D, d, 1.0, 2000)
            assert a.value == pytest.approx(b.value, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 72, 180])
    def test_zero_case_partial_close_to_exact(self, n):
        # the closed form against 5,000 terms of the defining series; 72 and
        # 180 have f = 3 and 6 in n = n0 f^2, so they reach the twists u | f
        s = 1.0
        pref = 2.0 ** (-4 * s) * math.pi ** (s + 0.25) * n ** (s - 0.25)
        terms = (series._T_zero_case(n, c) * c ** (0.5 - 2 * s) for c in range(1, 5001))
        partial = 4.0 * pref * sum(terms)
        assert partial == pytest.approx(b_series(n, 0, s, 5000).value, rel=0.05)

    def test_double_zero_partial_close_to_exact(self):
        # only c = k^2 contributes: K+(0, 0; 4k^2) = 4 k phi(k)
        s, c_max = 1.0, 1000
        pref = 2.0 ** (0.5 - 6 * s) * math.sqrt(math.pi) * math.gamma(2 * s)
        terms = (series._euler_phi(k) * k ** (1 - 4 * s) for k in range(1, math.isqrt(c_max) + 1))
        partial = 4.0 * pref * sum(terms)
        assert partial == pytest.approx(b_series(0, 0, s, c_max).value, rel=0.05)

    def test_double_zero_positive(self):
        sv = b_series(0, 0, 1.0, 1000)
        assert sv.value > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            b_series(1, 1, 0.5, 1000)


class TestProp1Rhs:
    def test_m0_values_stabilized(self):
        sv = prop1_rhs(1, 1, 0, 2.0, c_max=10_000)
        assert sv.value == pytest.approx(0.6250014, abs=5e-4)
        assert sv.tail_estimate < 1e-3
        sv4 = prop1_rhs(4, 1, 0, 2.0, c_max=10_000)
        assert sv4.value == pytest.approx(2.1875063, abs=2e-3)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            prop1_rhs(2, 1, 0, 2.0)

    @pytest.mark.parametrize("d, D", [(-3, -3), (-4, -4), (-1, -1)])
    def test_negative_pair_rejected(self, d, D, monkeypatch):
        # dD is a positive square, but the identity is stated for d, D > 0
        monkeypatch.setattr(series, "_root_sum_array", None)
        with pytest.raises(ValueError, match=re.escape(f"prop1_rhs needs d, D > 0, got d={d}, D={D}")):
            prop1_rhs(d, D, 0, 2.0)


class TestBesselTailIntegral:
    """int_X^inf J_nu(A / c) / sqrt c dc against the 1F2 closed form at 60 digits."""

    @staticmethod
    def oracle(nu: float, z: float) -> float:
        # A^{-1/2} times the integral: int_0^z J_nu(t) t^{-3/2} dt, a = nu - 1/2
        with mpmath.workdps(60):
            nu, z = mpmath.mpf(nu), mpmath.mpf(z)
            a = nu - mpmath.mpf(1) / 2
            hyp = mpmath.hyp1f2(a / 2, nu + 1, a / 2 + 1, -z * z / 4)
            return float(z**a / (2**nu * mpmath.gamma(nu + 1) * a) * hyp)

    @pytest.mark.parametrize("nu", [0.51, 0.55, 0.7, 1.0, 1.5, 2.5, 4.5, 200.0])
    def test_matches_closed_form(self, nu):
        split = TAIL_SERIES_SPLIT
        zs = [*np.geomspace(1e-3, 2000, 30), split * (1 - 1e-9), split, split * (1 + 1e-9)]
        for X in (10.5, 1000.5):
            for z in zs:
                ref = self.oracle(nu, z)
                got = _bessel_tail_integral(nu, z * X, X) / math.sqrt(z * X)
                # at nu = 200 the small z underflow to 0 on both sides
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-300), (nu, z, X)

    def test_prop1_rhs_at_large_z(self):
        # A = 100 pi at the first checkpoint X = 10.5: z = 29.9, past the split;
        # the reference is the same series with the tail integral by scipy's
        # adaptive quad (epsabs 1e-12)
        assert prop1_rhs(100, 1, 10, 2.0, c_max=100).value == pytest.approx(
            -494.8792140304977, rel=1e-10
        )

    def test_order_past_gamma_overflow(self):
        # nu = s - 1/2 = 171.5: Gamma(nu + 1) overflows, the weights underflow
        assert abs(prop1_rhs(1, 1, 1, 172.0, c_max=100).value) < 1e-270


class TestRootSumArray:
    """The batched CRT assembly against the definition of the root sums."""

    DISCRIMINANTS = [d for d in range(1, 61) if d % 4 in (0, 1)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from(DISCRIMINANTS),
        D=st.sampled_from([1, 5, 8, 12, 13, 21, 24, 28, 40, 60, 65]),
        m=st.integers(0, 3),
        c_max=st.integers(1, 3000),
        picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_matches_root_sum_definition(self, d, D, m, c_max, picks):
        R = _root_sum_array(d, D, c_max, m=m)
        assert R.shape == (c_max,)
        cs = set(range(1, min(c_max, 60) + 1)) | {c_max}
        cs |= {1 + int(u * (c_max - 1)) for u in picks}
        # high powers of 2 exercise the local character at 2 for even D
        cs |= {c for c in (64, 128, 192, 256) if c <= c_max}
        for c in sorted(cs):
            want = brute_root_sum(d, D, c, m)
            assert abs(R[c - 1] - want) <= 1e-12 * max(1.0, abs(want)), (d, D, m, c)

    def test_discriminant_beyond_the_sieve(self):
        # D is factored by trial division, so it may exceed the sieve
        D = 2_042_040  # -3 * 5 * -7 * -11 * 13 * 17 * -8
        assert D > series.SIEVE_MAX
        for d in (1, 5):
            R = _root_sum_array(d, D, 40, 1)
            for c in range(1, 41):
                want = brute_root_sum(d, D, c)
                assert abs(R[c - 1] - want) <= 1e-12 * max(1.0, abs(want)), (d, c)

    GRID = [
        (1, 1), (4, 1), (1, 4), (9, 1), (5, 1), (5, 5), (8, 8), (12, 1), (13, 13),
        (1, 21), (21, 21), (5, 65), (65, 65), (12, 12),
        (5, -4), (1, -3), (12, -8), (-3, -4),
    ]

    def test_matches_direct_kloosterman(self):
        # K+(d, D; 4c) = 2 sqrt(c) R(c); (1, 4) goes through the d/D swap
        for d, D in self.GRID:
            R = _root_sum_array(d, D, 128, 1)
            for c in [*range(1, 41), 64, 128]:
                direct = _kp_direct(d, D, c)
                assert 2.0 * math.sqrt(c) * R[c - 1] == pytest.approx(direct, abs=1e-8), (d, D, c)

    def test_single_modulus_matches_the_array(self):
        # one modulus runs the same code on a root table of its own q || 4c
        for d, D in self.GRID:
            for m in (0, 1, 3):
                R = _root_sum_array(d, D, 256, m=m)
                for c in (*range(1, 25), 64, 105, 128, 210, 256):
                    assert series._root_sum_at(d, D, c, m) == R[c - 1], (d, D, m, c)

    def test_b_series_and_prop1_rhs_share_one_array(self):
        # every caller passes (d, D, c_max, m) positionally, so both reach one cache key
        _root_sum_array.cache_clear()
        b_series(1, 1, 2.0, 10_000)
        prop1_rhs(1, 1, 1, 2.0, c_max=10_000)
        info = _root_sum_array.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_array_is_read_only(self):
        R = _root_sum_array(1, 1, 100, 1)
        with pytest.raises(ValueError):
            R[0] = 0.0

    def test_imaginary_residue_raises_per_modulus(self, monkeypatch):
        # a one-sided root table makes the local sums complex
        table = series._local_root_table

        def one_sided(a, c_max):
            qs, start, roots = table(a, c_max)
            keep = start[:-1]
            return qs, np.arange(keep.size + 1), roots[keep]

        monkeypatch.setattr(series, "_local_root_table", one_sided)
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            _root_sum_array(1, 1, 7, m=1)


class TestRootSumPlan:
    """The dD-independent half of the root sums, built once per c_max."""

    @staticmethod
    def nbytes(plan) -> int:
        blocks = (a for place, row, inv, passes in plan.blocks for a in (place, row, inv, *passes))
        return sum(a.nbytes for a in (plan.p, plan.k, plan.g, plan.shared, plan.inverses, *blocks))

    @pytest.mark.parametrize("D", [1, 5, 8])
    def test_planned_array_matches_single_moduli(self, D):
        # blocks of ROOT_SUM_BLOCK = 4096 moduli: their edges and the last c
        cs = (1, 2, 105, 4095, 4096, 4097, 8192, 9240, 12_285, 15_015, 20_000)
        for m in (0, 1, 2):
            R = _root_sum_array(5 * D, D, 20_000, m=m)
            for c in cs:
                assert series._root_sum_at(5 * D, D, c, m) == R[c - 1], (D, m, c)

    @pytest.mark.parametrize("D", [1, 5, 8])
    def test_shared_and_own_rows_match_single_moduli(self, D):
        # 2^17's 2-part and 1901 have rows of their own at c_max 200,000, 2^16 and 3 5 7
        # are shared rows
        cs = (1, 4096, 4097, 131_072, 196_608, 199_605, 200_000)
        for m in (0, 1, 2):
            R = _root_sum_array(5 * D, D, 200_000, m)
            for c in cs:
                assert series._root_sum_at(5 * D, D, c, m) == R[c - 1], (D, m, c)

    def test_shared_rows_change_no_bit(self):
        # the same moduli on a plan that shares no row: every pair sums its own roots
        c = np.arange(1, 200_001)
        unshared = series._crt_plan(c, series._prime_powers(200_000))
        assert unshared.shared.size == 0
        for d, D in ((1, 1), (4, 1), (5, 1), (25, 5), (40, 8)):
            for m in (0, 1, 2):
                want = series._root_sums(d, D, c, m, unshared)
                assert np.array_equal(_root_sum_array(d, D, 200_000, m), want), (d, D, m)

    def test_shared_rows_are_the_q_below_their_count(self):
        c_max = 20_000
        count = Counter(p**k for c in range(1, c_max + 1) for p, k in series.factorize(4 * c))
        plan = series._array_plan(c_max)
        qs = plan.p.astype(np.int64) ** plan.k
        assert qs[plan.shared].tolist() == sorted(q for q, n in count.items() if q < n)
        # the inverses of the residues x, row after shared row
        x = np.concatenate([np.arange(q) for q in qs[plan.shared]])
        q = np.repeat(qs[plan.shared], qs[plan.shared])
        unit = np.gcd(x, q) == 1
        assert (x * plan.inverses % q)[unit].tolist() == [1] * int(unit.sum())

    @pytest.mark.parametrize("c", [1, 4096, 199_605])
    def test_one_modulus_shares_no_row(self, c):
        factors = sorted(series.factorize(4 * c), key=lambda pk: pk[0] ** pk[1])
        plan = series._crt_plan(np.array([c]), factors)
        assert plan.shared.size == plan.inverses.size == 0

    def test_one_plan_for_many_coefficients(self):
        series._array_plan.cache_clear()
        _root_sum_array.cache_clear()
        coeff_a(1, 1)
        coeff_a(4, 1)
        thm2_rhs(1, 1, 2)
        info = series._array_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_plan_size_at_the_limit(self):
        plan = series._array_plan(C_MAX_LIMIT)
        assert plan.p.size < 2**16  # rows fit the uint16 row index
        assert self.nbytes(plan) <= 5_000_000


class TestCoeffA:
    """One root-sum array per coefficient, shared by every delta."""

    C_MAX = 40_000

    def test_one_root_sum_pass_at_the_largest_c_max(self, monkeypatch):
        calls = []
        inner = _root_sum_array

        def counting(*args):
            misses = inner.cache_info().misses
            out = inner(*args)
            calls.append((args, inner.cache_info().misses - misses))
            return out

        inner.cache_clear()
        monkeypatch.setattr(series, "_root_sum_array", counting)
        # the smaller deltas' c_max read prefixes of the one array
        sv = coeff_a(1, 1)
        assert calls == [((1, 1, 200_000, 1), 1)]
        assert sv.c_max == 200_000

    @staticmethod
    def per_delta_F(d, grid):
        # b_series builds its own array at each delta's c_max
        _root_sum_array.cache_clear()
        want = []
        for delta, cm in grid:
            s = 0.75 + delta
            bdD, bd0 = b_series(d, 1, s, cm), b_series(d, 0, s, cm)
            b0D, b00 = b_series(0, 1, s, cm), b_series(0, 0, s, cm)
            want.append((bdD.value - bd0.value * b0D.value / b00.value) / math.sqrt(d))
        return want

    @pytest.mark.parametrize("d", [1, 4, 5, 13])
    def test_F_values_match_per_delta_series(self, d):
        sv = coeff_a(d, 1, c_max=self.C_MAX)
        grid = [(delta, self.C_MAX) for delta, _ in series.DELTA_GRID]
        assert sv.params["F_values"] == self.per_delta_F(d, grid)

    def test_F_values_on_the_grid_match_per_delta_series(self):
        sv = coeff_a(1, 1)
        assert sv.params["deltas"] == [delta for delta, _ in series.DELTA_GRID]
        assert sv.params["F_values"] == self.per_delta_F(1, series.DELTA_GRID)

    @pytest.mark.parametrize("d", [1, 4])
    def test_degenerate_series_sum_no_terms(self, d, monkeypatch):
        def refuse(*args):
            raise AssertionError("degenerate series summed term by term")

        monkeypatch.setattr(series, "_T_zero_case", refuse)
        assert math.isfinite(coeff_a(d, 1, c_max=self.C_MAX).value)


class TestFundamentalPartLimit:
    """L_{d0} sums |d0| Hurwitz zeta values, so a d0 past D0_MAX is refused before any work."""

    def test_huge_fundamental_part_refused_fast(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("root sums or L-series reached")

        monkeypatch.setattr(series, "_root_sum_array", refuse)
        monkeypatch.setattr(series, "dirichlet_L", refuse)
        t = time.perf_counter()
        # d = 4 * 656111620001: the L-series alone would take days
        with pytest.raises(ValueError, match=re.escape(
                "d = 2624446480004 has fundamental part d0 = 656111620001 > 1000000")):
            coeff_a(2624446480004, 1)
        assert time.perf_counter() - t < 1.0

    @pytest.mark.parametrize("d, D, name", [(1000005, 1, "d"), (1, 1000005, "D"),
                                            (1, 9 * 1000005, "D")])
    def test_names_the_argument(self, d, D, name, monkeypatch):
        monkeypatch.setattr(series, "dirichlet_L", None)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} = {max(d, D)} has fundamental part d0 = 1000005 > 1000000")):
            coeff_a(d, D)

    @pytest.mark.parametrize("d, D", [(1000005, 0), (0, 4 * 1000005)])
    def test_degenerate_b_series_refused(self, d, D, monkeypatch):
        monkeypatch.setattr(series, "dirichlet_L", None)
        with pytest.raises(ValueError, match="has fundamental part d0 = 1000005 > 1000000"):
            b_series(d, D, 1.0, 100)

    def test_limit_is_on_d0_not_d(self):
        # 999997 = 757 * 1321 is fundamental; a square part or a d0 of 1 passes the limit
        assert series.D0_MAX == 10**6
        for d in (999997, 9 * 999997, 4 * 810001**2):
            series._check_fundamental_part("d", d)


class TestModulusCeiling:
    """Oversize moduli are refused up front, in the caller's terms."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the ceiling check")

        names = ("_spf_sieve", "_root_sum_array", "_root_sum_at", "_kp_direct", "_T_zero_case")
        for name in names:
            monkeypatch.setattr(series, name, refuse)

    def test_limits_fit_the_sieve(self):
        assert C_MAX_LIMIT == 202_499
        assert MODULUS_LIMIT == 4 * C_MAX_LIMIT < series.SIEVE_MAX

    @pytest.mark.parametrize(
        "call",
        [
            lambda: b_series(1, 1, 1.0, C_MAX_LIMIT + 1),
            lambda: b_series(5, 0, 1.0, 250_000),
            lambda: coeff_a(1, 1, c_max=250_000),
            lambda: prop1_rhs(1, 1, 0, 2.0, c_max=C_MAX_LIMIT + 1),
        ],
    )
    def test_c_max_rejected(self, no_work, call):
        with pytest.raises(ValueError, match=f"c_max must be at most {C_MAX_LIMIT}"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: b_series(1, 1, 1.0, 99),
            lambda: b_series(5, 0, 1.0, 50),
            lambda: prop1_rhs(1, 1, 1, 2.0, c_max=50),
            lambda: prop1_rhs(1, 1, 0, 2.0, c_max=99),
            lambda: coeff_a(1, 1, c_max=50),
        ],
    )
    def test_small_c_max_rejected(self, no_work, call):
        # the series accept c_max from 100 on
        with pytest.raises(ValueError, match="c_max must be at least 100, got"):
            call()

    @pytest.mark.parametrize("m", [0, 1])
    def test_smallest_c_max_accepted(self, m):
        sv = prop1_rhs(1, 1, m, 2.0, c_max=100)
        assert sv.c_max == 100 and math.isfinite(sv.value) and sv.tail_estimate > 0

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_smallest_c_max_tail_covers_its_gap(self, m):
        # the tail checkpoints run from c_max // 10, so c_max = 100 still
        # measures a spread; it must cover the distance to c_max = 10,000
        small, large = prop1_rhs(1, 1, m, 2.0, c_max=100), prop1_rhs(1, 1, m, 2.0, c_max=10_000)
        assert small.tail_estimate >= abs(small.value - large.value) > 0

    @pytest.mark.parametrize(
        "call, coefficient",
        [
            (lambda: coeff_a(4, 4), "a(4, 4)"),
            (lambda: coeff_a(9, 16), "a(9, 16)"),
            (lambda: b_series(4, 4, 1.0, 200), "b(4, 4, s)"),
            (lambda: thm2_rhs(4, 1, 2), "a(4, 4)"),
            (lambda: thm2_rhs(9, 1, 3), "a(9, 9)"),
        ],
        ids=["coeff_a", "coeff_a_both_square", "b_series", "thm2_rhs_m2", "thm2_rhs_m3"],
    )
    def test_no_spectral_route_rejected(self, no_work, call, coefficient):
        # neither argument carries the genus character, so the root sums have
        # no route; thm2_rhs checks every a(n^2 D, d) before its first one
        message = re.escape(coefficient) + " has no spectral route: one argument must be 1 or"
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("modulus", [MODULUS_LIMIT + 4, series.SIEVE_MAX, 4_000_000])
    def test_modulus_rejected(self, no_work, modulus):
        with pytest.raises(ValueError, match=f"modulus must be at most {MODULUS_LIMIT}"):
            kloosterman_plus(1, 1, modulus)
        with pytest.raises(ValueError, match=f"modulus must be at most {MODULUS_LIMIT}"):
            s_m_sum(1, 1, 1, modulus)

    def test_largest_modulus_accepted(self):
        c = C_MAX_LIMIT
        assert kloosterman_plus(1, 1, MODULUS_LIMIT) == pytest.approx(
            2.0 * math.sqrt(c) * brute_root_sum(1, 1, c), abs=1e-9
        )
        assert s_m_sum(2, 1, 1, MODULUS_LIMIT) == pytest.approx(
            brute_root_sum(1, 1, c, 2), abs=1e-12
        )
