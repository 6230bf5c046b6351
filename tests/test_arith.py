"""Number-theoretic and special-function primitives against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy import special

from mocktrace.arith import (
    I_ARG_CEILING,
    I_SERIES_SPLIT,
    bessel_I_vec,
    bessel_J_vec,
    dirichlet_L,
    divisors,
    eps,
    factor,
    gamma_real,
    inverse_mod,
    is_fundamental_discriminant,
    kronecker,
    pell_fundamental,
    sigma_real,
    zeta_real,
)
from mocktrace.series import _fund_square_split, _prime_discriminants


def _is_fundamental_by_definition(D: int) -> bool:
    """D = 1, or a discriminant D = 0, 1 mod 4 such that no D / f^2 with f > 1 is
    again a discriminant."""
    if D == 0 or D % 4 not in (0, 1):
        return False
    return not any(D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1)
                   for f in range(2, math.isqrt(abs(D)) + 1))


class TestKronecker:
    def test_matches_sympy_jacobi_extension(self):
        for a in range(-30, 31):
            for n in range(-30, 31):
                assert kronecker(a, n) == int(sympy.kronecker_symbol(a, n)), (a, n)

    def test_periodicity_for_fundamental_discriminants(self):
        for D in (5, 8, 12, 13, -3, -4, -7, -8):
            for n in range(1, 60):
                assert kronecker(D, n) == kronecker(D, n + abs(D))

    def test_complete_multiplicativity_in_bottom(self):
        for a in (-7, -3, 2, 5, 13):
            for m in range(1, 20):
                for n in range(1, 20):
                    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    # fundamental discriminants of both signs, with every 2-part -4, 8, -8
    FUNDAMENTAL = [-3, -4, -7, -8, 5, 8, 12, -15, -20, 24, -24, 28, 40, -84, 1365, -2_042_040]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        D=st.sampled_from(FUNDAMENTAL),
        n1=st.integers(-10**6, 10**6),
        n2=st.integers(-10**6, 10**6),
    )
    def test_character_properties(self, D, n1, n2):
        # what the root sums' character tables rely on
        assert is_fundamental_discriminant(D)
        assert kronecker(D, n1 * n2) == kronecker(D, n1) * kronecker(D, n2)
        assert kronecker(D, n1) == kronecker(D, n1 % abs(D))
        assert kronecker(D, n1) == math.prod(kronecker(ps, n1) for ps in _prime_discriminants(D))


class TestEps:
    def test_values_mod_four(self):
        # eps_a = 1 for a = 1 (4), i for a = 3 (4)
        assert eps(1) == 1
        assert eps(5) == 1
        assert eps(3) == 1j
        assert eps(7) == 1j

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            eps(2)


class TestPell:
    @pytest.mark.parametrize(
        "d,t,u", [(5, 3, 1), (8, 6, 2), (12, 4, 1), (13, 11, 3), (97, 125619266, 12754704)]
    )
    def test_fundamental_solutions(self, d, t, u):
        sol = pell_fundamental(d)
        assert (sol.t, sol.u) == (t, u)
        assert sol.t * sol.t - d * sol.u * sol.u == 4

    def test_matches_brute_force_search(self):
        # the smallest u > 0 with d u^2 + 4 a square; u <= 534,000 below 97
        for d in range(5, 97):
            if d % 4 not in (0, 1) or math.isqrt(d) ** 2 == d:
                continue
            u = 1
            while math.isqrt(d * u * u + 4) ** 2 != d * u * u + 4:
                u += 1
            sol = pell_fundamental(d)
            assert (sol.t, sol.u) == (math.isqrt(d * u * u + 4), u), d

    def test_unit_exceeds_one(self):
        for d in (5, 8, 12, 13, 17, 20, 21):
            assert pell_fundamental(d).unit > 1.0

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            pell_fundamental(9)


class TestFactor:
    def test_matches_sympy_to_1e4(self):
        for n in range(1, 10_001):
            assert factor(n) == sorted(sympy.factorint(n).items()), n

    @pytest.mark.parametrize("n", [1, 2**20, 999_983, 999_983**2])
    def test_edge_cases(self, n):
        # the empty product, a prime power, the largest prime below 1e6 and its
        # square, whose trial division runs up to that prime
        assert factor(n) == sorted(sympy.factorint(n).items())

    @pytest.mark.parametrize("n", [0, -6])
    def test_nonpositive_rejected(self, n):
        with pytest.raises(ValueError):
            factor(n)
        with pytest.raises(ValueError):
            divisors(n)


class TestDivisorsSigma:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(13) == [1, 13]

    def test_divisors_match_sympy_to_2000(self):
        for n in range(1, 2001):
            assert divisors(n) == sympy.divisors(n), n

    def test_sigma_real_matches_direct_sum(self):
        for n in range(1, 40):
            for s in (0.0, 0.5, 1.0, -0.5):
                direct = sum(d**s for d in divisors(n))
                assert sigma_real(n, s) == pytest.approx(direct, rel=1e-13)


class TestGammaZeta:
    def test_gamma_matches_math(self):
        for x in (0.5, 0.75, 1.0, 1.5, 2.0, 3.25, 7.5):
            assert gamma_real(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_zeta_matches_mpmath(self):
        for s in (1.1, 1.5, 2.0, 2.5, 3.0, 4.0):
            assert zeta_real(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-13)

    def test_zeta_pole_side_rejected(self):
        with pytest.raises(ValueError):
            zeta_real(0.8)

    def test_dirichlet_L_matches_mpmath_sum(self):
        # direct character sums via the Hurwitz zeta decomposition in mpmath
        for D in (5, 8, 12, 13, -3, -4):
            for s in (1.25, 1.5, 2.0):
                q = abs(D)
                ref = sum(
                    kronecker(D, r) * mpmath.zeta(s, mpmath.mpf(r) / q) for r in range(1, q + 1)
                ) / mpmath.mpf(q) ** s
                assert dirichlet_L(D, s) == pytest.approx(float(ref), rel=1e-13), (D, s)

    def test_dirichlet_L_approaches_closed_forms_near_one(self):
        # L(1, chi_{-4}) = pi/4 and L(1, chi_5) = 2 log((1+sqrt 5)/2)/sqrt 5;
        # the implementation stops at s > 1, so probe just to the right
        assert dirichlet_L(-4, 1.0 + 1e-6) == pytest.approx(math.pi / 4, rel=1e-4)
        phi = (1 + math.sqrt(5)) / 2
        assert dirichlet_L(5, 1.0 + 1e-6) == pytest.approx(
            2 * math.log(phi) / math.sqrt(5), rel=1e-4
        )

    def test_dirichlet_L_domain(self):
        with pytest.raises(ValueError):
            dirichlet_L(5, 1.0)
        with pytest.raises(ValueError):
            dirichlet_L(9, 1.5)


class TestBessel:
    def test_J_matches_mpmath(self):
        for nu in (0.5, 1.0, 1.5, 2.5):
            for x in (0.1, 1.0, 5.0, 9.9, 10.1, 25.0, 80.0):
                ref = float(mpmath.besselj(nu, x))
                got = bessel_J_vec(nu, np.array([x]))[0]
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-12), (nu, x)

    # the orders of b_series, 2s - 1 at s = 3/4 + delta for delta in
    # {0.05, 0.1, 0.2}, and of prop1_rhs, s - 1/2 at s in {1.5, 2}
    @pytest.mark.parametrize("nu", [0.6, 0.7, 0.9, 1.0, 1.5])
    def test_J_at_series_orders(self, nu):
        # arguments up to 2 pi sqrt(60); near a zero of J a relative error
        # says nothing, so those points are skipped
        rng = np.random.default_rng(6)
        xs = np.concatenate(
            (np.geomspace(1e-6, 2 * math.pi * math.sqrt(60), 80),
             rng.uniform(0.0, 2 * math.pi * math.sqrt(60), 120))
        )
        got = bessel_J_vec(nu, xs)
        checked = 0
        with mpmath.workdps(30):
            for x, v in zip(map(float, xs), got):
                ref = float(mpmath.besselj(nu, x))
                if abs(ref) < 1e-2:
                    continue
                checked += 1
                assert v == pytest.approx(ref, rel=1e-13, abs=0.0), (nu, x)
                one = bessel_J_vec(nu, np.array([x]))[0]  # alone, not in the batch
                assert one == pytest.approx(ref, rel=1e-13, abs=0.0), (nu, x)
        assert checked > 120

    def test_I_matches_mpmath(self):
        # the random block over [100, ceiling] catches a compounding
        # rounding error (2.6e-14 for a rounded (x/2)^2 per term)
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            ([0.0, 0.1, 1.0, 5.0, 20.0, 100.0], np.geomspace(1e-8, I_ARG_CEILING, 40),
             rng.uniform(100.0, I_ARG_CEILING, 60))
        )
        with mpmath.workdps(30):
            for nu in (0.0, 0.5, 1.0, 1.5, 2.5):
                for x, v in zip(map(float, xs), bessel_I_vec(nu, xs)):
                    ref = float(mpmath.besseli(nu, x))
                    assert v == pytest.approx(ref, rel=1e-14, abs=0.0), (nu, x)

    def test_vectorized_match_scalar(self):
        import numpy as np

        xs = np.array([0.3, 2.0, 7.7, 15.0, 42.0])
        jv = bessel_J_vec(1.5, xs)
        iv = bessel_I_vec(1.5, np.array([0.2, 1.0, 3.0]))
        for x, v in zip(xs, jv):
            assert v == pytest.approx(float(mpmath.besselj(1.5, float(x))), rel=1e-11)
        for x, v in zip([0.2, 1.0, 3.0], iv):
            assert v == pytest.approx(special.iv(1.5, x), rel=1e-11)


class TestBesselIVec:
    @pytest.mark.parametrize("nu", [0.0, 0.75, 1.0, 1.5, 2.5])
    def test_matches_mpmath_up_to_ceiling(self, nu):
        # at large x a rounded (x/2)^2 compounds over ~x/2 terms; the random
        # block there catches that (up to 2.8e-14 for a single rounded square)
        rng = np.random.default_rng(3)
        xs = np.concatenate(
            ([0.0], np.geomspace(1e-8, I_ARG_CEILING, 60), rng.uniform(100.0, I_ARG_CEILING, 100))
        )
        got = bessel_I_vec(nu, xs)
        with mpmath.workdps(30):
            for x, v in zip(xs, got):
                ref = float(mpmath.besseli(nu, x))
                assert v == pytest.approx(ref, rel=1e-14, abs=0.0), (nu, x)

    @pytest.mark.parametrize("nu", [0.75, 1.5])
    def test_one_large_argument_among_tiny_ones(self, nu):
        # the coset sum's shape: a few cosets high up, most near the real axis
        rng = np.random.default_rng(4)
        xs = np.concatenate(([600.0], rng.uniform(0.0, 1e-2, 10**4)))
        got = bessel_I_vec(nu, xs)
        with mpmath.workdps(30):
            for x, v in zip(xs, got):
                ref = float(mpmath.besseli(nu, x))
                assert v == pytest.approx(ref, rel=1e-14, abs=0.0), (nu, x)

    def test_empty_input(self):
        out = bessel_I_vec(1.5, np.array([]))
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "nu, bad, x",
        [(1.5, -0.5, [0.3, -0.5]), (-0.5, None, [0.3]), (1.5, 800.0, [0.3, 800.0])],
    )
    def test_domain_same_as_scalar(self, nu, bad, x):
        # each message names the offending value
        message = {
            -0.5: "bessel_I_vec requires x >= 0, got -0.5",
            None: "bessel_I_vec requires nu >= 0, got -0.5",
            800.0: f"bessel_I_vec argument 800.0 exceeds overflow ceiling {I_ARG_CEILING}",
        }[bad]
        with pytest.raises(ValueError) as vec:
            bessel_I_vec(nu, np.array(x))
        assert str(vec.value) == message


class TestBesselIVecTwoTier:
    """Entries up to I_SERIES_SPLIT get a shorter series than the largest one."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_straddling_the_split(self, nu):
        t = I_SERIES_SPLIT
        rng = np.random.default_rng(11)
        xs = np.concatenate(
            ([t, t * (1 - 1e-9), t * (1 + 1e-9), 0.0, 1e-300, 1e-12, 699.5],
             rng.uniform(0.0, 1e-3, 50), rng.uniform(0.5 * t, 2.0 * t, 50),
             rng.uniform(2.0 * t, 30.0, 20))
        )
        got = bessel_I_vec(nu, xs)
        with mpmath.workdps(30):
            for x, v in zip(map(float, xs), got):
                ref = float(mpmath.besseli(nu, x))
                assert v == pytest.approx(ref, rel=1e-14, abs=0.0), (nu, x)

    @pytest.mark.parametrize("hi", [0.05, I_SERIES_SPLIT, 0.2, 699.5])
    def test_short_tier_alone_and_with_large_entries(self, hi):
        # all entries at or below the split, and one large entry above it
        xs = np.concatenate((np.linspace(0.0, min(hi, I_SERIES_SPLIT), 33), [hi]))
        got = bessel_I_vec(1.5, xs)
        with mpmath.workdps(30):
            for x, v in zip(map(float, xs), got):
                ref = float(mpmath.besseli(1.5, x))
                assert v == pytest.approx(ref, rel=1e-14, abs=0.0), x


class TestBesselIVecBuffers:
    """out= and work= change where bessel_I_vec writes, never what it computes."""

    XS = np.concatenate(
        # entries in (split, 2 split] halve to at most the split: they catch
        # a mask read off work = x/2 instead of x
        ([0.0, 1e-300, I_SERIES_SPLIT, I_SERIES_SPLIT * (1 + 1e-9), 0.19, 0.1999, 699.5],
         np.random.default_rng(12).uniform(0.0, 1e-2, 200),
         np.random.default_rng(13).uniform(0.0, 40.0, 30))
    )

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    def test_same_bits_as_plain_call(self, nu):
        x = self.XS.copy()
        plain = bessel_I_vec(nu, x)
        out = np.full_like(x, np.nan)
        assert bessel_I_vec(nu, x, out=out, work=np.full_like(x, np.nan)) is out
        assert np.array_equal(out, plain)
        assert np.array_equal(bessel_I_vec(nu, x, out=np.empty_like(x)), plain)
        assert np.array_equal(bessel_I_vec(nu, x, work=np.empty_like(x)), plain)
        assert np.array_equal(x, self.XS)  # unless x is the work buffer, it is only read
        # x itself as the scratch: it is consumed, the result is the same
        assert np.array_equal(bessel_I_vec(nu, x, out=out, work=x), plain)

    def test_empty_input_returns_out(self):
        out = np.empty(0)
        assert bessel_I_vec(1.5, np.array([]), out=out, work=np.empty(0)) is out

    @pytest.mark.parametrize(
        "nu, x, message",
        [
            (1.5, [0.3, -0.5], "bessel_I_vec requires x >= 0, got -0.5"),
            (-0.5, [0.3], "bessel_I_vec requires nu >= 0, got -0.5"),
            (1.5, [0.3, 800.0],
             f"bessel_I_vec argument 800.0 exceeds overflow ceiling {I_ARG_CEILING}"),
        ],
    )
    def test_errors_unchanged_and_x_untouched(self, nu, x, message):
        x = np.array(x)
        kept = x.copy()
        with pytest.raises(ValueError) as exc:
            bessel_I_vec(nu, x, out=np.empty_like(x), work=x)
        assert str(exc.value) == message
        assert np.array_equal(x, kept)


class TestBesselJVecSeries:
    """Arguments below 0.05 take four terms of the ascending series, the rest scipy."""

    @pytest.mark.parametrize("nu", [0.5, 0.7, 0.9, 1.5])
    def test_straddling_the_split(self, nu):
        rng = np.random.default_rng(12)
        xs = np.concatenate(
            ([0.05, 0.05 * (1 - 1e-9), 0.05 * (1 + 1e-9), 1e-300, 1e-12],
             np.geomspace(1e-8, 0.2, 60), rng.uniform(0.02, 0.08, 60))
        )
        got = bessel_J_vec(nu, xs)
        with mpmath.workdps(30):
            for x, v in zip(map(float, xs), got):
                ref = float(mpmath.besselj(nu, x))
                assert v == pytest.approx(ref, rel=1e-14, abs=0.0), (nu, x)

    def test_zero_and_shape(self):
        assert bessel_J_vec(0.0, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
        assert bessel_J_vec(0.5, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        assert bessel_J_vec(0.5, np.ones((2, 3))).shape == (2, 3)


class TestBesselJVecLargeOrder:
    """Past nu ~ 170.6 Gamma(nu + 1) overflows; the small arguments underflow to 0 instead."""

    @pytest.mark.parametrize("nu", [170.0, 171.0, 200.0, 400.0])
    def test_matches_mpmath(self, nu):
        xs = np.concatenate(([0.0, 1e-300, 1e-12, 0.01, 0.049, 0.051, 1.0],
                             np.geomspace(10, 1000, 25)))
        got = bessel_J_vec(nu, xs)
        with mpmath.workdps(30):
            for x, v in zip(map(float, xs), got):
                ref = float(mpmath.besselj(nu, x))
                # scipy's jv keeps about 12 digits at these orders; abs covers subnormals
                assert v == pytest.approx(ref, rel=1e-11, abs=1e-300), (nu, x)


class TestInverseMod:
    """The one vectorized modular inverse against Python's pow(x, -1, q)."""

    @pytest.mark.parametrize(
        "q", [2**k for k in range(1, 23)] + [3, 3**13, 5**8, 7**7, 997**2, 65537, 809_993]
    )
    def test_matches_pow(self, q):
        rng = np.random.default_rng(q)
        x = rng.integers(1, 10 * q, 200)
        x = x[np.gcd(x, q) == 1]
        got = inverse_mod(x, np.full_like(x, q))
        assert got.tolist() == [pow(v, -1, q) for v in x.tolist()]

    def test_mixed_moduli(self):
        # one call over many moduli at once, as the root sums make it
        rng = np.random.default_rng(13)
        q = rng.integers(1, 810_000, 5000)
        x = rng.integers(1, 810_000, 5000)
        keep = np.gcd(x, q) == 1
        x, q = x[keep], q[keep]
        got = inverse_mod(x, q)
        assert got.tolist() == [pow(a, -1, b) for a, b in zip(x.tolist(), q.tolist())]


class TestFundamentalDiscriminant:
    def test_known_values(self):
        fundamentals = {1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33}
        for D in range(1, 34):
            expected = D in fundamentals
            # 1 is a unit, not a discriminant of a real field, but several
            # call sites treat D = 1 as the trivial character; pin the
            # convention used by the package
            if D == 1:
                continue
            assert is_fundamental_discriminant(D) == expected, D

    def test_negative(self):
        assert is_fundamental_discriminant(-3)
        assert is_fundamental_discriminant(-4)
        assert not is_fundamental_discriminant(-9)
        assert not is_fundamental_discriminant(-12)

    def test_matches_definition_to_20000(self):
        for D in range(-20_000, 20_001):
            assert is_fundamental_discriminant(D) == _is_fundamental_by_definition(D), D

    def test_fund_square_split_to_20000(self):
        # d = d0 f^2 with d0 = 1 or fundamental, for every positive discriminant d
        for d in range(1, 20_001):
            if d % 4 in (0, 1):
                d0, f = _fund_square_split(d)
                assert f >= 1 and d0 * f * f == d, d
                assert d0 == 1 or _is_fundamental_by_definition(d0), d

    def test_prime_discriminants_to_5000(self):
        # the factors multiply to D, and each is -4, 8, -8 or an odd prime p* = +-p = 1 mod 4
        for D in range(-5000, 5001):
            if not _is_fundamental_by_definition(D):
                continue
            parts = _prime_discriminants(D)
            assert math.prod(parts) == D, D
            for ps in parts:
                assert ps in (-4, 8, -8) or (ps % 4 == 1 and sympy.isprime(abs(ps))), (D, ps)
