"""Truncated Poincare series: coset enumeration, evaluation, cycle integrals."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from mocktrace import poincare
from mocktrace.arith import bessel_I_vec, zeta_real
from mocktrace.poincare import B_factor, prop1_lhs
from mocktrace.poincare import (
    _coset_arrays,
    _coset_geometry,
    _excluded_bottoms,
    _folded_geometry,
    _normalize_bottom,
    _phi_vec,
    _split_ray_integral,
    _sum_over_cosets,
)
from mocktrace.qform import QuadForm, UnimodularMatrix

THETA_EPS = 1e-6


def phi_oracle(m: int, s: float, y: float) -> float:
    """phi_{m,s}(y) per coset from scipy's I-Bessel: y^s for m = 0."""
    if m == 0:
        return y**s
    am = abs(m)
    return 2 * math.pi * math.sqrt(am * y) * float(special.iv(s - 0.5, 2 * math.pi * am * y))


@dataclass(frozen=True)
class CosetRep:
    """One coset of Gamma_inf in PSL_2(Z), labelled by its bottom row."""

    matrix: UnimodularMatrix
    bottom: tuple[int, int]


def coset_reps(bound: int) -> list[CosetRep]:
    """All cosets with max(|c|, |d|) <= bound; c >= 0, and (0, 1) for c = 0."""
    C, D, A = _coset_arrays(bound)
    out = [CosetRep(UnimodularMatrix(1, 0, 0, 1), (0, 1))]
    for c, d, a in zip(C[1:].tolist(), D[1:].tolist(), A[1:].tolist()):
        out.append(CosetRep(UnimodularMatrix(a, (a * d - 1) // c, c, d), (c, d)))
    return out


def _semicircle_integral(m: int, Q: QuadForm, s: float, bound: int) -> tuple[float, float]:
    """int G_{m,Q} dtau_Q on the semicircle of Q directly, theta in (eps, pi-eps).

    A cross-check of _split_ray_integral: near the cusps the truncated coset
    box loses mass, so this route converges only like 1/bound.
    """
    excluded = _excluded_bottoms(Q)
    c0 = -Q.b / (2 * Q.a)
    r = math.sqrt(Q.disc) / (2 * abs(Q.a))
    sign = 1.0 if Q.a > 0 else -1.0

    def f(theta: float) -> float:
        tau = complex(c0 + r * math.cos(theta), r * math.sin(theta))
        return _sum_over_cosets(m, tau, s, bound, excluded).real / math.sin(theta)

    val, quad_err = quad(f, THETA_EPS, math.pi - THETA_EPS, epsabs=1e-8, limit=200)
    return sign * val, quad_err + 2 * THETA_EPS


def _enumerate_cosets(bound):
    """Reference enumeration: the identity, then coprime (c, d) with c ascending, d ascending."""
    out = [UnimodularMatrix(1, 0, 0, 1)]
    for c in range(1, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(c, abs(d)) != 1:
                continue
            a = pow(d, -1, c) if c > 1 else 0
            out.append(UnimodularMatrix(a, (a * d - 1) // c, c, d))
    return out


class TestCosetReps:
    def test_bound_one(self):
        reps = coset_reps(1)
        assert sorted(r.bottom for r in reps) == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_determinants_and_coprimality(self):
        for r in coset_reps(12):
            g = r.matrix
            assert g.a * g.d - g.b * g.c == 1
            c, d = r.bottom
            assert (g.c, g.d) == (c, d)
            assert c >= 0
            assert math.gcd(c, abs(d)) == 1

    def test_count_matches_euler_phi_structure(self):
        # for each c >= 1 the number of admissible d in [-B, B] is
        # 2B * phi(c)/c asymptotically; just pin the exact count once
        assert len(coset_reps(10)) == 1 + sum(
            1
            for c in range(1, 11)
            for d in range(-10, 11)
            if math.gcd(c, abs(d)) == 1
        )

    def test_deterministic_order(self):
        assert [r.bottom for r in coset_reps(2)] == [
            (0, 1),
            (1, -2),
            (1, -1),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, -1),
            (2, 1),
        ]


class TestCosetArrays:
    @pytest.mark.parametrize("bound", range(1, 41))
    def test_matches_enumeration(self, bound):
        C, D, A = _coset_arrays(bound)
        ref = _enumerate_cosets(bound)
        assert C.tolist() == [g.c for g in ref]
        assert D.tolist() == [g.d for g in ref]
        assert A.tolist() == [g.a for g in ref]
        for a, c, d in zip(A[1:].tolist(), C[1:].tolist(), D[1:].tolist()):
            assert 0 <= a < c or (c == 1 and a == 0)
            assert (a * d - 1) % c == 0
        assert [r.matrix for r in coset_reps(bound)] == ref
        assert [r.bottom for r in coset_reps(bound)] == [(g.c, g.d) for g in ref]

    def test_read_only(self):
        C, _, _ = _coset_arrays(5)
        with pytest.raises(ValueError):
            C[0] = 7

    def test_domain(self):
        with pytest.raises(ValueError):
            coset_reps(0)


class TestSumOverCosets:
    BOUND = 12

    @staticmethod
    def oracle(m, tau, s, bound, excluded):
        total = 0j
        for g in _enumerate_cosets(bound):
            if (g.c, g.d) in excluded:
                continue
            w = g.moebius(tau)
            total += phi_oracle(m, s, w.imag) * complex(
                math.cos(2 * math.pi * m * w.real), -math.sin(2 * math.pi * m * w.real)
            )
        return total

    @pytest.mark.parametrize("form", [None, (0, 1, 0), (1, 2, 0)])
    @pytest.mark.parametrize("s", [1.5, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_per_coset_oracle(self, m, s, form):
        excluded = frozenset() if form is None else _excluded_bottoms(QuadForm(*form))
        if form == (1, 2, 0):
            assert (0, 1) not in excluded  # the identity stays in the sum
        for tau in (complex(0.37, 0.81), complex(-1.3, 0.45), complex(2.6, 3.2)):
            got = _sum_over_cosets(m, tau, s, self.BOUND, excluded)
            ref = self.oracle(m, tau, s, self.BOUND, excluded)
            assert abs(got - ref) <= 1e-12 * abs(ref), (tau, got, ref)


class TestFoldedSum:
    """At Re tau = 0 with a mirror-closed excluded set the box is summed folded."""

    BOUND = 12
    # no exclusion, the roots of [0, 1, 0] and [0, 2, 0] (both {(0, 1), (1, 0)}),
    # and the roots of [1, 2, 0], whose set is not closed under d -> -d
    CASES = [None, (0, 1, 0), (0, 2, 0), (1, 2, 0)]

    @pytest.mark.parametrize("form", CASES)
    @pytest.mark.parametrize("s", [1.5, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_per_coset_oracle(self, m, s, form):
        excluded = frozenset() if form is None else _excluded_bottoms(QuadForm(*form))
        for y in (0.3, 0.81, 1.0, 2.6, 9.5):
            tau = complex(0.0, y)
            got = _sum_over_cosets(m, tau, s, self.BOUND, excluded)
            ref = TestSumOverCosets.oracle(m, tau, s, self.BOUND, excluded)
            assert abs(got - ref) <= 1e-12 * abs(ref), (y, got, ref)
            if form != (1, 2, 0):
                assert got.imag == 0.0  # the folded sum is real by construction

    @pytest.mark.parametrize("form", CASES)
    def test_fold_taken_exactly_when_mirror_closed(self, form, monkeypatch):
        excluded = frozenset() if form is None else _excluded_bottoms(QuadForm(*form))
        folded = []
        inner = poincare._folded_sum

        def counting(*args):
            folded.append(args)
            return inner(*args)

        monkeypatch.setattr(poincare, "_folded_sum", counting)
        _sum_over_cosets(1, complex(0.0, 1.3), 2.0, self.BOUND, excluded)
        assert len(folded) == (form != (1, 2, 0))
        _sum_over_cosets(1, complex(0.2, 1.3), 2.0, self.BOUND, excluded)
        assert len(folded) == (form != (1, 2, 0))

    def test_node_count_unchanged(self, monkeypatch):
        # the fold changes what a node costs, not which nodes are evaluated
        calls = []
        inner = poincare._sum_over_cosets

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(poincare, "_sum_over_cosets", counting)
        prop1_lhs(1, 1, 1, 2.0)
        folded = len(calls)
        calls.clear()
        monkeypatch.setattr(poincare, "_folded_sum", full_box_at_iy)
        prop1_lhs(1, 1, 1, 2.0)
        assert len(calls) == folded


def full_box_at_iy(m, y, s, bound, excluded):
    """_folded_sum's value summed over the full box, with fresh arrays."""
    C, D, inv_c, frac = _coset_geometry(bound, excluded)
    n2 = (C * y) ** 2 + D * D
    phi = phi_vec(m, s, y / n2)
    phase = 2 * math.pi * m * (frac - D / n2 * inv_c)
    return complex(np.dot(phi, np.cos(phase)), -np.dot(phi, np.sin(phase)))


def _phi_allocating(m, s, y):
    """_phi_vec with fresh arrays and the same operations in the same order."""
    if m == 0:
        return y**s
    am = abs(m)
    return 2 * math.pi * math.sqrt(am) * np.sqrt(y) * bessel_I_vec(s - 0.5, 2 * math.pi * am * y)


def allocating_sum(m, tau, s, bound, excluded):
    """_sum_over_cosets as it was before the shared workspace: a fresh array per step.

    Every floating-point operation is the kernel's, in the kernel's order,
    so the two must agree bit for bit.
    """
    excluded = frozenset(excluded)
    if tau.real == 0 and all(_normalize_bottom(c, -d) in excluded for c, d in excluded):
        C2, D2, d_over_c, frac, self_mirror = _folded_geometry(bound, excluded)
        y = tau.imag
        n2 = C2 * (y * y) + D2
        phi = _phi_allocating(m, s, y / n2)
        if m == 0:
            return complex(2.0 * np.sum(phi) - np.sum(phi[self_mirror]), 0.0)
        u = (frac - d_over_c / n2) * m
        cos = np.cos((u - np.rint(u)) * (2 * math.pi))
        return complex(2.0 * np.dot(phi, cos) - np.dot(phi[self_mirror], cos[self_mirror]), 0.0)
    C, D, inv_c, frac = _coset_geometry(bound, excluded)
    x, y = tau.real, tau.imag
    u = C * x + D
    cy = C * y
    n2 = cy * cy + u * u
    phi = _phi_allocating(m, s, y / n2)
    if m == 0:
        return complex(np.sum(phi))
    u = frac - u / n2 * inv_c
    if C[0] == 0:
        u[0] = x
    u = u * m
    u = (u - np.rint(u)) * (2 * math.pi)
    return complex(np.dot(phi, np.cos(u)), -np.dot(phi, np.sin(u)))


class TestWorkspace:
    """The coset sum reuses one scratch block; no row may leak from one call into the next."""

    TAUS = [
        complex(0.0, 1.3),  # Re tau = 0: folded when the excluded set is mirror-closed
        complex(0.0, 0.4),
        complex(0.5, 0.8),
        complex(-0.5, 2.2),
        complex(0.37, 0.81),
    ]
    EXCLUDED = [frozenset(), frozenset({(0, 1), (1, 0)}), frozenset({(0, 1), (2, -1)})]

    def test_matches_allocating_sum_exactly(self):
        # bounds 120 -> 300 -> 120 shrink the views after the block grew, and
        # folded and full calls alternate on the same rows
        for bound in (120, 300, 120):
            for m in (0, 1, 3):
                for tau in self.TAUS:
                    for excluded in self.EXCLUDED:
                        got = _sum_over_cosets(m, tau, 1.5, bound, excluded)
                        ref = allocating_sum(m, tau, 1.5, bound, excluded)
                        assert got == ref, (bound, m, tau, sorted(excluded), got, ref)

    # (value, err) at the parent of the workspace change, as float.hex; since
    # the adaptive ray rule they are an oracle for the value to 1e-12 and a
    # floor for the error estimate
    PINNED = {
        (1, 1, 0, 2.0): ("0x1.3fd703bb498e3p-1", "0x1.52ab7c378d4a3p-13"),
        (1, 1, 1, 2.0): ("0x1.ffdf956c23a4fp-1", "0x1.61b9ba8ac1e93p-9"),
        (1, 1, 2, 2.0): ("0x1.fe795f4030b64p-1", "0x1.4f00443fc2244p-7"),
        (1, 1, 1, 1.5): ("0x1.245ce449b8569p+3", "0x1.e8a73b3181756p-5"),
        (4, 1, 0, 2.0): ("0x1.17eb5f6681ebap+1", "0x1.ada086cad4dacp-13"),
    }

    @pytest.mark.parametrize("shape", list(PINNED))
    def test_prop1_lhs_bit_identical(self, shape):
        # the benchmark's prop1 shapes at bound 300
        value, err = prop1_lhs(*shape, bound=300)
        pinned_value, pinned_err = (float.fromhex(h) for h in self.PINNED[shape])
        assert value == pytest.approx(pinned_value, rel=1e-12, abs=0.0)
        assert err >= pinned_err * (1 - 1e-12)


def phi_vec(m, s, y):
    """_phi_vec on a copy of y, with fresh buffers."""
    y = np.array(y, dtype=float)
    return _phi_vec(m, s, y, np.empty_like(y), np.empty_like(y))


class TestPhi:
    def test_m_zero_power(self):
        assert phi_vec(0, 1.7, np.array([2.3]))[0] == pytest.approx(2.3**1.7, rel=1e-14)

    def test_sinh_at_s_one(self):
        y = np.array([0.3, 0.7, 1.5])
        assert phi_vec(1, 1.0, y) == pytest.approx(2 * np.sinh(2 * math.pi * y), rel=1e-12)
        assert phi_vec(-2, 1.0, y) == pytest.approx(2 * np.sinh(4 * math.pi * y), rel=1e-12)

    def test_domain(self):
        # a negative height reaches the I-Bessel argument check
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="requires x >= 0"):
            phi_vec(1, 2.0, np.array([0.5, -0.5]))


class TestBFactor:
    def test_known_values(self):
        assert B_factor(2.0) == pytest.approx(4.0, rel=1e-13)
        assert B_factor(1.0) == pytest.approx(2 * math.pi, rel=1e-13)


class TestEvalGm:
    """G_m through the coset-box kernel that prop1_lhs's rays call."""

    def test_m0_matches_full_lattice_sum(self):
        tau = complex(0.3, 1.0)
        s = 2.0
        B = 100
        brute = 0.0
        for c in range(-B, B + 1):
            for d in range(-B, B + 1):
                if c == 0 and d == 0:
                    continue
                w = c * tau + d
                brute += (tau.imag / abs(w) ** 2) ** s
        got = _sum_over_cosets(0, tau, s, B)
        assert abs(got.imag) < 1e-12
        assert got.real == pytest.approx(brute / (2 * zeta_real(2 * s)), rel=1e-3)

    def test_reflection_symmetry_exact(self):
        # the coset box is symmetric under d -> -d, so G(-conj tau) = conj G(tau)
        for m in (0, 1):
            tau = complex(0.37, 0.9)
            a = _sum_over_cosets(m, complex(-tau.real, tau.imag), 1.5, 60)
            b = _sum_over_cosets(m, tau, 1.5, 60)
            assert abs(a - b.conjugate()) < 1e-10 * max(1.0, abs(b))

    def test_translation_approximate_invariance(self):
        tau = complex(0.2, 1.1)
        a = _sum_over_cosets(0, tau + 1, 2.0, 150)
        b = _sum_over_cosets(0, tau, 2.0, 150)
        assert abs(a - b) < 1e-3 * abs(b)


class TestEvalGmQ:
    """G_{m,Q}: the kernel with Q's root cosets as `excluded`."""

    def test_removes_exactly_the_root_cosets(self):
        Q = QuadForm(0, 1, 0)  # roots 0 and infinity
        tau = complex(0.25, 1.3)
        s = 1.8
        m = 1
        full = _sum_over_cosets(m, tau, s, 40)
        cut = _sum_over_cosets(m, tau, s, 40, _excluded_bottoms(Q))
        # identity coset: e(-m Re tau) phi(Im tau); (1, 0) coset: gamma tau = -1/tau
        w = -1.0 / tau
        expected = cut
        expected += phi_oracle(m, s, tau.imag) * complex(
            math.cos(2 * math.pi * m * tau.real), -math.sin(2 * math.pi * m * tau.real)
        )
        expected += phi_oracle(m, s, w.imag) * complex(
            math.cos(2 * math.pi * m * w.real), -math.sin(2 * math.pi * m * w.real)
        )
        assert abs(full - expected) < 1e-9 * max(1.0, abs(full))

    def test_finite_near_cusp(self):
        # the raw series blows up toward the cusp; the corrected one stays modest
        Q = QuadForm(0, 1, 0)
        val = _sum_over_cosets(1, complex(0.0, 40.0), 1.5, 60, _excluded_bottoms(Q))
        assert abs(val) < 50.0


def fixed_panels(f, lo, hi):
    """The reference ray rule on [lo, hi]: 12 panels per unit of log y, 32 Gauss nodes each.

    Shaped like poincare._clenshaw_curtis with a zero gap and f(hi) as its one
    returned node, so that patched in for it the ray integral keeps its y_max
    and tail fit."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, math.ceil(12 * (hi - lo)) + 1)
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))
    return total, 0.0, poincare.RAY_TOL, np.array([f(hi)])


class TestClenshawCurtis:
    """The nested rule on its own, away from the coset box."""

    @pytest.mark.parametrize("k", range(9))
    def test_integrates_monomials(self, k):
        lo, hi = -0.7, 2.3
        value, gap, _, _ = poincare._clenshaw_curtis(lambda t: complex(t**k), lo, hi)
        exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert abs(value - exact) <= 1e-13 * abs(exact), (k, value, exact)
        assert gap <= 1e-13 * max(1.0, abs(exact))

    def test_one_call_per_returned_node(self):
        calls = []

        def f(t):
            calls.append(float(t))
            return complex(math.exp(t) * math.cos(9 * t), math.sin(t))

        T = math.log(50.0)
        value, gap, tol, fx = poincare._clenshaw_curtis(f, 0.0, T)
        assert len(calls) == len(set(calls)) == len(fx) > 9
        # the first node is the right end itself, as the ray's tail fit expects
        assert calls[0] == T and fx[0] == f(T)
        assert gap <= tol
        exact = complex((math.exp(T) * (math.cos(9 * T) + 9 * math.sin(9 * T)) - 1) / 82, 1 - math.cos(T))
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_node_cap_ends_an_unresolved_rule(self):
        rng = np.random.default_rng(7)
        value, gap, tol, fx = poincare._clenshaw_curtis(lambda t: complex(rng.normal()), 0.0, 1.0)
        assert len(fx) == poincare.RAY_NODE_CAP
        assert gap > tol

    def test_coset_sums_per_prop1_lhs(self, monkeypatch):
        # a nested rule keeps every node it samples: 66 coset sums here, against
        # 152 when bisected G7/K15 panels dropped the 15 nodes of each split panel
        calls = []
        inner = poincare._sum_over_cosets

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(poincare, "_sum_over_cosets", counting)
        prop1_lhs(1, 1, 2, 2.0)
        assert len(calls) <= 70


class TestRayQuadrature:
    """The nested Clenshaw-Curtis ray rule against the fixed 12-per-unit, 32-node rule."""

    @pytest.mark.parametrize(
        "shape", [(1, 1, 0, 2.0), (1, 1, 1, 2.0), (1, 1, 2, 2.0), (1, 1, 1, 1.5), (4, 1, 0, 2.0)]
    )
    def test_gap_bounds_quadrature_error(self, shape, monkeypatch):
        rays = []
        inner = poincare._ray_integral

        def recording(*args):
            rays.append(args)
            return inner(*args)

        monkeypatch.setattr(poincare, "_ray_integral", recording)
        prop1_lhs(*shape, bound=120)
        monkeypatch.setattr(poincare, "_ray_integral", inner)
        assert rays
        for args in rays:
            value, err = inner(*args)
            with monkeypatch.context() as patch:
                patch.setattr(poincare, "_clenshaw_curtis", fixed_panels)
                fine, fine_err = inner(*args)
            # both errors carry the same tail term; the fine rule's gap is zero,
            # so its error is that tail term plus the RAY_TOL floor
            quadrature_err = err - (fine_err - poincare.RAY_TOL)
            assert abs(value - fine) <= quadrature_err, (args, value, fine, quadrature_err)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_high_m_agrees_with_fine_rule_or_raises(self, m, monkeypatch):
        try:
            value, err = prop1_lhs(4, 1, m, 2.0, bound=100)
        except ArithmeticError as exc:
            assert f"m={m}, s=2.0, bound=100" in str(exc)
            return
        assert m != 6  # the m = 6 integrand cancels beyond double precision
        monkeypatch.setattr(poincare, "_clenshaw_curtis", fixed_panels)
        fine, _ = prop1_lhs(4, 1, m, 2.0, bound=100)
        assert abs(value - fine) <= err, (value, fine, err)


class TestProp1Lhs:
    def test_small_bound_m0(self):
        val, err = prop1_lhs(1, 1, 0, 2.0, bound=80)
        assert val == pytest.approx(0.625, abs=5e-3)
        assert err > 0

    def test_unresolved_ray_is_refused(self):
        # at m = 5 the split rays' coset terms cancel past double precision
        with pytest.raises(ArithmeticError, match=r"^the ray from .* at m=5, s=2.0, bound=100 is unresolved"):
            prop1_lhs(4, 1, 5, 2.0, bound=100)

    def test_cancelling_class_sum_at_m1_is_refused_without_smaller_m_advice(self):
        # prop1_rhs reads -1.5e-5 +- 7.0e-5 here: the class sum may be zero,
        # and m = 0 is another series, so no smaller m resolves it
        with pytest.raises(ArithmeticError) as exc:
            prop1_lhs(9, 1, 1, 2.0, bound=100)
        assert str(exc.value).startswith("the class sum at m=1, s=2.0, bound=100 is unresolved")
        assert "smaller m" not in str(exc.value)

    def test_ray_and_semicircle_routes_agree(self):
        Q = QuadForm(1, 2, 0)
        ray, _ = _split_ray_integral(0, Q, 2.0, 80, 15.0)
        semi, _ = _semicircle_integral(0, Q, 2.0, 80)
        # the direct semicircle route converges only like 1/bound
        assert semi == pytest.approx(ray, abs=0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            prop1_lhs(5, 1, 0, 2.0, bound=20)  # dD not square
        with pytest.raises(ValueError):
            prop1_lhs(1, 1, 0, 1.1, bound=20)  # s out of range
        with pytest.raises(ValueError):
            prop1_lhs(1, 1, -1, 2.0, bound=20)

    @pytest.mark.parametrize("d, D", [(-3, -3), (-4, -4), (-1, -1)])
    def test_negative_pair_rejected(self, d, D, monkeypatch):
        # dD is a positive square, but the identity is stated for d, D > 0
        monkeypatch.setattr(poincare, "classes_square", None)
        with pytest.raises(ValueError, match=re.escape(f"prop1_lhs needs d, D > 0, got d={d}, D={D}")):
            prop1_lhs(d, D, 0, 2.0)

    def test_bound_ceiling(self):
        message = f"bound must be at most {poincare.BOUND_LIMIT}"
        with pytest.raises(ValueError, match=message):
            prop1_lhs(1, 1, 0, 2.0, bound=poincare.BOUND_LIMIT + 1)
