"""Binary quadratic form classes, characters, and automorphs."""

import math
import random

import pytest

from mocktrace.qform import (
    IDENTITY,
    QuadForm,
    UnimodularMatrix,
    apply,
    automorph_generator,
    chi_D,
    classes_negative,
    classes_nonsquare,
    classes_square,
)


def random_unimodular(rng: random.Random, size: int = 5) -> UnimodularMatrix:
    g = IDENTITY
    for _ in range(rng.randint(1, 6)):
        n = rng.randint(-size, size)
        t = UnimodularMatrix(1, n, 0, 1)
        s = UnimodularMatrix(0, -1, 1, 0)
        g = (t @ s) if rng.random() < 0.5 else (t @ g)
    return g


class TestClassLists:
    @pytest.mark.parametrize(
        "d,h,orders", [(-3, 1, [3]), (-4, 1, [2]), (-7, 1, [1]), (-8, 1, [1]), (-23, 3, [1, 1, 1])]
    )
    def test_negative_class_numbers_and_stabilizers(self, d, h, orders):
        cl = classes_negative(d)
        assert len(cl.reps) == h
        assert cl.stab_orders == orders
        for Q in cl.reps:
            assert Q.disc == d

    @pytest.mark.parametrize("d,h", [(5, 1), (8, 1), (12, 2), (13, 1), (17, 1), (20, 2)])
    def test_nonsquare_class_numbers(self, d, h):
        cl = classes_nonsquare(d)
        assert len(cl.reps) == h
        for Q in cl.reps:
            assert Q.disc == d

    def test_square_representative_count_is_b(self):
        for b in range(1, 21):
            cl = classes_square(b * b)
            assert len(cl.reps) == b, b
            for Q in cl.reps:
                assert Q.disc == b * b
            assert sum(1 for Q in cl.reps if Q.a == 0) == 1

    def test_discriminant_residue_validation(self):
        with pytest.raises(ValueError):
            classes_negative(-5)
        with pytest.raises(ValueError):
            classes_nonsquare(7)


class TestApply:
    def test_group_action(self):
        rng = random.Random(7)
        Q = QuadForm(2, 1, -3)
        for _ in range(50):
            g = random_unimodular(rng)
            h = random_unimodular(rng)
            assert apply(g @ h, Q) == apply(g, apply(h, Q))

    def test_preserves_discriminant(self):
        rng = random.Random(11)
        for Q in (QuadForm(1, 1, -1), QuadForm(0, 2, 0), QuadForm(1, 0, 1)):
            for _ in range(30):
                g = random_unimodular(rng)
                assert apply(g, Q).disc == Q.disc


class TestChiD:
    def test_invariance_under_unimodular_actions(self):
        rng = random.Random(3)
        cases = [(1, QuadForm(0, 1, 0)), (5, QuadForm(-1, 1, 1)), (8, QuadForm(1, 0, -2)),
                 (1, QuadForm(1, 2, 0)), (13, QuadForm(1, 3, -1))]
        for D, Q in cases:
            base = chi_D(D, Q)
            for _ in range(100):
                g = random_unimodular(rng)
                assert chi_D(D, apply(g, Q)) == base, (D, Q, g)

    def test_values_in_range(self):
        for D in (1, 5, 8):
            for Q in classes_square(4 * D * D if D > 1 else 4).reps:
                assert chi_D(D, Q) in (-1, 0, 1)

    def test_trivial_character(self):
        # D = 1 gives chi = 1 on every class of every positive discriminant
        for d in (5, 8, 12, 13):
            for Q in classes_nonsquare(d).reps:
                assert chi_D(1, Q) == 1


class TestAutomorph:
    @pytest.mark.parametrize("d", [5, 8, 12, 13, 17])
    def test_fixes_form_and_has_det_one(self, d):
        for Q in classes_nonsquare(d).reps:
            g = automorph_generator(Q)
            assert g.a * g.d - g.b * g.c == 1
            assert g != IDENTITY
            assert apply(g, Q) == Q

    def test_moves_apex_along_geodesic(self):
        Q = QuadForm(1, 1, -1)  # disc 5
        g = automorph_generator(Q)
        c0 = -Q.b / (2 * Q.a)
        r = math.sqrt(Q.disc) / (2 * abs(Q.a))
        apex = complex(c0, r)
        image = g.moebius(apex)
        # stays on the semicircle through the roots
        assert abs(abs(image - c0) - r) < 1e-12


class TestSquareForms:
    def test_roots_satisfy_form(self):
        for Q in (QuadForm(1, 2, 0), QuadForm(0, 3, 0), QuadForm(2, 3, -2), QuadForm(1, 3, 0)):
            for p, q in Q.roots():
                assert Q.a * p * p + Q.b * p * q + Q.c * q * q == 0
                assert math.gcd(abs(p), abs(q)) == 1

    @pytest.mark.parametrize("Q", [QuadForm(1, 1, 1), QuadForm(1, 1, -1), QuadForm(0, 0, 1)])
    def test_roots_and_reduce_square_reject_other_discriminants(self, Q):
        # negative (-3), positive nonsquare (5) and zero, with the sign checked
        # before any square root is taken
        with pytest.raises(ValueError, match="does not have positive square discriminant"):
            Q.roots()
