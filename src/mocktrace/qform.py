"""Binary quadratic forms and the modular-group action.

Class enumeration in all three discriminant regimes (negative definite,
positive nonsquare indefinite, positive square, the last by its [a, b, 0]
representatives), genus characters chi_D, cusp matrices, and automorphs of
indefinite forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import is_fundamental_discriminant, kronecker, pell_fundamental

__all__ = [
    "QuadForm",
    "UnimodularMatrix",
    "ClassList",
    "apply",
    "classes_negative",
    "classes_nonsquare",
    "classes_square",
    "cusp_matrix",
    "chi_D",
    "automorph_generator",
]

CHI_SCAN_BOX = 50


@dataclass(frozen=True, order=True)
class QuadForm:
    """The form [a, b, c] = a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def roots(self) -> list[tuple[int, int]]:
        """Rational roots of Q(x, y) as primitive vectors (p, q), root = p/q.

        Requires a positive square discriminant; the two cusps at which the
        geodesic of the form terminates.
        """
        d = self.disc
        e = math.isqrt(max(d, 0))
        if d <= 0 or e * e != d:
            raise ValueError(f"form {self} does not have positive square discriminant")
        if self.a == 0:
            # roots: infinity and -c/b
            return [(1, 0), _primitive(-self.c, self.b)]
        return [
            _primitive(-self.b + e, 2 * self.a),
            _primitive(-self.b - e, 2 * self.a),
        ]


def _primitive(p: int, q: int) -> tuple[int, int]:
    """Reduce (p, q) to a primitive vector with canonical sign (q > 0, or p > 0 if q = 0)."""
    g = math.gcd(abs(p), abs(q))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix [[a, b], [c, d]] with determinant 1 (element of the modular group)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"matrix {self} is not unimodular")

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def moebius(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
S = UnimodularMatrix(0, -1, 1, 0)


def translation(k: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, k, 0, 1)


@dataclass
class ClassList:
    """One representative per modular-group class of forms of a discriminant."""

    reps: list[QuadForm]
    stab_orders: list[int] = field(default_factory=list)


def apply(gamma: UnimodularMatrix, Q: QuadForm) -> QuadForm:
    """Left action (gamma Q)(x, y) = Q(Dx - By, -Cx + Ay)."""
    A, B, C, D = gamma.a, gamma.b, gamma.c, gamma.d
    a, b, c = Q.a, Q.b, Q.c
    return QuadForm(
        a * D * D - b * D * C + c * C * C,
        -2 * a * B * D + b * (A * D + B * C) - 2 * c * A * C,
        a * B * B - b * A * B + c * A * A,
    )


def _check_disc(d: int):
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant (must be 0 or 1 mod 4)")


def classes_negative(d: int) -> ClassList:
    """Gauss-reduced representatives for negative discriminant d, with stabilizer orders."""
    _check_disc(d)
    if d >= 0:
        raise ValueError(f"d must be negative, got {d}")
    reps = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            if (b * b - d) % (4 * a) != 0:
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # Gauss convention: b >= 0 on the boundary
            reps.append(QuadForm(a, b, c))
    reps.sort()
    orders = []
    for Q in reps:
        if Q.a == Q.b == Q.c:
            orders.append(3)
        elif Q.b == 0 and Q.a == Q.c:
            orders.append(2)
        else:
            orders.append(1)
    return ClassList(reps, orders)


def _is_reduced_indefinite(a: int, b: int, d: int) -> bool:
    # 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, all exact
    if b <= 0 or b * b >= d:
        return False
    ta = 2 * abs(a)
    if (ta + b) ** 2 <= d:  # 2|a| <= sqrt(d) - b
        return False
    if (ta - b) ** 2 >= d and ta - b >= 0:  # 2|a| >= sqrt(d) + b
        return False
    return True


def _rho(Q: QuadForm, d: int) -> QuadForm:
    """Right-neighbor step on the cycle of reduced indefinite forms."""
    c = Q.c
    m = 2 * abs(c)
    t = math.isqrt(d)  # t < sqrt(d) < t + 1 for nonsquare d
    r0 = (-Q.b) % m
    r = t - ((t - r0) % m)
    return QuadForm(c, r, (r * r - d) // (4 * c))


def classes_nonsquare(d: int) -> ClassList:
    """Representatives for positive nonsquare d, one per cycle of reduced forms."""
    _check_disc(d)
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if math.isqrt(d) ** 2 == d:
        raise ValueError(f"d must be nonsquare, got {d} (use classes_square)")
    reduced = set()
    for b in range(1, math.isqrt(d) + 1):
        if (b * b - d) % 4 != 0:
            continue
        for aa in range(1, (math.isqrt(d) + b) // 2 + 1):
            for a in (aa, -aa):
                if not _is_reduced_indefinite(a, b, d):
                    continue
                if (b * b - d) % (4 * a) != 0:
                    continue
                reduced.add(QuadForm(a, b, (b * b - d) // (4 * a)))
    reps = []
    seen = set()
    for Q in sorted(reduced):
        if Q in seen:
            continue
        cycle = [Q]
        R = _rho(Q, d)
        while R != Q:
            cycle.append(R)
            R = _rho(R, d)
        for F in cycle:
            seen.add(F)
        reps.append(min(cycle))
    reps.sort()
    return ClassList(reps)


def classes_square(d: int) -> ClassList:
    """The sqrt(d) representatives [a, b, 0], 0 <= a < b, for square d = b^2."""
    _check_disc(d)
    b = math.isqrt(d)
    if d <= 0 or b * b != d:
        raise ValueError(f"d must be a positive perfect square, got {d}")
    return ClassList([QuadForm(a, b, 0) for a in range(b)])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def cusp_matrix(r: int, s: int) -> UnimodularMatrix:
    """A matrix sending the cusp r/s, gcd(r, s) = 1, to infinity; bottom row exactly (s, -r)."""
    if math.gcd(abs(r), abs(s)) != 1:
        raise ValueError(f"cusp ({r}, {s}) is not in lowest terms")
    # det [[p, q], [s, -r]] = -(p r + q s) = 1
    g, x, y = _xgcd(r, s)
    # r x + s y = 1 -> p = -x, q = -y
    return UnimodularMatrix(-x, -y, s, -r)


def chi_D(D: int, Q: QuadForm) -> int:
    """Genus character: (D/r) for the first value r represented by Q with (r, D) = 1.

    Zero when gcd(a, b, c, D) > 1.  D must be a fundamental discriminant and
    disc(Q) a multiple of D with quotient a discriminant.
    """
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D must be a fundamental discriminant, got {D}")
    if Q.disc % D != 0 or (Q.disc // D) % 4 not in (0, 1):
        raise ValueError(f"disc {Q.disc} is not D times a discriminant for D={D}")
    if D == 1:
        return 1
    if math.gcd(Q.content(), abs(D)) > 1:
        return 0
    for n in range(CHI_SCAN_BOX + 1):
        for x, y in _box_boundary(n):
            r = Q(x, y)
            if r != 0 and math.gcd(abs(r), abs(D)) == 1:
                return kronecker(D, r)
    raise RuntimeError(f"no represented value coprime to {D} in box {CHI_SCAN_BOX} for {Q}")


def _box_boundary(n: int):
    """Lattice points with max-norm exactly n, in lexicographic order."""
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if max(abs(x), abs(y)) == n:
                yield x, y


def automorph_generator(Q: QuadForm) -> UnimodularMatrix:
    """Generator of the infinite cyclic stabilizer of an indefinite nonsquare form.

    Built from the fundamental solution of t^2 - d u^2 = 4 as
    [[(t + b u)/2, c u], [-a u, (t - b u)/2]].
    """
    d = Q.disc
    sol = pell_fundamental(d)  # validates nonsquare positive d
    t, u = sol.t, sol.u
    g = UnimodularMatrix(
        (t + Q.b * u) // 2, Q.c * u, -Q.a * u, (t - Q.b * u) // 2
    )
    assert apply(g, Q) == Q
    return g
