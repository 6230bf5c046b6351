"""Integer and real-analytic primitives shared by the rest of the package.

Kronecker symbol, the theta-multiplier unit eps_a, divisor sums, fundamental
solutions of t^2 - d u^2 = 4, and the real special functions (Gamma, zeta,
Dirichlet L, Bessel J and I of real order) that the series and Poincare
modules consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PellSolution",
    "kronecker",
    "eps",
    "pell_fundamental",
    "sigma_real",
    "gamma_real",
    "zeta_real",
    "dirichlet_L",
    "bessel_J",
    "bessel_I",
    "bessel_J_vec",
    "bessel_I_vec",
    "is_fundamental_discriminant",
]

# Ascending series for J is used below this argument; the oscillatory
# integral representation above it.  At x = 10 the series loses ~5 digits
# to cancellation, which still leaves ~1e-11 relative.
J_SERIES_CUTOFF = 10.0

# exp overflows shortly past this; I_nu(x) ~ e^x/sqrt(2 pi x).
I_ARG_CEILING = 700.0

PELL_U_CEILING = 10**6


@dataclass(frozen=True)
class PellSolution:
    """Minimal positive solution of t^2 - d u^2 = 4."""

    t: int
    u: int
    d: int

    def __post_init__(self):
        if self.t * self.t - self.d * self.u * self.u != 4:
            raise ValueError(f"not a solution of t^2 - {self.d} u^2 = 4: {self}")

    @property
    def unit(self) -> float:
        """The real quadratic unit (t + u sqrt(d)) / 2."""
        return (self.t + self.u * math.sqrt(self.d)) / 2


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n), extended to all integer pairs.

    Conventions: (D/0) = 1 iff |D| = 1 else 0; (D/-1) = -1 iff D < 0;
    (D/2) = 0 for even D, else +1 if D = +-1 mod 8 and -1 otherwise.
    """
    if n == 0:
        return 1 if abs(D) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if D < 0:
            result = -result
    # pull out factors of two
    if n % 2 == 0:
        if D % 2 == 0:
            return 0
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and D % 8 in (3, 5):
            result = -result
    # now n is odd and positive: Jacobi symbol via reciprocity
    D %= n
    while D != 0:
        while D % 2 == 0:
            D //= 2
            if n % 8 in (3, 5):
                result = -result
        D, n = n, D
        if D % 4 == 3 and n % 4 == 3:
            result = -result
        D %= n
    return result if n == 1 else 0


def eps(a: int) -> complex:
    """The unit eps_a: 1 if a = 1 mod 4, i if a = 3 mod 4."""
    if a % 2 == 0:
        raise ValueError(f"eps requires an odd argument, got {a}")
    return 1 if a % 4 == 1 else 1j


def pell_fundamental(d: int) -> PellSolution:
    """Fundamental solution of t^2 - d u^2 = 4 by direct search on u.

    d must be a positive nonsquare discriminant (d = 0, 1 mod 4).
    """
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError(f"d must be a positive discriminant, got {d}")
    if math.isqrt(d) ** 2 == d:
        raise ValueError(f"d must not be a perfect square, got {d}")
    for u in range(1, PELL_U_CEILING + 1):
        t2 = d * u * u + 4
        t = math.isqrt(t2)
        if t * t == t2:
            return PellSolution(t=t, u=u, d=d)
    raise ValueError(f"no Pell solution with u <= {PELL_U_CEILING} for d={d}")


def divisors(m: int) -> list[int]:
    """Sorted positive divisors of m >= 1."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    small, large = [], []
    k = 1
    while k * k <= m:
        if m % k == 0:
            small.append(k)
            if k * k != m:
                large.append(m // k)
        k += 1
    return small + large[::-1]


def sigma_real(m: int, w: float) -> float:
    """Divisor power sum sigma_w(m) = sum of n^w over n | m."""
    return sum(n**w for n in divisors(m))


def gamma_real(x: float) -> float:
    """Gamma function for real x > 0."""
    if x <= 0:
        raise ValueError(f"gamma_real requires x > 0, got {x}")
    return math.gamma(x)


# Bernoulli numbers B_2, B_4, ..., B_16 for Euler-Maclaurin tails.
_BERNOULLI = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
]


def _hurwitz_zeta(s: float, a: float, n_terms: int = 24) -> float:
    """Hurwitz zeta(s, a) for s > 1, a > 0, by Euler-Maclaurin."""
    total = sum((k + a) ** (-s) for k in range(n_terms))
    x = n_terms + a
    total += x ** (1 - s) / (s - 1)
    total += 0.5 * x ** (-s)
    # correction terms B_2k/(2k)! * (s)_(2k-1) * x^(-s-2k+1)
    poch = s
    fact = 2.0
    for j, b in enumerate(_BERNOULLI):
        k = j + 1
        total += b / fact * poch * x ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
    return total


def zeta_real(s: float) -> float:
    """Riemann zeta for real s > 1 (Euler-Maclaurin accelerated)."""
    if s <= 1:
        raise ValueError(f"zeta_real requires s > 1, got {s}")
    return _hurwitz_zeta(s, 1.0)


def is_fundamental_discriminant(D: int) -> bool:
    """True when D is the discriminant of a quadratic field, or D = 1."""
    if D == 1:
        return True
    if D == 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return _is_squarefree(abs(D))
    m = D // 4
    return m % 4 in (2, 3) and _is_squarefree(abs(m))


def _is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def dirichlet_L(D: int, s: float) -> float:
    """L_D(s) = sum_{n>0} (D/n) n^(-s) for s > 1 and D fundamental."""
    if s <= 1:
        raise ValueError(f"dirichlet_L requires s > 1, got {s}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D must be a fundamental discriminant, got {D}")
    if D == 1:
        return zeta_real(s)
    q = abs(D)
    return q ** (-s) * sum(
        kronecker(D, r) * _hurwitz_zeta(s, r / q) for r in range(1, q + 1) if kronecker(D, r) != 0
    )


# ----------------------------------------------------------------------
# Bessel functions, real order nu in [0, 10]
# ----------------------------------------------------------------------


def _bessel_J_series(nu: float, x: float) -> float:
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1)
    total = term
    msq = -half * half
    for k in range(1, 300):
        term *= msq / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-300):
            break
    return total


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _bessel_J_integral(nu: float, x: float) -> float:
    # J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt
    #           - sin(nu pi)/pi int_0^inf exp(-x sinh t - nu t) dt
    # Composite 24-point Gauss panels, ~3 panels per oscillation.
    panels = max(4, int(0.2 * (x + nu)) + 2)
    nodes, weights = _leggauss(24)
    edges = np.linspace(0.0, math.pi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + halfw[:, None] * nodes[None, :]).ravel()
    w = (halfw[:, None] * weights[None, :]).ravel()
    osc = float(np.dot(w, np.cos(nu * t - x * np.sin(t)))) / math.pi
    total = osc
    snp = math.sin(nu * math.pi)
    if abs(snp) > 1e-15:
        # substitute v = x sinh t: decays like e^-v
        nodes2, weights2 = _leggauss(80)
        v = 20.0 * (nodes2 + 1.0)  # v in (0, 40)
        u = v / x
        t2 = np.arcsinh(u)
        integrand = np.exp(-v - nu * t2) / np.sqrt(1.0 + u * u) / x
        total -= snp / math.pi * 20.0 * float(np.dot(weights2, integrand))
    return total


def bessel_J(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0."""
    if x < 0:
        raise ValueError(f"bessel_J requires x >= 0, got {x}")
    if nu < 0:
        raise ValueError(f"bessel_J requires nu >= 0, got {nu}")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x <= J_SERIES_CUTOFF:
        return _bessel_J_series(nu, x)
    return _bessel_J_integral(nu, x)


def bessel_I(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, real order nu >= 0."""
    if x < 0:
        raise ValueError(f"bessel_I requires x >= 0, got {x}")
    if nu < 0:
        raise ValueError(f"bessel_I requires nu >= 0, got {nu}")
    if x > I_ARG_CEILING:
        raise ValueError(f"bessel_I argument {x} exceeds overflow ceiling {I_ARG_CEILING}")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1)
    total = term
    for k in range(1, 2000):
        # two multiplies by x/2, as in bessel_I_vec: a rounded (x/2)^2 would
        # compound one systematic error over all the terms
        term = term * half * half / (k * (nu + k))
        total += term
        if term < 1e-18 * total:
            break
    return total


def bessel_J_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized J_nu over an array of small arguments (x <= series cutoff).

    Falls back to scalar evaluation for any entries beyond the cutoff.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= J_SERIES_CUTOFF
    xs = x[small]
    half = 0.5 * xs
    term = half**nu / math.gamma(nu + 1)
    total = term.copy()
    msq = -half * half
    for k in range(1, 300):
        term = term * msq / (k * (nu + k))
        total += term
        if np.max(np.abs(term)) < 1e-18:
            break
    out[small] = total
    for i in np.nonzero(~small)[0]:
        out[i] = _bessel_J_integral(nu, float(x[i]))
    return out


def bessel_I_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized I_nu by ascending series; same domain and messages as bessel_I.

    The series length is fixed once at max(x), where the relative truncation
    error is largest, and the series is then summed for every entry in one
    in-place Horner pass over that many terms.
    """
    x = np.asarray(x, dtype=float)
    if nu < 0:
        raise ValueError(f"bessel_I requires nu >= 0, got {nu}")
    if x.size == 0:
        return np.empty_like(x)
    lo, hi = float(np.min(x)), float(np.max(x))
    if not lo >= 0:
        raise ValueError(f"bessel_I requires x >= 0, got {lo}")
    if hi > I_ARG_CEILING:
        raise ValueError(f"bessel_I argument {hi} exceeds overflow ceiling {I_ARG_CEILING}")
    # terms of sum_k (x^2/4)^k / (k! (nu+1)_k), stopped as bessel_I stops at max(x)
    hmax = 0.25 * hi * hi
    term = total = 1.0
    for n_terms in range(1, 2000):
        term *= hmax / (n_terms * (nu + n_terms))
        total += term
        if term < 1e-18 * total:
            break
    # two exact-input multiplies by x/2 per term: a rounded (x/2)^2 would
    # carry one systematic error into every power, ~k ulp at term k
    half = 0.5 * x
    acc = np.ones_like(x)
    for k in range(n_terms, 0, -1):
        acc *= half
        acc *= half
        acc *= 1.0 / (k * (nu + k))
        acc += 1.0
    acc *= half**nu / math.gamma(nu + 1)
    return acc
