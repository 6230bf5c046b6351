"""Integer and real-analytic primitives shared by the rest of the package.

Kronecker symbol, the theta-multiplier unit eps_a, trial-division factoring
and divisor sums, fundamental solutions of t^2 - d u^2 = 4, the vectorized
modular inverse, and the real special functions (Gamma, zeta, Dirichlet L,
Bessel J and I of real order) that the series and Poincare modules consume.
zeta, L and Bessel J come from scipy.special (imported on first use), zeta
and L behind the package's own domain checks; the vectorized I_nu of the
coset sum, and J_nu at small arguments, keep an ascending series, which is
faster there than scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PellSolution",
    "factor",
    "kronecker",
    "eps",
    "pell_fundamental",
    "sigma_real",
    "gamma_real",
    "zeta_real",
    "dirichlet_L",
    "bessel_J_vec",
    "bessel_I_vec",
    "is_fundamental_discriminant",
    "inverse_mod",
]

# exp overflows shortly past this; I_nu(x) ~ e^x/sqrt(2 pi x).
I_ARG_CEILING = 700.0
# bessel_I_vec sums the entries up to this argument with a shorter series
I_SERIES_SPLIT = 0.1


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
    """Fundamental solution of t^2 - d u^2 = 4 by the continued fraction of omega.

    d must be a positive nonsquare discriminant (d = 0, 1 mod 4), and
    omega = (d mod 2 + sqrt d)/2.  The period of its complete quotients
    (P + sqrt d)/Q closes at the first Q = 2.  There the denominators u_prev,
    u of the last two convergents give the fundamental unit (t + u sqrt d)/2
    of Z[omega], t = P u + 2 u_prev, of norm +-1; a unit of norm -1 is squared.
    """
    if d <= 0 or d % 4 not in (0, 1):
        raise ValueError(f"d must be a positive discriminant, got {d}")
    root = math.isqrt(d)
    if root * root == d:
        raise ValueError(f"d must not be a perfect square, got {d}")
    P, Q = d % 2, 2
    u_prev, u = 1, 0
    while True:
        a = (P + root) // Q
        u_prev, u = u, a * u + u_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == 2:
            break
    t = P * u + 2 * u_prev
    if t * t - d * u * u == -4:
        t, u = (t * t + d * u * u) // 2, t * u
    return PellSolution(t=t, u=u, d=d)


def inverse_mod(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a in [0, q) with a x = 1 mod q, for coprime x and q >= 1: extended Euclid on arrays."""
    r0, r1 = q.copy(), x % q
    t0, t1 = np.zeros_like(q), np.ones_like(q)
    live = np.flatnonzero(r1)
    while live.size:
        k = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - k * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - k * t1[live]
        live = live[r1[live] != 0]
    return t0 % q


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, k), ...], p ascending, of any n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out, p = [], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1 if p == 2 else 2
    return out + [(n, 1)] if n > 1 else out


def divisors(m: int) -> list[int]:
    """Sorted positive divisors of m >= 1; factor rejects any other m."""
    out = [1]
    for p, k in factor(m):
        out = [n * p**e for n in out for e in range(k + 1)]
    return sorted(out)


def sigma_real(m: int, w: float) -> float:
    """Divisor power sum sigma_w(m) = sum of n^w over n | m; an exact int for integer w >= 0."""
    return sum(n**w for n in divisors(m))


def gamma_real(x: float) -> float:
    """Gamma function for real x > 0."""
    if x <= 0:
        raise ValueError(f"gamma_real requires x > 0, got {x}")
    return math.gamma(x)


def zeta_real(s: float) -> float:
    """Riemann zeta for real s > 1."""
    if s <= 1:
        raise ValueError(f"zeta_real requires s > 1, got {s}")
    from scipy import special
    return float(special.zeta(s))


def is_fundamental_discriminant(D: int) -> bool:
    """True when D is the discriminant of a quadratic field, or D = 1."""
    if D == 1:
        return True
    if D == 0 or D % 4 not in (0, 1):
        return False
    m = D if D % 4 == 1 else D // 4
    return (D % 4 == 1 or m % 4 in (2, 3)) and all(k == 1 for _, k in factor(abs(m)))


def dirichlet_L(D: int, s: float) -> float:
    """L_D(s) = sum_{n>0} (D/n) n^(-s) for s > 1 and D fundamental."""
    if s <= 1:
        raise ValueError(f"dirichlet_L requires s > 1, got {s}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D must be a fundamental discriminant, got {D}")
    if D == 1:
        return zeta_real(s)
    from scipy import special
    q = abs(D)
    terms = (kronecker(D, r) * float(special.zeta(s, r / q)) for r in range(1, q + 1))
    return q ** (-s) * sum(terms)


# ----------------------------------------------------------------------
# Bessel functions, real order nu in [0, 10]
# ----------------------------------------------------------------------


def bessel_J_vec(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu over an array of arguments x >= 0, elementwise as scipy's jv.

    Below x = 0.05 four terms of the ascending series leave a relative tail
    under (x/2)^8 / (4! (nu+1)_4) < 3e-16, so only larger x go to scipy.
    """
    from scipy import special
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 0.05
    out[~small] = special.jv(nu, x[~small])
    h = 0.5 * x[small]
    w = -h * h
    series = 1.0 + w / (nu + 1) * (1.0 + w / (2 * (nu + 2)) * (1.0 + w / (3 * (nu + 3))))
    # Gamma overflows past 171.6; from nu + 1 = 171 on, (x/2)^nu / Gamma(nu + 1) < 1e-579 is 0.0
    out[small] = h**nu / math.gamma(min(nu + 1, 171.0)) * series
    return out


def _I_series(nu: float, half: np.ndarray, x_stop: float, acc: np.ndarray) -> np.ndarray:
    """sum_k (x^2/4)^k / (k! (nu+1)_k) at x = 2 half, one in-place Horner pass into acc.

    The series runs up to the first term below 1e-18 of the sum at x_stop.
    """
    h = 0.25 * x_stop * x_stop
    term = total = 1.0
    for n_terms in range(1, 2000):
        term *= h / (n_terms * (nu + n_terms))
        total += term
        if term < 1e-18 * total:
            break
    # two exact-input multiplies by x/2 per term: a rounded (x/2)^2 would
    # carry one systematic error into every power, ~k ulp at term k
    acc.fill(1.0)
    for k in range(n_terms, 0, -1):
        acc *= half
        acc *= half
        acc *= 1.0 / (k * (nu + k))
        acc += 1.0
    return acc


def bessel_I_vec(nu: float, x: np.ndarray, out=None, work=None) -> np.ndarray:
    """Modified Bessel I_nu, real order nu >= 0, over an array of x in [0, I_ARG_CEILING].

    The relative tail of a fixed series length grows with x, so every entry
    is summed at the length for min(max(x), I_SERIES_SPLIT), and only the
    entries above the split again at the length for max(x).  `out` receives
    the result and `work` (x itself allowed) is scratch; both have x's shape.
    """
    x = np.asarray(x, dtype=float)
    if nu < 0:
        raise ValueError(f"bessel_I_vec requires nu >= 0, got {nu}")
    acc = np.empty_like(x) if out is None else out
    if x.size == 0:
        return acc
    lo, hi = float(np.min(x)), float(np.max(x))
    if not lo >= 0:
        raise ValueError(f"bessel_I_vec requires x >= 0, got {lo}")
    if hi > I_ARG_CEILING:
        raise ValueError(f"bessel_I_vec argument {hi} exceeds overflow ceiling {I_ARG_CEILING}")
    # read before work, which may be x, is overwritten
    big = np.flatnonzero(x > I_SERIES_SPLIT) if hi > I_SERIES_SPLIT else None
    half = np.multiply(0.5, x, out=work)
    _I_series(nu, half, min(hi, I_SERIES_SPLIT), acc)
    if big is not None:
        acc[big] = _I_series(nu, half[big], hi, np.empty(big.size))
    half **= nu
    half /= math.gamma(nu + 1)
    acc *= half
    return acc
