"""The spectral side: modified Kloosterman sums and the coefficient series.

kloosterman_plus evaluates K+(d, D; 4c) either directly from its definition
(a sum over odd residues mod 4c, exact integer phase arithmetic) or through
a Salie-type closed form over the square roots of dD mod 4c, which brings
the cost per modulus down from O(c) to O(#roots).  The closed form is
exercised against the direct sum across the test grid.

The series need the root sums R(c) for every c <= c_max at once.
_root_sum_array assembles them in numpy, in blocks of ROOT_SUM_BLOCK moduli:
every 4c is factored through the smallest-prime-factor sieve, and by CRT
R(c) is (D/c) times the product, over the prime powers q || 4c, of local
sums over the square roots of dD mod q.  The local roots are found once per
prime power and per call.  The scalar per-modulus code (_root_sum,
sqrts_mod) serves single moduli and is the oracle for the batch.  All moduli
4c must lie inside the sieve: c_max <= C_MAX_LIMIT.

On top of K+ sit the series b(d, D, s), the extrapolated coefficients
a(d, D), the spectral sides of the trace identity, and the divisor-sum
combination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .arith import (
    bessel_J,
    bessel_J_vec,
    dirichlet_L,
    divisors,
    eps,
    gamma_real,
    is_fundamental_discriminant,
    kronecker,
    zeta_real,
)
from .qform import QuadForm, chi_D

__all__ = [
    "SeriesValue",
    "sqrts_mod",
    "kloosterman_plus",
    "s_m_sum",
    "b_series",
    "coeff_a",
    "prop1_rhs",
    "thm2_rhs",
]

SIEVE_MAX = 810_000
# every modulus 4c must be factorable through the sieve
C_MAX_LIMIT = (SIEVE_MAX - 1) // 4
MODULUS_LIMIT = 4 * C_MAX_LIMIT
# the series complete their tails from checkpoints at c >= C_MAX_FLOOR
C_MAX_FLOOR = 100
KP_IMAG_TOL = 1e-9
ROOT_SUM_BLOCK = 16_384

DELTAS_DEFAULT = (0.2, 0.1, 0.05)
CMAX_BY_DELTA = {0.2: 30_000, 0.1: 100_000, 0.05: 200_000}


@dataclass
class SeriesValue:
    value: float
    c_max: int
    s: float
    tail_estimate: float
    params: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# square roots modulo M via SPF sieve + Tonelli-Shanks + Hensel + CRT
# ----------------------------------------------------------------------

_spf = None


def _spf_sieve() -> np.ndarray:
    global _spf
    if _spf is None:
        spf = np.zeros(SIEVE_MAX, dtype=np.int32)
        spf[1] = 1
        # every composite below SIEVE_MAX has a prime factor up to its root
        for p in range(2, math.isqrt(SIEVE_MAX - 1) + 1):
            if spf[p] == 0:
                multiples = spf[p::p]
                multiples[multiples == 0] = p
        primes = np.flatnonzero(spf == 0)[1:]  # skip index 0
        spf[primes] = primes
        _spf = spf
    return _spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, k), ...] for 1 <= n < the sieve bound."""
    if n < 1 or n >= SIEVE_MAX:
        raise ValueError(f"factorize supports 1 <= n < {SIEVE_MAX}, got {n}")
    spf = _spf_sieve()
    out = []
    while n > 1:
        p = int(spf[n])
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return out


def _tonelli_shanks(a: int, p: int) -> int | None:
    """A square root of a mod odd prime p, or None; a must be coprime to p."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p = 1 mod 4: standard two-adic descent
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def _sqrt_mod_odd_prime_power(a: int, p: int, k: int) -> list[int]:
    """All solutions of x^2 = a mod p^k for odd p, a coprime to p."""
    r = _tonelli_shanks(a, p)
    if r is None:
        return []
    pk = p
    for _ in range(k - 1):
        # Hensel: r -> r - (r^2 - a)/(2r) mod p^{j+1}
        pk *= p
        r = (r - (r * r - a) * pow(2 * r, -1, pk)) % pk
    return sorted({r, pk - r})


def _sqrt_mod_2_power(a: int, k: int) -> list[int]:
    """All solutions of x^2 = a mod 2^k for odd a."""
    q = 1 << k
    if k == 1:
        return [1]
    if k == 2:
        return [1, 3] if a % 4 == 1 else []
    if a % 8 != 1:
        return []
    r = 1
    for j in range(3, k):
        if (r * r - a) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return sorted({r % q, (q - r) % q, (r + q // 2) % q, (q - r + q // 2) % q})


def _sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    q = p**k
    a %= q
    if a == 0:
        step = p ** ((k + 1) // 2)
        return list(range(0, q, step))
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    if e % 2 == 1:
        return []
    # x = p^{e/2} y with y^2 = a / p^e mod p^{k-e}
    h = e // 2
    prim = (
        _sqrt_mod_2_power(a, k - e) if p == 2 else _sqrt_mod_odd_prime_power(a, p, k - e)
    )
    if not prim:
        return []
    period = p ** (k - e + h)  # p^{e/2} y repeats mod p^{k - e/2}
    out = set()
    for y in prim:
        x0 = p**h * y
        for j in range(p**h):
            out.add((x0 + j * period) % q)
    return sorted(out)


def sqrts_mod(a: int, M: int) -> list[int]:
    """All x mod M with x^2 = a (mod M), in increasing order."""
    if M < 1:
        raise ValueError(f"modulus must be positive, got {M}")
    if M == 1:
        return [0]
    roots = [0]
    mod = 1
    for p, k in factorize(M):
        q = p**k
        local = _sqrt_mod_prime_power(a, p, k)
        if not local:
            return []
        inv_mod = pow(mod, -1, q) if mod > 1 else 0
        new = []
        for x in roots:
            for y in local:
                if mod == 1:
                    new.append(y)
                else:
                    # CRT: z = x mod mod, z = y mod q
                    t = ((y - x) * inv_mod) % q
                    new.append(x + mod * t)
        roots = new
        mod *= q
    return sorted(r % M for r in roots)


# ----------------------------------------------------------------------
# K+(d, D; 4c)
# ----------------------------------------------------------------------


def _kp_direct(d: int, D: int, c: int) -> float:
    M = 4 * c
    total = 0.0 + 0.0j
    for a in range(1, M, 2):
        if math.gcd(a, M) != 1:
            continue
        abar = pow(a, -1, M)
        total += kronecker(M, a) * eps(a) * cmath.exp(2j * math.pi * ((d * a + D * abar) % M) / M)
    total *= 1 - 1j
    if c % 2 == 1:
        total *= 2
    if abs(total.imag) > KP_IMAG_TOL * max(1.0, abs(total.real)):
        raise ArithmeticError(f"K+({d},{D};{M}) has imaginary residue {total.imag}")
    return total.real


def _fund_square_split(d: int) -> tuple[int, int]:
    """d = d0 f^2 with d0 a (possibly trivial) fundamental discriminant."""
    f = 1
    k = 2
    while k * k <= d:
        while d % (k * k) == 0 and (d // (k * k)) % 4 in (0, 1):
            d //= k * k
            f *= k
        k += 1
    return d, f


def _beta_coeff(d0: int, n: int) -> int:
    """Multiplicative coefficients of L_{d0}(w) / zeta(2w)."""
    out = 1
    for p, k in factorize(n):
        if d0 % p == 0:
            if k != 2:
                return 0
            out = -out
        else:
            if k != 1:
                return 0
            out *= kronecker(d0, p)
    return out


def _T_zero_case(d: int, c: int) -> int:
    """K+(d, 0; 4c) / (4 sqrt c) for d > 0 (a finite divisor sum)."""
    d0, f = _fund_square_split(d)
    total = 0
    for u in divisors(f):
        mu = _mobius(u)
        if mu == 0:
            continue
        ch = kronecker(d0, u)
        if ch == 0:
            continue
        for v in divisors(f // u):
            rem, residue = divmod(c, u * v * v)
            if residue:
                continue
            total += mu * ch * v * _beta_coeff(d0, rem)
    return total


def _mobius(n: int) -> int:
    out = 1
    for _, k in factorize(n):
        if k > 1:
            return 0
        out = -out
    return out


def _euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def _chi_factor(D: int, c: int, b: int, dD: int) -> int:
    if D == 1:
        return 1
    return chi_D(D, QuadForm(c, b, (b * b - dD) // (4 * c)))


def _root_sum(d: int, D: int, c: int, m: int = 1) -> float:
    """sum over b mod 4c with b^2 = dD of chi_D([c,b,*]) e(mb/2c)."""
    dD = d * D
    total = 0.0 + 0.0j
    for b in sqrts_mod(dD % (4 * c), 4 * c):
        total += _chi_factor(D, c, b, dD) * cmath.exp(1j * math.pi * m * b / c)
    if abs(total.imag) > KP_IMAG_TOL * max(1.0, abs(total.real)):
        raise ArithmeticError(f"root sum ({d},{D},{c},{m}) imaginary residue {total.imag}")
    return total.real


def _check_modulus(modulus: int) -> None:
    if modulus % 4 != 0 or modulus <= 0:
        raise ValueError(f"modulus must be a positive multiple of 4, got {modulus}")
    if modulus > MODULUS_LIMIT:
        raise ValueError(f"modulus must be at most {MODULUS_LIMIT}, got {modulus}")


def _check_c_max(c_max: int) -> None:
    if c_max > C_MAX_LIMIT:
        raise ValueError(f"c_max must be at most {C_MAX_LIMIT}, got {c_max}")


def _check_series_c_max(c_max: int, where: str = "") -> None:
    """The c_max range of a series: at least C_MAX_FLOOR, at most C_MAX_LIMIT."""
    if c_max < C_MAX_FLOOR:
        raise ValueError(f"c_max must be at least {C_MAX_FLOOR}, got {c_max}{where}")
    _check_c_max(c_max)


def kloosterman_plus(d: int, D: int, modulus: int, method: str = "auto") -> float:
    """The modified Kloosterman sum K+(d, D; 4c), modulus = 4c <= MODULUS_LIMIT.

    method="direct" evaluates the defining sum; "auto" routes through the
    closed forms (root sums for dD != 0, divisor sums for the degenerate
    arguments) whenever they apply, falling back to the direct sum.
    """
    _check_modulus(modulus)
    c = modulus // 4
    if method == "direct":
        return _kp_direct(d, D, c)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if d == 0 and D == 0:
        r = math.isqrt(c)
        return 4.0 * math.sqrt(c) * _euler_phi(r) if r * r == c else 0.0
    if D == 0 or d == 0:
        n = d + D
        if n > 0 and n % 4 in (0, 1):
            return 4.0 * math.sqrt(c) * _T_zero_case(n, c)
        return _kp_direct(d, D, c)
    if (d * D) % 4 in (0, 1):
        if D == 1 or is_fundamental_discriminant(D):
            return 2.0 * math.sqrt(c) * _root_sum(d, D, c)
        if d == 1 or is_fundamental_discriminant(d):
            return 2.0 * math.sqrt(c) * _root_sum(D, d, c)
    return _kp_direct(d, D, c)


def _check_s_m_args(m: int, d: int, D: int) -> None:
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    dD = d * D
    if dD <= 0 or math.isqrt(dD) ** 2 != dD:
        raise ValueError(f"S_m needs a positive square dD, got {dD}")
    if not (D == 1 or is_fundamental_discriminant(D)):
        # the character weighting the roots is only a class function for
        # fundamental D, and the K+ identity provably needs it
        raise ValueError(f"D must be 1 or a fundamental discriminant, got {D}")


def s_m_sum(m: int, d: int, D: int, modulus: int) -> float:
    """The exponential sum S_m(d, D; 4c) over square roots of dD mod 4c."""
    _check_modulus(modulus)
    _check_s_m_args(m, d, D)
    return _root_sum(d, D, modulus // 4, m=m)


# ----------------------------------------------------------------------
# the series b(d, D, s) and the extrapolated coefficients a(d, D)
# ----------------------------------------------------------------------


def _dirichlet_T(d: int, w: float) -> float:
    """sum_c T(d, c) c^-w in closed form (w > 1), d = d0 f^2 > 0."""
    d0, f = _fund_square_split(d)
    L = zeta_real(w) if d0 == 1 else dirichlet_L(d0, w)
    total = 0.0
    for u in divisors(f):
        mu = _mobius(u)
        if mu == 0:
            continue
        ch = kronecker(d0, u)
        if ch == 0:
            continue
        sig = sum(v ** (1 - 2 * w) for v in divisors(f // u))
        total += mu * ch * u ** (-w) * sig
    return L / zeta_real(2 * w) * total


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod, for moduli below 2^31."""
    out = np.ones_like(base)
    base = base % mod
    exp = exp.copy()
    while exp.any():
        out = out * np.where(exp & 1, base, 1) % mod
        base = base * base % mod
        exp >>= 1
    return out


def _legendre(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise Legendre symbol (x/p) for an odd prime p, by Euler's criterion."""
    e = _powmod(x % p, np.full_like(x, (p - 1) // 2), p)
    return np.where(e > 1, -1, e)


def _odd_primes(n: int) -> list[int]:
    """The odd primes dividing n != 0, by trial division."""
    n = abs(n)
    n >>= (n & -n).bit_length() - 1
    out, p = [], 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    return out + [n] if n > 1 else out


def _local_root_table(a: int, c_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square roots of a modulo every prime power that can divide 4c exactly.

    Those are the odd prime powers up to c_max and 2^k, 4 <= 2^k <= 4 c_max.
    Returns (q, start, roots) with q sorted and the roots of a mod q[i] in
    roots[start[i]:start[i + 1]].
    """
    spf = _spf_sieve()
    ns = np.arange(3, c_max + 1)
    odd_primes = ns[spf[3 : c_max + 1] == ns]
    factors = [(2, k) for k in range(2, (4 * c_max).bit_length())]
    for p in odd_primes.tolist():
        q, k = p, 1
        while q <= c_max:
            factors.append((p, k))
            q, k = q * p, k + 1
    factors.sort(key=lambda pk: pk[0] ** pk[1])
    local = [_sqrt_mod_prime_power(a, p, k) for p, k in factors]
    qs = np.array([p**k for p, k in factors], dtype=np.int64)
    start = np.zeros(len(local) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in local], out=start[1:])
    roots = np.fromiter((r for rs in local for r in rs), dtype=np.int64, count=int(start[-1]))
    return qs, start, roots


def _genus_root_weights(qs, start, roots, a: int, primes: list[int]) -> np.ndarray | None:
    """The b-part of chi_D at each odd p | D: (((r^2 - a)/q) / p) for a root r mod q = p^k.

    Roots modulo every other prime power weigh 1.  None when D has no odd
    prime factor, so that D = 1 pays nothing.
    """
    if not primes:
        return None
    q = np.repeat(qs, np.diff(start))  # the modulus of each root
    weights = np.ones(roots.size)
    for p in primes:
        at = q % p == 0
        weights[at] = _legendre((roots[at] * roots[at] - a) // q[at], p)
    return weights


def _genus_sign(c: np.ndarray, D: int, primes: list[int]) -> np.ndarray:
    """The c-part of chi_D([c, b, *]) for moduli with gcd(c, D) > 1; 0 where 2 | gcd(c, D).

    chi_D is the product of its local characters, and each may be read off
    any value the form represents prime to its own prime.  At an odd p | D
    that is c itself when p does not divide c, and (b^2 - dD)/4c when it
    does; either way the c-part is ((c / p^v) / p) with p^v || c, and the
    b-part is the root weight of _genus_root_weights.  For even D and odd c
    the 2-part D_2 of D contributes (D_2 / c).  The local factor at 2 for
    even c and even D is not worked out here: those moduli get 0, and the
    caller sums them through the scalar _root_sum.
    """
    sign = np.ones_like(c)
    if D % 2 == 0:
        odd = abs(D) >> ((abs(D) & -abs(D)).bit_length() - 1)
        D2 = D // (odd if odd % 4 == 1 else -odd)
        sign = np.array([kronecker(D2, r) for r in range(8)])[c % 8]
    for p in primes:
        cp = c.copy()
        while (div := cp % p == 0).any():
            cp[div] //= p
        sign *= _legendre(cp, p)
    return sign


def _local_sums(M, q, p, m, table) -> np.ndarray:
    """sum over r^2 = dD mod q of w(r) e(r t / q), t = 2m (M/q)^-1 mod q, per pair (M, q).

    w(r) is the root's genus weight, 1 when the table carries none.
    """
    qs, start, roots, weights = table
    t = (2 * m) % q * _powmod(M // q, q - q // p - 1, q) % q
    pos = np.searchsorted(qs, q)
    first, count = start[pos], start[pos + 1] - start[pos]
    pair = np.repeat(np.arange(q.size), count)
    at = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(pair.size)
    angle = 2.0 * np.pi * (roots[at] * t[pair] % q[pair]) / q[pair]
    cos, sin = np.cos(angle), np.sin(angle)
    if weights is not None:
        cos *= weights[at]
        sin *= weights[at]
    return np.bincount(pair, cos, q.size) + 1j * np.bincount(pair, sin, q.size)


def _root_sum_block(c: np.ndarray, m: int, table) -> np.ndarray:
    """The CRT product of the local sums over the prime powers q || 4c."""
    spf = _spf_sieve()
    M = 4 * c
    low = c & -c
    q = 4 * low  # the 2-part of 4c
    R = _local_sums(M, q, np.full_like(q, 2), m, table)
    rest = c // low
    idx = np.flatnonzero(rest > 1)
    while idx.size:  # one odd prime of each 4c per pass, smallest first
        n = rest[idx]
        p = spf[n].astype(np.int64)
        q, n = p.copy(), n // p
        while (more := n % p == 0).any():
            q[more] *= p[more]
            n[more] //= p[more]
        R[idx] *= _local_sums(M[idx], q, p, m, table)
        rest[idx] = n
        idx = idx[n > 1]
    return R


@lru_cache(maxsize=16)
def _root_sum_array(d: int, D: int, c_max: int, m: int = 1) -> np.ndarray:
    """R(c) = sum over b mod 4c with b^2 = dD of chi_D([c,b,*]) e(mb/2c), c = 1 .. c_max.

    For m = 1 this is K+(d, D; 4c) / (2 sqrt c).  The moduli are processed
    in blocks of ROOT_SUM_BLOCK.  Within a block, R(c) is (D/c) times the
    CRT product of the local root sums (_root_sum_block): chi_D of a form
    [c, b, *] with gcd(c, D) = 1 is (D/c), since the form represents c.
    When an odd prime of D divides c, chi_D splits into a sign that depends
    on c (_genus_sign) and a weight on each local root
    (_genus_root_weights), so those moduli stay in the batch too.  Only the
    moduli with 2 | gcd(c, D) weigh each root by its own chi_D through the
    scalar _root_sum.  The table of local roots lives for one call only.
    The returned array is shared through the cache and read-only.
    """
    if D == 1 or is_fundamental_discriminant(D):
        dd, DD = d, D
    elif d == 1 or is_fundamental_discriminant(d):
        dd, DD = D, d
    else:
        raise ValueError(f"no fast Kloosterman route for d={d}, D={D}")
    _check_c_max(c_max)
    primes = _odd_primes(DD)
    qs, start, roots = _local_root_table(dd * DD, c_max)
    table = (qs, start, roots, _genus_root_weights(qs, start, roots, dd * DD, primes))
    chi_table = np.array([kronecker(DD, r) for r in range(abs(DD))])
    out = np.empty(c_max)
    for lo in range(1, c_max + 1, ROOT_SUM_BLOCK):
        c = np.arange(lo, min(lo + ROOT_SUM_BLOCK, c_max + 1), dtype=np.int64)
        chi = chi_table[c % abs(DD)]
        shared = np.flatnonzero(chi == 0)  # gcd(c, D) > 1
        chi[shared] = _genus_sign(c[shared], DD, primes)
        R = _root_sum_block(c, m, table) * chi
        for i in shared[chi[shared] == 0].tolist():
            R[i] = _root_sum(dd, DD, int(c[i]), m)
        bad = np.abs(R.imag) > KP_IMAG_TOL * np.maximum(1.0, np.abs(R.real))
        if bad.any():
            i = int(np.argmax(bad))
            raise ArithmeticError(
                f"root sum ({dd},{DD},{int(c[i])},{m}) imaginary residue {R.imag[i]}"
            )
        out[lo - 1 : lo - 1 + c.size] = R.real
    out.flags.writeable = False
    return out


def _bessel_tail_integral(nu: float, arg0: float, X: float) -> float:
    """int_X^inf J_nu(arg0 / c) / sqrt c dc via the substitution u = 1/c."""
    val, _ = quad(
        lambda u: bessel_J(nu, arg0 * u) * u**-1.5, 0.0, 1.0 / X, epsabs=1e-12, limit=200
    )
    return val


def _complete_tail(terms: np.ndarray, weights: np.ndarray, tail) -> tuple[float, float, float]:
    """The sum over c >= 1 of term(c) weight(c), from the first c_max = terms.size terms.

    The terms (root sums) have a stable nonzero mean, so a bare truncation
    drifts.  The last-half empirical mean rho stands in for the missing
    terms: at each of 12 checkpoints X, the partial sum up to X gets
    rho * tail(X + 1/2), where tail(x) is the integral of the smooth weight
    from x to infinity.  Returns the mean of the corrected partial sums,
    half their spread, and rho.
    """
    c_max = terms.size
    partials = np.cumsum(terms * weights)
    rho = float(np.mean(terms[c_max // 2 :]))
    checkpoints = np.unique(np.linspace(max(c_max // 10, C_MAX_FLOOR), c_max, 12).astype(int))
    corrected = np.array([partials[X - 1] + rho * tail(X + 0.5) for X in checkpoints])
    spread = 0.5 * float(np.max(corrected) - np.min(corrected))
    return float(np.mean(corrected)), spread, rho


def _b_series_bessel(d: int, D: int, s: float, R: np.ndarray) -> SeriesValue:
    """The dD > 0 case: J-Bessel series with mean-corrected tail completion.

    R holds the root sums R(1) .. R(c_max), so c_max is R.size; R does not
    depend on s, and one array serves every s.  The root sums have a stable
    nonzero mean when dD is a square, so a bare truncation drifts like
    c_max^{3/2 - 2s}; _complete_tail sums the mean against the Bessel
    weight past the truncation point.
    """
    dD = d * D
    pref = 2.0 ** (-0.5) * math.pi * dD**0.25
    nu, arg0 = 2 * s - 1, math.pi * math.sqrt(dD)
    cs = np.arange(1, R.size + 1, dtype=float)
    weights = pref * bessel_J_vec(nu, arg0 / cs) / np.sqrt(cs)
    value, spread, rho = _complete_tail(
        R, weights, lambda x: pref * _bessel_tail_integral(nu, arg0, x)
    )
    return SeriesValue(value, R.size, s, spread, {"case": "bessel", "rho": rho})


def b_series(d: int, D: int, s: float, c_max: int) -> SeriesValue:
    """Truncated c-series for b(d, D, s), with smoothing and tail handling.

    Three cases by the sign pattern of (d, D): the J-Bessel series for
    dD > 0 (its tail completed by _complete_tail), and the
    degenerate power series otherwise.  For the degenerate cases the
    closed-form Dirichlet series of K+ gives the full sum, so the reported
    value is exact up to floating error.
    """
    if s <= 0.75:
        raise ValueError(f"b_series requires s > 3/4, got {s}")
    _check_series_c_max(c_max)
    dD = d * D
    if dD > 0:
        return _b_series_bessel(d, D, s, _root_sum_array(d, D, c_max))
    if dD == 0 and d + D != 0:
        n = d + D
        if n < 0 or n % 4 not in (0, 1):
            raise ValueError(f"degenerate case needs d + D = 0, 1 mod 4 > 0, got {n}")
        pref = 2.0 ** (-4 * s) * math.pi ** (s + 0.25) * n ** (s - 0.25)
        value = 4.0 * pref * _dirichlet_T(n, 2 * s - 0.5)
        return SeriesValue(value, c_max, s, 1e-12 * abs(value), {"case": "degenerate"})
    if d == 0 and D == 0:
        pref = 2.0 ** (0.5 - 6 * s) * math.sqrt(math.pi) * gamma_real(2 * s)
        # c = k^2 terms only: K+(0,0;4k^2) = 4 k phi(k)
        value = 4.0 * pref * zeta_real(4 * s - 2) / zeta_real(4 * s - 1)
        return SeriesValue(value, c_max, s, 1e-12 * abs(value), {"case": "zero"})
    raise ValueError(f"b_series is undefined for dD < 0, got d={d}, D={D}")


def _delta_grid(deltas: tuple[float, ...], c_max_by_delta: dict | None) -> list[tuple[float, int]]:
    """The (delta, c_max) pairs of an extrapolation, checked before any work.

    The fits have three unknowns, so they need at least three distinct
    deltas; every delta must be positive (s = 3/4 + delta > 3/4) and every
    c_max used at least 100 and within the sieve.
    """
    cmaxes = c_max_by_delta or CMAX_BY_DELTA
    for delta in deltas:
        if not 0 < delta < math.inf:
            raise ValueError(f"deltas must be positive and finite, got {delta}")
    if len(set(deltas)) < 3:
        raise ValueError(
            f"the extrapolation needs at least 3 distinct deltas, got {len(set(deltas))}"
        )
    grid = [(delta, cmaxes.get(delta, max(cmaxes.values()))) for delta in deltas]
    for delta, cm in grid:
        _check_series_c_max(cm, f" for delta {delta}")
    return grid


def coeff_a(
    d: int,
    D: int,
    deltas: tuple[float, ...] = DELTAS_DEFAULT,
    c_max_by_delta: dict | None = None,
) -> SeriesValue:
    """The coefficient a(d, D) by extrapolating s -> 3/4 from the right.

    Evaluates F(s) = (dD)^{-1/2} (b(d,D,s) - b(d,0,s) b(0,D,s) / b(0,0,s))
    on the delta grid s = 3/4 + delta and extrapolates to delta = 0 in the
    basis {1, delta, delta^{3/2}}; the half-integer exponent matches the
    observed approach rate and calibrates against the geometric-side traces.
    The reported tail folds in the disagreement with a plain quadratic fit
    as the extrapolation-model uncertainty.
    """
    if d <= 0 or D <= 0 or d % 4 not in (0, 1) or D % 4 not in (0, 1):
        raise ValueError(f"coeff_a needs positive d, D = 0, 1 mod 4, got d={d}, D={D}")
    grid = _delta_grid(deltas, c_max_by_delta)
    c_max = max(cm for _, cm in grid)
    # R(c) does not depend on s: one array at the largest c_max serves every
    # delta through its prefix
    R = _root_sum_array(d, D, c_max)
    xs, ys, tails = [], [], []
    for delta, cm in grid:
        s = 0.75 + delta
        bdD = _b_series_bessel(d, D, s, R[:cm])
        bd0 = b_series(d, 0, s, cm)
        b0D = b_series(0, D, s, cm)
        b00 = b_series(0, 0, s, cm)
        F = (bdD.value - bd0.value * b0D.value / b00.value) / math.sqrt(d * D)
        Ferr = (bdD.tail_estimate + abs(bd0.value / b00.value) * b0D.tail_estimate
                + abs(b0D.value / b00.value) * bd0.tail_estimate) / math.sqrt(d * D)
        xs.append(delta)
        ys.append(F)
        tails.append(Ferr)
    xa = np.asarray(xs)
    ya = np.asarray(ys)
    basis = np.column_stack([np.ones_like(xa), xa, xa**1.5])
    coeffs, *_ = np.linalg.lstsq(basis, ya, rcond=None)
    value = float(coeffs[0])
    alt = np.column_stack([np.ones_like(xa), xa, xa**2])
    alt_coeffs, *_ = np.linalg.lstsq(alt, ya, rcond=None)
    model_err = abs(value - float(alt_coeffs[0]))
    tail = max(tails) + model_err
    return SeriesValue(value, c_max, 0.75, tail, {"deltas": list(deltas), "F_values": ys})


# ----------------------------------------------------------------------
# spectral sides of the trace identities
# ----------------------------------------------------------------------


def prop1_rhs(d: int, D: int, m: int, s: float, c_max: int = 10_000) -> SeriesValue:
    """The Kloosterman-Bessel series side of the trace identity for G_{m,Q}."""
    if s <= 1:
        raise ValueError(f"prop1_rhs requires s > 1, got {s}")
    _check_s_m_args(m, d, D)
    _check_series_c_max(c_max)
    dD = d * D
    sm = _root_sum_array(d, D, c_max, m=m)  # S_m(d, D; 4c) for every c
    cs = np.arange(1, c_max + 1, dtype=float)
    if m > 0:
        pref = math.pi / math.sqrt(2) * math.sqrt(m) * dD**0.25
        nu, arg0 = s - 0.5, math.pi * m * math.sqrt(dD)
        weights = pref * bessel_J_vec(nu, arg0 / cs) / np.sqrt(cs)

        def tail(x):
            return pref * _bessel_tail_integral(nu, arg0, x)
    else:
        pref = 2.0 ** (-s - 1) * dD ** (s / 2)
        weights = pref * cs ** (-s)

        def tail(x):
            return pref * x ** (1 - s) / (s - 1)
    value, spread, rho = _complete_tail(sm, weights, tail)
    return SeriesValue(value, c_max, s, spread, {"m": m, "rho": rho})


def thm2_rhs(
    d: int,
    D: int,
    m: int,
    deltas: tuple[float, ...] = DELTAS_DEFAULT,
    c_max_by_delta: dict | None = None,
) -> SeriesValue:
    """The divisor-sum side: sum over n | m of (D/(m/n)) n a(n^2 D, d)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if d <= 0 or D <= 0:
        raise ValueError(f"thm2_rhs needs d, D > 0, got d={d}, D={D}")
    if not (D == 1 or is_fundamental_discriminant(D)):
        raise ValueError(f"D must be fundamental, got {D}")
    c_max = max(cm for _, cm in _delta_grid(deltas, c_max_by_delta))
    total = 0.0
    tail = 0.0
    for n in divisors(m):
        ch = kronecker(D, m // n)
        if ch == 0:
            continue
        a = coeff_a(n * n * D, d, deltas=deltas, c_max_by_delta=c_max_by_delta)
        total += ch * n * a.value
        tail += n * a.tail_estimate
    return SeriesValue(total, c_max, 0.75, tail, {"m": m})
