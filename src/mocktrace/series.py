"""The spectral side: modified Kloosterman sums and the coefficient series.

kloosterman_plus evaluates K+(d, D; 4c) either directly from its definition
(a sum over odd residues mod 4c, exact integer phase arithmetic) or through
a Salie-type closed form, the root sum R(c) over the square roots b of dD
mod 4c weighted by the genus character chi_D([c, b, *]).  The defining sum
(_kp_direct) is the reference the closed form is tested against.

_root_sums is the one route to the root sums: it builds R(c) in numpy for
an array of moduli, in blocks of ROOT_SUM_BLOCK.  _root_sum_array runs it
over every c <= c_max, and a single modulus (_root_sum_at) runs it over
that c alone.  By CRT R(c) is a sign times the product, over the prime
powers q || 4c, of local sums over the square roots of dD mod q.  chi_D is
the product of the Kronecker characters of the prime discriminants of D,
and each of those splits into the sign on c and a weight on the local
roots at its own prime.  The half that depends only on the moduli is a
_crt_plan: every 4c factored through the smallest-prime-factor sieve, and
each odd prime's Tonelli-Shanks constant.  Every array of one c_max shares
one plan (_array_plan).  A local sum depends only on q and 4c/q mod q, so
a q || 4c for more moduli than it has residues, q < n(q) =
floor(c_max/q') - floor(c_max/pq') with q' = q, or q/4 at p = 2, is a
shared row: its sums are tabulated once per call, for every residue, and
its pairs read them.  Every other pair keeps its row and (4c/q)^-1 mod q.
Each call adds its table of local roots of dD: Tonelli-Shanks and Hensel
on arrays for odd p not dividing dD, a scan mod p and a lift per power
for the rest.  All moduli 4c must lie inside the sieve: c_max <=
C_MAX_LIMIT.

On top of K+ sit the series b(d, D, s), the extrapolated coefficients
a(d, D), the spectral sides of the trace identity, and the divisor-sum
combination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import (
    bessel_J_vec,
    dirichlet_L,
    divisors,
    eps,
    factor,
    gamma_real,
    inverse_mod,
    is_fundamental_discriminant,
    kronecker,
    zeta_real,
)

__all__ = [
    "SeriesValue",
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
# the smallest c_max a series accepts
C_MAX_FLOOR = 100
KP_IMAG_TOL = 1e-9
ROOT_SUM_BLOCK = 4096
D0_MAX = 10**6  # L_{d0}(w) sums |d0| Hurwitz zeta values: seconds at 10^6

# _bessel_tail_integral sums a series up to z = arg0 / X = 8 and Gauss panels past
# it.  The series' alternating terms outgrow their sum as z grows: its worst relative
# error against mpmath (nu in [0.51, 4.5]) was 4e-15 at 8, 6e-14 at 12, 1.4e-10 at 20
TAIL_SERIES_SPLIT = 8.0
_gauss_legendre = lru_cache(maxsize=None)(leggauss)  # leggauss takes 0.3 ms a call

# coeff_a's extrapolation grid: (delta, c_max) with s = 3/4 + delta
DELTA_GRID = ((0.2, 30_000), (0.1, 100_000), (0.05, 200_000))


@dataclass
class SeriesValue:
    value: float
    c_max: int
    s: float
    tail_estimate: float
    params: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# square roots modulo prime powers
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


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod, for moduli below 2^31."""
    out = np.ones_like(base)
    base = base % mod
    for bit in exp >> np.arange(int(exp.max(initial=0)).bit_length())[:, None] & 1:
        out *= base**bit
        out %= mod
        base = base * base % mod
    return out


def _odd_roots(a: int, p: np.ndarray, k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A square root of a mod p^k per entry (odd prime p not dividing a), -1 where none.

    Tonelli-Shanks masked over the primes by s, p - 1 = Q 2^s, with g = z^Q for a
    non-residue z (_crt_plan): x = a^((Q+1)/2) and t = a^Q keep x^2 = a t, and pass
    j = s-1 .. 1 takes x, t to x g, t g^2 where t has order 2^j, then g to g^2.
    A non-residue leaves x^2 != a mod p; roots are Hensel-lifted to p^k."""
    s = np.frexp((p - 1) & (1 - p))[1] - 1  # 2^s || p - 1, exact in float
    Q = (p - 1) >> s
    x, t = _powmod(np.full(2 * p.size, a), np.concatenate(((Q + 1) // 2, Q)),
                   np.concatenate((p, p))).reshape(2, -1)
    for j in range(int(s.max(initial=1)) - 1, 0, -1):
        i = (s > j).nonzero()[0]
        w = t[i]
        for _ in range(j - 1):
            w = w * w % p[i]
        f = i[w != 1]
        x[f], t[f] = x[f] * g[f] % p[f], t[f] * g[f] % p[f] * g[f] % p[f]
        g[i] = g[i] * g[i] % p[i]
    ok = x * x % p == a % p
    for j in range(1, int(k.max(initial=1))):
        i = (ok & (k > j)).nonzero()[0]
        q = p[i] ** (j + 1)
        x[i] = (x[i] - (x[i] ** 2 - a) % q * inverse_mod(2 * x[i], q)) % q
    return np.where(ok, x, -1)


def _sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """All solutions of x^2 = a mod p^k, sorted: a scan mod p, O(p), then a lift per power.

    Each root mod p^(i+1) reduces to a root r mod p^i, so the candidates r + j p^i
    whose square is a mod p^(i+1) are all of them."""
    roots = [y for y in range(p) if (y * y - a) % p == 0]
    for i in range(1, k):
        step, q = p**i, p ** (i + 1)
        roots = [y for r in roots for j in range(p) if ((y := r + j * step) ** 2 - a) % q == 0]
    return sorted(roots)


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
    """d = d0 f^2 > 0 with d0 a (possibly trivial) fundamental discriminant."""
    s = f = 1
    for p, k in factor(d):
        s, f = s * p ** (k % 2), f * p ** (k // 2)
    return (s, f) if s % 4 == 1 else (4 * s, f // 2)


def _check_fundamental_part(name: str, d: int) -> None:
    """Refuse d > 0 whose fundamental part d0 exceeds D0_MAX, before any root-sum or L work."""
    if (d0 := _fund_square_split(d)[0]) > D0_MAX:
        raise ValueError(f"{name} = {d} has fundamental part d0 = {d0} > {D0_MAX}, L_d0's limit")


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


def _twists(d: int) -> tuple[int, list[tuple[int, int, int]]]:
    """d = d0 f^2 > 0 as d0 and the (u, mu(u) (d0/u), f/u) over u | f with a nonzero weight."""
    d0, f = _fund_square_split(d)
    twists = [(u, _mobius(u) * kronecker(d0, u), f // u) for u in divisors(f)]
    return d0, [t for t in twists if t[1]]


def _T_zero_case(d: int, c: int) -> int:
    """K+(d, 0; 4c) / (4 sqrt c) for d > 0 (a finite divisor sum)."""
    d0, twists = _twists(d)
    total = 0
    for u, weight, g in twists:
        for v in divisors(g):
            rem, residue = divmod(c, u * v * v)
            if not residue:
                total += weight * v * _beta_coeff(d0, rem)
    return total


def _mobius(n: int) -> int:
    out = 1
    for _, k in factor(n):
        if k > 1:
            return 0
        out = -out
    return out


def _euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def _check_modulus(modulus: int) -> None:
    if modulus % 4 != 0 or modulus <= 0:
        raise ValueError(f"modulus must be a positive multiple of 4, got {modulus}")
    if modulus > MODULUS_LIMIT:
        raise ValueError(f"modulus must be at most {MODULUS_LIMIT}, got {modulus}")


def _check_c_max(c_max: int) -> None:
    if c_max > C_MAX_LIMIT:
        raise ValueError(f"c_max must be at most {C_MAX_LIMIT}, got {c_max}")


def _check_series_c_max(c_max: int) -> None:
    """The c_max range of a series: at least C_MAX_FLOOR, at most C_MAX_LIMIT."""
    if c_max < C_MAX_FLOOR:
        raise ValueError(f"c_max must be at least {C_MAX_FLOOR}, got {c_max}")
    _check_c_max(c_max)


def kloosterman_plus(d: int, D: int, modulus: int) -> float:
    """The modified Kloosterman sum K+(d, D; 4c), modulus = 4c <= MODULUS_LIMIT.

    Routes through the closed forms (root sums for dD != 0, divisor sums for
    the degenerate arguments) whenever they apply, falling back to the
    defining sum _kp_direct.
    """
    _check_modulus(modulus)
    c = modulus // 4
    if d == 0 and D == 0:
        r = math.isqrt(c)
        return 4.0 * math.sqrt(c) * _euler_phi(r) if r * r == c else 0.0
    if D == 0 or d == 0:
        n = d + D
        if n > 0 and n % 4 in (0, 1):
            return 4.0 * math.sqrt(c) * _T_zero_case(n, c)
        return _kp_direct(d, D, c)
    if (d * D) % 4 in (0, 1) and any(map(is_fundamental_discriminant, (d, D))):
        return 2.0 * math.sqrt(c) * _root_sum_at(d, D, c, 1)
    return _kp_direct(d, D, c)


def _check_route(coefficient: str, d: int, D: int) -> None:
    """The root sums carry the genus character on D or d, so one must be 1 or fundamental."""
    if not (is_fundamental_discriminant(d) or is_fundamental_discriminant(D)):
        raise ValueError(
            f"{coefficient} has no spectral route: one argument must be 1 or a fundamental"
            " discriminant"
        )


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
    c = modulus // 4
    return _root_sum_at(d, D, c, m)


# ----------------------------------------------------------------------
# the series b(d, D, s) and the extrapolated coefficients a(d, D)
# ----------------------------------------------------------------------


def _dirichlet_T(d: int, w: float) -> float:
    """sum_c T(d, c) c^-w in closed form (w > 1), d = d0 f^2 > 0."""
    d0, twists = _twists(d)
    L = zeta_real(w) if d0 == 1 else dirichlet_L(d0, w)
    total = 0.0
    for u, weight, g in twists:
        total += weight * u ** (-w) * sum(v ** (1 - 2 * w) for v in divisors(g))
    return L / zeta_real(2 * w) * total


def _prime_discriminants(D: int) -> list[int]:
    """The prime discriminants whose product is the fundamental discriminant D.

    They are p* = +-p = 1 mod 4 for each odd p | D and, for even D, its
    2-part -4, 8 or -8; D = 1 has none.  D is factored by arith.factor, so
    it is not bounded by the sieve.
    """
    out = [p if p % 4 == 1 else -p for p, _ in factor(abs(D)) if p > 2]
    two = D // math.prod(out)
    return out + [two] if two != 1 else out


def _prime_powers(c_max: int) -> np.ndarray:
    """Rows (p, k), p^k || 4c for c <= c_max, by value: odd p^k <= c_max, 4 <= 2^k <= 4 c_max."""
    spf = _spf_sieve()
    ns = np.arange(3, c_max + 1)
    p = ns[spf[3 : c_max + 1] == ns]
    two = np.arange(2, (4 * c_max).bit_length())
    rows = [np.column_stack((np.full_like(two, 2), two))]
    for k in range(1, c_max.bit_length()):
        p = p[p**k <= c_max]
        rows.append(np.column_stack((p, np.full_like(p, k))))
    rows = np.concatenate(rows)
    return rows[np.argsort(rows[:, 0] ** rows[:, 1])]


class _Plan(NamedTuple):
    """The half of _root_sums that depends only on the moduli: see _crt_plan.

    A row with q < n(q), the moduli it serves, is shared: _root_sums sums it
    once per residue x = 4c/q mod q, and its pairs read those sums.
    """

    p: np.ndarray  # int32, the prime powers p^k sorted by value
    k: np.ndarray  # int8
    g: np.ndarray  # int32, z^Q mod p as _odd_roots takes it
    shared: np.ndarray  # int64, the tabulated rows, by value
    inverses: np.ndarray  # int32, x^-1 mod q for x in [0, q), row after shared row
    blocks: tuple  # per ROOT_SUM_BLOCK of moduli: (place int32, row uint16, inv int32, passes)


def _crt_plan(c: np.ndarray, factors, counts=1) -> _Plan:
    """The CRT split of every 4c into its prime powers q || 4c, block by block.

    `factors` are the (p, k) rows, sorted by p^k, of every such q.  4c splits
    into its 2-part, then one odd prime power per pass, smallest prime first.
    A local sum depends only on q and x = 4c/q mod q, so a row whose q is
    below `counts`, its number n(q) of moduli, is shared: its sums are
    tabulated once per call over every x in [0, q), and the plan keeps x^-1
    mod q for each.  For c = 1 .. c_max, n(q) = floor(c_max/q') -
    floor(c_max/pq') with q' = q, or q/4 at p = 2 (_array_plan); for one
    modulus n(q) = 1 and no row is shared.  Each block holds, for the pairs
    (4c, q) of all passes in order, `place`, the pair's place in [that table
    | the block's own sums]: offset(q) + x on a shared row, else past the
    table, with the pair's row in `factors` and (4c/q)^-1 mod q kept for the
    block's own sums.  For every pass but the 2-part it holds the positions
    in the block of the c it splits further (int16).  Per row, g is z^Q mod
    p, p - 1 = Q 2^s, for the least non-residue z where s > 1, else 0.
    """
    p, k = np.asarray(factors, dtype=np.int64).reshape(-1, 2).T
    qs, spf, s = p**k, _spf_sieve(), np.frexp((p - 1) & (1 - p))[1] - 1
    z, todo, cand = np.zeros_like(p), (s > 1).nonzero()[0], 2
    while todo.size:
        found = _powmod(np.full_like(todo, cand), (p[todo] - 1) // 2, p[todo]) == p[todo] - 1
        z[todo[found]], todo, cand = cand, todo[~found], cand + 1
    index = np.zeros(qs[-1] + 1, dtype=np.uint16)  # q -> row
    index[qs] = np.arange(qs.size)
    shared = (qs < counts).nonzero()[0]
    offset = np.full(qs.size, -1)  # row -> its x = 0 in the table, -1 if not shared
    offset[shared] = np.cumsum(qs[shared]) - qs[shared]
    x = np.arange(qs[shared].sum()) - np.repeat(offset[shared], qs[shared])
    inverses = inverse_mod(x, np.repeat(qs[shared], qs[shared]))
    blocks = []
    for lo in range(0, c.size, ROOT_SUM_BLOCK):
        cb = c[lo : lo + ROOT_SUM_BLOCK]
        low = cb & -cb
        passes = [(np.arange(cb.size), 4 * low)]  # the 2-part of 4c
        rest = cb // low
        idx = np.flatnonzero(rest > 1)
        while idx.size:
            n = rest[idx]
            pp = spf[n].astype(np.int64)
            q, n = pp.copy(), n // pp
            while (more := n % pp == 0).any():
                q[more] *= pp[more]
                n[more] //= pp[more]
            passes.append((idx, q))
            rest[idx] = n
            idx = idx[n > 1]
        owner, q = (np.concatenate(parts) for parts in zip(*passes))
        row, x = index[q], 4 * cb[owner] // q % q
        place, own = offset[row] + x, (offset[row] < 0).nonzero()[0]  # the unshared pairs
        place[own] = inverses.size + np.arange(own.size)
        inv = inverse_mod(x[own], q[own]).astype(np.int32)
        blocks.append((place.astype(np.int32), row[own], inv,
                       tuple(idx.astype(np.int16) for idx, _ in passes[1:])))
    g = _powmod(z, (p - 1) >> s, p)
    return _Plan(p.astype(np.int32), k.astype(np.int8), g.astype(np.int32), shared,
                 inverses.astype(np.int32), tuple(blocks))


@lru_cache(maxsize=4)
def _array_plan(c_max: int) -> _Plan:
    """_crt_plan of c = 1 .. c_max, n(q) in closed form, shared by every array of that length."""
    factors = _prime_powers(c_max)
    p, k = factors.T
    q = p**k >> 2 * (p == 2)  # q' || c
    counts = c_max // q - c_max // (p * q)
    return _crt_plan(np.arange(1, c_max + 1, dtype=np.int64), factors, counts)


def _local_root_table(a: int, plan: _Plan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square roots of a modulo each prime power p^k of the plan, sorted by value.

    Returns (q, start, roots) with q sorted and the roots of a mod q[i] in
    roots[start[i]:start[i + 1]]: +-r from _odd_roots for the odd p not
    dividing a, _sqrt_mod_prime_power for p = 2 and the p dividing a.
    """
    p, k = plan.p.astype(np.int64), plan.k.astype(np.int64)
    qs = p**k
    bulk = (p > 2) & (a % p != 0)
    odd, rest = bulk.nonzero()[0], (~bulk).nonzero()[0]
    r = _odd_roots(a, p[odd], k[odd], plan.g[odd].astype(np.int64))
    odd, r = odd[r >= 0], r[r >= 0]
    local = [_sqrt_mod_prime_power(a, *pk) for pk in zip(p[rest].tolist(), k[rest].tolist())]
    count = np.zeros(qs.size + 1, dtype=np.int64)
    count[odd + 1] = 2
    count[rest + 1] = [len(x) for x in local]
    start = np.cumsum(count)
    roots = np.empty(start[-1], dtype=np.int64)
    roots[start[odd]] = np.minimum(r, qs[odd] - r)
    roots[start[odd] + 1] = np.maximum(r, qs[odd] - r)
    for i, rs in zip(start[rest].tolist(), local):
        roots[i : i + len(rs)] = rs
    return qs, start, roots


def _local_sums(row, inv, m, table) -> np.ndarray:
    """sum over r^2 = dD mod q of w(r) e(r t / q), t = 2m inv mod q, per pair (row, inv).

    q is the prime power of the table row and inv = x^-1 mod q, x = 4c/q mod
    q: per residue of a shared row, or per pair of a block.  w(r) is the
    root's genus weight, 1 when the table carries none.
    """
    qs, start, roots, weights = table
    q = qs[row]
    t = (2 * m) % q * inv % q
    first, count = start[row], start[row + 1] - start[row]
    pair = np.repeat(np.arange(q.size), count)
    at = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(pair.size)
    qp = q[pair]
    angle = 2.0 * np.pi * (roots[at] * t[pair] % qp) / qp
    cos, sin = np.cos(angle), np.sin(angle)
    if weights is not None:
        cos *= weights[at]
        sin *= weights[at]
    return np.bincount(pair, cos, q.size) + 1j * np.bincount(pair, sin, q.size)


def _root_sums(d: int, D: int, c: np.ndarray, m: int, plan: _Plan) -> np.ndarray:
    """R(c) = sum over b mod 4c with b^2 = dD of chi_D([c,b,*]) e(mb/2c), per modulus of c.

    For m = 1 this is K+(d, D; 4c) / (2 sqrt c).  D carries the character
    when it is 1 or fundamental, else d does (each caller checks that one
    is).  chi_D is the product of (p*/n) over the prime discriminants p*
    of D, each read off any value n of the form [c, b, (b^2 - dD)/4c] prime
    to p: c itself when p does not divide c, the last coefficient when it
    does.  That last coefficient times 4c/q is (b^2 - dD)/q, with
    q = p^k || 4c, so every factor splits into a sign (p* / (c/p^v)),
    p^v || c, and, where p | c (at 2: q >= 8), a weight (p* / ((r^2 - dD)/q))
    on each square root r of dD mod q.  R(c) is the sign times the CRT
    product of the weighted local root sums, for every modulus alike.
    `plan` is the _crt_plan of c, the half that does not depend on dD; this
    call adds the table of local roots of dD at the plan's prime powers,
    their weights, the sums of the shared rows once, and the other sums
    block by block.
    """
    dd, DD = (d, D) if is_fundamental_discriminant(D) else (D, d)
    a = dd * DD
    qs, start, roots = _local_root_table(a, plan)
    sign, weights = np.ones_like(c), None
    if DD != 1:
        q = np.repeat(qs, np.diff(start))  # the modulus of each root
        weights = np.ones(roots.size)
    for ps in _prime_discriminants(DD):
        chi = np.array([kronecker(ps, r) for r in range(abs(ps))])
        p = abs(ps) if ps % 2 else 2
        cp = c.copy()
        while (div := cp % p == 0).any():
            cp[div] //= p
        sign *= chi[cp % chi.size]
        at = q % (8 if p == 2 else p) == 0  # the roots mod q = p^k with p | c
        weights[at] *= chi[(roots[at] * roots[at] - a) // q[at] % chi.size]
    table = (qs, start, roots, weights)
    shared = _local_sums(np.repeat(plan.shared, qs[plan.shared]), plan.inverses, m, table)
    out = np.empty(c.size)
    for lo, (place, row, inv, passes) in zip(range(0, c.size, ROOT_SUM_BLOCK), plan.blocks):
        own = _local_sums(row, inv, m, table)
        L = np.concatenate((shared, own))[place]
        n = L.size - sum(idx.size for idx in passes)  # the 2-parts come first
        R, at = L[:n], n
        for idx in passes:  # each later pass multiplies in its prime power's sums
            R[idx] *= L[at : at + idx.size]
            at += idx.size
        R = R * sign[lo : lo + n]
        bad = np.abs(R.imag) > KP_IMAG_TOL * np.maximum(1.0, np.abs(R.real))
        if bad.any():
            i = int(np.argmax(bad))
            raise ArithmeticError(
                f"root sum ({dd},{DD},{c[lo + i]},{m}) imaginary residue {R.imag[i]}"
            )
        out[lo : lo + n] = R.real
    return out


@lru_cache(maxsize=16)
def _root_sum_array(d: int, D: int, c_max: int, m: int) -> np.ndarray:
    """_root_sums for c = 1 .. c_max, shared through the cache and read-only."""
    _check_c_max(c_max)
    c = np.arange(1, c_max + 1, dtype=np.int64)
    out = _root_sums(d, D, c, m, _array_plan(c_max))
    out.flags.writeable = False
    return out


# sweeps repeat some K+ values: verify symmetry's d = D diagonal, and the n > 1 terms
# K+(d, (m/n)^2 D; 4c/n) of verify kloosterman's S_m identity, which repeat its n = 1
# terms at m/n and c/n; K+(D, d) is a key apart from K+(d, D), so those never share.
# m has no default, so that K+ and S_1 hit one key
@lru_cache(maxsize=4096)
def _root_sum_at(d: int, D: int, c: int, m: int) -> float:
    """_root_sums at the one modulus c, on the _crt_plan of that c alone."""
    factors = sorted(factorize(4 * c), key=lambda pk: pk[0] ** pk[1])
    c = np.array([c], dtype=np.int64)
    return float(_root_sums(d, D, c, m, _crt_plan(c, factors))[0])


def _bessel_tail_integral(nu: float, arg0: float, X: float) -> float:
    """int_X^inf J_nu(arg0 / c) / sqrt c dc = arg0^{1/2} int_0^z J_nu(u) u^{-3/2} du, z = arg0 / X.

    Needs nu > 1/2.  Up to z0 = min(z, TAIL_SERIES_SPLIT) it is the series
    sum_k (-1)^k (z0/2)^{2k+nu} z0^{-1/2} / (k! Gamma(k+nu+1) (2k+nu-1/2)), its
    (z0/2)^nu / Gamma(nu+1) taken through logs so that it cannot overflow.
    8-node Gauss-Legendre panels add the rest, pi wide, or pi t / nu at t < nu,
    where J_nu(t) rises with log-derivative below nu / t.
    """
    z = arg0 / X
    z0 = min(z, TAIL_SERIES_SPLIT)
    term, total = 1.0, 1.0 / (nu - 0.5)
    for k in range(1, 100):
        term *= -0.25 * z0 * z0 / (k * (nu + k))
        total += term / (2 * k + nu - 0.5)
        if abs(term) < 1e-17 * abs(total):
            break
    value = total * math.exp(nu * math.log(0.5 * z0) - math.lgamma(nu + 1)) / math.sqrt(z0)
    if z > z0:
        edges = [z0]
        while edges[-1] < z:
            edges.append(min(z, edges[-1] + math.pi * min(1.0, edges[-1] / nu)))
        half = 0.5 * np.diff(edges)
        x, weights = _gauss_legendre(8)
        u = (np.array(edges[:-1]) + half)[:, None] + half[:, None] * x
        value += float(half @ (bessel_J_vec(nu, u) * u**-1.5 @ weights))
    return math.sqrt(arg0) * value


def _complete_tail(terms: np.ndarray, weights: np.ndarray, tail) -> tuple[float, float, float]:
    """The sum over c >= 1 of term(c) weight(c), from the first c_max = terms.size terms.

    The terms (root sums) have a stable nonzero mean, so a bare truncation
    drifts.  The last-half empirical mean rho stands in for the missing
    terms: at each of 12 checkpoints X from c_max // 10 to c_max, the
    partial sum up to X gets rho * tail(X + 1/2), where tail(x) is the
    integral of the smooth weight from x to infinity.  Returns the mean of
    the corrected partial sums, half their spread, and rho.
    """
    c_max = terms.size
    partials = np.cumsum(terms * weights)
    rho = float(np.mean(terms[c_max // 2 :]))
    checkpoints = np.unique(np.linspace(c_max // 10, c_max, 12).astype(int))
    corrected = np.array([partials[X - 1] + rho * tail(X + 0.5) for X in checkpoints])
    spread = 0.5 * float(np.max(corrected) - np.min(corrected))
    return float(np.mean(corrected)), spread, rho


def _bessel_series(R: np.ndarray, pref: float, nu: float, arg0: float) -> tuple[float, float, float]:
    """_complete_tail of the terms R against the weight pref J_nu(arg0 / c) / sqrt c."""
    cs = np.arange(1, R.size + 1, dtype=float)
    weights = pref * bessel_J_vec(nu, arg0 / cs) / np.sqrt(cs)
    return _complete_tail(R, weights, lambda x: pref * _bessel_tail_integral(nu, arg0, x))


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
    value, spread, rho = _bessel_series(R, pref, 2 * s - 1, math.pi * math.sqrt(dD))
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
        _check_route(f"b({d}, {D}, s)", d, D)
        return _b_series_bessel(d, D, s, _root_sum_array(d, D, c_max, 1))
    if dD == 0 and d + D != 0:
        n = d + D
        if n < 0 or n % 4 not in (0, 1):
            raise ValueError(f"degenerate case needs d + D = 0, 1 mod 4 > 0, got {n}")
        _check_fundamental_part("d" if d else "D", n)
        pref = 2.0 ** (-4 * s) * math.pi ** (s + 0.25) * n ** (s - 0.25)
        value = 4.0 * pref * _dirichlet_T(n, 2 * s - 0.5)
        return SeriesValue(value, c_max, s, 1e-12 * abs(value), {"case": "degenerate"})
    if d == 0 and D == 0:
        pref = 2.0 ** (0.5 - 6 * s) * math.sqrt(math.pi) * gamma_real(2 * s)
        # c = k^2 terms only: K+(0,0;4k^2) = 4 k phi(k)
        value = 4.0 * pref * zeta_real(4 * s - 2) / zeta_real(4 * s - 1)
        return SeriesValue(value, c_max, s, 1e-12 * abs(value), {"case": "zero"})
    raise ValueError(f"b_series is undefined for dD < 0, got d={d}, D={D}")


def coeff_a(d: int, D: int, c_max: int | None = None) -> SeriesValue:
    """The coefficient a(d, D) by extrapolating s -> 3/4 from the right.

    Evaluates F(s) = (dD)^{-1/2} (b(d,D,s) - b(d,0,s) b(0,D,s) / b(0,0,s))
    at s = 3/4 + delta over DELTA_GRID, each delta summed to its own c_max
    or to the one c_max given, and extrapolates to delta = 0 in the basis
    {1, delta, delta^{3/2}}; the half-integer exponent matches the observed
    approach rate and calibrates against the geometric-side traces.
    The reported tail folds in the disagreement with a plain quadratic fit
    as the extrapolation-model uncertainty.
    """
    if d <= 0 or D <= 0 or d % 4 not in (0, 1) or D % 4 not in (0, 1):
        raise ValueError(f"coeff_a needs positive d, D = 0, 1 mod 4, got d={d}, D={D}")
    _check_route(f"a({d}, {D})", d, D)
    _check_fundamental_part("d", d)
    _check_fundamental_part("D", D)
    grid = DELTA_GRID if c_max is None else [(delta, c_max) for delta, _ in DELTA_GRID]
    c_max = max(cm for _, cm in grid)
    _check_series_c_max(c_max)
    # R(c) does not depend on s: one array at the largest c_max serves every
    # delta through its prefix
    R = _root_sum_array(d, D, c_max, 1)
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
    return SeriesValue(value, c_max, 0.75, tail, {"deltas": xs, "F_values": ys})


# ----------------------------------------------------------------------
# spectral sides of the trace identities
# ----------------------------------------------------------------------


def prop1_rhs(d: int, D: int, m: int, s: float, c_max: int = 10_000) -> SeriesValue:
    """The Kloosterman-Bessel series side of the trace identity for G_{m,Q}."""
    if d <= 0 or D <= 0:
        raise ValueError(f"prop1_rhs needs d, D > 0, got d={d}, D={D}")
    if s <= 1:
        raise ValueError(f"prop1_rhs requires s > 1, got {s}")
    _check_s_m_args(m, d, D)
    _check_series_c_max(c_max)
    dD = d * D
    sm = _root_sum_array(d, D, c_max, m)  # S_m(d, D; 4c) for every c
    if m > 0:
        pref = math.pi / math.sqrt(2) * math.sqrt(m) * dD**0.25
        value, spread, rho = _bessel_series(sm, pref, s - 0.5, math.pi * m * math.sqrt(dD))
    else:
        pref = 2.0 ** (-s - 1) * dD ** (s / 2)
        weights = pref * np.arange(1, c_max + 1, dtype=float) ** (-s)
        value, spread, rho = _complete_tail(sm, weights, lambda x: pref * x ** (1 - s) / (s - 1))
    return SeriesValue(value, c_max, s, spread, {"m": m, "rho": rho})


def thm2_rhs(d: int, D: int, m: int) -> SeriesValue:
    """The divisor-sum side: sum over n | m of (D/(m/n)) n a(n^2 D, d)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if d <= 0 or D <= 0:
        raise ValueError(f"thm2_rhs needs d, D > 0, got d={d}, D={D}")
    if not (D == 1 or is_fundamental_discriminant(D)):
        raise ValueError(f"D must be fundamental, got {D}")
    terms = [(n, ch) for n in divisors(m) if (ch := kronecker(D, m // n))]
    for n, _ in terms:  # every coefficient needs a route, checked before the first root sum
        _check_route(f"a({n * n * D}, {d})", n * n * D, d)
    total = 0.0
    tail = 0.0
    for n, ch in terms:
        a = coeff_a(n * n * D, d)
        total += ch * n * a.value
        tail += n * a.tail_estimate
    # n = m always contributes, as (D/1) = 1
    return SeriesValue(total, a.c_max, 0.75, tail, {"m": m})
