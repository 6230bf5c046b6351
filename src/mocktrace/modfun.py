"""The Faber basis j_m, its q-expansions, and cusp-stable evaluation.

j_0 = 1, j_1 = j - 744, and for m >= 2 the unique modular function
q^-m + O(q).  Exact integer expansions: j's from one recurrence on the
Eisenstein series E4 and E6, j_m's as the Hecke image of j_1.
Evaluation anywhere on the upper half-plane goes through fundamental-domain
reduction; the cusp-corrected functions j_{m,Q} (square discriminant Q)
subtract one sinh-type term per root of Q and are evaluated with the
exponentially large parts cancelled analytically near the cusps.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from functools import lru_cache

from .arith import divisors, sigma_real
from .qform import QuadForm, UnimodularMatrix, cusp_matrix

__all__ = [
    "jm_coeffs",
    "eval_jm",
    "eval_jmQ",
]

N_DEFAULT = 48
N_MAX = 64
M_MAX = 10

# Above this imaginary part of a cusp-scaled point, j_{m,Q} is evaluated in
# grouped form (the e^{2 pi m v} parts cancelled symbolically).
V_STAR = 2.0

REDUCE_MAX_ITER = 10_000

CUT_BITS = 62  # eval_jm drops the terms of j_m's series below 2^-CUT_BITS of its q^-m term


def _horner(coeffs, q: complex, lead: int) -> complex:
    """sum_k coeffs[k] q^(lead + k): Horner from the highest power down, then q^lead."""
    total = 0.0 + 0.0j
    for c in reversed(coeffs):
        total = total * q + c
    return total * q**lead


# j's coefficient c(k - 1) beside E4's and E6's e4(k) and e6(k), one row per k, grown by whole
# rows: an interrupted extension leaves a shorter prefix, never misaligned columns
_j_rows: list[tuple[int, int, int]] = [(1, 1, 1)]


def _j_int_coeffs(N: int) -> tuple[int, ...]:
    """Exact integer coefficients c(-1), c(0), ..., c(N) of the j-invariant.

    From q dj/dq = -(E6/E4) j, with e4(i) = 240 sigma_3(i) and e6(i) = -504 sigma_5(i):
    (n + 1) c(n) = -sum_{i=1}^{n+1} (e4(i) (n - i) + e6(i)) c(n - i), an exact division.
    """
    for k in range(len(_j_rows), N + 2):  # row k holds c(n), n = k - 1
        e4, e6 = 240 * sigma_real(k, 3), -504 * sigma_real(k, 5)
        rest = sum((_j_rows[i][1] * (k - 1 - i) + _j_rows[i][2]) * _j_rows[k - i][0]
                   for i in range(1, k))
        _j_rows.append((-(e6 - e4 + rest) // k, e4, e6))  # i = k: (e4 (-1) + e6) c(-1)
    return tuple(row[0] for row in _j_rows[: N + 2])


def _jm_int_coeffs(m: int, N: int) -> tuple[int, ...]:
    """Exact coefficients of j_m from q^-m through q^N (length m + N + 1).

    j_m = q^-m + O(q) is the Hecke image of j_1: c_m(n) = sum_{k | gcd(m, n)} (m/k) c(mn/k^2).
    No range check here: jm_coeffs validates (m, N).
    """
    c = _j_int_coeffs(m * N)  # c[n + 1] is the q^n coefficient of j
    tail = (sum(m // k * c[m * n // k**2 + 1] for k in divisors(math.gcd(m, n)))
            for n in range(1, N + 1))
    return (1,) + (0,) * m + tuple(tail)


@lru_cache(maxsize=None)
def _jm_floats(m: int, N: int) -> tuple[float, ...]:
    """The coefficients of j_m from q^-m through q^N as floats, (m, N) validated."""
    if m < 0 or m > M_MAX:
        raise ValueError(f"m must be in [0, {M_MAX}], got {m}")
    if N < 1 or N > N_MAX:
        raise ValueError(f"N must be in [1, {N_MAX}], got {N}")
    return tuple(float(c) for c in _jm_int_coeffs(m, N))


def jm_coeffs(m: int, N: int) -> list[float]:
    """The coefficients of j_m from q^-m through q^N, m <= M_MAX, N <= N_MAX, as a new list."""
    return list(_jm_floats(m, N))


def _reduce(tau: complex) -> tuple[int, int, int, int]:
    """Entries (a, b, c, d) of the gamma that moves tau to the fundamental domain."""
    if tau.imag <= 0:
        raise ValueError(f"tau must be in the upper half-plane, got {tau}")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(REDUCE_MAX_ITER):
        n = round(tau.real)
        if n != 0:  # translation(-n) @ gamma
            tau -= n
            a, b = a - n * c, b - n * d
        norm = tau.real * tau.real + tau.imag * tau.imag
        if norm >= 1.0 - 1e-12:
            return a, b, c, d
        tau = -1.0 / tau
        a, b, c, d = -c, -d, a, b  # S @ gamma
    raise RuntimeError("fundamental-domain reduction did not terminate")


@lru_cache(maxsize=None)
def _cut_table(m: int) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """(-h[K], coeffs[:K + 1]) for each K, with coeffs = _jm_floats(m, N_DEFAULT) from q^-m.

    h[K] = max over k > K of (ln|coeffs[k]| + CUT_BITS ln 2) / (2 pi k): from Im tau0 = h[K] on,
    the at most 58 terms past coeffs[K] are each below 2^-CUT_BITS |q|^-m, so together under
    2^-56 |q|^-m, below Horner's own rounding.  -h ascends, for bisect.
    """
    coeffs = _jm_floats(m, N_DEFAULT)
    levels = [(math.log(abs(c)) + CUT_BITS * math.log(2)) / (2 * math.pi * k) if c else -math.inf
              for k, c in enumerate(coeffs[1:], 1)]  # levels[k - 1] belongs to coeffs[k]
    neg_h = tuple(-max(levels[K:], default=-math.inf) for K in range(len(coeffs)))
    return neg_h, tuple(coeffs[: K + 1] for K in range(len(coeffs)))


def eval_jm(m: int, tau: complex) -> complex:
    """Evaluate j_m on the upper half-plane via fundamental-domain reduction, cut by _cut_table."""
    if m == 0:
        return 1.0 + 0.0j
    a, b, c, d = _reduce(tau)
    tau0 = (a * tau + b) / (c * tau + d)  # UnimodularMatrix.moebius
    q = cmath.exp(2j * math.pi * tau0)
    neg_h, prefixes = _cut_table(m)
    return _horner(prefixes[bisect_left(neg_h, -tau0.imag)], q, -m)


@lru_cache(maxsize=1024)
def _cusp_gammas(Q: QuadForm) -> tuple[UnimodularMatrix, ...]:
    """The cusp matrices of the roots of Q; Q.roots() rejects a nonsquare Q."""
    return tuple(cusp_matrix(p, q) for (p, q) in Q.roots())


def _cusp_term(m: int, w: complex) -> complex:
    """2 sinh(2 pi m Im w) e(-m Re w)."""
    return 2.0 * math.sinh(2.0 * math.pi * m * w.imag) * cmath.exp(-2j * math.pi * m * w.real)


def eval_jmQ(m: int, Q: QuadForm, tau: complex) -> complex:
    """The cusp-corrected function j_{m,Q} at tau, for Q of square discriminant.

    Subtracts, for each root alpha of Q, the term
    2 sinh(2 pi m Im(gamma_alpha tau)) e(-m Re(gamma_alpha tau)).
    When Im(gamma_alpha tau) > V_STAR the difference is formed analytically:
    with w = gamma_alpha tau, Gamma-invariance gives j_m(tau) = j_m(w), and
    j_m(w) - 2 sinh(2 pi m Im w) e(-m Re w) = e(-m conj(w)) + sum_{n>0} c_m(n) e(n w),
    so only exponentially small summands are ever combined.
    Along the geodesic of Q = [0, 1, 0] this gives
    j_{m,Q}(iy)/y = -2 sinh(2 pi m y)/y + O(e^{-2 pi/y}), which tends to -4 pi m
    as y -> 0.
    """
    if m < 1 or m > M_MAX:
        raise ValueError(f"m must be in [1, {M_MAX}], got {m}")
    if tau.imag <= 0:
        raise ValueError(f"tau must be in the upper half-plane, got {tau}")
    ws = [g.moebius(tau) for g in _cusp_gammas(Q)]
    vmax = max(w.imag for w in ws)
    if vmax > V_STAR:
        i_big = max(range(len(ws)), key=lambda i: ws[i].imag)
        w = ws[i_big]
        q_series = _horner(_jm_floats(m, N_DEFAULT)[m + 1 :], cmath.exp(2j * math.pi * w), 1)
        total = cmath.exp(-2j * math.pi * m * w.conjugate()) + q_series
        for i, wi in enumerate(ws):
            if i != i_big:
                total -= _cusp_term(m, wi)
        return total
    total = eval_jm(m, tau)
    for w in ws:
        total -= _cusp_term(m, w)
    return total
