"""Truncated Poincare series G_m(tau, s) and their cycle integrals.

Everything here lives in the region of absolute convergence s > 1, where
the series can be summed directly over a box of cosets of Gamma_inf in
PSL_2(Z).  The modified series G_{m,Q} drops the two cosets attached to
the roots of a square-discriminant form, which is what makes its
cusp-to-cusp cycle integral finite; prop1_lhs assembles those integrals
into the geometric side of the trace identity.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import bessel_I_vec, gamma_real, inverse_mod
from .qform import QuadForm, apply, chi_D, classes_square, cusp_matrix

__all__ = [
    "prop1_lhs",
    "B_factor",
]

BOUND_DEFAULT_S2 = 300
BOUND_DEFAULT_S15 = 1500
# peak memory grows as bound^2: about 0.3 GB at 1,500 and 0.7-0.85 GB here
BOUND_LIMIT = 2500

# rays run in t = log y: a nested Clenshaw-Curtis rule of up to RAY_NODE_CAP nodes, to RAY_TOL
# relative, then a power tail K y^{1-s} + L y^{-s} fitted at the endpoint.  y_max stays well
# below the coset bound so the box still resolves the c = 1 row at the largest heights sampled.
Y_MAX_FRACTION = 6.0
RAY_TOL = 1e-9
RAY_NODE_CAP = 513


@lru_cache(maxsize=4)
def _coset_arrays(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bottom rows and top-left entries as read-only arrays (C, D, A), identity first.

    After the identity (0, 1), the order is c ascending, then d ascending,
    over coprime (c, d) with 1 <= c <= bound and |d| <= bound.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    c = np.arange(1, bound + 1, dtype=np.int64)[:, None]
    d = np.arange(-bound, bound + 1, dtype=np.int64)[None, :]
    coprime = np.gcd(c, d) == 1
    C = np.concatenate(([0], np.broadcast_to(c, coprime.shape)[coprime]))
    D = np.concatenate(([1], np.broadcast_to(d, coprime.shape)[coprime]))
    A = np.concatenate(([1], inverse_mod(D[1:], C[1:])))
    for arr in (C, D, A):
        arr.flags.writeable = False
    return C, D, A


def B_factor(s: float) -> float:
    """B(s) = 2^s Gamma(s/2)^2 / Gamma(s)."""
    return 2.0**s * gamma_real(s / 2) ** 2 / gamma_real(s)


def _phi_vec(m: int, s: float, y: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The test function phi_{m,s} into out: y^s for m = 0, the I-Bessel expression otherwise.

    y and work, both the shape of out, are overwritten as scratch.
    """
    if m == 0:
        return np.power(y, s, out=out)
    am = abs(m)
    # the Bessel argument is read off y before sqrt(y) takes its place
    arg = np.multiply(2 * math.pi * am, y, out=work)
    np.sqrt(y, out=y)
    y *= 2 * math.pi * math.sqrt(am)
    return np.multiply(bessel_I_vec(s - 0.5, arg, out=out, work=arg), y, out=out)


def _normalize_bottom(c: int, d: int) -> tuple[int, int]:
    if c < 0 or (c == 0 and d < 0):
        c, d = -c, -d
    return c, d


def _kept_cosets(bound: int, excluded: frozenset, half: bool) -> tuple[np.ndarray, ...]:
    """Float (C, D, frac(A/C)) over the box or its d >= 0 half, minus `excluded`."""
    C, D, A = _coset_arrays(bound)
    keep = D >= 0 if half else np.ones(len(C), dtype=bool)
    for cd in excluded:
        keep &= ~((C == cd[0]) & (D == cd[1]))
    C, D, A = C[keep].astype(float), D[keep].astype(float), A[keep]
    # a/c contributes only mod 1, so a float quotient of a in [0, c) is exact enough
    return C, D, np.divide(A, C, out=np.zeros_like(C), where=C > 0)


# one entry each: a quadrature ray evaluates all its nodes against one excluded
# set, and the vertical rays of prop1_lhs use only the folded geometry
@lru_cache(maxsize=1)
def _coset_geometry(bound: int, excluded: frozenset) -> tuple[np.ndarray, ...]:
    """Node-independent parts of the coset sum: float (C, D, 1/C, frac(A/C)), 1/C = 0 at c = 0."""
    C, D, frac = _kept_cosets(bound, excluded, half=False)
    inv_c = np.divide(1.0, C, out=np.zeros_like(C), where=C > 0)
    for arr in (C, D, inv_c, frac):
        arr.flags.writeable = False
    return C, D, inv_c, frac


@lru_cache(maxsize=1)
def _folded_geometry(bound: int, excluded: frozenset) -> tuple[np.ndarray, ...]:
    """The d >= 0 half: float (C^2, D^2, D/C, frac(A/C)), D/C = 0 at c = 0.

    Also the positions of the cosets that are their own mirror image: the
    identity and (1, 0)."""
    C, D, frac = _kept_cosets(bound, excluded, half=True)
    self_mirror = np.flatnonzero((C == 0) | (D == 0))
    d_over_c = np.divide(D, C, out=np.zeros_like(C), where=C > 0)
    C *= C
    D *= D
    for arr in (C, D, d_over_c, frac, self_mirror):
        arr.flags.writeable = False
    return C, D, d_over_c, frac, self_mirror


# Scratch rows shared by the folded and full coset sums, grown only for a larger
# kept box.  Single-threaded by design: two concurrent sums would share rows.
_rows = np.empty((4, 0))


def _workspace(n: int) -> np.ndarray:
    """Four float rows of length n, views into the shared scratch block."""
    global _rows
    if _rows.shape[1] < n:
        _rows = np.empty((4, n))
    return _rows[:, :n]


def _folded_sum(m: int, y: float, s: float, bound: int, excluded: frozenset) -> complex:
    """_sum_over_cosets at tau = iy for a mirror-closed excluded set.

    (c, d) and (c, -d) have the same |c tau + d|^2, and with a' = c - a
    their m Re(gamma tau) are opposite mod 1, so their terms are complex
    conjugates: the sum is real, and each coset with c, d > 0 stands for
    its pair with weight 2.
    """
    C2, D2, d_over_c, frac, self_mirror = _folded_geometry(bound, excluded)
    n2, height, work, phi = _workspace(len(C2))
    np.multiply(C2, y * y, out=n2)
    n2 += D2
    _phi_vec(m, s, np.divide(y, n2, out=height), phi, work)
    if m == 0:
        return complex(2.0 * np.sum(phi) - np.sum(phi[self_mirror]), 0.0)
    # Re(gamma tau) = a/c - d / (c n2), reduced as in the full box
    u = np.divide(d_over_c, n2, out=n2)
    np.subtract(frac, u, out=u)
    u *= m
    u -= np.rint(u, out=work)
    u *= 2 * math.pi
    cos = np.cos(u, out=u)
    total = 2.0 * np.dot(phi, cos) - np.dot(phi[self_mirror], cos[self_mirror])
    return complex(total, 0.0)


def _sum_over_cosets(
    m: int, tau: complex, s: float, bound: int, excluded: frozenset[tuple[int, int]] = frozenset()
) -> complex:
    """G_m(tau, s) on max(|c|, |d|) <= bound less `excluded`; G_{m,Q} with _excluded_bottoms(Q)."""
    excluded = frozenset(excluded)
    if tau.real == 0 and all(_normalize_bottom(c, -d) in excluded for c, d in excluded):
        return _folded_sum(m, tau.imag, s, bound, excluded)
    C, D, inv_c, frac = _coset_geometry(bound, excluded)
    u, n2, height, phi = _workspace(len(C))
    x, y = tau.real, tau.imag
    # u = Re(c tau + d) and n2 = |c tau + d|^2, so Im(gamma tau) = y / n2
    np.multiply(C, x, out=u)
    u += D
    np.multiply(C, y, out=n2)
    n2 *= n2
    n2 += np.multiply(u, u, out=height)
    np.divide(y, n2, out=height)
    if m == 0:
        return complex(np.sum(_phi_vec(m, s, height, phi, n2)))
    # Re(gamma tau) = a/c - u / (c n2) for c > 0, and Re(tau) on the identity
    u /= n2
    u *= inv_c
    np.subtract(frac, u, out=u)
    if C[0] == 0:
        u[0] = x
    # only m Re(gamma tau) mod 1 matters; reducing it to [-1/2, 1/2] is
    # exact and keeps cos/sin on their fastest argument range
    u *= m
    u -= np.rint(u, out=n2)
    u *= 2 * math.pi
    _phi_vec(m, s, height, phi, n2)
    return complex(np.dot(phi, np.cos(u, out=n2)), -np.dot(phi, np.sin(u, out=u)))


def _excluded_bottoms(Q: QuadForm) -> frozenset[tuple[int, int]]:
    # the coset fixing the root alpha = r/s has bottom row prop. to (s, -r)
    return frozenset(_normalize_bottom(q, -p) for (p, q) in Q.roots())


def _clenshaw_curtis(f, lo: float, hi: float) -> tuple[complex, float, float, np.ndarray]:
    """Nested Clenshaw-Curtis rule: (integral over [lo, hi], gap, tol, f at the nodes).

    Level n samples t_k = hi - (hi - lo) sin^2(k pi / 2n), k = 0 .. n: its first
    node is hi itself, and doubling n keeps every node.  From 9 nodes n doubles
    until the last two levels agree to tol = RAY_TOL * max(1, integral of |f|),
    or up to RAY_NODE_CAP nodes; gap is their difference.
    """
    n, fx, prev = 1, np.array([f(hi), f(lo)]), 0j
    while True:
        n *= 2
        t = hi - (hi - lo) * np.sin(np.pi / (2 * n) * np.arange(1, n, 2)) ** 2
        fx = np.insert(fx, range(1, n // 2 + 1), [f(x) for x in t])
        # the weights' cosine series, with jk reduced mod n to keep each argument exact
        j = np.arange(1, n // 2 + 1)
        c = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
        w = (hi - lo) / n * (1.0 - c @ np.cos(2 * np.pi / n * (np.outer(j, np.arange(n + 1)) % n)))
        w[::n] *= 0.5
        value, tol = complex(w @ fx), RAY_TOL * max(1.0, float(w @ np.abs(fx)))
        if n > 8 and ((gap := abs(value - prev)) <= tol or n + 1 >= RAY_NODE_CAP):
            return value, gap, tol, fx
        prev = value


def _ray_integral(
    m: int, Q: QuadForm, beta: float, y0: float, s: float, bound: int, y_max: float
) -> tuple[complex, float]:
    """int_{y0}^inf G_{m,Q}(beta + iy, s) dy/y for a form with a = 0.

    Returns (value, err_estimate).  Up to y_max the integral runs in
    t = log y by _clenshaw_curtis.  Past y_max the integrand falls off like
    K y^{1-s} plus a y^{-s} correction (the removed root coset at infinity
    contributes exactly -y^{-s}); both coefficients are fitted at y_max, the
    rule's first node, and y_max / 2, and the tail is completed analytically.
    err_estimate is the rule's gap, at least RAY_TOL, plus the two-term
    tail's distance from the one-term tail.  Raises ArithmeticError when the
    gap exceeds the rule's tol (at the node cap) or the value, as at large m,
    where coset terms of size exp(2 pi m Im(gamma tau)) cancel past double
    precision.
    """
    excluded = _excluded_bottoms(Q)

    def f(t: float) -> complex:
        return _sum_over_cosets(m, complex(beta, math.exp(t)), s, bound, excluded)

    total, gap, tol, fx = _clenshaw_curtis(f, math.log(y0), math.log(y_max))
    if gap > min(tol, abs(total)):
        raise ArithmeticError(
            f"the ray from {complex(beta, y0):.6g} at m={m}, s={s}, bound={bound} is unresolved: "
            f"error {gap:.2g} against a value of {abs(total):.2g} in {len(fx)} nodes (cap "
            f"{RAY_NODE_CAP}); try a smaller m")
    # two-point fit of f = K y^{1-s} + L y^{-s} at y_max and y_max / 2
    y2 = y_max / 2.0
    f1, f2 = complex(fx[0]), f(math.log(y2))
    det = y_max ** (1 - s) * y2 ** (-s) - y2 ** (1 - s) * y_max ** (-s)
    K = (f1 * y2 ** (-s) - f2 * y_max ** (-s)) / det
    L = (f2 * y_max ** (1 - s) - f1 * y2 ** (1 - s)) / det
    tail = K * y_max ** (1 - s) / (s - 1) + L * y_max ** (-s) / s
    one_term_tail = f1 / (s - 1)
    err = abs(tail - one_term_tail) + max(gap, RAY_TOL)
    return total + tail, err


def _split_ray_integral(
    m: int, Q: QuadForm, s: float, bound: int, y_max: float
) -> tuple[float, float]:
    """Cusp-to-cusp cycle integral of G_{m,Q} dtau_Q for a != 0.

    The path from alpha_plus to alpha_minus is split at the apex, and each
    half is straightened by the cusp scaling matrix: with Q' = gamma Q the
    series satisfies G_{m,Q'}(gamma tau) = G_{m,Q}(tau) and dtau_Q is
    invariant, so each half becomes a vertical ray where the coset box
    converges uniformly in height.
    """
    rt = math.isqrt(Q.disc)
    apex = complex(-Q.b / (2 * Q.a), rt / (2 * abs(Q.a)))
    total = 0.0 + 0.0j
    err = 0.0
    # dtau_{Q'} = (sqrt(disc)/b') dy/y on the upward ray; the alpha_plus
    # half, listed first by Q.roots(), runs apex -> cusp reversed, hence the sign
    for sign, (p, q) in zip((-1.0, 1.0), Q.roots()):
        gam = cusp_matrix(p, q)
        Qp = apply(gam, Q)
        w0 = gam.moebius(apex)
        val, e = _ray_integral(m, Qp, w0.real, w0.imag, s, bound, y_max)
        total += sign * (rt / Qp.b) * val
        err += abs(rt / Qp.b) * e
    return total.real, err + abs(total.imag)


def prop1_lhs(d: int, D: int, m: int, s: float, bound: int | None = None) -> tuple[float, float]:
    """Geometric side: sum over classes of chi_D(Q)/B(s) times the cycle integral.

    Returns (value, err_estimate).  Vertical-line representatives (a = 0)
    use the symmetrized integral with a fitted power tail; a != 0
    representatives go through _split_ray_integral, which straightens each
    half of the geodesic into a vertical ray by a cusp scaling matrix.
    Raises ArithmeticError when err_estimate exceeds |value|, the bar each
    ray meets on its own.
    """
    if d <= 0 or D <= 0:
        raise ValueError(f"prop1_lhs needs d, D > 0, got d={d}, D={D}")
    dD = d * D
    if math.isqrt(dD) ** 2 != dD:
        raise ValueError(f"prop1_lhs needs a positive square dD, got {dD}")
    if not 1.25 <= s <= 3:
        raise ValueError(f"s must lie in [1.25, 3], got {s}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if bound is None:
        bound = BOUND_DEFAULT_S15 if s < 1.75 else BOUND_DEFAULT_S2
    if bound > BOUND_LIMIT:
        raise ValueError(f"bound must be at most {BOUND_LIMIT} (memory ~ bound^2), got {bound}")
    y_max = max(20.0, bound / Y_MAX_FRACTION)
    total = 0.0
    err = 0.0
    for Q in classes_square(dD).reps:
        ch = chi_D(D, Q)
        if ch == 0:
            continue
        if Q.a == 0:  # 2 int_1^inf G_{m,Q}(iy, s) dy/y, by the symmetry y -> 1/y
            val, e = _ray_integral(m, Q, 0.0, 1.0, s, bound, y_max)
            val, e = 2.0 * val.real, 2.0 * e
        else:
            val, e = _split_ray_integral(m, Q, s, bound, y_max)
        total += ch * val
        err += e
    Bs = B_factor(s)
    # crude box-truncation heuristic on top of the quadrature error
    value, err = total / Bs, err / Bs + 10.0 * bound ** (2 - 2 * s)
    if err > abs(value):  # the classes cancel below the error, as rays of size 1e8 can
        advice = "try a smaller m" if m > 1 else "the classes may cancel to zero at this m"
        raise ArithmeticError(f"the class sum at m={m}, s={s}, bound={bound} is unresolved: "
                              f"{value:.4g} against an error of {err:.2g}; {advice}")
    return value, err
