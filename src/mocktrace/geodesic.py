"""The trace integrals attached to quadratic forms.

`trace` routes Tr_{d,D}(j_m) by the discriminant of the twisted family to one
of three regimes: CM point sums (negative), closed-geodesic cycle integrals
(positive nonsquare), and convergent cusp-to-cusp integrals of the corrected
functions j_{m,Q} (positive square).  Each is one sum over classes of
chi_D(Q) times a value per class.  A geodesic S_Q with a != 0 is the
semicircle c0 + r e^{i theta} and is integrated over theta; the a = 0
representative of a square discriminant is the line Re tau = 0, integrated
over t = log Im tau.  All quadrature is adaptive Gauss-Kronrod via scipy.
Each cusp-to-cusp integral is memoized per process on m and the primitive
form, exactly: j_{m,Q} and sqrt(disc) dtau/Q(tau, 1) see only the roots of Q,
and with sqrt(disc) an integer, kQ rounds to the same centre and radius.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

from .arith import pell_fundamental
from .modfun import M_MAX, N_DEFAULT, eval_jm, eval_jmQ
from .qform import (
    ClassList,
    QuadForm,
    UnimodularMatrix,
    apply,
    automorph_generator,
    chi_D,
    classes_negative,
    classes_nonsquare,
    classes_square,
)

__all__ = [
    "TraceResult",
    "cycle_integral_closed",
    "trace",
    "trace_negative",
    "trace_nonsquare",
    "trace_square",
]

QUAD_TOL = 1e-9
QUAD_LIMIT = 400

# Cusp-to-cusp semicircles are sampled on the open range (eps, pi - eps);
# the clipped remainder is bounded by the finite endpoint limit times eps.
THETA_EPS = 1e-6

# Vertical-line truncation: the integrand decays like e^{-t}, so T = 30
# leaves a tail below 4 pi m e^-30 ~ 1e-12 for the m in range.
T_VERTICAL = 30.0

IMAG_RESIDUE_TOL = 1e-8

# CM sums have no quadrature error, only rounding in j_m(tau_Q), so their
# imaginary residue is bounded relative to the summed magnitudes.
CM_IMAG_RESIDUE_REL = 1e-12
LOG_DBL_MAX = 1024 * math.log(2)  # and each j_m(tau_Q) must stay below DBL_MAX ~ 2^1024


@dataclass
class TraceResult:
    value: float
    d: int
    D: int
    m: int
    method: str
    err_estimate: float
    params: dict = field(default_factory=dict)


def _check_m_twist(m: int, lowest: int, d: int, D: int) -> None:
    """m in the regime's [lowest, M_MAX], then d and D each 0 or 1 mod 4."""
    if not lowest <= m <= M_MAX:
        raise ValueError(f"m must be in [{lowest}, {M_MAX}], got {m}")
    for name, v in (("d", d), ("D", D)):
        if v % 4 not in (0, 1):
            raise ValueError(f"{name} = {v} is not congruent to 0 or 1 mod 4")


def _check_overflow(name: str, d: int, D: int, m: int, where: str) -> None:
    """Refuse pi m sqrt|dD| > ln(DBL_MAX): ln|j_m| at the principal tau_Q or cycle apex."""
    if (log_j := math.pi * m * math.sqrt(abs(d * D))) > LOG_DBL_MAX:
        raise ValueError(f"{name}(d={d}, D={D}, m={m}): j_m overflows a double {where}, "
                         f"pi m sqrt|dD| = {log_j:.2f} > ln(DBL_MAX) = {LOG_DBL_MAX:.2f}")


def _quad_complex(f: Callable[[float], complex], a: float, b: float):
    """int_a^b f as two real quad passes over one integrand memoized on the node.

    Returns the integral, the sum of the passes' abserr and the memoized
    integrand.  (quad's complex_func option is avoided: it loses the sign of
    reversed limits, and closed cycles run from pi/2 down to the angle of
    the automorph image of the apex.)
    """
    from scipy.integrate import quad  # here, so that only the routes that integrate load it
    memo: dict[float, complex] = {}

    def g(x: float) -> complex:
        v = memo.get(x)
        if v is None:
            v = memo[x] = f(x)
        return v

    re, re_err = quad(lambda x: g(x).real, a, b, epsabs=QUAD_TOL, limit=QUAD_LIMIT)
    im, im_err = quad(lambda x: g(x).imag, a, b, epsabs=QUAD_TOL, limit=QUAD_LIMIT)
    return complex(re, im), re_err + im_err, g


def cycle_integral_closed(
    Q: QuadForm, integrand: Callable[[complex], complex]
) -> tuple[complex, float]:
    """One period of the cycle integral of integrand * dtau / Q(tau, 1), and quad's abserr.

    The discriminant must be positive and nonsquare.  The path runs along
    the semicircle S_Q from the apex to its image under the automorph, on
    which d tau / Q(tau, 1) = sign(a) dtheta / (sqrt(d) sin theta); the
    abserr is on the same scale as the integral.
    """
    d = Q.disc
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise ValueError(f"closed cycles need a positive nonsquare discriminant, got {d}")
    c0 = -Q.b / (2 * Q.a)
    end = automorph_generator(Q).moebius(complex(c0, math.sqrt(d) / (2 * abs(Q.a))))
    # end lies on the same semicircle, so its angle is in (0, pi)
    total, abserr, _ = _semicircle_integral(
        Q, integrand, math.pi / 2, math.atan2(end.imag, end.real - c0)
    )
    return total / math.sqrt(d), abserr / math.sqrt(d)


def _semicircle_integral(Q: QuadForm, f, th0: float, th1: float):
    """sign(a) int_th0^th1 f(c0 + r e^{i theta}) dtheta / sin(theta) along S_Q.

    Returns the integral, quad's abserr and the memoized theta-integrand
    (without the sign).
    """
    c0 = -Q.b / (2 * Q.a)
    r = math.sqrt(Q.disc) / (2 * abs(Q.a))
    total, abserr, g = _quad_complex(
        lambda theta: f(complex(c0 + r * math.cos(theta), r * math.sin(theta))) / math.sin(theta),
        th0,
        th1,
    )
    return (1 if Q.a > 0 else -1) * total, abserr, g


def trace(d: int, D: int, m: int, route: str = "vertical") -> TraceResult:
    """Tr_{d,D}(j_m) in the regime set by the sign and squareness of dD (route: square dD only)."""
    dD = d * D
    if dD < 0:
        return trace_negative(d, D, m)
    if dD == 0:
        raise ValueError("d * D must be nonzero")
    if math.isqrt(dD) ** 2 == dD:
        return trace_square(d, D, m, route=route)
    return trace_nonsquare(d, D, m)


def _class_sum(cl: ClassList, D: int, value) -> tuple[complex, float, float]:
    """sum chi_D(Q)/|Gamma_Q| v_Q, sum |summand| and sum err_Q over Q with chi_D(Q) != 0.

    value(Q) is (v_Q, err_Q); |Gamma_Q| is 1 unless cl has stabilizer orders (CM).
    """
    total, scale, err = 0.0 + 0.0j, 0.0, 0.0
    for Q, order in zip(cl.reps, cl.stab_orders or [1] * len(cl.reps)):
        ch = chi_D(D, Q)
        if ch == 0:
            continue
        v, e = value(Q)
        term = ch / order * v
        total += term
        scale += abs(term)
        err += e
    return total, scale, err


def _checked(name, d, D, m, total: complex, residue_tol, method, err, **params) -> TraceResult:
    """The trace total.real, once the imaginary residue of total is within residue_tol."""
    if abs(total.imag) > residue_tol:
        raise ArithmeticError(f"imaginary residue {total.imag} in {name}({d},{D},{m})")
    return TraceResult(total.real, d, D, m, method, err, params)


def trace_negative(d: int, D: int, m: int) -> TraceResult:
    """The CM trace (1/sqrt(D)) sum chi_D(Q)/|Gamma_Q| j_m(tau_Q) over classes."""
    if d >= 0 or D <= 0 or d * D >= 0:
        raise ValueError(f"trace_negative needs d < 0 < D, got d={d}, D={D}")
    _check_m_twist(m, 1, d, D)
    _check_overflow("trace_negative", d, D, m, "at the CM points")
    cl = classes_negative(d * D)
    total, scale, _ = _class_sum(
        cl, D, lambda Q: (eval_jm(m, complex(-Q.b, math.sqrt(-Q.disc)) / (2 * Q.a)), 0.0)
    )
    total /= math.sqrt(D)
    scale /= math.sqrt(D)
    return _checked("trace_negative", d, D, m, total, CM_IMAG_RESIDUE_REL * max(1.0, scale),
                    "cm_points", 1e-9 * max(1.0, abs(total.real)), classes=len(cl.reps))


def trace_nonsquare(d: int, D: int, m: int) -> TraceResult:
    """(1/2pi) sum chi_D(Q) int_{C_Q} j_m dtau/Q over nonsquare-discriminant classes."""
    if d <= 0 or D <= 0:
        raise ValueError(f"trace_nonsquare needs d, D > 0, got d={d}, D={D}")
    dD = d * D
    if math.isqrt(dD) ** 2 == dD:
        raise ValueError(f"dD = {dD} is a square; use trace_square")
    _check_m_twist(m, 0, d, D)
    _check_overflow("trace_nonsquare", d, D, m, "on the closed geodesics")
    cl = classes_nonsquare(dD)
    total, _, quad_err = _class_sum(
        cl, D, lambda Q: cycle_integral_closed(Q, lambda tau: eval_jm(m, tau))
    )
    total /= 2 * math.pi
    eps_d = pell_fundamental(dD).unit
    # quadrature tolerance per class (cycle length as a proxy), plus quad's abserr
    err = len(cl.reps) * (QUAD_TOL * 2 * math.log(eps_d) / math.sqrt(dD) + 1e-9)
    err += quad_err / (2 * math.pi)
    return _checked("trace_nonsquare", d, D, m, total, IMAG_RESIDUE_TOL, "closed_cycle", err,
                    classes=len(cl.reps))


@functools.lru_cache(maxsize=4096)
def _cusp_integral(m: int, Q: QuadForm, route: str | None) -> tuple[complex, float]:
    """sqrt(disc) int j_{m,Q} dtau/Q(tau, 1) cusp to cusp, and quad's abserr; route: a = 0 only."""
    if Q.a == 0 and route == "vertical":
        # int j_{m,Q}(iy) dy/y over y = e^t, |t| < T_VERTICAL
        return _quad_complex(
            lambda t: eval_jmQ(m, Q, complex(0.0, math.exp(t))), -T_VERTICAL, T_VERTICAL
        )[:2]
    if Q.a == 0:
        # [[1,0],[-1,1]] sends [0,b,0] to [b,b,0], moving the vertical line
        # onto a genuine semicircle while leaving the trace summand unchanged
        Q = apply(UnimodularMatrix(1, 0, -1, 1), Q)
    # the semicircle over theta in (eps, pi - eps)
    th0, th1 = THETA_EPS, math.pi - THETA_EPS
    total, abserr, f = _semicircle_integral(Q, lambda tau: eval_jmQ(m, Q, tau), th0, th1)
    # rectangle-rule estimate for the two clipped endpoint slivers, signed
    # like the integral; the integrand extends continuously to the cusps,
    # so this leaves O(eps^2)
    return total + math.copysign(THETA_EPS, Q.a) * (f(th0) + f(th1)), abserr


def trace_square(d: int, D: int, m: int, route: str = "vertical") -> TraceResult:
    """Cusp-to-cusp trace (1/2pi) sum chi_D(Q) int j_{m,Q} dtau/Q for square dD.

    The a = 0 representative integrates along the vertical line by default;
    route="semicircle" replaces it by an equivalent form with a > 0 and uses
    the semicircle parametrization (a cross-check of the same number).
    """
    if d <= 0 or D <= 0:
        raise ValueError(f"trace_square needs d, D > 0, got d={d}, D={D}")
    dD = d * D
    b = math.isqrt(dD)
    if b * b != dD:
        raise ValueError(f"dD = {dD} is not a square; use trace_nonsquare")
    _check_m_twist(m, 1, d, D)  # the m = 0 integral diverges
    if route not in ("vertical", "semicircle"):
        raise ValueError(f"unknown route {route!r}")
    cl = classes_square(dD)
    # the memo key: the primitive form, with the route only at a = 0
    total, _, quad_err = _class_sum(cl, D, lambda Q: _cusp_integral(
        m, QuadForm(*(x // Q.content() for x in (Q.a, Q.b, Q.c))), route if Q.a == 0 else None))
    # dtau_Q = sqrt(dD) dtau / Q(tau,1): divide by sqrt(dD) once, here
    total /= 2 * math.pi * b
    # endpoint clip + vertical tail + quadrature + quad's abserr, all scaled out of 2 pi b
    err = (
        len(cl.reps)
        * (2 * THETA_EPS * 4 * math.pi * m + 8 * math.pi * m * math.exp(-T_VERTICAL) + QUAD_TOL)
        + quad_err
    ) / (2 * math.pi * b)
    return _checked("trace_square", d, D, m, total, IMAG_RESIDUE_TOL, "cusp_cycle", err,
                    classes=len(cl.reps), route=route, N=N_DEFAULT)
