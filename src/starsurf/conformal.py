"""The Schwarz-Christoffel map onto the (1,2,7) triangle and its ten-th root.

The defining polynomial is f(xi) = xi^8 (xi-a)^3 (xi-b)^9 and the map is

    F_T(xi) = k * integral_0^xi d zeta / eta(zeta),      eta^10 = f,

with prevertices 0, a, b on the real axis going to the corners O, A, B with
interior angles 2pi/10, 7pi/10, pi/10.  The normalization k is fixed by
F_T(a) = a and has a closed form (compute_k).  So has the map: the Moebius
change t = (b - a) xi / (a (b - xi)) sends 0, a, b to 0, 1, infinity and
the integral to an incomplete beta function,

    F_T(xi) = a * I_t(1/5, 7/10)            (DLMF 8.17, 15.8),

summed by the series of one of five regions (see F_T).  The quadrature
integral stays as its oracle, F_T(xi, rule), and in corner_angle.

Branch convention.  Sheet 0 is

    eta_0(xi) = e^{4 pi i/5} * exp( (4/5) Log xi + (3/10) Log(xi-a)
                                    + (9/10) Log(xi-b) )

with principal logs taken from the upper side of the real axis.  The
constant phase makes eta_0 real and positive on (0, a), hence k real and
positive; sheet k is eta_k = e^{i pi k/5} * eta_0, k = 0..9.  Sheet 0 is
continuous on the open upper half-plane; the jump set of the family is the
segment [0, b] of the real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import UsageError
from .geometry import INNER_RADIUS, OUTER_RADIUS
from .quadrature import DEFAULT_RULE, QuadratureRule, clog, contour, panel

A = INNER_RADIUS
B = OUTER_RADIUS

PREVERTICES = (0.0, A, B)
#: integrand 1/eta endpoint exponents at the prevertices: all in (0, 1)
MU = {0.0: 0.8, A: 0.3, B: 0.9}

SHEET_COUNT = 10
BRANCH_PHASE = cmath.exp(4j * math.pi / 5)
#: e^{i pi m/5}, the constant factor from sheet 0 to sheet m
SHEET_PHASE = tuple(cmath.exp(1j * math.pi * m / 5) for m in range(SHEET_COUNT))


class SingularFiber(UsageError):
    """Evaluation at one of the deleted fibers xi in {0, a, b} (bad input)."""


def f(xi: complex) -> complex:
    """The curve polynomial xi^8 (xi-a)^3 (xi-b)^9."""
    return xi ** 8 * (xi - A) ** 3 * (xi - B) ** 9


def f_prime(xi: complex) -> complex:
    """Derivative of f, in product form to avoid cancellation."""
    return (xi ** 7 * (xi - A) ** 2 * (xi - B) ** 8
            * (8 * (xi - A) * (xi - B) + 3 * xi * (xi - B) + 9 * xi * (xi - A)))


def _check_regular(xi: complex, tol: float = 1e-13) -> complex:
    xi = complex(xi)
    for s in PREVERTICES:
        if abs(xi - s) <= tol:
            raise SingularFiber(f"xi = {xi} is within {tol} of the fiber over {s}")
    return xi


def _log_eta0(xi):
    """log eta_0 less its phase: sum of mu log(xi - s), on a scalar or an array."""
    return MU[0.0] * clog(xi) + MU[A] * clog(xi - A) + MU[B] * clog(xi - B)


def eta_ref(xi: complex) -> complex:
    """Sheet-0 branch of the 10th root of f (positive on (0, a))."""
    return BRANCH_PHASE * cmath.exp(_log_eta0(xi))


def eta(xi: complex, sheet: int) -> complex:
    """The sheet-th branch: e^{i pi sheet/5} * eta_0(xi)."""
    xi = _check_regular(xi)
    return SHEET_PHASE[sheet % SHEET_COUNT] * eta_ref(xi)


def sheet_values(xi: complex) -> list[complex]:
    """All ten branch values at xi, indexed by sheet."""
    e0 = eta_ref(xi)
    return [phase * e0 for phase in SHEET_PHASE]


@dataclass(frozen=True)
class SheetedPoint:
    """A regular point (xi, eta_sheet(xi)) of the ten-sheeted curve."""

    xi: complex
    sheet: int

    def __post_init__(self):
        _check_regular(self.xi)
        if not 0 <= self.sheet < SHEET_COUNT:
            raise ValueError(f"sheet must be in 0..9, got {self.sheet}")

    @property
    def eta(self) -> complex:
        return eta(self.xi, self.sheet)


def _inv_eta(z: np.ndarray) -> np.ndarray:
    """1/eta_0 on an array of points: the integrand of F_T."""
    return np.exp(-_log_eta0(z)) / BRANCH_PHASE


@lru_cache(maxsize=1)
def compute_k() -> float:
    """Normalization k = a / integral_0^a d xi/eta_0, in closed form.

    The integral is a^(-1/10) b^(-9/10) B(1/5, 7/10) (1 - a/b)^(-1/5), the
    2F1 of DLMF 15.4.6; ab = 1 and b = phi give k = phi^(-2/5) Gamma(9/10)
    / (Gamma(1/5) Gamma(7/10)).  Check 03 compares it with quadrature.
    """
    return B ** -0.4 * math.gamma(0.9) / (math.gamma(0.2) * math.gamma(0.7))


def _real_axis_chain(x: float) -> list[tuple]:
    """Panels (s0, s1, mu0, mu1) along the real axis from 0 to x >= 0, split
    at their midpoints so that each carries at most one endpoint exponent."""
    stops = [s for s in PREVERTICES if s < x] + [x]
    panels = []
    for s0, s1 in zip(stops, stops[1:]):
        mid = (s0 + s1) / 2.0
        panels += [(s0, mid, MU.get(s0, 0.0), 0.0), (mid, s1, 0.0, MU.get(s1, 0.0))]
    return panels


def _path_to(xi: complex) -> list[complex]:
    """Waypoints 0 -> xi: straight where the segment keeps a distance from a
    and b (xi near 0 or left of the imaginary axis), else down from above."""
    if xi.real <= 0.0 or abs(xi) < A / 2:
        return [0.0, xi]
    return [0.0, 1j * max(1.0, abs(xi)), xi]


def _F_T_quad(xi: complex, rule: QuadratureRule = DEFAULT_RULE) -> complex:
    """F_T by panel quadrature of its integral from 0.  Prevertices
    themselves are allowed (the integrand exponent there is > -1)."""
    xi = complex(xi)
    if xi.imag < -1e-12:
        raise ValueError("F_T is defined on the closed upper half-plane")
    k = compute_k()
    if xi.imag <= 0.0 and xi.real >= 0.0:  # on the axis, exact endpoint exponents
        return k * sum(panel(_inv_eta, *p, rule) for p in _real_axis_chain(xi.real))
    return k * contour(_inv_eta, _path_to(xi), mu_start=MU[0.0], rule=rule)


# ------------------------------------------------ the closed form a I_t(P, Q)

#: F_T = a I_t(P, Q); about t = infinity the series is B_{1/t}(1 - P - Q, Q)
P, Q, P_INF = 0.2, 0.7, 0.1
SERIES_TERMS = 150
#: a point takes the series whose variable is smallest, unless all four
#: exceed this; then the Taylor series about T_CENTER (radius 1)
SWITCH_RADIUS = 0.78
#: e^{i pi/3}, which the discs |t|, |t/(t-1)|, |1-t|, |1/t| <= 0.78 all miss
T_CENTER = cmath.exp(1j * math.pi / 3)


def _series_tables():
    """The five series' coefficients, highest degree first, and per region
    (constant, factor, power of t, power of 1 - t), scaled by a / B(P, Q):
    F_T = constant + factor t^power (1-t)^power' sum_n c_n x^n."""
    def beta(p, q):
        return math.gamma(p) * math.gamma(q) / math.gamma(p + q)

    def rising(c):  # (c)_n / n!
        return np.append(1.0, np.cumprod((j - 1 + c) / j))

    n = np.arange(SERIES_TERMS)
    j = n[1:]
    # Taylor coefficients g_m of s^(P-1) (1-s)^(Q-1) about t0, from
    # s (1-s) g' = [(P-1) - (P+Q-2) s] g
    t0 = T_CENTER
    al, be, ga = t0 * (1 - t0), 1 - 2 * t0, (P - 1) - (P + Q - 2) * t0
    g = [t0 ** (P - 1) * (1 - t0) ** (Q - 1)]
    g.append(ga * g[0] / al)
    for m in range(1, SERIES_TERMS - 2):
        g.append(((ga - be * m) * g[m] + (m + 1 - P - Q) * g[m - 1]) / (al * (m + 1)))
    rows = np.array([rising(1 - Q) / (P + n),       # in t: B_t(P, Q)
                     rising(P + Q) / (P + n),       # in t/(t-1): Pfaff
                     rising(1 - P) / (Q + n),       # in 1-t: B - B_{1-t}(Q, P)
                     rising(1 - Q) / (P_INF + n),   # in 1/t: B_inf - e^{3 pi i/10} B_{1/t}
                     np.append(0.0, np.array(g) / j)], dtype=complex)  # in t - t0
    # the Taylor constant: B_t at 0.75 t0, inside the disc of the t series
    t1 = 0.75 * t0
    c = t1 ** P * np.polyval(rows[0][::-1], t1) - np.polyval(rows[4][::-1], t1 - t0)
    b, e3 = beta(P, Q), cmath.exp(0.3j * math.pi)
    consts = (0.0, 0.0, b, b + e3 * beta(P_INF, Q), c)
    regions = [(A * const / b, sigma, lam, mu) for const, sigma, lam, mu in
               zip(consts, (1, 1, -1, -e3, 1), (P, P, 0, -P_INF, 0), (0, -P, Q, 0, 0))]
    return rows[:, ::-1] * (A / b), np.array(regions, dtype=complex)


_COEFFS, _REGION_ROWS = _series_tables()
#: for arrays: the n-th row holds every region's n-th coefficient
_HORNER = _COEFFS.T.copy()
#: the same tables as Python numbers, for the scalar path
_ROWS, _REGIONS = _COEFFS.tolist(), _REGION_ROWS.tolist()
#: exact images of the prevertices; that of b is the closed-form corner
#: a (1 + e^{3 pi i/10} B(1/10, 7/10) / B(1/5, 7/10))
CORNERS = {0.0: 0j, A: complex(A), B: _REGIONS[3][0]}


def _series_inputs(x, y):
    """t, s_bar = 1 - conj(t), the sizes of the four series variables and the
    five variables at xi = x + iy, on floats or arrays.  The parts of t and
    1 - t avoid cancellation near 0, a and b; Im t is +0.0 on the axis."""
    den = A * ((B - x) ** 2 + y * y)
    ti = B * (B - A) * y / den
    t = (B - A) * (x * (B - x) - y * y) / den + 1j * ti
    s_bar = B * ((A - x) * (B - x) + y * y) / den + 1j * ti
    rt, rs, s = abs(t), abs(s_bar), s_bar.conjugate()
    return t, s_bar, (rt, rt / rs, rs, 1 / rt), (t, -t / s, s, 1 / t, t - T_CENTER)


def F_T(xi, rule: QuadratureRule | None = None):
    """The normalized triangle map a I_t(1/5, 7/10) on the closed upper
    half-plane, at a point or elementwise on an array.

    log t = clog(t) and log(1 - t) = conj(clog(s_bar)) take the upper side of
    the real axis, so arg(1 - t) = -pi on t > 1 (the edge AB).  Points and
    arrays read one table and one region rule: one Horner sum per point.
    Given a quadrature rule, F_T(xi, rule) integrates by quadrature instead,
    at a point: the oracle of the closed form.
    """
    if rule is not None:
        return _F_T_quad(xi, rule)
    if not isinstance(xi, (int, float, complex)):
        xi = np.asarray(xi, dtype=complex)
        return _F_T_array(xi.ravel()).reshape(xi.shape)
    xi = complex(xi)
    if xi.imag < -1e-12:
        raise ValueError("F_T is defined on the closed upper half-plane")
    y = max(xi.imag, 0.0)
    if y == 0.0 and xi.real in CORNERS:
        return CORNERS[xi.real]
    t, s_bar, radii, variables = _series_inputs(xi.real, y)
    r = radii.index(min(radii)) if min(radii) <= SWITCH_RADIUS else 4
    x, acc = variables[r], 0j
    for c in _ROWS[r]:
        acc = acc * x + c
    const, sigma, lam, mu = _REGIONS[r]
    return const + sigma * cmath.exp(lam * clog(t) + mu * clog(s_bar).conjugate()) * acc


def _F_T_array(xi: np.ndarray) -> np.ndarray:
    if xi.size == 1:  # numpy's in-place product rounds a lone element apart
        return _F_T_array(np.repeat(xi, 2))[:1]
    if np.any(xi.imag < -1e-12):
        raise ValueError("F_T is defined on the closed upper half-plane")
    x, y = xi.real, np.maximum(xi.imag, 0.0)
    corner = (y == 0.0) & np.isin(x, tuple(CORNERS))
    # a regular stand-in at the corners, whose images are set at the end
    t, s_bar, radii, variables = _series_inputs(x, np.where(corner, 1.0, y))
    radii = np.stack(radii)
    r = np.where(radii.min(0) > SWITCH_RADIUS, 4, radii.argmin(0))
    var, acc = np.choose(r, variables), _HORNER[0][r]  # acc: a fresh array
    for row in _HORNER[1:]:
        acc *= var
        acc += row[r]
    const, sigma, lam, mu = _REGION_ROWS[r].T
    out = const + sigma * np.exp(lam * clog(t) + mu * clog(s_bar).conjugate()) * acc
    out[corner] = [CORNERS[v] for v in x[corner]]
    return out


def F_Q(xi: complex) -> complex:
    """Schwarz reflection of F_T across (0, a): conj-symmetric on the plane.

    Upper half-plane -> T, lower half-plane -> conj(T); the union is the
    kite Q symmetric about the real axis.
    """
    xi = complex(xi)
    if xi.imag >= 0.0:
        return F_T(xi)
    return F_T(xi.conjugate()).conjugate()


def F_Kstar(xi: complex, nu: int) -> complex:
    """Sector map: eps^nu * F_Q, landing in the nu-th rotated kite of K."""
    if not 0 <= nu < 5:
        raise ValueError("nu must be in 0..4")
    return cmath.exp(2j * math.pi * nu / 5) * F_Q(xi)


def corner_angle(prevertex: float, delta: float = 1e-4) -> float:
    """Interior angle of the image corner at F_T(prevertex), by quadrature.

    Measured between the image steps F_T(prevertex -/+ delta) - F_T(prevertex)
    along the real axis, each integrated from the prevertex itself (path
    additivity), so no difference of two whole images loses digits.
    """
    mu = MU.get(prevertex, 0.0)
    v1 = panel(_inv_eta, prevertex, prevertex - delta, mu0=mu)
    v2 = panel(_inv_eta, prevertex, prevertex + delta, mu0=mu)
    return abs(cmath.phase(v2 / v1))
