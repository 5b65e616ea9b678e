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
integral stays as its oracle, F_T(xi, rule), and in corner_angle.  Newton
on the closed form inverts F_Q on the kite (continue_inverse, F_Q_inv).

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
from itertools import accumulate
from operator import mul

from .geometry import INNER_RADIUS, OUTER_RADIUS, UsageError

A = INNER_RADIUS
B = OUTER_RADIUS

PREVERTICES = (0.0, A, B)
#: integrand 1/eta endpoint exponents at the prevertices: all in (0, 1)
MU = {0.0: 0.8, A: 0.3, B: 0.9}

SHEET_COUNT = 10
BRANCH_PHASE = cmath.exp(4j * math.pi / 5)
#: e^{i pi m/5}, the constant factor from sheet 0 to sheet m
SHEET_PHASE = tuple(cmath.exp(1j * math.pi * m / 5) for m in range(SHEET_COUNT))
#: the far bound on |Re xi|, |Im xi|: F_T is at its value at infinity to rounding
#: from |xi| ~ 1e17, and eta ~ xi^2 overflows from |xi| ~ 1.3e154
XI_FAR = 1e150


def __getattr__(name):  # the oracle's DEFAULT_RULE, for callers of F_T(xi, rule)
    if name == "DEFAULT_RULE":
        from .quadrature import DEFAULT_RULE
        return DEFAULT_RULE
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SingularFiber(UsageError):
    """Evaluation at one of the deleted fibers xi in {0, a, b} (bad input)."""


def f(xi: complex) -> complex:
    """The curve polynomial xi^8 (xi-a)^3 (xi-b)^9."""
    return xi ** 8 * (xi - A) ** 3 * (xi - B) ** 9


def f_prime(xi: complex) -> complex:
    """Derivative of f, in product form to avoid cancellation."""
    return (xi ** 7 * (xi - A) ** 2 * (xi - B) ** 8
            * (8 * (xi - A) * (xi - B) + 3 * xi * (xi - B) + 9 * xi * (xi - A)))


def clog(z):
    """Principal log of a scalar (on cmath) or an array (on numpy), with the
    real axis approached from above: a -0.0 imaginary part, which would give
    negative reals argument -pi, becomes +0.0 (on arrays by adding 0.0)."""
    if isinstance(z, (complex, float, int)):
        z = complex(z)
        if z.imag == 0.0:
            z = complex(z.real, 0.0)
        return cmath.log(z)
    import numpy as np
    return np.log(np.asarray(z, dtype=complex) + 0.0)


def _check_regular(xi: complex) -> complex:
    xi = complex(xi)
    for s in PREVERTICES:
        if abs(xi - s) <= 1e-13:
            raise SingularFiber(f"xi = {xi} is within 1e-13 of the fiber over {s}")
    if max(abs(xi.real), abs(xi.imag)) > XI_FAR:
        raise UsageError(f"xi = {xi} lies beyond the curve's bound |Re xi|, |Im xi| <= {XI_FAR:g}")
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
    import numpy as np
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


def _F_T_quad(xi: complex, rule: QuadratureRule) -> complex:
    """F_T by panel quadrature of its integral from 0.  Prevertices
    themselves are allowed (the integrand exponent there is > -1)."""
    from .quadrature import contour, panel
    xi = complex(xi)
    if xi.imag < -1e-12:
        raise ValueError("F_T is defined on the closed upper half-plane")
    k = compute_k()
    if 0.0 < abs(xi.real) < 1e-100 and xi.imag <= 0.0:  # leading term, relative error O(x)
        return k * 5.0 * complex(xi.real, 0.0) ** 0.2 * A ** -0.3 * B ** -0.9
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
        return list(accumulate([(j - 1 + c) / j for j in range(1, SERIES_TERMS)], mul, initial=1.0))

    def horner(row, x):  # sum_n row[n] x^n
        acc = 0j
        for c in reversed(row):
            acc = acc * x + c
        return acc

    # Taylor coefficients g_m of s^(P-1) (1-s)^(Q-1) about t0, from
    # s (1-s) g' = [(P-1) - (P+Q-2) s] g
    t0 = T_CENTER
    al, be, ga = t0 * (1 - t0), 1 - 2 * t0, (P - 1) - (P + Q - 2) * t0
    g = [t0 ** (P - 1) * (1 - t0) ** (Q - 1)]
    g.append(ga * g[0] / al)
    for m in range(1, SERIES_TERMS - 2):
        g.append(((ga - be * m) * g[m] + (m + 1 - P - Q) * g[m - 1]) / (al * (m + 1)))
    # x * (1.0 / j) is how numpy divides: the tests' numpy tables agree bit for bit
    rows = [[r / (P + n) for n, r in enumerate(rising(1 - Q))],      # in t: B_t(P, Q)
            [r / (P + n) for n, r in enumerate(rising(P + Q))],      # in t/(t-1): Pfaff
            [r / (Q + n) for n, r in enumerate(rising(1 - P))],      # in 1-t: B - B_{1-t}(Q, P)
            [r / (P_INF + n) for n, r in enumerate(rising(1 - Q))],  # in 1/t: B_inf - e3 B_{1/t}
            [0.0] + [gm * (1.0 / j) for j, gm in enumerate(g, 1)]]  # in t - t0
    # the Taylor constant: B_t at 0.75 t0, inside the disc of the t series
    t1 = 0.75 * t0
    c = t1 ** P * horner(rows[0], t1) - horner(rows[4], t1 - t0)
    b, e3 = beta(P, Q), cmath.exp(0.3j * math.pi)
    consts = [A * v / b for v in (0.0, 0.0, b, b + e3 * beta(P_INF, Q))] + [A * c * (1.0 / b)]
    regions = [[complex(v) for v in region] for region in
               zip(consts, (1, 1, -1, -e3, 1), (P, P, 0, -P_INF, 0), (0, -P, Q, 0, 0))]
    return [[complex(v) * (A / b) for v in reversed(row)] for row in rows], regions


_ROWS, _REGIONS = _series_tables()
#: exact images of the prevertices; that of b is the closed-form corner
#: a (1 + e^{3 pi i/10} B(1/10, 7/10) / B(1/5, 7/10))
CORNERS = {0.0: 0j, A: complex(A), B: _REGIONS[3][0]}
#: the tables as numpy arrays, made by the first array call: _ROWS transposed
#: (row n holds every region's c_n) and _REGIONS
_ARRAY_TABLES = None


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
    A point beyond XI_FAR is read as the point on the bound in its direction.
    Given a quadrature rule, F_T(xi, rule) integrates by quadrature instead,
    at a point: the oracle of the closed form.
    """
    if rule is not None:
        return _F_T_quad(xi, rule)
    if not isinstance(xi, (int, float, complex)):
        import numpy as np
        xi = np.asarray(xi, dtype=complex)
        return _F_T_array(xi.ravel()).reshape(xi.shape)
    xi = complex(xi)
    if xi.imag < -1e-12:
        raise ValueError("F_T is defined on the closed upper half-plane")
    x, y = xi.real, max(xi.imag, 0.0)
    if y == 0.0 and x in CORNERS:
        return CORNERS[x]
    if (far := max(abs(x), y)) > XI_FAR:
        x, y = x * (XI_FAR / far), y * (XI_FAR / far)
    t, s_bar, radii, variables = _series_inputs(x, y)
    r = radii.index(min(radii)) if min(radii) <= SWITCH_RADIUS else 4
    x, acc = variables[r], 0j
    for c in _ROWS[r]:
        acc = acc * x + c
    const, sigma, lam, mu = _REGIONS[r]
    return const + sigma * cmath.exp(lam * clog(t) + mu * clog(s_bar).conjugate()) * acc


def _F_T_array(xi: np.ndarray) -> np.ndarray:
    global _ARRAY_TABLES
    import numpy as np
    if _ARRAY_TABLES is None:
        _ARRAY_TABLES = np.array(_ROWS).T.copy(), np.array(_REGIONS)
    if xi.size == 1:  # numpy's in-place product rounds a lone element apart
        return _F_T_array(np.repeat(xi, 2))[:1]
    if np.any(xi.imag < -1e-12):
        raise ValueError("F_T is defined on the closed upper half-plane")
    # a non-finite point gives nan, as F_T at it does: a regular stand-in till then
    nonfinite = ~np.isfinite(xi)
    xi = np.where(nonfinite, 1j, xi)
    x, y = xi.real, np.maximum(xi.imag, 0.0)
    far = np.maximum(np.abs(x), y)
    if (far > XI_FAR).any():
        scale = XI_FAR / np.maximum(far, XI_FAR)
        x, y = x * scale, y * scale
    corner = (y == 0.0) & np.isin(x, tuple(CORNERS))
    # a regular stand-in at the corners, whose images are set at the end
    t, s_bar, radii, variables = _series_inputs(x, np.where(corner, 1.0, y))
    radii = np.stack(radii)
    r = np.where(radii.min(0) > SWITCH_RADIUS, 4, radii.argmin(0))
    horner, regions = _ARRAY_TABLES
    var, acc = np.choose(r, variables), horner[0][r]  # acc: a fresh array
    for row in horner[1:]:
        acc *= var
        acc += row[r]
    const, sigma, lam, mu = regions[r].T
    out = const + sigma * np.exp(lam * clog(t) + mu * clog(s_bar).conjugate()) * acc
    out[corner] = [CORNERS[v] for v in x[corner]]
    out[nonfinite] = complex(math.nan, math.nan)
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


class LeftDomain(RuntimeError):
    """A flow or an inverse-map target left the closed kite or met a corner."""


#: how far outside the closed kite, or near a corner, a target may lie
KITE_TOL = 1e-9
#: the kite's corners O, A, B, conj B; F_Q_inv continues from F_Q(i) = _ANCHOR
KITE_CORNERS, _ANCHOR = (0j, CORNERS[A], CORNERS[B], CORNERS[B].conjugate()), F_T(1j)


def _in_closed_triangle(z: complex, tol: float = KITE_TOL) -> bool:
    """Whether z lies in the closed triangle T = O A B, to tol."""
    o, a, b = KITE_CORNERS[:3]
    return all(((q - p).conjugate() * (z - p)).imag >= -tol for p, q in ((o, a), (a, b), (b, o)))


def _newton(xi: complex, w: complex) -> tuple[complex, bool]:
    """At most 40 Newton steps on F_Q(xi) = w from xi, while the residual
    falls, with F_Q' = k/eta_0 (conjugated below the axis): the best iterate,
    and whether it converged, to KITE_TOL or to 64 ulps of that iterate."""
    k, best, r_best, step, e = compute_k(), xi, math.inf, math.inf, 0j
    for _ in range(40):
        res = F_Q(xi) - w
        if not abs(res) < r_best:
            break
        best, r_best = xi, abs(res)
        if r_best <= 4e-16 or (xi.imag == 0.0 and xi.real in CORNERS):
            break
        e = eta_ref(xi) if xi.imag >= 0.0 else eta_ref(xi.conjugate()).conjugate()
        step = res * e / k
        xi = xi - step
        if xi.imag * best.imag < 0.0 and not 0.0 < xi.real < A:
            xi = xi.conjugate()  # F_Q jumps across the axis there: stay on best's side
    return best, r_best <= KITE_TOL or abs(step) <= 1.4e-14 * (abs(best) + abs(w * e) / k)


def continue_inverse(xi: complex, z: complex, w: complex) -> complex:
    """The xi' with F_Q(xi') = w, continued from F_Q(xi) = z along [z, w]
    by Newton in one leg, halved while Newton fails.  Raises LeftDomain
    unless [z, w] lies in the closed kite and w is no corner: the kite is a
    dart, reflex at A, so a path from T to conj T crosses (0, a)."""
    if not (_in_closed_triangle(w) or _in_closed_triangle(w.conjugate())):
        raise LeftDomain(f"target {w:.6f} lies outside the closed kite")
    if min(abs(w - c) for c in KITE_CORNERS) <= KITE_TOL:
        raise LeftDomain(f"target {w:.6f} is a corner of the kite")
    if z.imag * w.imag < 0.0:
        x = z.real + (w.real - z.real) * z.imag / (z.imag - w.imag)
        if not KITE_TOL < x < A - KITE_TOL:
            raise LeftDomain(f"path from {z:.6f} to {w:.6f} leaves the kite at {x:.6f}")
    done, leg = 0.0, 1.0
    while done < 1.0:
        leg = min(leg, 1.0 - done)
        nxt, ok = _newton(xi, w - (1.0 - done - leg) * (w - z))
        if ok:
            xi, done = nxt, done + leg
        elif leg > 2.0 ** -30:
            leg /= 2
        else:
            raise LeftDomain(f"Newton continuation to {w:.6f} stalled at {xi}")
    return xi


def F_Q_inv(w: complex) -> complex:
    """The inverse of F_Q on the closed kite less its corners: continued
    from xi = i, or from -i for w below the axis, so the path stays in T or
    in conj T."""
    w = complex(w)
    below = w.imag < 0.0
    return continue_inverse(-1j if below else 1j, _ANCHOR.conjugate() if below else _ANCHOR, w)


#: the step along the real axis on either side of a prevertex in corner_angle
CORNER_DELTA = 1e-4


def corner_angle(prevertex: float) -> float:
    """Interior angle of the image corner at F_T(prevertex), by quadrature.

    Measured between the image steps F_T(prevertex -/+ CORNER_DELTA) - F_T(prevertex)
    along the real axis, each integrated from the prevertex itself (path
    additivity), so no difference of two whole images loses digits.
    """
    from .quadrature import panel
    mu = MU.get(prevertex, 0.0)
    v1 = panel(_inv_eta, prevertex, prevertex - CORNER_DELTA, mu0=mu)
    v2 = panel(_inv_eta, prevertex, prevertex + CORNER_DELTA, mu0=mu)
    return abs(cmath.phase(v2 / v1))
