"""The Schwarz-Christoffel map onto the (1,2,7) triangle and its ten-th root.

The defining polynomial is f(xi) = xi^8 (xi-a)^3 (xi-b)^9 and the map is

    F_T(xi) = k * integral_0^xi d zeta / eta(zeta),      eta^10 = f,

with prevertices 0, a, b on the real axis going to the corners O, A, B with
interior angles 2pi/10, 7pi/10, pi/10.  The normalization k is fixed by
F_T(a) = a and has a closed form (compute_k).  F_T_many maps a sequence
of points, each from the image before it where that is safe.

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
from .quadrature import (DEFAULT_RULE, QuadratureRule, clog, contour, panel,
                         segment_point_distance)

A = INNER_RADIUS
B = OUTER_RADIUS

PREVERTICES = (0.0, A, B)
#: integrand 1/eta endpoint exponents at the prevertices: all in (0, 1)
MU = {0.0: 0.8, A: 0.3, B: 0.9}

SHEET_COUNT = 10
BRANCH_PHASE = cmath.exp(4j * math.pi / 5)
#: e^{i pi m/5}, the constant factor from sheet 0 to sheet m
SHEET_PHASE = tuple(cmath.exp(1j * math.pi * m / 5) for m in range(SHEET_COUNT))

#: clearance below which the integration path detours around a or b
PATH_CLEARANCE = 0.05


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


def _real_axis_chain(x: float) -> tuple[list, list]:
    """Panels [(s0, s1, mu0, mu1)] along the real axis from 0 to x >= 0."""
    stops = [s for s in (0.0, A, B) if s < x] + [x]
    panels = []
    for i in range(len(stops) - 1):
        s0, s1 = stops[i], stops[i + 1]
        mid = (s0 + s1) / 2.0
        mu0 = MU.get(s0, 0.0)
        mu1 = MU.get(s1, 0.0)
        if mu0 and mu1:
            panels.append((s0, mid, mu0, 0.0))
            panels.append((mid, s1, 0.0, mu1))
        else:
            panels.append((s0, s1, mu0, mu1))
    return stops, panels


def _clear(p: complex, q: complex) -> bool:
    """Whether the segment [p, q] stays more than PATH_CLEARANCE from a and b."""
    return min(segment_point_distance(p, q, A),
               segment_point_distance(p, q, B)) > PATH_CLEARANCE


def _path_to(xi: complex) -> list[complex]:
    """Waypoints 0 -> xi keeping PATH_CLEARANCE away from a and b en route."""
    if _clear(0.0, xi) or abs(xi) < A / 2:
        return [0.0, xi]
    lift = 1j * max(1.0, abs(xi))
    if _clear(lift, xi):
        return [0.0, lift, xi]
    # descend vertically onto targets close to the real axis near a or b
    drop = complex(xi.real, max(xi.imag, 0.35))
    return [0.0, lift, drop, xi]


def F_T(xi: complex, rule: QuadratureRule = DEFAULT_RULE) -> complex:
    """The normalized triangle map on the closed upper half-plane.

    Prevertices themselves are allowed (the integrand exponent there is
    > -1); other points of the deleted fiber neighborhood are fine too.
    The image lies in the closed triangle O, A, B.
    """
    xi = complex(xi)
    if xi.imag < -1e-12:
        raise ValueError("F_T is defined on the closed upper half-plane")
    k = compute_k()
    if xi.imag <= 0.0 and xi.real >= 0.0:
        # boundary evaluation, exact endpoint exponents
        x = xi.real
        total = 0.0 + 0.0j
        for (s0, s1, mu0, mu1) in _real_axis_chain(x)[1]:
            total += panel(_inv_eta, s0, s1, mu0, mu1, rule)
        return k * total
    path = _path_to(xi)
    return k * contour(_inv_eta, path, mu_start=MU[0.0], rule=rule)


def F_T_many(xis, rule: QuadratureRule = DEFAULT_RULE) -> list[complex]:
    """F_T at each point of a sequence, in order, by path additivity: a point
    continues from the previous image, F_prev + k * panel(prev -> xi), when
    both lie in the open upper half-plane (sheet 0 is continuous there) and
    the segment between them stays more than PATH_CLEARANCE from a and b.
    Any other point goes through F_T from 0, with its path and error rule."""
    k = compute_k()
    images: list[complex] = []
    prev = None
    for xi in map(complex, xis):
        if prev is not None and prev.imag > 0.0 and xi.imag > 0.0 and _clear(prev, xi):
            images.append(images[-1] + k * panel(_inv_eta, prev, xi, rule=rule))
        else:
            images.append(F_T(xi, rule))
        prev = xi
    return images


def F_Q(xi: complex, rule: QuadratureRule = DEFAULT_RULE) -> complex:
    """Schwarz reflection of F_T across (0, a): conj-symmetric on the plane.

    Upper half-plane -> T, lower half-plane -> conj(T); the union is the
    kite Q symmetric about the real axis.
    """
    xi = complex(xi)
    if xi.imag >= 0.0:
        return F_T(xi, rule)
    return F_T(xi.conjugate(), rule).conjugate()


def F_Kstar(xi: complex, nu: int, rule: QuadratureRule = DEFAULT_RULE) -> complex:
    """Sector map: eps^nu * F_Q, landing in the nu-th rotated kite of K."""
    if not 0 <= nu < 5:
        raise ValueError("nu must be in 0..4")
    return cmath.exp(2j * math.pi * nu / 5) * F_Q(xi, rule)


def corner_angle(prevertex: float, delta: float = 1e-4,
                 rule: QuadratureRule = DEFAULT_RULE) -> float:
    """Interior angle of the image corner at F_T(prevertex).

    Measured between the image steps F_T(prevertex -/+ delta) - F_T(prevertex)
    along the real axis, each integrated from the prevertex itself (path
    additivity), so no difference of two whole images loses digits.
    """
    mu = MU.get(prevertex, 0.0)
    v1 = panel(_inv_eta, prevertex, prevertex - delta, mu0=mu, rule=rule)
    v2 = panel(_inv_eta, prevertex, prevertex + delta, mu0=mu, rule=rule)
    return abs(cmath.phase(v2 / v1))
