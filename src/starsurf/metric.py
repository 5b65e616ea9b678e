"""Flat metrics on the plane and on the ten-sheeted curve, and the flow
that the triangle map straightens.

The plane metric is the Euclidean one.  Its pullback to the curve is
Gamma = k^2/|eta|^2 |d xi|^2, which makes the developing maps isometries.
The field X with d xi component eta/k has Gamma-norm 1 everywhere and is
straightened by the triangle map: its flow advances F_Q(xi) at unit speed
along zeta^c, zeta = e^{i pi/5}, with c = chart(p) the start's chart.  The
curve is two copies of the star K, each edge glued to its partner, and
delta_star develops a point into its copy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .conformal import (PREVERTICES, SHEET_COUNT, SHEET_PHASE, F_Q,
                        LeftDomain, SheetedPoint, SingularFiber, _in_closed_triangle,
                        compute_k, continue_inverse, eta_ref, f_prime)

@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a sheeted point, carried by its d xi component.

    The d eta component is slaved by the curve relation:
    d eta = (1/10) f'(xi)/eta^9 * d xi.
    """

    base: SheetedPoint
    d_xi: complex

    @property
    def d_eta(self) -> complex:
        e = self.base.eta
        return f_prime(self.base.xi) / (10.0 * e ** 9) * self.d_xi


def gamma(v: complex, w: complex) -> float:
    """Euclidean inner product on the plane: Re(v * conj w)."""
    return (v * w.conjugate()).real


def Gamma(p: SheetedPoint, v: TangentVector, w: TangentVector) -> float:
    """Pullback metric k^2/|eta|^2 Re(v w-bar) at p."""
    k = compute_k()
    e = abs(p.eta)
    return (k * k) / (e * e) * (v.d_xi * w.d_xi.conjugate()).real


def unit_field(p: SheetedPoint) -> TangentVector:
    """The nowhere-vanishing field X with d xi = eta/k; Gamma(X, X) = 1."""
    k = compute_k()
    return TangentVector(p, p.eta / k)


def delta(p: SheetedPoint) -> complex:
    """Triangle-level developing map: forget the sheet, apply the map.

    Upper half-plane points land in the closed triangle; lower half-plane
    points are developed through the Schwarz reflection.
    """
    return F_Q(p.xi)


def chart(p: SheetedPoint) -> int:
    """The chart c = (k - 2 [Im xi < 0]) mod 10 of p = (xi, k): p develops
    as zeta^-c F_Q(xi), and below (0, a) eta_0 is zeta^-2 times its value
    above, so a flow inside the kite keeps c."""
    return (p.sheet - 2 * (p.xi.imag < 0.0)) % SHEET_COUNT


def delta_star(p: SheetedPoint) -> complex:
    """Star-level developing map zeta^(5k - c) F_Q(xi), in copy k mod 2 of
    the star: eps^((2k + [Im xi < 0]) mod 5) F_Q(xi), continuous along flows."""
    return SHEET_PHASE[(5 * p.sheet - chart(p)) % SHEET_COUNT] * F_Q(p.xi)


def _snap(xi: complex, w: complex) -> tuple[int, complex]:
    """The sheet m whose value at xi is nearest w, and that value: the ten
    values differ only by the phases e^{i pi m/5}, so m is the phase of
    w/eta_0 in units of pi/5, rounded."""
    e0 = eta_ref(xi)
    m = round(cmath.phase(w / e0) * 5 / math.pi) % SHEET_COUNT
    return m, SHEET_PHASE[m] * e0


def developed_direction(p0: SheetedPoint, direction: complex = 1.0) -> complex:
    """Velocity of F_Q along the direction*X flow from p0: zeta^c * direction
    in p0's chart c."""
    return direction * SHEET_PHASE[chart(p0)]


def flow(p0: SheetedPoint, t: float, steps: int = 256,
         direction: complex = 1.0) -> SheetedPoint:
    """The real-time flow of direction * X from p0 for time t, exact to
    rounding: F_Q(xi(t)) = F_Q(xi_0) + t developed_direction(p0, direction),
    inverted by Newton continuation from xi_0 (continue_inverse); the end
    keeps p0's chart.  Raises LeftDomain if the developed segment leaves the
    closed kite or ends on a singular fiber.  `steps` is unused; it stays
    because the benchmark's workloads still pass it.
    """
    z0 = F_Q(p0.xi)
    xi = continue_inverse(p0.xi, z0, z0 + t * developed_direction(p0, direction))
    sheet = chart(p0) + 2 * (xi.imag < 0.0)
    try:
        return SheetedPoint(xi, sheet % SHEET_COUNT)
    except SingularFiber as exc:
        raise LeftDomain(f"flow reached the singular fiber at xi = {xi}") from exc


def flow_rk4(p0: SheetedPoint, t: float, steps: int = 256,
             direction: complex = 1.0) -> SheetedPoint:
    """flow by fixed-step RK4 on xi, kept as check 07's oracle.  Each stage
    snaps eta to the branch value nearest the previous stage's (_snap), so
    it continues across the jump set and never drifts off the curve.
    Raises LeftDomain if the path meets a singular fiber or the developed
    image leaves the closed kite."""
    if steps < 1:
        raise ValueError("steps must be positive")
    k = compute_k()
    xi = complex(p0.xi)
    sheet, w = p0.sheet, p0.eta  # the exact branch value at xi, continued along the path
    h = t / steps
    z0 = delta(p0)
    dev_vel = developed_direction(p0, direction)
    elapsed = 0.0

    def vel(z: complex, w_ref: complex) -> tuple[complex, complex]:
        wz = _snap(z, w_ref)[1]
        return direction * wz / k, wz

    for _ in range(steps):
        for s in PREVERTICES:
            if abs(xi - s) < 1e-8:
                raise LeftDomain(f"flow reached the singular fiber over {s}")
        k1 = direction * w / k
        k2, w2 = vel(xi + 0.5 * h * k1, w)
        k3, w3 = vel(xi + 0.5 * h * k2, w2)
        k4, w4 = vel(xi + h * k3, w3)
        xi = xi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        sheet, w = _snap(xi, w4)
        elapsed += h
        # the straightened image advances linearly; exit when it leaves
        image = z0 + dev_vel * elapsed
        if not (_in_closed_triangle(image) or _in_closed_triangle(image.conjugate())):
            raise LeftDomain(
                f"developed image {image:.6f} left the domain at time {elapsed:.4f}")

    return SheetedPoint(xi, sheet)

