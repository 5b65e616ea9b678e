"""Flat metrics on the plane and on the ten-sheeted curve, and the flow
that the triangle map straightens.

The plane metric is the Euclidean one.  Its pullback to the curve is
Gamma = k^2/|eta|^2 |d xi|^2, which makes the developing maps isometries.
The field X with d xi component eta/k has Gamma-norm 1 everywhere and is
straightened by the triangle map: its flow advances the developed image at
unit speed along a fixed direction (the real axis on sheet 0, rotated by
e^{i pi k/5} on sheet k).

Sector convention for the star-level developing map: sheet k develops into
sector sigma(k) with

    sigma(2j) = (2 + j) mod 5,      sigma(2j + 1) = j mod 5,

the unique sheet-constant choice that intertwines both curve symmetries
with the plane dihedral action (rotation literally, conjugation literally).
Sheets k and k+5 share a sector; they are the two preimages of each star
point under the developing map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .conformal import (PREVERTICES, SHEET_COUNT, SHEET_PHASE, F_Kstar, F_Q,
                        SheetedPoint, compute_k, eta_ref, f_prime)
from .geometry import build_triangle

#: sheet -> sector of the star-level developing map
SECTOR_OF_SHEET = (2, 0, 3, 1, 4, 2, 0, 3, 1, 4)


class LeftDomain(RuntimeError):
    """A flow left the regular part of the surface or its image region."""


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

    def scaled(self, c: complex) -> "TangentVector":
        return TangentVector(self.base, c * self.d_xi)


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


def push_delta(p: SheetedPoint, v: TangentVector) -> complex:
    """Differential of the developing map along the branch through p.

    d z = k d xi / eta with eta the point's own branch value, so the unit
    field pushes to d z = 1 on every sheet.
    """
    k = compute_k()
    return k / p.eta * v.d_xi


def sector_of_sheet(sheet: int) -> int:
    return SECTOR_OF_SHEET[sheet % SHEET_COUNT]


def delta_star(p: SheetedPoint, nu: int | None = None) -> complex:
    """Star-level developing map eps^nu * F_Q with nu read off the sheet."""
    if nu is None:
        nu = sector_of_sheet(p.sheet)
    return F_Kstar(p.xi, nu)


def _snap(xi: complex, w: complex) -> tuple[int, complex]:
    """The sheet m whose value at xi is nearest w, and that value: the ten
    values differ only by the phases e^{i pi m/5}, so m is the phase of
    w/eta_0 in units of pi/5, rounded."""
    e0 = eta_ref(xi)
    m = round(cmath.phase(w / e0) * 5 / math.pi) % SHEET_COUNT
    return m, SHEET_PHASE[m] * e0


def developed_direction(p0: SheetedPoint, direction: complex = 1.0) -> complex:
    """Velocity of the developed image of the direction*X flow from p0.

    e^{i pi k/5} * direction on the upper half-plane chart; the Schwarz-
    reflected chart contributes an extra e^{-2 pi i/5} (the derivative of
    the reflected map is k e^{-2 pi i/5}/eta_0).
    """
    phase = SHEET_PHASE[p0.sheet]
    if p0.xi.imag < 0.0:
        phase *= cmath.exp(-2j * math.pi / 5)
    return direction * phase


def flow(p0: SheetedPoint, t: float, steps: int = 256,
         direction: complex = 1.0) -> SheetedPoint:
    """Integrate the real-time flow of direction * X from p0 for time t.

    Classical fixed-step RK4 on xi.  eta is never integrated: at every stage
    it is snapped to the branch value nearest the previous stage's, read off
    its phase against sheet 0, continuing analytically across the real-axis
    jump set and killing drift off the curve.  Raises LeftDomain if the path
    meets a singular fiber or the developed image leaves the closed kite
    (triangle plus its reflection).
    """
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


_TRI = build_triangle()
_TRI_VERTS = (_TRI.O, _TRI.A, _TRI.B)


def _in_closed_triangle(z: complex, tol: float = 1e-9) -> bool:
    for i in range(3):
        p, q = _TRI_VERTS[i], _TRI_VERTS[(i + 1) % 3]
        if (((q - p).conjugate() * (z - p)).imag) < -tol:
            return False
    return True
