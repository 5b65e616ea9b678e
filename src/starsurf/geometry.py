"""Plane geometry of the (1,2,7) triangle and the regular stellated 5-gon.

Frame convention, inherited by every other module: the star center O is the
origin, the inner vertex A = a lies on the positive real axis, and the outer
vertex B = b*e^{i*pi/5} sits at +36 degrees.  Here

    a = 2 cos(2 pi/5) = 1/phi,   b = 2 cos(pi/5) = phi,   a*b = 1.

Angles of the triangle are exact rational multiples of pi and are stored as
Fractions alongside their float values, so rational-angle identities can be
tested exactly.

Point location against the star has two forms.  point_location classifies
one point and returns a Location (kind, edge or vertex index, edge
parameter); it serves single-point callers and is the oracle the batch form
is tested against.  locate_kinds classifies an array of points and returns
kind codes, indices into KINDS: 0 exterior, 1 interior, 2 edge, 3 vertex,
4 center.  point_location tests the center within tol, then a vertex within
tol, then an edge (distance <= tol and 0 < t < 1), then the even-odd
crossing test.  The star is the set of points outside at most one of its
five edge lines.  A point more than 2 tol + 1e-12 from every line and from
the center passes none of the first three tests, and its crossing test is
exact, so locate_kinds counts the lines it is outside.  Points within that
margin go through _exact_kinds, point_location's operations bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

EPSILON = cmath.exp(2j * math.pi / 5)  # the rotation R: z -> eps*z

INNER_RADIUS = 2.0 * math.cos(2.0 * math.pi / 5.0)  # a
OUTER_RADIUS = 2.0 * math.cos(math.pi / 5.0)        # b
SIDE_C = 2.0 * math.sin(math.pi / 5.0)              # c = |AB|

#: Point-classification tolerance: well above 1e-14 arithmetic noise, well
#: below the smallest feature size (~0.1).
TOL_GEO = 1e-9


class PoleError(ValueError):
    """Stereographic projection evaluated at the excluded point [1:0]."""


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [z0 : z1] of the complex projective line, scale-equivalent."""

    z0: complex
    z1: complex

    def __post_init__(self):
        if self.z0 == 0 and self.z1 == 0:
            raise ValueError("(0, 0) does not represent a projective point")

    def equivalent(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        cross = self.z0 * other.z1 - self.z1 * other.z0
        scale = max(abs(self.z0), abs(self.z1)) * max(abs(other.z0), abs(other.z1))
        return abs(cross) <= tol * scale


def icosahedron_vertices() -> list[ProjectivePoint]:
    """The twelve icosahedron vertices on the projective line.

    [0:1], [1:0], and the two eps-orbits [eps^nu (eps+eps^4) : 1],
    [eps^nu (eps^2+eps^3) : 1] for nu = 0..4.
    """
    pts = [ProjectivePoint(0.0, 1.0), ProjectivePoint(1.0, 0.0)]
    for nu in range(5):
        e = EPSILON ** nu
        pts.append(ProjectivePoint(e * (EPSILON + EPSILON ** 4), 1.0))
        pts.append(ProjectivePoint(e * (EPSILON ** 2 + EPSILON ** 3), 1.0))
    return pts


def stereographic_project(p: ProjectivePoint) -> complex:
    """[z:1] -> z; raises PoleError at the north pole [1:0]."""
    if abs(p.z1) <= 1e-15 * abs(p.z0):
        raise PoleError("stereographic projection is undefined at [1:0]")
    return p.z0 / p.z1


@dataclass(frozen=True)
class Triangle:
    """The rational (1,2,7) triangle O, A, B.

    Angle naming follows the opposite-side convention: alpha (pi/10) at B
    opposite side a, beta (7 pi/10) at A opposite side b, gamma (pi/5) at O
    opposite side c.  The *_frac fields are the exact multiples of pi.
    """

    O: complex
    A: complex
    B: complex
    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float
    alpha_frac: Fraction
    beta_frac: Fraction
    gamma_frac: Fraction

    @property
    def vertices(self) -> tuple[complex, complex, complex]:
        return (self.O, self.A, self.B)


def build_triangle() -> Triangle:
    alpha = Fraction(1, 10)
    beta = Fraction(7, 10)
    gamma = Fraction(2, 10)
    return Triangle(
        O=0.0 + 0.0j,
        A=complex(INNER_RADIUS, 0.0),
        B=OUTER_RADIUS * cmath.exp(1j * math.pi / 5),
        a=INNER_RADIUS,
        b=OUTER_RADIUS,
        c=SIDE_C,
        alpha=float(alpha) * math.pi,
        beta=float(beta) * math.pi,
        gamma=float(gamma) * math.pi,
        alpha_frac=alpha,
        beta_frac=beta,
        gamma_frac=gamma,
    )


def reflect_across_ray(z: complex, angle: float) -> complex:
    """Mirror z across the line through the origin at the given angle."""
    phase = cmath.exp(2j * angle)
    return phase * z.conjugate()


@dataclass(frozen=True)
class EdgeLine:
    """One of the five lines of the star; each carries two boundary edges."""

    foot: complex        # perpendicular foot from O
    direction: complex   # unit vector along the line
    edge_ids: tuple[int, int]

    def distance(self, z: complex) -> float:
        return abs(((z - self.foot) / self.direction).imag)


@dataclass(frozen=True)
class StarPolygon:
    """The stellated 5-gon K: ten vertices in circular order.

    Even indices are inner vertices a*eps^k, odd indices outer vertices
    b*e^{i(2k+1)pi/5}.  Edge j joins vertex j to vertex j+1 mod 10.  The ten
    edges lie on five lines, two per line (the star's chords).
    """

    center: complex
    vertices: tuple[complex, ...]
    edges: tuple[tuple[int, int], ...]
    edge_lines: tuple[EdgeLine, ...]

    def edge_endpoints(self, eid: int) -> tuple[complex, complex]:
        i, j = self.edges[eid]
        return self.vertices[i], self.vertices[j]

    def edge_direction(self, eid: int) -> complex:
        p, q = self.edge_endpoints(eid)
        return (q - p) / abs(q - p)

    def line_of_edge(self, eid: int) -> EdgeLine:
        for line in self.edge_lines:
            if eid in line.edge_ids:
                return line
        raise KeyError(eid)

    def quadrilaterals(self, kind: str = "conjugate") -> list[tuple[complex, ...]]:
        """The five rotated kites whose union is K.

        kind="conjugate": R^nu(T ∪ conj T), vertices (O, b e^{-i pi/5}, a, B).
        kind="doubled":   R^nu(T ∪ reflect(T, OB)), vertices (O, a, B, a eps).
        Both unions produce the same star.
        """
        A = complex(INNER_RADIUS, 0.0)
        B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
        if kind == "conjugate":
            base = (0.0 + 0.0j, B.conjugate(), A, B)
        elif kind == "doubled":
            base = (0.0 + 0.0j, A, B, reflect_across_ray(A, math.pi / 5))
        else:
            raise ValueError(f"unknown kite kind {kind!r}")
        return [tuple(EPSILON ** nu * v for v in base) for nu in range(5)]


@lru_cache(maxsize=1)
def build_star() -> StarPolygon:
    verts = []
    for k in range(5):
        verts.append(INNER_RADIUS * EPSILON ** k)
        verts.append(OUTER_RADIUS * cmath.exp(1j * (2 * k + 1) * math.pi / 5))
    edges = tuple((j, (j + 1) % 10) for j in range(10))

    # Each line holds edges {2k+2, 2k+9} (mod 10): the half-chords on either
    # side of the pentagon edge joining inner vertices k, k+1.
    lines = []
    for k in range(5):
        e_lo = (2 * k + 9) % 10
        e_hi = (2 * k + 2) % 10
        p = verts[2 * k]
        q = verts[(2 * k + 2) % 10]
        direction = (q - p) / abs(q - p)
        # perpendicular foot from the origin
        foot = p + ((0 - p) / direction).real * direction
        lines.append(EdgeLine(foot=foot, direction=direction, edge_ids=(e_lo, e_hi)))

    return StarPolygon(
        center=0.0 + 0.0j,
        vertices=tuple(verts),
        edges=edges,
        edge_lines=tuple(lines),
    )


@dataclass(frozen=True)
class Location:
    """Result of point classification against the star."""

    kind: str  # "interior" | "edge" | "vertex" | "exterior" | "center"
    index: int | None = None     # edge id or vertex id
    parameter: float | None = None  # position along the edge in (0, 1)


def _point_in_polygon(z: complex, verts: tuple[complex, ...]) -> bool:
    """Even-odd crossing test; callers must have excluded boundary points."""
    inside = False
    n = len(verts)
    x, y = z.real, z.imag
    for i in range(n):
        p, q = verts[i], verts[(i + 1) % n]
        if (p.imag > y) != (q.imag > y):
            x_cross = p.real + (y - p.imag) * (q.real - p.real) / (q.imag - p.imag)
            if x < x_cross:
                inside = not inside
    return inside


def point_location(z: complex, star: StarPolygon, tol: float = TOL_GEO) -> Location:
    if abs(z - star.center) <= tol:
        return Location("center")
    for vid, v in enumerate(star.vertices):
        if abs(z - v) <= tol:
            return Location("vertex", index=vid)
    for eid, (i, j) in enumerate(star.edges):
        p, q = star.vertices[i], star.vertices[j]
        u = (q - p)
        t = ((z - p) / u).real
        dist = abs((z - p) - t * u)
        if dist <= tol and 0.0 < t < 1.0:
            return Location("edge", index=eid, parameter=t)
    if _point_in_polygon(z, star.vertices):
        return Location("interior")
    return Location("exterior")


#: kind codes of locate_kinds: KINDS[code] is point_location's kind string
KINDS = ("exterior", "interior", "edge", "vertex", "center")
EXTERIOR, INTERIOR, EDGE, VERTEX, CENTER = range(len(KINDS))


def _edge_division(u: complex) -> tuple[float, float, float]:
    """(alpha, beta, denom) with ((dx + i dy) / u).real equal, bit for bit, to
    (dx * alpha + dy * beta) / denom: CPython's complex-division steps, with
    the exact factor 1.0 on the term it leaves unscaled."""
    if abs(u.real) >= abs(u.imag):
        ratio = u.imag / u.real
        return 1.0, ratio, u.real + u.imag * ratio
    ratio = u.real / u.imag
    return ratio, 1.0, u.real * ratio + u.imag


def locate_kinds(zs, star: StarPolygon, tol: float = TOL_GEO) -> tuple[np.ndarray, int]:
    """Kind codes (indices into KINDS) of point_location for an array of
    points (of any shape, a single point included), and how many of them the
    exact kernel decided."""
    shape = np.shape(zs)
    z = np.atleast_1d(np.asarray(zs, dtype=complex))
    # signed distances to the edge lines, positive on the center's side
    s = ((z[..., None] - [line.foot for line in star.edge_lines])
         * np.conj([line.direction for line in star.edge_lines])).imag
    kinds = (np.count_nonzero(s < 0, axis=-1) <= 1).astype(np.int8)  # INTERIOR or EXTERIOR
    margin = 2 * tol + 1e-12
    near = np.any(np.abs(s) < margin, axis=-1) | (np.abs(z - star.center) < margin)
    kinds[near] = _exact_kinds(z[near], star, tol)
    return kinds.reshape(shape), int(np.count_nonzero(near))


def _exact_kinds(z: np.ndarray, star: StarPolygon, tol: float) -> np.ndarray:
    """point_location's kinds for an array of points, bit for bit: every
    point is tested against every star feature at once, along a last axis of
    features, with point_location's floating-point operations.  The kinds are
    assigned in the reverse of point_location's test order, each overwriting
    the last, so a point passing several tests keeps the kind of the first."""
    x, y = z.real[..., None], z.imag[..., None]
    # edge k joins vertex k to vertex k + 1 (see StarPolygon), so the edges
    # are also the consecutive vertex pairs of _point_in_polygon
    verts, nexts = star.vertices, star.vertices[1:] + star.vertices[:1]
    p, q = np.array(verts), np.array(nexts)
    u = q - p
    alpha, beta, denom = np.array([_edge_division(b - a) for a, b in zip(verts, nexts)]).T

    x_cross = p.real + (y - p.imag) * u.real / u.imag
    crossings = ((p.imag > y) != (q.imag > y)) & (x < x_cross)
    kinds = (np.count_nonzero(crossings, axis=-1) % 2).astype(np.int8)  # INTERIOR

    dx, dy = x - p.real, y - p.imag
    t = (dx * alpha + dy * beta) / denom
    dist = np.hypot(dx - t * u.real, dy - t * u.imag)
    kinds[np.any((dist <= tol) & (0.0 < t) & (t < 1.0), axis=-1)] = EDGE
    kinds[np.any(np.hypot(dx, dy) <= tol, axis=-1)] = VERTEX
    kinds[np.hypot(z.real - star.center.real, z.imag - star.center.imag) <= tol] = CENTER
    return kinds


def point_in_kite(z: complex, kite: tuple[complex, ...], tol: float = TOL_GEO) -> bool:
    """Closed membership in a convex-or-kite quadrilateral via crossing test."""
    for i in range(len(kite)):
        p, q = kite[i], kite[(i + 1) % len(kite)]
        t = ((z - p) / (q - p)).real
        t = min(max(t, 0.0), 1.0)
        if abs(z - (p + t * (q - p))) <= tol:
            return True
    return _point_in_polygon(z, kite)
