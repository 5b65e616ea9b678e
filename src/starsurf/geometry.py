"""Plane geometry of the (1,2,7) triangle and the regular stellated 5-gon.

Frame convention, inherited by every other module: the star center O is the
origin, the inner vertex A = a lies on the positive real axis, and the outer
vertex B = b*e^{i*pi/5} sits at +36 degrees.  Here

    a = 2 cos(2 pi/5) = 1/phi,   b = 2 cos(pi/5) = phi,   a*b = 1.

Angles of the triangle are exact rational multiples of pi and are stored as
Fractions alongside their float values, so rational-angle identities can be
tested exactly.

Point location reads the star as its five edge lines (star_lines): K is
the set of points inside at least four of them.  In the coordinates
p = (z - f) w of a line with foot f and conjugate direction w, a point is,
by the first test it passes: the center, within tol of it; a vertex, within
tol of one; on an edge, where |Im p| <= tol and tau_in < |Re p| < tau_out
for some line (the lowest such edge id); else interior if Im p >= 0 for at
least four lines and exterior if not, so a NaN or infinite point is
exterior.  point_location applies the rule to one point and returns a
Location (kind, edge or vertex index, edge parameter).  locate_kinds
applies it to an array and returns kind codes, indices into KINDS:
0 exterior, 1 interior, 2 edge, 3 vertex, 4 center.  Billiard
events read the same table.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

EPSILON = cmath.exp(2j * math.pi / 5)  # the rotation R: z -> eps*z

INNER_RADIUS = 2.0 * math.cos(2.0 * math.pi / 5.0)  # a
OUTER_RADIUS = 2.0 * math.cos(math.pi / 5.0)        # b
SIDE_C = 2.0 * math.sin(math.pi / 5.0)              # c = |AB|

#: Point-classification tolerance: well above 1e-14 arithmetic noise, well
#: below the smallest feature size (~0.1).
TOL_GEO = 1e-9

#: the center's id after the vertex ids 0..9; every Dihedral fixes it
CENTER_ID = 10


class Dihedral(namedtuple("Dihedral", "j l")):
    """The frame's symmetry z -> zeta^j conj^l(z), zeta = e^{i pi/5}, with j
    mod 10 and l mod 2: the star's R and mirrors T_m, and the curve's deck
    rotations eta -> zeta eta with conjugation.  It sends the phase zeta^i to
    zeta^index(i), and so acts on the indices of what sits at those phases;
    index is the one place the law is written."""

    __slots__ = ()

    def __new__(cls, j: int = 0, l: int = 0):
        return super().__new__(cls, j % 10, l % 2)

    def index(self, i: int, n: int = 10) -> int:
        return (self.j - i if self.l else self.j + i) % n

    def __mul__(self, other: Dihedral) -> Dihedral:
        """self after other."""
        return Dihedral(self.index(other.j), self.l + other.l)

    def inverse(self) -> Dihedral:
        return self if self.l else Dihedral(-self.j)

    def vertex(self, v: int) -> int:
        """Vertex v sits at zeta^v; the center stays."""
        return v if v == CENTER_ID else self.index(v)

    def edge(self, e: int) -> int:
        """Edge e joins vertices e and e + 1, which a mirror swaps."""
        return (self.index(e) - self.l) % 10

    def sheet(self, k: int) -> int:
        """Sheet k carries the phase zeta^(k+4), so the image of (xi, eta_k)
        is (conj^l xi, eta_sheet(k))."""
        return (self.index(k + 4) - 4) % 10

    def word(self, w):
        """A translation word's letters, for even j: u_k sits at zeta^(6k)
        and 6 = 1 (mod 5).  A tuple, or a (5, n) array's rows, as a tuple."""
        back = self.inverse()
        return tuple(w[back.index(k, 5)] for k in range(5))


#: R: z -> eps z, U: z -> conj z, and T[m]: z -> eps^(2m+1) conj z, the mirror in angle (2m+1) pi/5
R, U = Dihedral(2), Dihedral(0, 1)
T = tuple(Dihedral(4 * m + 2, 1) for m in range(5))


class UsageError(ValueError):
    """Bad user input, such as a start outside the star; the CLI exits 2."""


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

    def line_of_edge(self, eid: int) -> EdgeLine:
        for line in self.edge_lines:
            if eid in line.edge_ids:
                return line
        raise KeyError(eid)


@lru_cache(maxsize=1)
def build_star() -> StarPolygon:
    verts = []
    for k in range(5):
        verts.append(INNER_RADIUS * EPSILON ** k)
        verts.append(OUTER_RADIUS * cmath.exp(1j * (2 * k + 1) * math.pi / 5))
    edges = tuple((j, (j + 1) % 10) for j in range(10))

    # line k carries edges 2k + 9 and 2k + 2 (mod 10), the half-chords on
    # either side of the pentagon edge p q; its foot is the one from O
    lines = []
    for k in range(5):
        p, q = verts[2 * k], verts[(2 * k + 2) % 10]
        u = (q - p) / abs(q - p)
        lines.append(EdgeLine(foot=p + ((0 - p) / u).real * u, direction=u,
                              edge_ids=((2 * k + 9) % 10, (2 * k + 2) % 10)))
    return StarPolygon(center=0.0 + 0.0j, vertices=tuple(verts), edges=edges,
                       edge_lines=tuple(lines))


@dataclass(frozen=True)
class Location:
    """Result of point classification against the star."""

    kind: str  # "interior" | "edge" | "vertex" | "exterior" | "center"
    index: int | None = None     # edge id or vertex id
    parameter: float | None = None  # position along the edge in (0, 1)


@lru_cache(maxsize=1)
def star_lines() -> tuple[tuple[complex, complex, float, float, tuple], ...]:
    """The star's five edge lines, each in its coordinates p = (z - f) w, f
    the line's foot and w its conjugate unit direction, so that Im p > 0 on
    the center's side and tau = Re p runs along it.  Row k is (f, w, tau_in,
    tau_out, sides) for edge_lines[k]: |tau| of its inner and outer vertices
    and the (inner vertex, outer vertex, edge id) at tau < 0 and tau > 0."""
    star = build_star()
    rows = []
    for line in star.edge_lines:
        f, w = line.foot, line.direction.conjugate()
        sides = [None, None]
        for eid in line.edge_ids:
            ends = [(((star.vertices[vid] - f) * w).real, vid) for vid in star.edges[eid]]
            (tau_in, v_in), (tau_out, v_out) = sorted(ends, key=lambda end: abs(end[0]))
            sides[tau_in > 0.0] = (v_in, v_out, eid)
        # |tau| as the line's second edge has it; the first's differ by an ulp
        rows.append((f, w, abs(tau_in), abs(tau_out), tuple(sides)))
    return tuple(rows)


def apothem() -> float:
    """Distance from the center to the star's edge lines: the mean of the
    five, which agree to an ulp."""
    center = build_star().center
    dists = [abs(((center - f) * w).imag) for f, w, *_ in star_lines()]
    return sum(dists) / len(dists)


def point_location(z: complex, tol: float = TOL_GEO) -> Location:
    """The center, a vertex, an edge (the lowest edge id within tol of z) or
    else interior or exterior by the count of lines z lies inside."""
    star = build_star()
    if abs(z - star.center) <= tol:
        return Location("center")
    for vid, v in enumerate(star.vertices):
        if abs(z - v) <= tol:
            return Location("vertex", index=vid)
    inside, edge = 0, None
    for f, w, tau_in, tau_out, sides in star_lines():
        p = (z - f) * w
        inside += p.imag >= 0.0
        tau = abs(p.real)
        if -tol <= p.imag <= tol and tau_in < tau < tau_out:
            eid = sides[p.real > 0.0][2]
            if edge is None or eid < edge.index:
                # edge 2k runs from inner vertex 2k out, edge 2k + 1 back in
                t = (tau - tau_in) / (tau_out - tau_in)
                edge = Location("edge", index=eid, parameter=1.0 - t if eid % 2 else t)
    if edge is not None:
        return edge
    return Location("interior" if inside >= 4 else "exterior")


#: kind codes of locate_kinds: KINDS[code] is point_location's kind string
KINDS = ("exterior", "interior", "edge", "vertex", "center")
EXTERIOR, INTERIOR, EDGE, VERTEX, CENTER = range(len(KINDS))


@lru_cache(maxsize=1)
def _line_columns():
    import numpy as np
    return np.array([(f.real, f.imag, w.real, w.imag, t_in, t_out)
                     for f, w, t_in, t_out, _sides in star_lines()]).T


def locate_kinds(zs) -> tuple[np.ndarray, int]:
    """point_location's kind codes (indices into KINDS) for an array of
    points of any shape, and how many are near the boundary: within TOL_GEO
    of an edge line or in the square of half-width TOL_GEO about the center,
    the only points the center, vertex and edge tests can pass.  Products
    are spelled out as CPython forms them, so both forms round alike."""
    import numpy as np
    tol, star = TOL_GEO, build_star()
    shape = np.shape(zs)
    z = np.asarray(zs, dtype=complex).ravel()
    fx, fy, wx, wy, tau_in, tau_out = _line_columns()[..., None]
    dx, dy = z.real - fx, z.imag - fy  # one row per line
    with np.errstate(invalid="ignore"):  # NaN where both parts are infinite: exterior
        s = dx * wy + dy * wx              # Im p
    kinds = ((s >= 0.0).sum(axis=0) >= 4).astype(np.int8)  # INTERIOR or EXTERIOR
    c = star.center
    near = ((np.abs(s) <= tol).any(axis=0)
            | ((np.abs(z.real - c.real) <= tol) & (np.abs(z.imag - c.imag) <= tol)))
    if near.any():
        s, zn, points = s[:, near], z[near], np.array((c,) + star.vertices)[:, None]
        tau = np.abs(dx[:, near] * wx - dy[:, near] * wy)
        edge = ((np.abs(s) <= tol) & (tau_in < tau) & (tau < tau_out)).any(axis=0)
        at = np.hypot(zn.real - points.real, zn.imag - points.imag) <= tol
        kinds[near] = np.where(at[0], CENTER, np.where(
            at[1:].any(axis=0), VERTEX, np.where(edge, EDGE, kinds[near])))
    return kinds.reshape(shape), int(np.count_nonzero(near))
