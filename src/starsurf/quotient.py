"""Reflection identifications on the star and the quotient cell census.

The five reflections T_m = R^{2m+1} U fix the rays at angles (2m+1) pi/5
and map the star onto itself.  Each boundary edge is identified with the
collinear edge on the same chord (its partner under the reflection whose
axis is perpendicular to that chord), giving five unordered pairs.  The
rotation group acts on everything; orbit partitions are computed literally
by numeric image matching.

Cell arithmetic for the quotient surface: 2 face orbits, 2 vertex orbits,
and 10 edge-orbit labels: the 4 geometric edge classes (center-to-inner,
center-to-outer, and the two boundary classes) each counted once per
orientation, plus the 2 rotation orbits of ordered boundary pairs.  That
yields chi = 2 - 10 + 2 = -6 and genus 4, matching Riemann-Hurwitz.
Point-set quotient counts are reported alongside in the metadata.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import EPSILON, StarPolygon, build_star

MATCH_TOL = 1e-10


class PairingFailure(RuntimeError):
    """Some boundary edge has no reflection partner among the edges."""


class CellCountMismatch(RuntimeError):
    """Computed orbit counts differ from the expected census."""


@dataclass(frozen=True)
class Reflection:
    """T_m = R^{2m+1} U: z -> eps^{2m+1} conj(z), an involution.

    Fixes the ray at angle (2m+1) pi/5 pointwise (through the m-th outer
    vertex) and maps the star onto itself.
    """

    m: int

    @property
    def phase(self) -> complex:
        return EPSILON ** (2 * self.m + 1)

    @property
    def fixed_ray_angle(self) -> float:
        return (2 * self.m + 1) * math.pi / 5

    @property
    def matrix(self) -> np.ndarray:
        c, s = self.phase.real, self.phase.imag
        # eps^{2m+1} conj(z) as a real-linear map
        return np.array([[c, s], [s, -c]])

    def __call__(self, z: complex) -> complex:
        return self.phase * z.conjugate()


def build_reflections() -> list[Reflection]:
    return [Reflection(m) for m in range(5)]


def _same_edge(p0: complex, p1: complex, q0: complex, q1: complex,
               tol: float = MATCH_TOL) -> bool:
    return ((abs(p0 - q0) < tol and abs(p1 - q1) < tol)
            or (abs(p0 - q1) < tol and abs(p1 - q0) < tol))


def _edge_image(star: StarPolygon, eid: int, transform) -> int | None:
    p, q = star.edge_endpoints(eid)
    tp, tq = transform(p), transform(q)
    for j in range(len(star.edges)):
        r, s = star.edge_endpoints(j)
        if _same_edge(tp, tq, r, s):
            return j
    return None


@dataclass(frozen=True)
class EdgePairing:
    """Boundary edge identification: five unordered pairs plus orbit data."""

    pairs: tuple[tuple[int, int], ...]         # (eid, partner eid), eid < partner
    reflection_of_pair: tuple[int, ...]        # index m of the pairing T_m
    reflection_of_edge: tuple[int, ...]        # m of T_m(E) for each edge id E
    unordered_orbits: tuple[tuple[int, ...], ...]   # R-orbits on pair indices
    ordered_orbits: tuple[tuple[int, ...], ...]     # R-orbits on ordered pairs

    @property
    def unordered_orbit_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(o) for o in self.unordered_orbits), reverse=True))

    @property
    def ordered_orbit_count(self) -> int:
        return len(self.ordered_orbits)


@lru_cache(maxsize=4)
def edge_pairing(star: StarPolygon | None = None) -> EdgePairing:
    """Pair each boundary edge with its collinear chord partner.

    The partner is T_m(E) for the unique m whose image is a non-adjacent
    edge; adjacency-respecting matching reproduces the chord pairing.
    """
    if star is None:
        star = build_star()
    reflections = build_reflections()
    partner = {}
    partner_m = {}
    for eid in range(10):
        found = None
        for refl in reflections:
            img = _edge_image(star, eid, refl)
            if img is None or img == eid:
                continue
            i0, i1 = star.edges[eid]
            j0, j1 = star.edges[img]
            if {i0, i1} & {j0, j1}:
                continue  # adjacent edges share a vertex; not a chord pair
            # chord partner: the image must be collinear with the source
            if star.line_of_edge(eid) is star.line_of_edge(img):
                found = (img, refl.m)
                break
        if found is None:
            raise PairingFailure(f"edge {eid} has no reflection partner")
        partner[eid] = found[0]
        partner_m[eid] = found[1]

    for eid, img in partner.items():
        if partner[img] != eid:
            raise PairingFailure("pairing is not involutive")

    pairs = tuple(sorted({(min(e, p), max(e, p)) for e, p in partner.items()}))
    if len(pairs) != 5:
        raise PairingFailure(f"expected 5 pairs, got {len(pairs)}")
    refl_of_pair = tuple(partner_m[p[0]] for p in pairs)

    def rotate_edge(eid: int) -> int:
        img = _edge_image(star, eid, lambda z: EPSILON * z)
        if img is None:
            raise PairingFailure("rotation does not permute the edges")
        return img

    # orbits of unordered pairs under the rotation
    def pair_index(e0: int, e1: int) -> int:
        key = (min(e0, e1), max(e0, e1))
        return pairs.index(key)

    unordered = _orbits(range(5), lambda i: pair_index(*map(rotate_edge, pairs[i])))

    # ordered pairs (E, E'): orientation-sensitive doubling
    ordered_items = [(e, p) for (e, p) in pairs] + [(p, e) for (e, p) in pairs]
    index_of = {it: i for i, it in enumerate(ordered_items)}
    ordered = _orbits(range(10), lambda i: index_of[
        (rotate_edge(ordered_items[i][0]), rotate_edge(ordered_items[i][1]))])

    return EdgePairing(
        pairs=pairs,
        reflection_of_pair=refl_of_pair,
        reflection_of_edge=tuple(partner_m[e] for e in range(10)),
        unordered_orbits=unordered,
        ordered_orbits=ordered,
    )


def _orbits(items, step) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of items under the cyclic action generated by step."""
    seen = set()
    orbits = []
    for i in items:
        if i in seen:
            continue
        orbit = [i]
        seen.add(i)
        j = step(i)
        while j not in seen:
            orbit.append(j)
            seen.add(j)
            j = step(j)
        orbits.append(tuple(orbit))
    return tuple(orbits)


@dataclass(frozen=True)
class TriangulationCensus:
    """Rotation-invariant triangulation of the punctured star.

    10 open triangles (two per sector), 20 open edges (10 spokes from the
    center, 10 boundary edges), 10 vertices.  Orbit partitions are under the
    rotation subgroup; oriented_edge_orbits doubles each undirected class.
    """

    faces: tuple[tuple[complex, complex, complex], ...]
    edges: tuple[tuple[complex, complex], ...]
    vertices: tuple[complex, ...]
    face_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[int, ...], ...]          # undirected classes
    oriented_edge_orbits: tuple[tuple[int, ...], ...]  # orientation-doubled
    vertex_orbits: tuple[tuple[int, ...], ...]
    pairing: EdgePairing
    cone_angles: dict[str, float] = field(default_factory=dict)


@lru_cache(maxsize=4)
def triangulate(star: StarPolygon | None = None) -> TriangulationCensus:
    if star is None:
        star = build_star()
    O = star.center
    inner = [star.vertices[2 * k] for k in range(5)]       # C_k
    outer = [star.vertices[2 * k + 1] for k in range(5)]   # D_k

    faces = []
    for j in range(5):
        faces.append((O, outer[j], inner[j]))              # R^j(O D C)
        faces.append((O, outer[(j - 1) % 5], inner[j]))    # R^j(O D4 C)
    edges = []
    for j in range(5):
        edges.append((O, inner[j]))                        # spoke O C_j
        edges.append((O, outer[j]))                        # spoke O D_j
        edges.append((inner[j], outer[j]))                 # boundary C_j D_j
        edges.append((inner[j], outer[(j - 1) % 5]))       # boundary C_j D_{j-1}
    vertices = inner + outer

    def find_face(f):
        for i, g in enumerate(faces):
            if all(any(abs(a - b) < MATCH_TOL for b in g) for a in f):
                return i
        raise KeyError(f)

    def find_edge(e):
        for i, g in enumerate(edges):
            if _same_edge(e[0], e[1], g[0], g[1]):
                return i
        raise KeyError(e)

    def find_vertex(v):
        for i, g in enumerate(vertices):
            if abs(v - g) < MATCH_TOL:
                return i
        raise KeyError(v)

    rot = lambda z: EPSILON * z
    face_orbits = _orbits(range(10),
                          lambda i: find_face(tuple(rot(v) for v in faces[i])))
    edge_orbits = _orbits(range(20),
                          lambda i: find_edge(tuple(rot(v) for v in edges[i])))
    vertex_orbits = _orbits(range(10), lambda i: find_vertex(rot(vertices[i])))

    # orientation-sensitive doubling: directed edges (tail, head) and
    # (head, tail) fall in distinct labeled orbits
    directed = [(i, 0) for i in range(20)] + [(i, 1) for i in range(20)]
    didx = {d: n for n, d in enumerate(directed)}
    oriented_edge_orbits = _orbits(
        range(40),
        lambda n: didx[(find_edge(tuple(rot(v) for v in edges[directed[n][0]])),
                        directed[n][1])])

    pairing = edge_pairing(star)

    # cone angles at the two vertex orbits: sum of incident triangle corner
    # angles over the orbit, divided by the group order
    cone = {}
    for label, pts in (("inner", inner), ("outer", outer)):
        total = 0.0
        for v in pts:
            for f in faces:
                for i, w in enumerate(f):
                    if abs(w - v) < MATCH_TOL:
                        u1 = f[(i + 1) % 3] - w
                        u2 = f[(i + 2) % 3] - w
                        total += abs(cmath.phase(u2 / u1))
        cone[label] = total / 5.0
    census = TriangulationCensus(
        faces=tuple(faces),
        edges=tuple(edges),
        vertices=tuple(vertices),
        face_orbits=face_orbits,
        edge_orbits=edge_orbits,
        oriented_edge_orbits=oriented_edge_orbits,
        vertex_orbits=vertex_orbits,
        pairing=pairing,
        cone_angles=cone,
    )
    return census


def quotient_euler_genus(census: TriangulationCensus | None = None) -> tuple[int, int, dict]:
    """Euler characteristic and genus of the quotient surface.

    Returns (chi, genus, metadata).  Edge count 10 = 2 ordered-pair orbits
    + 8 oriented edge-class labels; the metadata also carries the point-set
    quotient counts, which give chi = 2 (with center and vertices) and
    chi = -1 (without), neither of which matches 2 - 2g for the curve.
    """
    if census is None:
        census = triangulate()
    faces = len(census.face_orbits)
    vertices = len(census.vertex_orbits)
    pair_orbits = census.pairing.ordered_orbit_count
    oriented_labels = len(census.oriented_edge_orbits)
    if faces != 2 or vertices != 2:
        raise CellCountMismatch(
            f"face/vertex orbit counts {faces}/{vertices}, expected 2/2")
    if oriented_labels != 8:
        raise CellCountMismatch(
            f"{oriented_labels} oriented edge-class labels, expected 8")
    if pair_orbits != 2:
        raise CellCountMismatch(
            f"{pair_orbits} ordered-pair orbits, expected 2")
    edges = pair_orbits + oriented_labels
    chi = vertices - edges + faces
    if (2 - chi) % 2 != 0:
        raise CellCountMismatch(f"chi = {chi} is not of the form 2 - 2g")
    genus = (2 - chi) // 2

    # point-set quotient cell counts, for the record
    glued_boundary_classes = 1        # all 10 boundary edges merge under R + gluing
    spoke_classes = 2                 # center-inner and center-outer spokes
    meta = {
        "unordered_pair_orbit_sizes": census.pairing.unordered_orbit_sizes,
        "ordered_pair_orbit_sizes": tuple(
            sorted((len(o) for o in census.pairing.ordered_orbits), reverse=True)),
        "cone_angles": dict(census.cone_angles),
        "pointset_with_center": {"V": 3, "E": spoke_classes + glued_boundary_classes,
                                 "F": 2, "chi": 3 - 3 + 2},
        "pointset_without_center": {"V": 0, "E": spoke_classes + glued_boundary_classes,
                                    "F": 2, "chi": 0 - 3 + 2},
    }
    return chi, genus, meta
