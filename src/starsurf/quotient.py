"""Reflection identifications on the star and the quotient cell census.

Everything here is index arithmetic on the star's ids: vertex v sits at
angle v pi/5 (even v inner, odd v outer), edge e joins vertices e and
e + 1, and the center has its own id CENTER_ID.  The rotation R: z -> eps z
and the reflection T_m = R^{2m+1} U: z -> eps^{2m+1} conj(z), which fixes
the ray at angle (2m+1) pi/5, act on them as the geometry.Dihedral elements
R and T[m].  Points are read from star.vertices only for the corner angles.

Each boundary edge is identified with the collinear edge on the same chord,
its image under one T_m, giving five unordered pairs.  The triangulation of
the punctured star has 10 faces, 20 edges and 10 vertices, and its orbits
under R give the 2 face, 2 vertex and 8 oriented edge classes.

The genus comes from the curve itself: sheets k and k + 5 develop onto the
same sector, so the curve is two copies of K, each boundary edge of one
copy glued to its partner in the other by T_m.  Union-find on the
(copy, vertex) corners gives its vertices, and its Euler characteristic is
V - E + F = 4 - 30 + 20 = -6, genus 4.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .geometry import CENTER_ID, R, T, build_star


class CellCountMismatch(RuntimeError):
    """The census is not that of a closed orientable surface."""


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


@lru_cache(maxsize=1)
def edge_pairing() -> EdgePairing:
    """Pair each boundary edge with the T_m image on its own line."""
    # edges e and e' share a line for one m alone: 4m = e + e' - 1 (mod 10)
    line_of = build_star().line_of_edge
    partner_m = [next(m for m in range(5) if T[m].edge(e) in line_of(e).edge_ids)
                 for e in range(10)]
    pairs = tuple(sorted({tuple(sorted((e, T[m].edge(e))))
                          for e, m in enumerate(partner_m)}))
    ordered = pairs + tuple(p[::-1] for p in pairs)
    return EdgePairing(
        pairs=pairs,
        reflection_of_pair=tuple(partner_m[p[0]] for p in pairs),
        reflection_of_edge=tuple(partner_m),
        unordered_orbits=_rotation_orbits(pairs, key=frozenset),
        ordered_orbits=_rotation_orbits(ordered),
    )


def _rotation_orbits(items, key=tuple) -> tuple[tuple[int, ...], ...]:
    """R-orbits on the indices of items, each a tuple of vertex or edge ids,
    on which R acts alike; key=frozenset takes the tuples as unordered."""
    index = {key(it): n for n, it in enumerate(items)}
    seen, orbits = set(), []
    for n in range(len(items)):
        orbit = []
        while n not in seen:
            orbit.append(n)
            seen.add(n)
            n = index[key(map(R.vertex, items[n]))]
        if orbit:
            orbits.append(tuple(orbit))
    return tuple(orbits)


@dataclass(frozen=True)
class TriangulationCensus:
    """Rotation-invariant triangulation of the punctured star, on ids.

    10 open triangles (two per sector), 20 open edges (10 spokes from the
    center, 10 boundary edges), 10 vertices.  Orbit partitions are under the
    rotation subgroup; oriented_edge_orbits doubles each undirected class.
    corner_angles[v] lists the triangles' corner angles at vertex id v (the
    center last), in face order.
    """

    faces: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]                          # inner, then outer ids
    face_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[int, ...], ...]          # undirected classes
    oriented_edge_orbits: tuple[tuple[int, ...], ...]  # orientation-doubled
    vertex_orbits: tuple[tuple[int, ...], ...]
    pairing: EdgePairing
    corner_angles: tuple[tuple[float, ...], ...]
    cone_angles: dict[str, float]


@lru_cache(maxsize=1)
def triangulate() -> TriangulationCensus:
    star = build_star()
    inner, outer = tuple(range(0, 10, 2)), tuple(range(1, 10, 2))
    faces, edges = [], []
    for v in inner:
        faces += [(CENTER_ID, v + 1, v), (CENTER_ID, (v - 1) % 10, v)]
        edges += [(CENTER_ID, v), (CENTER_ID, v + 1), (v, v + 1), (v, (v - 1) % 10)]

    points = star.vertices + (star.center,)
    corners = [[] for _ in points]
    for f in faces:
        for i, v in enumerate(f):
            u1, u2 = (points[f[(i + k) % 3]] - points[v] for k in (1, 2))
            corners[v].append(abs(cmath.phase(u2 / u1)))
    # cone angles at the two vertex orbits: their corner angles over the
    # group order
    cone = {label: sum(a for v in vs for a in corners[v]) / 5.0
            for label, vs in (("inner", inner), ("outer", outer))}
    return TriangulationCensus(
        faces=tuple(faces),
        edges=tuple(edges),
        vertices=inner + outer,
        face_orbits=_rotation_orbits(faces),
        edge_orbits=_rotation_orbits(edges),
        oriented_edge_orbits=_rotation_orbits(edges + [e[::-1] for e in edges]),
        vertex_orbits=_rotation_orbits([(v,) for v in inner + outer]),
        pairing=edge_pairing(),
        corner_angles=tuple(map(tuple, corners)),
        cone_angles=cone,
    )


def quotient_euler_genus(census: TriangulationCensus | None = None) -> tuple[int, int, dict]:
    """Euler characteristic and genus of the curve, the double of K.

    Two copies of the triangulated star, boundary edge e of each copy glued
    to its partner T_m(e) in the other.  Faces and spokes stay apart (F = 20,
    and 20 spokes); the 20 boundary edges glue in pairs (10 more edges); the
    corners (copy, v) merge along the glued edges' ends, by union-find.
    Returns (chi, genus, metadata); the metadata has V, E, F, the sizes of
    the vertex classes and each class's cone angle, the sum of its corner
    angles.
    """
    if census is None:
        census = triangulate()
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    # gluing edge e of copy 0 to T_m(e) of copy 1; the partner's own entry
    # glues copy 1's e to copy 0's T_m(e)
    for e, m in enumerate(census.pairing.reflection_of_edge):
        for v in (e, (e + 1) % 10):
            parent[find((0, v))] = find((1, T[m].vertex(v)))
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for corner in [(c, v) for c in (0, 1) for v in (*census.vertices, CENTER_ID)]:
        classes.setdefault(find(corner), []).append(corner)
    spokes = sum(CENTER_ID in edge for edge in census.edges)
    boundary = len(census.edges) - spokes
    # each copy's spokes stay apart; its boundary edges glue to the other's
    V, E, F = len(classes), 2 * spokes + boundary, 2 * len(census.faces)
    chi = V - E + F
    if chi % 2 != 0:
        raise CellCountMismatch(f"chi = {chi} is not of the form 2 - 2g")
    meta = {
        "unordered_pair_orbit_sizes": census.pairing.unordered_orbit_sizes,
        "ordered_pair_orbit_sizes": tuple(
            sorted((len(o) for o in census.pairing.ordered_orbits), reverse=True)),
        "V": V, "E": E, "F": F,
        "vertex_class_sizes": tuple(len(cl) for cl in classes.values()),
        "cone_angle_sums": tuple(sum(sum(census.corner_angles[v]) for _c, v in cl)
                                 for cl in classes.values()),
    }
    return chi, (2 - chi) // 2, meta
