import cmath
import math

from starsurf.geometry import EPSILON, build_star
from starsurf.quotient import (CENTER_ID, edge_pairing, quotient_euler_genus,
                               reflect_edge, reflect_vertex, rotate, triangulate)

STAR = build_star()


# ---------------------------------------- the float oracles of R and T_m

def _R(z: complex) -> complex:
    return EPSILON * z


def _T(m: int):
    return lambda z: EPSILON ** (2 * m + 1) * z.conjugate()


def _rotate_back(i: int) -> int:
    return rotate(rotate(rotate(rotate(i))))


def test_rotation_on_ids_matches_eps_z():
    for v in range(10):
        assert abs(_R(STAR.vertices[v]) - STAR.vertices[rotate(v)]) < 1e-14
    for e in range(10):
        p, q = STAR.edge_endpoints(e)
        r, s = STAR.edge_endpoints(rotate(e))
        assert abs(_R(p) - r) < 1e-14 and abs(_R(q) - s) < 1e-14
    assert rotate(CENTER_ID) == CENTER_ID


def test_reflections_on_ids_match_the_float_maps():
    for m in range(5):
        T = _T(m)
        for v in range(10):
            assert abs(T(STAR.vertices[v]) - STAR.vertices[reflect_vertex(m, v)]) < 1e-14
        for e in range(10):
            # T_m reverses orientation: the image edge runs the other way
            p, q = STAR.edge_endpoints(e)
            r, s = STAR.edge_endpoints(reflect_edge(m, e))
            assert abs(T(p) - s) < 1e-14 and abs(T(q) - r) < 1e-14
        assert reflect_vertex(m, CENTER_ID) == CENTER_ID


def test_dihedral_relations_on_ids():
    for m in range(5):
        for i in range(10):
            assert reflect_vertex(m, reflect_vertex(m, i)) == i
            assert reflect_edge(m, reflect_edge(m, i)) == i
            # R T_m R^-1 = T_{m+1}
            assert rotate(reflect_vertex(m, _rotate_back(i))) == reflect_vertex((m + 1) % 5, i)
            assert rotate(reflect_edge(m, _rotate_back(i))) == reflect_edge((m + 1) % 5, i)
    for i in range(10):
        assert _rotate_back(rotate(i)) == i and rotate(i) != i


def test_reflections_are_involutions_fixing_their_rays():
    # T_m fixes exactly the two vertices on its axis: the outer vertex
    # 2m + 1 on the ray and the inner vertex 2m + 6 opposite it
    for m in range(5):
        fixed = [v for v in range(10) if reflect_vertex(m, v) == v]
        assert fixed == sorted({2 * m + 1, (2 * m + 6) % 10})
        assert all(reflect_vertex(m, reflect_vertex(m, v)) == v for v in range(10))
        assert all(reflect_edge(m, e) != e for e in range(10))


def test_fixed_ray_angles():
    for m in range(5):
        ray = cmath.exp(1j * (2 * m + 1) * math.pi / 5)
        for v in range(10):
            if reflect_vertex(m, v) == v:
                assert abs((STAR.vertices[v] / ray).imag) < 1e-14


def test_reflection_composition_identity():
    # T_1 = R^3 U on ids: U (conjugation) is v -> -v
    for v in range(10):
        assert reflect_vertex(1, v) == rotate(rotate(rotate(-v % 10)))


def test_reflections_preserve_the_star():
    for m in range(5):
        assert sorted(reflect_vertex(m, v) for v in range(10)) == list(range(10))
        assert sorted(reflect_edge(m, e) for e in range(10)) == list(range(10))
        assert all(reflect_vertex(m, v) % 2 == v % 2 for v in range(10))


def test_edge_pairing_structure():
    pairing = edge_pairing()
    assert len(pairing.pairs) == 5
    seen = set()
    for e0, e1 in pairing.pairs:
        seen.update((e0, e1))
        # non-adjacent: no shared vertex
        assert not set(STAR.edges[e0]) & set(STAR.edges[e1])
        # collinear: both edges on one of the five lines
        assert STAR.line_of_edge(e0) is STAR.line_of_edge(e1)
    assert seen == set(range(10))


def test_edge_pairing_reflections_swap_partners():
    pairing = edge_pairing()
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        assert reflect_edge(m, e0) == e1 and reflect_edge(m, e1) == e0
        p, q = STAR.edge_endpoints(e0)
        r, s = STAR.edge_endpoints(e1)
        t = _T(m)
        assert min(abs(t(p) - r) + abs(t(q) - s),
                   abs(t(p) - s) + abs(t(q) - r)) < 1e-12


def test_reflection_of_edge_agrees_with_pair_table():
    pairing = edge_pairing()
    assert len(pairing.reflection_of_edge) == 10
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        assert pairing.reflection_of_edge[e0] == m
        assert pairing.reflection_of_edge[e1] == m


def test_edge_pair_orbits_measured_sizes():
    # the five chord pairs form one rotation orbit; ordered pairs form two.
    # orbit sizes under a cyclic group of order five divide five.
    pairing = edge_pairing()
    assert pairing.unordered_orbit_sizes == (5,)
    assert pairing.ordered_orbit_count == 2
    assert sorted(len(o) for o in pairing.ordered_orbits) == [5, 5]


def test_census_cell_counts():
    census = triangulate()
    assert len(census.faces) == 10
    assert len(census.edges) == 20
    assert len(census.vertices) == 10


def test_census_orbits():
    census = triangulate()
    assert sorted(len(o) for o in census.face_orbits) == [5, 5]
    assert sorted(len(o) for o in census.vertex_orbits) == [5, 5]
    # four undirected edge classes of size five; eight oriented labels
    assert sorted(len(o) for o in census.edge_orbits) == [5, 5, 5, 5]
    assert len(census.oriented_edge_orbits) == 8
    assert all(len(o) == 5 for o in census.oriented_edge_orbits)


def test_census_faces_are_the_star_triangles():
    # each face is the center and an edge's two ends, as float triangles too
    census = triangulate()
    points = STAR.vertices + (STAR.center,)
    assert sorted(tuple(sorted(f[1:])) for f in census.faces) == sorted(
        tuple(sorted(STAR.edges[e])) for e in range(10))
    for f in census.faces:
        assert f[0] == CENTER_ID
        z0, z1, z2 = (points[v] for v in f)
        assert abs(((z1 - z0).conjugate() * (z2 - z0)).imag) > 0.1


def test_rotation_acts_freely_on_faces():
    census = triangulate()
    for face in census.faces:
        rotated = tuple(map(rotate, face))
        assert rotated in census.faces and set(rotated) != set(face)


def test_vertex_orbits_split_inner_outer():
    census = triangulate()
    for orbit in census.vertex_orbits:
        parities = {census.vertices[i] % 2 for i in orbit}
        assert len(parities) == 1
        radii = {round(abs(STAR.vertices[census.vertices[i]]), 6) for i in orbit}
        assert len(radii) == 1


def test_cone_angles():
    census = triangulate()
    assert abs(census.cone_angles["inner"] - 7 * math.pi / 5) < 1e-12
    assert abs(census.cone_angles["outer"] - math.pi / 5) < 1e-12


def test_quotient_euler_genus():
    chi, genus, meta = quotient_euler_genus()
    assert chi == -6
    assert genus == 4
    assert meta["unordered_pair_orbit_sizes"] == (5,)
    assert meta["ordered_pair_orbit_sizes"] == (5, 5)
    # the double of K: two centers and two classes of ten corners
    assert (meta["V"], meta["E"], meta["F"]) == (4, 30, 20)
    assert meta["vertex_class_sizes"] == (10, 10, 1, 1)
    want = (14 * math.pi, 2 * math.pi, 2 * math.pi, 2 * math.pi)
    assert all(abs(a - b) < 1e-12 for a, b in zip(meta["cone_angle_sums"], want, strict=True))


def test_gauss_bonnet_on_the_double_census():
    # a flat cone metric: sum over the vertices of (2 pi - cone angle) = 2 pi chi
    chi, _genus, meta = quotient_euler_genus()
    curvature = sum(2 * math.pi - theta for theta in meta["cone_angle_sums"])
    assert abs(curvature - 2 * math.pi * chi) < 1e-12
    assert abs(curvature + 12 * math.pi) < 1e-12


def test_genus_matches_riemann_hurwitz():
    from starsurf.covering import genus_riemann_hurwitz
    _chi, genus, _meta = quotient_euler_genus()
    assert genus == genus_riemann_hurwitz() == 4
