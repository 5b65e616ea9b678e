import cmath
import math

from starsurf.geometry import EPSILON, R, T, U, build_star
from starsurf.quotient import CENTER_ID, edge_pairing, quotient_euler_genus, triangulate

STAR = build_star()


# ---------------------------------------- the float oracles of R and T_m

def _R(z: complex) -> complex:
    return EPSILON * z


def _T(m: int):
    return lambda z: EPSILON ** (2 * m + 1) * z.conjugate()


def test_rotation_on_ids_matches_eps_z():
    for v in range(10):
        assert abs(_R(STAR.vertices[v]) - STAR.vertices[R.vertex(v)]) < 1e-14
    for e in range(10):
        p, q = STAR.edge_endpoints(e)
        r, s = STAR.edge_endpoints(R.edge(e))
        assert abs(_R(p) - r) < 1e-14 and abs(_R(q) - s) < 1e-14
    assert R.vertex(CENTER_ID) == CENTER_ID


def test_reflections_on_ids_match_the_float_maps():
    for m in range(5):
        mirror = _T(m)
        for v in range(10):
            assert abs(mirror(STAR.vertices[v]) - STAR.vertices[T[m].vertex(v)]) < 1e-14
        for e in range(10):
            # T_m reverses orientation: the image edge runs the other way
            p, q = STAR.edge_endpoints(e)
            r, s = STAR.edge_endpoints(T[m].edge(e))
            assert abs(mirror(p) - s) < 1e-14 and abs(mirror(q) - r) < 1e-14
        assert T[m].vertex(CENTER_ID) == CENTER_ID


def test_dihedral_relations_on_ids():
    back = R.inverse()
    for m in range(5):
        # R T_m R^-1 = T_{m+1}, as elements and on ids
        assert R * T[m] * back == T[(m + 1) % 5]
        for i in range(10):
            assert T[m].vertex(T[m].vertex(i)) == i
            assert T[m].edge(T[m].edge(i)) == i
            assert R.vertex(T[m].vertex(back.vertex(i))) == T[(m + 1) % 5].vertex(i)
            assert R.edge(T[m].edge(back.edge(i))) == T[(m + 1) % 5].edge(i)
    for i in range(10):
        assert back.vertex(R.vertex(i)) == i and R.vertex(i) != i


def test_reflections_are_involutions_fixing_their_rays():
    # T_m fixes exactly the two vertices on its axis: the outer vertex
    # 2m + 1 on the ray and the inner vertex 2m + 6 opposite it
    for m in range(5):
        fixed = [v for v in range(10) if T[m].vertex(v) == v]
        assert fixed == sorted({2 * m + 1, (2 * m + 6) % 10})
        assert all(T[m].vertex(T[m].vertex(v)) == v for v in range(10))
        assert all(T[m].edge(e) != e for e in range(10))


def test_fixed_ray_angles():
    for m in range(5):
        ray = cmath.exp(1j * (2 * m + 1) * math.pi / 5)
        for v in range(10):
            if T[m].vertex(v) == v:
                assert abs((STAR.vertices[v] / ray).imag) < 1e-14


def test_reflection_composition_identity():
    # T_1 = R^3 U on ids: U (conjugation) is v -> -v
    assert T[1] == R * R * R * U
    for v in range(10):
        assert U.vertex(v) == -v % 10
        assert T[1].vertex(v) == R.vertex(R.vertex(R.vertex(U.vertex(v))))


def test_reflections_preserve_the_star():
    for m in range(5):
        assert sorted(T[m].vertex(v) for v in range(10)) == list(range(10))
        assert sorted(T[m].edge(e) for e in range(10)) == list(range(10))
        assert all(T[m].vertex(v) % 2 == v % 2 for v in range(10))


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
        assert T[m].edge(e0) == e1 and T[m].edge(e1) == e0
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
        rotated = tuple(map(R.vertex, face))
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
    from starsurf.covering import genus_riemann_hurwitz, ramification_report
    _chi, genus, _meta = quotient_euler_genus()
    assert genus == genus_riemann_hurwitz(ramification_report()) == 4
