import cmath
import math
import random

from starsurf.geometry import EPSILON, build_star
from starsurf.quotient import (build_reflections, edge_pairing,
                               quotient_euler_genus, triangulate)

STAR = build_star()


def test_reflections_are_involutions_fixing_their_rays():
    rng = random.Random(5)
    for refl in build_reflections():
        # matrix form squares to the identity
        m2 = refl.matrix @ refl.matrix
        assert abs(m2[0, 0] - 1) < 1e-14 and abs(m2[1, 1] - 1) < 1e-14
        assert abs(m2[0, 1]) < 1e-14 and abs(m2[1, 0]) < 1e-14
        # pointwise involution and fixed ray
        ray = cmath.exp(1j * refl.fixed_ray_angle)
        for t in (0.1 * n for n in range(1, 11)):
            assert abs(refl(t * ray) - t * ray) < 1e-12
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(refl(refl(z)) - z) < 1e-14


def test_fixed_ray_angles():
    for m, refl in enumerate(build_reflections()):
        assert abs(refl.fixed_ray_angle - (2 * m + 1) * math.pi / 5) < 1e-15


def test_reflection_composition_identity():
    # T_1 = R^3 U as maps: agreement on random points
    rng = random.Random(7)
    t1 = build_reflections()[1]
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(t1(z) - EPSILON ** 3 * z.conjugate()) < 1e-12


def test_reflections_preserve_the_star():
    for refl in build_reflections():
        for v in STAR.vertices:
            image = refl(v)
            assert min(abs(image - w) for w in STAR.vertices) < 1e-12


def test_edge_pairing_structure():
    pairing = edge_pairing(STAR)
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
    pairing = edge_pairing(STAR)
    refls = build_reflections()
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        p, q = STAR.edge_endpoints(e0)
        r, s = STAR.edge_endpoints(e1)
        t = refls[m]
        assert min(abs(t(p) - r) + abs(t(q) - s),
                   abs(t(p) - s) + abs(t(q) - r)) < 1e-12


def test_reflection_of_edge_agrees_with_pair_table():
    pairing = edge_pairing(STAR)
    assert len(pairing.reflection_of_edge) == 10
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        assert pairing.reflection_of_edge[e0] == m
        assert pairing.reflection_of_edge[e1] == m


def test_edge_pair_orbits_measured_sizes():
    # the five chord pairs form one rotation orbit; ordered pairs form two.
    # orbit sizes under a cyclic group of order five divide five.
    pairing = edge_pairing(STAR)
    assert pairing.unordered_orbit_sizes == (5,)
    assert pairing.ordered_orbit_count == 2
    assert sorted(len(o) for o in pairing.ordered_orbits) == [5, 5]


def test_census_cell_counts():
    census = triangulate(STAR)
    assert len(census.faces) == 10
    assert len(census.edges) == 20
    assert len(census.vertices) == 10


def test_census_orbits():
    census = triangulate(STAR)
    assert sorted(len(o) for o in census.face_orbits) == [5, 5]
    assert sorted(len(o) for o in census.vertex_orbits) == [5, 5]
    # four undirected edge classes of size five; eight oriented labels
    assert sorted(len(o) for o in census.edge_orbits) == [5, 5, 5, 5]
    assert len(census.oriented_edge_orbits) == 8
    assert all(len(o) == 5 for o in census.oriented_edge_orbits)


def test_rotation_acts_freely_on_faces():
    census = triangulate(STAR)
    for face in census.faces:
        rotated = tuple(EPSILON * v for v in face)
        same = all(min(abs(a - b) for b in face) < 1e-10 for a in rotated)
        assert not same


def test_vertex_orbits_split_inner_outer():
    census = triangulate(STAR)
    for orbit in census.vertex_orbits:
        radii = {round(abs(census.vertices[i]), 6) for i in orbit}
        assert len(radii) == 1


def test_cone_angles():
    census = triangulate(STAR)
    assert abs(census.cone_angles["inner"] - 7 * math.pi / 5) < 1e-12
    assert abs(census.cone_angles["outer"] - math.pi / 5) < 1e-12


def test_quotient_euler_genus():
    chi, genus, meta = quotient_euler_genus()
    assert chi == -6
    assert genus == 4
    assert meta["unordered_pair_orbit_sizes"] == (5,)
    assert meta["ordered_pair_orbit_sizes"] == (5, 5)
    # the point-set quotients are recorded and differ from the census count
    assert meta["pointset_with_center"]["chi"] == 2
    assert meta["pointset_without_center"]["chi"] == -1


def test_genus_matches_riemann_hurwitz():
    from starsurf.covering import genus_riemann_hurwitz
    _chi, genus, _meta = quotient_euler_genus()
    assert genus == genus_riemann_hurwitz() == 4
