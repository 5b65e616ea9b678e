import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsurf.geometry import (EPSILON, INNER_RADIUS, KINDS, OUTER_RADIUS,
                               TOL_GEO, PoleError, ProjectivePoint, build_star,
                               build_triangle, icosahedron_vertices,
                               locate_kinds, point_location, point_in_kite,
                               reflect_across_ray, stereographic_project)


def test_icosahedron_vertex_list():
    pts = icosahedron_vertices()
    assert len(pts) == 12
    assert any(p.equivalent(ProjectivePoint(0, 1)) for p in pts)
    assert any(p.equivalent(ProjectivePoint(1, 0)) for p in pts)
    # eps + eps^4 = 2 Re eps = 2 cos(2 pi/5)
    first = EPSILON + EPSILON ** 4
    assert abs(first - 0.6180339887498949) < 1e-12
    assert any(abs(p.z0 - first) < 1e-12 and p.z1 == 1 for p in pts)


def test_projective_point_equivalence_is_scale_free():
    p = ProjectivePoint(2 + 1j, 3.0)
    q = ProjectivePoint((2 + 1j) * (0.5 - 2j), 3.0 * (0.5 - 2j))
    assert p.equivalent(q)
    assert not p.equivalent(ProjectivePoint(1, 0))
    with pytest.raises(ValueError):
        ProjectivePoint(0, 0)


def test_stereographic_projection():
    assert stereographic_project(ProjectivePoint(0, 1)) == 0
    with pytest.raises(PoleError):
        stereographic_project(ProjectivePoint(1, 0))
    with pytest.raises(PoleError):
        stereographic_project(ProjectivePoint(2.0, 0))

    # the images of the eleven projectable vertices are 0, a eps^nu, -b eps^nu
    images = []
    for p in icosahedron_vertices():
        try:
            images.append(stereographic_project(p))
        except PoleError:
            continue
    expected = [0j]
    for nu in range(5):
        expected.append(INNER_RADIUS * EPSILON ** nu)
        expected.append(-OUTER_RADIUS * EPSILON ** nu)
    assert len(images) == 11
    for w in expected:
        assert min(abs(w - z) for z in images) < 1e-12


def test_triangle_sides_and_angles():
    tri = build_triangle()
    assert abs(tri.a - 2 * math.cos(2 * math.pi / 5)) < 1e-14
    assert abs(tri.b - 2 * math.cos(math.pi / 5)) < 1e-14
    # c = 2 sin(pi/5), evaluated independently
    assert abs(tri.c - 2 * math.sin(math.pi / 5)) < 1e-14
    assert abs(tri.c - 1.1755705045849463) < 1e-13
    assert tri.b > tri.a
    assert (tri.alpha_frac, tri.beta_frac, tri.gamma_frac) == (
        Fraction(1, 10), Fraction(7, 10), Fraction(2, 10))
    assert tri.alpha_frac + tri.beta_frac + tri.gamma_frac == 1
    # beta sits at A and is the obtuse choice 7 pi/10, not 3 pi/10
    assert abs(tri.beta - 7 * math.pi / 10) < 1e-15
    # law of cosines with the apex angle pi/5
    assert abs(tri.c ** 2 - tri.a ** 2 - tri.b ** 2
               + 2 * tri.a * tri.b * math.cos(math.pi / 5)) < 1e-14
    # law of sines
    s = math.sin(tri.beta) / tri.b
    assert abs(math.sin(tri.gamma) / tri.c - s) < 1e-14
    assert abs(math.sin(tri.alpha) / tri.a - s) < 1e-14
    # the golden identity a*b = 4 cos(pi/5) cos(2 pi/5) = 1
    assert abs(tri.a * tri.b - 1.0) < 1e-14
    # placement of the vertices in the fixed frame
    assert tri.O == 0
    assert abs(tri.A - tri.a) < 1e-15
    assert abs(tri.B - tri.b * cmath.exp(1j * math.pi / 5)) < 1e-15


def test_star_vertices_and_radii():
    star = build_star()
    assert len(star.vertices) == 10
    for k in range(5):
        assert abs(abs(star.vertices[2 * k]) - INNER_RADIUS) < 1e-14
        assert abs(abs(star.vertices[2 * k + 1]) - OUTER_RADIUS) < 1e-14
        assert abs(star.vertices[2 * k] - INNER_RADIUS * EPSILON ** k) < 1e-14
        expected_outer = OUTER_RADIUS * cmath.exp(1j * (2 * k + 1) * math.pi / 5)
        assert abs(star.vertices[2 * k + 1] - expected_outer) < 1e-14


def test_star_rotation_invariance():
    star = build_star()
    rotated = [EPSILON * v for v in star.vertices]
    for w in rotated:
        assert min(abs(w - v) for v in star.vertices) < 1e-12


def test_star_edges_lie_on_five_lines():
    star = build_star()
    assert len(star.edge_lines) == 5
    covered = set()
    for line in star.edge_lines:
        assert len(line.edge_ids) == 2
        covered.update(line.edge_ids)
        for eid in line.edge_ids:
            for v in star.edge_endpoints(eid):
                assert line.distance(v) < 1e-12
    assert covered == set(range(10))


def test_star_line_collinearity_angle_sums():
    # A, A' = a eps, B' = eps B are collinear, and so are B, A', C' = eps C
    A = complex(INNER_RADIUS, 0)
    Ap = INNER_RADIUS * EPSILON
    B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
    Bp = EPSILON * B
    C = 0.5 * cmath.exp(1j * math.pi / 5)
    Cp = EPSILON * C

    def angle(at, p, q):
        return abs(cmath.phase((q - at) / (p - at)))

    parts1 = (angle(Ap, C, 0), angle(Ap, 0, Cp), angle(Ap, Cp, Bp))
    assert abs(parts1[0] - 3 * math.pi / 10) < 1e-12
    assert abs(parts1[1] - 3 * math.pi / 10) < 1e-12
    assert abs(parts1[2] - 4 * math.pi / 10) < 1e-12
    assert abs(sum(parts1) - math.pi) < 1e-12
    parts2 = (angle(Ap, Cp, 0), angle(Ap, 0, C), angle(Ap, C, B))
    assert abs(sum(parts2) - math.pi) < 1e-12
    # collinearity itself
    assert abs(((Bp - A) / (Ap - A)).imag) < 1e-12
    assert abs(((Cp - B) / (Ap - B)).imag) < 1e-12


def test_star_apothem_distance():
    star = build_star()
    for line in star.edge_lines:
        assert abs(line.distance(0) - 0.5) < 1e-14


@pytest.mark.parametrize("kind", ["conjugate", "doubled"])
def test_star_equals_union_of_kites(kind):
    star = build_star()
    kites = star.quadrilaterals(kind)
    rng = random.Random(9)
    for _ in range(400):
        z = complex(rng.uniform(-1.7, 1.7), rng.uniform(-1.7, 1.7))
        loc = point_location(z, star)
        if loc.kind in ("edge", "vertex"):
            continue
        in_union = any(point_in_kite(z, kite) for kite in kites)
        if loc.kind in ("interior", "center"):
            assert in_union, f"{z} inside the star but outside the kites"
        else:
            assert not in_union, f"{z} outside the star but inside a kite"


def test_doubled_kite_matches_reflected_triangle():
    tri = build_triangle()
    image = reflect_across_ray(tri.A, math.pi / 5)
    assert abs(image - INNER_RADIUS * EPSILON) < 1e-14


def test_build_star_deterministic():
    star1 = build_star()
    build_star.cache_clear()
    star2 = build_star()
    assert star1.vertices == star2.vertices
    assert star1.edges == star2.edges


def test_point_location_cases():
    star = build_star()
    assert point_location(0j, star).kind == "center"
    loc = point_location(complex(INNER_RADIUS, 0), star)
    assert loc.kind == "vertex" and loc.index == 0
    assert point_location(2 * OUTER_RADIUS + 0j, star).kind == "exterior"
    p, q = star.edge_endpoints(3)
    mid = (p + q) / 2
    loc = point_location(mid, star)
    assert loc.kind == "edge" and loc.index == 3
    assert abs(loc.parameter - 0.5) < 1e-9
    assert point_location(0.1 + 0.1j, star).kind == "interior"
    # vertex capture within the tolerance
    assert point_location(complex(INNER_RADIUS, 5e-10), star).kind == "vertex"


# ------------------------------------------- the batch classifier locate_kinds

STAR = build_star()
UNIT = st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a))
#: offsets from a feature: on it, inside the tolerance, or outside it, also
#: by 5% either side of it (the batch form repeats point_location's
#: floating-point operations, so even these kinds agree exactly)
NEAR = st.sampled_from([0.0, 0.5, 0.95, 1.05, 2.0]).map(lambda s: s * TOL_GEO)


def _edge_point(eid, t, normal_offset=0.0):
    p, q = STAR.edge_endpoints(eid)
    return p + t * (q - p) + normal_offset * 1j * (q - p) / abs(q - p)


FEATURES = st.one_of(
    st.just(STAR.center),
    st.sampled_from(STAR.vertices),
    st.builds(_edge_point, st.integers(0, 9), st.floats(0.0, 1.0)),
)
#: the crossing test is most fragile on the horizontal line through
#: vertices 0 and 5, where it meets vertices and edges at once
ON_AXIS = st.builds(complex, st.floats(-2.0, 2.0),
                    st.sampled_from([0.0, STAR.vertices[5].imag,
                                     0.5 * TOL_GEO, -0.5 * TOL_GEO,
                                     2 * TOL_GEO, -2 * TOL_GEO]))
POINTS = st.one_of(
    st.builds(lambda f, r, u: f + r * u, FEATURES, NEAR, UNIT),
    ON_AXIS,
    st.builds(complex, st.floats(-1.8, 1.8), st.floats(-1.8, 1.8)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(POINTS, min_size=1, max_size=40))
def test_locate_kinds_agrees_with_point_location(zs):
    kinds = [KINDS[c] for c in locate_kinds(zs, STAR)[0]]
    assert kinds == [point_location(z, STAR).kind for z in zs]


@pytest.mark.parametrize("z", [0.1, 0j, 0.5 + 0.2j, STAR.vertices[3], 5.0])
def test_locate_kinds_takes_a_single_point(z):
    kinds, _exact = locate_kinds(z, STAR)
    assert kinds.shape == () and KINDS[kinds] == point_location(z, STAR).kind
    grid = locate_kinds([[z, 0.1], [0.2j, z]], STAR)[0]
    assert grid.shape == (2, 2) and grid[0, 0] == grid[1, 1] == kinds


#: the five-line count's margin: nearer any edge line or the center, a point
#: goes through the exact kernel
MARGIN = 2 * TOL_GEO + 1e-12
#: points offset from an edge line by multiples of the margin, either side
#: of the line and of the margin, along the whole line out to |z| = 3
ON_LINES = st.builds(
    lambda line, t, m: (line.foot + t * line.direction + m * MARGIN * line.foot / abs(line.foot), m),
    st.sampled_from(STAR.edge_lines), st.floats(-3.0, 3.0),
    st.sampled_from([0.5, 1.0, 2.0, 10.0, -0.5, -1.0, -2.0, -10.0]))
FAR = st.builds(lambda r, u: (r * u, None), st.floats(0.0, 3.0), UNIT)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(ON_LINES, FAR), min_size=1, max_size=40))
def test_five_line_count_agrees_with_point_location(points):
    zs = [z for z, _m in points]
    kinds, exact = locate_kinds(zs, STAR)
    assert [KINDS[c] for c in kinds] == [point_location(z, STAR).kind for z in zs]
    assert exact >= sum(m is not None and abs(m) < 1 for _z, m in points)


#: points whose kind no rounding of a symmetry can change: edge points
#: offset along the normal, points near a vertex or the center, and generic
#: points
STABLE = st.one_of(
    st.builds(_edge_point, st.integers(0, 9), st.floats(0.01, 0.99),
              st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]).map(lambda s: s * TOL_GEO)),
    st.builds(lambda v, u: v + 0.5 * TOL_GEO * u,
              st.sampled_from((STAR.center,) + STAR.vertices), UNIT),
    st.builds(complex, st.floats(-1.8, 1.8), st.floats(-1.8, 1.8)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(STABLE, min_size=1, max_size=40))
def test_locate_kinds_is_dihedrally_invariant(zs):
    kinds = locate_kinds(zs, STAR)[0]
    assert list(locate_kinds([EPSILON * z for z in zs], STAR)[0]) == list(kinds)
    assert list(locate_kinds([z.conjugate() for z in zs], STAR)[0]) == list(kinds)
