import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.conformal import eta
from starsurf.geometry import (CENTER_ID, EPSILON, INNER_RADIUS, KINDS, OUTER_RADIUS,
                               TOL_GEO, Dihedral, PoleError, ProjectivePoint, R, T, U,
                               build_star, build_triangle, icosahedron_vertices,
                               locate_kinds, point_location, stereographic_project)
from starsurf.tiling import _word_value


def _mirror(z: complex, angle: float) -> complex:
    """Float oracle of a reflection: z mirrored across the line through the
    origin at the given angle."""
    return cmath.exp(2j * angle) * z.conjugate()


def _crossings_inside(z: complex, verts: tuple[complex, ...]) -> bool:
    """Even-odd crossing test of a polygon: the oracle of point location off
    the boundary."""
    inside = False
    for p, q in zip(verts, verts[1:] + verts[:1]):
        if (p.imag > z.imag) != (q.imag > z.imag):
            if z.real < p.real + (z.imag - p.imag) * (q.real - p.real) / (q.imag - p.imag):
                inside = not inside
    return inside


def _in_kite(z: complex, kite: tuple[complex, ...], tol: float = TOL_GEO) -> bool:
    """Closed membership in a quadrilateral: within tol of a side, or inside
    by the crossing test."""
    for p, q in zip(kite, kite[1:] + kite[:1]):
        t = min(max(((z - p) / (q - p)).real, 0.0), 1.0)
        if abs(z - (p + t * (q - p))) <= tol:
            return True
    return _crossings_inside(z, kite)


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


def _kites(kind: str) -> list[tuple[complex, ...]]:
    """The five rotated kites whose union is K.

    kind="conjugate": R^nu(T ∪ conj T), vertices (O, b e^{-i pi/5}, a, B).
    kind="doubled":   R^nu(T ∪ reflect(T, OB)), vertices (O, a, B, a eps).
    """
    A = complex(INNER_RADIUS, 0.0)
    B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
    base = {"conjugate": (0j, B.conjugate(), A, B), "doubled": (0j, A, B, EPSILON * A)}[kind]
    return [tuple(EPSILON ** nu * v for v in base) for nu in range(5)]


@pytest.mark.parametrize("kind", ["conjugate", "doubled"])
def test_star_equals_union_of_kites(kind):
    kites = _kites(kind)
    rng = random.Random(9)
    for _ in range(400):
        z = complex(rng.uniform(-1.7, 1.7), rng.uniform(-1.7, 1.7))
        loc = point_location(z)
        if loc.kind in ("edge", "vertex"):
            continue
        in_union = any(_in_kite(z, kite) for kite in kites)
        if loc.kind in ("interior", "center"):
            assert in_union, f"{z} inside the star but outside the kites"
        else:
            assert not in_union, f"{z} outside the star but inside a kite"


def test_doubled_kite_matches_reflected_triangle():
    tri = build_triangle()
    image = _mirror(tri.A, math.pi / 5)
    assert abs(image - INNER_RADIUS * EPSILON) < 1e-14
    # the doubled kite's fourth vertex is A mirrored across OB
    assert abs(_kites("doubled")[0][3] - image) < 1e-14


def test_build_star_deterministic():
    star1 = build_star()
    build_star.cache_clear()
    star2 = build_star()
    assert star1.vertices == star2.vertices
    assert star1.edges == star2.edges


def test_point_location_cases():
    star = build_star()
    assert point_location(0j).kind == "center"
    loc = point_location(complex(INNER_RADIUS, 0))
    assert loc.kind == "vertex" and loc.index == 0
    assert point_location(2 * OUTER_RADIUS + 0j).kind == "exterior"
    p, q = star.edge_endpoints(3)
    mid = (p + q) / 2
    loc = point_location(mid)
    assert loc.kind == "edge" and loc.index == 3
    assert abs(loc.parameter - 0.5) < 1e-9
    # edge j's parameter runs from vertex j to vertex j + 1
    for eid in range(10):
        p, q = star.edge_endpoints(eid)
        for t in (0.1, 0.9):
            assert abs(point_location(p + t * (q - p)).parameter - t) < 1e-12
    assert point_location(0.1 + 0.1j).kind == "interior"
    # vertex capture within the tolerance
    assert point_location(complex(INNER_RADIUS, 5e-10)).kind == "vertex"


# ------------------------------------------- the batch classifier locate_kinds

STAR = build_star()
UNIT = st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a))
#: offsets from a feature: on it, inside the tolerance, or outside it, also
#: by 5% either side of it
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
    kinds = [KINDS[c] for c in locate_kinds(zs)[0]]
    assert kinds == [point_location(z).kind for z in zs]


@pytest.mark.parametrize("z", [0.1, 0j, 0.5 + 0.2j, STAR.vertices[3], 5.0])
def test_locate_kinds_takes_a_single_point(z):
    kinds, _near = locate_kinds(z)
    assert kinds.shape == () and KINDS[kinds] == point_location(z).kind
    grid = locate_kinds([[z, 0.1], [0.2j, z]])[0]
    assert grid.shape == (2, 2) and grid[0, 0] == grid[1, 1] == kinds


#: points offset from an edge line by multiples of tol, either side of the
#: line and of tol, along the whole line out to |z| = 3
ON_LINES = st.builds(
    lambda line, t, m: (line.foot + t * line.direction + m * TOL_GEO * line.foot / abs(line.foot), m),
    st.sampled_from(STAR.edge_lines), st.floats(-3.0, 3.0),
    st.sampled_from([0.5, 1.0, 2.0, 10.0, -0.5, -1.0, -2.0, -10.0]))
FAR = st.builds(lambda r, u: (r * u, None), st.floats(0.0, 3.0), UNIT)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(ON_LINES, FAR), min_size=1, max_size=40))
def test_five_line_count_agrees_with_point_location(points):
    zs = [z for z, _m in points]
    kinds, near_boundary = locate_kinds(zs)
    assert [KINDS[c] for c in kinds] == [point_location(z).kind for z in zs]
    assert near_boundary >= sum(m is not None and abs(m) < 1 for _z, m in points)


def _line_distance(z: complex) -> float:
    return min(line.distance(z) for line in STAR.edge_lines)


@settings(max_examples=500, deadline=None)
@given(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_off_the_lines_the_crossing_test_decides(z):
    assume(_line_distance(z) > 1e-6 and abs(z) > 1e-6)
    kind = "interior" if _crossings_inside(z, STAR.vertices) else "exterior"
    assert point_location(z).kind == kind
    assert KINDS[locate_kinds(z)[0]] == kind


def _designed_points():
    """(z, kind, index) at 0.5 tol and 2 tol from the star's features, with
    the kind each is built to have."""
    tol, cases = TOL_GEO, []
    for r, kind in ((0.5, "center"), (2.0, "interior")):
        cases += [(r * tol * u, kind, None) for u in (1, 1j, -1, -1j)]
    for vid, v in enumerate(STAR.vertices):
        out = v / abs(v)
        cases += [(v + 0.5 * tol * u, "vertex", vid) for u in (out, 1j * out, -out, -1j * out)]
        if vid % 2:  # an outer tip: past it, or inside it within tol of both edges
            cases += [(v + 2 * tol * out, "exterior", None), (v - 2 * tol * out, "edge", vid - 1)]
            for eid in (vid - 1, vid):
                p, q = STAR.edge_endpoints(eid)
                past = (v - p if v == q else v - q) / abs(q - p)
                cases += [(v + 0.5 * tol * past, "vertex", vid),
                          (v + 2 * tol * past, "exterior", None)]
        else:  # an inner vertex: into the pentagon, or out into the notch
            cases += [(v - 2 * tol * out, "interior", None), (v + 2 * tol * out, "exterior", None)]
    for eid in range(10):
        for t in (0.1, 0.5, 0.9):
            cases += [(_edge_point(eid, t, r * TOL_GEO), "edge", eid) for r in (0.5, -0.5)]
            cases += [(_edge_point(eid, t, 2 * TOL_GEO), "interior", None),
                      (_edge_point(eid, t, -2 * TOL_GEO), "exterior", None)]
    return cases


@pytest.mark.parametrize("z, kind, index", _designed_points())
def test_points_near_the_features_get_their_designed_kinds(z, kind, index):
    loc = point_location(z)
    assert (loc.kind, loc.index) == (kind, index)
    assert KINDS[locate_kinds(z)[0]] == kind


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
    kinds = locate_kinds(zs)[0]
    assert list(locate_kinds([EPSILON * z for z in zs])[0]) == list(kinds)
    assert list(locate_kinds([z.conjugate() for z in zs])[0]) == list(kinds)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("z", [complex(NAN, 0.0), complex(0.0, NAN), complex(NAN, NAN),
                               complex(INF, 0.0), complex(-INF, 0.0), complex(0.0, INF),
                               complex(0.0, -INF), complex(INF, INF), complex(-INF, INF),
                               complex(INF, NAN)])
def test_a_non_finite_point_is_exterior(z):
    # no line comparison holds for NaN, and a far point is inside at most
    # three lines: neither can reach the four lines an interior point needs
    assert point_location(z).kind == "exterior"
    kinds, near = locate_kinds([z, 0.1 + 0.1j])
    assert [KINDS[k] for k in kinds] == ["exterior", "interior"] and near == 0


# ------------------------------------------------ the frame's dihedral group

ZETA = cmath.exp(1j * math.pi / 5)
ELEMENTS = [Dihedral(j, l) for j in range(10) for l in (0, 1)]
#: the ten that map the star onto itself
STAR_SYMMETRIES = [g for g in ELEMENTS if g.j % 2 == 0]
DIHEDRAL = st.sampled_from(ELEMENTS)
#: points of the curve's base off the real axis, above or below it
OFF_AXIS = st.builds(lambda x, y, below: complex(x, -y if below else y),
                     st.floats(-3.0, 3.0), st.floats(0.05, 3.0), st.booleans())


def _zeta_map(g: Dihedral):
    """The float map of g, z -> zeta^j conj^l(z): the oracle of its actions."""
    return lambda z: ZETA ** g.j * (z.conjugate() if g.l else z)


def test_dihedral_constants_are_the_frame_maps():
    z = 0.31 - 0.17j
    assert Dihedral(12, 3) == Dihedral(2, 1) and Dihedral(-1) == Dihedral(9, 0)
    assert abs(_zeta_map(R)(z) - EPSILON * z) < 1e-15
    assert abs(_zeta_map(U)(z) - z.conjugate()) < 1e-15
    assert abs(_zeta_map(Dihedral(5))(z) + z) < 1e-15  # the half-turn
    for m, mirror in enumerate(T):
        assert abs(_zeta_map(mirror)(z) - _mirror(z, (2 * m + 1) * math.pi / 5)) < 1e-15


@settings(deadline=None)
@given(DIHEDRAL, DIHEDRAL, DIHEDRAL, OFF_AXIS)
def test_dihedral_group_laws(g, h, k, z):
    assert (g * h) * k == g * (h * k)
    assert g * g.inverse() == Dihedral() == g.inverse() * g
    assert g * Dihedral() == g == Dihedral() * g
    # the product is the composed map, and index the map on phases
    assert abs(_zeta_map(g * h)(z) - _zeta_map(g)(_zeta_map(h)(z))) < 1e-13
    for i in range(10):
        assert abs(_zeta_map(g)(ZETA ** i) - ZETA ** g.index(i)) < 1e-15


def test_dihedral_acts_on_star_ids_as_on_the_star():
    star = build_star()
    for g in STAR_SYMMETRIES:
        f = _zeta_map(g)
        assert g.vertex(CENTER_ID) == CENTER_ID
        for v in range(10):
            assert abs(f(star.vertices[v]) - star.vertices[g.vertex(v)]) < 1e-14
        for e in range(10):
            p, q = (f(z) for z in star.edge_endpoints(e))
            r, s = star.edge_endpoints(g.edge(e))
            if g.l:  # a mirror runs the edge the other way
                r, s = s, r
            assert abs(p - r) < 1e-14 and abs(q - s) < 1e-14


@settings(deadline=None)
@given(DIHEDRAL, st.integers(0, 9), OFF_AXIS)
def test_dihedral_acts_on_sheets_as_on_eta(g, k, xi):
    image = eta(xi.conjugate() if g.l else xi, g.sheet(k))
    assert abs(image - _zeta_map(g)(eta(xi, k))) <= 1e-14 * abs(image)


@settings(deadline=None)
@given(st.sampled_from(STAR_SYMMETRIES), st.tuples(*[st.integers(-8, 8)] * 5))
def test_dihedral_acts_on_words_as_on_their_values(g, w):
    assert abs(_word_value(g.word(w)) - _zeta_map(g)(_word_value(w))) < 1e-12
    # the (5, n) rows of several words move alike
    rows = np.array([w, w[::-1]]).T
    assert np.array(g.word(rows)).T.tolist() == [list(g.word(w)), list(g.word(w[::-1]))]
