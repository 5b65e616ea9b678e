import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.conformal import (CORNERS, PREVERTICES, SHEET_COUNT, SHEET_PHASE, F_Q_inv,
                                SheetedPoint, compute_k, eta_ref, f_prime, sheet_values)
from starsurf.geometry import EPSILON, Dihedral, R, T, U, build_star, point_location
from starsurf.metric import (Gamma, LeftDomain, TangentVector, delta, delta_star,
                             developed_direction, flow, flow_rk4, gamma, unit_field,
                             _snap)


def _act(g: Dihedral, p: SheetedPoint) -> SheetedPoint:
    """g on a sheeted point: xi -> conj^l xi, and the sheet by g.sheet."""
    return SheetedPoint(p.xi.conjugate() if g.l else p.xi, g.sheet(p.sheet))


def _map(g: Dihedral, z: complex) -> complex:
    """g on the plane: z -> zeta^j conj^l(z)."""
    return SHEET_PHASE[g.j] * (z.conjugate() if g.l else z)


def _random_point(rng, lower=False):
    im = rng.uniform(0.1, 1.4)
    return SheetedPoint(complex(rng.uniform(-0.8, 1.9), -im if lower else im),
                        rng.randrange(10))


def test_plane_metric_values():
    assert gamma(1, 1) == 1
    assert gamma(1j, 1j) == 1
    assert gamma(1 + 1j, 1 + 1j) == 2
    assert gamma(1, 1j) == 0


def test_unit_field_has_unit_norm():
    rng = random.Random(1)
    for _ in range(100):
        p = _random_point(rng)
        X = unit_field(p)
        assert abs(Gamma(p, X, X) - 1.0) < 1e-12
        assert abs(X.d_xi) > 0


def test_metric_bilinearity():
    p = SheetedPoint(0.7 + 0.9j, 4)
    v = TangentVector(p, 0.3 - 0.2j)
    w = TangentVector(p, 2 * v.d_xi)
    assert abs(Gamma(p, w, w) - 4 * Gamma(p, v, v)) < 1e-12


def test_tangency_identity():
    rng = random.Random(2)
    for _ in range(30):
        p = _random_point(rng, lower=rng.random() < 0.5)
        v = TangentVector(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        e = p.eta
        residual = abs(e * v.d_eta - f_prime(p.xi) / (10 * e ** 8) * v.d_xi)
        assert residual < 1e-10 * max(1.0, abs(v.d_eta))


def _push_delta(p: SheetedPoint, v: TangentVector) -> complex:
    """The developing map's differential along p's own branch: dz = k dxi / eta."""
    return compute_k() / p.eta * v.d_xi


def test_developing_map_is_isometry():
    rng = random.Random(3)
    for _ in range(100):
        p = _random_point(rng)
        v = TangentVector(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        pushed = _push_delta(p, v)
        assert abs(Gamma(p, v, v) - gamma(pushed, pushed)) < 1e-8 * (1 + Gamma(p, v, v))


def test_unit_field_pushes_to_unit_vector():
    rng = random.Random(4)
    for _ in range(20):
        p = _random_point(rng)
        assert abs(_push_delta(p, unit_field(p)) - 1.0) < 1e-12


def test_delta_lands_in_closed_triangle():
    from starsurf.metric import _in_closed_triangle
    rng = random.Random(5)
    for _ in range(100):
        p = _random_point(rng)
        assert _in_closed_triangle(delta(p), tol=1e-8)


def test_group_invariance_of_metric():
    rng = random.Random(6)
    for _ in range(40):
        p = _random_point(rng)
        v = TangentVector(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        # rotation: eta multiplies by eps, d_xi unchanged
        rp = _act(R, p)
        rv = TangentVector(rp, v.d_xi)
        assert abs(Gamma(rp, rv, rv) - Gamma(p, v, v)) < 1e-10
        # conjugation: d_xi conjugates
        up = _act(U, p)
        uv = TangentVector(up, v.d_xi.conjugate())
        assert abs(Gamma(up, uv, uv) - Gamma(p, v, v)) < 1e-10


def test_plane_group_invariance():
    rng = random.Random(7)
    for _ in range(20):
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(gamma(EPSILON * v, EPSILON * w) - gamma(v, w)) < 1e-14
        assert abs(gamma(v.conjugate(), w.conjugate()) - gamma(v, w)) < 1e-14


def test_delta_star_equivariance():
    # the ten star symmetries (even j) on the curve act on the plane as
    # Dihedral(-j, l), from points above and below the real axis
    rng = random.Random(8)
    for lower in (False, True):
        for _ in range(20):
            p = _random_point(rng, lower=lower)
            z = delta_star(p)
            for g in (Dihedral(j, l) for j in range(0, 10, 2) for l in (0, 1)):
                assert abs(delta_star(_act(g, p)) - _map(Dihedral(-g.j, g.l), z)) < 1e-15


def _cross_down(p: SheetedPoint) -> SheetedPoint:
    """The end of eta continued by _snap down the segment p.xi -> conj p.xi."""
    w = p.eta
    for i in range(1, 9):
        xi = complex(p.xi.real, p.xi.imag * (1 - i / 4))
        m, w = _snap(xi, w)
    return SheetedPoint(xi, m)


@pytest.mark.parametrize("x, shift", [(0.3, 2), (1.0, -1), (2.5, 0), (-0.5, 0)],
                         ids=["(0,a)", "(a,b)", "(b,inf)", "(-inf,0)"])
def test_delta_star_across_the_axis(x, shift):
    # check 06's gluings: delta_star is continuous across the sides OA and
    # OB, and across AB lands on the partner point T_m(z) in the other copy
    for k in range(SHEET_COUNT):
        p = SheetedPoint(complex(x, 1e-4), k)
        q = _cross_down(p)
        assert q.sheet == (k + shift) % SHEET_COUNT
        z0, z1 = delta_star(p), delta_star(q)
        if shift == -1:
            assert abs(z1 - _map(T[(2 * k + 4) % 5], z0)) < 1e-15
            assert q.sheet % 2 != k % 2
        else:
            assert abs(z1 - z0) < 2e-4


def test_delta_star_image_in_star():
    star = build_star()
    rng = random.Random(9)
    for _ in range(40):
        p = _random_point(rng, lower=rng.random() < 0.5)
        loc = point_location(delta_star(p), tol=1e-7)
        assert loc.kind != "exterior"


def _nearest_of_ten(xi, w):
    """The scan the phase read replaced, kept as its oracle."""
    values = sheet_values(xi)
    return min(range(SHEET_COUNT), key=lambda m: abs(values[m] - w))


@settings(max_examples=300, deadline=None)
@given(st.builds(complex, st.floats(-1.0, 3.0), st.floats(-2.0, 2.0)),
       st.integers(0, SHEET_COUNT - 1), st.floats(-0.49, 0.49), st.floats(0.2, 5.0))
def test_phase_read_picks_the_scanned_sheet(xi, m, offset, modulus):
    # a reference value off sheet m by `offset` of a sheet spacing in phase,
    # so never at an exact tie between two sheets
    assume(min(abs(xi - s) for s in PREVERTICES) > 1e-3)
    w = modulus * cmath.exp(1j * math.pi * (m + offset) / 5) * eta_ref(xi)
    sheet, value = _snap(xi, w)
    assert sheet == _nearest_of_ten(xi, w) == m
    assert value == sheet_values(xi)[sheet]


@settings(max_examples=60, deadline=None)
@given(st.builds(complex, st.floats(-1.0, 3.0), st.floats(-2.0, 2.0)),
       st.integers(0, SHEET_COUNT - 1))
def test_flow_time_zero_is_identity(xi, sheet):
    assume(min(abs(xi - s) for s in PREVERTICES) > 1e-3)
    p = SheetedPoint(xi, sheet)
    assert flow(p, 0.0) == p


def test_flow_advances_developed_image_linearly():
    p0 = SheetedPoint(1.1 + 0.9j, 0)
    z0 = delta(p0)
    p1 = flow(p0, 0.1)
    assert abs(delta(p1) - z0 - 0.1) < 1e-6


def test_flow_rotated_directions_develop_straight():
    p0 = SheetedPoint(1.05 + 1.0j, 0)
    z0 = delta(p0)
    for theta in (0.5, 2.0, -1.2):
        alpha = cmath.exp(1j * theta)
        p1 = flow(p0, 0.1, direction=alpha)
        assert abs(delta(p1) - z0 - 0.1 * alpha) < 1e-6


def test_flow_geodesics_develop_collinear():
    # three developed points of one flow line are collinear
    p0 = SheetedPoint(0.9 + 1.1j, 2)
    zs = [delta(p0)]
    for t in (0.05, 0.1):
        zs.append(delta(flow(p0, t)))
    u = zs[2] - zs[0]
    assert abs(((zs[1] - zs[0]) / u).imag) < 1e-8


def test_flow_on_every_sheet_matches_phase():
    for k in range(10):
        p0 = SheetedPoint(1.1 + 1.0j, k)
        z0 = delta(p0)
        p1 = flow(p0, 0.04)
        assert abs(delta(p1) - z0 - 0.04 * developed_direction(p0)) < 1e-7


def test_flow_leaves_domain_in_finite_time():
    p0 = SheetedPoint(1.1 + 0.9j, 0)
    with pytest.raises(LeftDomain):
        flow(p0, 6.0)


def test_flow_rejects_bad_steps():
    with pytest.raises(ValueError):
        flow_rk4(SheetedPoint(1 + 1j, 0), 0.1, steps=0)


def _start(z0, sheet, velocity):
    """A sheeted point over the developed point z0, and the direction whose
    flow advances its developed image along velocity."""
    p0 = SheetedPoint(F_Q_inv(z0), sheet)
    return p0, velocity / developed_direction(p0)


def _agree_with_rk4(p0, t, direction):
    p1, q1 = flow(p0, t, direction=direction), flow_rk4(p0, t, steps=400, direction=direction)
    assert p1.sheet == q1.sheet
    assert abs(p1.xi - q1.xi) <= 1e-8
    assert abs(delta(p1) - delta(p0) - t * developed_direction(p0, direction)) <= 1e-14
    return p1


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 0.45), st.floats(0.6, math.pi - 0.6), st.floats(0.01, 0.1),
       st.floats(0.01, 0.1), st.integers(0, SHEET_COUNT - 1), st.booleans())
def test_flows_across_the_diagonal_match_rk4(x, angle, before, after, sheet, upward):
    # the developed segment crosses (0, a) at x, and stays at least 0.1 from
    # the kite's outer edges, from T into conj T (or back); crossing
    # downward adds 2 to the sheet
    v = cmath.exp(-1j * angle)
    z0 = x - before * v
    if upward:
        z0, v = z0.conjugate(), v.conjugate()
    p0, direction = _start(z0, sheet, v)
    p1 = _agree_with_rk4(p0, before + after, direction)
    assert (p1.xi.imag < 0) != (p0.xi.imag < 0)
    assert p1.sheet == (sheet + (-2 if upward else 2)) % SHEET_COUNT


@settings(max_examples=40, deadline=None)
@given(st.floats(0.4, 1.1), st.floats(0.6, 1.0), st.booleans(), st.integers(0, SHEET_COUNT - 1),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 0.09))
def test_flows_match_rk4(x, y, lower, sheet, theta, t):
    # the benchmark's flow box: developed images start at least 0.11 inside
    # the kite, so these flows stay in it
    _agree_with_rk4(SheetedPoint(complex(x, -y if lower else y), sheet), t,
                    cmath.exp(1j * theta))


@pytest.mark.parametrize("z0, velocity, t", [
    (0.4 + 0.1j, 1.0 + 0j, 2.0),    # ends outside, beyond the edge AB
    (1.0 + 0.6j, -1j, 1.2),         # ends in conj T, but crosses the axis beyond a
], ids=["outside", "around-A"])
def test_flow_leaving_the_kite_raises_like_rk4(z0, velocity, t):
    p0, direction = _start(z0, 0, velocity)
    with pytest.raises(LeftDomain):
        flow(p0, t, direction=direction)
    with pytest.raises(LeftDomain):
        flow_rk4(p0, t, steps=400, direction=direction)


B_IMAGE = CORNERS[PREVERTICES[2]]


@pytest.mark.parametrize("start, target", [
    (1.1 + 0.9j, 0j), (1.1 + 0.9j, complex(PREVERTICES[1])), (1.1 + 0.9j, B_IMAGE),
    (1.1 - 0.9j, B_IMAGE.conjugate()),
    # through the reflex corner A, from T into conj T
    (F_Q_inv(PREVERTICES[1] + 0.1j), PREVERTICES[1] - 0.1j),
    # within 0.01 of B, where the preimage rounds onto the fiber over b
    (1.1 + 0.9j, B_IMAGE + 0.01 * cmath.exp(1.25j * math.pi)),
], ids=["O", "A", "B", "conj-B", "through-A", "near-B"])
def test_flow_to_or_through_a_corner_raises(start, target):
    p0 = SheetedPoint(start, 3)
    velocity = target - delta(p0)
    with pytest.raises(LeftDomain):
        flow(p0, abs(velocity), direction=velocity / abs(velocity) / developed_direction(p0))
