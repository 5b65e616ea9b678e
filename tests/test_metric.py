import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.conformal import (PREVERTICES, SHEET_COUNT, SheetedPoint, eta_ref,
                                f_prime, sheet_values)
from starsurf.covering import conjugate_sheeted, rotate_sheeted
from starsurf.geometry import EPSILON, build_star, point_location
from starsurf.metric import (Gamma, LeftDomain, SECTOR_OF_SHEET, TangentVector,
                             delta, delta_star, developed_direction, flow,
                             gamma, push_delta, sector_of_sheet, unit_field, _snap)


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
    assert abs(Gamma(p, v.scaled(2), v.scaled(2)) - 4 * Gamma(p, v, v)) < 1e-12


def test_tangency_identity():
    rng = random.Random(2)
    for _ in range(30):
        p = _random_point(rng, lower=rng.random() < 0.5)
        v = TangentVector(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        e = p.eta
        residual = abs(e * v.d_eta - f_prime(p.xi) / (10 * e ** 8) * v.d_xi)
        assert residual < 1e-10 * max(1.0, abs(v.d_eta))


def test_developing_map_is_isometry():
    rng = random.Random(3)
    for _ in range(100):
        p = _random_point(rng)
        v = TangentVector(p, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        pushed = push_delta(p, v)
        assert abs(Gamma(p, v, v) - gamma(pushed, pushed)) < 1e-8 * (1 + Gamma(p, v, v))


def test_unit_field_pushes_to_unit_vector():
    rng = random.Random(4)
    for _ in range(20):
        p = _random_point(rng)
        assert abs(push_delta(p, unit_field(p)) - 1.0) < 1e-12


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
        rp = rotate_sheeted(p)
        rv = TangentVector(rp, v.d_xi)
        assert abs(Gamma(rp, rv, rv) - Gamma(p, v, v)) < 1e-10
        # conjugation: d_xi conjugates
        up = conjugate_sheeted(p)
        uv = TangentVector(up, v.d_xi.conjugate())
        assert abs(Gamma(up, uv, uv) - Gamma(p, v, v)) < 1e-10


def test_plane_group_invariance():
    rng = random.Random(7)
    for _ in range(20):
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(gamma(EPSILON * v, EPSILON * w) - gamma(v, w)) < 1e-14
        assert abs(gamma(v.conjugate(), w.conjugate()) - gamma(v, w)) < 1e-14


def test_sector_map_structure():
    # rotation-literal: two sheet steps advance the sector by one
    for k in range(10):
        assert sector_of_sheet((k + 2) % 10) == (sector_of_sheet(k) + 1) % 5
    # conjugation-literal: k -> (2 - k) mod 10 negates the sector
    for k in range(10):
        assert sector_of_sheet((2 - k) % 10) == (-sector_of_sheet(k)) % 5
    # antipodal sheets develop into the same sector
    for k in range(5):
        assert SECTOR_OF_SHEET[k] == SECTOR_OF_SHEET[k + 5]
    assert sorted(set(SECTOR_OF_SHEET)) == [0, 1, 2, 3, 4]


def test_delta_star_equivariance():
    rng = random.Random(8)
    for _ in range(20):
        p = _random_point(rng, lower=rng.random() < 0.5)
        lhs = delta_star(rotate_sheeted(p))
        rhs = EPSILON * delta_star(p)
        assert abs(lhs - rhs) < 1e-8
        lhs = delta_star(conjugate_sheeted(p))
        rhs = delta_star(p).conjugate()
        assert abs(lhs - rhs) < 1e-8


def test_delta_star_image_in_star():
    star = build_star()
    rng = random.Random(9)
    for _ in range(40):
        p = _random_point(rng, lower=rng.random() < 0.5)
        loc = point_location(delta_star(p), star, tol=1e-7)
        assert loc.kind != "exterior"


def test_delta_star_nu_override():
    p = SheetedPoint(0.4 + 0.3j, 1)
    assert abs(delta_star(p, nu=2) - EPSILON ** 2 * delta(p)) < 1e-12


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


def test_flow_time_zero_is_identity():
    p = SheetedPoint(1.0 + 1.0j, 6)
    assert flow(p, 0.0) == p


def test_flow_advances_developed_image_linearly():
    p0 = SheetedPoint(1.1 + 0.9j, 0)
    z0 = delta(p0)
    p1 = flow(p0, 0.1, steps=200)
    assert abs(delta(p1) - z0 - 0.1) < 1e-6


def test_flow_rotated_directions_develop_straight():
    p0 = SheetedPoint(1.05 + 1.0j, 0)
    z0 = delta(p0)
    for theta in (0.5, 2.0, -1.2):
        alpha = cmath.exp(1j * theta)
        p1 = flow(p0, 0.1, steps=150, direction=alpha)
        assert abs(delta(p1) - z0 - 0.1 * alpha) < 1e-6


def test_flow_geodesics_develop_collinear():
    # three developed points of one flow line are collinear
    p0 = SheetedPoint(0.9 + 1.1j, 2)
    zs = [delta(p0)]
    for t in (0.05, 0.1):
        zs.append(delta(flow(p0, t, steps=150)))
    u = zs[2] - zs[0]
    assert abs(((zs[1] - zs[0]) / u).imag) < 1e-8


def test_flow_on_every_sheet_matches_phase():
    for k in range(10):
        p0 = SheetedPoint(1.1 + 1.0j, k)
        z0 = delta(p0)
        p1 = flow(p0, 0.04, steps=100)
        assert abs(delta(p1) - z0 - 0.04 * developed_direction(p0)) < 1e-7


def test_flow_leaves_domain_in_finite_time():
    p0 = SheetedPoint(1.1 + 0.9j, 0)
    with pytest.raises(LeftDomain):
        flow(p0, 6.0, steps=3000)


def test_flow_rejects_bad_steps():
    with pytest.raises(ValueError):
        flow(SheetedPoint(1 + 1j, 0), 0.1, steps=0)
