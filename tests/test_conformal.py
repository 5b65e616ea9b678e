import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.conformal import (BRANCH_PHASE, CORNERS, KITE_CORNERS, MU, P, P_INF, Q,
                                SERIES_TERMS, T_CENTER, F_Q, F_Q_inv, F_T, LeftDomain,
                                SheetedPoint, SingularFiber, _inv_eta, _series_tables,
                                compute_k, corner_angle, eta, eta_ref, f, f_prime)
from starsurf import conformal
from starsurf.geometry import INNER_RADIUS, OUTER_RADIUS, UsageError, build_triangle
from starsurf.quadrature import QuadratureRule, _jacobi_nodes, _panel_gj, clog, contour, panel

A, B = INNER_RADIUS, OUTER_RADIUS


# ------------------------------------------------------------ quadrature core

def test_panel_against_closed_forms():
    inv_sqrt = lambda z: np.exp(-0.5 * clog(z))  # noqa: E731
    # int_0^1 x^{-1/2} dx = 2
    assert abs(panel(inv_sqrt, 0.0, 1.0, mu0=0.5) - 2.0) < 1e-13
    assert abs(_panel_gj(inv_sqrt, 0.0, 1.0, 0.5, 0.0, 48) - 2.0) < 1e-13
    # int_0^1 (1-x)^{-0.9} dx = 10
    inv_pow = lambda z: np.exp(-0.9 * clog(1.0 - z))  # noqa: E731
    assert abs(panel(inv_pow, 0.0, 1.0, mu1=0.9) - 10.0) < 1e-11
    assert abs(_panel_gj(inv_pow, 0.0, 1.0, 0.0, 0.9, 48) - 10.0) < 1e-11
    # analytic integrand over a complex segment: exact antiderivative
    s0, s1 = 0.3 + 0.2j, 1.1 + 0.9j
    exact = cmath.exp(s1) - cmath.exp(s0)
    assert abs(panel(np.exp, s0, s1) - exact) < 1e-13
    assert abs(_panel_gj(np.exp, s0, s1, 0.0, 0.0, 48) - exact) < 1e-13


@pytest.mark.parametrize("n", [32, 48, 80, 120, 152])
@pytest.mark.parametrize("alpha, beta", [(0.0, -0.8), (-0.3, 0.0), (0.0, -0.9),
                                         (-0.9, 0.0), (-0.3, -0.8), (0.0, 0.0),
                                         (-0.9, -0.9)])
def test_jacobi_weights_integrate_polynomials(n, alpha, beta):
    # int (1-x)^alpha (1+x)^(beta+p) = 2^(alpha+beta+p+1) B(alpha+1, beta+p+1),
    # and the mirror image
    def beta_fn(p, q):
        return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
    x, w = _jacobi_nodes(n, alpha, beta)
    for p in range(9):
        scale = 2.0 ** (alpha + beta + p + 1)
        assert abs(np.dot(w, (1 + x) ** p) / (scale * beta_fn(alpha + 1, beta + p + 1)) - 1) < 2e-12
        assert abs(np.dot(w, (1 - x) ** p) / (scale * beta_fn(alpha + p + 1, beta + 1)) - 1) < 2e-12


@pytest.mark.parametrize("n", [5, 32, 48, 81, 152])
def test_gauss_legendre_matches_numpy(n):
    # numpy's leggauss is an independent oracle for the Gauss-Legendre case
    x, w = _jacobi_nodes(n, 0.0, 0.0)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xl)) < 4e-16
    assert np.max(np.abs(w - wl)) < 2e-14


def test_clog_takes_the_upper_side_on_scalars_and_arrays():
    below = complex(-2.0, -0.0)
    assert clog(below) == cmath.log(complex(-2.0, 0.0))
    assert clog(np.array([below, 1j]))[0] == clog(below)
    assert clog(np.array([-2.0]))[0] == clog(below)  # real arrays too


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(target_abs_err=0.0)
    with pytest.raises(ValueError):
        QuadratureRule(nodes_per_panel=2)


def test_contour_path_independence():
    # integrand analytic off the cut [0, b]; two homotopic paths agree
    target = 0.9 + 1.1j
    direct = contour(_inv_eta, [0.0, target], mu_start=0.8)
    detour = contour(_inv_eta, [0.0, 1.5j, target], mu_start=0.8)
    assert abs(direct - detour) < 1e-10


def test_array_integrand_is_one_over_the_scalar_branch():
    zs = np.array([0.3 + 0.4j, -0.7 + 0.01j, 1.4 + 1e-3j, 2.5 + 0.0j, 0.2])
    want = np.array([1.0 / eta_ref(z) for z in zs])
    assert np.max(np.abs(_inv_eta(zs) / want - 1.0)) < 1e-14


# ------------------------------------------------------------------- the root

def test_f_roots_and_product_oracle():
    assert f(0) == 0
    assert abs(f(A)) < 1e-14
    # direct product-form oracle with the closed forms of a and b
    a = 2 * math.cos(2 * math.pi / 5)
    b = 2 * math.cos(math.pi / 5)
    oracle = (1 - a) ** 3 * (1 - b) ** 9
    assert abs(f(1.0) - oracle) < 1e-14 * abs(oracle)


def test_f_prime_matches_finite_differences():
    rng = random.Random(4)
    for _ in range(10):
        z = complex(rng.uniform(-1, 2), rng.uniform(-1.5, 1.5))
        h = 1e-6
        fd = (f(z + h) - f(z - h)) / (2 * h)
        assert abs(f_prime(z) - fd) < 1e-5 * max(1.0, abs(fd))


def test_eta_sheet_ratio_and_tenth_power():
    xi = 0.3 + 0.4j
    for k in range(10):
        ratio = eta(xi, k + 1) / eta(xi, k)
        assert abs(ratio - cmath.exp(1j * math.pi / 5)) < 1e-14
    assert abs(eta(xi, 0) ** 10 / f(xi) - 1) < 1e-10


def test_eta_positive_on_inner_segment_with_log_oracle():
    xi = 0.5 * A
    val = eta(xi, 0)
    assert abs(val.imag) < 1e-14 and val.real > 0
    assert abs(abs(val) - abs(f(xi)) ** 0.1) < 1e-13
    # log-domain oracle with the matching (upper-side) branch
    oracle = cmath.exp((8 * clog(xi) + 3 * clog(xi - A) + 9 * clog(xi - B)) / 10)
    assert abs(val / oracle - cmath.exp(4j * math.pi / 5)) < 1e-13


def test_eta_singular_fibers_raise():
    for s in (0.0, A, B):
        with pytest.raises(SingularFiber):
            eta(s, 0)
    with pytest.raises(SingularFiber):
        SheetedPoint(A, 3)
    with pytest.raises(ValueError):
        SheetedPoint(0.5 + 0.5j, 11)


def test_sheeted_point_curve_relation():
    rng = random.Random(12)
    for _ in range(25):
        p = SheetedPoint(complex(rng.uniform(-1, 2), rng.uniform(0.1, 1.5)),
                         rng.randrange(10))
        assert abs(p.eta ** 10 / f(p.xi) - 1) < 1e-10


# -------------------------------------------------------------- normalization

def _quadrature_k(rule: QuadratureRule) -> float:
    """The quadrature oracle for k: a / integral_0^a d xi/eta_0."""
    half = A / 2
    fa = (panel(_inv_eta, 0.0, half, mu0=MU[0.0], rule=rule)
          + panel(_inv_eta, half, A, mu1=MU[A], rule=rule))
    assert abs(fa.imag) < 1e-12 * abs(fa.real)
    return A / fa.real


def test_compute_k_positive_and_consistent():
    k = compute_k()
    assert k > 0
    fine = QuadratureRule(nodes_per_panel=96, target_abs_err=1e-13)
    half = A / 2
    fa = (panel(_inv_eta, 0.0, half, mu0=0.8)
          + panel(_inv_eta, half, A, mu1=0.3, rule=fine))
    assert abs(k * fa - A) < 1e-10


def test_compute_k_convergence_under_refinement():
    # quadrature under a tighter target moves towards the closed form
    coarse = QuadratureRule(nodes_per_panel=24, target_abs_err=1e-8)
    finer = QuadratureRule(nodes_per_panel=24, target_abs_err=5e-9)
    k1, k2 = _quadrature_k(coarse), _quadrature_k(finer)
    assert abs(k1 - k2) < 1e-8
    assert abs(k1 - compute_k()) < 1e-8 and abs(k2 - compute_k()) < 1e-8


def test_compute_k_is_cached():
    assert compute_k() is compute_k()


def test_compute_k_closed_form_matches_quadrature():
    k = compute_k()
    assert abs(k - 0.147926528245895497455) < 1e-16  # the closed form to 21 digits
    for rule in (QuadratureRule(), QuadratureRule(nodes_per_panel=96, target_abs_err=1e-13)):
        assert abs(_quadrature_k(rule) - k) < 1e-13


# ------------------------------------------------------------------- the map

def test_map_endpoint_values():
    assert abs(F_T(0.0)) < 1e-12
    assert abs(F_T(A) - A) < 1e-10
    expected_b = B * cmath.exp(1j * math.pi / 5)
    assert abs(F_T(B) - expected_b) < 1e-10
    assert abs(expected_b - (1.30902 + 0.95106j)) < 1e-5


def test_map_corner_approach_scaling():
    # near b the map behaves like B + C (xi - b)^{1/10}: the defect shrinks
    # by 10^{-1/10} per decade and points back along the edge towards A
    expected_b = B * cmath.exp(1j * math.pi / 5)
    r1 = F_T(B - 1e-3) - expected_b
    r2 = F_T(B - 1e-4) - expected_b
    assert abs(abs(r2) / abs(r1) - 10 ** -0.1) < 5e-3
    edge_back = cmath.phase(A + 0j - expected_b)
    assert abs(cmath.phase(r1) - edge_back) < 1e-2
    # near a the exponent is 7/10, so the defect shrinks much faster
    r1 = F_T(A - 1e-3) - A
    r2 = F_T(A - 1e-4) - A
    assert abs(abs(r2) / abs(r1) - 10 ** -0.7) < 5e-3


def test_map_boundary_correspondence():
    # (0, a) maps onto the real edge OA
    for x in (0.1, 0.3, 0.5):
        w = F_Q(x * A)
        assert abs(w.imag) < 1e-9
        assert 0 < w.real < A
    # (a, b) maps onto the edge from A towards B (direction 3 pi/10)
    w = F_T((A + B) / 2)
    assert abs(cmath.phase(w - A) - 3 * math.pi / 10) < 1e-9


def test_interior_angle_recovery():
    assert abs(corner_angle(0.0) - 2 * math.pi / 10) < 1e-3
    assert abs(corner_angle(A) - 7 * math.pi / 10) < 1e-3
    assert abs(corner_angle(B) - math.pi / 10) < 1e-3


def _in_closed_triangle(z, tol=1e-8):
    tri = build_triangle()
    verts = (tri.O, tri.A, tri.B)
    for i in range(3):
        p, q = verts[i], verts[(i + 1) % 3]
        if (((q - p).conjugate() * (z - p)).imag) < -tol:
            return False
    return True


def test_map_image_containment_and_injectivity():
    rng = random.Random(21)
    pts = [complex(rng.uniform(0.1, 1.6), rng.uniform(0.1, 1.4))
           for _ in range(20)]
    images = [F_T(z) for z in pts]
    for w in images:
        assert _in_closed_triangle(w)
    # 190 pairs: distinct images, separation controlled by input separation
    worst = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dz = abs(pts[i] - pts[j])
            dw = abs(images[i] - images[j])
            assert dw > 1e-12
            worst = min(worst, dw / dz)
    assert worst > 1e-3


def test_map_derivative_is_k_over_eta():
    k = compute_k()
    for xi in (0.4 + 0.6j, 1.2 + 0.8j):
        h = 1e-5
        fd = (F_T(xi + h) - F_T(xi - h)) / (2 * h)
        assert abs(fd - k / eta_ref(xi)) < 1e-7


def test_schwarz_reflection_symmetry():
    for xi in (0.3 + 0.2j, 1.1 + 0.5j, -0.4 + 0.8j):
        assert abs(F_Q(xi.conjugate()) - F_Q(xi).conjugate()) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.builds(complex, st.floats(-1.0, 3.0),
                 st.one_of(st.floats(0.01, 2.0), st.floats(-2.0, -0.01))))
def test_schwarz_reflection_property(xi):
    assert abs(F_Q(xi.conjugate()) - F_Q(xi).conjugate()) < 1e-12


# ------------------------------------------------------ the closed-form map

FINE = QuadratureRule(nodes_per_panel=96, target_abs_err=1e-13)


def _oracle(xi: complex) -> complex:
    """F_T by quadrature.  Within 0.01 of a or b the integral starts at that
    corner, whose image is known, and runs in the offset d = z - s, which no
    node rounds away: 1/eta_0(s + d) from the prevertex offsets (s - p) + d.
    It reaches xi through the upper half-plane, so on the axis too."""
    for s in (A, B):
        if abs(xi - s) < 1e-2:
            def integrand(d):
                return np.exp(-sum(mu * clog((s - p) + d) for p, mu in MU.items())) / BRANCH_PHASE
            d = xi - s
            path = [0.0, d / 2 + 0.5j * abs(d), d]
            return CORNERS[s] + compute_k() * contour(integrand, path, mu_start=MU[s], rule=FINE)
    return F_T(xi, FINE)


def _from_t(t: complex) -> complex:
    """The xi with t(xi) = t: the inverse of t = (b - a) xi / (a (b - xi))."""
    return A * B * t / ((B - A) + A * t)


ANGLE = st.floats(0.0, math.pi)
#: the closed upper half-plane where each region and each branch is tested
CLOSED_UPPER = st.one_of(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.0, 3.0, allow_subnormal=False)),
    # the four real-axis intervals (-inf, 0), (0, a), (a, b), (b, inf)
    st.floats(-1e3, -1e-9), st.floats(1e-9, A - 1e-9), st.floats(A + 1e-9, B - 1e-9),
    st.floats(B + 1e-9, 1e3),
    # within 1e-12 of a prevertex, on the axis or off it
    st.builds(lambda s, r, u: s + r * cmath.exp(1j * u), st.sampled_from([0.0, A, B]),
              st.floats(1e-15, 1e-12), ANGLE),
    # within 0.1 of e^{i pi/3} in t, where only the Taylor series reaches
    st.builds(lambda r, u: _from_t(T_CENTER + r * cmath.exp(1j * u)), st.floats(0.0, 0.1),
              st.floats(-math.pi, math.pi)),
    # far out, up to |xi| = 1e3
    st.builds(lambda r, u: r * cmath.exp(1j * u), st.floats(3.0, 1e3), ANGLE),
).map(lambda z: complex(complex(z).real, max(complex(z).imag, 0.0)))


@settings(max_examples=300, deadline=None)
@given(CLOSED_UPPER)
def test_closed_form_matches_the_quadrature_oracle(xi):
    assert abs(F_T(xi) - _oracle(xi)) <= 1e-13


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, -5e-324, -1e-310])
def test_quadrature_oracle_at_subnormal_x(x):
    # below 1e-100 the oracle takes the leading term 5 k x^(1/5) a^(-3/10) b^(-9/10),
    # x^(1/5) from the upper side: a panel from 0 to a subnormal x would have
    # no width to integrate over
    assert abs(_oracle(x) - F_T(x)) <= 1e-14 * abs(F_T(x))


@settings(max_examples=50, deadline=None)
@given(st.lists(CLOSED_UPPER | st.sampled_from([0.0, A, B]), min_size=1, max_size=12))
def test_F_T_on_an_array_equals_F_T_pointwise(zs):
    images = F_T(np.array(zs))
    assert images.shape == (len(zs),)
    assert max(abs(w - F_T(z)) for w, z in zip(images, zs)) <= 1e-15
    # any shape, a 0-d array included
    grid = np.array(zs * 2).reshape(2, len(zs))
    assert np.array_equal(F_T(grid), np.stack([images, images]))
    assert F_T(np.array(zs[0])).shape == ()


def test_F_T_at_the_prevertices_is_exact():
    assert F_T(0.0) == 0 and F_T(A) == A
    assert abs(F_T(B) - B * cmath.exp(1j * math.pi / 5)) <= 1e-15
    assert F_T(np.array([0.0, A, B])).tolist() == [F_T(0.0), F_T(A), F_T(B)]


def _series_tables_numpy():
    """The series tables built with numpy arrays, as the library first built
    them: the oracle of its pure-Python _series_tables."""
    def beta(p, q):
        return math.gamma(p) * math.gamma(q) / math.gamma(p + q)

    def rising(c):  # (c)_n / n!
        return np.append(1.0, np.cumprod((j - 1 + c) / j))

    n = np.arange(SERIES_TERMS)
    j = n[1:]
    t0 = T_CENTER
    al, be, ga = t0 * (1 - t0), 1 - 2 * t0, (P - 1) - (P + Q - 2) * t0
    g = [t0 ** (P - 1) * (1 - t0) ** (Q - 1)]
    g.append(ga * g[0] / al)
    for m in range(1, SERIES_TERMS - 2):
        g.append(((ga - be * m) * g[m] + (m + 1 - P - Q) * g[m - 1]) / (al * (m + 1)))
    rows = np.array([rising(1 - Q) / (P + n), rising(P + Q) / (P + n),
                     rising(1 - P) / (Q + n), rising(1 - Q) / (P_INF + n),
                     np.append(0.0, np.array(g) / j)], dtype=complex)
    t1 = 0.75 * t0
    c = t1 ** P * np.polyval(rows[0][::-1], t1) - np.polyval(rows[4][::-1], t1 - t0)
    b, e3 = beta(P, Q), cmath.exp(0.3j * math.pi)
    consts = (0.0, 0.0, b, b + e3 * beta(P_INF, Q), c)
    regions = [(A * const / b, sigma, lam, mu) for const, sigma, lam, mu in
               zip(consts, (1, 1, -1, -e3, 1), (P, P, 0, -P_INF, 0), (0, -P, Q, 0, 0))]
    return rows[:, ::-1] * (A / b), np.array(regions, dtype=complex)


def test_series_tables_equal_their_numpy_construction_bit_for_bit():
    # numpy divides a complex by a real as a product with the reciprocal; a
    # plain quotient misses 55 Taylor coefficients and a constant by an ulp
    coeffs, regions = _series_tables_numpy()
    rows, region_rows = _series_tables()
    assert np.array(rows, dtype=complex).tobytes() == coeffs.tobytes()
    assert np.array(region_rows, dtype=complex).tobytes() == regions.tobytes()
    assert all(type(v) is complex for row in rows + region_rows for v in row)
    F_T(np.array([1j, 2j]))  # the first array call makes the array tables
    horner, array_regions = conformal._ARRAY_TABLES
    assert horner.tobytes() == coeffs.T.copy().tobytes()
    assert array_regions.tobytes() == regions.tobytes()


def test_closed_form_matches_mpmath_betainc():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for xi in (0.3 + 0.4j, 1.1 + 0.9j, -2.0 + 0.5j, _from_t(T_CENTER), 40.0 + 7.0j):
        x = mp.mpc(xi.real, xi.imag)
        t = (B - A) * x / (A * (B - x))
        want = complex(A * mp.betainc(mp.mpf(1) / 5, mp.mpf(7) / 10, 0, t, regularized=True))
        assert abs(F_T(xi) - want) <= 1e-15


#: far points of the closed upper half-plane, up to the float range
FAR = [1e155j, 1e200, -1e160, 1e300 + 1e300j, 1.7e308 + 1.7e308j]


def test_F_T_is_finite_at_every_far_point():
    # F_T is analytic at infinity (the integrand decays like xi^-2), and
    # from |xi| ~ 1e17 it is its value there to rounding
    limit = F_T(1e17j)
    for xi in FAR + [1e150j, -1e150]:
        assert abs(F_T(xi) - limit) <= 1e-15
    assert np.all(np.abs(F_T(np.array(FAR + [0.3 + 0.4j]))[:-1] - limit) <= 1e-15)
    # a far point in a batch leaves the others' values alone
    assert F_T(np.array([0.3 + 0.4j, 1e200]))[0] == F_T(np.array([0.3 + 0.4j, 0.5j]))[0]


@pytest.mark.parametrize("bad", [complex(math.nan, 1), complex(1, math.nan),
                                 complex(math.inf, 1), complex(-math.inf, 0)])
def test_F_T_array_is_nan_at_a_non_finite_point(bad):
    # as F_T at that point, and without a warning (pytest makes warnings errors)
    regular = [0.3 + 0.2j, 1.1 + 0.9j, 0.0, 1e200]
    images = F_T(np.array([bad] + regular))
    assert cmath.isnan(F_T(bad)) and cmath.isnan(images[0])
    assert images[1:].tobytes() == F_T(np.array(regular)).tobytes()
    assert images[1] == F_T(0.3 + 0.2j)


@pytest.mark.parametrize("xi", [1e151j, -1e200, 1e300 + 1e300j])
def test_eta_rejects_points_beyond_the_far_bound(xi):
    # |eta| ~ |xi|^2 leaves the float range near |xi| = 1.3e154
    with pytest.raises(UsageError):
        eta(xi, 0)
    with pytest.raises(UsageError):
        SheetedPoint(xi, 3)
    assert abs(eta(1e150j, 0)) < 1e301


def test_F_T_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        F_T(0.5 - 0.5j)


def test_integrand_endpoint_exponents_are_integrable():
    # 1/eta has exponents -8/10, -3/10, -9/10 at the prevertices; all are
    # greater than -1, so every endpoint panel converges
    from starsurf.conformal import MU
    assert MU == {0.0: 0.8, A: 0.3, B: 0.9}
    assert all(0 < mu < 1 for mu in MU.values())


# --------------------------------------------------- the inverse map F_Q_inv

EPS = 2.0 ** -52


@st.composite
def kite_points(draw):
    """Points of the closed triangle (edges included), or of the open kite."""
    u, v = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    w = u * A + v * CORNERS[B]
    if draw(st.booleans()):  # the lower half, less its outer edges
        assume(u > 0.0 and u + v < 1.0)
        w = w.conjugate()
    return w


@settings(max_examples=400, deadline=None)
@given(kite_points())
def test_F_Q_inv_is_a_right_inverse(w):
    # 1e-13 where floats resolve it; within 0.5 of B the pi/10 corner
    # squeezes a xi-disc of 1e-3 onto a w-disc of 0.5, so the bound there is
    # what a rounding of xi moves F_Q: |F_Q'| ulp(xi), plus one of w
    assume(min(abs(w - c) for c in KITE_CORNERS[:2]) > 1e-6)
    far_from_B = min(abs(w - c) for c in KITE_CORNERS[2:])
    assume(far_from_B > 0.05)
    xi = F_Q_inv(w)
    dF = compute_k() / eta_ref(xi if xi.imag >= 0.0 else xi.conjugate())
    assert abs(F_Q(xi) - w) <= 1e-13 + 64 * EPS * (abs(xi) * abs(dF) + abs(w))
    if far_from_B > 0.5:
        assert abs(F_Q(xi) - w) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(st.builds(complex, st.floats(-1.0, 3.0), st.floats(-2.0, 2.0)))
def test_F_Q_inv_is_a_left_inverse(xi):
    assume(min(abs(xi - s) for s in (0.0, A, B)) > 1e-3)
    assert abs(F_Q_inv(F_Q(xi)) - xi) <= 1e-12 * (1.0 + abs(xi))


@pytest.mark.parametrize("w", [1.0 + 0j, -0.01 + 0.01j, 2.0 + 2.0j, 0.6 - 1.0j,
                               *KITE_CORNERS, 1e-10 + 1e-10j])
def test_F_Q_inv_rejects_targets_off_the_kite_or_at_a_corner(w):
    with pytest.raises(LeftDomain):
        F_Q_inv(w)


def test_F_Q_inv_near_B_lands_on_the_singular_fiber():
    # within about 0.05 of B, the preimage is within 1e-13 of b; the corner's
    # edges leave B at angles 1.2 pi (to O) and 1.3 pi (to A)
    for u in (1.21, 1.25, 1.29):
        xi = F_Q_inv(CORNERS[B] + 0.01 * cmath.exp(1j * math.pi * u))
        assert abs(xi - B) <= 1e-13
