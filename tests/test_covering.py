import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsurf.conformal import MU, PREVERTICES, SheetedPoint
from starsurf.covering import (BASEPOINT, ContinuationAmbiguity,
                               NonIntegralGenus, SheetPermutation,
                               connectivity_check,
                               genus_from_total_ramification,
                               genus_riemann_hurwitz, monodromy,
                               ramification_report, total_ramification)
from starsurf.geometry import INNER_RADIUS, OUTER_RADIUS, Dihedral, R, U, build_triangle

#: continuation around each singular value shifts sheets by the numerator of
#: the local exponent: eta ~ C (xi - s)^{e/10} picks up e^{2 pi i e/10}, which
#: is e steps of the inter-sheet phase pi/5
EXPECTED_SHIFTS = {name: round(10 * MU[s]) % 10 for name, s in zip("0ab", PREVERTICES)}


def test_monodromy_shifts_match_exponent_oracle():
    for name, shift in EXPECTED_SHIFTS.items():
        perm = monodromy(name)
        assert perm.images == SheetPermutation.shift(shift).images


def test_monodromy_shifts_are_the_corner_rotations():
    # the linear parts of the mirrors in a corner's outgoing and incoming
    # sides (O -> A -> B) compose to the rotation Dihedral(-10 frac) that
    # check 05 expects, frac pi being the corner's angle
    tri = build_triangle()

    def mirror(p, q):  # z -> e^{2 i psi} conj z, psi the side's angle
        return Dihedral(round(10 * cmath.phase(q - p) / math.pi), 1)

    sides = {"0": ((tri.O, tri.A), (tri.B, tri.O), tri.gamma_frac),
             "a": ((tri.A, tri.B), (tri.O, tri.A), tri.beta_frac),
             "b": ((tri.B, tri.O), (tri.A, tri.B), tri.alpha_frac)}
    for name, (out, into, frac) in sides.items():
        rotation = mirror(*out) * mirror(*into)
        assert rotation == Dihedral(int(-10 * frac))
        assert monodromy(name).images == SheetPermutation.shift(rotation.j).images


def test_monodromy_cycle_types():
    assert monodromy("0").cycle_type() == (5, 5)
    assert monodromy("a").cycle_type() == (10,)
    assert monodromy("b").cycle_type() == (10,)
    assert monodromy("inf").is_identity


def test_monodromy_stable_over_two_decades_of_radius():
    for name, shift in EXPECTED_SHIFTS.items():
        gap = {"0": 0.618, "a": 0.618, "b": 1.0}[name]
        for frac in (1e-3, 1e-2, 1e-1):
            perm = monodromy(name, radius=frac * gap)
            assert perm.images == SheetPermutation.shift(shift).images


def test_monodromy_numeric_centers_accepted():
    from starsurf.geometry import INNER_RADIUS
    perm = monodromy(INNER_RADIUS)
    assert perm.images == SheetPermutation.shift(3).images
    with pytest.raises(ValueError):
        monodromy(0.37)
    with pytest.raises(ValueError):
        monodromy("0", radius=0.7)  # would enclose a as well


def test_monodromy_rejects_degenerate_loops():
    with pytest.raises(ValueError):
        monodromy("a", radius=0.0)
    with pytest.raises(ValueError):
        monodromy("inf", radius=-0.1)
    with pytest.raises(ValueError):
        monodromy("b", steps=2)  # two steps do not wind around b


def test_finite_monodromies_compose_to_identity():
    p0 = monodromy("0")
    pa = monodromy("a")
    pb = monodromy("b")
    # 8 + 3 + 9 = 20 = 0 mod 10
    assert all(p0(pa(pb(k))) == k for k in range(10))


def test_continuation_ambiguity_on_wild_steps():
    # a step whose branch values move further than the inter-sheet spacing
    # cannot be matched decisively
    from starsurf.covering import _continue_circle
    with pytest.raises(ContinuationAmbiguity):
        _continue_circle([0.9 + 1.0j, 2.5 + 2.5j, 0.9 + 1.0j])


def test_ambiguity_names_the_step_and_increments():
    # 32 steps around infinity turn about 20/32 of a sheet each, which the
    # rounded read would take for the neighbouring sheet
    with pytest.raises(ContinuationAmbiguity,
                       match=r"step 1 of 32 .*read increment [-+]\d\.\d{3} sheet, "
                             r"predicted [-+]\d\.\d{3}"):
        monodromy("inf", radius=0.1, steps=32)


#: radius at which each loop would touch another singular value
LOOP_LIMIT = {"0": INNER_RADIUS, "a": INNER_RADIUS, "b": OUTER_RADIUS - INNER_RADIUS,
              "inf": 1.0 / OUTER_RADIUS}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LOOP_LIMIT)), st.floats(0.005, 0.995), st.integers(3, 64))
@example("inf", 0.1 * OUTER_RADIUS, 32)
@example("b", 0.039, 12)
def test_loop_gives_the_exponent_shift_or_raises(name, frac, steps):
    # a coarse loop may be refused, but never aliased onto a wrong sheet
    try:
        perm = monodromy(name, radius=frac * LOOP_LIMIT[name], steps=steps)
    except ContinuationAmbiguity:
        return
    assert perm.images == SheetPermutation.shift(EXPECTED_SHIFTS.get(name, 0)).images


def test_ramification_report():
    reports = {r.point: r for r in ramification_report()}
    assert reports["0"].ramification_index == 8
    assert reports["a"].ramification_index == 9
    assert reports["b"].ramification_index == 9
    assert reports["inf"].ramification_index == 0
    assert reports["0"].local_degree == 5
    assert reports["a"].local_degree == 10
    assert reports["inf"].local_degree == 1
    assert total_ramification(list(reports.values())) == 26


def test_genus_from_ramification():
    assert genus_riemann_hurwitz(ramification_report()) == 4
    assert genus_from_total_ramification(18) == 0  # unbranched degree-10 cover
    with pytest.raises(NonIntegralGenus):
        genus_from_total_ramification(27)  # parity violation
    with pytest.raises(NonIntegralGenus):
        genus_from_total_ramification(16)


def test_sheet_permutation_validation():
    with pytest.raises(ValueError):
        SheetPermutation((0,) * 10)


def _act(g: Dihedral, p: SheetedPoint) -> SheetedPoint:
    """g on a sheeted point: xi -> conj^l xi, and the sheet by g.sheet."""
    return SheetedPoint(p.xi.conjugate() if g.l else p.xi, g.sheet(p.sheet))


def test_rotation_action_shifts_by_two():
    p = SheetedPoint(0.3 + 0.4j, 1)
    q = _act(R, p)
    assert q.sheet == 3 and q.xi == p.xi
    # multiplying eta by eps moves two sheet steps
    assert abs(q.eta - cmath.exp(2j * math.pi / 5) * p.eta) < 1e-14


def test_conjugation_action_matches_branch_data():
    rng = random.Random(8)
    for _ in range(50):
        p = SheetedPoint(complex(rng.uniform(-1.5, 2.0), rng.uniform(0.05, 1.5)),
                         rng.randrange(10))
        q = _act(U, p)
        assert q.xi == p.xi.conjugate()
        assert abs(q.eta - p.eta.conjugate()) < 1e-12
        # involution
        assert _act(U, q) == p


def test_dihedral_relations_on_sheeted_points():
    p = SheetedPoint(0.3 + 0.4j, 1)
    r5 = R * R * R * R * R
    assert r5 == Dihedral() and _act(r5, p) == p
    rng = random.Random(3)
    for _ in range(50):
        q = SheetedPoint(complex(rng.uniform(-1, 2), rng.uniform(0.1, 1.3)),
                         rng.randrange(10))
        assert _act(U, _act(U, q)) == q == _act(U * U, q)
    # U R = R^{-1} U as transformations
    r_inv = R * R * R * R  # R^{-1} = R^4
    assert U * R == r_inv * U == R.inverse() * U
    for _ in range(20):
        q = SheetedPoint(complex(rng.uniform(-1, 2), rng.uniform(0.1, 1.3)),
                         rng.randrange(10))
        assert _act(U, _act(R, q)) == _act(r_inv, _act(U, q)) == _act(U * R, q)


def test_connectivity_check():
    assert connectivity_check() is True
    assert connectivity_check([SheetPermutation.shift(5)]) is False
    assert connectivity_check([SheetPermutation.shift(3)]) is True


def test_basepoint_is_away_from_singular_values():
    from starsurf.geometry import INNER_RADIUS, OUTER_RADIUS
    for s in (0.0, INNER_RADIUS, OUTER_RADIUS):
        assert abs(BASEPOINT - s) > 0.4
