import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsurf.geometry import EPSILON, INNER_RADIUS, build_star, point_location
from starsurf.quotient import build_reflections, edge_pairing
from starsurf.tiling import (BASE_WORDS, MotionGroupElement, _key,
                             _lattice_words, _translation_values, _word_act,
                             _word_conjugate, _word_rotate, _word_value,
                             apothem, copies_containing, coverage_check,
                             fundamental_domain_check, generate_patch,
                             identity, invariance_freeness_checks, multiply,
                             tau, u_vector)

STAR = build_star()


def test_apothem_is_exactly_half():
    assert abs(apothem() - 0.5) < 1e-14
    # 2 * apothem = |tau_k(0)| = |2 u_k| = 1
    for k in range(5):
        assert abs(abs(tau(k)(0)) - 1.0) < 1e-14
    assert abs(tau(0)(0) - 1.0) < 1e-14


def test_translations_are_pure_and_abelian():
    rng = random.Random(1)
    for k in range(5):
        t = tau(k)
        assert t.j == 0 and t.ell == 0
    for k1 in range(5):
        for k2 in range(5):
            # the composed translations are identical; pointwise application
            # differs only by addition order
            assert multiply(tau(k1), tau(k2)).t == multiply(tau(k2), tau(k1)).t
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(tau(k1)(tau(k2)(z)) - tau(k2)(tau(k1)(z))) < 1e-15


def test_rotation_commutation_index_law():
    # tau_{(k+2l) mod 5} o R^l = R^l o tau_k, exactly as maps
    rng = random.Random(2)
    for k in range(5):
        for ell in range(5):
            for _ in range(20):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                lhs = tau((k + 2 * ell) % 5)(EPSILON ** ell * z)
                rhs = EPSILON ** ell * tau(k)(z)
                assert abs(lhs - rhs) < 1e-12


def test_conjugation_index_law():
    # R^j U sends u_k to u with an index affine in -k, shifted by 2j
    kprime = []
    us = [u_vector(k) for k in range(5)]
    for k in range(5):
        image = us[k].conjugate()
        matches = [m for m in range(5) if abs(image - us[m]) < 1e-12]
        assert len(matches) == 1
        kprime.append(matches[0])
    assert kprime == [(-k) % 5 for k in range(5)]
    for j in range(5):
        for k in range(5):
            image = EPSILON ** j * us[k].conjugate()
            m = (kprime[k] + 2 * j) % 5
            assert abs(image - us[m]) < 1e-12


def test_multiplication_matches_componentwise_law():
    rng = random.Random(3)
    for _ in range(50):
        g1 = MotionGroupElement(rng.randrange(5), rng.randrange(2),
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        g2 = MotionGroupElement(rng.randrange(5), rng.randrange(2),
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        prod = multiply(g1, g2)
        # action compatibility
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(prod(z) - g1(g2(z))) < 1e-12
        # componentwise law
        expected_j = (g1.j + g2.j) % 5 if g1.ell == 0 else (g1.j - g2.j) % 5
        assert prod.j == expected_j
        t2 = g2.t.conjugate() if g1.ell else g2.t
        assert abs(prod.t - (EPSILON ** g1.j * t2 + g1.t)) < 1e-12


def test_translation_then_rotation_factorization():
    # (e, 2u_k) * (R^j U^l, 0) = (R^j U^l, 2u_k)
    for k in range(5):
        for j in range(5):
            for ell in range(2):
                prod = multiply(tau(k), MotionGroupElement(j, ell, 0))
                assert prod.j == j and prod.ell == ell
                assert abs(prod.t - 2 * u_vector(k)) < 1e-14


def test_identity_is_two_sided():
    g = MotionGroupElement(3, 1, 0.7 - 0.2j)
    e = identity()
    assert multiply(g, e) == g
    prod = multiply(e, g)
    assert prod.j == g.j and prod.ell == g.ell and abs(prod.t - g.t) < 1e-15


def test_associativity_spot_check():
    rng = random.Random(4)
    for _ in range(20):
        gs = [MotionGroupElement(rng.randrange(5), rng.randrange(2),
                                 complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
              for _ in range(3)]
        lhs = multiply(multiply(gs[0], gs[1]), gs[2])
        rhs = multiply(gs[0], multiply(gs[1], gs[2]))
        assert lhs.j == rhs.j and lhs.ell == rhs.ell
        assert abs(lhs.t - rhs.t) < 1e-12


def test_inverse():
    rng = random.Random(5)
    for _ in range(20):
        g = MotionGroupElement(rng.randrange(5), rng.randrange(2),
                               complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(g.inverse()(g(z)) - z) < 1e-12


def test_golden_contraction_word():
    # tau_0 tau_1 tau_4 is a translation by exactly -a = -1/phi: the
    # translation group is not discrete
    word = multiply(tau(0), multiply(tau(1), tau(4)))
    assert word.j == 0 and word.ell == 0
    assert abs(word.t + INNER_RADIUS) < 1e-14


def test_patch_depths():
    p0 = generate_patch(0)
    assert p0.centers == (0j,)
    p1 = generate_patch(1)
    for k in range(5):
        target = 2 * u_vector(k)
        assert min(abs(c - target) for c in p1.centers) < 1e-12
        assert min(abs(c + target) for c in p1.centers) < 1e-12
    with pytest.raises(ValueError):
        generate_patch(7)
    with pytest.raises(ValueError):
        generate_patch(-1)


def test_patch_vpoints_are_center_translates():
    patch = generate_patch(1)
    base = (0j,) + STAR.vertices
    for c in patch.centers[:4]:
        for v in base:
            assert min(abs(p - (c + v)) for p in patch.vpoints) < 1e-12


def test_patch_copies_are_congruent():
    patch = generate_patch(2)
    for c in patch.centers[:8]:
        recentered = sorted((round((v + c - c).real, 10), round(v.imag, 10))
                            for v in STAR.vertices)
        base = sorted((round(v.real, 10), round(v.imag, 10))
                      for v in STAR.vertices)
        assert recentered == base


def test_word_of_center_roundtrip():
    patch = generate_patch(2)
    for c, w in list(zip(patch.centers, patch.words))[:10]:
        rebuilt = sum(l * 2 * u_vector(k) for k, l in enumerate(w))
        assert abs(rebuilt - c) < 1e-12


def test_coverage_of_disk():
    # no candidate lies within the five-line count's margin of the boundary
    assert coverage_check() == {"tested": 500, "misses": 0, "candidates": 41713,
                                "exact_checked": 0}


def test_copies_containing_origin_region():
    patch = generate_patch(1)
    assert 0 in copies_containing(0.1 + 0.1j, patch, STAR)
    assert copies_containing(0.97 * cmath.exp(1j * 0.9), patch, STAR)


def test_invariance_freeness_transitivity():
    report = invariance_freeness_checks(samples=120, seed=0, word_length=6)
    assert report["invariance_checked"] > 0
    assert report["freeness_samples"] > 0
    assert report["orbit_min_gap"] > 1e-9


def test_fundamental_domain_existence_and_multiplicity():
    report = fundamental_domain_check(samples=60, seed=0, word_length=6)
    assert report["existence_failures"] == 0
    assert report["boundary_pairs_checked"] == 10
    # non-discreteness shows up as multiple interior carriers
    assert report["interior_multi"] > 0
    assert report["max_multiplicity"] > 1


def test_fundamental_domain_check_ledger_figures():
    # the figures behind ledger entries 10e and 10f
    report = fundamental_domain_check()
    assert report == {"samples": 151, "existence_failures": 0,
                      "interior_unique": 0, "interior_multi": 151,
                      "max_multiplicity": 865, "boundary_pairs_checked": 10,
                      "candidates": 379590, "exact_checked": 0}


def test_fundamental_domain_witness_for_neighbor_copy():
    # a point inside the copy centered at 1 is carried back by tau_0^{-1}
    z = 1.2 + 0.1j
    g = tau(0).inverse()
    assert point_location(g(z), STAR).kind == "interior"


def test_boundary_points_pair_under_the_identifying_reflection():
    pairing = edge_pairing(STAR)
    refls = build_reflections()
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        p, q = STAR.edge_endpoints(e0)
        x = p + 0.37 * (q - p)
        y = refls[m](x)
        loc = point_location(y, STAR)
        assert loc.kind == "edge" and loc.index == e1


# ------------------------------------------------- the exact Z[eps] lattice

WORDS = st.tuples(*[st.integers(-8, 8)] * 5)
BALL = st.sampled_from(list(map(tuple, _lattice_words(8).tolist())))
ELEMENTS = st.tuples(st.integers(0, 4), st.integers(0, 1), WORDS)
ZERO = (0,) * 5


def _wmul(g1, g2):
    """(R^j U^l, word) composition, g1 after g2, on integer words."""
    (j1, l1, w1), (j2, l2, w2) = g1, g2
    j = (j1 + j2) % 5 if l1 == 0 else (j1 - j2) % 5
    return j, (l1 + l2) % 2, tuple(a + b for a, b in zip(_word_act(j1, l1, w2), w1))


def _winv(g):
    j, ell, w = g
    j_inv = j if ell else -j % 5
    return j_inv, ell, tuple(-l for l in _word_act(j_inv, ell, w))


def _exact(g):
    return g[0], g[1], _key(g[2])


def _element(g):
    return MotionGroupElement(g[0], g[1], _word_value(g[2]))


@settings(deadline=None)
@given(WORDS, st.integers(0, 4), st.integers(0, 1))
def test_word_action_is_rotation_and_conjugation(w, j, ell):
    image = _word_rotate(_word_conjugate(w) if ell else w, j)
    z = _word_value(w)
    expected = EPSILON ** j * (z.conjugate() if ell else z)
    assert abs(_word_value(_key(image)) - expected) < 1e-12


@settings(deadline=None)
@given(BALL, BALL, st.integers(-8, 8))
def test_equal_keys_iff_equal_values(w1, w2, shift):
    # adding the all-ones word moves the word, not the point
    w3 = tuple(l + shift for l in w1)
    assert _key(w3) == _key(w1)
    assert abs(_word_value(w3) - _word_value(w1)) < 1e-12
    same_point = abs(_word_value(w1) - _word_value(w2)) < 1e-9
    assert (_key(w1) == _key(w2)) == same_point


@settings(deadline=None)
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_word_group_laws_hold_exactly(g1, g2, g3):
    assert _exact(_wmul(_wmul(g1, g2), g3)) == _exact(_wmul(g1, _wmul(g2, g3)))
    unit = (0, 0, _key(ZERO))
    assert _exact(_wmul(g1, _winv(g1))) == unit
    assert _exact(_wmul(_winv(g1), g1)) == unit
    # the word product is the float product of the public API
    prod = multiply(_element(g1), _element(g2))
    assert abs(_word_value(_wmul(g1, g2)[2]) - prod.t) < 1e-12


def test_index_law_holds_exactly():
    # tau_{(k+2l) mod 5} o R^l = R^l o tau_k as words, for every k and l
    for k in range(5):
        for ell in range(5):
            tau_k = (0, 0, tuple(int(i == k) for i in range(5)))
            tau_kl = (0, 0, tuple(int(i == (k + 2 * ell) % 5) for i in range(5)))
            rot = (ell, 0, ZERO)
            assert _exact(_wmul(tau_kl, rot)) == _exact(_wmul(rot, tau_k))


def test_base_words_are_the_star_vertices():
    base = (0j,) + STAR.vertices
    assert all(abs(_word_value(w) - v) < 1e-12 for w, v in zip(BASE_WORDS, base))
    keys = {_key(w) for w in BASE_WORDS}
    assert {_key(_word_rotate(w, 1)) for w in BASE_WORDS} == keys
    assert {_key(_word_conjugate(w)) for w in BASE_WORDS} == keys


def test_translation_ball_has_6661_points():
    translations = _translation_values(8)
    assert len(translations) == 6661
    # independent float oracle: the values themselves separate 6661 points
    assert len({(round(t.real, 6), round(t.imag, 6))
                for t, _cost, _w in translations}) == 6661
    assert all(cost == sum(map(abs, w)) and abs(_word_value(w) - t) == 0
               for t, cost, w in translations)


def _product_ball(depth, include_inverses=True):
    """The word ball in lexicographic order, filtered from the full product."""
    letters = range(-depth if include_inverses else 0, depth + 1)
    return [w for w in itertools.product(letters, repeat=5) if sum(map(abs, w)) <= depth]


def test_lattice_words_are_the_lexicographic_ball():
    for depth in range(4):
        for include_inverses in (True, False):
            words = _lattice_words(depth, include_inverses)
            assert words.dtype == np.int8
            assert list(map(tuple, words.tolist())) == _product_ball(depth, include_inverses)


def test_translation_values_match_the_product_oracle():
    # the scalar oracle: a key keeps its first word of least cost, at the
    # position where the key first occurs in lexicographic order
    for depth in range(6):
        for include_inverses in (True, False):
            best = {}
            for w in _product_ball(depth, include_inverses):
                old = best.get(_key(w))
                if old is None or sum(map(abs, w)) < sum(map(abs, old)):
                    best[_key(w)] = w
            values, costs, words = zip(*_translation_values(depth, include_inverses))
            assert words == tuple(best.values())
            assert [_key(w) for w in words] == list(best)
            assert list(costs) == [sum(map(abs, w)) for w in words]
            assert all(type(c) is int and type(w[0]) is int for c, w in zip(costs, words))
            # bit-identical values, signed zeros included
            assert list(map(repr, values)) == [repr(_word_value(w)) for w in words]
