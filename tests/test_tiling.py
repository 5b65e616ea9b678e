import cmath
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsurf.geometry import (CENTER, EPSILON, EXTERIOR, INNER_RADIUS, INTERIOR, Dihedral,
                               R, T, U, apothem, build_star, locate_kinds, point_location)
from starsurf.quotient import edge_pairing
from starsurf.tiling import (BASE_WORDS, REJECT_RADIUS, CheckFailure,
                             MotionGroupElement, _draw_elements,
                             _fixed_set_distances, _in_copies, _key, _lattice_words,
                             _samples, _translation_values, _word_value, coverage_check,
                             fundamental_domain_check, generate_patch,
                             invariance_freeness_checks, multiply, reflection,
                             tau)

STAR = build_star()
IDENTITY = MotionGroupElement()


def u_vector(k: int) -> complex:
    """The translation convention u_k = (1/2) eps^{3k}."""
    return 0.5 * EPSILON ** (3 * k % 5)


def _mirror(z: complex, angle: float) -> complex:
    """Float oracle of a reflection: z mirrored across the line through the
    origin at the given angle."""
    return cmath.exp(2j * angle) * z.conjugate()


def _random_element(rng: random.Random) -> MotionGroupElement:
    return MotionGroupElement(rng.randrange(5), rng.randrange(2),
                              tuple(rng.randint(-3, 3) for _ in range(5)))


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
            assert multiply(tau(k1), tau(k2)).word == multiply(tau(k2), tau(k1)).word
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
        g1, g2 = _random_element(rng), _random_element(rng)
        prod = multiply(g1, g2)
        # action compatibility
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(prod(z) - g1(g2(z))) < 1e-12
        # componentwise law, the translation part read off as the image of 0
        expected_j = (g1.j + g2.j) % 5 if g1.ell == 0 else (g1.j - g2.j) % 5
        assert prod.j == expected_j and prod.ell == (g1.ell + g2.ell) % 2
        t2 = g2(0).conjugate() if g1.ell else g2(0)
        assert abs(prod(0) - (EPSILON ** g1.j * t2 + g1(0))) < 1e-12


def test_translation_then_rotation_factorization():
    # (e, 2u_k) * (R^j U^l, 0) = (R^j U^l, 2u_k)
    for k in range(5):
        for j in range(5):
            for ell in range(2):
                prod = multiply(tau(k), MotionGroupElement(j, ell))
                assert prod == MotionGroupElement(j, ell, tau(k).word)
                assert abs(prod(0) - 2 * u_vector(k)) < 1e-14


def test_identity_is_two_sided():
    g = MotionGroupElement(3, 1, (1, -2, 0, 3, 1))
    assert multiply(g, IDENTITY).word == g.word == multiply(IDENTITY, g).word
    assert multiply(g, IDENTITY) == g == multiply(IDENTITY, g)
    z = 0.7 - 0.2j
    assert abs(multiply(IDENTITY, g)(z) - g(z)) < 1e-15


def test_associativity_spot_check():
    rng = random.Random(4)
    for _ in range(20):
        gs = [_random_element(rng) for _ in range(3)]
        lhs = multiply(multiply(gs[0], gs[1]), gs[2])
        rhs = multiply(gs[0], multiply(gs[1], gs[2]))
        assert lhs.word == rhs.word and lhs == rhs
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(lhs(z) - gs[0](gs[1](gs[2](z)))) < 1e-12


def test_inverse():
    rng = random.Random(5)
    for _ in range(20):
        g = _random_element(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(g.inverse()(g(z)) - z) < 1e-12
        assert multiply(g, g.inverse()) == IDENTITY == multiply(g.inverse(), g)


def test_equality_is_by_key():
    # adding the all-ones word moves the word, not the element
    g = MotionGroupElement(2, 1, (0, 1, 0, 0, 0))
    h = MotionGroupElement(7, 3, (1, 2, 1, 1, 1))
    assert g == h and hash(g) == hash(h) and g.word != h.word
    assert abs(g(0.3 + 0.4j) - h(0.3 + 0.4j)) < 1e-14
    assert g != MotionGroupElement(2, 0, (0, 1, 0, 0, 0))
    assert MotionGroupElement(word=(1, 1, 1, 1, 1)) == IDENTITY


def test_reflection_acts_on_vertices_by_the_id_law():
    # T_m is vertex v -> 2 + 4m - v on ids, and the mirror across angle (2m+1) pi/5
    for m in range(5):
        g = reflection(m)
        assert multiply(g, g) == IDENTITY
        for v in range(10):
            image = g(STAR.vertices[v])
            assert abs(image - STAR.vertices[T[m].vertex(v)]) < 1e-14
            assert abs(image - _mirror(STAR.vertices[v], (2 * m + 1) * math.pi / 5)) < 1e-14


def test_golden_contraction_word():
    # tau_0 tau_1 tau_4 is a translation by exactly -a = -1/phi: the
    # translation group is not discrete
    word = multiply(tau(0), multiply(tau(1), tau(4)))
    assert word == MotionGroupElement(word=(1, 1, 0, 0, 1))
    assert abs(word(0) + INNER_RADIUS) < 1e-14


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
    # no candidate lies within tol of an edge line or of the center
    assert coverage_check() == {"tested": 500, "misses": 0, "candidates": 41713,
                                "near_boundary": 0}


def test_copies_containing_origin_region():
    # the copies whose closed star holds z, against point_location copy by copy
    patch = generate_patch(1)
    zs = [0.1 + 0.1j, 0.97 * cmath.exp(1j * 0.9)]
    inside = _in_copies(zs, np.array(patch.centers))[0]
    assert inside[0, 0] and inside[1].any()
    for z, row in zip(zs, inside.tolist()):
        assert row == [point_location(z - c).kind != "exterior" for c in patch.centers]


def test_invariance_freeness_transitivity():
    report = invariance_freeness_checks()
    assert report["invariance_checked"] > 0
    assert report["freeness_samples"] > 0
    assert report["orbit_min_gap"] > 1e-9


WORD_BALL = _translation_values(8)


def _triples(ball):
    """The ball as (value, cost, word) triples of Python scalars."""
    values, costs, words = ball
    return list(zip(values.tolist(), costs.tolist(), zip(*words.tolist())))


TRANSLATIONS = _triples(WORD_BALL)


def _rotation_centers():
    """Points t / (1 - eps^j) fixed by the rotations (j != 0, 0, t) of the ball."""
    return [t / (1 - EPSILON ** j) for j in (1, 2, 3, 4) for t, _c, _w in TRANSLATIONS[::997]]


#: the ball's mirrors (j, 1, t), found in floats: eps^j conj t + t = 0
MIRRORS = [(j, t, w) for j in range(5) for t, _c, w in TRANSLATIONS
           if abs(EPSILON ** j * t.conjugate() + t) < 1e-9]


def _mirror_points():
    """Points on the mirrors' fixed lines, through t/2 along e^{i pi j/5}."""
    return [t / 2 + 0.3 * cmath.exp(1j * math.pi * j / 5) for j, t, _w in MIRRORS[::20]]


def test_freeness_margin_vanishes_on_fixed_sets():
    generic = 0.31 + 0.17j
    for points in (_rotation_centers(), _mirror_points()):
        assert len(points) >= 10
        dist = _fixed_set_distances(np.array(points + [generic]), WORD_BALL)
        assert np.all(dist[:-1] < 1e-12) and dist[-1] > 1e-6
    # the mirrors found in floats are the words with R^j U(t) + t all one letter
    words = {(j, w) for j in range(5) for _t, _c, w in TRANSLATIONS
             if len(set(map(operator.add, Dihedral(2 * j, 1).word(w), w))) == 1}
    assert words == {(j, w) for j, _t, w in MIRRORS} and len(words) == 205


def test_fixed_set_distances_match_a_float_oracle():
    rng = random.Random(6)
    zs = np.array([complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(100)])
    values = WORD_BALL[0]
    centers = np.concatenate([values / (1 - EPSILON ** j) for j in (1, 2, 3, 4)])
    oracle = np.abs(zs[:, None] - centers).min(axis=1)
    for j, t, _w in MIRRORS:
        axis = cmath.exp(1j * math.pi * j / 5)
        oracle = np.minimum(oracle, np.abs(((zs - t / 2) / axis).imag))
    assert np.allclose(_fixed_set_distances(zs, WORD_BALL), oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fixed", [_rotation_centers()[3], _mirror_points()[4]],
                         ids=["rotation-center", "mirror-line"])
def test_freeness_check_fails_on_a_fixed_sample(fixed, monkeypatch):
    # every freeness sample drawn at a fixed point of the word ball
    coords = itertools.cycle((fixed.real, fixed.imag))
    monkeypatch.setattr(random.Random, "uniform", lambda self, a, b: next(coords))
    with pytest.raises(CheckFailure, match="freeness"):
        invariance_freeness_checks()


def test_freeness_margin_ledger_figure():
    # 10d's samples keep off every fixed set of the word ball
    report = invariance_freeness_checks()
    assert report["freeness_samples"] == 200
    assert report["freeness_margin"] == pytest.approx(2.4919e-5, rel=1e-3)


def test_fundamental_domain_existence_and_multiplicity():
    report = fundamental_domain_check()
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
                      "candidates": 75918, "near_boundary": 0}


def _samples_one_at_a_time(rng, samples):
    """The carrier search's samples in the 0.9 disk, drawn and filtered one
    at a time against the depth-3 patch's vpoints."""
    vpoints = np.array(generate_patch(3).vpoints)
    for _ in range(samples):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z) <= 0.9 and not np.any(np.abs(z - vpoints) < 1e-6):
            yield z


def test_fundamental_domain_check_matches_the_five_rotation_search():
    # the brute force classifies eps^j z + t for all five rotations j; each
    # rotation finds the same counts, so the report's one rotation suffices
    values = WORD_BALL[0]
    translations = values[np.abs(values) <= REJECT_RADIUS + 0.9]
    multiplicities, candidates = [], 0
    for z in _samples_one_at_a_time(random.Random(0), 200):
        counts = set()
        for j in range(5):
            w = EPSILON ** j * z + translations
            kinds, _near = locate_kinds(w[np.abs(w) <= REJECT_RADIUS])
            carriers = np.count_nonzero((kinds != EXTERIOR) & (kinds != CENTER))
            counts.add((np.count_nonzero(kinds == INTERIOR), carriers, kinds.size))
        assert len(counts) == 1, z
        (interior, carriers, size), = counts
        assert carriers > 0, z
        multiplicities.append(5 * interior)
        candidates += 5 * size
    report = fundamental_domain_check()
    assert report["existence_failures"] == 0
    assert report["samples"] == len(multiplicities) == 151
    assert report["interior_unique"] == multiplicities.count(1)
    assert report["interior_multi"] == sum(m > 1 for m in multiplicities)
    assert report["max_multiplicity"] == max(multiplicities)
    assert 5 * report["candidates"] == candidates


class _Replay:
    """A stand-in rng whose uniform draws replay the given points' coordinates."""

    def __init__(self, points):
        self._coords = iter([c for z in points for c in (z.real, z.imag)])

    def uniform(self, _a, _b):
        return next(self._coords)


def test_samples_keep_off_the_vertex_set_as_a_per_sample_oracle():
    # the checks' test, |z - v| >= 1e-6 for every vpoint v, is searched in a
    # window of real parts; points near the vpoints exercise the window
    patch = generate_patch(2)
    vpoints = np.array(patch.vpoints)
    rng = random.Random(7)
    near = [v + d * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for v in vpoints[::7] for d in (0.0, 3e-7, 9.9e-7, 1.01e-6, 1.9e-6, 3e-6)]
    zs = near + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(300)]
    kept = [z for z in zs if not np.any(np.abs(z - vpoints) < 1e-6)]
    assert 0 < len(kept) - 300 < len(near)
    assert _samples(_Replay(zs), len(zs), 3.0, patch.vpoints).tolist() == kept
    assert _samples(_Replay(zs), len(zs), 3.0, patch.vpoints, 1.0).tolist() == [
        z for z in kept if abs(z) <= 1.0]


def _shuffled_list_draw(rng):
    """10d's element draw as a list: every (j, ell, i) with rotation,
    reflection and translation letters <= 8, shuffled; the first 40
    nonidentity elements."""
    triples = [(j, ell, i) for j in range(5) for ell in (0, 1)
               for i, (_t, cost, _w) in enumerate(TRANSLATIONS)
               if cost <= 8 - min(j, 5 - j) - ell]
    assert len(triples) == 30490
    rng.shuffle(triples)
    ball = (MotionGroupElement(j, ell, TRANSLATIONS[i][2]) for j, ell, i in triples)
    return list(itertools.islice((g for g in ball if g != IDENTITY), 40))


def test_element_draw_by_index_matches_the_shuffled_list():
    fast, slow = random.Random(0), random.Random(0)
    drawn = _draw_elements(fast)
    expected = _shuffled_list_draw(slow)
    assert [(g.j, g.ell, g.word) for g in drawn] == [(g.j, g.ell, g.word) for g in expected]
    assert all(type(n) is int for g in drawn for n in (g.j, g.ell) + g.word)
    assert fast.getstate() == slow.getstate()


def test_fundamental_domain_witness_for_neighbor_copy():
    # a point inside the copy centered at 1 is carried back by tau_0^{-1}
    z = 1.2 + 0.1j
    g = tau(0).inverse()
    assert point_location(g(z)).kind == "interior"


def test_boundary_points_pair_under_the_identifying_reflection():
    pairing = edge_pairing()
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        p, q = STAR.edge_endpoints(e0)
        x = p + 0.37 * (q - p)
        y = reflection(m)(x)
        assert abs(y - _mirror(x, (2 * m + 1) * math.pi / 5)) < 1e-15
        loc = point_location(y)
        assert loc.kind == "edge" and loc.index == e1


# ------------------------------------------------- the exact Z[eps] lattice

WORDS = st.tuples(*[st.integers(-8, 8)] * 5)
BALL = st.sampled_from(list(map(tuple, _lattice_words(8).tolist())))
ELEMENTS = st.builds(MotionGroupElement, st.integers(0, 4), st.integers(0, 1), WORDS)


@settings(deadline=None)
@given(WORDS, st.integers(0, 4), st.integers(0, 1))
def test_word_action_is_rotation_and_conjugation(w, j, ell):
    image = Dihedral(2 * j, ell).word(w)
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
    assert multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))
    assert multiply(g1, g1.inverse()) == IDENTITY == multiply(g1.inverse(), g1)
    # the word product acts on points as the composed maps
    z = 0.31 - 0.17j
    assert abs(multiply(g1, g2)(z) - g1(g2(z))) < 1e-11


def test_index_law_holds_exactly():
    # tau_{(k+2l) mod 5} o R^l = R^l o tau_k as words, for every k and l
    for k in range(5):
        for ell in range(5):
            rot = MotionGroupElement(ell)
            assert multiply(tau((k + 2 * ell) % 5), rot) == multiply(rot, tau(k))


def test_base_words_are_the_star_vertices():
    base = (0j,) + STAR.vertices
    assert all(abs(_word_value(w) - v) < 1e-12 for w, v in zip(BASE_WORDS, base))
    keys = {_key(w) for w in BASE_WORDS}
    assert {_key(R.word(w)) for w in BASE_WORDS} == keys
    assert {_key(U.word(w)) for w in BASE_WORDS} == keys


def test_translation_ball_has_6661_points():
    translations = _triples(_translation_values(8))
    assert len(translations) == 6661
    # independent float oracle: the values themselves separate 6661 points
    assert len({(round(t.real, 6), round(t.imag, 6))
                for t, _cost, _w in translations}) == 6661
    assert all(cost == sum(map(abs, w)) and abs(_word_value(w) - t) == 0
               for t, cost, w in translations)


def _product_ball(depth):
    """The word ball in lexicographic order, filtered from the full product."""
    letters = range(-depth, depth + 1)
    return [w for w in itertools.product(letters, repeat=5) if sum(map(abs, w)) <= depth]


def test_lattice_words_are_the_lexicographic_ball():
    for depth in range(4):
        words = _lattice_words(depth)
        assert words.dtype == np.int8
        assert list(map(tuple, words.tolist())) == _product_ball(depth)


def test_translation_values_match_the_product_oracle():
    # the scalar oracle: a key keeps its first word of least cost, at the
    # position where the key first occurs in lexicographic order
    for depth in range(6):
        best = {}
        for w in _product_ball(depth):
            old = best.get(_key(w))
            if old is None or sum(map(abs, w)) < sum(map(abs, old)):
                best[_key(w)] = w
        ball = _translation_values(depth)
        assert ball[1].dtype == ball[2].dtype == np.dtype(int)
        values, costs, words = zip(*_triples(ball))
        assert words == tuple(best.values())
        assert [_key(w) for w in words] == list(best)
        assert list(costs) == [sum(map(abs, w)) for w in words]
        assert all(type(c) is int and type(w[0]) is int for c, w in zip(costs, words))
        # bit-identical values, signed zeros included
        assert list(map(repr, values)) == [repr(_word_value(w)) for w in words]


def test_translation_values_are_cached_and_read_only():
    ball = _translation_values(8)
    assert _translation_values(8) is ball
    for array in ball:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
    assert generate_patch(3) is generate_patch(3)


#: the L = 8 ball's least cost of each exact key
LEAST_COST = {_key(w): cost for _t, cost, w in TRANSLATIONS}


@settings(deadline=None)
@given(BALL)
def test_word_ball_is_rotation_and_reflection_invariant(w):
    # R and U map the ball's keys onto its keys and keep each key's least
    # cost: the lemma that lets the carrier search classify one rotation
    cost = LEAST_COST[_key(w)]
    assert cost <= sum(map(abs, w))
    assert LEAST_COST[_key(R.word(w))] == cost
    assert LEAST_COST[_key(U.word(w))] == cost
