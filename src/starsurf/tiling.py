"""The plane motion group of the star tiling and its desk-scale checks.

Translations: tau_k shifts by 2 u_k where u_k = apothem * eps^{3k} and the
apothem (center-to-edge-line distance of the star) is exactly 1/2.  The
eps^{3k} spacing is what makes the index law

    tau_{(k+2l) mod 5} o R^l = R^l o tau_k

hold exactly, since R^l u_k = u_{(k+2l) mod 5}: R^j U^ell = Dihedral(2j, ell)
moves a word's letters (Dihedral.word).  The motion group is generated by
the star's rotations and reflections and these translations; an element
(j, ell, word) acts as z -> R^j U^ell z + t, t its translation word's value.

Lattice points are exact.  2 u_k = eps^{3k}, so every translation, center
and star vertex lies in the cyclotomic ring Z[eps] and is stored as an
integer word (l_0..l_4) with value sum l_k 2 u_k.  Since sum u_k = 0, words
are taken modulo the all-ones word: a point's key is (l_k - l_4 for k < 4).

The checks here are sampled, word-length-bounded shadows of the structural
claims: vertex-set invariance, freeness on generic points, transitivity on
star copies, disk coverage, and the fundamental-domain property.  The
translation group contains golden-ratio contractions (tau_0 tau_1 tau_4
shifts by -1/phi), so it is not discrete: interior carriers are generally
non-unique, and the checks report every carrier they find.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import add

import numpy as np

from .geometry import (CENTER, EPSILON, EXTERIOR, INTERIOR, Dihedral, R, U, UsageError,
                       build_star, locate_kinds, point_location)
from .quotient import edge_pairing


#: cheap reject radius around a star copy's center: above the circumradius
#: OUTER_RADIUS = phi ~ 1.618 plus TOL_GEO, so no point within TOL_GEO of the
#: closed star is rejected
REJECT_RADIUS = 1.7

#: the sampled checks' fixed sizes: coverage samples, samples of the other
#: two checks, the word ball's length, the elements drawn from it by the
#: invariance check, and the radius of the disk the samples are drawn in
COVERAGE_SAMPLES = 500
CHECK_SAMPLES = 200
WORD_LENGTH = 8
ELEMENT_SAMPLE = 40
DISK_RADIUS = 0.9


class CheckFailure(AssertionError):
    """A sampled structural check found a counterexample."""


@dataclass(frozen=True)
class MotionGroupElement:
    """(R^j U^ell, word): z -> eps^j * (conj z if ell else z) + t, where t is
    the value of the integer translation word, kept as given.  Elements are
    equal when their (j, ell, key) are.  R^j U^ell is Dihedral(2j, ell)."""

    j: int = 0
    ell: int = 0
    word: tuple[int, ...] = field(default=(0,) * 5, compare=False)
    key: tuple[int, ...] = field(init=False, repr=False)
    linear: Dihedral = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % 5)
        object.__setattr__(self, "ell", self.ell % 2)
        object.__setattr__(self, "key", _key(self.word))
        object.__setattr__(self, "linear", Dihedral(2 * self.j, self.ell))

    def __call__(self, z):
        """The image of a point or of an array of points."""
        w = z.conjugate() if self.ell else z
        return EPSILON ** self.j * w + _word_value(self.word)

    def inverse(self) -> "MotionGroupElement":
        a = self.linear.inverse()
        return MotionGroupElement(a.j // 2, a.l, tuple(-l for l in a.word(self.word)))


def tau(k: int) -> MotionGroupElement:
    """Pure translation by 2 u_k."""
    if not 0 <= k < 5:
        raise ValueError("k must be in 0..4")
    return MotionGroupElement(word=tuple(int(i == k) for i in range(5)))


def reflection(m: int) -> MotionGroupElement:
    """T_m: the mirror in the line through the center at angle (2m+1) pi/5."""
    return MotionGroupElement(2 * m + 1, 1)


def multiply(g1: MotionGroupElement, g2: MotionGroupElement) -> MotionGroupElement:
    """Composition g1 after g2 as affine maps: the linear parts' product,
    and the translation word R^{j1} U^{l1}(word2) + word1."""
    a = g1.linear * g2.linear
    return MotionGroupElement(a.j // 2, a.l,
                              tuple(map(add, g1.linear.word(g2.word), g1.word)))


@dataclass(frozen=True)
class TilingPatch:
    """Star copies reachable by translation words of bounded length.

    centers[i] is the center of copy i; words[i] its defining integer
    vector (l_0..l_4) with center = 2 sum l_k u_k; inverse letters are
    included so the patch surrounds the origin.  vpoints collects the
    centers and the translated star vertices.
    """

    depth: int
    centers: tuple[complex, ...]
    words: tuple[tuple[int, ...], ...]
    vpoints: tuple[complex, ...]


def _lattice_words(depth: int) -> np.ndarray:
    """int8 rows (l_0..l_4) with sum |l_k| <= depth, in lexicographic order."""
    letters = np.arange(-depth, depth + 1, dtype=np.int8)
    words = np.zeros((1, 0), dtype=np.int8)
    for _ in range(5):
        words = np.column_stack([np.repeat(words, len(letters), axis=0),
                                 np.tile(letters, len(words))])
        words = words[np.abs(words).sum(axis=1, dtype=np.int8) <= depth]
    return words


def _key(word: tuple[int, ...]) -> tuple[int, ...]:
    """Exact key of a word's lattice point: the word modulo the all-ones word."""
    return tuple(l - word[4] for l in word[:4])


@lru_cache(maxsize=1)
def _two_u() -> tuple[complex, ...]:
    return tuple(EPSILON ** (3 * k % 5) for k in range(5))


def _word_value(word) -> complex:
    """Float value sum l_k 2 u_k of a word, a key (l_4 = 0) or a (5, n) word array."""
    return sum(l * v for l, v in zip(word, _two_u()))


#: words of the center and the ten star vertices in build_star order: vertex
#: 2k is eps^k a with a = eps + eps^4 = 2u_2 + 2u_3, vertex 2k+1 is
#: eps^k (1 + eps) with 1 + eps = 2u_0 + 2u_2
BASE_WORDS = ((0,) * 5,) + tuple(Dihedral(2 * k).word(w) for k in range(5)
                                 for w in ((0, 0, 1, 1, 0), (1, 0, 1, 0, 0)))


@lru_cache(maxsize=2)  # the patch's ball and the checks' ball
def _translation_values(word_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (values, costs, (5, n) words) of the word ball's distinct
    translations: each key's least cost and shortest word (lexicographically
    first on ties), in the order of each key's first word.  Cached."""
    words = _lattice_words(word_length)
    costs = np.abs(words).sum(axis=1)
    # key digits lie in -2 L..2 L, so their base 4 L + 1 codes are unique
    codes = (words[:, :4] - words[:, 4:]) @ (4 * word_length + 1) ** np.arange(4)
    _, first = np.unique(codes, return_index=True)
    order = np.lexsort((costs, codes))  # stable, so lexicographic on ties
    best = order[np.r_[True, np.diff(codes[order]) != 0]][np.argsort(first)]
    columns = words[best].T.astype(int)
    ball = (_word_value(columns), costs[best], columns)
    for array in ball:
        array.flags.writeable = False
    return ball


@lru_cache(maxsize=2)
def generate_patch(depth: int) -> TilingPatch:
    """Patch of build_star() copies; its vertices are the BASE_WORDS.  Cached."""
    if depth < 0:
        raise UsageError("depth must be nonnegative")
    if depth > 6:
        raise UsageError("desk-scale patches stop at depth 6")
    values, _costs, words = _translation_values(depth)
    items = sorted(zip(values.tolist(), zip(*words.tolist())),
                   key=lambda cw: (abs(cw[0]), cw[0].real, cw[0].imag))
    centers, words = zip(*items)

    base = (0.0,) + build_star().vertices
    vset: dict[tuple[int, ...], complex] = {}
    for c, word in items:
        for v, vword in zip(base, BASE_WORDS):
            vset[_key(tuple(map(add, word, vword)))] = c + v
    vpoints = tuple(sorted(vset.values(), key=lambda p: (abs(p), p.real, p.imag)))
    return TilingPatch(depth=depth, centers=centers, words=words, vpoints=vpoints)


def _in_copies(zs, centers: np.ndarray) -> tuple[np.ndarray, int, int]:
    """inside[i, j]: whether the closed star copy at centers[j] contains zs[i]; the
    number of offsets classified (those within REJECT_RADIUS), and of them near_boundary."""
    offsets = np.asarray(zs)[:, None] - centers
    near = np.abs(offsets) <= REJECT_RADIUS
    inside = np.zeros(offsets.shape, dtype=bool)
    kinds, n_near = locate_kinds(offsets[near])
    inside[near] = kinds != EXTERIOR
    return inside, kinds.size, n_near


def _nearest(zs: np.ndarray, points, reach) -> np.ndarray:
    """Each z's distance to the nearest point whose real part is within reach
    of z's (inf if none), searched in that window of the sorted points."""
    p = np.sort_complex(np.asarray(points))
    lo = np.searchsorted(p.real, zs.real - reach)
    hi = np.searchsorted(p.real, zs.real + reach, side="right")
    dist = np.full(len(zs), np.inf)
    for i in np.flatnonzero(hi > lo):
        dist[i] = np.abs(zs[i] - p[lo[i]:hi[i]]).min()
    return dist


def _samples(rng: random.Random, n: int, half_width: float, vpoints,
             radius: float = math.inf) -> np.ndarray:
    """Of n draws from the square |Re|, |Im| <= half_width, in drawing order,
    those within radius of 0 and at distance >= 1e-6 from every vpoint."""
    zs = np.array([complex(rng.uniform(-half_width, half_width),
                           rng.uniform(-half_width, half_width)) for _ in range(n)])
    return zs[(np.abs(zs) <= radius) & (_nearest(zs, vpoints, 2e-6) >= 1e-6)]


def _draw_elements(rng: random.Random) -> list[MotionGroupElement]:
    """The first ELEMENT_SAMPLE nonidentity elements of a shuffle of the
    (R^j U^ell, t) with rotation, reflection and translation letters <=
    WORD_LENGTH, listed by (j, ell) then ball order.  Shuffling their indices
    is the same permutation."""
    _values, costs, words = _translation_values(WORD_LENGTH)
    letters = np.array([[min(j, 5 - j) + ell for ell in (0, 1)] for j in range(5)])
    js, ells, members = np.nonzero(costs <= WORD_LENGTH - letters[:, :, None])
    order = list(range(len(js)))
    rng.shuffle(order)
    ball = (MotionGroupElement(int(js[n]), int(ells[n]), tuple(words[:, members[n]].tolist()))
            for n in order)
    return list(islice((g for g in ball if g != MotionGroupElement()), ELEMENT_SAMPLE))


def _fixed_set_distances(zs: np.ndarray, ball) -> np.ndarray:
    """Each point's least distance to a set fixed by a nonidentity element
    (R^j U^ell, t), t over the translations of the ball (values, costs, words).

    A rotation (j != 0, 0, t) fixes only t / (1 - eps^j).  A reflection
    (j, 1, t) is a mirror when its square is the identity, R^j U(t) + t = 0,
    i.e. that word has all letters equal; it fixes the line through t/2
    along e^{i pi j/5}.  Every other reflection is a glide and fixes nothing.
    """
    values, _costs, words = ball
    dist = np.full(len(zs), np.inf)
    for j in range(5):
        mirror = np.ptp(np.add(Dihedral(2 * j, 1).word(words), words), axis=0) == 0
        across = (zs[:, None] - values[mirror] / 2) * cmath.exp(-1j * math.pi * j / 5)
        dist = np.minimum(dist, np.abs(across.imag).min(axis=1, initial=np.inf))
    # only a center whose real part is within dist of z's can lower dist
    centers = np.concatenate([values / (1 - EPSILON ** j) for j in range(1, 5)])
    return np.minimum(dist, _nearest(zs, centers, dist))


def invariance_freeness_checks(seed: int = 0, depth: int = 3) -> dict:
    """Sampled invariance, freeness, and transitivity checks.

    - invariance: group images of sampled vpoints stay in the (enlarged)
      vpoint set;
    - freeness: no sampled generic point lies on a set fixed by a
      nonidentity element of the word ball; freeness_margin is the least
      distance of a sample to such a set;
    - transitivity: every pair of sampled star copies is joined by an
      explicit translation word.
    Raises CheckFailure with a witness on any counterexample.
    """
    rng = random.Random(seed)
    patch = generate_patch(depth)

    elements = _draw_elements(rng)

    # V+ membership with an exact witness: a vpoint is a lattice word plus a
    # base vertex word, the group acts on both by the index laws, so the
    # image's word is predicted exactly and checked against the float image.
    base_vertices = (0.0 + 0.0j,) + build_star().vertices
    # the rotation and the reflection both permute the base vertex set
    base_keys = {_key(w) for w in BASE_WORDS}
    if any({_key(R.word(w)), _key(U.word(w))} - base_keys
           for w in BASE_WORDS):
        raise CheckFailure("base vertex set is not symmetric")

    vsamples = [(rng.randrange(len(patch.centers)), rng.randrange(len(base_vertices)))
                for _ in range(CHECK_SAMPLES)]
    vs = np.array([patch.centers[ci] + base_vertices[bi] for ci, bi in vsamples])
    vwords = np.array([tuple(map(add, patch.words[ci], BASE_WORDS[bi]))
                       for ci, bi in vsamples]).reshape(-1, 5).T
    for g in elements:
        images = g(vs)
        predicted = _word_value(tuple(map(add, g.linear.word(vwords), g.word)))
        bad = np.flatnonzero(np.abs(images - predicted) > 1e-9)
        if bad.size:
            raise CheckFailure(f"invariance: {g} maps vpoint {vs[bad[0]]} to "
                               f"{images[bad[0]]}, not a V+ point")

    zs = _samples(rng, CHECK_SAMPLES, 1.2, patch.vpoints)
    margins = _fixed_set_distances(zs, _translation_values(WORD_LENGTH))
    if margins.min(initial=np.inf) < 1e-12:
        raise CheckFailure(f"freeness: {zs[margins.argmin()]} lies on a fixed set")

    # transitivity: translation word between sampled copy pairs
    pairs = [(rng.randrange(len(patch.centers)), rng.randrange(len(patch.centers)))
             for _ in range(50)]
    for i0, i1 in pairs:
        w0, w1 = patch.words[i0], patch.words[i1]
        word = tuple(b - a for a, b in zip(w0, w1))
        if abs(patch.centers[i0] + _word_value(word) - patch.centers[i1]) > 1e-9:
            raise CheckFailure(f"transitivity: word {word} fails for {i0}->{i1}")

    # discreteness shadow of properness: orbit points of a sample under the
    # element list keep a positive minimum pairwise distance
    z0 = 0.31 + 0.17j
    orbit = sorted((p.real, p.imag) for p in (g(z0) for g in elements))
    min_gap = min((math.dist(p, q) for p, q in zip(orbit, orbit[1:])), default=1.0)

    return {
        "invariance_checked": len(elements) * len(vs),
        "freeness_samples": len(zs),
        "freeness_margin": float(margins.min(initial=np.inf)),
        "transitivity_pairs": len(pairs),
        "orbit_min_gap": min_gap,
        "elements": len(elements),
    }


def fundamental_domain_check(seed: int = 0, depth: int = 3) -> dict:
    """Carrier search into the closed star for sampled plane points.

    For each sample z (off the vertex set) every rotation-translation
    element g with g(z) in the closed punctured star is a carrier.  The star
    and the word ball are R-invariant, so eps^j z + t is in the star exactly
    when z + eps^-j t is: every rotation has the identity's carriers, and
    only the candidates z + t are classified, one locate_kinds call a sample.
    Reports existence (every sample has a carrier), the number of distinct
    interior images (5 times the identity's), the candidates classified and
    near_boundary of them as locate_kinds counts them; boundary samples are
    checked to have exactly the two edge-pairing representatives x and
    T_m(x).  The group is non-discrete, so generic samples have several
    interior images; interior_unique counts the samples with exactly one.
    """
    rng = random.Random(seed)
    values = _translation_values(WORD_LENGTH)[0]
    # a candidate z + t within REJECT_RADIUS has |t| <= REJECT_RADIUS + |z|
    translations = values[np.abs(values) <= REJECT_RADIUS + DISK_RADIUS]
    pairing = edge_pairing()

    zs = _samples(rng, CHECK_SAMPLES, DISK_RADIUS, generate_patch(depth).vpoints, DISK_RADIUS)
    existence_fail = []
    multiplicities = []
    candidates = near_boundary = 0
    for z in zs:
        # carriers are distinct (j, t) pairs: one rotation's images differ by
        # distinct translations (>= 0.09 apart), two rotations' images meet
        # only for non-generic z, so each interior carrier is its own image
        w = z + translations
        kinds, n_near = locate_kinds(w[np.abs(w) <= REJECT_RADIUS])
        candidates += kinds.size
        near_boundary += n_near
        if not np.count_nonzero((kinds != EXTERIOR) & (kinds != CENTER)):
            existence_fail.append(complex(z))
            continue
        multiplicities.append(5 * int(np.count_nonzero(kinds == INTERIOR)))

    if existence_fail:
        raise CheckFailure(f"no carrier found for {existence_fail[:3]} ...")

    # boundary samples: the two representatives are related by the pairing
    boundary_ok = 0
    for eid in range(10):
        p, q = build_star().edge_endpoints(eid)
        x = p + rng.uniform(0.2, 0.8) * (q - p)
        y = reflection(pairing.reflection_of_edge[eid])(x)
        if point_location(y).kind != "edge":
            raise CheckFailure(f"pairing image of {x} is not a boundary point")
        boundary_ok += 1

    return {
        "samples": len(multiplicities),
        "existence_failures": 0,
        "interior_unique": sum(m == 1 for m in multiplicities),
        "interior_multi": sum(m > 1 for m in multiplicities),
        "max_multiplicity": max(multiplicities) if multiplicities else 0,
        "boundary_pairs_checked": boundary_ok,
        "candidates": candidates,
        "near_boundary": near_boundary,
    }


#: samples per locate_kinds call in coverage_check: 13 kB of temporaries
#: each, so all 500 at once (6.9 MB) raise the ledger's peak RSS by 1.4 MB
COVERAGE_CHUNK = 25


def coverage_check(seed: int = 1, depth: int = 3) -> dict:
    """Sampled points of the disk (away from V+) land in >= 1 star copy.
    The samples are drawn first, then classified against every patch copy
    COVERAGE_CHUNK at a time; candidates and near_boundary count as in
    fundamental_domain_check."""
    rng = random.Random(seed)
    patch = generate_patch(depth)
    zs = np.empty(0, dtype=complex)
    while len(zs) < COVERAGE_SAMPLES:  # drawing only the missing ones stops at the last sample
        zs = np.concatenate([zs, _samples(rng, COVERAGE_SAMPLES - len(zs), DISK_RADIUS,
                                          patch.vpoints, DISK_RADIUS)])
    centers = np.array(patch.centers)
    misses = []
    candidates = near_boundary = 0
    for start in range(0, len(zs), COVERAGE_CHUNK):
        chunk = zs[start:start + COVERAGE_CHUNK]
        inside, classified, n_near = _in_copies(chunk, centers)
        misses += chunk[~inside.any(axis=1)].tolist()
        candidates += classified
        near_boundary += n_near
    if misses:
        raise CheckFailure(f"{len(misses)} uncovered points, e.g. {misses[:3]}")
    return {"tested": len(zs), "misses": 0, "candidates": candidates,
            "near_boundary": near_boundary}
