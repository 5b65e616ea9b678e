"""Monodromy of the ten-sheeted covering and its Riemann-Hurwitz genus.

Analytic continuation of eta around each of the finite singular values
0, a, b permutes the ten branch values by cyclic shifts (+8, +3, +9); a loop
around infinity (taken as a small circle in the w = 1/xi chart) induces the
identity.  The ramification indices 8, 9, 9, 0 total 26 and Riemann-Hurwitz
for a degree-10 cover of the sphere gives genus 4.

Continuation follows sheet 0 alone: the sheets differ by the constant
phases e^{i pi k/5}, so a loop taking sheet 0 to sheet m takes every sheet
k to k + m, and its monodromy is the shift by m.  Each step reads its sheet
jump off the phase change of eta_0; no step scans the ten values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import MU, SHEET_COUNT, SheetedPoint, _log_eta0
from .geometry import INNER_RADIUS, OUTER_RADIUS

#: continuation basepoint, comfortably away from 0, a, b
BASEPOINT = (INNER_RADIUS + OUTER_RADIUS) / 2 + 0.5j

#: steps per continuation circle; keeps per-step drift far below the
#: inter-sheet phase gap of pi/5
CONTINUATION_STEPS = 256

_POINTS = {"0": 0.0, "a": INNER_RADIUS, "b": OUTER_RADIUS}


class ContinuationAmbiguity(RuntimeError):
    """A continuation step could not be matched decisively to one sheet."""


class NonIntegralGenus(ValueError):
    """Total ramification inconsistent with an integer genus."""


@dataclass(frozen=True)
class SheetPermutation:
    """A permutation of the sheet labels 0..9."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(SHEET_COUNT)):
            raise ValueError(f"not a permutation of 0..9: {self.images}")

    def __call__(self, k: int) -> int:
        return self.images[k]

    def compose(self, other: "SheetPermutation") -> "SheetPermutation":
        """self after other."""
        return SheetPermutation(tuple(self.images[other.images[k]]
                                      for k in range(SHEET_COUNT)))

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(SHEET_COUNT))

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * SHEET_COUNT
        lengths = []
        for k in range(SHEET_COUNT):
            if seen[k]:
                continue
            n, j = 0, k
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                n += 1
            lengths.append(n)
        return tuple(sorted(lengths, reverse=True))

    @staticmethod
    def shift(s: int) -> "SheetPermutation":
        return SheetPermutation(tuple((k + s) % SHEET_COUNT
                                      for k in range(SHEET_COUNT)))


@dataclass(frozen=True)
class BranchPointReport:
    point: str                  # "0" | "a" | "b" | "inf"
    local_degree: int           # common cycle length at the branch value
    cycle_type: tuple[int, ...]
    ramification_index: int     # sum over cycles of (length - 1)


def _continue_circle(points) -> SheetPermutation:
    """Shift of a closed polygonal loop: minus the sum of its sheet jumps.

    A step's read is its change of arg eta_0 in units of pi/5, and its jump
    the read rounded.  The step is ambiguous unless its value lands within
    0.45 sheet spacings of its match and the read less the jump is within
    0.25 sheet of the log-derivative's prediction (a step turning more than
    half a sheet would otherwise alias onto a wrong one).
    """
    z = np.asarray(points, dtype=complex)
    dlog = np.diff(_log_eta0(z))
    read = dlog.imag * (5 / math.pi)
    jumps = np.rint(read)
    drift = np.abs(np.exp(1j * (math.pi / 5) * jumps - dlog) - 1.0) / (2 * math.sin(math.pi / 10))
    dz, mid = np.diff(z), (z[1:] + z[:-1]) / 2
    predicted = sum(mu * dz / (mid - s) for s, mu in MU.items()).imag * (5 / math.pi)
    bad = ~((drift <= 0.45) & (np.abs(read - jumps - predicted) <= 0.25))
    if bad.any():
        i = int(np.argmax(bad))
        raise ContinuationAmbiguity(
            f"step {i + 1} of {len(dz)} near {points[i + 1]}: read increment "
            f"{read[i] - jumps[i]:+.3f} sheet, predicted {predicted[i]:+.3f}, drift {drift[i]:.3f}")
    return SheetPermutation.shift(-int(jumps.sum()) % SHEET_COUNT)


def monodromy(around: str | float, radius: float | None = None,
              steps: int = CONTINUATION_STEPS) -> SheetPermutation:
    """Sheet permutation from one counterclockwise loop around a point.

    ``around`` is one of "0", "a", "b", "inf" (or the numeric value of a
    finite one).  For the finite points the default radius is a quarter of
    the gap to the nearest other singular value; for "inf" the loop is a
    circle in the w = 1/xi chart around w = 0.  A loop takes at least three
    steps; one too coarse to continue decisively raises ContinuationAmbiguity.
    """
    if steps < 3:
        raise ValueError(f"a loop needs at least 3 steps, got {steps}")
    name = around
    if not isinstance(around, str):
        matches = [n for n, v in _POINTS.items() if abs(v - around) < 1e-9]
        if not matches:
            raise ValueError(f"{around} is not a singular value")
        name = matches[0]

    t = np.arange(steps + 1) / steps
    if name == "inf":
        r = radius if radius is not None else 0.2
        if not 0.0 < r < 1.0 / OUTER_RADIUS:
            raise ValueError(f"infinity loop radius {r} must lie in (0, 1/b) to enclose 0, a, b")
        return _continue_circle(1.0 / (r * np.exp(2j * math.pi * t)))

    center = _POINTS[name]
    max_r = min(abs(center - v) for n, v in _POINTS.items() if n != name)
    r = radius if radius is not None else 0.25 * max_r
    if not 0.0 < r < max_r:
        raise ValueError(f"radius {r} must lie in (0, {max_r}) to enclose the point {name} alone")
    # start at the top of the circle, off the real-axis jump set
    return _continue_circle(center + r * np.exp(1j * (math.pi / 2 + 2 * math.pi * t)))


def ramification_report(radius: float | None = None) -> list[BranchPointReport]:
    reports = []
    for name in ("0", "a", "b", "inf"):
        perm = monodromy(name, radius=radius)
        ct = perm.cycle_type()
        reports.append(BranchPointReport(
            point=name,
            local_degree=max(ct),
            cycle_type=ct,
            ramification_index=sum(n - 1 for n in ct),
        ))
    return reports


def total_ramification(reports: list[BranchPointReport] | None = None) -> int:
    if reports is None:
        reports = ramification_report()
    return sum(r.ramification_index for r in reports)


def genus_from_total_ramification(r: int) -> int:
    """Solve r = 2*10 + 2g - 2 for g; reject non-integral or negative g."""
    if (r - 18) % 2 != 0 or r < 18:
        raise NonIntegralGenus(f"total ramification {r} admits no genus")
    return (r - 18) // 2


def genus_riemann_hurwitz(reports: list[BranchPointReport] | None = None) -> int:
    return genus_from_total_ramification(total_ramification(reports))


# Curve symmetries acting on sheeted points.  The rotation multiplies eta by
# eps = e^{2 pi i/5} (sheet k -> k+2); conjugation sends (xi, eta) to
# (conj xi, conj eta), which under the branch convention is k -> (2-k) mod 10.

def rotate_sheeted(p: SheetedPoint) -> SheetedPoint:
    return SheetedPoint(p.xi, (p.sheet + 2) % SHEET_COUNT)


def conjugate_sheeted(p: SheetedPoint) -> SheetedPoint:
    return SheetedPoint(p.xi.conjugate(), (2 - p.sheet) % SHEET_COUNT)


def sheet_action(word: str):
    """Map on sheeted points for a word in the generators 'R' and 'U'.

    Letters act right-to-left, matching operator-product notation: "RU"
    applies the conjugation first, then the rotation.
    """
    ops = {"R": rotate_sheeted, "U": conjugate_sheeted}
    for ch in word:
        if ch not in ops:
            raise ValueError(f"invalid generator {ch!r}; use 'R' and 'U'")

    def act(p: SheetedPoint) -> SheetedPoint:
        for ch in reversed(word):
            p = ops[ch](p)
        return p

    return act


def connectivity_check(perms: list[SheetPermutation] | None = None) -> bool:
    """True iff the given permutations act transitively on the sheets.

    Defaults to the three finite-point monodromies, whose transitivity is
    what makes the curve connected.
    """
    if perms is None:
        perms = [monodromy(n) for n in ("0", "a", "b")]
    reached = {0}
    frontier = [0]
    while frontier:
        k = frontier.pop()
        for p in perms:
            for nxt in (p(k), p.images.index(k)):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
    return len(reached) == SHEET_COUNT
