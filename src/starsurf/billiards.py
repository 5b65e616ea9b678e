"""Event-driven billiards in the star: edge reflection, vertex reversal,
and the unfolding that certifies broken geodesics are straight per chart.

Rules: a unit-speed ray from the interior reflects specularly when it meets
the interior of an edge and reverses (dir -> -dir) when it meets a vertex.
Events read the star's five edge lines from geometry.star_lines, the
table point location reads: the event is the earliest outward crossing of
a line that lies on one of the line's two edges, captured by a vertex
within TOL_GEO of it (at an outer tip, only a ray heading out across, or
along, both of its lines, so that the reversed ray runs back into it); a
ray sliding along a line stops at the first vertex ahead.  A line through the
current position (within ON_LINE) is not crossed again, but any other
line is, however close: near an outer tip, where the two edges meet at
pi/5, a ray bounces between them at any scale.

Directions: edge mirrors are zeta^m conj, zeta = e^{i pi/5}, so simulate
codes its direction as c = 2j + l for zeta^j conj^l(d0), and builds each
of the (at most 20) codes' values and event rows once.

Lifting: each reflection event is tagged with the chord-pairing reflection
T_m that identifies the hit edge with its partner, plus a running sector
index.  The straightness check composes the reflections in the hit edge
lines (the classical unfolding); reversal events carry the identity tag,
flip direction, and start a new straight piece.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from .geometry import TOL_GEO, UsageError, build_star, point_location, star_lines
from .quotient import edge_pairing


#: A ray lies on a line when its position is within this of it: far above
#: the rounding of a position computed on the line, far below TOL_GEO.
ON_LINE = 1e-12


class DegenerateRay(RuntimeError):
    """No forward intersection with the boundary; geometry bug."""


class CenterCrossing(RuntimeError):
    """A lifted segment passes through the deleted center."""


@dataclass(frozen=True)
class BilliardState:
    pos: complex
    dir: complex
    time: float = 0.0

    def __post_init__(self):
        n = abs(self.dir)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"|dir| = {n}, expected a unit direction")


class Segment(NamedTuple):
    start: complex
    end: complex
    dir: complex
    t_start: float
    t_end: float


class Event(NamedTuple):
    kind: str                 # "reflect" | "reverse"
    position: complex
    time: float
    edge: int | None = None
    vertex: int | None = None
    pairing_m: int | None = None   # index of the identifying reflection T_m
    sector: int | None = None      # running sector index after the event


@dataclass(frozen=True)
class Trajectory:
    segments: tuple[Segment, ...]
    events: tuple[Event, ...]

    @property
    def total_time(self) -> float:
        return self.segments[-1].t_end if self.segments else 0.0


def reflect_dir(direction: complex, edge_id: int) -> complex:
    """Mirror the direction across the edge's line: d -> u^2 conj(d), with
    the u^2 that simulate and develop reflect with."""
    return _event_table()[1][edge_id][0] * direction.conjugate()


#: Edge e's mirror has u^2 = zeta^m_e (line k, normal e^{i pi (2k+1)/5}, has
#: edges 2k - 1 and 2k + 2 and m = 4k + 7), so a reflection in e maps (j, l)
#: to (m_e - j, 1 - l), the code c to _FLIPS[e] - c mod 20 with _FLIPS[e] =
#: 2 m_e + 1; a reversal maps j to j + 5, so c to c + 10.
_FLIPS = tuple(2 * ((2 * e + (9 if e % 2 else 3)) % 10) + 1 for e in range(10))


@lru_cache(maxsize=1)
def _event_table() -> tuple[tuple, tuple, tuple]:
    """star_lines with the bounds of an event, and mirrors.  Per line: (f, w,
    tau_in -/+ TOL_GEO, tau_out -/+ TOL_GEO, tips, stops), tips the (w of the outer
    vertex's other line, side if a hit there reflects, side if it reverses)
    at tau < 0 and tau > 0, stops the (tau, vertex) of its four vertices.
    Per edge: u^2 conj z + shift, u = conj w, as (u^2, shift); conjugated."""
    rows, tol = star_lines(), TOL_GEO
    lines, mirrors = [], [None] * 10  # mirrors by edge id
    for f, w, t_in, t_out, sides in rows:
        u = w.conjugate()
        stops, tips = [], []
        for sign, (v_in, v_out, eid) in zip((-1.0, 1.0), sides):
            stops += [(sign * t_in, v_in), (sign * t_out, v_out)]
            mirrors[eid] = (u * u, f - u * u * f.conjugate())
            other = next(row[1] for row in rows if row[1] != w
                         and any(side[1] == v_out for side in row[4]))
            tips.append((other, (eid, v_in, "reflect", eid), (eid, v_in, "reverse", v_out)))
        lines.append((f, w, t_in - tol, t_in + tol, t_out - tol, t_out + tol,
                      tuple(tips), tuple(stops)))
    return (tuple(lines), tuple(mirrors),
            tuple((m.conjugate(), c.conjugate()) for m, c in mirrors))


def _direction_rows(d: complex, lines: tuple) -> tuple[complex, tuple, tuple]:
    """What _event reads for direction d: (d, out, slide), out the (f, w,
    -Im(dw), Re(dw), tau bounds, the tips' sides picked for d) of each line d
    crosses outward, slide the (f, w, Re(dw), stops) of each it runs along."""
    out, slide = [], []
    for f, w, in_lo, in_hi, out_lo, out_hi, tips, stops in lines:
        dw = d * w
        if dw.imag < -1e-14:  # only an outward crossing leaves the star
            (o0, reflect0, reverse0), (o1, reflect1, reverse1) = tips
            sides = (reverse0 if (d * o0).imag < 1e-14 else reflect0,
                     reverse1 if (d * o1).imag < 1e-14 else reflect1)
            out.append((f, w, -dw.imag, dw.real, in_lo, in_hi, out_lo, out_hi, sides))
        elif dw.imag < 1e-14:
            slide.append((f, w, dw.real, stops))
    return d, tuple(out), tuple(slide)


def _event(z: complex, rows: tuple) -> tuple[str, int, complex, float]:
    """next_event on the rows of _direction_rows."""
    d, out, slide = rows
    best, kind = math.inf, None
    for f, w, v, r, in_lo, in_hi, out_lo, out_hi, sides in out:
        zw = (z - f) * w
        if zw.imag > ON_LINE:
            t = zw.imag / v
            if t < best:
                tau = zw.real + t * r
                a, side = abs(tau), sides[tau > 0.0]
                if in_hi < a < out_lo:
                    best, kind, idx = t, "reflect", side[0]
                elif in_lo <= a <= in_hi:
                    best, kind, idx = t, "reverse", side[1]
                elif out_lo <= a <= out_hi:
                    best, kind, idx = t, side[2], side[3]
    for f, w, r, stops in slide:
        zw = (z - f) * w
        if -TOL_GEO < zw.imag < TOL_GEO:  # sliding along the line
            for tau, vid in stops:
                s = (tau - zw.real) * r
                if TOL_GEO < s < best:
                    best, kind, idx = s, "reverse", vid
    if kind is None:
        raise DegenerateRay(f"no boundary hit from {z} along {d}")
    if kind == "reflect":
        return kind, idx, z + best * d, best
    v = build_star().vertices[idx]
    return kind, idx, v, ((v - z) / d).real


def next_event(state: BilliardState) -> tuple[str, int, complex, float]:
    """Earliest boundary hit of the ray: ('reflect', edge id, point, dt), or
    ('reverse', vertex id, vertex, dt) for a hit within TOL_GEO of a vertex
    (of an outer tip, only by a ray heading out across its other line too)."""
    return _event(state.pos, _direction_rows(state.dir, _event_table()[0]))


def simulate(z0: complex, direction: complex, max_events: int) -> Trajectory:
    """Run the billiard from z0 until max_events boundary events occurred."""
    if direction == 0 or not cmath.isfinite(direction):
        raise UsageError(f"the billiard direction must be finite and nonzero, not {direction}")
    if max_events < 0:
        raise UsageError(f"max_events = {max_events}, expected at least 0")
    direction = direction / abs(direction)
    loc = point_location(z0)
    if loc.kind == "center":
        raise UsageError("billiards start anywhere in K except the center")
    if loc.kind == "exterior":
        raise UsageError(f"start {z0} lies outside the star")
    pair_m = edge_pairing().reflection_of_edge
    lines, mirrors = _event_table()[:2]

    z, c, t0, rows = z0, 0, 0.0, _direction_rows(direction, lines)
    rows_of = [rows] + [None] * 19  # by direction code
    segments, events = [], []
    for _ in range(max_events):
        kind, idx, point, dt = _event(z, rows)
        t1 = t0 + dt
        segments.append((z, point, rows[0], t0, t1))
        if kind == "reflect":
            c = (_FLIPS[idx] - c) % 20
            events.append((kind, point, t1, idx, None, pair_m[idx], None))
        else:
            c = (c + 10) % 20
            events.append((kind, point, t1, None, idx, None, None))
        if rows_of[c] is None:  # c's value: the mirror of the direction before
            d = mirrors[idx][0] * rows[0].conjugate() if kind == "reflect" else -rows[0]
            rows_of[c] = _direction_rows(d, lines)
        z, t0, rows = point, t1, rows_of[c]
    return Trajectory(tuple(map(partial(tuple.__new__, Segment), segments)),
                      tuple(map(partial(tuple.__new__, Event), events)))


def lift_trajectory(traj: Trajectory) -> Trajectory:
    """Annotate events with sector bookkeeping; reject center crossings.

    The sector index starts at 0 and is carried unchanged through reversals;
    a reflection in edge e sets it to e // 2, since edges 2k and 2k + 1 span
    sector k, the angles from 2k pi/5 to (2k + 2) pi/5.
    """
    for seg in traj.segments:
        u = seg.end - seg.start
        t = (((-seg.start) / u).real if u != 0 else 0.0)
        t = min(max(t, 0.0), 1.0)
        if abs(seg.start + t * u) <= TOL_GEO:
            raise CenterCrossing(f"segment through the center: {seg}")
    sector, new_events = 0, []
    for ev in traj.events:
        if ev.kind == "reflect":
            sector = ev.edge // 2
        new_events.append(ev._replace(sector=sector))
    return Trajectory(traj.segments, tuple(new_events))


def develop(traj: Trajectory):
    """Unfold the trajectory: straighten reflections, break at reversals.

    Returns (pieces, residual) where pieces is a list of developed point
    chains (one chain per reversal-free stretch) and residual is the largest
    distance of any developed point from its chain's line.
    """
    if not traj.segments:
        return [], 0.0
    tables = _event_table()[1:]  # the mirrors, and conjugated
    # the unfolding so far: z -> mul * (conj z if conj else z) + shift
    mul, conj, shift = 1.0 + 0.0j, 0, 0.0j
    pieces: list[list[complex]] = [[traj.segments[0].start]]
    for seg, ev in zip(traj.segments, traj.events):
        end = mul * (seg.end.conjugate() if conj else seg.end) + shift
        pieces[-1].append(end)
        if ev.kind == "reflect":
            m, c = tables[conj][ev.edge]
            mul, shift, conj = mul * m, mul * c + shift, 1 - conj
        else:
            pieces.append([end])

    residual = 0.0
    for chain in pieces:
        if len(chain) < 3:
            continue
        u = (chain[-1] - chain[0]).conjugate()
        u /= abs(u)
        residual = max([residual] + [abs(((z - chain[0]) * u).imag) for z in chain[1:-1]])
    return pieces, residual
