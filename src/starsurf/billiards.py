"""Event-driven billiards in the star: edge reflection, vertex reversal,
and the unfolding that certifies broken geodesics are straight per chart.

Rules: a unit-speed ray from the interior reflects specularly when it meets
the interior of an edge and reverses (dir -> -dir) when it meets a vertex.
Events read the star's five edge lines from geometry.star_lines, the
table point location reads: the event is the earliest outward crossing of
a line that lies on one of the line's two edges, captured by a vertex
within tol of it (at an outer tip, only a ray heading out across, or along,
both of the tip's lines, so that the reversed ray runs back into it); a ray
sliding along a line stops at the first vertex ahead.  A line through the
current position (within ON_LINE) is not crossed again, but any other
line is, however close: near an outer tip, where the two edges meet at
pi/5, a ray bounces between them at any scale.

Lifting: each reflection event is tagged with the chord-pairing reflection
T_m that identifies the hit edge with its partner, plus a running sector
index.  The straightness check composes the reflections in the hit edge
lines (the classical unfolding); reversal events carry the identity tag,
flip direction, and start a new straight piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .config import UsageError
from .geometry import StarPolygon, TOL_GEO, build_star, point_location, star_lines
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


def reflect_dir(direction: complex, edge_id: int, star: StarPolygon) -> complex:
    """Mirror the direction across the edge's line: d -> u^2 conj(d), with
    the u^2 that simulate and develop reflect with."""
    return _event_table(star, TOL_GEO)[1][edge_id][0] * direction.conjugate()


@lru_cache(maxsize=None)
def _event_table(star: StarPolygon, tol: float) -> tuple[tuple, tuple]:
    """star_lines with the bounds of an event, and mirrors.  Per line: (f, w,
    tau_in -/+ tol, tau_out -/+ tol, sides, stops), sides the (inner vertex,
    outer vertex, edge id, w of the outer vertex's other line) at tau < 0
    and tau > 0, stops the (tau, vertex) of its four vertices.  Per edge:
    (u^2, shift) of the reflection in its line, u^2 conj z + shift, u =
    conj w."""
    rows = star_lines(star).rows
    lines, mirrors = [], [None] * len(star.edges)
    for f, w, t_in, t_out, sides in rows:
        u = w.conjugate()
        stops, tips = [], []
        for sign, (v_in, v_out, eid) in zip((-1.0, 1.0), sides):
            stops += [(sign * t_in, v_in), (sign * t_out, v_out)]
            mirrors[eid] = (u * u, f - u * u * f.conjugate())
            other = next(row[1] for row in rows if row[1] != w
                         and any(side[1] == v_out for side in row[4]))
            tips.append((v_in, v_out, eid, other))
        lines.append((f, w, t_in - tol, t_in + tol, t_out - tol, t_out + tol,
                      tuple(tips), tuple(stops)))
    return tuple(lines), tuple(mirrors)


def _event(z: complex, d: complex, lines: tuple, vertices: tuple[complex, ...],
           tol: float) -> tuple[str, int, complex, float]:
    """next_event on the lines of _event_table."""
    best, kind = math.inf, None
    for f, w, in_lo, in_hi, out_lo, out_hi, sides, stops in lines:
        dw = d * w
        if dw.imag < -1e-14:  # only an outward crossing leaves the star
            zw = (z - f) * w
            t = -zw.imag / dw.imag
            if zw.imag > ON_LINE and t < best:
                tau = zw.real + t * dw.real
                a, side = abs(tau), sides[tau > 0.0]  # (inner, outer, edge, w)
                if in_hi < a < out_lo:
                    best, kind, idx = t, "reflect", side[2]
                elif in_lo <= a <= in_hi:
                    best, kind, idx = t, "reverse", side[0]
                elif out_lo <= a <= out_hi:
                    if (d * side[3]).imag < 1e-14:  # into the tip: -d runs back
                        best, kind, idx = t, "reverse", side[1]
                    else:
                        best, kind, idx = t, "reflect", side[2]
        elif dw.imag < 1e-14:
            zw = (z - f) * w
            if -tol < zw.imag < tol:  # sliding along the line
                for tau, vid in stops:
                    s = (tau - zw.real) * dw.real
                    if tol < s < best:
                        best, kind, idx = s, "reverse", vid
    if kind is None:
        raise DegenerateRay(f"no boundary hit from {z} along {d}")
    if kind == "reflect":
        return kind, idx, z + best * d, best
    v = vertices[idx]
    return kind, idx, v, ((v - z) / d).real


def next_event(state: BilliardState, star: StarPolygon,
               tol: float = TOL_GEO) -> tuple[str, int, complex, float]:
    """Earliest boundary hit of the ray: ('reflect', edge id, point, dt), or
    ('reverse', vertex id, vertex, dt) for a hit within tol of a vertex
    (of an outer tip, only by a ray heading out across its other line too)."""
    return _event(state.pos, state.dir, _event_table(star, tol)[0], star.vertices, tol)


def simulate(z0: complex, direction: complex, max_events: int,
             star: StarPolygon | None = None, tol: float = TOL_GEO) -> Trajectory:
    """Run the billiard from z0 until max_events boundary events occurred."""
    if star is None:
        star = build_star()
    if direction == 0:
        raise UsageError("the billiard direction must be nonzero")
    if max_events < 0:
        raise UsageError(f"max_events = {max_events}, expected at least 0")
    direction = direction / abs(direction)
    loc = point_location(z0, star, tol)
    if loc.kind == "center":
        raise UsageError("billiards start anywhere in K except the center")
    if loc.kind == "exterior":
        raise UsageError(f"start {z0} lies outside the star")
    pair_m = edge_pairing(star).reflection_of_edge
    lines, mirrors = _event_table(star, tol)

    z, d, t0 = z0, direction, 0.0
    segments, events = [], []
    for _ in range(max_events):
        kind, idx, point, dt = _event(z, d, lines, star.vertices, tol)
        t1 = t0 + dt
        segments.append(Segment(z, point, d, t0, t1))
        if kind == "reflect":
            d = mirrors[idx][0] * d.conjugate()
            events.append(Event("reflect", point, t1, edge=idx,
                                pairing_m=pair_m[idx]))
        else:
            d = -d
            events.append(Event("reverse", point, t1, vertex=idx))
        z, t0 = point, t1
    return Trajectory(tuple(segments), tuple(events))


def lift_trajectory(traj: Trajectory, tol: float = TOL_GEO) -> Trajectory:
    """Annotate events with sector bookkeeping; reject center crossings.

    The sector index starts at 0 and is carried unchanged through reversals;
    a reflection in edge E moves the path onto the identified partner edge
    T_m(E), which lies in the sector reached by the identification.  The
    sectors are fixed by the frame.
    """
    for seg in traj.segments:
        u = seg.end - seg.start
        t = (((-seg.start) / u).real if u != 0 else 0.0)
        t = min(max(t, 0.0), 1.0)
        if abs(seg.start + t * u) <= tol:
            raise CenterCrossing(f"segment through the center: {seg}")
    sector, new_events = 0, []
    for ev in traj.events:
        if ev.kind == "reflect":
            angle = math.atan2(ev.position.imag, ev.position.real) % (2 * math.pi)
            sector = int(angle // (2 * math.pi / 5)) % 5
        new_events.append(ev._replace(sector=sector))
    return Trajectory(traj.segments, tuple(new_events))


def develop(traj: Trajectory, star: StarPolygon | None = None):
    """Unfold the trajectory: straighten reflections, break at reversals.

    Returns (pieces, residual) where pieces is a list of developed point
    chains (one chain per reversal-free stretch) and residual is the largest
    distance of any developed point from its chain's line.
    """
    if not traj.segments:
        return [], 0.0
    if star is None:
        star = build_star()
    mirrors = _event_table(star, TOL_GEO)[1]
    # the unfolding so far: z -> mul * (conj z if conj else z) + shift
    mul, conj, shift = 1.0 + 0.0j, False, 0.0j
    pieces: list[list[complex]] = [[traj.segments[0].start]]
    for seg, ev in zip(traj.segments, traj.events):
        end = mul * (seg.end.conjugate() if conj else seg.end) + shift
        pieces[-1].append(end)
        if ev.kind == "reflect":
            m, c = mirrors[ev.edge]
            if conj:
                m, c = m.conjugate(), c.conjugate()
            mul, shift, conj = mul * m, mul * c + shift, not conj
        else:
            pieces.append([end])

    residual = 0.0
    for chain in pieces:
        if len(chain) < 3:
            continue
        u = chain[-1] - chain[0]
        u /= abs(u)
        for z in chain[1:-1]:
            residual = max(residual, abs(((z - chain[0]) / u).imag))
    return pieces, residual
