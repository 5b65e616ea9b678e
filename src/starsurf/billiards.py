"""Event-driven billiards in the star: edge reflection, vertex reversal,
and the unfolding that certifies broken geodesics are straight per chart.

Rules: a unit-speed ray from the interior reflects specularly when it meets
the interior of an edge and reverses (dir -> -dir) when it meets a vertex.
Events come from the star's five edge lines: the event is the earliest
outward line crossing beyond tol that lies on one of the line's two edges,
captured by a vertex within tol of it; a ray sliding along a line stops at
the first vertex ahead.  Hits within tol of the current position are
skipped so boundary starts run their full first segment.

Lifting: each reflection event is tagged with the chord-pairing reflection
T_m that identifies the hit edge with its partner, plus a running sector
index.  The straightness check composes the reflections in the hit edge
lines (the classical unfolding); reversal events carry the identity tag,
flip direction, and start a new straight piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

from .config import UsageError
from .geometry import StarPolygon, TOL_GEO, build_star, point_location
from .quotient import edge_pairing


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


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex
    dir: complex
    t_start: float
    t_end: float


@dataclass(frozen=True)
class Event:
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
    """Mirror the direction across the edge's line: d -> u^2 conj(d)."""
    u = star.edge_direction(edge_id)
    return u * u * direction.conjugate()


class _EventTable(NamedTuple):
    lines: tuple[tuple, ...]
    vertices: tuple[complex, ...]
    mirrors: tuple[tuple[complex, complex], ...]


@lru_cache(maxsize=None)
def _event_table(star: StarPolygon, tol: float) -> _EventTable:
    """Per edge line with foot f and unit direction u, in the coordinate
    tau = Re((z - f) conj u) along it: (f, conj u, tau_in -/+ tol,
    tau_out -/+ tol, sides, stops), with |tau| of the inner and outer vertices
    (the line's two edges mirror each other about f), (inner vertex, outer
    vertex, edge) at tau < 0 and at tau > 0, and the four (tau, vertex).
    Per edge, (u^2, shift) of the reflection in its line, u^2 conj z + shift."""
    lines, mirrors = [], [None] * len(star.edges)
    for line in star.edge_lines:
        f, w, u2 = line.foot, line.direction.conjugate(), line.direction * line.direction
        sides, stops = [], []
        for eid in line.edge_ids:
            ends = [(((star.vertices[vid] - f) * w).real, vid) for vid in star.edges[eid]]
            (t_in, v_in), (t_out, v_out) = sorted(ends, key=lambda stop: abs(stop[0]))
            sides.append((t_in, (v_in, v_out, eid)))
            stops += [(t_in, v_in), (t_out, v_out)]
            mirrors[eid] = (u2, f - u2 * f.conjugate())
        t_in, t_out = abs(t_in), abs(t_out)
        lines.append((f, w, t_in - tol, t_in + tol, t_out - tol, t_out + tol,
                      tuple(side for _, side in sorted(sides)), tuple(stops)))
    return _EventTable(tuple(lines), star.vertices, tuple(mirrors))


def _event(z: complex, d: complex, table: _EventTable,
           tol: float) -> tuple[str, int, complex, float]:
    """next_event on the rows of _event_table."""
    best, kind = math.inf, None
    for f, w, in_lo, in_hi, out_lo, out_hi, sides, stops in table.lines:
        dw = d * w
        if dw.imag < -1e-14:  # only an outward crossing leaves the star
            zw = (z - f) * w
            t = -zw.imag / dw.imag
            if tol < t < best:
                tau = zw.real + t * dw.real
                a, side = abs(tau), sides[tau > 0.0]  # (inner, outer, edge)
                if in_hi < a < out_lo:
                    best, kind, idx = t, "reflect", side[2]
                elif in_lo <= a <= out_hi:
                    best, kind, idx = t, "reverse", side[a > in_hi]
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
    v = table.vertices[idx]
    return kind, idx, v, ((v - z) / d).real


def next_event(state: BilliardState, star: StarPolygon,
               tol: float = TOL_GEO) -> tuple[str, int, complex, float]:
    """Earliest boundary hit of the ray: ('reflect'|'reverse', id, point, dt).

    Hits within tol of a vertex classify as vertex hits ('reverse' carrying
    the vertex id); otherwise edge hits ('reflect' carrying the edge id).
    """
    return _event(state.pos, state.dir, _event_table(star, tol), tol)


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
    table = _event_table(star, tol)

    z, d, t0 = z0, direction, 0.0
    segments, events = [], []
    for _ in range(max_events):
        kind, idx, point, dt = _event(z, d, table, tol)
        t1 = t0 + dt
        segments.append(Segment(z, point, d, t0, t1))
        if kind == "reflect":
            d = table.mirrors[idx][0] * d.conjugate()
            events.append(Event("reflect", point, t1, edge=idx,
                                pairing_m=pair_m[idx]))
        else:
            d = -d
            events.append(Event("reverse", point, t1, vertex=idx))
        z, t0 = point, t1
    return Trajectory(tuple(segments), tuple(events))


def lift_trajectory(traj: Trajectory, star: StarPolygon | None = None,
                    tol: float = TOL_GEO) -> Trajectory:
    """Annotate events with sector bookkeeping; reject center crossings.

    The sector index starts at 0 and is carried unchanged through reversals;
    a reflection in edge E moves the path onto the identified partner edge
    T_m(E), which lies in the sector reached by the identification.
    """
    if star is None:
        star = build_star()
    for seg in traj.segments:
        u = seg.end - seg.start
        t = (((-seg.start) / u).real if u != 0 else 0.0)
        t = min(max(t, 0.0), 1.0)
        if abs(seg.start + t * u) <= tol:
            raise CenterCrossing(f"segment through the center: {seg}")
    sector, new_events = 0, []
    for ev in traj.events:
        if ev.kind == "reflect":
            sector = _sector_of_point(ev.position, star)
        new_events.append(replace(ev, sector=sector))
    return Trajectory(traj.segments, tuple(new_events))


def _sector_of_point(z: complex, star: StarPolygon) -> int:
    ang = math.atan2(z.imag, z.real) % (2 * math.pi)
    return int(ang // (2 * math.pi / 5)) % 5


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
    mirrors = _event_table(star, TOL_GEO).mirrors
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
    if len(traj.segments) > len(traj.events):
        end = traj.segments[-1].end
        pieces[-1].append(mul * (end.conjugate() if conj else end) + shift)

    residual = 0.0
    for chain in pieces:
        if len(chain) < 3:
            continue
        u = chain[-1] - chain[0]
        u /= abs(u)
        for z in chain[1:-1]:
            residual = max(residual, abs(((z - chain[0]) / u).imag))
    return pieces, residual
