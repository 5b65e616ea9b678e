"""Event-driven billiards in the star: edge reflection, vertex reversal,
and the unfolding that certifies broken geodesics are straight per chart.

Rules: a unit-speed ray from the interior reflects specularly when it meets
the interior of an edge and reverses (dir -> -dir) when it meets a vertex.
Events are found by exact ray/segment intersection over all ten edges with
a vertex-capture tolerance; hits on the current position are skipped so
boundary starts run their full first segment.

Lifting: each reflection event is tagged with the chord-pairing reflection
T_m that identifies the hit edge with its partner, plus a running sector
index.  The straightness check composes the reflections in the hit edge
lines (the classical unfolding); reversal events carry the identity tag,
flip direction, and start a new straight piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import UsageError
from .geometry import AffineMap, StarPolygon, TOL_GEO, build_star, point_location
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


def _cross(w1: complex, w2: complex) -> float:
    return (w1.conjugate() * w2).imag


def next_event(state: BilliardState, star: StarPolygon,
               tol: float = TOL_GEO) -> tuple[str, int, complex, float]:
    """Earliest boundary hit of the ray: ('reflect'|'reverse', id, point, dt).

    Hits within tol of a vertex classify as vertex hits ('reverse' carrying
    the vertex id); otherwise edge hits ('reflect' carrying the edge id).
    """
    z, d = state.pos, state.dir
    best: tuple[float, str, int, complex] | None = None

    def consider(s: float, kind: str, idx: int, point: complex):
        nonlocal best
        if s <= tol:
            return
        if best is None or s < best[0] - 1e-14:
            best = (s, kind, idx, point)

    for eid, (i, j) in enumerate(star.edges):
        p, q = star.vertices[i], star.vertices[j]
        e = q - p
        denom = _cross(d, e)
        if abs(denom) < 1e-14:
            # parallel; collinear rays can still run into the endpoints
            if abs(_cross(e, p - z)) < tol:
                for vid, v in ((i, p), (j, q)):
                    s = ((v - z) / d).real
                    consider(s, "reverse", vid, v)
            continue
        s = _cross(p - z, e) / denom
        u = _cross(p - z, d) / denom
        if s <= tol or u < -tol / abs(e) or u > 1 + tol / abs(e):
            continue
        hit = z + s * d
        captured = False
        for vid, v in ((i, p), (j, q)):
            if abs(hit - v) <= tol:
                consider(((v - z) / d).real, "reverse", vid, v)
                captured = True
                break
        if not captured:
            consider(s, "reflect", eid, hit)

    if best is None:
        raise DegenerateRay(f"no boundary hit from {z} along {d}")
    s, kind, idx, point = best
    return kind, idx, point, s


def simulate(z0: complex, direction: complex, max_events: int,
             star: StarPolygon | None = None, tol: float = TOL_GEO) -> Trajectory:
    """Run the billiard from z0 until max_events boundary events occurred."""
    if star is None:
        star = build_star()
    direction = direction / abs(direction)
    loc = point_location(z0, star, tol)
    if loc.kind == "center":
        raise UsageError("billiards start anywhere in K except the center")
    if loc.kind == "exterior":
        raise UsageError(f"start {z0} lies outside the star")
    pair_m = edge_pairing(star).reflection_of_edge

    state = BilliardState(z0, direction)
    segments: list[Segment] = []
    events: list[Event] = []
    for _ in range(max_events):
        kind, idx, point, dt = next_event(state, star, tol)
        t1 = state.time + dt
        segments.append(Segment(state.pos, point, state.dir, state.time, t1))
        if kind == "reflect":
            new_dir = reflect_dir(state.dir, idx, star)
            events.append(Event("reflect", point, t1, edge=idx,
                                pairing_m=pair_m[idx]))
        else:
            new_dir = -state.dir
            events.append(Event("reverse", point, t1, vertex=idx))
        state = BilliardState(point, new_dir, t1)
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
    sector = 0
    new_events = []
    for ev in traj.events:
        if ev.kind == "reflect":
            partner_sector = _sector_of_point(ev.position, star)
            sector = partner_sector
            new_events.append(replace(ev, sector=sector))
        else:
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
    if star is None:
        star = build_star()
    g = AffineMap()
    pieces: list[list[complex]] = [[traj.segments[0].start]]
    for seg, ev in zip(traj.segments, traj.events):
        pieces[-1].append(g(seg.end))
        if ev.kind == "reflect":
            line = star.line_of_edge(ev.edge)
            g = g.compose(AffineMap.reflection_in_line(line.foot, line.direction))
        else:
            pieces.append([g(seg.end)])
    if len(traj.segments) > len(traj.events):
        pieces[-1].append(g(traj.segments[-1].end))

    residual = 0.0
    for chain in pieces:
        if len(chain) < 3:
            continue
        u = chain[-1] - chain[0]
        u /= abs(u)
        for z in chain[1:-1]:
            residual = max(residual, abs(((z - chain[0]) / u).imag))
    return pieces, residual
