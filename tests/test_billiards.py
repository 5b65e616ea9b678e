import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.billiards import (BilliardState, CenterCrossing, DegenerateRay,
                                develop, lift_trajectory, next_event,
                                reflect_dir, simulate)
from starsurf.config import UsageError
from starsurf.geometry import (EPSILON, INNER_RADIUS, OUTER_RADIUS, TOL_GEO,
                               build_star, point_location)
from starsurf.quotient import build_reflections, edge_pairing

STAR = build_star()


# ------------------------------------------------- the ten-edge scan oracle

def _cross(w1: complex, w2: complex) -> float:
    return (w1.conjugate() * w2).imag


def ten_edge_event(state, star=STAR, tol=TOL_GEO):
    """next_event by a ray/segment scan of all ten edges: the earliest hit
    beyond tol, a hit within tol of an edge's endpoint captured there, and a
    ray collinear with an edge stopping at its endpoints ahead."""
    z, d = state.pos, state.dir
    best = None

    def consider(s, kind, idx, point):
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
            if abs(_cross(e, p - z)) < tol:
                for vid, v in ((i, p), (j, q)):
                    consider(((v - z) / d).real, "reverse", vid, v)
            continue
        s = _cross(p - z, e) / denom
        u = _cross(p - z, d) / denom
        if s <= tol or u < -tol / abs(e) or u > 1 + tol / abs(e):
            continue
        hit = z + s * d
        for vid, v in ((i, p), (j, q)):
            if abs(hit - v) <= tol:
                consider(((v - z) / d).real, "reverse", vid, v)
                break
        else:
            consider(s, "reflect", eid, hit)

    if best is None:
        raise DegenerateRay(f"no boundary hit from {z} along {d}")
    s, kind, idx, point = best
    return kind, idx, point, s


def ten_edge_simulate(z0, d, max_events, star=STAR):
    """(kind, edge or vertex, position) of each event, found by the scan."""
    state, out = BilliardState(z0, d), []
    for _ in range(max_events):
        kind, idx, point, dt = ten_edge_event(state, star)
        out.append((kind, idx, point))
        d = reflect_dir(state.dir, idx, star) if kind == "reflect" else -state.dir
        state = BilliardState(point, d, state.time + dt)
    return out


def _same_event(state):
    kind, idx, point, dt = next_event(state, STAR)
    o_kind, o_idx, o_point, o_dt = ten_edge_event(state)
    assert (kind, idx) == (o_kind, o_idx)
    assert abs(point - o_point) <= 1e-12 and abs(dt - o_dt) <= 1e-12
    return kind, idx


def test_state_requires_unit_direction():
    with pytest.raises(ValueError):
        BilliardState(0.1 + 0j, 2.0 + 0j)


def test_next_event_real_axis_vertex_hit():
    state = BilliardState(0.1 + 0j, 1.0 + 0j)
    kind, idx, point, dt = next_event(state, STAR)
    assert kind == "reverse" and idx == 0
    assert abs(point - INNER_RADIUS) < 1e-12
    assert abs(dt - (INNER_RADIUS - 0.1)) < 1e-12


def test_next_event_generic_edge_hit():
    state = BilliardState(0.05 + 0.1j, cmath.exp(0.4j))
    kind, idx, point, dt = next_event(state, STAR)
    assert kind == "reflect"
    loc = point_location(point, STAR)
    assert loc.kind == "edge" and loc.index == idx
    assert dt > 0


def test_next_event_collinear_ray_hits_far_vertex():
    # start on an edge, direction along the edge: the far endpoint is hit
    p, q = STAR.edge_endpoints(2)
    start = p + 0.25 * (q - p)
    d = (q - p) / abs(q - p)
    kind, idx, point, dt = next_event(BilliardState(start, d), STAR)
    assert kind == "reverse"
    assert abs(point - q) < 1e-12
    assert abs(dt - 0.75 * abs(q - p)) < 1e-12


def test_next_event_outward_ray_degenerates():
    state = BilliardState(3.0 + 3.0j, cmath.exp(0.25j))
    with pytest.raises(DegenerateRay):
        next_event(state, STAR)


def test_reflect_dir_perpendicular_parallel_involution():
    rng = random.Random(6)
    for eid in range(10):
        u = STAR.edge_direction(eid)
        n = u * 1j
        assert abs(reflect_dir(n, eid, STAR) + n) < 1e-14
        assert abs(reflect_dir(u, eid, STAR) - u) < 1e-14
    for _ in range(50):
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        eid = rng.randrange(10)
        assert abs(reflect_dir(reflect_dir(d, eid, STAR), eid, STAR) - d) < 1e-12


def test_simulate_normal_incidence_retraces():
    p, q = STAR.edge_endpoints(0)
    mid = (p + q) / 2
    u = STAR.edge_direction(0)
    n = u * 1j
    if point_location(mid + 0.01 * n, STAR).kind != "interior":
        n = -n
    traj = simulate(mid + 0.2 * n, -n, 3)
    assert abs(traj.events[0].position - mid) < 1e-12
    # normal incidence: the second segment reverses the first
    s0, s1 = traj.segments[0], traj.segments[1]
    assert abs(s1.dir + s0.dir) < 1e-12
    assert abs(s1.start - s0.end) < 1e-12


def test_simulate_real_axis_reversal_and_retrace():
    traj = simulate(0.1 + 0j, 1.0, 2)
    assert traj.events[0].kind == "reverse"
    assert abs(traj.events[0].position - INNER_RADIUS) < 1e-12
    # the retrace heads back through the start toward the opposite spike
    assert abs(traj.segments[1].dir + 1.0) < 1e-12


def test_simulate_rejects_bad_starts():
    with pytest.raises(ValueError):
        simulate(0j, 1.0, 2)
    with pytest.raises(ValueError):
        simulate(5.0 + 0j, 1.0, 2)


def test_trajectory_invariants():
    traj = simulate(0.07 + 0.12j, cmath.exp(0.9j), 10)
    for s0, s1 in zip(traj.segments, traj.segments[1:]):
        assert abs(s0.end - s1.start) < 1e-12
        assert abs(s0.t_end - s1.t_start) < 1e-12
    for seg in traj.segments:
        assert abs((seg.t_end - seg.t_start) - abs(seg.end - seg.start)) < 1e-12
        assert abs(abs(seg.dir) - 1) < 1e-12
    total = sum(abs(s.end - s.start) for s in traj.segments)
    assert abs(total - traj.total_time) < 1e-12


def test_simulate_rotation_equivariance():
    rng = random.Random(11)
    for _ in range(5):
        z0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        if point_location(z0, STAR).kind != "interior" or abs(z0) < 0.05:
            continue
        d0 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        base = simulate(z0, d0, 6)
        for nu in range(1, 5):
            rot = EPSILON ** nu
            rotated = simulate(rot * z0, rot * d0, 6)
            for s0, s1 in zip(base.segments, rotated.segments):
                assert abs(rot * s0.start - s1.start) < 1e-9
                assert abs(rot * s0.end - s1.end) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(0.0, 2 * math.pi))
def test_simulate_reflection_equivariance(x, y, theta):
    # the star is symmetric under z -> eps^k conj(z), k = 0..4; a mirrored
    # start and direction give the mirror image of the whole trajectory
    z0, d0 = complex(x, y), cmath.exp(1j * theta)
    assume(point_location(z0, STAR).kind == "interior" and abs(z0) >= 0.05)
    base = simulate(z0, d0, 6)
    for k in range(5):
        rot = EPSILON ** k
        mirrored = simulate(rot * z0.conjugate(), rot * d0.conjugate(), 6)
        assert [e.kind for e in mirrored.events] == [e.kind for e in base.events]
        for s0, s1 in zip(base.segments, mirrored.segments, strict=True):
            assert abs(rot * s0.start.conjugate() - s1.start) < 1e-9
            assert abs(rot * s0.end.conjugate() - s1.end) < 1e-9
            assert abs(rot * s0.dir.conjugate() - s1.dir) < 1e-9


def test_lift_tags_match_pairing_table():
    pairing = edge_pairing(STAR)
    pair_m = {}
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        pair_m[e0] = m
        pair_m[e1] = m
    traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 8)
    lifted = lift_trajectory(traj, STAR)
    refls = build_reflections()
    for ev in lifted.events:
        if ev.kind != "reflect":
            continue
        assert ev.pairing_m == pair_m[ev.edge]
        # the tagged reflection really maps the hit edge onto its partner
        p, q = STAR.edge_endpoints(ev.edge)
        partner = pairing.pairs[[i for i, pr in enumerate(pairing.pairs)
                                 if ev.edge in pr][0]]
        other = partner[1] if partner[0] == ev.edge else partner[0]
        r, s = STAR.edge_endpoints(other)
        t = refls[ev.pairing_m]
        assert min(abs(t(p) - r) + abs(t(q) - s),
                   abs(t(p) - s) + abs(t(q) - r)) < 1e-12


def test_lift_rejects_center_crossing():
    traj = simulate(0.1 + 0j, 1.0, 2)
    with pytest.raises(CenterCrossing):
        lift_trajectory(traj, STAR)


def test_lift_reversal_sector_unchanged():
    # an off-axis launch that reaches a vertex: aim at the inner vertex
    target = STAR.vertices[2]
    z0 = 0.3 + 0.05j
    d = (target - z0) / abs(target - z0)
    traj = simulate(z0, d, 2)
    assert traj.events[0].kind == "reverse"
    lifted = lift_trajectory(traj, STAR)
    assert lifted.events[0].pairing_m is None
    # sector after a reversal equals the sector before it
    assert lifted.events[0].sector == 0


def test_no_boundary_events_no_tags():
    traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 0)
    assert traj.events == ()
    lifted = lift_trajectory(traj, STAR) if traj.segments else traj
    assert all(ev.pairing_m is None for ev in lifted.events)


def test_development_straightness_generic():
    rng = random.Random(13)
    done = 0
    while done < 6:
        z0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        if point_location(z0, STAR).kind != "interior" or abs(z0) < 0.05:
            continue
        traj = simulate(z0, cmath.exp(1j * rng.uniform(0, 2 * math.pi)), 14)
        if any(ev.kind == "reverse" for ev in traj.events):
            continue
        pieces, residual = develop(traj, STAR)
        assert len(pieces) == 1
        assert residual < 1e-8
        done += 1


def test_development_breaks_at_reversals():
    target = STAR.vertices[2]
    z0 = 0.3 + 0.05j
    d = (target - z0) / abs(target - z0)
    traj = simulate(z0, d, 4)
    kinds = [ev.kind for ev in traj.events]
    assert "reverse" in kinds
    pieces, residual = develop(traj, STAR)
    assert len(pieces) == 1 + kinds.count("reverse")
    assert residual < 1e-8


# ------------------------------------------- the five-line kernel vs the scan

def _kite_point(s, t, flip, nu):
    """A point of the closed star: s A + t B in the triangle O A B (folded
    when s + t > 1), mirrored into the kite when flip, rotated by eps^nu."""
    if s + t > 1:
        s, t = 1 - s, 1 - t
    z = s * INNER_RADIUS + t * OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
    return EPSILON ** nu * (z.conjugate() if flip else z)


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.booleans(), st.integers(0, 4),
       st.floats(0, 2 * math.pi))
def test_next_event_matches_the_ten_edge_scan(s, t, flip, nu, theta):
    z0 = _kite_point(s, t, flip, nu)
    assume(point_location(z0, STAR).kind == "interior")
    _same_event(BilliardState(z0, cmath.exp(1j * theta)))


@pytest.mark.parametrize("seed", [41, 7])
def test_simulate_matches_the_ten_edge_scan(seed):
    # the benchmark's launch box: |z0| in [0.05, 0.55], any direction
    rng = random.Random(seed)
    for _ in range(224):
        z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        traj = simulate(z0, d, 100)
        oracle = ten_edge_simulate(z0, d, 100)
        assert ([(e.kind, e.edge if e.kind == "reflect" else e.vertex) for e in traj.events]
                == [(kind, idx) for kind, idx, _ in oracle])
        assert max(abs(e.position - p) for e, (_, _, p) in zip(traj.events, oracle)) <= 1e-10


@pytest.mark.parametrize("vid", range(10))
def test_next_event_at_and_beside_each_vertex(vid):
    # from the inner pentagon, which sees the whole star: a ray aimed at the
    # vertex, or at a point of an incident edge within tol of it, reverses
    # there; a point 2 tol along the edge is an edge hit
    z0 = 0.02 + 0.01j
    v = STAR.vertices[vid]
    for eid in (e for e, ends in enumerate(STAR.edges) if vid in ends):
        p, q = STAR.edge_endpoints(eid)
        along = (p + q - 2 * v) / abs(q - p)
        for offset, expected in ((0.0, ("reverse", vid)), (0.5, ("reverse", vid)),
                                 (2.0, ("reflect", eid))):
            target = v + offset * TOL_GEO * along
            state = BilliardState(z0, (target - z0) / abs(target - z0))
            assert _same_event(state) == expected


@pytest.mark.parametrize("eid", range(10))
def test_next_event_collinear_rays_on_every_edge(eid):
    # a ray sliding along an edge, either way, reverses at the endpoint ahead;
    # toward the inner (reflex) vertex too, where it crosses no line outward
    p, q = STAR.edge_endpoints(eid)
    i, j = STAR.edges[eid]
    for start, end, vid in ((p + 0.25 * (q - p), q, j), (p + 0.75 * (q - p), p, i)):
        d = (end - start) / abs(end - start)
        assert _same_event(BilliardState(start, d)) == ("reverse", vid)
        assert abs(next_event(BilliardState(start, d), STAR)[2] - end) < 1e-12


def test_next_event_collinear_ray_on_a_chord_stops_at_the_inner_vertex():
    # the pentagon's sides lie inside the star, on the edge lines
    for line in STAR.edge_lines:
        for sign in (1, -1):
            kind, vid = _same_event(BilliardState(line.foot, sign * line.direction))
            # the inner vertex ahead, half a pentagon side 2 a sin(pi/5) away
            ahead = line.foot + sign * line.direction * INNER_RADIUS * math.sin(math.pi / 5)
            assert kind == "reverse" and abs(STAR.vertices[vid] - ahead) < 1e-12


def test_develop_of_an_empty_trajectory():
    assert develop(simulate(0.05 + 0.13j, cmath.exp(0.53j), 0)) == ([], 0.0)


def test_simulate_rejects_a_zero_direction_and_negative_event_counts():
    with pytest.raises(UsageError):
        simulate(0.05 + 0.13j, 0, 3)
    with pytest.raises(UsageError):
        simulate(0.05 + 0.13j, 0j, 3)
    with pytest.raises(UsageError):
        simulate(0.05 + 0.13j, 1.0, -1)
    assert issubclass(UsageError, ValueError)
