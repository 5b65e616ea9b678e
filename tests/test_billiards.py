import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsurf.billiards import (BilliardState, CenterCrossing, DegenerateRay,
                                develop, lift_trajectory, next_event,
                                reflect_dir, simulate)
from starsurf.geometry import EPSILON, INNER_RADIUS, build_star, point_location
from starsurf.quotient import build_reflections, edge_pairing

STAR = build_star()


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
