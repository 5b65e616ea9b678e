import cmath
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starsurf.billiards import (_FLIPS, ON_LINE, BilliardState, CenterCrossing,
                                _event_table, DegenerateRay, develop, lift_trajectory,
                                next_event, reflect_dir, simulate)
from starsurf import verify
from starsurf.geometry import (EPSILON, INNER_RADIUS, OUTER_RADIUS, TOL_GEO, Dihedral,
                               StarPolygon, T, UsageError, build_star, locate_kinds,
                               point_location)
from starsurf.quotient import edge_pairing

STAR = build_star()


def _mirror(z: complex, angle: float) -> complex:
    """Float oracle of a reflection: z mirrored across the line through the
    origin at the given angle."""
    return cmath.exp(2j * angle) * z.conjugate()


# ------------------------------------------------- the ten-edge scan oracle

def _cross(w1: complex, w2: complex) -> float:
    return (w1.conjugate() * w2).imag


def ten_edge_event(state, star=STAR, tol=TOL_GEO):
    """next_event by a ray/segment scan of all ten edges: the earliest hit of
    an edge whose line does not pass within ON_LINE of the start, a hit within
    tol of an edge's endpoint captured there (at an outer, odd, vertex only
    when the ray also heads out across the vertex's other edge), and a ray
    collinear with an edge stopping at its endpoints beyond tol ahead."""
    z, d = state.pos, state.dir
    best = None

    def consider(s, kind, idx, point):
        nonlocal best
        if best is None or s < best[0] - 1e-14:
            best = (s, kind, idx, point)

    for eid, (i, j) in enumerate(star.edges):
        p, q = star.vertices[i], star.vertices[j]
        e = q - p
        denom = _cross(d, e)
        if abs(denom) < 1e-14:
            if abs(_cross(e, p - z)) < tol:
                for vid, v in ((i, p), (j, q)):
                    if ((v - z) / d).real > tol:
                        consider(((v - z) / d).real, "reverse", vid, v)
            continue
        s = _cross(p - z, e) / denom
        u = _cross(p - z, d) / denom
        if (abs(_cross(e, p - z)) <= ON_LINE * abs(e) or s <= 0
                or u < -tol / abs(e) or u > 1 + tol / abs(e)):
            continue
        hit = z + s * d
        for vid, v in ((i, p), (j, q)):
            # edge vid - 1 ends at vid and edge vid starts there
            o, o_end = ((vid - 1) % 10, vid) if eid == vid else (vid, (vid + 1) % 10)
            e_o = star.vertices[o_end] - star.vertices[o]
            into_tip = _cross(e_o, d) < 1e-14 * abs(e_o)
            if abs(hit - v) <= tol and (vid % 2 == 0 or into_tip):
                consider(((v - z) / d).real, "reverse", vid, v)
                break
        else:
            consider(s, "reflect", eid, hit)

    if best is None:
        raise DegenerateRay(f"no boundary hit from {z} along {d}")
    s, kind, idx, point = best
    return kind, idx, point, s


def _orbit(d0):
    """The directions a billiard from d0 can take, zeta^j conj^l(d0)."""
    return [cmath.exp(1j * math.pi * j / 5) * (d0.conjugate() if ell else d0)
            for j in range(10) for ell in (0, 1)]


def ten_edge_simulate(z0, d, max_events):
    """(kind, edge or vertex, position) of each event, found by the scan.
    After each event the mirrored direction is snapped to the nearest of
    _orbit(d): re-reflected floats drift (1.6e-14 in 1,000 events), and the
    drift moves the positions of long runs by over 1e-11."""
    state, out, orbit = BilliardState(z0, d), [], _orbit(d)
    for _ in range(max_events):
        kind, idx, point, dt = ten_edge_event(state)
        out.append((kind, idx, point))
        d = reflect_dir(state.dir, idx) if kind == "reflect" else -state.dir
        d = min(orbit, key=lambda r: abs(r - d))
        state = BilliardState(point, d, state.time + dt)
    return out


def _matches_the_scan(traj, z0, d, tol):
    """traj has the scan's event kinds and ids, and its positions within tol."""
    oracle = ten_edge_simulate(z0, d, len(traj.events))
    assert ([(e.kind, e.edge if e.kind == "reflect" else e.vertex) for e in traj.events]
            == [(kind, idx) for kind, idx, _ in oracle])
    assert max(abs(e.position - p) for e, (_, _, p) in zip(traj.events, oracle)) <= tol


def _same_event(state):
    kind, idx, point, dt = next_event(state)
    o_kind, o_idx, o_point, o_dt = ten_edge_event(state)
    assert (kind, idx) == (o_kind, o_idx)
    assert abs(point - o_point) <= 1e-12 and abs(dt - o_dt) <= 1e-12
    return kind, idx


def test_state_requires_unit_direction():
    with pytest.raises(ValueError):
        BilliardState(0.1 + 0j, 2.0 + 0j)


def test_next_event_real_axis_vertex_hit():
    state = BilliardState(0.1 + 0j, 1.0 + 0j)
    kind, idx, point, dt = next_event(state)
    assert kind == "reverse" and idx == 0
    assert abs(point - INNER_RADIUS) < 1e-12
    assert abs(dt - (INNER_RADIUS - 0.1)) < 1e-12


def test_next_event_generic_edge_hit():
    state = BilliardState(0.05 + 0.1j, cmath.exp(0.4j))
    kind, idx, point, dt = next_event(state)
    assert kind == "reflect"
    loc = point_location(point)
    assert loc.kind == "edge" and loc.index == idx
    assert dt > 0


def test_next_event_collinear_ray_hits_far_vertex():
    # start on an edge, direction along the edge: the far endpoint is hit
    p, q = STAR.edge_endpoints(2)
    start = p + 0.25 * (q - p)
    d = (q - p) / abs(q - p)
    kind, idx, point, dt = next_event(BilliardState(start, d))
    assert kind == "reverse"
    assert abs(point - q) < 1e-12
    assert abs(dt - 0.75 * abs(q - p)) < 1e-12


def test_next_event_outward_ray_degenerates():
    state = BilliardState(3.0 + 3.0j, cmath.exp(0.25j))
    with pytest.raises(DegenerateRay):
        next_event(state)


def test_reflect_dir_perpendicular_parallel_involution():
    rng = random.Random(6)
    for eid in range(10):
        p, q = STAR.edge_endpoints(eid)
        u = (q - p) / abs(q - p)
        n = u * 1j
        assert abs(reflect_dir(n, eid) + n) < 1e-14
        assert abs(reflect_dir(u, eid) - u) < 1e-14
    for _ in range(50):
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        eid = rng.randrange(10)
        assert abs(reflect_dir(reflect_dir(d, eid), eid) - d) < 1e-12


def test_reflect_dir_is_the_mirror_the_billiard_uses():
    # a ray reflecting at an edge leaves along reflect_dir of its direction
    for eid in range(10):
        p, q = STAR.edge_endpoints(eid)
        x = p + 0.4 * (q - p)
        n = (q - p) / abs(q - p) * 1j
        if point_location(x + 0.01 * n).kind != "interior":
            n = -n
        d = -n * cmath.exp(0.3j)  # heading out at 0.3 from the normal
        traj = simulate(x - 0.05 * d, d, 2)
        assert traj.events[0].edge == eid
        assert traj.segments[1].dir == reflect_dir(traj.segments[0].dir, eid)


def test_edge_mirrors_have_the_closed_form():
    # line k has unit normal n = e^{i pi (2k+1)/5} and foot n/2, so its mirror
    # is z -> -n^2 conj z + n.  The linear part -n^2 is an odd power of
    # e^{i pi/5}, a tenth root of unity that is not a fifth one: the mirrors
    # are not of the tiling's form eps^j conj(z)^l + t
    mirrors = _event_table()[1]
    for k, line in enumerate(STAR.edge_lines):
        n = cmath.exp(1j * math.pi * (2 * k + 1) / 5)
        assert abs(line.foot - n / 2) < 1e-15
        for eid in line.edge_ids:
            u2, shift = mirrors[eid]
            assert abs(u2 + n * n) < 1e-15 and abs(shift - n) < 1e-15
            assert abs(u2 ** 5 + 1) < 1e-14
            assert min(abs(u2 - EPSILON ** j) for j in range(5)) > 0.6
            # the exponent simulate's direction codes read from the edge id
            m = _FLIPS[eid] // 2
            assert m % 2 == 1 and abs(u2 - cmath.exp(1j * math.pi * m / 5)) <= 1e-15


def test_simulate_normal_incidence_retraces():
    p, q = STAR.edge_endpoints(0)
    mid = (p + q) / 2
    n = (q - p) / abs(q - p) * 1j
    if point_location(mid + 0.01 * n).kind != "interior":
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
        if point_location(z0).kind != "interior" or abs(z0) < 0.05:
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
@example(x=0.25, y=1e-9, theta=0.0)  # bounces 1.24 tol from the tip at -phi
def test_simulate_reflection_equivariance(x, y, theta):
    # the star is symmetric under z -> eps^k conj(z), k = 0..4; a mirrored
    # start and direction give the mirror image of the whole trajectory
    z0, d0 = complex(x, y), cmath.exp(1j * theta)
    assume(point_location(z0).kind == "interior" and abs(z0) >= 0.05)
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
    pairing = edge_pairing()
    pair_m = {}
    for (e0, e1), m in zip(pairing.pairs, pairing.reflection_of_pair):
        pair_m[e0] = m
        pair_m[e1] = m
    traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 8)
    lifted = lift_trajectory(traj)
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
        tp, tq = (_mirror(z, (2 * ev.pairing_m + 1) * math.pi / 5) for z in (p, q))
        assert min(abs(tp - r) + abs(tq - s), abs(tp - s) + abs(tq - r)) < 1e-12


def test_edge_mirrors_are_the_half_turn_after_the_pairing_reflection():
    # simulate's code of edge e's mirror zeta^m_e conj, 2 m_e + 1, is that of
    # the half-turn after e's pairing reflection T_m: the two tables agree
    pair_m = edge_pairing().reflection_of_edge
    for e in range(10):
        assert _FLIPS[e] == 2 * (Dihedral(5) * T[pair_m[e]]).j + 1


def test_lift_sectors_hold_the_reflection_points():
    # a reflection's sector tag is the sector its position's angle lies in
    rng = random.Random(41)
    for _ in range(40):
        z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        d = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        sector = 0
        for ev in lift_trajectory(simulate(z0, d, 100)).events:
            if ev.kind == "reflect":
                angle = math.atan2(ev.position.imag, ev.position.real) % (2 * math.pi)
                sector = int(angle // (2 * math.pi / 5)) % 5
            assert ev.sector == sector


def test_lift_rejects_center_crossing():
    traj = simulate(0.1 + 0j, 1.0, 2)
    with pytest.raises(CenterCrossing):
        lift_trajectory(traj)


def test_lift_reversal_sector_unchanged():
    # an off-axis launch that reaches a vertex: aim at the inner vertex
    target = STAR.vertices[2]
    z0 = 0.3 + 0.05j
    d = (target - z0) / abs(target - z0)
    traj = simulate(z0, d, 2)
    assert traj.events[0].kind == "reverse"
    assert traj.segments[1].dir == -traj.segments[0].dir
    lifted = lift_trajectory(traj)
    assert lifted.events[0].pairing_m is None
    # sector after a reversal equals the sector before it
    assert lifted.events[0].sector == 0


def test_no_boundary_events_no_tags():
    traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 0)
    assert traj.events == ()
    lifted = lift_trajectory(traj) if traj.segments else traj
    assert all(ev.pairing_m is None for ev in lifted.events)


def test_development_straightness_generic():
    rng = random.Random(13)
    done = 0
    while done < 6:
        z0 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        if point_location(z0).kind != "interior" or abs(z0) < 0.05:
            continue
        traj = simulate(z0, cmath.exp(1j * rng.uniform(0, 2 * math.pi)), 14)
        if any(ev.kind == "reverse" for ev in traj.events):
            continue
        pieces, residual = develop(traj)
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
    pieces, residual = develop(traj)
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
    assume(point_location(z0).kind == "interior")
    _same_event(BilliardState(z0, cmath.exp(1j * theta)))


@pytest.mark.parametrize("seed", [41, 7])
def test_simulate_matches_the_ten_edge_scan(seed):
    # the benchmark's launch box: |z0| in [0.05, 0.55], any direction
    rng = random.Random(seed)
    for _ in range(224):
        z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        _matches_the_scan(simulate(z0, d, 100), z0, d, 1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3, None])
def test_long_runs_match_the_ten_edge_scan(seed):
    # 1,000 events from a seeded start, or (None) from a ray aimed at vertex 2
    if seed is None:
        z0 = 0.3 + 0.05j
        d = (STAR.vertices[2] - z0) / abs(STAR.vertices[2] - z0)
    else:
        rng = random.Random(seed)
        z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    traj = simulate(z0, d, 1000)
    _matches_the_scan(traj, z0, d, 1e-11)
    assert (seed is None) == any(e.kind == "reverse" for e in traj.events)


@pytest.mark.parametrize("seed", [5, 6, 8])
def test_directions_stay_on_the_exact_orbit(seed):
    # an edge mirror is zeta^m conj, so a run only ever moves in the 20
    # directions zeta^j conj^l(d0); simulate makes each one once
    rng = random.Random(seed)
    z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    d0 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    dirs = {seg.dir for seg in simulate(z0, d0, 5000).segments}
    assert len(dirs) <= 20
    for d in dirs:
        assert min(abs(d - r) for r in _orbit(d0)) <= 1e-15
        assert abs(abs(d) - 1) <= 1e-15


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


@pytest.mark.parametrize("r", [0.5, 1.5, 2.0, 10.0, 100.0])
def test_rays_into_the_outer_tips_stay_in_the_star(r):
    # rays aimed r tol from an outer tip, along either edge or the bisector,
    # bounce in its pi/5 corner at that scale: none degenerates, every
    # segment stays in the star, and the scan finds the same events (r = 1
    # is left out: there the two capture tests round either way)
    for vid in range(1, 10, 2):
        tip = STAR.vertices[vid]
        for far in (STAR.vertices[vid - 1], STAR.vertices[(vid + 1) % 10], 0j):
            target = tip + r * TOL_GEO * (far - tip) / abs(far - tip)
            for k in range(8):
                z0 = 0.3 * cmath.exp(2j * math.pi * (k + 0.5) / 8)
                d = (target - z0) / abs(target - z0)
                traj = simulate(z0, d, 12)
                for seg in traj.segments:
                    for f in (0.25, 0.5, 0.75):
                        z = seg.start + f * (seg.end - seg.start)
                        assert point_location(z).kind != "exterior"
                _matches_the_scan(traj, z0, d, 1e-10)


@pytest.mark.parametrize("eid", range(10))
def test_next_event_collinear_rays_on_every_edge(eid):
    # a ray sliding along an edge, either way, reverses at the endpoint ahead;
    # toward the inner (reflex) vertex too, where it crosses no line outward
    p, q = STAR.edge_endpoints(eid)
    i, j = STAR.edges[eid]
    for start, end, vid in ((p + 0.25 * (q - p), q, j), (p + 0.75 * (q - p), p, i)):
        d = (end - start) / abs(end - start)
        assert _same_event(BilliardState(start, d)) == ("reverse", vid)
        assert abs(next_event(BilliardState(start, d))[2] - end) < 1e-12


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


@pytest.mark.parametrize("direction", [math.nan, complex(1.0, math.nan), math.inf,
                                       complex(-math.inf, 1.0)])
def test_simulate_rejects_a_non_finite_direction(direction):
    with pytest.raises(UsageError, match="finite and nonzero"):
        simulate(0.05 + 0.13j, direction, 3)


@pytest.mark.parametrize("z0", [complex(math.nan, 0.0), complex(math.inf, math.inf)])
def test_simulate_rejects_a_non_finite_start(z0):
    with pytest.raises(UsageError, match="outside the star"):
        simulate(z0, 1j, 3)


def test_the_star_is_never_hashed(monkeypatch):
    # the star is one constant: its tables are cached without a key, so no
    # lookup hashes the frozen dataclass (1.65 us a hash)
    def refuse(self):
        raise AssertionError("the star was hashed")

    monkeypatch.setattr(StarPolygon, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(STAR)
    traj = simulate(0.05 + 0.13j, cmath.exp(0.53j), 100)
    assert len(traj.events) == 100 and develop(traj)[1] < 1e-9
    assert point_location(0.1 + 0.1j).kind == "interior"
    assert list(locate_kinds([0.1 + 0.1j, 3.0])[0]) == [1, 0]
    assert verify.check_billiards().passed


# ------------------------------------------ closed orbits: the Veech dichotomy

PHI = (1 + 5 ** 0.5) / 2

#: Z[eps] directions v, which the Veech dichotomy makes completely periodic,
#: with two seeded starts each: one in each of the direction's two kinds of
#: cylinder.  Per start: (seed, events to the first return, (p, q)) with the
#: return time T = (p + q phi) |v|; the longer time is phi times the shorter.
CLOSED_ORBITS = [
    (1 + 2 * EPSILON, (0, 30, (3, 4)), (1, 48, (4, 7))),
    (2 + EPSILON, (2, 30, (3, 4)), (0, 48, (4, 7))),
    (3 + EPSILON, (1, 106, (7, 11)), (0, 172, (11, 18))),
    (4 + EPSILON, (1, 70, (5, 5)), (0, 120, (5, 10))),
    (1 + 2 * EPSILON ** 2, (7, 26, (4, 7)), (0, 42, (7, 11))),
]

#: a return's position gap: 9.8e-14 at worst over 30 seeded probe runs of
#: ten Z[eps] directions; a direction turned by 1e-3 rad came no closer
#: than 4.5e-4 in 20,000 events (25 runs)
CLOSING_GAP = 2e-13
NO_RETURN = 1e-6


def _seeded_start(seed: int) -> complex:
    # the disc |z| < a lies inside the star
    rng = random.Random(seed)
    return rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _returns(traj, gap: float) -> list[int]:
    """Events n >= 1 at which the billiard is back at event 0's position,
    within gap, heading as it headed after event 0 (within 1e-9)."""
    ev, seg = traj.events, traj.segments
    return [n for n in range(1, len(ev) - 1)
            if abs(ev[n].position - ev[0].position) <= gap
            and abs(seg[n + 1].dir - seg[1].dir) <= 1e-9]


@pytest.mark.parametrize("v, short, long", CLOSED_ORBITS,
                         ids=["1+2eps", "2+eps", "3+eps", "4+eps", "1+2eps^2"])
def test_zeps_directions_close_up_with_times_in_z_phi(v, short, long):
    times = []
    for seed, events, (p, q) in (short, long):
        traj = simulate(_seeded_start(seed), v, 2 * events + 2)
        assert _returns(traj, NO_RETURN) == [events, 2 * events]
        assert _returns(traj, CLOSING_GAP) == [events, 2 * events]
        period = traj.events[events].time - traj.events[0].time
        assert abs(period / abs(v) - (p + q * PHI)) <= 1e-12
        assert develop(traj)[1] < 1e-9
        times.append(period)
    assert abs(times[1] / times[0] - PHI) <= 1e-12


def test_a_turned_direction_does_not_close_up():
    traj = simulate(_seeded_start(0), (1 + 2 * EPSILON) * cmath.exp(1e-3j), 20_000)
    assert len(traj.events) == 20_000 and not _returns(traj, NO_RETURN)
