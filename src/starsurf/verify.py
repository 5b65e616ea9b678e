"""Acceptance checks: every quantitative claim, each with an independent
oracle, run deterministically and reported as a ledger.

Each check registers under its module and returns a CheckResult; run_verify
executes the registry (in canonical id order, optionally only one module's
checks) and wraps the results.  Two checks are expected to fail and say so
in their notes: the edge-pair orbit sizes (a cyclic group of order 5 cannot
have orbits of sizes 3 and 2) and fundamental-domain uniqueness (the
translation group contains golden-ratio contractions, so interior carriers
are not unique).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field, replace

from . import billiards as bl
from . import covering as cov
from . import metric as mt
from . import quotient as qt
from . import tiling as tl
from .conformal import MU, PREVERTICES, F_T, SheetedPoint, compute_k, corner_angle
from .geometry import (EPSILON, INNER_RADIUS, OUTER_RADIUS, build_star,
                       build_triangle, point_location)
from .quadrature import QuadratureRule, panel


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    module: str
    passed: bool
    measured: str
    tolerance: str
    runtime_s: float
    note: str = ""


@dataclass
class VerifyLedger:
    entries: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        return json.dumps({
            "all_passed": self.all_passed,
            "entries": [asdict(e) for e in self.entries],
        }, indent=2)


def _result(check_id, claim, passed, measured, tolerance, note=""):
    """A check's result; the registry wrapper stamps its module and runtime."""
    return CheckResult(check_id, claim, "", bool(passed), str(measured),
                       str(tolerance), 0.0, note)


#: the check registry in canonical order; each entry carries its ``module``
#: so that run_verify can select checks without calling them
CHECKS: list = []


def _check(module: str):
    """Register a check under its module; the wrapper times each call."""
    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            return replace(result, module=module, runtime_s=time.perf_counter() - t0)
        run.module = module
        CHECKS.append(run)
        return run
    return register


# ---------------------------------------------------------------- criterion 1

@_check("geometry_core")
def check_triangle_identity() -> CheckResult:
    tri = build_triangle()
    res = max(
        abs(tri.c - 2 * math.sin(math.pi / 5)),
        abs(tri.alpha - math.pi / 10),
        abs(tri.beta - 7 * math.pi / 10),
        abs(tri.gamma - math.pi / 5),
        abs(tri.alpha + tri.beta + tri.gamma - math.pi),
        abs(tri.c ** 2 - tri.a ** 2 - tri.b ** 2 + 2 * tri.a * tri.b * math.cos(math.pi / 5)),
    )
    exact = (tri.alpha_frac, tri.beta_frac, tri.gamma_frac) == \
        tuple(__import__("fractions").Fraction(n, 10) for n in (1, 7, 2))
    return _result("01-triangle", "sides (a,b,c) and angles (pi/10, 7pi/10, pi/5) of the rational triangle",
                   res < 1e-12 and exact and tri.b > tri.a,
                   f"max residual {res:.2e}", "1e-12")


# ---------------------------------------------------------------- criterion 2

@_check("geometry_core")
def check_star_collinearity() -> CheckResult:
    star = build_star()
    A = complex(INNER_RADIUS, 0)
    Ap = INNER_RADIUS * EPSILON
    B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
    Bp = EPSILON * B
    C = 0.5 * cmath.exp(1j * math.pi / 5)   # apothem foot on the OB ray
    Cp = EPSILON * C

    def angle(at, p, q):
        return abs(cmath.phase((q - at) / (p - at)))

    sum1 = angle(Ap, C, 0) + angle(Ap, 0, Cp) + angle(Ap, Cp, Bp)
    sum2 = angle(Ap, Cp, 0) + angle(Ap, 0, C) + angle(Ap, C, B)
    res_angles = max(abs(sum1 - math.pi), abs(sum2 - math.pi))

    # ten edges on exactly five lines
    res_lines = 0.0
    for line in star.edge_lines:
        for eid in line.edge_ids:
            for v in star.edge_endpoints(eid):
                res_lines = max(res_lines, line.distance(v))
    n_lines = len(star.edge_lines)
    ok = res_angles < 1e-12 and res_lines < 1e-12 and n_lines == 5
    return _result("02-star-collinearity",
                   "edge collinearity angle sums equal pi; 10 edges lie on 5 lines",
                   ok,
                   f"angle residual {res_angles:.2e}, line residual {res_lines:.2e}",
                   "1e-12")


# ---------------------------------------------------------------- criterion 3

@_check("conformal_map")
def check_normalization() -> CheckResult:
    k = compute_k()  # the closed form; fine-rule quadrature of F(a) is its oracle
    fine = QuadratureRule(nodes_per_panel=96, target_abs_err=1e-13)
    from .conformal import MU, _inv_eta
    half = INNER_RADIUS / 2
    Fa = (panel(_inv_eta, 0.0, half, mu0=MU[0.0], rule=fine)
          + panel(_inv_eta, half, INNER_RADIUS, mu1=MU[INNER_RADIUS], rule=fine))
    res = abs(k * Fa - INNER_RADIUS)
    return _result("03-normalization", "k * F(a) = a with k real positive",
                   res < 1e-10 and k > 0,
                   f"residual {res:.2e}, k = {k:.12f}", "1e-10")


# ---------------------------------------------------------------- criterion 4

@_check("conformal_map")
def check_map_endpoints() -> CheckResult:
    B = OUTER_RADIUS * cmath.exp(1j * math.pi / 5)
    res_pts = max(
        abs(F_T(0.0)),
        abs(F_T(INNER_RADIUS) - INNER_RADIUS),
        abs(F_T(OUTER_RADIUS) - B),
    )
    res_ang = max(
        abs(corner_angle(0.0) - 2 * math.pi / 10),
        abs(corner_angle(INNER_RADIUS) - 7 * math.pi / 10),
        abs(corner_angle(OUTER_RADIUS) - math.pi / 10),
    )
    ok = res_pts < 1e-6 and res_ang < 1e-3
    return _result("04-map-endpoints",
                   "triangle map sends 0, a, b to the corners O, A, B with the right angles",
                   ok,
                   f"corner residual {res_pts:.2e}, angle residual {res_ang:.2e}",
                   "1e-6 (corners), 1e-3 rad (angles)")


# ---------------------------------------------------------------- criterion 5

@_check("covering_surface")
def check_monodromy() -> CheckResult:
    # eta ~ (xi - s)^mu_s picks up e^{2 pi i mu_s}: 10 mu_s sheet steps
    expected = {name: round(10 * MU[s]) % 10 for name, s in zip("0ab", PREVERTICES)}
    ok = True
    detail = []
    for name, shift in expected.items():
        for frac in (0.04, 0.12):
            perm = cov.monodromy(name, radius=frac)
            want = cov.SheetPermutation.shift(shift)
            ok &= perm.images == want.images
            detail.append(f"{name}@r={frac}:+{(perm.images[0]) % 10}")
    for r in (0.1, 0.25):
        perm = cov.monodromy("inf", radius=r)
        ok &= perm.is_identity
        detail.append(f"inf@r={r}:{'id' if perm.is_identity else perm.images}")
    return _result("05-monodromy",
                   "continuation shifts (+8, +3, +9) at (0, a, b); identity at infinity",
                   ok, "; ".join(detail), "exact match")


# ---------------------------------------------------------------- criterion 6

@_check("covering_surface")
def check_genus_twice() -> CheckResult:
    reports = cov.ramification_report()
    r = cov.total_ramification(reports)
    g_rh = cov.genus_riemann_hurwitz(reports)
    chi, g_tri, _meta = qt.quotient_euler_genus()
    ok = (r == 26 and g_rh == 4 and chi == -6 and g_tri == 4 and g_rh == g_tri)
    return _result("06-genus-twice",
                   "total ramification 26 gives genus 4; quotient census chi = -6 gives genus 4",
                   ok,
                   f"r = {r}, g_rh = {g_rh}, chi = {chi}, g_tri = {g_tri}",
                   "exact")


# ---------------------------------------------------------------- criterion 7

@_check("flat_metric_dynamics")
def check_isometry_straightening(seed: int = 11) -> CheckResult:
    rng = random.Random(seed)
    res_unit = 0.0
    for _ in range(100):
        p = SheetedPoint(complex(rng.uniform(0.1, 1.9), rng.uniform(0.15, 1.4)),
                         rng.randrange(10))
        X = mt.unit_field(p)
        res_unit = max(res_unit, abs(mt.Gamma(p, X, X) - 1.0))

    res_flow = 0.0
    for _ in range(6):
        p0 = SheetedPoint(complex(rng.uniform(0.6, 1.6), rng.uniform(0.8, 1.3)),
                          rng.randrange(10))
        z0 = mt.delta(p0)
        t = rng.uniform(0.05, 0.2)
        p1 = mt.flow(p0, t, steps=200)
        res_flow = max(res_flow, abs(mt.delta(p1) - z0
                                     - t * mt.developed_direction(p0)))

    res_dir = 0.0
    for theta in (0.4, 1.2, 2.2, -0.9):
        alpha = cmath.exp(1j * theta)
        p0 = SheetedPoint(1.05 + 1.0j, 0)
        z0 = mt.delta(p0)
        t = 0.12
        p1 = mt.flow(p0, t, steps=200, direction=alpha)
        res_dir = max(res_dir, abs(mt.delta(p1) - z0 - t * alpha))

    ok = res_unit < 1e-8 and res_flow < 1e-6 and res_dir < 1e-6
    return _result("07-isometry-straightening",
                   "unit field has metric norm 1; developed flows advance linearly in every direction",
                   ok,
                   f"norm residual {res_unit:.2e}, flow residual {res_flow:.2e}, "
                   f"rotated residual {res_dir:.2e}",
                   "1e-8 (norm), 1e-6 (flows)")


# ---------------------------------------------------------------- criterion 8

@_check("billiards")
def check_billiards(seed: int = 5) -> CheckResult:
    rng = random.Random(seed)
    star = build_star()

    res_invol = 0.0
    for _ in range(50):
        d = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        eid = rng.randrange(10)
        dd = bl.reflect_dir(bl.reflect_dir(d, eid, star), eid, star)
        res_invol = max(res_invol, abs(dd - d))

    # vertex reversal on the real-axis launch
    traj = bl.simulate(0.1 + 0j, 1.0, 2)
    reversal_ok = (traj.events[0].kind == "reverse"
                   and abs(traj.events[0].position - INNER_RADIUS) < 1e-9
                   and abs(traj.events[0].time - (INNER_RADIUS - 0.1)) < 1e-9)

    res_speed = 0.0
    res_equiv = 0.0
    res_dev = 0.0
    n_ic = 0
    while n_ic < 20:
        z0 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        if point_location(z0, star).kind != "interior" or abs(z0) < 0.05:
            continue
        n_ic += 1
        d0 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        traj0 = bl.simulate(z0, d0, 8)
        for seg in traj0.segments:
            res_speed = max(res_speed, abs((seg.t_end - seg.t_start)
                                           - abs(seg.end - seg.start)))
        for nu in range(1, 5):
            rot = EPSILON ** nu
            traj_r = bl.simulate(rot * z0, rot * d0, 8)
            for s0, s1 in zip(traj0.segments, traj_r.segments):
                res_equiv = max(res_equiv,
                                abs(rot * s0.start - s1.start),
                                abs(rot * s0.end - s1.end))
        if all(ev.kind == "reflect" for ev in traj0.events):
            _pieces, resid = bl.develop(traj0, star)
            res_dev = max(res_dev, resid)

    ok = (res_invol < 1e-12 and reversal_ok and res_speed < 1e-9
          and res_equiv < 1e-9 and res_dev < 1e-8)
    return _result("08-billiards",
                   "reflection involutive, speed 1, vertex reversal, rotation equivariance, straight unfolding",
                   ok,
                   f"involution {res_invol:.2e}, speed {res_speed:.2e}, "
                   f"equivariance {res_equiv:.2e}, development {res_dev:.2e}",
                   "1e-9 (equivariance), 1e-8 (development)")


# ---------------------------------------------------------------- criterion 9

@_check("quotient_surface")
def check_quotient_cells() -> CheckResult:
    census = qt.triangulate()
    counts = (len(census.faces), len(census.edges), len(census.vertices))
    return _result("09a-quotient-cells", "triangulation has 10 faces, 20 edges, 10 vertices",
                   counts == (10, 20, 10), str(counts), "exact")


@_check("quotient_surface")
def check_pairing_orbits() -> CheckResult:
    pairing = qt.edge_pairing()
    sizes = pairing.unordered_orbit_sizes
    ok = sorted(sizes) == [2, 3]
    note = ("orbit sizes under a cyclic group of order 5 divide 5; the five "
            "chord pairs form a single orbit of size 5, so the expected "
            "sizes {3, 2} are unattainable")
    return _result("09b-pairing-orbits", "edge-pair orbits have sizes {3, 2}",
                   ok, f"measured sizes {sizes}",
                   "exact", note=note)


@_check("quotient_surface")
def check_interior_edge_orbits() -> CheckResult:
    census = qt.triangulate()
    n = len(census.oriented_edge_orbits)
    sizes = sorted(len(o) for o in census.oriented_edge_orbits)
    return _result("09c-interior-edge-orbits",
                   "eight orientation-labeled edge-class orbits of size 5",
                   n == 8 and sizes == [5] * 8,
                   f"{n} orbits, sizes {sizes}", "exact")


@_check("quotient_surface")
def check_cone_angles() -> CheckResult:
    census = qt.triangulate()
    inner = census.cone_angles.get("inner", 0.0)
    outer = census.cone_angles.get("outer", 0.0)
    ok = (abs(inner - 7 * math.pi / 5) < 1e-12 and abs(outer - math.pi / 5) < 1e-12)
    return _result("09d-cone-angles",
                   "cone angles 7pi/5 and pi/5 recorded at the two quotient vertices",
                   ok,
                   f"inner {inner:.12f}, outer {outer:.12f}", "1e-12")


# --------------------------------------------------------------- criterion 10

@_check("affine_tiling")
def check_apothem() -> CheckResult:
    val = tl.apothem()
    res = abs(val - 0.5)
    shift = abs(tl.tau(0)(0) - 1.0)
    return _result("10a-apothem", "apothem is exactly 1/2; |2 u_k| = 1",
                   res < 1e-12 and shift < 1e-12,
                   f"apothem {val!r}, |tau_0(0) - 1| = {shift:.2e}", "1e-12")


@_check("affine_tiling")
def check_commutation() -> CheckResult:
    rng = random.Random(2)
    worst = 0.0
    for k in range(5):
        for ell in range(5):
            for _ in range(4):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                lhs = tl.tau((k + 2 * ell) % 5)(EPSILON ** ell * z)
                rhs = EPSILON ** ell * tl.tau(k)(z)
                worst = max(worst, abs(lhs - rhs))
    return _result("10b-commutation",
                   "tau_{(k+2l) mod 5} after R^l equals R^l after tau_k, all 25 pairs",
                   worst < 1e-12, f"worst residual {worst:.2e}",
                   "1e-12")


@_check("affine_tiling")
def check_coverage() -> CheckResult:
    try:
        rep = tl.coverage_check(samples=500, seed=1, depth=3)
        ok, measured = True, f"{rep['tested']} points covered"
    except tl.CheckFailure as exc:
        ok, measured = False, str(exc)
    return _result("10c-coverage", "depth-3 patch covers the sampled disk off the vertex set",
                   ok, measured, "zero misses")


@_check("affine_tiling")
def check_invariance_freeness() -> CheckResult:
    try:
        rep = tl.invariance_freeness_checks(samples=200, seed=0, word_length=8)
        ok = True
        measured = (f"invariance {rep['invariance_checked']} images, freeness "
                    f"{rep['freeness_samples']} samples, transitivity "
                    f"{rep['transitivity_pairs']} pairs, orbit gap "
                    f"{rep['orbit_min_gap']:.3f}")
    except tl.CheckFailure as exc:
        ok, measured = False, str(exc)
    return _result("10d-invariance-freeness",
                   "vertex-set invariance, freeness on samples, transitive on copies",
                   ok, measured, "zero counterexamples")


@_check("affine_tiling")
def check_fundamental_domain_existence() -> CheckResult:
    try:
        rep = tl.fundamental_domain_check(samples=200, seed=0, word_length=8)
        ok = rep["existence_failures"] == 0 and rep["boundary_pairs_checked"] == 10
        measured = (f"{rep['samples']} samples carried into the star; boundary "
                    f"pairs {rep['boundary_pairs_checked']}/10")
        note = ""
    except tl.CheckFailure as exc:
        ok, measured, note = False, str(exc), ""
    return _result("10e-fundamental-domain-existence",
                   "every sample has a carrier into the closed star; boundary points pair up",
                   ok, measured, "zero failures", note)


@_check("affine_tiling")
def check_fundamental_domain_uniqueness() -> CheckResult:
    rep = tl.fundamental_domain_check(samples=200, seed=0, word_length=8)
    ok = rep["interior_multi"] == 0
    note = ("the translation group contains golden-ratio contractions "
            "(tau_0 tau_1 tau_4 shifts by -1/phi), so the word ball carries "
            "generic points to many distinct interior images; uniqueness "
            "cannot hold at word length >= 3")
    measured = (f"unique {rep['interior_unique']}, multiple "
                f"{rep['interior_multi']}, max multiplicity "
                f"{rep['max_multiplicity']}")
    return _result("10f-fundamental-domain-uniqueness",
                   "interior carriers are unique", ok,
                   measured, "exact", note=note)


#: criterion runtime budgets in seconds, keyed by id prefix
RUNTIME_BUDGETS = {
    "01": 1e-3, "02": 1e-2, "03": 1.0, "04": 5.0, "05": 5.0, "06": 1.0,
    "07": 10.0, "08": 5.0, "09": 0.1, "10": 30.0,
}

#: checks that fail for recorded structural reasons
EXPECTED_FAILURES = {"09b-pairing-orbits", "10f-fundamental-domain-uniqueness"}


def run_verify(module: str | None = None) -> VerifyLedger:
    ledger = VerifyLedger([fn() for fn in CHECKS
                           if module is None or fn.module == module])
    ledger.entries.sort(key=lambda e: e.check_id)
    return ledger


def budget_report(ledger: VerifyLedger) -> dict[str, tuple[float, float, bool]]:
    """Per-criterion (elapsed, budget, within) totals."""
    totals: dict[str, float] = {}
    for e in ledger.entries:
        key = e.check_id[:2]
        totals[key] = totals.get(key, 0.0) + e.runtime_s
    return {k: (v, RUNTIME_BUDGETS.get(k, math.inf), v <= RUNTIME_BUDGETS.get(k, math.inf))
            for k, v in sorted(totals.items())}
