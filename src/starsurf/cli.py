"""Command-line interface.

Subcommands: star, map, genus, flow, billiard, tiling, quotient, verify.
All emit JSON to stdout or --json PATH; figures via --svg PATH.  Exit
codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import billiards as bl
from . import covering as cov
from . import metric as mt
from . import quotient as qt
from . import tiling as tl
from . import svgout
from .config import UsageError, load_settings
from .conformal import SHEET_COUNT, F_T, SheetedPoint, compute_k, eta
from .geometry import build_star
from .verify import budget_report, run_verify


def _cpx(value: str) -> complex:
    re, im = (float(s) for s in value.split(","))
    return complex(re, im)


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _c2l(z: complex) -> list[float]:
    return [z.real, z.imag]


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_star(args) -> int:
    star = build_star()
    payload = {
        "center": _c2l(star.center),
        "vertices": [_c2l(v) for v in star.vertices],
        "edges": [list(e) for e in star.edges],
        "lines": [{"foot": _c2l(l.foot), "direction": _c2l(l.direction),
                   "edges": list(l.edge_ids)} for l in star.edge_lines],
        "apothem": tl.apothem(star),
    }
    _emit(payload, args)
    if args.svg:
        svgout.star_scene(star).write(args.svg)
    return 0


def cmd_map(args) -> int:
    load_settings(args.config)  # a bad config file is a usage error
    if args.action == "eval":
        xi = args.xi
        payload = {
            "xi": _c2l(xi),
            "k": compute_k(),
            "F_T": _c2l(F_T(xi)) if xi.imag >= 0 else None,
            "eta": _c2l(eta(xi, args.sheet)),
            "sheet": args.sheet,
        }
        _emit(payload, args)
    else:  # grid
        if not args.svg:
            print("map grid requires --svg", file=sys.stderr)
            return 2
        svgout.map_grid_scene(build_star(), args.n).write(args.svg)
        _emit({"svg": args.svg, "n": args.n}, args)
    return 0


def cmd_genus(args) -> int:
    reports = cov.ramification_report()
    r = cov.total_ramification(reports)
    g_rh = cov.genus_riemann_hurwitz(reports)
    chi, g_tri, meta = qt.quotient_euler_genus()
    payload = {
        "branch_points": [{
            "point": rep.point,
            "local_degree": rep.local_degree,
            "cycle_type": list(rep.cycle_type),
            "ramification_index": rep.ramification_index,
        } for rep in reports],
        "total_r": r,
        "genus_rh": g_rh,
        "chi": chi,
        "genus_triangulation": g_tri,
        "match": g_rh == g_tri,
        "census_metadata": {
            "unordered_pair_orbit_sizes": list(meta["unordered_pair_orbit_sizes"]),
            "ordered_pair_orbit_sizes": list(meta["ordered_pair_orbit_sizes"]),
            "pointset_with_center": meta["pointset_with_center"],
            "pointset_without_center": meta["pointset_without_center"],
        },
    }
    _emit(payload, args)
    return 0 if payload["match"] else 1


def cmd_flow(args) -> int:
    load_settings(args.config)  # a bad config file is a usage error
    p = SheetedPoint(args.xi, args.sheet)
    direction = cmath.exp(1j * args.theta)
    n = args.samples
    samples = []
    try:
        # march from each sample to the next rather than re-integrating from p0
        for i in range(n + 1):
            if i:
                p = mt.flow(p, args.t / n, steps=math.ceil(args.steps / n),
                            direction=direction)
            samples.append({
                "t": args.t * i / n,
                "xi": _c2l(p.xi),
                "sheet": p.sheet,
                "delta": _c2l(mt.delta(p)),
            })
        status = 0
    except mt.LeftDomain as exc:
        samples.append({"error": str(exc)})
        status = 1
    _emit({"theta": args.theta, "samples": samples}, args)
    return status


def cmd_billiard(args) -> int:
    star = build_star()
    traj = bl.simulate(args.z0, cmath.exp(1j * args.theta), args.events, star)
    payload = {
        "segments": [{
            "start": _c2l(s.start), "end": _c2l(s.end),
            "t_start": s.t_start, "t_end": s.t_end,
        } for s in traj.segments],
        "events": [{
            "kind": ev.kind, "position": _c2l(ev.position), "time": ev.time,
            "edge": ev.edge, "vertex": ev.vertex,
        } for ev in traj.events],
    }
    if args.lift:
        lifted = bl.lift_trajectory(traj, star)
        _pieces, residual = bl.develop(traj, star)
        payload["lift"] = {
            "tags": [{"pairing_m": ev.pairing_m, "sector": ev.sector,
                      "kind": ev.kind} for ev in lifted.events],
            "development_residual": residual,
        }
    _emit(payload, args)
    if args.svg:
        svgout.trajectory_scene(star, traj).write(args.svg)
    return 0


def cmd_tiling(args) -> int:
    star = build_star()
    patch = tl.generate_patch(args.depth)
    payload = {
        "depth": args.depth,
        "centers": [_c2l(c) for c in patch.centers],
        "vpoints": len(patch.vpoints),
    }
    status = 0
    if args.check:
        settings = load_settings(args.config)
        try:
            payload["coverage"] = tl.coverage_check(depth=args.depth,
                                                    seed=settings.seed + 1)
            payload["invariance_freeness"] = tl.invariance_freeness_checks(
                seed=settings.seed, depth=min(args.depth, 3))
            payload["fundamental_domain"] = tl.fundamental_domain_check(
                seed=settings.seed, depth=min(args.depth, 3))
        except tl.CheckFailure as exc:
            payload["check_failure"] = str(exc)
            status = 1
    _emit(payload, args)
    if args.svg:
        svgout.patch_scene(star, patch).write(args.svg)
    return status


def cmd_quotient(args) -> int:
    census = qt.triangulate()
    chi, genus, meta = qt.quotient_euler_genus(census)
    payload = {
        "faces": len(census.faces),
        "edges": len(census.edges),
        "vertices": len(census.vertices),
        "face_orbits": [list(o) for o in census.face_orbits],
        "vertex_orbits": [list(o) for o in census.vertex_orbits],
        "edge_orbits": [list(o) for o in census.edge_orbits],
        "oriented_edge_orbit_count": len(census.oriented_edge_orbits),
        "pairs": [list(p) for p in census.pairing.pairs],
        "pair_reflections": list(census.pairing.reflection_of_pair),
        "unordered_pair_orbit_sizes": list(census.pairing.unordered_orbit_sizes),
        "cone_angles": census.cone_angles,
        "chi": chi,
        "genus": genus,
        "metadata": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in meta.items()},
    }
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    ledger = run_verify(module=args.module)
    for e in ledger.entries:
        flag = "PASS" if e.passed else "FAIL"
        print(f"{flag}  {e.check_id:<36} {e.runtime_s:8.3f}s  {e.measured}")
        if e.note and not e.passed:
            print(f"      note: {e.note}")
    budgets = budget_report(ledger)
    slow = [k for k, (v, b, ok) in budgets.items() if not ok]
    if slow:
        print(f"over runtime budget: {slow}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(ledger.to_json() + "\n")
    return 0 if ledger.all_passed and not slow else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsurf",
        description="Stellated-pentagon geometry, its ten-sheeted curve, "
                    "billiards, and the affine tiling model.")
    parser.add_argument("--config", help="key=value settings file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="emit the star geometry")
    p.add_argument("--svg")
    p.add_argument("--json")
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("map", help="evaluate or plot the triangle map")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("eval")
    pe.add_argument("--xi", type=_cpx, required=True, help="RE,IM")
    pe.add_argument("--sheet", type=int, default=0, choices=range(SHEET_COUNT))
    pe.add_argument("--json")
    pe.set_defaults(func=cmd_map, action="eval")
    pg = psub.add_parser("grid")
    pg.add_argument("--n", type=_positive_int, default=12)
    pg.add_argument("--svg", required=True)
    pg.add_argument("--json")
    pg.set_defaults(func=cmd_map, action="grid")

    p = sub.add_parser("genus", help="branch reports and the genus, two ways")
    p.add_argument("--json")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("flow", help="integrate the straightened field")
    p.add_argument("--xi", type=_cpx, required=True, help="RE,IM")
    p.add_argument("--sheet", type=int, default=0, choices=range(SHEET_COUNT))
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=_positive_int, default=256)
    p.add_argument("--samples", type=_positive_int, default=8)
    p.add_argument("--json")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("billiard", help="run a billiard trajectory")
    p.add_argument("--z0", type=_cpx, required=True, help="RE,IM")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--events", type=_positive_int, default=16)
    p.add_argument("--svg")
    p.add_argument("--lift", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_billiard)

    p = sub.add_parser("tiling", help="generate a patch of star copies")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--svg")
    p.add_argument("--check", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_tiling)

    p = sub.add_parser("quotient", help="triangulation census and quotient cells")
    p.add_argument("--json")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="run every acceptance check")
    p.add_argument("--module", help="filter by module name")
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
