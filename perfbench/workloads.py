"""In-process workloads of the benchmark: seeded inputs, passes, gates, tracing.

Run as ``python3 perfbench/workloads.py '<json request>'`` in a fresh
process (``run.py`` does this, with BLAS threads pinned to 1); the last line
of its output is a JSON reply.  The module is also imported by
``selftest.py``, which calls the same functions at tiny sizes.

Workloads (one process, one thread, closed loop: each call starts when the
previous one returned):

- ``map-grid``: ``svgout.map_grid_scene(build_star(), n)`` for a set of
  resolutions picked by the seed from sets of equal point count;
- ``curve-dynamics``: independent monodromy loops, RK4 flows, scattered
  ``F_Q`` evaluations and billiard runs drawn from the seed;
- ``ledger`` (traced passes only; the untraced ledger is a fresh
  ``starsurf verify --json`` process run by ``run.py``).
"""

from __future__ import annotations

import cmath
import json
import math
import random
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

# ---------------------------------------------------------------- constants
# Fixed here, not read from the program, so that a change to the program
# cannot loosen its own gate.

#: map-image tolerance (``conformal.TOL_MAP`` at the commit that added this)
TOL_MAP = 1e-8
#: closed-triangle membership slack for map images
TOL_REGION = 1e-9
#: check 07's flow tolerance
TOL_FLOW = 1e-6
#: check 08's speed and development tolerances
TOL_SPEED = 1e-9
TOL_DEVELOP = 1e-8

A = 2.0 * math.cos(2.0 * math.pi / 5.0)
B = 2.0 * math.cos(math.pi / 5.0)
TRIANGLE = (0j, complex(A, 0.0), B * cmath.exp(1j * math.pi / 5))

#: expected monodromy shift around each finite point; identity at infinity
MONODROMY_SHIFT = {"0": 8, "a": 3, "b": 9, "inf": 0}

#: every 4-subset of 5..17 whose grids hold 1012 points: sum(2 (n^2 - 1)).
#: Equal work per pass, so the seed changes the inputs, not the pass size.
MAP_GRID_SETS = ((5, 8, 14, 15), (6, 7, 13, 16), (6, 8, 11, 17),
                 (7, 11, 12, 14), (8, 9, 13, 14), (8, 10, 11, 15))

#: curve-dynamics items per pass.  No user path fixes a call mix, so each
#: kind gets about the same time, a quarter of a pass: the counts are
#: inversely proportional to the mean item latencies measured when this was
#: written (billiard 2.2 ms, F_Q 4.1 ms, monodromy 14.6 ms, flow 21.5 ms), so
#: a change to any one kind can move ``wall_s`` by up to a quarter.
CURVE_COUNTS = {"billiard": 224, "map_eval": 120, "monodromy": 32, "flow": 22}
FLOW_STEPS = 200
BILLIARD_EVENTS = 100

#: what the traced runs wrap: (module.function, wrapper kind[, result counter])
TRACE_PLAN = (
    ("geometry.point_location", "timed"),
    ("quadrature.panel", "timed"),
    ("conformal.eta_ref", "count"),
    ("conformal.sheet_values", "count"),
    ("billiards.next_event", "count"),
    ("conformal.compute_k", "span"),
    ("conformal.F_T", "span"),
    ("conformal.F_Q", "span"),
    ("covering.monodromy", "span"),
    ("metric.flow", "span"),
    ("metric.delta", "span"),
    ("billiards.simulate", "span", ("billiards.events", lambda t: len(t.events))),
    ("billiards.develop", "span"),
    ("quotient.triangulate", "span"),
    ("tiling.generate_patch", "span"),
    ("tiling.coverage_check", "span"),
    ("tiling.invariance_freeness_checks", "span"),
    ("tiling.fundamental_domain_check", "span"),
    ("svgout.map_grid_scene", "span"),
)


# ------------------------------------------------------------------ helpers

def in_closed_triangle(z: complex, tol: float = TOL_REGION) -> bool:
    for i in range(3):
        p, q = TRIANGLE[i], TRIANGLE[(i + 1) % 3]
        if ((q - p).conjugate() * (z - p)).imag < -tol:
            return False
    return True


def in_closed_kite(z: complex) -> bool:
    return in_closed_triangle(z) or in_closed_triangle(z.conjugate())


def clear_caches():
    """Empty every ``lru_cache`` of the program, also under a tracer wrapper
    (whose ``__wrapped__`` is the cached function)."""
    for name, mod in list(sys.modules.items()):
        if name == "starsurf" or name.startswith("starsurf."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if clear is None:
                    clear = getattr(getattr(value, "__wrapped__", None), "cache_clear", None)
                if callable(clear):
                    clear()


#: what a fresh process does before its first real call: import, the star,
#: k (cold quadrature) and one map evaluation (the Gauss-Jacobi node tables)
SETUP_CODE = ("import starsurf\n"
              "from starsurf.conformal import F_T, compute_k\n"
              "from starsurf.geometry import build_star\n"
              "build_star(); compute_k(); F_T(1 + 1j)\n")


def set_up():
    """``SETUP_CODE`` in this process."""
    from starsurf.conformal import F_T, compute_k
    from starsurf.geometry import build_star
    build_star()
    compute_k()
    F_T(1 + 1j)


def probe_setup(cwd=None, env=None) -> float:
    """Wall time of one fresh process that runs ``SETUP_CODE``: one sample of
    ``setup_s``.  Raises when the process fails."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


def start_pass():
    """Before every pass, traced or not: empty the caches and redo the set-up,
    untimed.  No pass finds an entry that an earlier pass keyed on its
    inputs, so a pass costs what it costs a fresh process after set-up, and
    its operation counts repeat exactly."""
    clear_caches()
    set_up()


# ----------------------------------------------------------------- map-grid

def map_grid_inputs(seed: int) -> list[int]:
    rng = random.Random(seed)
    sizes = list(rng.choice(MAP_GRID_SETS))
    rng.shuffle(sizes)
    return sizes


def load_map_grid_reference() -> dict[int, list[complex]]:
    raw = json.loads((DATA / "map_grid_ref.json").read_text())
    return {int(n): [complex(x, y) for x, y in pts] for n, pts in raw.items()}


def map_grid_images(scene) -> list[complex]:
    """Full-precision images of a grid scene, in drawing order.  The scene's
    text keeps 6 decimals only; its tracked coordinates keep every digit.
    The first three points are the triangle outline."""
    return [complex(x, y) for x, y in zip(scene._xs, scene._ys)][3:]


def map_grid_gate(n: int, images: list[complex], reference) -> str | None:
    """None when the images of grid ``n`` are right, else the reason."""
    ref = reference[n]
    if len(images) != len(ref) or len(images) != 2 * (n * n - 1):
        return f"n={n}: {len(images)} images, expected {len(ref)}"
    for z, r in zip(images, ref):
        if not in_closed_triangle(z):
            return f"n={n}: image {z} outside the closed triangle"
        if abs(z - r) > TOL_MAP:
            return f"n={n}: image {z} is {abs(z - r):.2e} from reference {r}"
    return None


def map_grid_pass(sizes, reference, record):
    """One ``map_grid_scene`` call per resolution; its latency is recorded
    per grid point, the call's time over its 2 (n^2 - 1) points."""
    from starsurf import svgout
    from starsurf.geometry import build_star
    for n in sizes:
        t0 = time.perf_counter()
        try:
            scene = svgout.map_grid_scene(build_star(), n)
            elapsed = time.perf_counter() - t0
            error = map_grid_gate(n, map_grid_images(scene), reference)
        except Exception as exc:  # an operation that raised counts as failed
            elapsed, error = time.perf_counter() - t0, f"n={n}: {exc!r}"
        record(elapsed / (2 * (n * n - 1)), error)


# ----------------------------------------------------------- curve-dynamics

def curve_inputs(seed: int, counts=None) -> list[tuple]:
    """Seeded, independent items: (kind, parameters...)."""
    counts = counts or CURVE_COUNTS
    rng = random.Random(seed)
    items = []
    for i in range(counts["monodromy"]):
        around = ("0", "a", "b", "inf")[i % 4]
        radius = rng.uniform(0.1, 0.3) if around == "inf" else rng.uniform(0.03, 0.2)
        items.append(("monodromy", around, radius))
    for i in range(counts["flow"]):
        # |F(xi) - kite boundary| > 0.11 on this box (and its mirror image),
        # so a flow for t < 0.09 in any direction stays in the kite
        xi = complex(rng.uniform(0.4, 1.1), rng.uniform(0.6, 1.0))
        if i % 2:
            xi = xi.conjugate()
        items.append(("flow", xi, rng.randrange(10),
                      cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
                      rng.uniform(0.03, 0.09)))
    for _ in range(counts["map_eval"]):
        while True:
            xi = complex(rng.uniform(-1.0, 2.6), rng.uniform(-1.5, 1.5))
            if min(abs(xi), abs(xi - A), abs(xi - B)) > 0.05:
                break
        items.append(("map_eval", xi))
    for _ in range(counts["billiard"]):
        # the disc |z| < a lies inside the star, so every start is interior
        z0 = rng.uniform(0.05, 0.55) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        items.append(("billiard", z0, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
                      BILLIARD_EVENTS))
    rng.shuffle(items)
    return items


def curve_output(item):
    """Run one item through the public APIs; return what its gate reads."""
    from starsurf import billiards, conformal, covering, metric
    kind = item[0]
    if kind == "monodromy":
        _, around, radius = item
        return covering.monodromy(around, radius=radius).images
    if kind == "flow":
        _, xi, sheet, direction, t = item
        p0 = conformal.SheetedPoint(xi, sheet)
        z0 = metric.delta(p0)
        p1 = metric.flow(p0, t, steps=FLOW_STEPS, direction=direction)
        return z0, metric.delta(p1)
    if kind == "map_eval":
        return conformal.F_Q(item[1])
    _, z0, direction, events = item
    traj = billiards.simulate(z0, direction, events)
    _pieces, residual = billiards.develop(traj)
    speed = max(abs((s.t_end - s.t_start) - abs(s.end - s.start)) for s in traj.segments)
    return len(traj.events), speed, residual


def curve_gate(item, output) -> str | None:
    """None when the item's output is right, else the reason."""
    kind = item[0]
    if kind == "monodromy":
        shift = MONODROMY_SHIFT[item[1]]
        if tuple(output) != tuple((k + shift) % 10 for k in range(10)):
            return f"monodromy around {item[1]} (r={item[2]:.4f}) gave {output}, expected +{shift}"
        return None
    if kind == "flow":
        _, xi, sheet, direction, t = item
        # developed velocity: e^{i pi k/5} * direction, with the Schwarz-
        # reflected chart adding e^{-2 pi i/5} below the real axis
        velocity = direction * cmath.exp(1j * math.pi * sheet / 5)
        if xi.imag < 0:
            velocity *= cmath.exp(-2j * math.pi / 5)
        z0, z1 = output
        residual = abs(z1 - z0 - t * velocity)
        if not residual < TOL_FLOW:
            return f"flow from {xi} sheet {sheet}: straightening residual {residual:.2e}"
        return None
    if kind == "map_eval":
        if not in_closed_kite(output):
            return f"F_Q({item[1]}) = {output} is outside the closed kite"
        return None
    events, speed, residual = output
    if events != item[3] or not speed < TOL_SPEED or not residual < TOL_DEVELOP:
        return (f"billiard from {item[1]}: {events} events, speed residual "
                f"{speed:.2e}, development residual {residual:.2e}")
    return None


def curve_pass(items, record):
    for item in items:
        t0 = time.perf_counter()
        try:
            output = curve_output(item)
            elapsed = time.perf_counter() - t0
            error = curve_gate(item, output)
        except Exception as exc:  # an operation that raised counts as failed
            elapsed, error = time.perf_counter() - t0, f"{item[0]}: {exc!r}"
        record(elapsed, error)


# ------------------------------------------------------------------- ledger

#: the two checks that fail by design; every other check must pass
LEDGER_RED = frozenset({"09b-pairing-orbits", "10f-fundamental-domain-uniqueness"})
#: checks whose ``measured`` string is a count and must not change
LEDGER_COUNTED = ("05", "06", "09a", "09c", "10c", "10d", "10e", "10f")


def load_ledger_reference() -> list[dict]:
    return json.loads((DATA / "ledger_ref.json").read_text())["entries"]


def ledger_gate(entries: list[dict], reference: list[dict]) -> dict[str, str]:
    """Failed check ids with reasons; empty when the ledger is as expected.

    Pass or fail comes from each entry, not from the exit code (the CLI
    exits 1 because 09b and 10f fail by design)."""
    got = {e["check_id"]: e for e in entries}
    failures = {}
    for ref in reference:
        cid = ref["check_id"]
        entry = got.get(cid)
        if entry is None:
            failures[cid] = "missing from the ledger"
        elif entry["passed"] != (cid not in LEDGER_RED):
            failures[cid] = f"passed is {entry['passed']}"
        elif cid.split("-")[0] in LEDGER_COUNTED and entry["measured"] != ref["measured"]:
            failures[cid] = f"measured {entry['measured']!r}, expected {ref['measured']!r}"
    for cid in got.keys() - {r["check_id"] for r in reference}:
        failures[cid] = "unexpected check"
    return failures


def record_ledger(entries: list[dict], reference: list[dict], record):
    """One operation per expected check, failed when its gate trips."""
    failures = ledger_gate(entries, reference)
    runtime = {e["check_id"]: e["runtime_s"] for e in entries}
    for cid in [r["check_id"] for r in reference] + sorted(failures.keys() - runtime.keys()):
        why = failures.get(cid)
        record(runtime.get(cid, 0.0), why and f"{cid}: {why}")


def ledger_traced_pass(tracer, checks) -> list[dict]:
    """Run the registry's checks in order, one span each (the untraced ledger
    is the CLI; here the benchmark calls each check function itself).  A
    check that raises is reported on stderr and missing from the entries,
    which fails its gate."""
    entries = []
    for fn in checks:
        try:
            entries.append(asdict(tracer.call(f"verify.{fn.__name__}", fn)))
        except Exception:
            traceback.print_exc()
    return entries


# ----------------------------------------------------------- layer metrics

def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from a ``Tracer.snapshot``."""
    calls, self_s = snap["calls"], snap["self_s"]
    child, results = snap["child_calls"], snap["results"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    panel_calls = c("quadrature.panel")
    panel_top = panel_calls - child.get("quadrature.panel>quadrature.panel", 0)
    points = c("conformal.F_T")
    out = {
        "geometry.point_location.calls": c("geometry.point_location"),
        "geometry.point_location.self_s": s("geometry.point_location"),
        "tiling.fundamental_domain_check.self_s": s("tiling.fundamental_domain_check"),
        "tiling.fundamental_domain_check.candidates":
            child.get("tiling.fundamental_domain_check>geometry.point_location", 0),
        "tiling.generate_patch.self_s": s("tiling.generate_patch"),
        "tiling.coverage_check.self_s": s("tiling.coverage_check"),
        "tiling.invariance_freeness_checks.self_s": s("tiling.invariance_freeness_checks"),
        "quadrature.panel.calls": panel_calls,
        "quadrature.panel.self_s": s("quadrature.panel"),
        "quadrature.panel.bisect_ratio": panel_calls / panel_top if panel_top else 0.0,
        "quadrature.panel.calls_per_point": panel_calls / points if points else 0.0,
        "conformal.F_T.calls": points,
        "conformal.F_T.self_s": s("conformal.F_T"),
        "conformal.eta_ref.calls": c("conformal.eta_ref"),
        "conformal.eta_ref.calls_per_point": c("conformal.eta_ref") / points if points else 0.0,
        "conformal.sheet_values.calls": c("conformal.sheet_values"),
        "covering.monodromy.calls": c("covering.monodromy"),
        "covering.monodromy.self_s": s("covering.monodromy"),
        "metric.flow.calls": c("metric.flow"),
        "metric.flow.self_s": s("metric.flow"),
        "metric.delta.self_s": s("metric.delta"),
        "billiards.simulate.self_s": s("billiards.simulate"),
        "billiards.next_event.calls": c("billiards.next_event"),
        "billiards.events": results.get("billiards.events", 0),
        "billiards.develop.self_s": s("billiards.develop"),
        "quotient.triangulate.self_s": s("quotient.triangulate"),
        "svgout.map_grid_scene.self_s": s("svgout.map_grid_scene"),
    }
    return out


def count_signature(snap: dict) -> dict:
    """The operation counts of a pass, which must repeat exactly."""
    return {"calls": snap["calls"], "child_calls": snap["child_calls"],
            "results": snap["results"]}


# -------------------------------------------------------------------- runner

class Recorder:
    """Gate outcomes and latencies of the operations of a run."""

    def __init__(self):
        self.item_ms: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []

    def __call__(self, elapsed_s: float, error: str | None):
        self.attempted += 1
        self.item_ms.append(1e3 * elapsed_s)
        if error is not None:
            self.errors.append(error)


def run_request(req: dict) -> dict:
    """Run passes as asked and return timings, gate outcomes and traces."""
    workload, seed = req["workload"], req["seed"]
    seconds, trace = req["seconds"], req["trace"]
    from starsurf.conformal import compute_k
    t0 = time.perf_counter()
    compute_k()
    cold_k_s = time.perf_counter() - t0
    set_up()

    rec = Recorder()
    reply = {"cold_k_s": cold_k_s}
    if workload == "map-grid":
        sizes = req.get("sizes") or map_grid_inputs(seed)
        reference = load_map_grid_reference()
        reply["sizes"] = {"resolutions": sizes, "points": sum(2 * (n * n - 1) for n in sizes)}
        run_pass = lambda r: map_grid_pass(sizes, reference, r)  # noqa: E731
    elif workload == "curve-dynamics":
        items = curve_inputs(seed, req.get("counts"))
        kinds = {k: sum(1 for i in items if i[0] == k) for k in CURVE_COUNTS}
        reply["sizes"] = {"items": len(items), **kinds, "flow_steps": FLOW_STEPS,
                          "billiard_events": BILLIARD_EVENTS}
        # warm-up: one item of each kind, untimed and uncounted
        for kind in CURVE_COUNTS:
            curve_output(next(i for i in items if i[0] == kind))
        run_pass = lambda r: curve_pass(items, r)  # noqa: E731
    elif workload == "ledger":
        from starsurf import verify
        subset = req.get("checks")  # {function name: check id}, self-test only
        checks = [fn for fn in verify.CHECKS if not subset or fn.__name__ in subset]
        reference = [r for r in load_ledger_reference()
                     if not subset or r["check_id"] in subset.values()]
        run_pass = None
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # untraced passes: all of the time budget, or half of it when traced;
    # set-up probes go between passes, so that they sample the whole run
    pass_s, setup_s = [], []
    probes = req.get("setup_probes", 0)
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    while run_pass is not None:
        start_pass()
        t = time.perf_counter()
        run_pass(rec)
        pass_s.append(time.perf_counter() - t)
        if probes:
            setup_s.append(probe_setup())
        elapsed = time.perf_counter() - start
        if elapsed + pass_s[-1] > budget and len(pass_s) >= (2 if trace else 1):
            break
    while len(setup_s) < probes:
        setup_s.append(probe_setup())
    reply["pass_s"] = pass_s
    reply["setup_s"] = setup_s
    reply["item_ms"] = list(rec.item_ms)

    if trace:
        tracer = Tracer()
        tracer.install(TRACE_PLAN)
        traced_s, layers, signatures = [], [], []
        try:
            for _ in range(2):
                start_pass()  # no pass is open, so this is not traced
                tracer.reset_counters()
                tracer.begin_pass(workload)
                if workload == "ledger":
                    record_ledger(ledger_traced_pass(tracer, checks), reference, rec)
                else:
                    run_pass(rec)
                traced_s.append(tracer.end_pass())
                snap = tracer.snapshot()
                layers.append(layer_metrics(snap))
                signatures.append(count_signature(snap))
        finally:
            tracer.uninstall()
        reply["traced_pass_s"] = traced_s
        reply["layers"] = layers
        reply["counts_repeat"] = all(sig == signatures[0] for sig in signatures)
        reply["spans"] = tracer.spans
        if not reply["counts_repeat"]:
            rec.attempted += 1
            rec.errors.append("operation counts differ between identical traced passes")
    reply["attempted"] = rec.attempted
    reply["errors"] = rec.errors
    return reply


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    reply = run_request(req)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
