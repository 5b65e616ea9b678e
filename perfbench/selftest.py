"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

run from the repository root; exits 0 when all of these hold:

1. every metric named in ``BENCHMARK.json`` is emitted, with its unit, by
   each workload in both modes, and the result object has the contract's keys;
2. every correctness gate trips on a corrupted output, and passes the
   program's real output;
3. traced passes give spans that nest: each has a name, start, end and a
   parent inside which it lies, and the spans of a pass share its id; and
   the operation counts of two identical passes agree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, check_spans  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


# ------------------------------------------------------------ 1. emission

def test_emission():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{what} exits 0 with a result (exit {proc.returncode}, "
                              f"stderr {proc.stderr.strip()[-300:]!r})")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the contract's keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct, {result['attempted']} attempted, none failed")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == declared, f"{what}: every declared metric emitted with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values),
                   f"{what}: every value is a number")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{what}: no end-to-end metric is 0")


# --------------------------------------------------------------- 2. gates

def test_map_grid_gate():
    reference = wl.load_map_grid_reference()
    good = list(reference[5])
    expect(wl.map_grid_gate(5, good, reference) is None, "map-grid gate passes the reference")
    moved = good[:]
    moved[7] += 1e-7
    expect(wl.map_grid_gate(5, moved, reference) is not None, "map-grid gate trips on a 1e-7 shift")
    outside = good[:]
    outside[3] = -0.25 + 0.1j
    expect(wl.map_grid_gate(5, outside, reference) is not None,
           "map-grid gate trips on an image outside the triangle")
    expect(wl.map_grid_gate(5, good[:-1], reference) is not None,
           "map-grid gate trips on a missing image")


def test_curve_gates():
    items = wl.curve_inputs(11, {"billiard": 1, "map_eval": 1, "monodromy": 4, "flow": 1})
    by_kind: dict[str, list] = {}
    for item in items:
        by_kind.setdefault(item[0], []).append(item)
    for item in items:
        expect(wl.curve_gate(item, wl.curve_output(item)) is None,
               f"{item[0]} gate passes the program's output ({item[1]!r})")

    for mono in by_kind["monodromy"]:
        wrong = tuple((k + 1) % 10 for k in range(10))
        expect(wl.curve_gate(mono, wrong) is not None,
               f"monodromy gate trips on a +1 shift around {mono[1]}")
    flow = by_kind["flow"][0]
    z0, z1 = wl.curve_output(flow)
    expect(wl.curve_gate(flow, (z0, z1 + 1e-5)) is not None,
           "flow gate trips on a 1e-5 straightening residual")
    expect(wl.curve_gate(by_kind["map_eval"][0], 2.0 + 0.0j) is not None,
           "F_Q gate trips on an image outside the kite")
    bill = by_kind["billiard"][0]
    events, speed, residual = wl.curve_output(bill)
    expect(wl.curve_gate(bill, (events, 1e-6, residual)) is not None,
           "billiard gate trips on a speed residual")
    expect(wl.curve_gate(bill, (events, speed, 1e-6)) is not None,
           "billiard gate trips on a development residual")
    expect(wl.curve_gate(bill, (events - 1, speed, residual)) is not None,
           "billiard gate trips on a short trajectory")


def test_ledger_gate():
    reference = wl.load_ledger_reference()
    expect(wl.ledger_gate(reference, reference) == {}, "ledger gate passes the reference")

    def corrupt(cid, **changes):
        return [dict(e, **changes) if e["check_id"] == cid else e for e in reference]

    expect("09b-pairing-orbits" in wl.ledger_gate(corrupt("09b-pairing-orbits", passed=True),
                                                  reference),
           "ledger gate trips when a by-design failure passes")
    expect("10c-coverage" in wl.ledger_gate(corrupt("10c-coverage", passed=False), reference),
           "ledger gate trips when a green check fails")
    expect("10f-fundamental-domain-uniqueness" in wl.ledger_gate(
        corrupt("10f-fundamental-domain-uniqueness",
                measured="unique 0, multiple 151, max multiplicity 864"), reference),
        "ledger gate trips on a changed count")
    expect(wl.ledger_gate(corrupt("07-isometry-straightening",
                                  measured="norm residual 1e-17"), reference) == {},
           "ledger gate ignores residual strings, which are not counts")
    expect("10e-fundamental-domain-existence" in wl.ledger_gate(reference[:-2] + reference[-1:],
                                                                reference),
           "ledger gate trips on a missing check")
    extra = reference + [dict(reference[0], check_id="11-new")]
    expect("11-new" in wl.ledger_gate(extra, reference), "ledger gate trips on an unknown check")


def test_gate_through_a_run():
    """A wrong program output reaches the run's failure count."""
    from starsurf import conformal
    original = conformal.F_T
    conformal.F_T = lambda xi, rule=conformal.DEFAULT_RULE: original(xi, rule) + 1e-6
    try:
        reply = wl.run_request({"workload": "map-grid", "seed": 1, "seconds": 0.1, "trace": 0,
                                "sizes": [5]})
    finally:
        conformal.F_T = original
    expect(reply["attempted"] == 1 and len(reply["errors"]) == 1,
           "a shifted map fails the map-grid run")


# --------------------------------------------------------------- 3. spans

def test_spans():
    for workload in run.WORKLOADS:
        req = {"workload": workload, "seed": 5, "seconds": 0.1, "trace": 1,
               **run.TINY[workload]}
        reply = wl.run_request(req)
        spans = reply["spans"]
        roots = [s for s in spans if s[1] == 0]
        expect(len(roots) == 2 and {s[2] for s in roots} == {1, 2},
               f"{workload}: one root span per traced pass")
        expect(len(spans) > len(roots), f"{workload}: layer spans recorded")
        expect(check_spans(spans) == [], f"{workload}: spans nest inside their parents")
        root_of_pass = {s[2]: s for s in roots}
        expect(all(root_of_pass[s[2]][4] <= s[4] and s[5] <= root_of_pass[s[2]][5]
                   for s in spans),
               f"{workload}: every span lies inside its pass")
        expect(reply["counts_repeat"] and not reply["errors"],
               f"{workload}: operation counts repeat exactly across passes")
    from starsurf import conformal, geometry, tiling
    expect(tiling.point_location is geometry.point_location
           and "traced" not in conformal.F_T.__qualname__,
           "tracing is uninstalled after a run")

    broken = [(1, 0, 1, "pass", 0.0, 10.0), (2, 1, 1, "a", 1.0, 11.0),
              (3, 1, 2, "b", 2.0, 3.0), (4, 9, 1, "c", 2.0, 3.0), (5, 1, 1, "", 4.0, 3.0)]
    problems = check_spans(broken)
    expect(len(problems) == 4, "span check finds each broken span")


def test_tracer_counts():
    tracer = Tracer()
    tracer.install([("quadrature.panel", "timed"), ("conformal.compute_k", "span")])
    try:
        wl.clear_caches()
        tracer.begin_pass("k")
        from starsurf import conformal
        conformal.compute_k()
        tracer.end_pass()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    top = snap["child_calls"].get("conformal.compute_k>quadrature.panel", 0)
    expect(top == 2 and snap["calls"]["quadrature.panel"] >= top,
           "panel calls are split into top-level and bisection calls")


def test_clear_caches():
    """Caches are emptied whether or not a tracer wraps the cached function."""
    from starsurf import conformal, geometry, quadrature
    wl.set_up()
    tracer = Tracer()
    tracer.install([("conformal.compute_k", "span")])
    try:
        wl.clear_caches()
        cached = (geometry.build_star, quadrature._jacobi_nodes, conformal.compute_k.__wrapped__)
        sizes = [fn.cache_info().currsize for fn in cached]
    finally:
        tracer.uninstall()
    expect(sizes == [0, 0, 0], f"every cache is emptied, traced or not (sizes {sizes})")


def main() -> int:
    for test in (test_map_grid_gate, test_curve_gates, test_ledger_gate,
                 test_gate_through_a_run, test_clear_caches, test_tracer_counts, test_spans,
                 test_emission):
        test()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
