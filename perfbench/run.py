"""Layered benchmark of ``starsurf``: end-to-end metrics, or per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are ``ledger``, ``map-grid`` and ``curve-dynamics`` (see
``perfbench/README.md`` for why each exists and which layer metric should
move which end-to-end metric).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, measured untraced; ``--trace 1`` reports its per-layer
metrics from traced passes, and the tracing overhead.  Every program output
goes through a correctness gate.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every gate held, 1 when a gate tripped (the result is
still printed), 2 when the program cannot be run at all (no result).

The program runs in fresh child processes with one BLAS thread and
``PYTHONPATH=src`` of the current directory, never an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import load_ledger_reference, probe_setup, record_ledger, Recorder  # noqa: E402

WORKLOADS = ("ledger", "map-grid", "curve-dynamics")
#: fewest fresh processes timed per run for setup_s (the median is reported)
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")
#: highest percentile reported as item_tail_ms, if ten items lie beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: the self-test's small sizes; a cheap ledger subset that keeps one red
#: check (09b) and one count-valued check (05)
TINY = {
    "setup_probes": 2,
    "map-grid": {"sizes": [5, 6]},
    "curve-dynamics": {"counts": {"billiard": 2, "map_eval": 2, "monodromy": 2, "flow": 2}},
    "ledger": {"checks": {"check_triangle_identity": "01-triangle",
                          "check_star_collinearity": "02-star-collinearity",
                          "check_monodromy": "05-monodromy",
                          "check_pairing_orbits": "09b-pairing-orbits",
                          "check_apothem": "10a-apothem"}},
}
TINY_LEDGER_CODE = ("import sys\n"
                    "from starsurf import verify\n"
                    "names = sys.argv[2].split(',')\n"
                    "ledger = verify.VerifyLedger([f() for f in verify.CHECKS if f.__name__ in names])\n"
                    "open(sys.argv[1], 'w').write(ledger.to_json())\n")


class CannotRun(RuntimeError):
    """The program is missing or broke outside any gated operation."""


# ------------------------------------------------------------------ children

def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def run_child(cmd, root: Path, capture: bool = False, timeout: float = CHILD_TIMEOUT_S):
    """Run one child to completion: (wall s, exit code, stdout, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if capture else b""
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.stdout:
            proc.stdout.close()
    return time.perf_counter() - t0, proc.returncode, out, usage.ru_maxrss / 1024.0


def measure_setup(root: Path, probes: int) -> list[float]:
    try:
        return [probe_setup(root, child_env(root)) for _ in range(probes)]
    except subprocess.SubprocessError as exc:
        raise CannotRun(f"set-up probe failed: {exc}") from None


def run_worker(root: Path, req: dict) -> tuple[dict, float]:
    wall, code, out, rss = run_child(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(req)], root, capture=True)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        raise CannotRun(f"{req['workload']} worker exited with {code}")
    return json.loads(lines[-1]), rss


def ledger_pass(root: Path, tiny: bool) -> tuple[float, list[dict], float]:
    """One fresh ``starsurf verify --json`` process: (wall s, entries, RSS MB).

    Its exit code is not read: the CLI exits 1 because two checks fail by
    design.  A missing or unreadable ledger leaves every check missing."""
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"ledger-{os.getpid()}.json"
    path.unlink(missing_ok=True)
    if tiny:
        cmd = [sys.executable, "-c", TINY_LEDGER_CODE, str(path),
               ",".join(TINY["ledger"]["checks"])]
    else:
        cmd = [sys.executable, "-m", "starsurf.cli", "verify", "--json", str(path)]
    wall, _code, _out, rss = run_child(cmd, root)
    try:
        entries = json.loads(path.read_text())["entries"]
    except (OSError, ValueError, KeyError):
        entries = []
    path.unlink(missing_ok=True)
    return wall, entries, rss


# ------------------------------------------------------------------- metrics

def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[str, float]:
    """The highest listed percentile with at least ten items beyond it, or
    the maximum when there are too few items for any."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - -(-n * p // 100) >= 10:
            return f"p{p:g}", percentile(values, p)
    return "max", max(values)


def end_to_end(workload: str, setup: list[float], passes: list[float],
               latencies_ms: list[float], rss_mb: float) -> tuple[dict, dict]:
    tail_name, tail_ms = tail(latencies_ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "item_p50_ms": percentile(latencies_ms, 50),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
    }
    notes = {"setup_probes": len(setup), "passes": len(passes),
             "items": len(latencies_ms), "item_tail_is": tail_name,
             "item": {"ledger": "one verify process",
                      "map-grid": "one map_grid_scene call, per grid point",
                      "curve-dynamics": "one API call"}[workload]}
    return metrics, notes


def per_layer(reply: dict, ledger_entries: list[dict], ledger_wall: float | None) -> dict:
    layers = reply["layers"]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # counts come from the first pass (all passes agree, or the run
        # fails); times and ratios are the median over the traced passes
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    metrics["conformal.compute_k.cold_s"] = reply["cold_k_s"]
    runtime = {e["check_id"]: e["runtime_s"] for e in ledger_entries}
    for ref in load_ledger_reference():
        metrics[f"verify.{ref['check_id']}.s"] = runtime.get(ref["check_id"], 0.0)
    if ledger_wall is not None:
        untraced = sum(runtime.values())
        metrics["cli.verify.overhead_s"] = ledger_wall - untraced
    else:
        untraced = statistics.median(reply["pass_s"])
        metrics["cli.verify.overhead_s"] = 0.0
    metrics["trace.overhead_frac"] = statistics.median(reply["traced_pass_s"]) / untraced - 1.0
    return metrics


# ----------------------------------------------------------------- workloads

def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> tuple[dict, dict, dict]:
    """(result object, metrics before units, notes) for one workload."""
    reference = load_ledger_reference()
    if tiny:
        reference = [r for r in reference if r["check_id"] in TINY["ledger"]["checks"].values()]
    notes: dict = {"workload": workload, "seed": seed, "seconds": seconds}
    probes = 0 if trace else TINY["setup_probes"] if tiny else SETUP_PROBES
    req = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "setup_probes": probes}
    if tiny:
        req.update(TINY[workload])
    rec = Recorder()  # operations gated here; the worker gates its own

    if workload == "ledger":
        notes["sizes"] = {"checks": len(reference),
                          "inputs": "the seeds fixed in verify.py; --seed does not reach them"}
        # set-up probes before and after each pass, to sample the whole run
        half = -(-probes // 2)
        walls, rss, entries = [], 0.0, []
        setup = measure_setup(root, half)
        start = time.perf_counter()
        while True:
            wall, entries, pass_rss = ledger_pass(root, tiny)
            walls.append(wall)
            rss = max(rss, pass_rss)
            record_ledger(entries, reference, rec)
            setup += measure_setup(root, half)
            if trace or time.perf_counter() - start + wall > seconds:
                break
        reply = run_worker(root, req)[0] if trace else {"attempted": 0, "errors": []}
        if trace:
            metrics = per_layer(reply, entries, walls[0])
        else:
            metrics, more = end_to_end(workload, setup, walls, [w * 1e3 for w in walls], rss)
            notes.update(more)
    else:
        reply, rss = run_worker(root, req)
        notes["sizes"] = reply["sizes"]
        if trace:
            metrics = per_layer(reply, [], None)
        else:
            metrics, more = end_to_end(workload, reply["setup_s"], reply["pass_s"],
                                       reply["item_ms"], rss)
            notes.update(more)
    if trace:
        notes["spans_file"] = write_spans(root, workload, seed, reply["spans"])
    attempted = rec.attempted + reply["attempted"]
    errors = rec.errors + reply["errors"]
    notes["failed_frac"] = len(errors) / attempted if attempted else 1.0
    notes["errors"] = errors[:5]
    result = {"correct": not errors and attempted > 0,
              "attempted": attempted, "failed": len(errors)}
    return result, metrics, notes


def write_spans(root: Path, workload: str, seed: int, spans) -> str:
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    fields = ("id", "parent", "pass", "name", "start", "end")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in spans]) + "\n")
    return str(path.relative_to(root))


# ---------------------------------------------------------------------- main

def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "starsurf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {name: "1" for name in PINNED_THREADS},
    }


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict, declared: dict[str, str]) -> dict:
    """Attach units; the computed and the declared names must agree."""
    missing, extra = declared.keys() - metrics.keys(), metrics.keys() - declared.keys()
    if missing or extra:
        raise CannotRun(f"metrics not as declared: missing {sorted(missing)}, "
                        f"undeclared {sorted(extra)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "starsurf" / "__init__.py").is_file():
        print(f"error: no src/starsurf under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(root, bool(args.trace))
        env = environment(root)
        print("# env " + json.dumps(env))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, metrics, notes = run_workload(root, name, args.seed, args.seconds,
                                                  bool(args.trace), args.tiny)
            result["metrics"] = with_units(metrics, declared)
            results[name] = result
            print("# run " + json.dumps(notes))
            for metric, m in result["metrics"].items():
                print(f"{name:>14}  {metric:<44} {m['value']:>16.6g} {m['unit']}")
            print(f"{name:>14}  failed_frac {notes['failed_frac']:g} "
                  f"({result['failed']} of {result['attempted']} operations)")
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"# result {name} " + json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}:{metric}": m for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
