import functools
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import starsurf
from starsurf import metric, verify
from starsurf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_star_json_and_svg(tmp_path, capsys):
    svg = tmp_path / "star.svg"
    code, out = run(capsys, "star", "--svg", str(svg))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 10
    assert len(payload["lines"]) == 5
    assert abs(payload["apothem"] - 0.5) < 1e-12
    assert svg.read_text().startswith("<svg")


def test_star_json_file(tmp_path, capsys):
    target = tmp_path / "star.json"
    code, _ = run(capsys, "star", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["edges"]) == 10


def test_map_eval(capsys):
    code, out = run(capsys, "map", "eval", "--xi", "0.3,0.4", "--sheet", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["sheet"] == 1
    assert payload["k"] > 0
    assert payload["F_T"] is not None


def test_map_grid_svg(tmp_path, capsys):
    svg = tmp_path / "grid.svg"
    code, _ = run(capsys, "map", "grid", "--n", "6", "--svg", str(svg))
    assert code == 0
    assert "<polyline" in svg.read_text()


def test_genus_subcommand(capsys):
    code, out = run(capsys, "genus")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_r"] == 26
    assert payload["genus_rh"] == 4
    assert payload["genus_triangulation"] == 4
    assert payload["match"] is True
    assert payload["chi"] == -6
    _assert_double_census(payload["census_metadata"])


def _assert_double_census(meta):
    # the curve as two copies of the star glued across by the T_m
    assert set(meta) == {"unordered_pair_orbit_sizes", "ordered_pair_orbit_sizes",
                         "V", "E", "F", "vertex_class_sizes", "cone_angle_sums"}
    assert (meta["V"], meta["E"], meta["F"]) == (4, 30, 20)
    assert meta["vertex_class_sizes"] == [10, 10, 1, 1]
    assert meta["cone_angle_sums"] == pytest.approx(
        [14 * math.pi, 2 * math.pi, 2 * math.pi, 2 * math.pi], abs=1e-12)


def test_flow_subcommand(capsys):
    code, out = run(capsys, "flow", "--xi", "1.1,0.9", "--sheet", "0",
                    "--t", "0.1", "--samples", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 5
    first, last = payload["samples"][0], payload["samples"][-1]
    advance = complex(*last["delta"]) - complex(*first["delta"])
    assert abs(advance - 0.1) < 1e-5


def test_flow_marches_from_sample_to_sample(capsys, monkeypatch):
    calls = []
    flow = metric.flow

    def spy(p0, t, **kwargs):
        calls.append((p0, t, kwargs))
        return flow(p0, t, **kwargs)

    monkeypatch.setattr(metric, "flow", spy)
    code, out = run(capsys, "flow", "--xi", "1.1,0.9", "--t", "0.1", "--samples", "4")
    assert code == 0
    samples = json.loads(out)["samples"]
    advance = complex(*samples[-1]["delta"]) - complex(*samples[0]["delta"])
    assert abs(advance - 0.1) < 1e-5
    # one flow per sample step, each from the previous sample, with no step
    # count: the flow is exact to rounding
    assert len(calls) == 4
    assert all(abs(t - 0.025) < 1e-15 for _p, t, _kw in calls)
    assert all(set(kw) == {"direction"} for _p, _t, kw in calls)
    for (p, _t, _kw), prev in zip(calls, samples):
        assert [p.xi.real, p.xi.imag] == prev["xi"] and p.sheet == prev["sheet"]


def test_billiard_subcommand(tmp_path, capsys):
    svg = tmp_path / "traj.svg"
    code, out = run(capsys, "billiard", "--z0", "0.05,0.13", "--theta", "0.53",
                    "--events", "6", "--lift", "--svg", str(svg))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["segments"]) == 6
    assert payload["lift"]["development_residual"] < 1e-8
    assert svg.exists()


def test_tiling_subcommand(tmp_path, capsys):
    svg = tmp_path / "patch.svg"
    code, out = run(capsys, "tiling", "--depth", "1", "--svg", str(svg))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["centers"]) == 11
    assert svg.exists()


def test_tiling_check_reports_a_positive_freeness_margin(tmp_path, capsys):
    out = tmp_path / "tiling.json"
    code, _ = run(capsys, "tiling", "--depth", "1", "--check", "--json", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert "check_failure" not in payload
    assert payload["invariance_freeness"]["freeness_margin"] > 0


def test_quotient_subcommand(capsys):
    code, out = run(capsys, "quotient")
    assert code == 0
    payload = json.loads(out)
    assert (payload["faces"], payload["edges"], payload["vertices"]) == (10, 20, 10)
    assert payload["chi"] == -6 and payload["genus"] == 4
    assert payload["unordered_pair_orbit_sizes"] == [5]
    _assert_double_census(payload["metadata"])


def test_quotient_has_no_dump_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "--dump"])
    assert exc.value.code == 2


def test_verify_module_filter(tmp_path, capsys, monkeypatch):
    called = []

    def spy(fn):
        def run():
            called.append(fn.__name__)
            return fn()
        return functools.update_wrapper(run, fn)

    monkeypatch.setattr(verify, "CHECKS", [spy(fn) for fn in verify.CHECKS])
    target = tmp_path / "ledger.json"
    code, out = run(capsys, "verify", "--module", "covering_surface",
                    "--json", str(target))
    assert code == 0
    ledger = json.loads(target.read_text())
    assert ledger["all_passed"] is True
    ids = [e["check_id"] for e in ledger["entries"]]
    assert "06-genus-twice" in ids
    assert all(e["module"] == "covering_surface" for e in ledger["entries"])
    assert "PASS" in out
    # only the module's own checks ran
    assert called == ["check_monodromy", "check_genus_twice"]


def test_verify_full_run_reports_known_failures(tmp_path, capsys):
    # two checks fail for recorded structural reasons, so the exit code is 1
    target = tmp_path / "ledger.json"
    code, out = run(capsys, "verify", "--json", str(target))
    assert code == 1
    ledger = json.loads(target.read_text())
    failed = {e["check_id"] for e in ledger["entries"] if not e["passed"]}
    assert failed == {"09b-pairing-orbits", "10f-fundamental-domain-uniqueness"}
    for e in ledger["entries"]:
        if not e["passed"]:
            assert e["note"]


@pytest.mark.parametrize("z0", ["5,5", "0,0"])
def test_billiard_bad_start_is_a_usage_error(capsys, z0):
    code, _ = run(capsys, "billiard", "--z0", z0, "--theta", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["map", "eval", "--xi", "0.6180339887498949,0"],  # the fiber over a
    ["tiling", "--depth", "9"],
    ["map", "eval", "--xi", "1e200,0"],  # eta overflows past the far bound
    ["map", "eval", "--xi", "0,1e155"],
], ids=["singular-fiber", "tiling-depth", "far-xi-real", "far-xi-imag"])
def test_bad_input_is_a_usage_error(capsys, argv):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["star"], ["quotient"], ["genus"], ["verify"], ["tiling"],
    ["billiard", "--z0", "0.1,0.1", "--theta", "0"], ["map", "eval", "--xi", "1,1"],
    ["map", "grid", "--n", "2", "--svg", os.devnull], ["flow", "--xi", "1.1,0.9", "--t", "0.01"],
    ["star", "--svg"],
], ids=["star", "quotient", "genus", "verify", "tiling", "billiard", "map-eval", "map-grid",
        "flow", "star-svg"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # a missing directory, and a directory in place of the file; only verify
    # prints (its ledger lines) before it writes
    for path in (tmp_path / "missing" / "out", tmp_path):
        args = [*argv, str(path)] if argv[-1] == "--svg" else [*argv, "--json", str(path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.err.count("\n") == 1 and (argv[0] == "verify" or not captured.out)


def test_tiling_check_reads_the_config_seed(capsys):
    # the sampled checks' seed is set by --seed; coverage reads seed + 1
    from starsurf import tiling
    code, out = run(capsys, "tiling", "--depth", "2", "--check", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["fundamental_domain"] == tiling.fundamental_domain_check(seed=3, depth=2)
    assert payload["invariance_freeness"] == tiling.invariance_freeness_checks(seed=3, depth=2)
    assert payload["coverage"] == tiling.coverage_check(seed=4, depth=2)
    with pytest.raises(SystemExit) as exc:
        main(["tiling", "--check", "--seed", "abc"])
    assert exc.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, so that no other test's imports or
    caches count."""
    path = [str(pathlib.Path(starsurf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_out():
    proc = _fresh_python("import starsurf.cli, sys\n"
                         "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    assert proc.returncode == 0, proc.stderr


def _scalar_start(out: pathlib.Path) -> str:
    """Code for a fresh process that makes only scalar calls: the benchmark's
    set-up, the scalar APIs, and the subcommands that handle no arrays."""
    return ("import starsurf\n"
            "from starsurf.conformal import F_T, compute_k\n"
            "from starsurf.geometry import build_star\n"
            "build_star(); compute_k(); F_T(1 + 1j)\n"
            "from starsurf import (F_Q_inv, SheetedPoint, develop, edge_pairing, flow,\n"
            "                      point_location, simulate)\n"
            "develop(simulate(0.1 + 0.05j, 1j, 40))\n"
            "flow(SheetedPoint(0.8 + 0.7j, 3), 0.05)\n"
            "F_Q_inv(0.3 + 0.1j); point_location(0.2j); edge_pairing()\n"
            "from starsurf.cli import main\n"
            f"main(['star', '--json', {str(out / 's.json')!r}])\n"
            "main(['billiard', '--z0', '0.05,0.13', '--theta', '0.53', '--lift',\n"
            f"      '--svg', {str(out / 'b.svg')!r}, '--json', {str(out / 'b.json')!r}])\n"
            f"main(['flow', '--xi', '1.1,0.9', '--t', '0.1', '--json', {str(out / 'f.json')!r}])\n"
            f"main(['map', 'eval', '--xi', '0.3,0.4', '--json', {str(out / 'm.json')!r}])\n")


def test_scalar_calls_leave_numpy_out(tmp_path):
    proc = _fresh_python(_scalar_start(tmp_path)
                         + "import sys\nassert 'numpy' not in sys.modules, 'numpy imported'\n")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "b.svg").read_text().startswith("<svg")


def test_array_calls_after_a_scalar_start(tmp_path):
    proc = _fresh_python(
        _scalar_start(tmp_path)
        + "import numpy as np\n"
          "from starsurf.geometry import KINDS, locate_kinds\n"
          "kinds, _near = locate_kinds(np.array([0.1j, 3.0]))\n"
          "assert [KINDS[k] for k in kinds] == ['interior', 'exterior'], kinds\n"
          "assert abs(F_T(np.array([1 + 1j, 0.5j]))[0] - F_T(1 + 1j)) <= 1e-15\n"
          "from starsurf import monodromy\n"
          "assert list(monodromy('a').images) == [(k + 3) % 10 for k in range(10)]\n"
          "from starsurf.verify import run_verify\n"
          "assert run_verify(module='covering_surface').all_passed\n")
    assert proc.returncode == 0, proc.stderr


def test_package_exports_resolve_lazily():
    for name in starsurf.__all__:
        value = getattr(starsurf, name)
        home = importlib.import_module(f"starsurf.{starsurf._MODULE_OF[name]}")
        assert getattr(home, name) is value, name
        # a function or class is exported from the module that defines it
        assert getattr(value, "__module__", home.__name__) in (home.__name__, "builtins"), name
    namespace = {}
    exec("from starsurf import *", namespace)
    assert set(starsurf.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        starsurf.no_such_name  # noqa: B018


def test_cli_pins_blas_threads_unless_set(monkeypatch, capsys):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "3")  # so that the test leaves each as it found it
    monkeypatch.delenv("MKL_NUM_THREADS")
    code, _ = run(capsys, "map", "eval", "--xi", "0.3,0.4")
    assert code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["MKL_NUM_THREADS"] == "1"


def test_map_calls_build_no_quadrature_tables():
    # the closed-form map needs no Gauss-Jacobi nodes, so a fresh process's
    # first map calls cost no table set-up
    proc = _fresh_python(
        "from starsurf import quadrature\n"
        "from starsurf.conformal import F_Q, F_T\n"
        "from starsurf.geometry import build_star\n"
        "from starsurf.svgout import map_grid_scene\n"
        "F_T(1 + 1j); F_Q(0.7 - 0.6j); map_grid_scene(build_star(), 12)\n"
        "size = quadrature._jacobi_nodes.cache_info().currsize\n"
        "assert size == 0, f'{size} node tables built'\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--sheet", "12"],
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--steps", "0"],
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--steps", "-5"],
    ["map", "eval", "--xi", "0.3,0.4", "--sheet", "12"],
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--samples", "0"],
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--samples", "-5"],
    ["map", "grid", "--n", "0", "--svg", "grid.svg"],
    ["map", "grid", "--n", "-2", "--svg", "grid.svg"],
    ["billiard", "--z0", "0.05,0.13", "--theta", "0.53", "--events", "-3"],
    ["verify", "--module", "bogus"],
    ["billiard", "--z0", "nan,0", "--theta", "0.53"],
    ["billiard", "--z0", "0.05,0.13", "--theta", "nan"],
    ["flow", "--xi", "1.1,0.9", "--t", "nan"],
    ["flow", "--xi", "1.1,0.9", "--t", "0.1", "--theta=-inf"],
    ["map", "eval", "--xi", "nan,0"],
    ["map", "eval", "--xi", "0.3,inf"],
], ids=["flow-sheet", "flow-steps-0", "flow-steps-negative", "map-eval-sheet",
        "flow-samples-0", "flow-samples-negative", "map-grid-n-0", "map-grid-n-negative",
        "billiard-events-negative", "verify-module-unknown", "billiard-z0-nan",
        "billiard-theta-nan", "flow-t-nan", "flow-theta-inf", "map-eval-xi-nan",
        "map-eval-xi-inf"])
def test_bad_sheet_or_steps_is_a_usage_error(capsys, argv):
    # flow --steps is gone: it set the resolution of the RK4 flow
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    message = "unrecognized arguments" if "--steps" in argv else "error: argument --"
    assert message in capsys.readouterr().err
