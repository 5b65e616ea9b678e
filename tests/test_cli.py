import functools
import json
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
    # one flow per sample step, each from the previous sample
    assert len(calls) == 4
    assert all(abs(t - 0.025) < 1e-15 for _p, t, _kw in calls)
    assert all(kw["steps"] == 64 for _p, _t, kw in calls)
    for (p, _t, _kw), prev in zip(calls, samples):
        assert [p.xi.real, p.xi.imag] == prev["xi"] and p.sheet == prev["sheet"]


@pytest.mark.parametrize("steps, samples, per_sample", [(3, 8, 1), (10, 4, 3), (256, 8, 32)])
def test_flow_splits_steps_over_samples(capsys, monkeypatch, steps, samples, per_sample):
    calls = []
    flow = metric.flow

    def spy(p0, t, **kwargs):
        calls.append(kwargs["steps"])
        return flow(p0, t, **kwargs)

    monkeypatch.setattr(metric, "flow", spy)
    code, _out = run(capsys, "flow", "--xi", "1.1,0.9", "--t", "0.1",
                     "--steps", str(steps), "--samples", str(samples))
    assert code == 0
    assert calls == [per_sample] * samples


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


def test_quotient_subcommand(capsys):
    code, out = run(capsys, "quotient")
    assert code == 0
    payload = json.loads(out)
    assert (payload["faces"], payload["edges"], payload["vertices"]) == (10, 20, 10)
    assert payload["chi"] == -6 and payload["genus"] == 4
    assert payload["unordered_pair_orbit_sizes"] == [5]


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


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "starsurf.cfg"
    cfg.write_text("# settings\nseed = 7\n")
    code, _ = run(capsys, "--config", str(cfg), "map", "eval", "--xi", "0.2,0.5")
    assert code == 0


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    code, _ = run(capsys, "--config", str(cfg), "map", "eval", "--xi", "0.2,0.5")
    assert code == 2


# these keys once steered a rule or a tolerance that is gone; setting one now
# fails loudly (no user path runs quadrature since the map has a closed form)
@pytest.mark.parametrize("line", ["tol_geo = 1e-9", "tol_map = 1e-8", "quad_kind = tanh-sinh",
                                  "quad_nodes = 32", "quad_target = 1e-13"],
                         ids=["tol_geo", "tol_map", "quad_kind", "quad_nodes", "quad_target"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code = main(["--config", str(cfg), "map", "eval", "--xi", "0.2,0.5"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("z0", ["5,5", "0,0"])
def test_billiard_bad_start_is_a_usage_error(capsys, z0):
    code, _ = run(capsys, "billiard", "--z0", z0, "--theta", "0")
    assert code == 2


@pytest.mark.parametrize("config, argv", [
    ("seed = abc", ["map", "eval", "--xi", "0.2,0.5"]),
    ("quad_nodes = 2", ["map", "eval", "--xi", "0.2,0.5"]),
    ("", ["map", "eval", "--xi", "0.6180339887498949,0"]),  # the fiber over a
    ("", ["tiling", "--depth", "9"]),
], ids=["config-cast", "config-range", "singular-fiber", "tiling-depth"])
def test_bad_input_is_a_usage_error(tmp_path, capsys, config, argv):
    cfg = tmp_path / "starsurf.cfg"
    cfg.write_text(config + "\n")
    code = main(["--config", str(cfg), *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
], ids=["flow-sheet", "flow-steps-0", "flow-steps-negative", "map-eval-sheet",
        "flow-samples-0", "flow-samples-negative", "map-grid-n-0", "map-grid-n-negative",
        "billiard-events-negative"])
def test_bad_sheet_or_steps_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err
