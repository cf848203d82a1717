import json
from pathlib import Path

import numpy as np
import pytest

import gsqg
from gsqg.cli import main

from conftest import THM_X, THM_XI3


def test_find_config_reference(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    code = main(["find-config", "--alpha", "1.0", "--x", str(THM_X),
                 "--out", str(out)])
    assert code == 0
    cfg = gsqg.TripleConfig.from_json(out.read_text())
    assert cfg.xi[2] == pytest.approx(THM_XI3, abs=5e-5)
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["passed"] is True
    assert len(report["mu"]) == 4
    assert out.with_suffix(".json.manifest.json").exists()
    assert "PASS" in capsys.readouterr().out


def test_find_config_negative_result(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["find-config", "--alpha", "0.9", "--auto", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "gsqg find-config: no admissible x at alpha=0.9\n"


def test_find_config_auto_midpoint(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["find-config", "--alpha", "1.5", "--auto", "--x-coarse", "1e-3",
                 "--out", str(out)]) == 0
    # the x picked depends on the grid pitch and the refinement width
    params = json.loads(out.with_suffix(".json.manifest.json").read_text())["parameters"]
    assert params["x_coarse"] == 1e-3 and params["refine_tol"] == 1e-7


def test_find_config_usage_error(tmp_path, capsys):
    # exactly one of --x and --auto
    out = tmp_path / "cfg.json"
    for which in ([], ["--x", "0.7019", "--auto"]):
        with pytest.raises(SystemExit) as e:
            main(["find-config", "--alpha", "1.0", *which, "--out", str(out)])
        assert e.value.code == 1
        assert capsys.readouterr().err.startswith("gsqg find-config: error: ")
        assert not out.exists()


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as e:
        main(["find-config", "--bogus", "1"])
    assert e.value.code == 1


def test_sweep_single_alpha(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--alpha-min", "1.0", "--alpha-max", "1.0",
                 "--alpha-step", "1e-3", "--x-coarse", "1e-4",
                 "--refine-tol", "1e-7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,x_minus,x_plus,status"
    assert len(lines) == 2
    _, x_lo, x_hi, status = lines[1].split(",")
    assert status == "interval"
    assert float(x_lo) < THM_X < float(x_hi)
    endpoints = json.loads(out.with_suffix(".endpoints.json").read_text())
    assert set(endpoints) == {"alpha_minus", "alpha_plus"}


def test_sweep_straddle_guard(tmp_path):
    # a range across alpha = 2 skips the guard band, as gsqg.sweep does
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--alpha-min", "1.9", "--alpha-max", "2.1",
            "--alpha-step", "5e-2", "--x-coarse", "2e-3", "--out", str(out)]
    assert main(args) == 0
    with pytest.raises(SystemExit) as e:
        main(args + ["--split-at-2"])
    assert e.value.code == 1


def test_sweep_jobs_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    common = ["sweep", "--alpha-min", "1.44", "--alpha-max", "1.52",
              "--alpha-step", "2e-2", "--x-coarse", "1e-3",
              "--refine-tol", "1e-6"]
    assert main(common + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(common + ["--jobs", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_selfsimilar_match(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    main(["find-config", "--alpha", "1.0", "--x", str(THM_X), "--out", str(cfg_path)])
    out = tmp_path / "traj.csv"
    cen = gsqg.center(gsqg.TripleConfig.from_json(cfg_path.read_text()))
    mo = gsqg.motion_from_config(cen)
    t0 = gsqg.reference_time(mo)
    code = main(["simulate", "--config", str(cfg_path), "--t0", str(t0),
                 "--t1", str(4 * t0), "--rel-tol", "1e-11", "--out", str(out)])
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    t = rows[:, 0]
    z = rows[:, 1:7:2] + 1j * rows[:, 2:7:2]
    # the run starts from the raw centered positions; its motion matches
    # the closed-form scale factor with the starting phase divided out
    z0_exact = cen.a * gsqg.zeta(mo, t0)
    rot = z[0] / z0_exact
    for k in (len(t) // 2, len(t) - 1):
        exact = cen.a * gsqg.zeta(mo, t[k]) * rot[0]
        assert np.max(np.abs(z[k] - exact)) <= 1e-6 * np.max(np.abs(exact))
    # conservation columns drift
    H, L = rows[:, 7], rows[:, 8]
    assert np.max(np.abs(H - H[0])) <= 1e-8 * (t[-1] - t[0])
    assert np.max(np.abs(L - L[0])) <= 1e-8 * (t[-1] - t[0])


def test_simulate_collapse_reports_t_star(tmp_path, capsys):
    cfg = gsqg.oriented_config(1.0, THM_X)
    cen = gsqg.center(cfg)
    flipped = gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=1.0)
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(flipped.to_json())
    mo = gsqg.motion_from_config(gsqg.center(flipped))
    t0 = gsqg.reference_time(mo)       # negative for a collapse
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", str(cfg_path), "--t0", str(t0),
                 "--t1", "1.0", "--rel-tol", "1e-11", "--out", str(out)])
    assert code == 0
    man = json.loads(out.with_suffix(".csv.manifest.json").read_text())
    assert man["parameters"]["classification"] == "collapse"
    assert abs(man["parameters"]["t_star"]) <= 1e-4 * abs(t0)
    assert "collapse" in capsys.readouterr().out


def test_simulate_collapse_config_stopping_before_t_star(tmp_path, capsys):
    # the reference collapse started at t = 0 reaches t* = 2.7095; a run
    # that ends at 0.5 completes without a collapse and has no fitted t*
    cen = gsqg.center(gsqg.oriented_config(1.0, THM_X))
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=1.0).to_json())
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", str(cfg_path), "--t0", "0", "--t1", "0.5",
                 "--out", str(out)])
    assert code == 0
    assert "collapse detected" not in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    man = json.loads(out.with_suffix(".csv.manifest.json").read_text(),
                     parse_constant=reject)
    assert man["parameters"]["classification"] == "collapse"
    assert man["parameters"]["status"] == "completed"
    assert man["parameters"]["t_star"] is None


def test_burst_command(tmp_path):
    cfg = gsqg.oriented_config(1.0, THM_X)
    scen = gsqg.BurstScenario(triple=cfg, background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    out_dir = tmp_path / "runs"
    code = main(["burst", "--scenario", str(spath), "--rel-tol", "1e-9",
                 "--out", str(out_dir)])
    assert code == 0
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    assert diag["exponent_fit"] == pytest.approx(1 / 3, abs=5e-3)
    gaps = diag["cauchy_gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert diag["merged_intensity"] == pytest.approx(float(np.sum(cfg.xi)))
    assert len(list(out_dir.glob("trajectory_tini_*.csv"))) == 3


def test_burst_integrates_each_t_ini_once(tmp_path, monkeypatch):
    cfg = gsqg.oriented_config(1.0, THM_X)
    scen = gsqg.BurstScenario(triple=cfg, background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    # the scenario and tolerances exactly as the CLI reads and sets them
    scen = gsqg.BurstScenario.from_json(spath.read_text())
    icfg = gsqg.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-9 * 1e-3)
    expect = [gsqg.run_burst(scen, t_ini, icfg)[0].to_csv()
              for t_ini in scen.t_ini_sequence]
    calls = []
    integrate = gsqg.burstsim.integrate

    def counting(*args, **kwargs):
        calls.append(args[0].t)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(gsqg.burstsim, "integrate", counting)
    out_dir = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--rel-tol", "1e-9",
                 "--out", str(out_dir)]) == 0
    assert calls == list(scen.t_ini_sequence)
    # the CSVs are the study's own runs, byte for byte
    for t_ini, csv in zip(scen.t_ini_sequence, expect):
        assert (out_dir / f"trajectory_tini_{t_ini:.6g}.csv").read_text() == csv


def test_manifest_reproducibility(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--alpha-min", "1.3", "--alpha-max", "1.3",
            "--alpha-step", "1e-3", "--x-coarse", "1e-3", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    man1 = json.loads(out1.with_suffix(".csv.manifest.json").read_text())
    assert man1["command"] == "sweep"
    assert "tool_version" in man1 and "wall_time_s" in man1


@pytest.mark.parametrize("command, flag", [("simulate", "--config"), ("burst", "--scenario")])
@pytest.mark.parametrize("content, cause", [(None, "cannot read"),
                                            ('{"alpha": 1.0}', "malformed"),
                                            ("not json", "malformed")])
def test_missing_or_malformed_input_exits_one(tmp_path, capsys, command, flag,
                                              content, cause):
    src = tmp_path / "input.json"
    if content is not None:
        src.write_text(content)
    extra = ["--t0", "0", "--t1", "1"] if command == "simulate" else []
    out = tmp_path / "out"
    assert main([command, flag, str(src), *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"gsqg {command}: {cause}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["find-config", "--alpha", "1.0", "--x", "1.5"],
    ["find-config", "--alpha", "1.0", "--x", "nan"],
    ["simulate", "--config", "{cfg}", "--t0", "0", "--t1", "nan"],
    ["simulate", "--config", "{cfg}", "--t0", "0", "--t1", "1", "--rel-tol", "0"],
    ["simulate", "--config", "{nan_cfg}", "--t0", "0", "--t1", "1"],
    ["burst", "--scenario", "{scenario}", "--rel-tol", "0"],
    ["sweep", "--alpha-min", "nan", "--alpha-max", "1.0"],
    # an alpha outside (0, 3) or in the guard band around 2 is a usage
    # error, not a failed construction (exit 2)
    ["find-config", "--alpha", "nan", "--x", "0.7"],
    ["find-config", "--alpha", "3.5", "--x", "0.7"],
    ["find-config", "--alpha", "2.0", "--x", "0.7"],
    ["burst", "--scenario", "{short_scenario}"],
    ["sweep", "--alpha-min", "1.9995", "--alpha-max", "2.1"],
    # a pitch finer than 1e-6 would build more than 10^6 x grid points
    ["find-config", "--alpha", "1.0", "--auto", "--x-coarse", "1e-7"],
])
def test_bad_number_exits_one(tmp_path, capsys, args):
    cfg = gsqg.oriented_config(1.0, THM_X)
    paths = {name: tmp_path / f"{name}.json"
             for name in ("cfg", "nan_cfg", "scenario", "short_scenario")}
    paths["cfg"].write_text(cfg.to_json())
    paths["nan_cfg"].write_text(cfg.to_json().replace('"intensities": [1.0', '"intensities": [NaN'))
    scenario = gsqg.BurstScenario(
        triple=cfg, background=((1.0 + 0j, 1.0),), t_ini_sequence=(1e-4, 5e-5, 2.5e-5),
        horizon=5e-4).to_json()
    paths["scenario"].write_text(scenario)
    # a horizon before the first t_ini
    paths["short_scenario"].write_text(scenario.replace('"horizon": 0.0005', '"horizon": 1e-05'))
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in args] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gsqg ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field, key, index", [
    ("t_ini_sequence", "t_ini", 0), ("burst_site", "site", 0),
    ("background", "position", 1), ("background", "intensity", None)])
def test_non_finite_scenario_entry_exits_one_naming_it(tmp_path, capsys, field, key,
                                                       index, value):
    obj = json.loads(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X), background=((1.0 + 0j, 1.0),),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4).to_json())
    holder = obj["background"][0] if field == "background" else obj
    if index is None:
        holder[key] = value
    else:
        holder[key][index] = value
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(obj))
    out = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"gsqg burst: {field}")
    assert not out.exists()


def test_scenario_breaking_a_rule_exits_one_with_its_reason(tmp_path, capsys):
    scen = gsqg.BurstScenario(triple=gsqg.oriented_config(1.0, THM_X),
                              background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json().replace('"horizon": 0.0005', '"horizon": 1e-05'))
    out = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "gsqg burst: horizon must be finite and past every t_ini, got 1e-05\n")
    assert not out.exists()


@pytest.mark.parametrize("args, reason", [
    # x too small for a triangle: the side y(x) lies past 1 + x
    (["find-config", "--alpha", "1.0", "--x", "0.05"], "gsqg find-config: sides"),
    # the root y(x) lies beyond YMAX
    (["find-config", "--alpha", "1.0", "--x", "0.01"], "gsqg find-config: no sign change"),
    (["burst", "--scenario", "{scenario}", "--rel-tol", "1e-100"],
     "gsqg burst: integration failed at t="),
])
def test_negative_result_exits_two(tmp_path, capsys, args, reason):
    scen = gsqg.BurstScenario(triple=gsqg.oriented_config(1.0, THM_X),
                              background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    out = tmp_path / "out"
    assert main([a.format(scenario=spath) for a in args] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(reason) and "Traceback" not in err
    assert not out.exists()


def test_simulate_at_tiny_tolerance_is_a_step_failure(tmp_path, capsys):
    # at rel_tol 1e-300 the initial-step norms overflow; the run used to
    # "complete" at t = nan
    cen = gsqg.center(gsqg.oriented_config(1.0, THM_X))
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=1.0).to_json())
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg_path), "--t0", "0", "--t1", "3",
                 "--rel-tol", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().out.endswith("status = step_failure, samples = 1\n")
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
