import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gsqg
from gsqg.cli import main
from gsqg.integrator import Status, Trajectory

from conftest import THM_X, THM_XI3, lattice_state, random_state


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
    assert main(["find-config", "--alpha", "1.5", "--auto", "--out", str(out)]) == 0
    # the window of x_interval at its default pitch and refinement width
    rec = gsqg.x_interval(1.5)
    params = json.loads(out.with_suffix(".json.manifest.json").read_text())["parameters"]
    assert params == {"alpha": 1.5, "x": 0.5 * (rec.x_minus + rec.x_plus), "auto": True}


@pytest.mark.parametrize("flag", ["--x-coarse", "--refine-tol"])
def test_find_config_has_no_pitch_flags(tmp_path, capsys, flag):
    # the pitch and refinement width are flags of sweep only
    out = tmp_path / "cfg.json"
    with pytest.raises(SystemExit) as e:
        main(["find-config", "--alpha", "1.5", "--auto", flag, "1e-3", "--out", str(out)])
    assert e.value.code == 1
    assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err
    assert not out.exists()


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


def test_nan_rates_get_one_answer_from_simulate_and_burst(tmp_path, capsys, nan_triple):
    cfg_path, spath = tmp_path / "tiny.json", tmp_path / "scenario.json"
    cfg_path.write_text(nan_triple.to_json())
    spath.write_text(json.dumps({"triple": json.loads(nan_triple.to_json()),
                                 "t_ini": [1e-4, 5e-5, 2.5e-5], "horizon": 1e-3}))
    out = tmp_path / "traj.csv"
    with np.errstate(all="ignore"):     # the pair kernels overflow by construction
        main(["simulate", "--config", str(cfg_path), "--t0", "0", "--t1", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(["burst", "--scenario", str(spath), "--out", str(tmp_path / "runs")])
    man = json.loads(out.with_suffix(".csv.manifest.json").read_text())
    assert man["parameters"]["classification"] == "not_self_similar"
    assert code == 1
    assert capsys.readouterr().err == \
        "gsqg burst: configuration not self-similar (residual nan)\n"


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
    icfg = gsqg.IntegratorConfig(rel_tol=1e-9)
    expect = [gsqg.run_burst(scen, t_ini, icfg)[0].to_csv()
              for t_ini in scen.t_ini_sequence]
    calls = []
    integrate_batch = gsqg.burstsim.integrate_batch

    def counting(states, *args, **kwargs):
        calls.extend(st.t for st in states)
        return integrate_batch(states, *args, **kwargs)

    monkeypatch.setattr(gsqg.burstsim, "integrate_batch", counting)
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
    # Gamma(alpha/2)^2 overflows below alpha ~ 1.5e-154 (c_alpha would be -0)
    ["find-config", "--alpha", "1e-300", "--x", "0.5"],
    # Gamma(alpha/2) itself overflows at a subnormal alpha, and divides by
    # zero at 5e-324; both used to warn before the refusal
    ["find-config", "--alpha", "1e-320", "--x", "0.7"],
    ["find-config", "--alpha", "5e-324", "--x", "0.7"],
    ["sweep", "--alpha-min", "1e-320", "--alpha-max", "1.0"],
    ["sweep", "--alpha-min", "1.0", "--alpha-max", "5e-324"],
    # a rel_tol whose absolute tolerance (1e-3 of it) is subnormal
    ["simulate", "--config", "{cfg}", "--t0", "0", "--t1", "1", "--rel-tol", "1e-320"],
    ["burst", "--scenario", "{scenario}", "--rel-tol", "1e-320"],
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
    ("t_ini_sequence", "t_ini", 0), ("background", "position", 1),
    ("background", "intensity", None)])
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


@pytest.mark.parametrize("key, value", [("rho-sep", 0.1), ("time_reversed", False),
                                        ("site", [0.0, 0.0])], ids=["typo", "stale", "site"])
def test_scenario_with_an_unknown_key_exits_one(tmp_path, capsys, key, value):
    # a mistyped optional key used to run with the default rho_sep
    obj = json.loads(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X), background=((1.0 + 0j, 1.0),),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4).to_json())
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(obj | {key: value}))
    out = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gsqg burst: malformed scenario {spath}") and repr(key) in err
    assert not out.exists()


def test_config_with_an_unknown_key_exits_one(tmp_path, capsys):
    # an extra key used to run, ignored, and exit 0
    cpath = tmp_path / "config.json"
    obj = json.loads(gsqg.oriented_config(1.0, THM_X).to_json())
    cpath.write_text(json.dumps(obj | {"intensity_scale": 2.0}))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cpath), "--t0", "0", "--t1", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gsqg simulate: malformed config {cpath}")
    assert "'intensity_scale'" in err
    assert not out.exists()


def test_scenario_with_an_unknown_background_key_exits_one(tmp_path, capsys):
    obj = json.loads(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X), background=((1.0 + 0j, 1.0),),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4).to_json())
    obj["background"][0]["strength"] = 2.0
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(obj))
    out = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gsqg burst: malformed scenario {spath}") and "'strength'" in err
    assert not out.exists()


def test_burst_on_a_collapse_scenario_exits_one(tmp_path, capsys):
    scen = gsqg.collapse_scenario(gsqg.BurstScenario(
        triple=gsqg.oriented_config(1.0, THM_X), background=((1.0 + 0j, 1.0),),
        t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4))
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    out = tmp_path / "runs"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "gsqg burst: convergence study is defined on the burst orientation\n")
    assert not out.exists()


@pytest.mark.parametrize("args, reason", [
    # x too small for a triangle: the side y(x) lies past 1 + x
    (["find-config", "--alpha", "1.0", "--x", "0.05"], "gsqg find-config: sides"),
    # the root y(x) lies beyond YMAX
    (["find-config", "--alpha", "1.0", "--x", "0.01"], "gsqg find-config: no sign change"),
    (["burst", "--scenario", "{scenario}", "--rel-tol", "1e-100"],
     "gsqg burst: integration failed at t="),
    # K = x^(alpha-2) - x^2 overflows: no root, and no overflow warning
    (["find-config", "--alpha", "1.0", "--x", "1e-320"], "gsqg find-config: no sign change"),
    (["find-config", "--alpha", "0.5", "--x", "1e-320"], "gsqg find-config: no sign change"),
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


def test_burst_run_failure_exits_two_naming_the_first_failing_t_ini(tmp_path, capsys,
                                                                    monkeypatch):
    # a step budget that the second and third runs exhaust, not the first
    scen = gsqg.BurstScenario(triple=gsqg.oriented_config(1.0, THM_X),
                              background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 5e-5, 2.5e-5), horizon=5e-4)
    runs = gsqg.convergence_study(scen, gsqg.IntegratorConfig(rel_tol=1e-9)).runs
    attempts = [len(r.h) + r.rejected + r.singular for r in runs]
    monkeypatch.setattr(gsqg.integrator, "MAX_STEPS", (attempts[0] + attempts[1]) // 2)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    out = tmp_path / "out"
    assert main(["burst", "--scenario", str(spath), "--rel-tol", "1e-9",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gsqg burst: integration failed at t=")
    assert err.endswith(" (t_ini=5e-05)\n")
    assert not out.exists()


def test_burst_run_stopped_by_a_collapse_exits_two_naming_it(tmp_path, capsys):
    # the background is the same triple, collapse-oriented and 1e4 times
    # stronger, far off at 1000 + 1.2 a_j: it collapses at t = 5.68e-4, so the
    # first run stops before the horizon, short of the Cauchy grid
    tri = gsqg.center(gsqg.oriented_config(1.0, THM_X))
    bg = tuple((1000 + 1.2 * a, -1e4 * x) for a, x in zip(tri.a.tolist(), tri.xi.tolist()))
    scen = gsqg.BurstScenario(triple=tri, background=bg,
                              t_ini_sequence=(1e-4, 9.5e-5, 9e-5), horizon=1e-3)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())
    out = tmp_path / "out"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 2
    assert re.fullmatch(r"gsqg burst: run stopped with collapse_detected at t=0\.000568\d+ "
                        r"before the horizon 0\.001 \(t_ini=0\.0001\)\n",
                        capsys.readouterr().err)
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


def test_burst_refuses_t_ini_values_that_share_a_file_name(tmp_path, capsys, monkeypatch):
    # 1e-4 and 9.9999999e-5 agree to 6 significant digits: the second run
    # would overwrite the first's CSV, so the command stops before integrating
    scen = gsqg.BurstScenario(triple=gsqg.oriented_config(1.0, THM_X),
                              background=((1.0 + 0j, 1.0),),
                              t_ini_sequence=(1e-4, 9.9999999e-5, 5e-5), horizon=5e-4)
    spath = tmp_path / "scenario.json"
    spath.write_text(scen.to_json())

    def integrate_batch(*args, **kwargs):
        raise AssertionError("integrated before refusing the names")

    monkeypatch.setattr(gsqg.burstsim, "integrate_batch", integrate_batch)
    out = tmp_path / "out"
    assert main(["burst", "--scenario", str(spath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gsqg burst: two t_ini values would both write {out / 'trajectory_tini_0.0001.csv'}\n")
    assert not out.exists()


@pytest.mark.parametrize("n, t1, rel_tol", [(3, 8.0, 1e-12), (4, 3.0, 1e-12),
                                            (99, 1.0, 1e-8)])
def test_streamed_csv_is_to_csv(tmp_path, n, t1, rel_tol):
    # runs of a few blocks of rows each (85 rows at N = 3, 42 at N = 4, 1 at N = 99)
    st = random_state(n, n, 1.5) if n < 99 else lattice_state(99, 1.0)
    traj = gsqg.integrate(st, t1, gsqg.IntegratorConfig(rel_tol=rel_tol))
    assert len(traj.times) > 2 * gsqg.integrator.pair_rows(n)
    path = gsqg.cli._write_blocks(tmp_path / "traj.csv", traj.csv_blocks())
    assert path.read_bytes() == traj.to_csv().encode()


def test_simulate_streams_a_collapse_as_to_csv(tmp_path):
    # the reference collapse from t = 0 stops at t* = 2.7095, before t1
    cen = gsqg.center(gsqg.oriented_config(1.0, THM_X))
    cfg = gsqg.TripleConfig(a=cen.a, xi=-cen.xi, alpha=1.0)
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(cfg_path), "--t0", "0", "--t1", "3",
                 "--out", str(out)]) == 0
    cen = gsqg.center(gsqg.TripleConfig.from_json(cfg_path.read_text()))
    traj = gsqg.integrate(gsqg.VortexState(t=0.0, z=cen.a, xi=cen.xi, alpha=1.0), 3.0)
    assert traj.status is Status.COLLAPSE_DETECTED
    assert out.read_bytes() == traj.to_csv().encode()


def test_streamed_csv_write_holds_no_whole_file(tmp_path):
    # 161 steps of 99 vortices around the origin, the size of the benchmark's
    # largest burst CSV: written block by block, the peak is one row's
    # conserved-quantity arrays, where the file built as one string peaked at
    # over twice its size
    st = lattice_state(99, 1.0)
    rng = np.random.default_rng(0)
    drift = 1e-3 * (rng.standard_normal((162, 99)) + 1j * rng.standard_normal((162, 99)))
    traj = Trajectory(times=np.linspace(0.0, 1e-3, 162), positions=st.z - st.z.mean() + drift,
                      xi=st.xi, alpha=1.0, status=Status.COMPLETED,
                      h=np.full(161, 1e-3 / 161), segments=[])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = gsqg.cli._write_blocks(tmp_path / "traj.csv", traj.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 600_000
    assert peak < 0.65 * size, (peak, size)
    assert path.read_bytes() == traj.to_csv().encode()
