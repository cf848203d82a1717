"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json

import numpy as np
import pytest

import run

gsqg = run.import_gsqg()

import spans  # noqa: E402  (needs gsqg on the path)
import workloads  # noqa: E402


def _declared(kind):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[kind]}


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    ref_a = workloads.write_inputs(workload, 5, tmp_path / "a")
    ref_b = workloads.write_inputs(workload, 5, tmp_path / "b")
    workloads.write_inputs(workload, 6, tmp_path / "c")
    assert ref_a == ref_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload != "sweep":
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_crowd_background_is_separated():
    bg = workloads.crowd_background(np.random.default_rng(3))
    pts = np.array([0.0] + [p for p, _ in bg])
    gaps = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)]
    assert len(bg) == 96 and gaps.min() >= workloads.RHO_SEP
    assert all(0.4 <= abs(w) <= 1.6 for _, w in bg)


def _small_job(tmp_path):
    """One find-config --auto and one short collapse simulate."""
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    cfg = workloads.collapse_config(0.3)
    (in_dir / "collapse.json").write_text(cfg.to_json())
    sim_out = out_dir / "collapse.csv"
    fc_out = out_dir / "config.json"

    def exit_ok(code, stdout):
        return None if code == 0 else f"exit {code}"

    return [
        workloads.Op("find-config", ("find-config", "--alpha", "1.5", "--auto",
                                     "--out", str(fc_out)), fc_out, exit_ok),
        workloads.Op("simulate", ("simulate", "--config", str(in_dir / "collapse.json"),
                                  "--t0", "0", "--t1", "0.5", "--out", str(sim_out)),
                     sim_out, exit_ok),
    ], out_dir


def test_traced_counts_repeat_and_outputs_match(tmp_path):
    ops, out_dir = _small_job(tmp_path)
    passes = [(False, run.run_pass(gsqg, ops, out_dir))]
    traced_spans = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            passes.append((True, run.run_pass(gsqg, ops, out_dir, tracer)))
        traced_spans.append(tracer.spans)
    for _, res in passes:
        assert [r["failure"] for r in res] == [None, None]
        assert [r["digest"] for r in res] == [r["digest"] for r in passes[0][1]]
    first, second = (spans.layer_metrics(s) for s in traced_spans)
    for name in ("kernel.rhs.calls", "integrator.steps", "search.margin_grid.calls"):
        assert first[name] > 0
        assert first[name] == second[name]
    values, samples, moved = run.per_layer_metrics(passes, traced_spans)
    assert moved == []
    assert set(values) == set(samples) == _declared("per_layer")


def test_end_to_end_names_match_declared():
    probes = [(0.5, 0.25), (0.6, 0.5), (0.5, 0.25), (0.5, 0.25)]
    passes = [(False, [{"seconds": t, "probe": k}]) for k, t in enumerate((1.0, 1.5, 1.0))]
    values, samples = run.end_to_end_metrics(probes, passes)
    assert set(values) == set(samples) == _declared("end_to_end")
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["job_s"] == pytest.approx(1.0)   # each pass over its mean reference
    assert values["peak_rss_mb"] > 0


def test_wrappers_return_results_unchanged():
    triple = workloads.collapse_config(0.0)
    state = gsqg.VortexState(t=0.0, z=triple.a, xi=triple.xi, alpha=1.0)
    cfg = gsqg.IntegratorConfig(rel_tol=1e-9)
    plain_rec = gsqg.search.x_interval(1.5)
    plain_traj = gsqg.integrator.integrate(state, 0.05, cfg)
    original = gsqg.search.x_interval
    tracer = spans.Tracer()
    with tracer.installed():
        assert gsqg.search.x_interval is not original
        traced_rec = gsqg.search.x_interval(1.5)
        traced_traj = gsqg.integrator.integrate(state, 0.05, cfg)
    assert gsqg.search.x_interval is original
    assert traced_rec == plain_rec and traced_rec.runs == plain_rec.runs
    assert np.array_equal(traced_traj.times, plain_traj.times)
    assert np.array_equal(traced_traj.positions, plain_traj.positions)
    assert traced_traj.status is plain_traj.status
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"search.x_interval", "search.margin_grid", "integrator.integrate",
            "kernel.rhs", "kernel.state"} <= names
