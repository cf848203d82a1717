"""The benchmark in perfbench/ and the measuring scripts in tools/ wrap
package functions by name; a rename or a bypass must fail here, not first
when the benchmark or the script runs."""

import importlib.util
from pathlib import Path

import numpy as np

import gsqg
from gsqg import burstsim, cli
from gsqg.integrator import Trajectory

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans_module():
    return _load("perfbench_spans", ROOT / "perfbench" / "spans.py")


def test_benchmark_span_targets_resolve():
    spans = _spans_module()
    assert spans.TARGETS
    for name, owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)


def test_benchmark_step_count_is_the_accepted_steps():
    # the span on `integrate` counts steps as len(segments): a run that kept no
    # dense output would read 0 steps in the benchmark
    spans = _spans_module()
    st = gsqg.VortexState(t=0.0, z=np.array([0.5, -0.5, 0.3j]), xi=np.array([1.0, 1.0, -0.5]),
                          alpha=1.5)
    traj = gsqg.integrate(st, 0.5, gsqg.IntegratorConfig(rel_tol=1e-8))
    assert spans._steps(None, traj) == len(traj.h) > 5


def test_search_spans_are_reached():
    # x_interval must look _margin_grid up at call time, or the benchmark
    # counts no grid calls
    spans = _spans_module()
    tracer = spans.Tracer()
    with tracer.installed():
        gsqg.x_interval(1.0)
    m = spans.layer_metrics(tracer.spans)
    assert m["search.x_interval.calls"] == 1
    assert m["search.margin_grid.calls"] >= 1


def test_margin_stage_targets_resolve():
    # a renamed stage would crash tools/margin_stages.py when it wraps it
    stages = _load("tools_margin_stages", ROOT / "tools" / "margin_stages.py").STAGES
    assert stages
    for stage, names in stages.items():
        for name in names:
            assert callable(getattr(gsqg.search, name, None)), (stage, name)


def test_burst_peak_boundaries_are_all_wrapped():
    # tools/burst_peaks.py skips a CSV or writer function this tree lacks, so
    # a rename would silently drop a phase boundary
    peaks = _load("tools_burst_peaks", ROOT / "tools" / "burst_peaks.py")
    targets = [(owner, attr) for owner, attr, _ in peaks.wrappers(peaks.Phases())]
    assert targets == [(burstsim, "integrate_batch"), (cli, "convergence_study"),
                       (Trajectory, "to_csv"), (Trajectory, "csv_blocks"),
                       (cli, "_write"), (cli, "_write_blocks")]
