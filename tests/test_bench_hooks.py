"""The benchmark in perfbench/ wraps package functions by name; a rename
or a bypass must fail here, not first when the benchmark runs."""

import importlib.util
from pathlib import Path

import gsqg

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    spans = _spans_module()
    assert spans.TARGETS
    for name, owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)


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
