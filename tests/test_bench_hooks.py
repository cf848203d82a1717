"""The benchmark in perfbench/ wraps package functions by name; a rename
must fail here, not first when the benchmark runs."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_benchmark_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, owner, attr, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, owner, attr)
