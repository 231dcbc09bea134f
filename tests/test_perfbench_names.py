"""The benchmark's tracer (perfbench/spans.py) wraps quantcal functions by
module and attribute name, so a rename must fail here, not in a benchmark
run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_benchmark_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, (module_name, attrs) in spans.LAYERS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr} is gone"
    # Tracer.install rewraps the classmethod found in the class's own dict
    report_cls = importlib.import_module("quantcal.metrics").MetricsReport
    assert isinstance(report_cls.__dict__.get("evaluate"), classmethod)
