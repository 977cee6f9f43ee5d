"""The benchmark's tracer wraps hfree functions by name; a layer metric
whose span cannot be installed silently reads null.  This keeps every name
the layer metrics need present in the package."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_layer_metric_span_is_present():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    missing = {metric: [name for name in needs if name not in tracer.present]
               for metric, (_unit, needs, _value) in spans.LAYER_METRICS.items()}
    assert not any(missing.values()), missing
