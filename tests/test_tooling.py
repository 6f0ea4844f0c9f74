"""The benchmark's span tracer still finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_resolve():
    """Every (layer, function) target of perfbench/spans.py is a callable of
    qsym.<layer>, and the tracer installs on all of them and uninstalls
    without leaving a wrapper behind."""
    spans = _load_spans()
    assert len(spans.TARGETS) == 19
    homes = {}
    for layer, name in spans.TARGETS:
        homes[layer] = importlib.import_module("qsym." + layer)
        assert callable(getattr(homes[layer], name, None)), (layer, name)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for layer, name in spans.TARGETS:
            assert getattr(getattr(homes[layer], name), spans._MARK, False), (layer, name)
    finally:
        tracer.uninstall()
    assert spans.Tracer.leftover_wrappers() == 0
