"""The benchmark's span tracer still finds every library function it wraps.

``bench/spans.py`` wraps functions by name from outside the package; a
target that is renamed or inlined would silently read 0 in the traced
benchmark.  The tracer module is loaded from its file and not modified.
"""

import types
from pathlib import Path

import exactrnn
import exactrnn.cli  # noqa: F401  (loads every module the tracer wraps)
from exactrnn import augmented
from exactrnn.zoo import stream_compare_tma, two_thirds_stream

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """The tracer module, run from its source; no bytecode is written."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_target_and_counts_bias_digits():
    a = augmented.ann_from_tma(stream_compare_tma(), two_thirds_stream())
    original = augmented.ann_run
    tracer = load_spans().Tracer(exactrnn)
    try:
        tracer.install()
        assert tracer.missing == []
        assert augmented.ann_run is not original
        d = augmented.ann_run(a, "1", 100)
    finally:
        tracer.uninstall()
    assert augmented.ann_run is original
    assert d.kind == "accept"
    metrics = tracer.metrics()
    assert tracer.calls_of("augmented.ann_run") == 1
    assert metrics["augmented.ann_run.bias_digits"] == 16
