"""The span recorder's self times: a span's duration minus its direct
children's, so self times of one thread's spans add up to its roots."""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT)]

from loadbench.tracer import Spans, Tracer  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Layer:
    def outer(self):
        busy(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        busy(0.003)


def test_nested_spans_self_time(tmp_path):
    tracer = Tracer()
    tracer.patch(Layer, "outer", "a.outer")
    tracer.patch(Layer, "inner", "b.inner")
    try:
        layer = Layer()
        t0 = time.perf_counter()
        assert layer.outer() == "done"
        layer.inner()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert Layer.__dict__["outer"].__name__ == "outer"  # wrappers removed

    path = tmp_path / "spans.npz"
    tracer.dump(path)
    spans = Spans(path)
    assert spans.calls("a.outer") == 1 and spans.calls("b.inner") == 3
    assert spans.child_of(("b.inner",), "a.outer") == 2
    assert spans.with_child(("a.outer",), ("b.inner",)) == 1
    # outer's own work is ~2 ms of its ~8 ms
    assert 0.0015 < spans.self_s("a.outer") < spans.total("a.outer") - 0.005
    assert spans.self_s("b.inner") == spans.total("b.inner")
    roots = spans.thread_roots_total("MainThread")
    self_sum = spans.self_s("a.outer", "b.inner")
    assert abs(self_sum - roots) < 1e-9
    assert self_sum <= wall


def test_restrict_to_window(tmp_path):
    tracer = Tracer()
    tracer.patch(Layer, "inner", "b.inner")
    try:
        layer = Layer()
        layer.inner()
        cut = time.perf_counter()
        layer.inner()
        layer.inner()
    finally:
        tracer.uninstall()
    tracer.dump(tmp_path / "spans.npz")
    spans = Spans(tmp_path / "spans.npz")
    spans.restrict(cut, float("inf"))
    assert spans.calls("b.inner") == 2
