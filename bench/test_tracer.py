"""Tests of the benchmark's span recorder.

    python3 -m pytest bench/test_tracer.py
"""

from __future__ import annotations

import sys
import threading
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def busy(seconds: float) -> None:
    """Spin on this thread's CPU clock, so wall and CPU time both advance."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def fake_module() -> types.ModuleType:
    """outer() calls inner() through the module namespace, as fedhosp does."""
    mod = types.ModuleType("fake")

    def inner():
        busy(0.02)
        return "inner"

    def outer():
        busy(0.01)
        return mod.inner() + "+outer"

    mod.inner, mod.outer = inner, outer
    return mod


def traced(mod) -> Tracer:
    tracer = Tracer()
    tracer.wrap(mod, "outer", "fake.outer", "layer_a", full=True)
    tracer.wrap(mod, "inner", "fake.inner", "layer_b", full=True)
    return tracer


def test_self_time_excludes_nested_call():
    mod = fake_module()
    with traced(mod) as tracer:
        assert mod.outer() == "inner+outer"
    aggs = tracer.aggregates()
    outer, inner = aggs["fake.outer"], aggs["fake.inner"]
    assert outer.calls == inner.calls == 1
    assert inner.self_wall == inner.wall
    assert abs(outer.self_wall - (outer.wall - inner.wall)) < 1e-12
    assert 0.009 < outer.self_cpu < 0.019
    assert 0.019 < inner.self_cpu < 0.029
    by_module = tracer.self_time_by_module()
    assert by_module["layer_a"][0] == outer.self_wall
    assert by_module["layer_b"][0] == inner.self_wall
    (span,) = tracer.spans("fake.inner")
    assert span.parent == "fake.outer"


def test_restore_puts_the_originals_back():
    mod = fake_module()
    original_outer, original_inner = mod.outer, mod.inner
    with traced(mod):
        assert mod.outer is not original_outer
    assert mod.outer is original_outer and mod.inner is original_inner


def test_threads_keep_separate_stacks():
    mod = fake_module()
    barrier = threading.Barrier(2)

    def call():
        barrier.wait(timeout=10)
        mod.outer()

    with traced(mod) as tracer:
        threads = [threading.Thread(target=call, name=f"t{i}") for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    inner_spans = tracer.spans("fake.inner")
    assert sorted(s.thread for s in inner_spans) == ["t0", "t1"]
    assert all(s.parent == "fake.outer" for s in inner_spans)
    for name in ("t0", "t1"):
        per_thread = tracer.self_time_by_module(thread=name)
        # Each thread's outer excludes only its own inner call, so its
        # self CPU time stays near its own 10 ms of work.
        assert 0.009 < per_thread["layer_a"][1] < 0.019
        assert 0.019 < per_thread["layer_b"][1] < 0.029
    outer_spans = tracer.spans("fake.outer")
    assert all(s.parent is None for s in outer_spans)


def test_errors_are_counted_and_raised():
    mod = types.ModuleType("fake")

    def fails():
        raise ValueError("boom")

    mod.fails = fails
    with Tracer() as tracer:
        tracer.wrap(mod, "fails", "fake.fails", "layer", size=lambda args, result: 1)
        try:
            mod.fails()
        except ValueError:
            pass
        else:
            raise AssertionError("the wrapped error was swallowed")
    agg = tracer.aggregates()["fake.fails"]
    assert (agg.calls, agg.errors, agg.size) == (1, 1, 0)


def test_phase_labels_aggregates():
    mod = fake_module()
    with traced(mod) as tracer:
        mod.inner()
        tracer.phase = "timed"
        mod.inner()
        mod.inner()
    assert tracer.aggregates("setup")["fake.inner"].calls == 1
    assert tracer.aggregates("timed")["fake.inner"].calls == 2
    assert tracer.aggregates()["fake.inner"].calls == 3
