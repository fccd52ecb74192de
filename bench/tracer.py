"""Outside-in span recorder for the benchmark's traced runs.

The recorder replaces a function under the name its caller looks it up by
(for example ``fedhosp.federation.train``, which ``local_update`` calls) with
a wrapper that times each call. Per call it records wall time
(``time.perf_counter``), the calling thread's CPU time (``time.thread_time``)
and the enclosing span on a per-thread stack, so a span's self time is its
duration minus the time its children on the same thread took, and wall time
minus CPU time is what the thread spent waiting (for the interpreter lock,
the scheduler or a peer).

Spans stay in memory. Every wrapped name gets a per-(phase, label) aggregate;
names wrapped with ``full=True`` also keep one record per call, for
latency distributions. ``restore`` puts every original function back.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["Aggregate", "Span", "Tracer"]


@dataclass
class Aggregate:
    """Totals over every call of one label in one phase."""

    calls: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    self_wall: float = 0.0
    self_cpu: float = 0.0
    size: int = 0
    errors: int = 0

    def add(self, other: "Aggregate") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.cpu += other.cpu
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        self.size += other.size
        self.errors += other.errors


@dataclass(frozen=True)
class Span:
    """One call of a name wrapped with ``full=True``."""

    label: str
    module: str
    thread: str
    phase: str
    start: float
    wall: float
    cpu: float
    self_wall: float
    self_cpu: float
    parent: str | None
    error: bool


class _Frame:
    __slots__ = ("label", "child_wall", "child_cpu")

    def __init__(self, label: str):
        self.label = label
        self.child_wall = 0.0
        self.child_cpu = 0.0


class _ThreadState:
    def __init__(self, name: str):
        self.name = name
        self.stack: list[_Frame] = []
        self.aggregates: dict[tuple[str, str], Aggregate] = {}
        self.spans: list[Span] = []


class Tracer:
    """Wraps functions, records their spans, and puts them back on restore.

    ``phase`` labels every span recorded while it is set, so set-up work and
    the timed call can be told apart afterwards.
    """

    def __init__(self):
        self.phase = "setup"
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.modules: dict[str, str] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def wrap(self, owner, attr: str, label: str, module: str, *,
             full: bool = False, size=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a timed wrapper.

        ``module`` names the layer the wrapped code belongs to. ``size``, if
        given, is called as ``size(args, result)`` after a successful call
        and its value summed into the aggregate, for per-row or per-episode
        rates.
        """
        original = vars(owner)[attr]
        tracer = self
        self.modules[label] = module

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(label)
            stack.append(frame)
            error = True
            result = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                error = False
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                wall = t1 - t0
                cpu = c1 - c0
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                self_wall = wall - frame.child_wall
                self_cpu = cpu - frame.child_cpu
                key = (tracer.phase, label)
                agg = state.aggregates.get(key)
                if agg is None:
                    agg = state.aggregates[key] = Aggregate()
                agg.calls += 1
                agg.wall += wall
                agg.cpu += cpu
                agg.self_wall += self_wall
                agg.self_cpu += self_cpu
                if error:
                    agg.errors += 1
                elif size is not None:
                    agg.size += size(args, result)
                if full:
                    state.spans.append(Span(
                        label, module, state.name, tracer.phase, t0, wall, cpu,
                        self_wall, self_cpu, parent.label if parent else None, error,
                    ))

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregates(self, phase: str | None = None) -> dict[str, Aggregate]:
        """Per-label totals over all threads, for one phase or for all."""
        out: dict[str, Aggregate] = {}
        with self._threads_lock:
            states = list(self._threads)
        for state in states:
            for (ph, label), agg in list(state.aggregates.items()):
                if phase is None or ph == phase:
                    out.setdefault(label, Aggregate()).add(agg)
        return out

    def spans(self, label: str | None = None, phase: str | None = None) -> list[Span]:
        """Full spans over all threads, in start order."""
        with self._threads_lock:
            states = list(self._threads)
        found = [s for state in states for s in state.spans
                 if (label is None or s.label == label)
                 and (phase is None or s.phase == phase)]
        return sorted(found, key=lambda s: s.start)

    def self_time_by_module(self, phase: str | None = None,
                            thread: str | None = None) -> dict[str, tuple[float, float]]:
        """(self wall, self CPU) seconds per module, optionally for one thread."""
        out: dict[str, list[float]] = {}
        with self._threads_lock:
            states = [s for s in self._threads if thread is None or s.name == thread]
        for state in states:
            for (ph, label), agg in list(state.aggregates.items()):
                if phase is None or ph == phase:
                    acc = out.setdefault(self.modules[label], [0.0, 0.0])
                    acc[0] += agg.self_wall
                    acc[1] += agg.self_cpu
        return {m: (w, c) for m, (w, c) in out.items()}
