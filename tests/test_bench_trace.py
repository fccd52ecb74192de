"""The benchmark's traced mode still finds every name it wraps.

``bench/layers.py`` wraps fedhosp functions and methods under the names their
callers look them up by; a rename in ``src/`` would otherwise surface only
in ``python3 bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    transport = importlib.import_module("fedhosp.transport")
    sites = [(importlib.import_module(f"fedhosp.{site}"), name)
             for site, name, *_ in layers.TRACED]
    sites += [(getattr(transport, cls), name) for cls, name in layers.TRACED_METHODS]
    missing = [f"{owner.__name__}.{name}" for owner, name in sites if name not in vars(owner)]
    assert not missing, f"traced names no longer defined where they are looked up: {missing}"

    originals = [vars(owner)[name] for owner, name in sites]
    try:
        layers.install(tracer)
        assert all(vars(owner)[name] is not original
                   for (owner, name), original in zip(sites, originals))
    finally:
        tracer.restore()
    assert all(vars(owner)[name] is original
               for (owner, name), original in zip(sites, originals))
