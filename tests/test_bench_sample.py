"""The benchmark's workloads still run against the program as it is.

``bench/sample.py`` calls fedhosp's public functions with its own configs; a
changed signature or default would otherwise surface only as failed samples
of ``python3 bench/run.py``. Each workload runs here at a few rounds on a
few hundred episodes, under the same ``Clock`` a sample uses, untraced and
traced as ``--trace 1`` traces it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from fedhosp.transport import TcpTransport

BENCH = Path(__file__).resolve().parents[1] / "bench"
# fed-lr-tcp's server waits in accept until every hospital registers; a
# hospital thread that fails first would leave it waiting for good.
ACCEPT_TIMEOUT_S = 10.0


@pytest.fixture
def sample(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("sample")
    monkeypatch.setitem(module.INGEST, "episodes", 200)
    monkeypatch.setitem(module.INGEST, "epochs", 3)
    for sizes in (module.FED_MLP, module.FED_LR_TCP):
        monkeypatch.setitem(sizes, "episodes", 200)
        monkeypatch.setitem(sizes, "rounds", 3)
    listen = TcpTransport.listen

    def listen_with_timeout(transport):
        listener = listen(transport)
        listener._sock.settimeout(ACCEPT_TIMEOUT_S)
        return listener

    monkeypatch.setattr(TcpTransport, "listen", listen_with_timeout)
    return module


@pytest.mark.parametrize("workload", ["ingest", "fed-mlp", "fed-lr-tcp"])
def test_every_workload_runs_and_passes_its_checks(sample, workload, tmp_path):
    clock = sample.Clock(workload in sample.INTERPRETED)
    out = sample.RUNNERS[workload](1, tmp_path, clock)  # raises CheckFailed on a bad output
    assert clock.wall_s is not None and 0.0 <= out["auroc"] <= 1.0
    if workload == "fed-lr-tcp":
        assert sample.run_fed_lr_inprocess(1)["digest"] == out["digest"]


@pytest.mark.parametrize("workload", ["ingest", "fed-mlp", "fed-lr-tcp"])
def test_every_traced_workload_makes_the_counts_its_config_implies(sample, workload, tmp_path):
    """A sample of ``bench/sample.py --trace 1``: the traced steps, rounds and
    frames match the config, and ingest times its CSV load and extraction."""
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    layers.install(tracer)
    try:
        out = sample.RUNNERS[workload](1, tmp_path, sample.Clock(workload in sample.INTERPRETED,
                                                                 tracer))
    finally:
        tracer.restore()
    per_layer = layers.metrics(tracer, out)
    assert layers.count_mismatches(tracer, out, per_layer) == []
    if workload == "ingest":
        assert per_layer["data.load_ms_per_1k_episodes"] > 0
        assert per_layer["features.extract_ms_per_1k_episodes"] > 0
