"""Suite-wide fixtures and Hypothesis settings."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from fedhosp.federation import run_server_rounds, wait_for_registrations, worker_loop
from fedhosp.metrics import evaluate
from fedhosp.models import forward
from fedhosp.transport import TcpTransport

# Every run draws the same examples and replays nothing from a local
# example database, so a pass or a failure does not depend on past runs.
# Each test's own max_examples still applies.
settings.register_profile("fedhosp", derandomize=True, database=None)
settings.load_profile("fedhosp")


@pytest.fixture(autouse=True)
def no_leaked_hospital_threads():
    """Fail a test that leaves a ``hospital-*`` worker thread running.

    Threads the test started get up to 1 s in all to finish after it.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    leaked = []
    for t in threading.enumerate():
        if t in before or not t.name.startswith("hospital-"):
            continue
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            leaked.append(t.name)
    if leaked:
        pytest.fail(f"test left hospital threads running: {sorted(leaked)}")


@pytest.fixture
def tcp_federation():
    """``run(hospitals, arch, fed_cfg, train_cfg, transport=None) -> (state,
    evals, transport)``: a federation over TCP, loopback unless ``transport``
    is given, run as ``fedhosp serve`` and ``fedhosp worker`` run it.

    Each hospital is a ``worker_loop`` thread named ``hospital-K`` that trains
    ``fed_cfg.local_epochs`` per round, as in ``run_federation``; the server
    waits for every registration, then runs ``run_server_rounds`` with a hook
    that evaluates the committed parameters on the pooled test rows, pooled
    at each call so that round 0's exchanges name a hospital whose rows do
    not fit before pooling can fail. The server's error is raised unchanged
    once every thread has ended: a hospital that fails in a round is named
    by ``run_server_rounds``'s "round R: hospital K: " prefix, and one that
    fails before it registers closes the listener, so the server's
    ``accept`` fails. A hospital's own error is raised only after a server
    that succeeded.
    """

    def run(hospitals, arch, fed_cfg, train_cfg, transport=None):
        transport = transport or TcpTransport("127.0.0.1", 0)
        listener = transport.listen()
        worker_cfg = replace(train_cfg, epochs=fed_cfg.local_epochs)
        failures = []  # in the order the hospitals failed

        def hospital(h):
            try:  # worker_loop closes its connection however it ends
                worker_loop(transport.connect(), h, arch, worker_cfg, fed_cfg.gate_metric)
            except Exception as exc:  # noqa: BLE001 - raised below if the server succeeds
                failures.append(exc)
                listener.close()  # the server may still wait in accept

        def evaluate_global(params):
            return evaluate(forward(arch, params, np.vstack([h.test_x for h in hospitals])),
                            np.concatenate([h.test_y for h in hospitals]))

        threads = [threading.Thread(target=hospital, args=(h,), name=f"hospital-{h.hospital_id}",
                                    daemon=True) for h in hospitals]
        for t in threads:
            t.start()
        try:
            workers = wait_for_registrations(listener, [h.hospital_id for h in hospitals])
            state, evals = run_server_rounds(workers, arch, fed_cfg, evaluate_global)
        finally:
            listener.close()
            for t in threads:
                t.join(timeout=30.0)
        if failures:
            raise failures[0]
        return state, evals, transport

    return run
