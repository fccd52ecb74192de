"""Memory footprint of a round's parameter-sized work, measured by tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts the parameter-sized vectors it holds at once.
"""

from __future__ import annotations

import socket
import threading
import tracemalloc

import numpy as np
import pytest

from fedhosp import transport as tp
from fedhosp.federation import aggregate, compute_weights
from fedhosp.models import AdamState, TrainConfig, adam_step

N = 100_000
VECTOR = 8 * N  # bytes of one float64 parameter vector


def _traced(fn):
    """(result, bytes still held after the call, peak bytes during it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_aggregate_holds_at_most_k_plus_4_vectors(k):
    rng = np.random.default_rng(k)
    updates = [rng.normal(size=N) for _ in range(k)]
    weights = compute_weights(rng.integers(1, 100, k))
    out, held, peak = _traced(lambda: aggregate(updates, weights))
    assert out.shape == (N,)
    assert held < 1.01 * VECTOR  # only the result outlives the call
    assert peak <= (k + 4.5) * VECTOR, f"peak {peak / VECTOR:.2f} vectors"


def test_encode_of_a_broadcast_makes_one_frame():
    msg = tp.BroadcastModel(round=3, params=np.random.default_rng(0).normal(size=N))
    frame, _, peak = _traced(lambda: tp.encode(msg))
    assert len(frame) == VECTOR + 13
    assert peak <= 1.1 * len(frame), f"peak {peak / len(frame):.2f} frames"


@pytest.mark.parametrize("kind", ["socketpair", "tcp"])
def test_recv_of_a_frame_peaks_at_two_frames_and_keeps_one(kind):
    if kind == "socketpair":
        worker, server = map(tp.TcpConnection, socket.socketpair())
    else:
        transport = tp.TcpTransport("127.0.0.1", 0)
        listener = transport.listen()
        accepted = []
        thread = threading.Thread(target=lambda: accepted.append(listener.accept()))
        thread.start()
        worker = transport.connect()
        thread.join(timeout=5)
        listener.close()
        server = accepted[0]
    msg = tp.BroadcastModel(round=3, params=np.random.default_rng(0).normal(size=N))
    frame = tp.encode(msg)
    sender = threading.Thread(target=lambda: worker._sock.sendall(frame))  # allocates nothing
    try:
        def receive():
            sender.start()
            return server.recv(timeout=10.0)

        got, held, peak = _traced(receive)
    finally:
        sender.join(timeout=5)
        worker.close()
        server.close()
    assert got == msg
    # The chunks and their one join: 2.002-2.003 frames before the one-pass read too.
    assert peak <= 2.01 * len(frame), f"peak {peak / len(frame):.3f} frames"
    assert held < 1.01 * len(frame)  # the frame, kept alive by its params view
    assert type(got.params.base) is bytes and len(got.params.base) == len(frame)


def test_adam_workspace_holds_four_vectors_and_a_step_allocates_none():
    state, held, _ = _traced(lambda: AdamState(N))
    vectors = [a for a in vars(state).values() if isinstance(a, np.ndarray)]
    assert [a.size for a in vectors] == [N] * 4
    assert 4 * VECTOR <= held < 4.01 * VECTOR
    params, grads = np.zeros(N), np.ones(N)
    _, _, peak = _traced(lambda: adam_step(params, grads, state, TrainConfig(epochs=1, seed=0)))
    assert peak < 0.01 * VECTOR
