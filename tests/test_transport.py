"""Wire-format and transport tests: byte layout, round trips, failure modes."""

from __future__ import annotations

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhosp import transport as tp

ALL_FIXED = [
    tp.Shutdown(),
    tp.Register(hospital_id=7, n_train=1000, n_test=250),
    tp.BroadcastModel(round=3, params=np.array([1.5, -2.0])),
    tp.LocalUpdate(hospital_id=2, round=3, n_samples=512, params=np.array([0.25])),
    tp.EvalRequest(round=9, params=np.array([])),
    tp.EvalResult(hospital_id=1, round=9, value=0.875, n_test=100),
]


def test_shutdown_frame_bytes():
    assert tp.encode(tp.Shutdown()) == bytes.fromhex("0100000006")


def test_broadcast_frame_bytes():
    frame = tp.encode(tp.BroadcastModel(round=0, params=np.array([1.0])))
    assert frame == bytes.fromhex("11000000" "02" "00000000" "01000000"
                                  "000000000000f03f")
    assert struct.unpack("<I", frame[:4])[0] == 17  # payload length prefix


def test_register_frame_layout():
    frame = tp.encode(tp.Register(hospital_id=7, n_train=100, n_test=50))
    expected = struct.pack("<IBIQQ", 21, 0x01, 7, 100, 50)
    assert frame == expected


def test_decode_inverts_encode_on_fixed_messages():
    for msg in ALL_FIXED:
        assert tp.decode(tp.encode(msg)) == msg


_params_strategy = st.lists(
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False, width=64),
    min_size=0, max_size=64,
).map(np.array)

_message_strategy = st.one_of(
    st.just(tp.Shutdown()),
    st.builds(tp.Register, hospital_id=st.integers(0, 2**32 - 1),
              n_train=st.integers(0, 2**64 - 1), n_test=st.integers(0, 2**64 - 1)),
    st.builds(tp.BroadcastModel, round=st.integers(0, 2**32 - 1),
              params=_params_strategy),
    st.builds(tp.LocalUpdate, hospital_id=st.integers(0, 2**32 - 1),
              round=st.integers(0, 2**32 - 1), n_samples=st.integers(0, 2**64 - 1),
              params=_params_strategy),
    st.builds(tp.EvalRequest, round=st.integers(0, 2**32 - 1), params=_params_strategy),
    st.builds(tp.EvalResult, hospital_id=st.integers(0, 2**32 - 1),
              round=st.integers(0, 2**32 - 1),
              value=st.floats(allow_nan=False, allow_infinity=False),
              n_test=st.integers(0, 2**64 - 1)),
)


@given(_message_strategy)
@settings(max_examples=250, deadline=None)
def test_codec_round_trip_property(msg):
    assert tp.decode(tp.encode(msg)) == msg


def test_codec_handles_large_parameter_vector():
    params = np.random.default_rng(0).normal(size=100_000)
    decoded = tp.decode(tp.encode(tp.BroadcastModel(round=1, params=params)))
    assert np.array_equal(decoded.params, params)


def _framed(tag: int, body: bytes) -> bytes:
    return struct.pack("<IB", 1 + len(body), tag) + body


@given(st.one_of(
    st.binary(max_size=64),
    st.builds(_framed, st.integers(1, 6), st.binary(max_size=64)),
))
@settings(max_examples=500, deadline=None)
def test_decode_fuzz_rejects_or_round_trips_exactly(frame):
    """Any byte string is either a typed error or the canonical frame of a message."""
    try:
        msg = tp.decode(frame)
    except tp.TransportError:
        return
    assert tp.encode(msg) == frame


def test_decode_unknown_tag():
    frame = struct.pack("<IB", 1, 0xFF)
    with pytest.raises(tp.ProtocolError, match="0xFF"):
        tp.decode(frame)


def test_decode_truncated_frame():
    frame = struct.pack("<I", 100) + b"\x06"
    with pytest.raises(tp.FramingError, match="declares 100"):
        tp.decode(frame)
    with pytest.raises(tp.FramingError, match="length prefix"):
        tp.decode(b"\x01")


def test_decode_trailing_bytes():
    with pytest.raises(tp.FramingError, match="trailing"):
        tp.decode(tp.encode(tp.Shutdown()) + b"\x00")


def test_decode_rejects_non_finite_params():
    payload = b"\x02" + struct.pack("<II", 0, 1) + struct.pack("<d", float("nan"))
    frame = struct.pack("<I", len(payload)) + payload
    with pytest.raises(tp.ProtocolError, match="non-finite"):
        tp.decode(frame)


def test_decode_short_payload():
    payload = b"\x02" + struct.pack("<I", 0)  # BroadcastModel missing its params
    frame = struct.pack("<I", len(payload)) + payload
    with pytest.raises(tp.ProtocolError, match="too short"):
        tp.decode(frame)


def test_messages_validate_fields():
    with pytest.raises(ValueError, match="u32"):
        tp.Register(hospital_id=-1, n_train=1, n_test=1)
    with pytest.raises(ValueError, match="non-finite"):
        tp.BroadcastModel(round=0, params=np.array([np.inf]))
    with pytest.raises(ValueError, match="flat"):
        tp.BroadcastModel(round=0, params=np.zeros((2, 3)))
    for value in (None, "x", np.nan):
        with pytest.raises(ValueError, match="finite number"):
            tp.EvalResult(hospital_id=1, round=0, value=value, n_test=1)


def test_vocabulary_cannot_carry_data_rows():
    """No message field can hold a feature matrix or a label vector."""
    import dataclasses

    for msg_type in tp.MESSAGE_TYPES:
        for f in dataclasses.fields(msg_type):
            assert f.name in {
                "hospital_id", "round", "n_train", "n_test", "n_samples",
                "value", "params",
            }
    # the only sequence-typed field is params, and it must be 1-D floats
    with pytest.raises(ValueError):
        tp.LocalUpdate(hospital_id=1, round=0, n_samples=2, params=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        tp.EvalRequest(round=0, params=np.full(3, np.nan))


def test_in_process_send_recv_identity():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    worker = transport.connect()
    server = listener.accept()
    for msg in ALL_FIXED:
        worker.send(msg)
        assert server.recv() == msg
    server.send(tp.Shutdown())
    assert worker.recv() == tp.Shutdown()
    worker.close()
    server.close()


def test_in_process_byte_counters_match_frames():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    worker = transport.connect()
    server = listener.accept()
    msg = tp.BroadcastModel(round=0, params=np.arange(10.0))
    worker.send(msg)
    server.recv()
    assert worker.bytes_sent == len(tp.encode(msg))
    assert server.bytes_received == worker.bytes_sent
    assert transport.total_wire_bytes == worker.bytes_sent
    worker.close()
    server.close()


def test_in_process_close_unblocks_peer():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    worker = transport.connect()
    server = listener.accept()
    results = []

    def blocked_recv():
        try:
            server.recv()
        except tp.TransportClosedError:
            results.append("closed")

    thread = threading.Thread(target=blocked_recv)
    thread.start()
    worker.close()
    thread.join(timeout=5)
    assert results == ["closed"]
    with pytest.raises(tp.TransportClosedError):
        worker.send(tp.Shutdown())
    server.close()


@pytest.mark.parametrize("make_transport", [tp.InProcessTransport, tp.TcpTransport],
                         ids=["inprocess", "tcp"])
def test_listener_close_releases_a_connection_never_accepted(make_transport):
    transport = make_transport()
    listener = transport.listen()
    worker = transport.connect()
    worker.send(tp.Register(hospital_id=1, n_train=10, n_test=10))
    listener.close()
    outcome = []

    def recv():
        try:
            worker.recv()
        except tp.TransportClosedError:
            outcome.append("closed")

    thread = threading.Thread(target=recv, daemon=True)
    thread.start()
    thread.join(timeout=1.0)
    released = not thread.is_alive()
    worker.close()  # releases the thread if the listener left it waiting
    thread.join(timeout=1.0)
    assert released, "recv still waiting 1 s after the listener closed"
    assert outcome == ["closed"]


def _tcp_pair():
    listener = tp.server_listen("127.0.0.1", 0)
    host, port = listener.address
    accepted = []
    thread = threading.Thread(target=lambda: accepted.append(listener.accept()))
    thread.start()
    client = tp.worker_connect(host, port)
    thread.join(timeout=5)
    listener.close()
    return client, accepted[0]


def test_tcp_register_round_trip():
    client, server = _tcp_pair()
    try:
        msg = tp.Register(hospital_id=3, n_train=17, n_test=5)
        client.send(msg)
        assert server.recv() == msg
        big = tp.BroadcastModel(round=1, params=np.arange(5000.0))
        server.send(big)
        assert client.recv() == big
    finally:
        client.close()
        server.close()


def test_tcp_clean_close_signals_end_of_session():
    client, server = _tcp_pair()
    client.close()
    with pytest.raises(tp.TransportClosedError):
        server.recv()
    server.close()


def _in_process_pair():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    worker = transport.connect()
    return worker, listener.accept()


PAIRS = pytest.mark.parametrize("pair", [_in_process_pair, _tcp_pair], ids=["inprocess", "tcp"])


@PAIRS
def test_mid_frame_close_is_a_framing_error(pair):
    worker, server = pair()
    worker._sock.sendall(struct.pack("<I", 64) + b"\x02\x00")  # declares 64, sends 2
    worker.close()
    with pytest.raises(tp.FramingError, match="mid-frame"):
        server.recv()
    server.close()


@PAIRS
def test_huge_length_prefix_allocates_only_what_arrives(pair):
    worker, server = pair()
    worker._sock.sendall(struct.pack("<I", 0xFFFFFFFF) + b"\x02\x00")  # declares 4 GiB, sends 2
    worker.close()
    tracemalloc.start()
    try:
        with pytest.raises(tp.FramingError, match="mid-frame"):
            server.recv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        server.close()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("pair", [_in_process_pair, _tcp_pair], ids=["inprocess", "tcp"])
def test_recv_timeout_expires_and_the_connection_still_works(pair):
    worker, server = pair()
    msg = tp.Register(hospital_id=1, n_train=2, n_test=3)
    try:
        with pytest.raises(tp.TransportError, match="within"):
            server.recv(timeout=0.05)
        worker.send(msg)
        assert server.recv(timeout=5.0) == msg
        if isinstance(server, tp.TcpConnection):
            assert server._sock.gettimeout() is None  # blocking again for round traffic
        worker.send(msg)
        assert server.recv() == msg
    finally:
        worker.close()
        server.close()


@PAIRS
def test_recv_timeout_is_a_deadline_for_the_whole_frame(pair):
    client, server = pair()
    frame = tp.encode(tp.Register(hospital_id=1, n_train=2, n_test=3))
    stop = threading.Event()

    def drip():  # one byte every 50 ms: 25 bytes take 1.25 s
        for i in range(len(frame)):
            if stop.wait(0.05):
                return
            client._sock.sendall(frame[i:i + 1])

    thread = threading.Thread(target=drip)
    thread.start()
    start = time.monotonic()
    try:
        with pytest.raises(tp.TransportError, match="within"):
            server.recv(timeout=0.3)
        assert time.monotonic() - start < 1.0
    finally:
        stop.set()
        thread.join(timeout=5)
        client.close()
        server.close()


def test_connect_refused_is_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listening here any more
    with pytest.raises(tp.TransportError, match="cannot connect"):
        tp.worker_connect("127.0.0.1", port, timeout=2.0)
