"""Wire-format and transport tests: byte layout, round trips, failure modes."""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedhosp import transport as tp
from fedhosp.checks import MAX_PARAMS

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
@example(_framed(0x02, struct.pack("<II", 0, 0)))  # params count 0
@example(_framed(0x02, struct.pack("<II", 0, 2) + bytes(8)))  # count one element past the payload
@example(_framed(0x04, struct.pack("<II", 0, 0xFFFFFFFF)))  # count 0xFFFFFFFF
@example(_framed(0x01, bytes(19)))  # Register's head one byte short
@settings(max_examples=500, deadline=None)
def test_decode_fuzz_rejects_or_round_trips_exactly(frame):
    """Any byte string is either a typed error or the canonical frame of a message."""
    try:
        msg = tp.decode(frame)
    except tp.TransportError:
        return
    assert tp.encode(msg) == frame


# sha256 of one frame of each type, with params of the two sizes the
# benchmark ships (LR and MLP): a codec change must not move a byte.
_PARAMS = {n: np.random.default_rng(11).normal(size=n) for n in (295, 14_801)}
FRAME_DIGESTS = [
    (tp.BroadcastModel(round=7, params=_PARAMS[295]),
     "e9f56265b673e55d155fa7136aa568ce2d792b37edd6f582290c932908d816ba"),
    (tp.LocalUpdate(hospital_id=2, round=7, n_samples=1234, params=_PARAMS[295]),
     "a3029f1e6b198a067d4ad3670a72d546f8545e4cbef3dbfff68a3e21317e5dbb"),
    (tp.EvalRequest(round=7, params=_PARAMS[295]),
     "7919cad367b6303d6c5f5fbd385d1d848a1040566314015917e5f875339f9f70"),
    (tp.BroadcastModel(round=7, params=_PARAMS[14_801]),
     "6d494151fa01433e2da67b288045e5bd13757faff00c8ba8ed8f51e9ffdabe0b"),
    (tp.LocalUpdate(hospital_id=2, round=7, n_samples=1234, params=_PARAMS[14_801]),
     "82ebe1320b0d8de76b3531921a8c569f05d0965a5790df3c5ffb39deebe8bd01"),
    (tp.EvalRequest(round=7, params=_PARAMS[14_801]),
     "d8e0adb21d8f2fbc1aabd30539e38da9b78683bfb956011908d4814caa03d32d"),
    (tp.Register(hospital_id=3, n_train=1234, n_test=321),
     "cdae591228636e4de644ddf1f3328d64083d898bb5931746767b8cfc0efd0fed"),
    (tp.EvalResult(hospital_id=3, round=7, value=0.8125, n_test=321),
     "743baabe932e368987073a1495d1549364230e9181248616c19632400ce0f1cb"),
    (tp.Shutdown(),
     "e796ab719977ae4dc43c484a30b263fcedaf016d07eb4c1cd6edeb0551d39aaf"),
]


@pytest.mark.parametrize("msg, digest", FRAME_DIGESTS, ids=[
    type(m).__name__ + (f"-{m.params.size}" if hasattr(m, "params") else "")
    for m, _ in FRAME_DIGESTS])
def test_frame_bytes_are_pinned_by_digest(msg, digest):
    frame = tp.encode(msg)
    assert hashlib.sha256(frame).hexdigest() == digest
    assert tp.decode(frame) == msg


_P = _PARAMS[295]


@pytest.mark.parametrize("params", [
    _P[::2],
    _P.astype(">f8"),
    tp.decode(tp.encode(tp.BroadcastModel(round=0, params=_P))).params,
    np.array([]),
], ids=["strided", "big-endian", "read-only-view", "empty"])
def test_any_params_layout_encodes_as_a_contiguous_native_copy(params):
    native = np.array(params, dtype=np.float64, order="C")
    for cls, fields in ((tp.BroadcastModel, {"round": 4}), (tp.EvalRequest, {"round": 4}),
                        (tp.LocalUpdate, {"hospital_id": 1, "round": 4, "n_samples": 9})):
        assert tp.encode(cls(**fields, params=params)) == tp.encode(cls(**fields, params=native))
    frame = tp.encode(tp.BroadcastModel(round=4, params=params))
    assert type(frame) is bytes
    assert len(frame) == 13 + 8 * native.size
    assert frame[13:] == native.astype("<f8").tobytes()


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


NON_FINITE = pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                                     ids=["nan", "+inf", "-inf"])


def _constructor_error(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@NON_FINITE
def test_decode_rejects_a_non_finite_eval_value_with_the_constructor_message(bad):
    frame = struct.pack("<IBIIdQ", 25, 0x05, 1, 9, bad, 100)
    expected = _constructor_error(lambda: tp.EvalResult(hospital_id=1, round=9, value=bad,
                                                        n_test=100))
    with pytest.raises(tp.ProtocolError) as info:
        tp.decode(frame)
    assert str(info.value) == expected == f"value must be finite, got {bad!r}"


@NON_FINITE
@pytest.mark.parametrize("msg", [
    tp.BroadcastModel(round=3, params=np.array([1.5, -2.0])),
    tp.LocalUpdate(hospital_id=2, round=3, n_samples=512, params=np.array([0.25])),
    tp.EvalRequest(round=9, params=np.array([0.5, 0.75, 1.0])),
], ids=lambda m: type(m).__name__)
def test_decode_rejects_a_non_finite_last_param_with_the_constructor_message(msg, bad):
    frame = tp.encode(msg)[:-8] + struct.pack("<d", bad)
    params = np.append(msg.params[:-1], bad)
    fields = {name: getattr(msg, name) for name, _ in msg.FIELDS}
    expected = _constructor_error(lambda: type(msg)(**{**fields, "params": params}))
    with pytest.raises(tp.ProtocolError) as info:
        tp.decode(frame)
    assert str(info.value) == expected == "params contain non-finite values"


_INT_FIELD_CASES = [
    (msg, name, value)
    for msg in ALL_FIXED
    for name, wire in msg.FIELDS if wire in ("u32", "u64")
    for value in (0, 2 ** (32 if wire == "u32" else 64) - 1)
]


@pytest.mark.parametrize("msg, name, value", _INT_FIELD_CASES, ids=[
    f"{type(m).__name__}.{n}={v}" for m, n, v in _INT_FIELD_CASES])
def test_int_fields_at_their_bounds_decode_to_the_constructed_message(msg, name, value):
    built = type(msg)(**{**{n: getattr(msg, n) for n, _ in msg.FIELDS}, name: value})
    decoded = tp.decode(tp.encode(built))
    assert decoded == built
    assert type(getattr(decoded, name)) is int and getattr(decoded, name) == value
    assert hash(decoded) == hash(built)


def test_decode_short_payload():
    payload = b"\x02" + struct.pack("<I", 0)  # BroadcastModel missing its params
    frame = struct.pack("<I", len(payload)) + payload
    with pytest.raises(tp.ProtocolError, match="too short"):
        tp.decode(frame)
    with pytest.raises(tp.ProtocolError, match=r"^empty payload \(missing type tag\)$"):
        tp.decode(struct.pack("<I", 0))


def test_encode_rejects_what_is_not_a_message():
    with pytest.raises(tp.ProtocolError, match="^not a protocol message: dict$"):
        tp.encode({"round": 0})


def test_messages_validate_fields():
    with pytest.raises(ValueError, match="u32"):
        tp.Register(hospital_id=-1, n_train=1, n_test=1)
    with pytest.raises(ValueError, match="non-finite"):
        tp.BroadcastModel(round=0, params=np.array([np.inf]))
    with pytest.raises(ValueError, match="flat"):
        tp.BroadcastModel(round=0, params=np.zeros((2, 3)))
    for value, words in ((None, "float"), ("x", "float"), (np.nan, "finite")):
        with pytest.raises(ValueError, match=f"^value must be {words}, got "):
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


class _Scripted:
    """An inline peer: registers with ``first``, keeps every message it is
    sent and answers each with the next of ``replies`` (None once they run out)."""

    def __init__(self, first, *replies):
        self.first, self.replies, self.received = first, list(replies), []

    def register(self):
        return self.first

    def handle(self, msg):
        self.received.append(msg)
        return self.replies.pop(0) if self.replies else None


def test_in_process_send_recv_identity():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    peer = _Scripted(ALL_FIXED[1], *ALL_FIXED)
    transport.connect(peer)
    server = listener.accept()
    assert server.recv() == ALL_FIXED[1]
    for msg in ALL_FIXED:
        server.send(msg)
        assert server.recv() == msg
    assert peer.received == ALL_FIXED
    server.close()


def test_in_process_byte_counters_match_frames():
    transport = tp.InProcessTransport()
    register = tp.Register(hospital_id=1, n_train=10, n_test=10)
    reply = tp.LocalUpdate(hospital_id=1, round=0, n_samples=10, params=np.arange(3.0))
    server = transport.connect(_Scripted(register, reply))
    msg = tp.BroadcastModel(round=0, params=np.arange(10.0))
    assert server.bytes_received == len(tp.encode(register))  # counted as the peer sends it
    server.send(msg)
    assert server.bytes_sent == len(tp.encode(msg))
    assert server.bytes_received == len(tp.encode(register)) + len(tp.encode(reply))
    assert transport.total_wire_bytes == server.bytes_sent + server.bytes_received
    server.close()


def test_in_process_peer_failure_closes_the_connection():
    failure = ZeroDivisionError("local training failed")

    class Failing(_Scripted):
        def handle(self, msg):
            raise failure

    transport = tp.InProcessTransport()
    server = transport.connect(Failing(tp.Register(hospital_id=1, n_train=10, n_test=10)))
    with pytest.raises(tp.TransportClosedError, match="local training failed") as info:
        server.send(tp.BroadcastModel(round=0, params=np.zeros(3)))
    assert info.value.__cause__ is failure
    with pytest.raises(tp.TransportClosedError):
        server.recv()  # the Register still queued went with the connection
    with pytest.raises(tp.TransportClosedError):
        server.send(tp.Shutdown())


def test_in_process_recv_with_no_reply_waiting_fails_at_once():
    transport = tp.InProcessTransport()
    server = transport.connect(_Scripted(tp.Register(hospital_id=1, n_train=10, n_test=10)))
    server.recv()
    server.send(tp.Shutdown())  # answered with no reply
    for timeout in (None, 5.0):
        start = time.monotonic()
        with pytest.raises(tp.TransportError, match="no message waiting"):
            server.recv(timeout=timeout)
        assert time.monotonic() - start < 1.0
    server.close()


def test_in_process_listener_hands_out_connections_in_order_then_fails():
    transport = tp.InProcessTransport()
    listener = transport.listen()
    first, second, never = (transport.connect(_Scripted(tp.Register(k, 10, 10)))
                            for k in (1, 2, 3))
    assert listener.accept() is first and listener.accept() is second
    listener.close()  # closes the connection never accepted
    assert never._closed and not first._closed
    with pytest.raises(tp.TransportClosedError):
        listener.accept()
    first.close(), second.close()


def test_listener_close_releases_a_connection_never_accepted():
    transport = tp.TcpTransport()
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
    transport = tp.TcpTransport("127.0.0.1", 0)
    listener = transport.listen()
    accepted = []
    thread = threading.Thread(target=lambda: accepted.append(listener.accept()))
    thread.start()
    client = transport.connect()
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
    server.close()  # a second close does nothing
    with pytest.raises(tp.TransportClosedError, match="^send failed: "):
        server.send(tp.Shutdown())


def _socketpair():
    """Two ``TcpConnection`` ends of one ``socket.socketpair()``."""
    return tuple(map(tp.TcpConnection, socket.socketpair()))


PAIRS = pytest.mark.parametrize("pair", [_socketpair, _tcp_pair], ids=["socketpair", "tcp"])


@PAIRS
def test_mid_frame_close_is_a_framing_error(pair):
    worker, server = pair()
    worker._sock.sendall(struct.pack("<I", 64) + b"\x02\x00")  # declares 64, sends 2
    worker.close()
    with pytest.raises(tp.FramingError, match="mid-frame"):
        server.recv()
    server.close()


def test_the_largest_frame_is_a_local_update_of_max_params():
    frame = tp.encode(tp.LocalUpdate(hospital_id=1, round=0, n_samples=1,
                                     params=np.zeros(MAX_PARAMS)))
    assert len(frame) - 4 == tp._MAX_PAYLOAD == 8_000_021


@PAIRS
@pytest.mark.parametrize("declared", [tp._MAX_PAYLOAD + 1, 0xFFFFFFF0])
def test_a_prefix_above_the_largest_frame_is_refused_at_once(pair, declared):
    worker, server = pair()
    worker._sock.sendall(struct.pack("<I", declared))  # the prefix alone; the peer stays open
    start = time.monotonic()
    try:
        with pytest.raises(tp.FramingError, match=f"^frame declares {declared} payload bytes, "
                                                  f"more than the {tp._MAX_PAYLOAD} "):
            server.recv(timeout=2.0)
        assert time.monotonic() - start < 1.0
    finally:
        worker.close()
        server.close()


@PAIRS
def test_huge_length_prefix_allocates_only_what_arrives(pair):
    worker, server = pair()
    # declares the largest frame allowed, 8 MB, which the bound lets through; sends 2 bytes
    worker._sock.sendall(struct.pack("<I", tp._MAX_PAYLOAD) + b"\x02\x00")
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


@PAIRS
def test_recv_timeout_expires_and_the_connection_still_works(pair):
    worker, server = pair()
    msg = tp.Register(hospital_id=1, n_train=2, n_test=3)
    try:
        with pytest.raises(tp.DeadlineError, match="^no complete message within the deadline$"):
            server.recv(timeout=0.05)  # a silent peer
        worker.send(msg)
        assert server.recv(timeout=5.0) == msg
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
        with pytest.raises(tp.DeadlineError, match="within"):
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
        tp.TcpTransport("127.0.0.1", port).connect()


def test_listen_on_a_port_in_use_is_transport_error():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        port = sock.getsockname()[1]
        with pytest.raises(tp.TransportError, match="cannot listen"):
            tp.TcpTransport("127.0.0.1", port).listen()


@PAIRS
def test_two_frames_in_one_write_come_back_in_order(pair):
    worker, server = pair()
    first = tp.Register(hospital_id=1, n_train=2, n_test=3)
    second = tp.LocalUpdate(hospital_id=1, round=0, n_samples=2, params=np.arange(3.0))
    frames = [tp.encode(first), tp.encode(second)]
    try:
        worker._sock.sendall(b"".join(frames))
        assert server.recv(timeout=5.0) == first
        assert server.recv(timeout=5.0) == second
        assert server.bytes_received == sum(map(len, frames))
    finally:
        worker.close()
        server.close()


class _CountingSocket:
    """A socket that counts its ``recv`` calls and delegates everything else."""

    def __init__(self, sock):
        self._sock = sock
        self.recv_calls = 0

    def recv(self, size):
        self.recv_calls += 1
        return self._sock.recv(size)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _wait_until_readable(sock, n_bytes):
    """Until ``n_bytes`` sit in the socket's receive queue, so one recv can take them."""
    deadline = time.monotonic() + 5.0
    while len(sock.recv(n_bytes, socket.MSG_PEEK)) < n_bytes:
        assert time.monotonic() < deadline, "bytes never arrived"
        time.sleep(0.001)


@PAIRS
def test_a_small_frame_costs_one_socket_recv_and_a_buffered_one_none(pair):
    worker, server = pair()
    first = tp.Register(hospital_id=1, n_train=2, n_test=3)
    second = tp.EvalResult(hospital_id=1, round=0, value=0.5, n_test=3)
    third = tp.BroadcastModel(round=1, params=np.arange(295.0))
    try:
        frames = tp.encode(first) + tp.encode(second)
        worker._sock.sendall(frames)
        _wait_until_readable(server._sock, len(frames))
        server._sock = counting = _CountingSocket(server._sock)
        assert server.recv(timeout=5.0) == first
        assert counting.recv_calls == 1
        assert server.recv(timeout=5.0) == second  # already in the buffer
        assert counting.recv_calls == 1
        worker.send(third)
        _wait_until_readable(counting._sock, len(tp.encode(third)))
        assert server.recv() == third
        assert counting.recv_calls == 2
    finally:
        worker.close()
        server.close()


@PAIRS
def test_a_large_frame_dripped_in_pieces_decodes_whole(pair):
    worker, server = pair()
    msg = tp.BroadcastModel(round=4, params=np.random.default_rng(3).normal(size=14_801))
    frame = tp.encode(msg)
    cuts = [0, 2, 7, *range(10_007, len(frame), 10_007), len(frame)]  # the prefix split too

    def drip():
        for start, stop in zip(cuts, cuts[1:]):
            worker._sock.sendall(frame[start:stop])
            time.sleep(0.002)

    thread = threading.Thread(target=drip)
    thread.start()
    try:
        assert server.recv(timeout=10.0) == msg
        assert server.bytes_received == len(frame)
    finally:
        thread.join(timeout=5)
        worker.close()
        server.close()


@PAIRS
def test_received_params_are_a_read_only_view_that_training_copies(pair):
    from fedhosp.federation import HospitalDataset, local_update
    from fedhosp.models import ModelArch, TrainConfig

    worker, server = pair()
    rng = np.random.default_rng(0)
    hospital = HospitalDataset(1, rng.normal(size=(8, 3)), np.arange(8) % 2,
                               rng.normal(size=(4, 3)), np.arange(4) % 2)
    try:
        server.send(tp.BroadcastModel(round=0, params=np.array([0.5, -0.25, 1.0, 0.0])))
        received = worker.recv(timeout=5.0).params
        assert not received.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            received[0] = 1.0
        params, _ = local_update(hospital, received, ModelArch("lr", input_dim=3),
                                 TrainConfig(epochs=1, seed=0))
        assert params.flags.writeable
        assert not np.shares_memory(params, received)
    finally:
        worker.close()
        server.close()
