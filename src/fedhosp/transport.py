"""Server-hospital message vocabulary and two interchangeable transports.

``_SCHEMA`` below is the single definition of the vocabulary: one row per
message gives its type tag, name, docstring and fields in wire order. The
message classes, their validation, ``encode`` and ``decode`` are all built
from those rows.

Wire format: every frame is a 4-byte little-endian payload length followed
by the payload; the payload is a 1-byte type tag and the message fields in
schema order. Integers are little-endian (u32/u64), floats IEEE-754
little-endian 64-bit, parameter vectors a u32 element count followed by the
elements. Example frames::

    Shutdown                            01 00 00 00   06
    BroadcastModel(round=0, [1.0])      11 00 00 00   02  00 00 00 00
                                        01 00 00 00   00 00 00 00 00 00 f0 3f

The message vocabulary deliberately has no variant that could carry feature
rows or labels — only parameters, sample counts, and metric scalars — so
raw data cannot leave a hospital through this layer no matter what the
caller does.

Two transports share one connection class: TCP, and an in-process one whose
pairs are ``socket.socketpair()`` ends. Framing, receive deadlines, close
and byte counts are one implementation, so the in-process transport behaves
as the network does, and a federation run is bit-identical across the two.
"""

from __future__ import annotations

import math
import numbers
import queue
import socket
import struct
import threading
import time
from dataclasses import make_dataclass
from typing import Union

import numpy as np

__all__ = [
    "Register",
    "BroadcastModel",
    "LocalUpdate",
    "EvalRequest",
    "EvalResult",
    "Shutdown",
    "Message",
    "MESSAGE_TYPES",
    "TransportError",
    "ProtocolError",
    "FramingError",
    "TransportClosedError",
    "encode",
    "decode",
    "InProcessTransport",
    "TcpTransport",
    "server_listen",
    "worker_connect",
]

_U32 = struct.Struct("<I")

# (tag, name, docstring, ((field, wire type), ...) in wire order)
_SCHEMA = (
    (0x01, "Register", "Worker announces itself: identity plus local train/test sizes.",
     (("hospital_id", "u32"), ("n_train", "u64"), ("n_test", "u64"))),
    (0x02, "BroadcastModel", "Server pushes the current global parameters for local training.",
     (("round", "u32"), ("params", "params"))),
    (0x03, "LocalUpdate", "Worker returns locally trained parameters and its train-set size.",
     (("hospital_id", "u32"), ("round", "u32"), ("n_samples", "u64"), ("params", "params"))),
    (0x04, "EvalRequest", "Server asks a worker to score candidate parameters on local test data.",
     (("round", "u32"), ("params", "params"))),
    (0x05, "EvalResult", "Worker's local metric value plus its test-set size.",
     (("hospital_id", "u32"), ("round", "u32"), ("value", "f64"), ("n_test", "u64"))),
    (0x06, "Shutdown", "Server ends the session.", ()),
)

# Wire type -> struct of its fixed part; "params" is a u32 count, then that many f64s.
_WIRE = {"u32": _U32, "u64": struct.Struct("<Q"), "f64": struct.Struct("<d"), "params": _U32}
_INT_MAX = {"u32": 2**32 - 1, "u64": 2**64 - 1}
_ANNOTATION = {"u32": int, "u64": int, "f64": float, "params": np.ndarray}


class TransportError(Exception):
    """Base class for everything that can go wrong at this layer."""


class ProtocolError(TransportError):
    """A frame or message violates the protocol (bad tag, bad field)."""


class FramingError(TransportError):
    """A frame is incomplete or has stray bytes."""


class TransportClosedError(TransportError):
    """The peer (or this side) closed the connection."""


class _Message:
    """Validation and equality shared by the classes built from ``_SCHEMA``.

    Each subclass carries its row as ``TAG`` and ``FIELDS``.
    """

    def __post_init__(self) -> None:
        for name, wire in self.FIELDS:
            value = getattr(self, name)
            if wire == "params":
                value = np.asarray(value, dtype=np.float64)
                if value.ndim != 1:
                    raise ValueError(f"{name} must be a flat vector, got shape {value.shape}")
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{name} contain non-finite values")
                object.__setattr__(self, name, value)
            elif wire == "f64":
                if not isinstance(value, numbers.Real) or not math.isfinite(value):
                    raise ValueError(f"{name} must be a finite number, got {value!r}")
            elif not isinstance(value, (int, np.integer)) or not 0 <= value <= _INT_MAX[wire]:
                raise ValueError(f"{name} must be a {wire}, got {value!r}")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in self.FIELDS
        )

    def __hash__(self) -> int:
        return hash((self.TAG, *(getattr(self, n) for n, w in self.FIELDS if w != "params")))


MESSAGE_TYPES: tuple[type, ...] = tuple(
    make_dataclass(
        name, [(field, _ANNOTATION[wire]) for field, wire in fields],
        bases=(_Message,), frozen=True, eq=False,
        namespace={"__doc__": doc, "__module__": __name__, "TAG": tag, "FIELDS": fields},
    )
    for tag, name, doc, fields in _SCHEMA
)
Register, BroadcastModel, LocalUpdate, EvalRequest, EvalResult, Shutdown = MESSAGE_TYPES
Message = Union[MESSAGE_TYPES]

_BY_TAG = {cls.TAG: cls for cls in MESSAGE_TYPES}


def encode(msg: Message) -> bytes:
    """Serialize one message into a complete frame (length prefix included)."""
    cls = type(msg)
    if cls not in MESSAGE_TYPES:
        raise ProtocolError(f"not a protocol message: {cls.__name__}")
    parts = [bytes([cls.TAG])]
    for name, wire in cls.FIELDS:
        value = getattr(msg, name)
        if wire == "params":
            parts += [_U32.pack(value.size), value.astype("<f8").tobytes()]
        else:
            parts.append(_WIRE[wire].pack(value))
    payload = b"".join(parts)
    return _U32.pack(len(payload)) + payload


def decode(data: bytes) -> Message:
    """Parse one complete frame back into a message (inverse of encode)."""
    if len(data) < 4:
        raise FramingError(f"frame shorter than its length prefix: {len(data)} bytes")
    declared = _U32.unpack_from(data)[0]
    if len(data) < 4 + declared:
        raise FramingError(
            f"frame declares {declared} payload bytes, only {len(data) - 4} available"
        )
    if len(data) > 4 + declared:
        raise FramingError(f"frame has {len(data) - 4 - declared} trailing bytes")
    if declared == 0:
        raise ProtocolError("empty payload (missing type tag)")
    cls = _BY_TAG.get(data[4])
    if cls is None:
        raise ProtocolError(f"unknown message type tag 0x{data[4]:02X}")
    values, pos = [], 5
    try:
        for _, wire in cls.FIELDS:
            value = _WIRE[wire].unpack_from(data, pos)[0]
            pos += _WIRE[wire].size
            if wire == "params":
                value = np.frombuffer(data, "<f8", value, pos).astype(np.float64)
                pos += 8 * value.size
            values.append(value)
    except (struct.error, ValueError):  # a field runs past the end of the payload
        raise ProtocolError(
            f"payload too short for {cls.__name__}: {declared - 1} bytes after the tag"
        ) from None
    if pos != len(data):
        raise ProtocolError(f"payload has {len(data) - pos} unexpected trailing bytes")
    try:
        return cls(*values)
    except ValueError as exc:  # field validation in _Message.__post_init__
        raise ProtocolError(str(exc)) from None


# --------------------------------------------------------------------------
# connections


# Largest single recv: a frame's buffer grows only with bytes that arrive,
# never up front to whatever length prefix the peer declared.
_RECV_CHUNK = 64 * 1024


class TcpConnection:
    """Length-prefixed frames over a stream socket: TCP, or a socketpair end."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def _recv_into(self, chunks: list, n: int, deadline: float | None) -> None:
        """Append the next ``n`` bytes of the frame begun in ``chunks``."""
        while n:
            try:
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError
                    self._sock.settimeout(left)
                chunk = self._sock.recv(min(n, _RECV_CHUNK))
            except TimeoutError:
                raise TransportError("no complete message within the deadline") from None
            except OSError as exc:
                raise TransportClosedError(f"connection lost: {exc}") from None
            if not chunk:
                if chunks:
                    raise FramingError("peer closed the connection mid-frame")
                raise TransportClosedError("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)

    def send(self, msg: Message) -> None:
        frame = encode(msg)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from None
        self.bytes_sent += len(frame)

    def recv(self, timeout: float | None = None) -> Message:
        """Next message. With a ``timeout`` (s) the whole frame must arrive by
        then, else ``TransportError`` (part of a frame may have been read, so
        close the connection); without one the socket stays blocking."""
        deadline = None if timeout is None else time.monotonic() + timeout
        chunks: list[bytes] = []
        try:
            self._recv_into(chunks, 4, deadline)
            self._recv_into(chunks, _U32.unpack(b"".join(chunks))[0], deadline)
        finally:
            if deadline is not None and not self._closed:
                self._sock.settimeout(None)
        frame = b"".join(chunks)  # the frame's one copy
        self.bytes_received += len(frame)
        return decode(frame)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class InProcessConnection(TcpConnection):
    """One end of an in-process connection: a socketpair end, framed as TCP."""

    # bench/tracer.py times a method under the class whose namespace holds
    # it, so in-process traffic is counted apart from TCP traffic only if
    # this class names the shared methods itself.
    send = TcpConnection.send
    recv = TcpConnection.recv
    close = TcpConnection.close


class InProcessListener:
    def __init__(self, transport: "InProcessTransport"):
        self._transport = transport

    def accept(self) -> InProcessConnection:
        conn = self._transport._pending.get()
        if conn is None:  # the listener closed
            self._transport._pending.put(None)  # keep later accept() calls failing too
            raise TransportClosedError("listener closed")
        return conn

    def close(self) -> None:
        """Stop accepting and close every connection not yet accepted.

        Its worker's ``recv`` then raises ``TransportClosedError``, as a
        closed TCP listener resets the connections in its backlog.
        """
        transport = self._transport
        with transport._lock:
            if transport._closed:
                return
            transport._closed = True
            while True:
                try:
                    pending = transport._pending.get_nowait()
                except queue.Empty:
                    break
                pending.close()
            transport._pending.put(None)


class _Transport:
    """The ledger of every connection a transport made, both ends in-process."""

    def __init__(self):
        self._lock = threading.Lock()
        self.endpoints: list = []

    def _track(self, *conns) -> None:
        with self._lock:
            self.endpoints += conns

    @property
    def total_wire_bytes(self) -> int:
        """Every frame counted once, at its sender."""
        with self._lock:
            return sum(e.bytes_sent for e in self.endpoints)


class InProcessTransport(_Transport):
    """Socketpair-backed transport for single-process federation runs."""

    def __init__(self):
        super().__init__()
        self._pending: queue.Queue = queue.Queue()
        self._closed = False

    def listen(self) -> InProcessListener:
        return InProcessListener(self)

    def connect(self) -> InProcessConnection:
        try:
            worker_sock, server_sock = socket.socketpair()
        except OSError as exc:
            raise TransportError(f"cannot open an in-process connection: {exc}") from None
        worker_end = InProcessConnection(worker_sock)
        server_end = InProcessConnection(server_sock)
        self._track(worker_end, server_end)
        with self._lock:
            if self._closed:
                server_end.close()
            else:
                self._pending.put(server_end)
        return worker_end


class TcpListener:
    def __init__(self, sock: socket.socket, transport: "TcpTransport | None" = None):
        self._sock = sock
        self._transport = transport
        self.address = sock.getsockname()[:2]

    def accept(self) -> TcpConnection:
        try:
            sock, _ = self._sock.accept()
        except OSError as exc:
            raise TransportClosedError(f"listener closed: {exc}") from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpConnection(sock)
        if self._transport is not None:
            self._transport._track(conn)
        return conn

    def close(self) -> None:
        """Stop listening; an ``accept`` blocked in another thread raises."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # close() alone leaves it blocked
        except OSError:
            pass
        self._sock.close()


class TcpTransport(_Transport):
    """TCP loopback/network transport; port 0 binds an ephemeral port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__()
        self.host = host
        self.port = port

    def listen(self) -> TcpListener:
        listener = server_listen(self.host, self.port, transport=self)
        self.port = listener.address[1]
        return listener

    def connect(self) -> TcpConnection:
        conn = worker_connect(self.host, self.port)
        self._track(conn)
        return conn


def server_listen(host: str, port: int, transport: TcpTransport | None = None) -> TcpListener:
    """Bind and listen; returns a listener whose .address has the real port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
        sock.listen()
    except OSError as exc:
        sock.close()
        raise TransportError(f"cannot listen on {host}:{port}: {exc}") from None
    return TcpListener(sock, transport)


def worker_connect(host: str, port: int, timeout: float | None = 30.0) -> TcpConnection:
    """Dial the federation server."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from None
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpConnection(sock)
