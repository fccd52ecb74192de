"""Server-hospital message vocabulary and two interchangeable transports.

``_SCHEMA`` below is the single definition of the vocabulary: one row per
message gives its type tag, name, docstring and fields in wire order. The
message classes, their validation, and the one ``struct.Struct`` per frame
head that ``encode`` and ``decode`` use are all built from those rows.

Wire format: every frame is a 4-byte little-endian payload length followed
by the payload; the payload is a 1-byte type tag and the message fields in
schema order. Integers are little-endian (u32/u64), floats IEEE-754
little-endian 64-bit, parameter vectors a u32 element count followed by the
elements, which decode as a read-only view of the frame. Example frames::

    Shutdown                            01 00 00 00   06
    BroadcastModel(round=0, [1.0])      11 00 00 00   02  00 00 00 00
                                        01 00 00 00   00 00 00 00 00 00 f0 3f

The constructor is a message's one check. It checks each scalar field by
``fedhosp.checks``' rule (an int for u32/u64, a finite float for f64), then
that an int lies in its u32/u64 range, and that params, converted to
float64, form a flat vector of finite values. ``decode`` builds every
message through that constructor and raises its messages as
``ProtocolError``.

The message vocabulary deliberately has no variant that could carry feature
rows or labels — only parameters, sample counts, and metric scalars — so
raw data cannot leave a hospital through this layer no matter what the
caller does.

A TCP connection reads ahead into one buffer and reads a frame in one pass,
parsing its length prefix once, as soon as the 4 bytes are in: a small frame
costs one system call, and the buffer grows only with bytes that arrive. A
prefix above the largest frame the schema allows (a ``LocalUpdate`` of
``MAX_PARAMS`` parameters) is refused then, before any payload is read.
The in-process transport, with no socket and no thread, hands each frame to
a peer answered inline. Both encode and decode every frame once per hop, so
byte counts match and a federation run is bit-identical across the two.
"""

from __future__ import annotations

import collections
import socket
import struct
import threading
import time
from dataclasses import make_dataclass
from typing import Union

import numpy as np

from .checks import MAX_PARAMS, check_type

__all__ = [
    "Register",
    "BroadcastModel",
    "LocalUpdate",
    "EvalRequest",
    "EvalResult",
    "Shutdown",
    "Message",
    "MESSAGE_TYPES",
    "MAX_HOSPITAL_ID",
    "TransportError",
    "ProtocolError",
    "FramingError",
    "TransportClosedError",
    "DeadlineError",
    "encode",
    "decode",
    "InProcessTransport",
    "TcpTransport",
]

_U32 = struct.Struct("<I")

# (tag, name, docstring, ((field, wire type), ...) in wire order; params, if any, last)
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

# Wire type -> struct code of its head part; "params" is a u32 count, then that many f64s.
_CODE = {"u32": "I", "u64": "Q", "f64": "d", "params": "I"}
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


class DeadlineError(TransportError):
    """A whole message did not arrive within the receive timeout."""


class _Message:
    """Validation and equality shared by the classes built from ``_SCHEMA``.

    Each subclass carries its row as ``TAG`` and ``FIELDS``, and its frame head as ``HEAD``.
    """

    def __post_init__(self) -> None:
        for name, wire in self.FIELDS:
            value = getattr(self, name)
            if wire == "params":
                if type(value) is not np.ndarray or value.dtype != np.float64:
                    value = np.asarray(value, dtype=np.float64)
                    object.__setattr__(self, name, value)
                if value.ndim != 1:
                    raise ValueError(f"{name} must be a flat vector, got shape {value.shape}")
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} contain non-finite values")
            else:
                check_type(name, value, _ANNOTATION[wire])
                if wire in _INT_MAX and not 0 <= value <= _INT_MAX[wire]:
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
        namespace={"__doc__": doc, "__module__": __name__, "TAG": tag, "FIELDS": fields,
                   "HEAD": struct.Struct("<IB" + "".join(_CODE[wire] for _, wire in fields)),
                   "COUNTED": fields[-1:] == (("params", "params"),)},  # params follow HEAD
    )
    for tag, name, doc, fields in _SCHEMA
)
Register, BroadcastModel, LocalUpdate, EvalRequest, EvalResult, Shutdown = MESSAGE_TYPES
Message = Union[MESSAGE_TYPES]
# The largest hospital id a Register can carry, and so the most hospitals a federation can hold.
MAX_HOSPITAL_ID = _INT_MAX[dict(Register.FIELDS)["hospital_id"]]

_BY_TAG = {cls.TAG: cls for cls in MESSAGE_TYPES}
# The most payload bytes a frame may declare: the longest message with MAX_PARAMS parameters.
_MAX_PAYLOAD = max(cls.HEAD.size - 4 + 8 * MAX_PARAMS * cls.COUNTED for cls in MESSAGE_TYPES)


def encode(msg: Message) -> bytes:
    """Serialize one message into a complete frame (length prefix included)."""
    cls = type(msg)
    if cls not in MESSAGE_TYPES:
        raise ProtocolError(f"not a protocol message: {cls.__name__}")
    head, values = cls.HEAD, [getattr(msg, name) for name, _ in cls.FIELDS]
    if not cls.COUNTED:
        return head.pack(head.size - 4, cls.TAG, *values)
    *values, params = values
    # One copy of the parameters: join reads the array's buffer directly,
    # which ascontiguousarray leaves as it is when already contiguous "<f8".
    return b"".join((head.pack(head.size - 4 + 8 * params.size, cls.TAG, *values, params.size),
                     np.ascontiguousarray(params, "<f8")))


def decode(data: bytes) -> Message:
    """Parse one complete frame back into a message (inverse of encode), built
    by its constructor, whose ``ValueError`` is raised as ``ProtocolError``."""
    size = len(data)
    if size < 4:
        raise FramingError(f"frame shorter than its length prefix: {size} bytes")
    declared = _U32.unpack_from(data)[0]
    if size < 4 + declared:
        raise FramingError(f"frame declares {declared} payload bytes, only {size - 4} available")
    if size > 4 + declared:
        raise FramingError(f"frame has {size - 4 - declared} trailing bytes")
    if declared == 0:
        raise ProtocolError("empty payload (missing type tag)")
    cls = _BY_TAG.get(data[4])
    if cls is None:
        raise ProtocolError(f"unknown message type tag 0x{data[4]:02X}")
    end = cls.HEAD.size
    try:
        values = list(cls.HEAD.unpack_from(data)[2:])
        if cls.COUNTED:
            values[-1] = np.frombuffer(data, "<f8", values[-1], end)
            end += 8 * values[-1].size
    except (struct.error, ValueError):  # a field runs past the end of the payload
        raise ProtocolError(
            f"payload too short for {cls.__name__}: {declared - 1} bytes after the tag"
        ) from None
    if end != size:
        raise ProtocolError(f"payload has {size - end} unexpected trailing bytes")
    try:
        return cls(*values)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


# --------------------------------------------------------------------------
# connections


# Largest single recv. The read-ahead buffer grows only with bytes that
# arrive, never up front to whatever length prefix the peer declared.
_RECV_CHUNK = 64 * 1024


class TcpConnection:
    """Length-prefixed frames over a stream socket: TCP, or a socketpair end."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        self._buffer = b""  # received, not yet returned by recv
        self.bytes_sent = 0
        self.bytes_received = 0

    def _read_frame(self, deadline: float | None) -> bytes:
        """The next whole frame, read in one pass: its length is parsed, and refused
        above ``_MAX_PAYLOAD``, as soon as the 4 prefix bytes are in, and reads go
        on until it is whole."""
        chunks, have, end = [self._buffer], len(self._buffer), None
        while end is None or have < end:
            if end is None and have >= 4:
                chunks = [b"".join(chunks)]  # the prefix may span chunks
                end = 4 + _U32.unpack_from(chunks[0])[0]
                if end > 4 + _MAX_PAYLOAD:
                    raise FramingError(f"frame declares {end - 4} payload bytes, more than "
                                       f"the {_MAX_PAYLOAD} of the largest message")
                continue
            try:
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError
                    self._sock.settimeout(left)
                chunk = self._sock.recv(_RECV_CHUNK)
            except TimeoutError:
                raise DeadlineError("no complete message within the deadline") from None
            except OSError as exc:
                raise TransportClosedError(f"connection lost: {exc}") from None
            if not chunk:
                if have:
                    raise FramingError("peer closed the connection mid-frame")
                raise TransportClosedError("peer closed the connection")
            chunks.append(chunk)
            have += len(chunk)
        data = b"".join(chunks)  # no copy when one chunk holds it all
        if have == end:
            self._buffer = b""
            return data
        self._buffer = data[end:]
        return data[:end]

    def send(self, msg: Message) -> None:
        frame = encode(msg)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportClosedError(f"send failed: {exc}") from None
        self.bytes_sent += len(frame)

    def recv(self, timeout: float | None = None) -> Message:
        """Next message. With a ``timeout`` (s) the whole frame must arrive by
        then, else ``DeadlineError`` (part of a frame may have been read, so
        close the connection); without one the socket stays blocking."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            frame = self._read_frame(deadline)
        finally:
            if deadline is not None and not self._closed:
                self._sock.settimeout(None)
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


class InProcessConnection:
    """The server's end of a connection to a peer answered inline: ``send``
    hands the decoded frame to ``peer.handle`` and queues its encoded reply,
    the ``peer.register()`` Register first. A peer that raises closes the
    connection, as a failed TCP worker's socket closes, and raises a
    ``TransportClosedError`` whose ``__cause__`` is the peer's exception."""

    def __init__(self, peer):
        self.peer, self._closed = peer, False
        self._replies: collections.deque[bytes] = collections.deque()
        self.bytes_sent = self.bytes_received = 0  # to and from the peer
        self._answer(peer.register)

    def _answer(self, ask) -> None:
        """Queue the encoded reply ``ask()`` returns, if any; if it raises, close."""
        try:
            reply = ask()
            frame = None if reply is None else encode(reply)
        except Exception as exc:
            self.close()
            raise TransportClosedError(f"the peer failed: {exc}") from exc
        if frame is not None:
            self.bytes_received += len(frame)
            self._replies.append(frame)

    def send(self, msg: Message) -> None:
        if self._closed:
            raise TransportClosedError("connection closed")
        frame = encode(msg)
        self.bytes_sent += len(frame)
        self._answer(lambda: self.peer.handle(decode(frame)))

    def recv(self, timeout: float | None = None) -> Message:
        """The next reply. The peer answers within ``send``: none waiting fails at once."""
        if self._closed:
            raise TransportClosedError("connection closed")
        if not self._replies:
            raise TransportError("no message waiting: the peer has answered every frame sent")
        return decode(self._replies.popleft())

    def close(self) -> None:
        self._closed = True
        self._replies.clear()


class InProcessListener:
    """Hands the server the connections made to its transport, in order."""

    def __init__(self, pending: collections.deque):
        self._pending = pending

    def accept(self) -> InProcessConnection:
        if not self._pending:
            raise TransportClosedError("no connection waiting to be accepted")
        return self._pending.popleft()

    def close(self) -> None:
        """Close the connections never accepted."""
        while self._pending:
            self._pending.popleft().close()


class InProcessTransport:
    """Peers in the server's own process, answered inline in its thread."""

    def __init__(self):
        self.endpoints: list[InProcessConnection] = []
        self._pending: collections.deque = collections.deque()

    def listen(self) -> InProcessListener:
        return InProcessListener(self._pending)

    def connect(self, peer) -> InProcessConnection:
        """The server's end of a new connection to ``peer``, waiting to be accepted."""
        conn = InProcessConnection(peer)
        self.endpoints.append(conn)
        self._pending.append(conn)
        return conn

    @property
    def total_wire_bytes(self) -> int:
        """Every frame both ways, counted once, at its sender."""
        return sum(e.bytes_sent + e.bytes_received for e in self.endpoints)


class TcpListener:
    def __init__(self, sock: socket.socket, transport: "TcpTransport"):
        self._sock = sock
        self._transport = transport

    def accept(self) -> TcpConnection:
        try:
            sock, _ = self._sock.accept()
        except OSError as exc:
            raise TransportClosedError(f"listener closed: {exc}") from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpConnection(sock)
        self._transport._track(conn)
        return conn

    def close(self) -> None:
        """Stop listening; an ``accept`` blocked in another thread raises."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # close() alone leaves it blocked
        except OSError:
            pass
        self._sock.close()


# Seconds a worker waits for the server to accept its connection.
_CONNECT_TIMEOUT = 30.0


class TcpTransport:
    """TCP loopback/network transport; port 0 binds an ephemeral port.

    ``endpoints`` is the ledger of every connection it made, at either end.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._lock = threading.Lock()  # a server thread and hospital threads add connections
        self.endpoints: list[TcpConnection] = []

    def _track(self, conn: TcpConnection) -> None:
        with self._lock:
            self.endpoints.append(conn)

    @property
    def total_wire_bytes(self) -> int:
        """Every frame counted once, at its sender."""
        with self._lock:
            return sum(e.bytes_sent for e in self.endpoints)

    def listen(self) -> TcpListener:
        """Bind and listen; ``port`` becomes the bound port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.host, self.port))
            sock.listen()
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot listen on {self.host}:{self.port}: {exc}") from None
        self.port = sock.getsockname()[1]
        return TcpListener(sock, self)

    def connect(self) -> TcpConnection:
        """Dial the federation server."""
        try:
            sock = socket.create_connection((self.host, self.port), timeout=_CONNECT_TIMEOUT)
        except OSError as exc:
            raise TransportError(f"cannot connect to {self.host}:{self.port}: {exc}") from None
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = TcpConnection(sock)
        self._track(conn)
        return conn
