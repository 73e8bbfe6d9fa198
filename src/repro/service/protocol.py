"""The wire protocol: length-prefixed JSON frames plus the error taxonomy.

One frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  Both directions speak the same framing; what differs is the
payload shape:

* client -> server: **requests** ``{"id": n, "op": "...", ...}``.  ``id`` is
  a client-chosen correlation number, echoed verbatim in the response so one
  connection can have many requests in flight.
* server -> client: **responses** ``{"id": n, "ok": true, ...}`` or
  ``{"id": n, "ok": false, "error": {...}}``, and unsolicited **push
  frames** ``{"push": "notify", ...}`` carrying materialized-view deltas.

Observability rides on the same request/response shapes -- ``op:
"metrics"`` returns the metrics-registry snapshot plus the slow-query
log, and ``op: "trace"`` executes one query with tracing forced on and
replies with the span tree beside the usual cursor fields -- so neither
needed a framing or version change.

The first exchange is the handshake: the client sends ``op: "hello"`` with
its ``protocol`` pair and the server either accepts (echoing the negotiated
version, the database schema, and its frame-size limit) or rejects with
``PROTOCOL_MISMATCH``.  Version negotiation is major-exact / minor-min:
the major versions must match, and the connection runs at the smaller of the
two minor versions.  Version 1.1 dropped the per-session backend: every
session runs on the server engine's backend, and an ``open_session`` naming
another one is refused with a :class:`ProtocolError`.

Errors travel as ``{"code", "error_class", "message"}`` dictionaries.
``code`` is the coarse machine-readable taxonomy below (``SERVER_BUSY`` is
the one admission control emits; clients retry on it and on nothing else);
``error_class`` is the Python exception class name on the server, which
:func:`exception_from_error` maps back to the *same* class on the client
when it is one of the registered engine/API types -- a remote
``NRATypeError`` raises as ``NRATypeError``, not as a stringly-typed bag.

Frame size is bounded (:data:`MAX_FRAME_BYTES` by default) on **both** ends:
a reader that trusts the peer's length header is a memory-exhaustion bug,
so oversized headers raise :class:`FrameTooLarge` before any allocation.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

from ..nra.errors import (
    NRAError,
    NRAEvalError,
    NRAParseError,
    NRAScopeError,
    NRATypeError,
)
from ..objects.encoding import EncodingError

#: (major, minor).  Major must match exactly; minor negotiates downward.
PROTOCOL_VERSION = (1, 1)

#: Default refusal threshold for a single frame, either direction.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size


# -- error taxonomy ---------------------------------------------------------------

#: Framing / handshake problems (connection is torn down).
BAD_FRAME = "BAD_FRAME"
FRAME_TOO_LARGE = "FRAME_TOO_LARGE"
PROTOCOL_MISMATCH = "PROTOCOL_MISMATCH"
#: Admission control: the only retryable code.
SERVER_BUSY = "SERVER_BUSY"
#: Stale or bogus handles.
UNKNOWN_SESSION = "UNKNOWN_SESSION"
UNKNOWN_CURSOR = "UNKNOWN_CURSOR"
UNKNOWN_STATEMENT = "UNKNOWN_STATEMENT"
UNKNOWN_VIEW = "UNKNOWN_VIEW"
UNKNOWN_OP = "UNKNOWN_OP"
#: Query-layer failures, mapped from engine exceptions.
PARSE_ERROR = "PARSE_ERROR"
TYPE_ERROR = "TYPE_ERROR"
EVAL_ERROR = "EVAL_ERROR"
ENCODING_ERROR = "ENCODING_ERROR"
KEY_ERROR = "KEY_ERROR"
VALUE_ERROR = "VALUE_ERROR"
RUNTIME_ERROR = "RUNTIME_ERROR"
#: Anything the server did not anticipate.
INTERNAL = "INTERNAL"


class ServiceError(Exception):
    """Base of every error the service layer raises on either end."""

    code = INTERNAL


class ProtocolError(ServiceError):
    """Malformed frame, bad handshake, or a response that makes no sense."""

    code = BAD_FRAME


class FrameTooLarge(ProtocolError):
    """A length header exceeding the configured frame-size limit."""

    code = FRAME_TOO_LARGE


class ProtocolMismatch(ProtocolError):
    """Handshake failure: incompatible major protocol versions."""

    code = PROTOCOL_MISMATCH


class UnknownOp(ServiceError):
    """A request naming an op the server does not serve."""

    code = UNKNOWN_OP


class ServerBusy(ServiceError):
    """Typed admission-control refusal: session cap, in-flight cap, or queue depth."""

    code = SERVER_BUSY


class ConnectionClosed(ServiceError):
    """The peer went away (cleanly or not) with requests outstanding."""

    code = INTERNAL


class ServiceTimeout(ServiceError):
    """A client-side deadline expired while waiting for a response frame."""

    code = INTERNAL


class RemoteError(ServiceError):
    """A server-side failure with no richer client-side class to map onto."""

    def __init__(self, code: str, error_class: str, message: str) -> None:
        super().__init__(f"{code} ({error_class}): {message}")
        self.code = code
        self.error_class = error_class
        self.message = message


# Exceptions that cross the wire as themselves: the server records the class
# name, the client re-raises the same class.  Only types whose constructor
# accepts a single message string belong here.
_WIRE_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        NRAError,
        NRAEvalError,
        NRAParseError,
        NRAScopeError,
        NRATypeError,
        EncodingError,
        KeyError,
        ValueError,
        TypeError,
        RuntimeError,
        ProtocolError,
        ServerBusy,
    )
}

#: exception type -> wire code, for the server's error frames.
_CODE_OF_CLASS: dict[type, str] = {
    NRAParseError: PARSE_ERROR,
    NRATypeError: TYPE_ERROR,
    NRAScopeError: TYPE_ERROR,
    NRAEvalError: EVAL_ERROR,
    NRAError: EVAL_ERROR,
    EncodingError: ENCODING_ERROR,
    KeyError: KEY_ERROR,
    ValueError: VALUE_ERROR,
    TypeError: TYPE_ERROR,
    RuntimeError: RUNTIME_ERROR,
    ServerBusy: SERVER_BUSY,
}


def error_payload(exc: BaseException) -> dict:
    """The ``error`` dictionary a server response carries for ``exc``."""
    if isinstance(exc, ServiceError):
        code = exc.code
    else:
        code = INTERNAL
        for cls in type(exc).__mro__:
            if cls in _CODE_OF_CLASS:
                code = _CODE_OF_CLASS[cls]
                break
    # KeyError repr-quotes its message; unwrap the single argument instead.
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    return {"code": code, "error_class": type(exc).__name__, "message": message}


def exception_from_error(error: dict) -> Exception:
    """The client-side exception for a server error payload.

    Registered classes round-trip as themselves (``ServerBusy`` included, so
    admission refusals are catchable by type); everything else becomes a
    :class:`RemoteError` carrying the code and original class name.
    """
    code = error.get("code", INTERNAL)
    error_class = error.get("error_class", "")
    message = error.get("message", "")
    if code == SERVER_BUSY:
        return ServerBusy(message)
    cls = _WIRE_CLASSES.get(error_class)
    if cls is not None:
        return cls(message)
    return RemoteError(code, error_class, message)


# -- version negotiation ----------------------------------------------------------

def negotiate(client: Any, server: tuple[int, int] = PROTOCOL_VERSION) -> tuple[int, int]:
    """The version a connection runs at, or raise :class:`ProtocolMismatch`.

    ``client`` is whatever the hello frame carried; anything that is not a
    two-int sequence with a matching major version is a mismatch.
    """
    if (
        not isinstance(client, (list, tuple))
        or len(client) != 2
        or not all(isinstance(part, int) for part in client)
    ):
        raise ProtocolMismatch(f"malformed protocol version {client!r}")
    major, minor = client
    if major != server[0]:
        raise ProtocolMismatch(
            f"client speaks protocol {major}.{minor}, server speaks "
            f"{server[0]}.{server[1]}; major versions must match"
        )
    return (server[0], min(minor, server[1]))


# -- frame codec ------------------------------------------------------------------

def encode_frame(payload: dict, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Header + JSON body for one frame.  Refuses to *build* oversized frames."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Parse one frame body; non-JSON or non-object payloads are protocol errors."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_header(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Body length from a 4-byte header, bounds-checked before any allocation."""
    if len(header) != HEADER_BYTES:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame; limit is {max_bytes}"
        )
    return length


# -- synchronous socket IO (client side) ------------------------------------------

def write_frame_sync(sock: socket.socket, payload: dict,
                     max_bytes: int = MAX_FRAME_BYTES) -> None:
    sock.sendall(encode_frame(payload, max_bytes))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket,
                    max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """The next frame, or ``None`` on a clean EOF at a frame boundary."""
    try:
        header = sock.recv(HEADER_BYTES)
    except OSError as exc:
        raise ConnectionClosed(str(exc)) from exc
    if not header:
        return None
    if len(header) < HEADER_BYTES:
        header += _recv_exact(sock, HEADER_BYTES - len(header))
    length = decode_header(header, max_bytes)
    return decode_body(_recv_exact(sock, length))


# -- asyncio stream IO (server side) ----------------------------------------------

async def read_frame_async(reader, max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """The next frame from an asyncio reader, ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed inside a frame header ({len(exc.partial)} bytes)"
        ) from exc
    length = decode_header(header, max_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed inside a frame body "
            f"({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_body(body)
