"""Minimal HTTP/1.1 + WebSocket (RFC 6455) layer over asyncio streams.

The service deliberately has **no framework dependency**: tier-1 tests must
stay hermetic, and the container cannot install FastAPI/uvicorn.  What the
job server actually needs from HTTP is tiny -- parse a request line, a
handful of headers and a bounded JSON body; write a status line, headers
and a body -- and the WebSocket side needs the RFC 6455 opening handshake
plus the frame codec.

The frame codec is **sans-I/O** (pure ``bytes -> frame`` / ``frame ->
bytes`` functions), so the asyncio server and the blocking stdlib client
(:mod:`repro.service.client`) share one implementation, and the codec is
unit-testable without sockets.

Scope limits, by design (documented in ``docs/SERVICE.md``):

* one request per HTTP connection (``Connection: close``); only WebSocket
  upgrades keep the socket open,
* request bodies are capped (:data:`MAX_BODY_BYTES`) -- oversized payloads
  answer 413 before the body is read into memory,
* WebSocket messages must fit in one unfragmented frame (events are small
  JSON documents; fragmented frames answer close code 1003).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: RFC 6455 §1.3 magic GUID appended to the client key before hashing.
WEBSOCKET_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Upper bound on accepted HTTP request bodies (1 MiB).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on a single WebSocket frame payload accepted by either side.
MAX_FRAME_BYTES = 1 << 22

#: WebSocket opcodes (the subset the service speaks).
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Reason phrases for the status codes the service emits.
REASON_PHRASES = {
    101: "Switching Protocols",
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    426: "Upgrade Required",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A malformed HTTP request or WebSocket frame.

    ``status`` is the HTTP status a malformed request answers: 400, or 413
    for a body over the cap.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# --------------------------------------------------------------------------- #
# HTTP requests
# --------------------------------------------------------------------------- #

@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def json(self) -> object:
        """Decode the body as JSON; :class:`ProtocolError` on failure."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(f"request body is not valid JSON: {error}")

    @property
    def wants_websocket(self) -> bool:
        """True when the request asks for a WebSocket upgrade."""
        return (
            "websocket" in self.header("upgrade").lower()
            and "upgrade" in self.header("connection").lower()
        )


async def read_request(reader, max_body: int = MAX_BODY_BYTES) -> Optional[HttpRequest]:
    """Read one HTTP request from an asyncio stream.

    Returns ``None`` on a clean EOF before any bytes (client closed an idle
    connection); raises :class:`ProtocolError` on anything malformed, a line
    longer than the stream's buffer limit included.  A body cut short by EOF
    raises :class:`asyncio.IncompleteReadError` (a dropped connection).
    """
    try:
        request_line = await _read_line(reader)
    except (ConnectionError, OSError):
        return None
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(f"malformed request line: {request_line!r}")
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version: {version}")
    try:
        split = urlsplit(target)
    except ValueError as error:  # e.g. an unbalanced "[" in the authority
        raise ProtocolError(f"malformed request target {target!r}: {error}") from None
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length", "0")
    # ASCII digits only: int() also takes "+5" and "1_0", isdigit() "\xb2".
    if not (length_text.isascii() and length_text.isdigit()):
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    try:
        length = int(length_text)
    except ValueError:  # more digits than int() converts
        raise ProtocolError(
            f"Content-Length of {len(length_text)} digits exceeds {max_body}", 413
        ) from None
    if length > max_body:
        raise ProtocolError(f"request body of {length} bytes exceeds {max_body}", 413)
    if length:
        body = await reader.readexactly(length)
    query = dict(parse_qsl(split.query))
    return HttpRequest(
        method=method.upper(), path=split.path, query=query,
        headers=headers, body=body,
    )


async def _read_line(reader) -> bytes:
    """One line of the request head; :class:`ProtocolError` when it is
    longer than the stream's buffer limit (64 KiB by default), where
    asyncio raises a bare ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError:
        raise ProtocolError("request line or header line too long") from None


def http_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialise one HTTP response (always ``Connection: close``)."""
    reason = REASON_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: object,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """An HTTP response with a JSON body."""
    # reprolint: disable=canonical-json -- transient HTTP framing: the body
    # is length-prefixed by Content-Length, never persisted, hashed or
    # signed, and spec.py's helper would raise the artifact error domain
    # at callers expecting ServiceError semantics.
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return http_response(status, body, extra_headers=extra_headers)


def error_response(
    status: int,
    message: str,
    reason: str = "",
    retry_after: Optional[float] = None,
) -> bytes:
    """The service's uniform error shape (+ optional ``Retry-After``)."""
    payload: Dict[str, object] = {"error": message}
    if reason:
        payload["reason"] = reason
    headers: Dict[str, str] = {}
    if retry_after is not None:
        headers["Retry-After"] = str(max(1, int(round(retry_after))))
        payload["retry_after"] = max(1, int(round(retry_after)))
    return json_response(status, payload, extra_headers=headers)


# --------------------------------------------------------------------------- #
# WebSocket handshake
# --------------------------------------------------------------------------- #

def websocket_accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` value for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((client_key + WEBSOCKET_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def websocket_client_key() -> str:
    """A fresh random ``Sec-WebSocket-Key`` (client side)."""
    return base64.b64encode(os.urandom(16)).decode("latin-1")


def websocket_handshake_response(request: HttpRequest) -> bytes:
    """The 101 response completing a WebSocket upgrade."""
    client_key = request.header("sec-websocket-key")
    if not client_key:
        raise ProtocolError("upgrade request is missing Sec-WebSocket-Key")
    head = (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1")


# --------------------------------------------------------------------------- #
# WebSocket frame codec (sans-I/O)
# --------------------------------------------------------------------------- #

def encode_frame(payload: bytes, opcode: int = OP_TEXT, mask: bool = False) -> bytes:
    """Serialise one unfragmented WebSocket frame.

    Clients MUST mask (``mask=True``), servers MUST NOT (RFC 6455 §5.1);
    the codec enforces neither so tests can exercise both directions.
    """
    length = len(payload)
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < (1 << 16):
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if not mask:
        return bytes(head) + payload
    key = os.urandom(4)
    head += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + masked


def decode_frame(buffer: bytes) -> Optional[Tuple[int, bytes, int]]:
    """Parse one frame from ``buffer``.

    Returns ``(opcode, payload, bytes_consumed)`` or ``None`` when the
    buffer does not yet hold a complete frame.  Fragmented messages
    (``FIN=0`` or continuation frames) raise :class:`ProtocolError` -- every
    message the service exchanges fits one frame.
    """
    if len(buffer) < 2:
        return None
    first, second = buffer[0], buffer[1]
    fin = bool(first & 0x80)
    opcode = first & 0x0F
    if not fin or opcode == OP_CONT:
        raise ProtocolError("fragmented WebSocket messages are not supported")
    masked = bool(second & 0x80)
    length = second & 0x7F
    offset = 2
    if length == 126:
        if len(buffer) < offset + 2:
            return None
        (length,) = struct.unpack_from(">H", buffer, offset)
        offset += 2
    elif length == 127:
        if len(buffer) < offset + 8:
            return None
        (length,) = struct.unpack_from(">Q", buffer, offset)
        offset += 8
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}")
    key = b""
    if masked:
        if len(buffer) < offset + 4:
            return None
        key = buffer[offset:offset + 4]
        offset += 4
    if len(buffer) < offset + length:
        return None
    payload = buffer[offset:offset + length]
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload, offset + length


def encode_text(payload: object, mask: bool = False) -> bytes:
    """A text frame carrying ``payload`` as JSON."""
    return encode_frame(
        # reprolint: disable=canonical-json -- transient WebSocket framing:
        # frames are length-prefixed on the wire and never persisted,
        # hashed or signed, so canonical byte form buys nothing here.
        json.dumps(payload, sort_keys=True).encode("utf-8"), OP_TEXT, mask=mask
    )


def encode_close(code: int = 1000, mask: bool = False) -> bytes:
    """A close frame with the given status code."""
    return encode_frame(struct.pack(">H", code), OP_CLOSE, mask=mask)


async def read_frame(reader, buffer: bytearray) -> Tuple[int, bytes]:
    """Read one complete frame from an asyncio stream.

    ``buffer`` holds bytes carried over between calls (the stream may
    deliver several frames in one read).  Raises :class:`ProtocolError` on
    malformed frames and :class:`ConnectionError` on EOF mid-frame.
    """
    while True:
        decoded = decode_frame(bytes(buffer))
        if decoded is not None:
            opcode, payload, consumed = decoded
            del buffer[:consumed]
            return opcode, payload
        chunk = await reader.read(65536)
        if not chunk:
            raise ConnectionError("WebSocket peer closed mid-frame")
        buffer += chunk
