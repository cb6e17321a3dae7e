"""Minimal HTTP/1.1 layer over asyncio streams.

The service deliberately has **no framework dependency**: tier-1 tests must
stay hermetic, and the container cannot install FastAPI/uvicorn.  What the
job server actually needs from HTTP is tiny -- parse a request line, a
handful of headers and a bounded JSON body; write a status line, headers
and a body, or a stream of JSON lines that ends when the server closes.

Scope limits, by design (documented in ``docs/SERVICE.md``):

* one request per HTTP connection (``Connection: close``),
* request bodies are capped (:data:`MAX_BODY_BYTES`) -- oversized payloads
  answer 413 before the body is read into memory,
* an event stream has no ``Content-Length``: its end is the server closing
  the connection after the job's terminal event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on accepted HTTP request bodies (1 MiB).
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for the status codes the service emits.
REASON_PHRASES = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A malformed HTTP request.

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


#: The head of an event stream: JSON lines follow until the server closes
#: the connection, so there is no ``Content-Length``.
EVENT_STREAM_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Connection: close\r\n"
    b"\r\n"
)


def json_line(payload: object) -> bytes:
    """One event of a stream: ``payload`` as JSON, then ``\\n``."""
    # reprolint: disable=canonical-json -- transient stream framing: each
    # line is delimited by its newline on the wire and never persisted,
    # hashed or signed, so canonical byte form buys nothing here.
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


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
