"""Blocking stdlib client for the simulation service.

``http.client`` drives the REST side, a raw socket plus the shared sans-I/O
frame codec (:mod:`repro.service.protocol`) drives the WebSocket side --
the client therefore works in any environment the repo's tier-1 tests run
in (no ``requests``, no ``websockets`` dependency).

The CLI (``python -m repro client ...``), the load benchmark and the
service tests are all built on :class:`ServiceClient`.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Callable, Dict, Iterator, Optional

from repro.service import protocol


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(
        self,
        status: int,
        message: str,
        reason: str = "",
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.reason = reason
        self.retry_after = retry_after


class ServiceClient:
    """Talks to one service instance; one connection per call."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        client_id: str = "anonymous",
        timeout: float = 30.0,
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.auth_key = auth_key
        if auth_key is not None:
            from repro.artifacts.integrity import auth_token

            self._auth_token: Optional[str] = auth_token(auth_key, client_id)
        else:
            self._auth_token = None

    def _base_headers(self) -> Dict[str, str]:
        headers = {"X-Client": self.client_id}
        if self._auth_token is not None:
            headers["X-Auth-Token"] = self._auth_token
        return headers

    # ------------------------------------------------------------------ #
    # REST
    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, body: Optional[object] = None
    ) -> Dict[str, object]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = self._base_headers()
            if body is not None:
                # reprolint: disable=canonical-json -- the blocking stdlib
                # client encodes request bodies it just built from user
                # flags/files; the server re-parses and strictly re-validates
                # every byte (service/specs.py whitelist), so canonical byte
                # form on the request wire buys nothing.
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 400:
                retry_after = response.getheader("Retry-After")
                raise ServiceError(
                    response.status,
                    str(decoded.get("error", "request failed")),
                    reason=str(decoded.get("reason", "")),
                    retry_after=int(retry_after) if retry_after else None,
                )
            return decoded
        finally:
            connection.close()

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/stats")

    def submit(
        self,
        spec: Dict[str, object],
        kind: str = "sweep",
        priority: int = 0,
    ) -> Dict[str, object]:
        """Submit a job; returns the 202 body (``job``, ``cached_jobs``...)."""
        return self._request(
            "POST",
            "/jobs",
            body={
                "kind": kind,
                "client": self.client_id,
                "priority": priority,
                "spec": spec,
            },
        )

    def status(self, job_id: str, full: bool = False) -> Dict[str, object]:
        suffix = "?full=1" if full else ""
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def artifact(self, job_id: str) -> bytes:
        """Download a finished job's result artifact (raw bytes).

        Verify with :class:`repro.artifacts.ArtifactReader` -- pass the
        shared auth key to also check the signature.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/jobs/{job_id}/artifact", headers=self._base_headers()
            )
            response = connection.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    decoded = json.loads(raw.decode("utf-8"))
                except ValueError:
                    decoded = {"error": raw.decode("utf-8", "replace")}
                raise ServiceError(
                    response.status,
                    str(decoded.get("error", "request failed")),
                    reason=str(decoded.get("reason", "")),
                )
            return raw
        finally:
            connection.close()

    def shutdown(self) -> Dict[str, object]:
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------------ #
    # WebSocket watch
    # ------------------------------------------------------------------ #
    def watch(
        self,
        job_id: str,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, object]]:
        """Stream a job's events until its terminal state.

        Yields each event dict (history first, then live).  ``timeout``
        bounds the whole watch; the per-read timeout is the client default.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            key = protocol.websocket_client_key()
            auth_line = (
                f"X-Auth-Token: {self._auth_token}\r\n"
                if self._auth_token is not None else ""
            )
            handshake = (
                f"GET /ws/jobs/{job_id} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                f"X-Client: {self.client_id}\r\n"
                f"{auth_line}"
                "\r\n"
            )
            sock.sendall(handshake.encode("latin-1"))
            buffer = bytearray()
            head = self._read_handshake(sock, buffer)
            status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            if " 101 " not in f" {status_line} ":
                body, error = self._read_error_body(sock, head, buffer)
                raise ServiceError(
                    self._handshake_status(status_line), error or status_line
                )
            headers = {}
            for line in head.split(b"\r\n")[1:]:
                name, separator, value = line.decode("latin-1").partition(":")
                if separator:
                    headers[name.strip().lower()] = value.strip()
            if headers.get("sec-websocket-accept") != protocol.websocket_accept_key(key):
                raise ServiceError(502, "bad Sec-WebSocket-Accept from server")
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"watch of job {job_id} timed out")
                opcode, payload = self._read_frame(sock, buffer)
                if opcode == protocol.OP_CLOSE:
                    return
                if opcode == protocol.OP_PING:
                    sock.sendall(
                        protocol.encode_frame(payload, protocol.OP_PONG, mask=True)
                    )
                    continue
                if opcode != protocol.OP_TEXT:
                    continue
                event = json.loads(payload.decode("utf-8"))
                if on_event is not None:
                    on_event(event)
                yield event
        finally:
            try:
                sock.sendall(protocol.encode_close(1000, mask=True))
            except OSError:
                pass
            sock.close()

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Watch until terminal and return the final state event."""
        final: Dict[str, object] = {}
        for event in self.watch(job_id, timeout=timeout):
            if event.get("event") == "state" and event.get("state") in (
                "done", "failed", "cancelled"
            ):
                final = event
        if not final:
            # The stream closed without a terminal event (e.g. server stop);
            # fall back to the REST snapshot.
            final = self.status(job_id)
        return final

    # ------------------------------------------------------------------ #
    # Socket helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _handshake_status(status_line: str) -> int:
        parts = status_line.split()
        try:
            return int(parts[1])
        except (IndexError, ValueError):
            return 502

    @staticmethod
    def _read_handshake(sock: socket.socket, buffer: bytearray) -> bytes:
        """Read up to the end of the response headers; rest stays buffered."""
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed during WebSocket handshake")
            buffer += chunk
        head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
        del buffer[:]
        buffer += rest
        return head

    @staticmethod
    def _read_error_body(
        sock: socket.socket, head: bytes, buffer: bytearray
    ) -> tuple:
        """Best-effort read of a JSON error body after a failed handshake."""
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                try:
                    length = int(line.split(b":", 1)[1].strip())
                except ValueError:
                    length = 0
        while len(buffer) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
        body = bytes(buffer[:length])
        try:
            return body, json.loads(body.decode("utf-8")).get("error", "")
        except ValueError:
            return body, ""

    @staticmethod
    def _read_frame(sock: socket.socket, buffer: bytearray) -> tuple:
        while True:
            decoded = protocol.decode_frame(bytes(buffer))
            if decoded is not None:
                opcode, payload, consumed = decoded
                del buffer[:consumed]
                return opcode, payload
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            buffer += chunk
