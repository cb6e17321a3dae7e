"""Blocking stdlib client for the simulation service.

Every call is one ``http.client`` request on its own connection, the event
stream included: :meth:`ServiceClient.watch` reads the JSON lines of
``GET /jobs/{id}/events`` until the server closes.  The client therefore
works in any environment the repo's tier-1 tests run in (no ``requests``
dependency).

The CLI (``python -m repro client ...``), the load benchmark and the
service tests are all built on :class:`ServiceClient`.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, Optional


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
    def _send(
        self, method: str, path: str, body: Optional[object] = None
    ) -> http.client.HTTPConnection:
        """Open a connection and send one request on it."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
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
        try:
            connection.request(method, path, body=payload, headers=headers)
        except BaseException:
            connection.close()
            raise
        return connection

    def _request(
        self, method: str, path: str, body: Optional[object] = None
    ) -> Dict[str, object]:
        connection = self._send(method, path, body)
        try:
            response = connection.getresponse()
            _raise_for_status(response)
            raw = response.read()
            return json.loads(raw.decode("utf-8")) if raw else {}
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
        connection = self._send("GET", f"/jobs/{job_id}/artifact")
        try:
            response = connection.getresponse()
            _raise_for_status(response)
            return response.read()
        finally:
            connection.close()

    def shutdown(self) -> Dict[str, object]:
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------------ #
    # Event stream
    # ------------------------------------------------------------------ #
    def watch(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Stream a job's events until its terminal state.

        Yields each event dict (history first, then live).  ``timeout``
        bounds the whole watch, an idle stream included, and raises
        :class:`TimeoutError`: each read waits at most the time left, however
        long that is.  Without ``timeout`` each read waits at most the
        client's own timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            connection = self._send("GET", f"/jobs/{job_id}/events")
            # http.client drops its own reference once the response will close.
            sock = connection.sock
            try:
                with connection.getresponse() as response:
                    _raise_for_status(response)
                    while True:
                        if deadline is not None:
                            left = deadline - time.monotonic()
                            if left <= 0:
                                raise TimeoutError
                            sock.settimeout(left)
                        line = response.readline()
                        if not line:
                            return
                        yield json.loads(line.decode("utf-8"))
            finally:
                connection.close()
        except TimeoutError:  # the deadline, or a read that outlived it
            raise TimeoutError(f"watch of job {job_id} timed out") from None

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
            # The stream closed without a terminal event (the server went
            # away mid-stream); fall back to the REST snapshot.
            final = self.status(job_id)
        return final


def _raise_for_status(response: http.client.HTTPResponse) -> None:
    """:class:`ServiceError` from a 4xx/5xx response's JSON error body."""
    if response.status < 400:
        return
    raw = response.read()
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except ValueError:
        decoded = None
    if not isinstance(decoded, dict):  # not JSON, or JSON but no object
        decoded = {"error": raw.decode("utf-8", "replace")}
    retry_after = response.getheader("Retry-After")
    raise ServiceError(
        response.status,
        str(decoded.get("error", "request failed")),
        reason=str(decoded.get("reason", "")),
        retry_after=int(retry_after) if retry_after else None,
    )
