"""The asyncio job server: routes, subscriptions, and the executor.

One :class:`SimulationService` owns one shared
:class:`~repro.experiments.sweep.SweepEngine` (and therefore one persistent
worker pool and one sharded :class:`~repro.experiments.cache.ResultCache`)
and multiplexes it across clients:

* ``POST /jobs`` validates the payload (:mod:`repro.service.specs`), admits
  it through the :class:`~repro.service.queue.FairQueue` (429 +
  ``Retry-After`` when full / capped / throttled) and answers 202 with the
  job id and how much of the submission is already cached.
* A single **executor task** drains the queue in priority/fairness order
  and runs each job on the engine in a worker thread.  The engine's
  progress callback is bridged onto the event loop with
  ``call_soon_threadsafe``, so every ``plan`` / ``job`` / ``report`` event
  lands in the record's append-only event log **and** is pushed live to
  every watcher: one ``job`` event per executed simulation, serial or
  pooled.  Jobs run one at a time -- the engine parallelises *inside* a
  job (one pool task per simulation), which also guarantees that
  overlapping submissions are computed once: the second job finds the
  first one's results in the shared cache.
* ``GET /jobs/{id}/events`` answers one response of JSON lines: the job's
  event history, then live events, and the server closes the connection
  after the terminal state.  The :class:`ConnectionManager` tracks who is
  watching; a client that disconnects mid-stream is unsubscribed and the
  job keeps running.
* ``POST /jobs/{id}/cancel`` removes a queued job immediately, or fires the
  running job's :class:`~repro.experiments.sweep.CancelToken` --
  cancellation is cooperative and takes effect between simulations in both
  engine modes, and everything computed before the cancellation point
  stays cached.
* ``GET /jobs/{id}/artifact`` serves a finished job's results as a
  self-describing result artifact (:mod:`repro.artifacts`) -- signed when
  the service holds an ``auth_key``.
* With an ``auth_key``, every route except ``/healthz`` demands
  ``X-Auth-Token = HMAC(key, X-Client)`` (constant-time compare, 401
  otherwise) -- replacing the honor-system ``X-Client`` header as the
  client identity.

The service keeps every unfinished job and the :data:`MAX_FINISHED_JOBS`
most recently finished ones; an older job's record, event log and pulse are
dropped, so a long-running server's job history stays bounded.

Event-log consistency relies on every mutation happening on the event-loop
thread; the executor's worker thread only ever talks to the loop through
``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Dict, Optional, Set, Union

from repro.experiments.sweep import SweepCancelled, SweepEngine, SimJob
from repro.service import protocol
from repro.service.queue import (
    ClientCapExceeded,
    FairQueue,
    JobRecord,
    JobState,
    QueueFull,
    RateLimited,
    new_job_id,
)
from repro.service.specs import SpecError, parse_submission
from repro.system.metrics import SimulationResult

#: Protocol version advertised by /healthz (bump on breaking changes).
PROTOCOL_VERSION = 4

#: Finished jobs the service keeps, each with its event log and pulse.  Past
#: this many, the job that finished first is forgotten and its id answers 404
#: like an unknown one; a queued or running job is never dropped.
MAX_FINISHED_JOBS = 256


def result_summary(job: SimJob, result: SimulationResult) -> Dict[str, object]:
    """The compact per-job result shipped in ``done`` events.

    Full :class:`SimulationResult` payloads are available via
    ``GET /jobs/{id}?full=1``; the streamed summary keeps events small.
    """
    ipcs = list(result.core_ipcs)
    return {
        "key": job.key,
        "workload": result.workload,
        "mechanism": result.mechanism,
        "nrh": result.nrh,
        "cycles": result.cycles,
        "is_secure": result.is_secure,
        "energy_nj": result.energy_nj,
        "mean_ipc": sum(ipcs) / len(ipcs) if ipcs else 0.0,
    }


class ConnectionManager:
    """Tracks live event-stream subscriptions per job.

    Subscription state is only mutated from the event-loop thread.  The
    manager does not push events itself -- each subscriber's handler task
    drains the job's event log at its own pace (a slow client can therefore
    never stall the executor or other subscribers) -- but it is the single
    source of truth for who is subscribed, which the disconnect tests and
    ``/stats`` rely on.
    """

    def __init__(self) -> None:
        self._subscribers: Dict[str, Set[int]] = {}
        self._next_token = 0

    def subscribe(self, job_id: str) -> int:
        token = self._next_token
        self._next_token += 1
        self._subscribers.setdefault(job_id, set()).add(token)
        return token

    def unsubscribe(self, job_id: str, token: int) -> None:
        subscribers = self._subscribers.get(job_id)
        if subscribers is None:
            return
        subscribers.discard(token)
        if not subscribers:
            del self._subscribers[job_id]

    def subscriber_count(self, job_id: str) -> int:
        return len(self._subscribers.get(job_id, ()))

    def snapshot(self) -> Dict[str, int]:
        return {job: len(tokens) for job, tokens in self._subscribers.items()}


class SimulationService:
    """The job server application object (framework-free).

    ``engine`` may be injected (tests stub it; an optional FastAPI adapter
    could wrap this same object); ``repro serve`` builds one over the result
    cache and hands in its admission options as a
    :class:`~repro.service.queue.FairQueue`.
    """

    def __init__(
        self,
        engine: SweepEngine,
        queue: Optional[FairQueue] = None,
        default_client: str = "anonymous",
        auth_key: Optional[bytes] = None,
    ) -> None:
        self.engine = engine
        self.queue = queue if queue is not None else FairQueue()
        self.manager = ConnectionManager()
        self.default_client = default_client
        #: When set, every route except ``/healthz`` requires
        #: ``X-Auth-Token = HMAC(auth_key, X-Client)`` (constant-time
        #: compare; 401 otherwise), and served artifacts are signed with
        #: the same key.  ``None`` keeps the open, honor-system behaviour.
        self.auth_key = auth_key
        self.jobs: Dict[str, JobRecord] = {}
        #: Ids of the finished jobs in ``jobs``, oldest finish first.
        self._finished: Deque[str] = deque()
        self.started_at = time.time()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        #: Event-sequence pulse per job: replaced (and the old one set) on
        #: every publish, so any number of waiters wake without races.
        self._pulses: Dict[str, asyncio.Event] = {}
        # One worker thread: jobs execute strictly one at a time on the
        # shared engine (the engine parallelises internally).
        from concurrent.futures import ThreadPoolExecutor

        self._work_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-exec"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving (returns once listening)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._executor_task = asyncio.ensure_future(self._executor_loop())

    async def stop(self) -> None:
        """Stop serving: cancel every unfinished job, close the engine and
        pool."""
        self._stopping.set()
        for record in list(self.jobs.values()):
            if not record.finished:
                self._cancel(record)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor_task is not None:
            self._wake.set()
            try:
                await asyncio.wait_for(self._executor_task, timeout=30)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._executor_task.cancel()
            self._executor_task = None
        self._work_pool.shutdown(wait=False)
        self.engine.close()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a shutdown request) fires."""
        await self._stopping.wait()

    # ------------------------------------------------------------------ #
    # Event publishing (loop thread only)
    # ------------------------------------------------------------------ #
    def _publish(self, record: JobRecord, event: Dict[str, object]) -> None:
        event = dict(event)
        event["job"] = record.id
        event["seq"] = len(record.events)
        event["ts"] = time.time()
        record.events.append(event)
        pulse = self._pulses.get(record.id)
        if pulse is not None:
            pulse.set()
        self._pulses[record.id] = asyncio.Event()

    def _publish_threadsafe(self, record: JobRecord, event: Dict[str, object]) -> None:
        """Engine progress callback: runs on the worker thread."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._publish, record, event)

    def _set_state(
        self, record: JobRecord, state: str, **extra: object
    ) -> None:
        record.state = state
        if state == JobState.RUNNING:
            record.started_at = time.time()
        if state in JobState.TERMINAL:
            record.finished_at = time.time()
        event: Dict[str, object] = {"event": "state", "state": state}
        event.update(extra)
        self._publish(record, event)
        if state in JobState.TERMINAL:
            self._retire(record)

    def _retire(self, record: JobRecord) -> None:
        """Keep a just-finished job, forgetting the oldest finished jobs
        past :data:`MAX_FINISHED_JOBS`."""
        self._finished.append(record.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            job_id = self._finished.popleft()
            del self.jobs[job_id]
            self._pulses.pop(job_id, None)

    # ------------------------------------------------------------------ #
    # Executor
    # ------------------------------------------------------------------ #
    async def _executor_loop(self) -> None:
        assert self._loop is not None
        while not self._stopping.is_set():
            record = self.queue.next_job()
            if record is None:
                self._wake.clear()
                waiter = asyncio.ensure_future(self._wake.wait())
                stopper = asyncio.ensure_future(self._stopping.wait())
                await asyncio.wait(
                    {waiter, stopper}, return_when=asyncio.FIRST_COMPLETED
                )
                waiter.cancel()
                stopper.cancel()
                continue
            if record.finished:
                # Cancelled while queued but not yet removed: nothing to do.
                self.queue.release(record)
                continue
            self._set_state(record, JobState.RUNNING)
            started = time.perf_counter()
            try:
                outcome = await self._loop.run_in_executor(
                    self._work_pool, self._execute_record, record
                )
            except SweepCancelled as cancelled:
                self._set_state(
                    record, JobState.CANCELLED,
                    partial_report=cancelled.report.as_dict(),
                )
            except Exception as error:  # noqa: BLE001 -- job isolation:
                # one failing job must not take the service down.
                record.error = f"{type(error).__name__}: {error}"
                self._set_state(record, JobState.FAILED, error=record.error)
            else:
                record.result = outcome
                self._set_state(record, JobState.DONE, result=outcome)
            finally:
                self.queue.release(record, time.perf_counter() - started)

    def _execute_record(self, record: JobRecord) -> Dict[str, object]:
        """Worker-thread body: drive the engine for one job."""
        results = self.engine.run_jobs(
            record.jobs,
            progress=lambda event: self._publish_threadsafe(record, event),
            cancel=record.cancel,
        )
        report = self.engine.last_run_report
        return {
            "results": [
                result_summary(job, results[job.key]) for job in record.jobs
            ],
            "report": report.as_dict(),
            "cache": self.engine.cache.summary(),
        }

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await protocol.read_request(reader)
            except protocol.ProtocolError as error:
                writer.write(protocol.error_response(error.status, str(error)))
                await writer.drain()
                return
            if request is None:
                return
            denied = self._auth_error(request)
            if denied is not None:
                writer.write(denied)
                await writer.drain()
                return
            response = self._route_http(request)
            if isinstance(response, JobRecord):
                await self._stream_events(response, reader, writer)
                return
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _auth_error(self, request: protocol.HttpRequest) -> Optional[bytes]:
        """401 response when auth is on and the request fails it, else None.

        Applies to every route -- event streams included -- except
        ``/healthz`` (liveness probes must work before keys are
        distributed).  The token binds the *client identity* the fairness
        queue accounts against: ``X-Auth-Token = HMAC(key, X-Client)``,
        compared in constant time, so an attacker can neither submit jobs
        nor impersonate another client's queue quota.
        """
        if self.auth_key is None:
            return None
        if request.path.rstrip("/") == "/healthz":
            return None
        from repro.artifacts.integrity import verify_auth_token

        client = request.header("x-client")
        token = request.header("x-auth-token")
        if verify_auth_token(self.auth_key, client, token):
            return None
        return protocol.error_response(
            401,
            "missing or invalid X-Auth-Token for this X-Client "
            "(token = HMAC-SHA256(key, client id), hex)",
            reason="unauthorized",
        )

    def _route_http(self, request: protocol.HttpRequest) -> Union[bytes, JobRecord]:
        """The response to send, or the job whose events to stream."""
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            if request.method != "GET":
                return protocol.error_response(405, "use GET")
            return protocol.json_response(200, self._health_payload())
        if path == "/stats":
            if request.method != "GET":
                return protocol.error_response(405, "use GET")
            return protocol.json_response(200, self._stats_payload())
        if path == "/jobs":
            if request.method != "POST":
                return protocol.error_response(405, "use POST")
            return self._handle_submit(request)
        if path == "/shutdown":
            if request.method != "POST":
                return protocol.error_response(405, "use POST")
            assert self._loop is not None
            self._loop.call_soon(self._stopping.set)
            return protocol.json_response(200, {"status": "stopping"})
        if path.startswith("/jobs/"):
            return self._route_job(request, path)
        return protocol.error_response(404, f"no route for {request.path!r}")

    def _route_job(
        self, request: protocol.HttpRequest, path: str
    ) -> Union[bytes, JobRecord]:
        parts = path.split("/")  # ["", "jobs", id, maybe-action]
        job_id = parts[2] if len(parts) > 2 else ""
        record = self.jobs.get(job_id)
        if record is None:
            return protocol.error_response(404, f"unknown job {job_id!r}")
        if len(parts) == 3 and request.method == "GET":
            full = request.query.get("full") in ("1", "true", "yes")
            return protocol.json_response(200, record.snapshot(full=full))
        if len(parts) == 4 and parts[3] == "artifact" and request.method == "GET":
            return self._handle_artifact(record)
        if len(parts) == 4 and parts[3] == "events" and request.method == "GET":
            return record
        wants_cancel = (
            (len(parts) == 4 and parts[3] == "cancel" and request.method == "POST")
            or (len(parts) == 3 and request.method == "DELETE")
        )
        if wants_cancel:
            return self._handle_cancel(record)
        return protocol.error_response(405, "use GET, DELETE or POST .../cancel")

    # ------------------------------------------------------------------ #
    # Route bodies
    # ------------------------------------------------------------------ #
    def _health_payload(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.queue.depth,
        }

    def _stats_payload(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {}
        for record in self.jobs.values():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "uptime_seconds": time.time() - self.started_at,
            "jobs_by_state": by_state,
            "queue": self.queue.snapshot(),
            "subscribers": self.manager.snapshot(),
            "engine": {
                "workers": self.engine.workers,
                "executed_jobs": self.engine.executed_jobs,
                "cache": self.engine.cache.summary(),
            },
        }

    def _handle_submit(self, request: protocol.HttpRequest) -> bytes:
        try:
            body = request.json()
        except protocol.ProtocolError as error:
            return protocol.error_response(400, str(error), reason="bad_json")
        if self.auth_key is not None and isinstance(body, dict):
            # The authenticated identity wins: a body-level "client" field
            # must not let one key holder bill another client's quota.
            body = dict(body)
            body["client"] = request.header("x-client", self.default_client)
        try:
            submission = parse_submission(
                body,
                default_client=request.header("x-client", self.default_client),
            )
        except SpecError as error:
            return protocol.error_response(400, str(error), reason="bad_spec")
        record = JobRecord(
            id=new_job_id(),
            client=submission.client,
            kind=submission.kind,
            payload=submission.payload,
            jobs=submission.jobs,
            priority=submission.priority,
        )
        try:
            position = self.queue.submit(record)
        except RateLimited as error:
            return protocol.error_response(
                429, str(error), reason="rate_limited", retry_after=error.retry_after
            )
        except ClientCapExceeded as error:
            return protocol.error_response(
                429, str(error), reason="client_cap", retry_after=error.retry_after
            )
        except QueueFull as error:
            return protocol.error_response(
                429, str(error), reason="queue_full", retry_after=error.retry_after
            )
        self.jobs[record.id] = record
        cached = sum(1 for job in record.jobs if self.engine.cache.contains(job.key))
        self._publish(
            record,
            {"event": "state", "state": JobState.QUEUED, "position": position},
        )
        self._wake.set()
        return protocol.json_response(
            202,
            {
                "job": record.id,
                "state": record.state,
                "position": position,
                "num_jobs": len(record.jobs),
                "cached_jobs": cached,
                "watch": f"/jobs/{record.id}/events",
            },
        )

    def _handle_artifact(self, record: JobRecord) -> bytes:
        """``GET /jobs/{id}/artifact``: the job's results as a verifiable
        (and, with ``--auth-key``, signed) artifact instead of bare JSON."""
        if record.state != JobState.DONE:
            return protocol.error_response(
                409,
                f"job {record.id} is {record.state}; artifacts are served "
                f"for done jobs only",
                reason="not_done",
            )
        from repro.artifacts.emit import service_job_records
        from repro.artifacts.writer import write_artifact_bytes

        meta, records = service_job_records(record, self.engine.cache)
        body = write_artifact_bytes(meta, records, key=self.auth_key)
        return protocol.http_response(
            200, body,
            content_type="application/x-repro-artifact",
            extra_headers={
                "X-Artifact-Signed": "1" if self.auth_key is not None else "0",
            },
        )

    def _handle_cancel(self, record: JobRecord) -> bytes:
        # Idempotent: cancelling a finished job reports its final state.
        if not record.finished:
            self._cancel(record)
        return protocol.json_response(200, record.snapshot())

    def _cancel(self, record: JobRecord) -> None:
        """Cancel an unfinished job: a queued one leaves the queue and is
        cancelled at once; a running one has its token fired, and the
        executor publishes the terminal state when the engine acknowledges."""
        record.cancel.cancel()
        if record.state == JobState.QUEUED and self.queue.remove(record.id) is not None:
            self._set_state(record, JobState.CANCELLED)
        else:
            self._publish(record, {"event": "cancel_requested"})

    # ------------------------------------------------------------------ #
    # Event streaming
    # ------------------------------------------------------------------ #
    async def _stream_events(self, record: JobRecord, reader, writer) -> None:
        """``GET /jobs/{id}/events``: JSON lines until the terminal state.

        Returns when the job's whole log is written or the client is gone
        (EOF, a half-close included); either way the subscription is
        dropped and the job keeps running.
        """
        token = self.manager.subscribe(record.id)
        writer.write(protocol.EVENT_STREAM_HEAD)
        sender = asyncio.ensure_future(self._send_events(record, writer))
        receiver = asyncio.ensure_future(_discard_until_eof(reader))
        try:
            await asyncio.wait({sender, receiver}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            self.manager.unsubscribe(record.id, token)
            sender.cancel()
            receiver.cancel()
            # Retrieve both outcomes: a watcher that left shows up here as a
            # ConnectionError, which ends the stream quietly.
            await asyncio.gather(sender, receiver, return_exceptions=True)

    async def _send_events(self, record: JobRecord, writer) -> None:
        """Replay the record's event log, then follow it live."""
        sent = 0
        while True:
            pulse = self._pulses.get(record.id)
            while sent < len(record.events):
                writer.write(protocol.json_line(record.events[sent]))
                sent += 1
            await writer.drain()
            if record.finished and sent >= len(record.events):
                return
            if pulse is None:
                pulse = self._pulses.setdefault(record.id, asyncio.Event())
            await pulse.wait()


async def _discard_until_eof(reader) -> None:
    """Read and drop whatever a watcher sends, in bounded chunks, until EOF."""
    while await reader.read(65536):
        pass


async def run_service(
    service: SimulationService, host: str = "127.0.0.1", port: int = 8123
) -> None:
    """Start ``service``, print readiness, and serve until shutdown."""
    await service.start(host=host, port=port)
    print(f"repro service listening on http://{host}:{service.port}", flush=True)
    try:
        await service.serve_forever()
    finally:
        await service.stop()
        print("repro service stopped", flush=True)
