"""Admission control: a bounded priority/fairness queue with rate limits.

Pure synchronous data structures (no asyncio) manipulated only from the
server's event-loop thread, which keeps them trivially testable.  Three
independent gates protect the executor:

* **bounded depth** -- the queue holds at most ``max_depth`` jobs; an
  overflowing submission raises :class:`QueueFull` (HTTP 429 with a
  ``Retry-After`` derived from the observed job duration),
* **per-client concurrency cap** -- at most ``per_client_active`` jobs per
  client may be queued or running at once (:class:`ClientCapExceeded`),
* **token-bucket rate limit** -- each client gets ``burst`` submission
  tokens refilled at ``rate`` per second (:class:`RateLimited` carries the
  exact wait until the next token).

Scheduling is priority-first (0 is most urgent), then **round-robin across
clients** within a priority: after a client is served it moves to the back
of the rotation, so one chatty client cannot starve the rest no matter how
many jobs it has queued.  Within one client, jobs stay FIFO.
"""

from __future__ import annotations

import itertools
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.sweep import CancelToken, SimJob


class JobState:
    """The job lifecycle (plain strings: they go straight into JSON)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


def new_job_id() -> str:
    """A short, unguessable job identifier."""
    return uuid.uuid4().hex[:12]


@dataclass
class JobRecord:
    """One submitted job and everything the service knows about it."""

    id: str
    client: str
    kind: str
    payload: Dict[str, object]
    jobs: Tuple[SimJob, ...]
    priority: int = 0
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Append-only event log (replayed to late event-stream subscribers).
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Summarised results, set on the DONE transition.
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    cancel: CancelToken = field(default_factory=CancelToken)

    @property
    def finished(self) -> bool:
        return self.state in JobState.TERMINAL

    def snapshot(self, full: bool = False) -> Dict[str, object]:
        """JSON summary for ``GET /jobs/{id}`` and submit responses."""
        data: Dict[str, object] = {
            "job": self.id,
            "client": self.client,
            "kind": self.kind,
            "priority": self.priority,
            "state": self.state,
            "num_jobs": len(self.jobs),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
            "payload": self.payload,
        }
        if self.error is not None:
            data["error"] = self.error
        if self.result is not None:
            data["result"] = self.result
        if full:
            data["event_log"] = list(self.events)
        return data


# --------------------------------------------------------------------------- #
# Admission errors (each maps to HTTP 429)
# --------------------------------------------------------------------------- #

class QueueFull(Exception):
    """The bounded queue is at capacity."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"queue is full ({depth} jobs waiting)")
        self.retry_after = retry_after


class ClientCapExceeded(Exception):
    """The client already has its maximum of jobs queued or running."""

    def __init__(self, client: str, cap: int, retry_after: float) -> None:
        super().__init__(
            f"client {client!r} already has {cap} job(s) queued or running"
        )
        self.retry_after = retry_after


class RateLimited(Exception):
    """The client's token bucket is empty."""

    def __init__(self, client: str, retry_after: float) -> None:
        super().__init__(f"client {client!r} is submitting too fast")
        self.retry_after = retry_after


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s."""

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def _refill(self, now: float) -> None:
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now

    def try_consume(self, now: Optional[float] = None) -> Optional[float]:
        """Take one token; returns ``None`` on success, else seconds to wait."""
        now = time.monotonic() if now is None else now
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / self.rate


class FairQueue:
    """Bounded, priority-then-round-robin fair queue of :class:`JobRecord`\\ s.

    Its defaults are the service's admission defaults; ``repro serve``
    overrides each with a flag.
    """

    def __init__(
        self,
        max_depth: int = 32,
        per_client_active: int = 4,
        rate: float = 10.0,
        burst: int = 20,
    ) -> None:
        self.max_depth = max_depth
        self.per_client_active = per_client_active
        self.rate = rate
        self.burst = burst
        #: Per-client FIFO of queued records.
        self._queues: Dict[str, Deque[JobRecord]] = {}
        #: Round-robin rotation: client -> monotonically increasing serve
        #: stamp; the *lowest* stamp among candidates is served next.
        self._rotation: Dict[str, int] = {}
        self._rotation_counter = itertools.count()
        #: Jobs currently executing, per client.
        self._running: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        #: Exponential moving average of job wall seconds (Retry-After hint).
        self.avg_job_seconds = 2.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def active_jobs(self, client: str) -> int:
        return len(self._queues.get(client, ())) + self._running.get(client, 0)

    def snapshot(self) -> Dict[str, object]:
        """Queue statistics for ``GET /stats``."""
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "per_client_active": self.per_client_active,
            "running": dict(self._running),
            "queued_by_client": {
                client: len(queue)
                for client, queue in self._queues.items() if queue
            },
            "avg_job_seconds": self.avg_job_seconds,
        }

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def submit(self, record: JobRecord) -> int:
        """Admit a record; returns its queue position (0 = next up).

        Raises :class:`RateLimited`, :class:`ClientCapExceeded` or
        :class:`QueueFull` -- checked in that order, so a throttled client
        learns about the throttle even when the queue is also full.
        """
        bucket = self._buckets.get(record.client)
        if bucket is None:
            bucket = self._buckets[record.client] = TokenBucket(self.rate, self.burst)
        wait = bucket.try_consume()
        if wait is not None:
            raise RateLimited(record.client, retry_after=wait)
        if self.active_jobs(record.client) >= self.per_client_active:
            raise ClientCapExceeded(
                record.client, self.per_client_active,
                retry_after=self.avg_job_seconds,
            )
        if self.depth >= self.max_depth:
            raise QueueFull(self.depth, retry_after=self.avg_job_seconds)
        queue = self._queues.setdefault(record.client, deque())
        if record.client not in self._rotation:
            self._rotation[record.client] = next(self._rotation_counter)
        position = self.depth  # before appending: 0-indexed position
        queue.append(record)
        return position

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def next_job(self) -> Optional[JobRecord]:
        """Pop the next record to execute (or ``None`` when idle).

        Candidates are each client's FIFO head; the winner is the head with
        the lowest ``(priority, rotation stamp)``.  Serving a client sends
        it to the back of the rotation.
        """
        best: Optional[Tuple[int, int, str]] = None
        for client, queue in self._queues.items():
            if not queue:
                continue
            candidate = (queue[0].priority, self._rotation[client], client)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        client = best[2]
        record = self._queues[client].popleft()
        self._rotation[client] = next(self._rotation_counter)
        self._running[client] = self._running.get(client, 0) + 1
        return record

    def release(self, record: JobRecord, seconds: Optional[float] = None) -> None:
        """Mark a running record finished (updates caps and the EWMA)."""
        count = self._running.get(record.client, 0)
        if count <= 1:
            self._running.pop(record.client, None)
        else:
            self._running[record.client] = count - 1
        if seconds is not None:
            self.avg_job_seconds = 0.7 * self.avg_job_seconds + 0.3 * seconds

    def remove(self, job_id: str) -> Optional[JobRecord]:
        """Remove a still-queued record by id (cancellation)."""
        for client, queue in self._queues.items():
            for record in queue:
                if record.id == job_id:
                    queue.remove(record)
                    return record
        return None
