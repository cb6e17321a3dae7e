"""Simulation-as-a-service: an async job server over the sweep engine.

The package turns the one-shot CLI into a long-running multi-tenant service:

* :mod:`repro.service.protocol` -- a minimal, dependency-free HTTP/1.1
  layer over ``asyncio`` streams: the request parser, responses, and the
  JSON lines of a job's event stream.
* :mod:`repro.service.specs` -- strict validation of client JSON payloads
  into :class:`~repro.experiments.sweep.SimJob` lists (whitelisted fields
  only; malformed payloads are rejected with a 4xx, never injected).
* :mod:`repro.service.queue` -- the admission layer: a bounded priority /
  fairness queue with per-client concurrency caps and token-bucket rate
  limits (full / capped / throttled submissions answer 429 + Retry-After).
* :mod:`repro.service.server` -- :class:`SimulationService`: routes,
  the per-job event-stream :class:`ConnectionManager`, and the executor that
  drives the shared :class:`~repro.experiments.sweep.SweepEngine` with
  progress streaming and cooperative cancellation.
* :mod:`repro.service.client` -- a blocking stdlib client
  (``python -m repro client submit|watch|status|cancel``) used by the CLI,
  the load benchmark and the tests.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import (
    ClientCapExceeded,
    FairQueue,
    JobRecord,
    JobState,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.service.server import ConnectionManager, SimulationService
from repro.service.specs import SpecError, parse_submission

__all__ = [
    "ClientCapExceeded",
    "ConnectionManager",
    "FairQueue",
    "JobRecord",
    "JobState",
    "QueueFull",
    "RateLimited",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "SpecError",
    "TokenBucket",
    "parse_submission",
]
