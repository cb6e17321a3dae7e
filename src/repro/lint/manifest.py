"""Project manifests the reprolint rules are configured with.

This module is the one place where the lint rules learn *which* parts of
the tree carry which invariant.  Adding a new hot-path function, event
source or protected package means editing a manifest here (and, for event
sources, documenting the class in ``docs/ARCHITECTURE.md``) -- the rules
themselves stay generic.

Paths are repo-relative POSIX strings; entries ending in ``/`` name a
subtree, otherwise an exact file.
"""

from __future__ import annotations

#: Packages whose parsers must never reflect parsed input into attribute
#: writes (the artifact container and the service submission whitelist --
#: see the threat model in docs/ARTIFACTS.md).
NO_REFLECTION_TARGETS = (
    "src/repro/artifacts/",
    "src/repro/service/specs.py",
)

#: Packages whose payload bytes must all derive from the canonical JSON
#: helper so a value has exactly one byte representation.
CANONICAL_JSON_TARGETS = (
    "src/repro/artifacts/",
    "src/repro/service/",
)

#: The one module allowed to call ``json.dumps``: the canonical helper
#: itself (everything else routes through it).
CANONICAL_JSON_ALLOWED = ("src/repro/artifacts/spec.py",)

#: Simulation packages that must stay deterministic run-to-run: the
#: content-addressed ResultCache and every byte-identity pin
#: (test_event_horizon.py, the golden regression) silently depend on it.
DETERMINISM_TARGETS = (
    "src/repro/dram/",
    "src/repro/controller/",
    "src/repro/core/",
    "src/repro/system/",
    "src/repro/cpu/",
    "src/repro/attacks/",
)

#: The allocation-free data plane (PRs 4-6): functions that run once per
#: DRAM command, per dispatched access or per idle wake.  Python-level
#: allocation constructs (comprehensions, closures, f-strings, */**
#: expansion) in these bodies regress the measured hot-path wins.
#: Maps file -> frozenset of dotted qualnames within that file.
HOT_PATH_FUNCTIONS = {
    "src/repro/controller/controller.py": frozenset({
        "MemoryController.tick",
        "MemoryController._next_event_hint",
        "MemoryController._bank_demand_ready",
        "MemoryController._demand_ready_cycle",
        "MemoryController._service_demand",
        "MemoryController._serve_request",
        "MemoryController._active_queue_is_reads",
        "MemoryController._write_drain",
    }),
    "src/repro/controller/router.py": frozenset({
        # The per-cycle fan-out: one call per main-loop iteration.
        "ChannelRouter.tick",
        "ChannelRouter._tick_single",
    }),
    "src/repro/controller/scheduler.py": frozenset({
        "FrFcfsCapScheduler.choose",
        "FrFcfsCapScheduler.choose_from_buckets",
        "FrFcfsCapScheduler._arbitrate",
        "FrFcfsCapScheduler._arbitrate_bucketed",
        "FrFcfsCapScheduler.on_scheduled",
        "FrFcfsCapScheduler.on_row_closed",
    }),
    "src/repro/dram/device.py": frozenset({
        # The per-command path: one list indexing operation per register
        # access, nothing allocated per call.
        "DramDevice.activate",
        "DramDevice.precharge",
        "DramDevice.read",
        "DramDevice.write",
    }),
    "src/repro/core/counters.py": frozenset({
        "PerRowCounters.increment",
        "PerRowCounters.get",
        "PerRowCounters.reset_row",
    }),
    "src/repro/dram/refresh.py": frozenset({
        "RefreshScheduler.tick",
        "RefreshScheduler.next_due_cycle",
    }),
    "src/repro/cpu/core.py": frozenset({
        # The per-dispatch path, and the parked-core replay loop that runs
        # most dispatches of a finished core.
        "Core.try_issue",
        "Core.notify_completion",
        "Core._retire",
        "Core._block",
        "Core._window_allows",
        "Core.replay_hits",
        "Core.next_event_cycle",
    }),
    "src/repro/cpu/cache.py": frozenset({
        "Cache.access",
        "Cache.access_if_hit",
    }),
    "src/repro/system/simulator.py": frozenset({
        "SystemSimulator.run",
    }),
}

#: Method names that look like event-horizon wake hints.  Any class
#: defining one is an event source under the "early, never late" contract
#: and must be registered below.
HINT_METHOD_PATTERN = r"(?:^|_)next_(?:event_(?:hint|cycle)|due_cycle)$"

#: The hint-contract registry: every (file, class, method) that feeds the
#: event horizon.  Each class must also be named in docs/ARCHITECTURE.md's
#: event-horizon section -- the doc *is* the contract's specification.
HINT_EVENT_SOURCES = frozenset({
    ("src/repro/controller/controller.py", "MemoryController", "_next_event_hint"),
    ("src/repro/controller/controller.py", "MemoryController", "next_event_cycle"),
    ("src/repro/cpu/core.py", "Core", "next_event_cycle"),
    ("src/repro/dram/refresh.py", "RefreshScheduler", "next_due_cycle"),
})

#: Where the hint contract is documented (checked for each source class).
ARCHITECTURE_DOC = "docs/ARCHITECTURE.md"

#: The cache-key completeness cross-check (the exact bug PR 1 fixed: a new
#: SystemConfig knob silently missing from the cache key).
CONFIG_MODULE = "src/repro/system/config.py"
CONFIG_CLASS = "SystemConfig"
PAYLOAD_MODULE = "src/repro/experiments/cache.py"
PAYLOAD_FUNCTION = "config_payload"

#: Default scan scope of ``python -m repro lint``.
DEFAULT_SCAN_PATHS = ("src/repro",)

#: Default committed baseline location.
DEFAULT_BASELINE = "tools/reprolint_baseline.json"
