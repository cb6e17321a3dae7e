"""Bridges from the experiment/service layers into artifact records.

These helpers define the *record shapes* the rest of the repo emits, so
every producer (``repro sweep --artifact``, the red-team search, the
service's ``GET /jobs/{id}/artifact``, the benches) and every consumer
(``repro artifact verify|show|diff``) agrees on one schema:

``job`` records
    ``{"key": <SimJob.key>, "label": ..., "job": SimJob.cache_payload(),
    "result": result_to_dict(...)}`` -- the full per-job result next to the
    exact content-addressed payload that produced it, so a diff pinpoints
    *which* configuration moved.

``probe`` records
    One red-team probe outcome (mechanism, N_RH, spec, escaped...).

``report`` records
    ``RunReport.as_dict()`` -- timings; volatile by design, skipped by
    ``artifact diff`` unless asked.

``bench`` records
    A committed ``BENCH_*.json`` trajectory, wrapped verbatim.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.artifacts.spec import provenance
from repro.artifacts.writer import write_artifact
from repro.experiments.cache import config_payload, result_to_dict


def run_meta(
    base_config=None, extra: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Provenance meta for a run artifact (full SystemConfig included)."""
    payload = config_payload(base_config) if base_config is not None else None
    return provenance(config_payload=payload, extra=extra)


def job_record(job, result) -> Dict[str, object]:
    return {
        "key": job.key,
        "label": job.label,
        "job": job.cache_payload(),
        "result": result_to_dict(result),
    }


def probe_record(probe) -> Dict[str, object]:
    """One :class:`~repro.attacks.redteam.ProbeResult` as a record payload."""
    return {
        "key": probe.job_key or f"probe:{probe.mechanism}:{probe.nrh}:{probe.spec_label}",
        "mechanism": probe.mechanism,
        "nrh": probe.nrh,
        "spec": probe.spec_label,
        "configured": probe.configured,
        "secure_config": probe.secure_config,
        "escaped": probe.escaped,
        "max_disturbance": probe.max_disturbance,
        "first_escape_cycle": probe.first_escape_cycle,
    }


def emit_run_artifact(
    path: Union[str, os.PathLike],
    jobs: Iterable,
    results: Dict[str, object],
    report=None,
    base_config=None,
    key: Optional[bytes] = None,
    extra_meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write one sweep/batch run as an artifact; returns the record count.

    ``results`` maps ``SimJob.key`` to :class:`SimulationResult`; jobs whose
    result is missing (e.g. cancelled mid-run) are skipped rather than
    emitted half-empty.
    """
    records = [
        ("job", job_record(job, results[job.key]))
        for job in jobs if results.get(job.key) is not None
    ]
    if report is not None:
        records.append(("report", report.as_dict()))
    return write_artifact(
        path, run_meta(base_config, extra=extra_meta), records, key=key
    )


def emit_probe_artifact(
    path: Union[str, os.PathLike],
    probes: Iterable,
    base_config=None,
    key: Optional[bytes] = None,
    extra_meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write one red-team search as an artifact of ``probe`` records."""
    return write_artifact(
        path, run_meta(base_config, extra=extra_meta),
        [("probe", probe_record(probe)) for probe in probes], key=key,
    )


def emit_bench_artifact(
    bench_json_path: Union[str, os.PathLike],
    artifact_path: Union[str, os.PathLike, None] = None,
    key: Optional[bytes] = None,
) -> str:
    """Record a committed ``BENCH_*.json`` as a verifiable artifact.

    The artifact lands next to the JSON (``BENCH_x.json`` ->
    ``BENCH_x.artifact``) and wraps the trajectory verbatim, so the bench
    history itself becomes checkable with ``repro artifact verify`` and
    comparable across machines with ``repro artifact diff``.
    """
    bench_json_path = os.fspath(bench_json_path)
    with open(bench_json_path, "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    if artifact_path is None:
        stem, _ = os.path.splitext(bench_json_path)
        artifact_path = stem + ".artifact"
    name = os.path.basename(bench_json_path)
    write_artifact(
        artifact_path, provenance(extra={"source": name}),
        [("bench", {"key": name, "bench": bench})], key=key,
    )
    return os.fspath(artifact_path)


def service_job_records(
    record, cache
) -> Tuple[Dict[str, object], Iterable[Tuple[str, Dict[str, object]]]]:
    """(meta, records) for one finished service job.

    Full results come from the shared cache (the job just executed through
    it); a job whose entry was evicted between completion and the request
    falls back to the compact summary the ``done`` event carried.
    """
    meta = provenance(extra={
        "job_id": record.id,
        "kind": record.kind,
        "client": record.client,
        "submission": record.payload,
    })
    summaries = {}
    if isinstance(record.result, dict):
        for summary in record.result.get("results", []):
            if isinstance(summary, dict) and "key" in summary:
                summaries[summary["key"]] = summary

    def records() -> Iterable[Tuple[str, Dict[str, object]]]:
        for job in record.jobs:
            result = cache.get(job.key)
            if result is not None:
                yield "job", job_record(job, result)
            elif job.key in summaries:
                yield "summary", dict(summaries[job.key])
        if isinstance(record.result, dict):
            report = record.result.get("report")
            if isinstance(report, dict):
                yield "report", dict(report)

    return meta, records()
