"""Signed, self-describing result artifacts with provenance.

A line-oriented container every result producer in the repo can emit
(sweeps, red-team searches, service jobs, benches) and every consumer can
verify byte-for-byte:

* :mod:`repro.artifacts.spec` -- the format, its typed error hierarchy,
  and the whitelist header parsers (no reflection, no ``setattr``);
* :mod:`repro.artifacts.integrity` -- SHA-256 / HMAC-SHA256 helpers, key
  files, constant-time verification, the atomic file write;
* :mod:`repro.artifacts.writer` -- :func:`write_artifact_bytes` (a whole
  artifact in memory) and :func:`write_artifact` (the same bytes written
  atomically to a path);
* :mod:`repro.artifacts.reader` -- :class:`ArtifactReader` (full
  verification on open);
* :mod:`repro.artifacts.diff` -- job-by-job artifact comparison;
* :mod:`repro.artifacts.emit` -- record shapes the experiment / service /
  bench layers emit.

See ``docs/ARTIFACTS.md`` for the format and threat model.
"""

from repro.artifacts.diff import ArtifactDiff, diff_artifacts
from repro.artifacts.emit import (
    emit_bench_artifact,
    emit_probe_artifact,
    emit_run_artifact,
)
from repro.artifacts.integrity import (
    auth_token,
    generate_key,
    load_key_file,
    verify_auth_token,
    write_key_file,
)
from repro.artifacts.reader import ArtifactReader, ArtifactRecord, verify_artifact
from repro.artifacts.spec import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactHeaderError,
    ArtifactIntegrityError,
    ArtifactKeyError,
    ArtifactMarkerError,
    ArtifactSignatureError,
    ArtifactTruncatedError,
    FORMAT_VERSION,
    provenance,
)
from repro.artifacts.writer import write_artifact, write_artifact_bytes

__all__ = [
    "ArtifactDiff",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactHeaderError",
    "ArtifactIntegrityError",
    "ArtifactKeyError",
    "ArtifactMarkerError",
    "ArtifactReader",
    "ArtifactRecord",
    "ArtifactSignatureError",
    "ArtifactTruncatedError",
    "FORMAT_VERSION",
    "auth_token",
    "diff_artifacts",
    "emit_bench_artifact",
    "emit_probe_artifact",
    "emit_run_artifact",
    "generate_key",
    "load_key_file",
    "provenance",
    "verify_artifact",
    "verify_auth_token",
    "write_artifact",
    "write_artifact_bytes",
    "write_key_file",
]
