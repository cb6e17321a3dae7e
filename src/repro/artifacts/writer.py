"""Artifact writer: build a whole artifact in memory, write it atomically.

:func:`write_artifact_bytes` serialises meta and records into the bytes of
one artifact (the service's response body); :func:`write_artifact` puts
those bytes on disk through a temporary file that replaces the target only
once it is complete, so a failed write leaves whatever artifact was there.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.artifacts import integrity
from repro.artifacts.spec import (
    ArtifactFormatError,
    END_MARKER,
    FORMAT_NAME,
    FORMAT_VERSION,
    MAGIC_MARKER,
    META_MARKER,
    RECORD_MARKER,
    canonical_json_bytes,
    header_line,
    validate_kind,
)

Records = Iterable[Tuple[str, Dict[str, object]]]


def write_artifact_bytes(
    meta: Optional[Dict[str, object]],
    records: Records,
    key: Optional[bytes] = None,
) -> bytes:
    """Serialise one artifact; signs it with HMAC-SHA256 when ``key`` is set.

    Every record is validated before anything is returned, so a bad kind or
    payload raises :class:`ArtifactFormatError` and yields no bytes at all.
    """
    meta_blob = canonical_json_bytes(meta or {})
    parts: List[bytes] = [
        header_line(MAGIC_MARKER, {"format": FORMAT_NAME, "version": FORMAT_VERSION}),
        header_line(META_MARKER, {
            "length": len(meta_blob), "sha256": integrity.sha256_hex(meta_blob),
        }),
        meta_blob + b"\n",
    ]
    count = 0
    for kind, payload in records:
        validate_kind(kind)
        if not isinstance(payload, dict):
            raise ArtifactFormatError(
                f"record payload must be a dict, got {type(payload).__name__}"
            )
        blob = canonical_json_bytes(payload)
        parts.append(header_line(RECORD_MARKER, {
            "kind": kind, "length": len(blob), "seq": count,
            "sha256": integrity.sha256_hex(blob),
        }))
        parts.append(blob + b"\n")
        count += 1
    content = b"".join(parts)
    # The footer is outside the hashed content by definition.
    return content + header_line(END_MARKER, {
        "content_sha256": integrity.sha256_hex(content),
        "records": count,
        "signature": (
            integrity.sign_content(key, content) if key is not None else None
        ),
    })


def write_artifact(
    path: Union[str, os.PathLike],
    meta: Optional[Dict[str, object]],
    records: Records,
    key: Optional[bytes] = None,
) -> int:
    """Write one artifact to ``path`` atomically; returns its record count.

    ``path`` ends up holding either the complete new artifact or, when
    building or writing it fails, exactly what it held before
    (:func:`~repro.artifacts.integrity.write_file_atomically`).
    """
    records = list(records)
    integrity.write_file_atomically(
        path, write_artifact_bytes(meta, records, key=key)
    )
    return len(records)
