"""Streaming artifact writer: append records, finalize index + footer.

The writer is strictly append-only while open: every byte written feeds a
running SHA-256 (and HMAC when signing), so :meth:`ArtifactWriter.close`
can finalize without re-reading the file.  A write session that raises
deletes its half-written file rather than leave it to look finalized.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import io
import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.artifacts import integrity
from repro.artifacts.spec import (
    ArtifactFormatError,
    END_MARKER,
    FORMAT_NAME,
    FORMAT_VERSION,
    INDEX_MARKER,
    IndexEntry,
    MAGIC_MARKER,
    META_MARKER,
    RECORD_MARKER,
    canonical_json_bytes,
    header_line,
    validate_kind,
)


class ArtifactWriter:
    """Write one artifact: magic + meta up front, records streamed after.

    Use as a context manager (``close`` finalizes the index and footer)::

        with ArtifactWriter(path, meta=provenance(...), key=key) as writer:
            for payload in results:
                writer.append("job", payload)
    """

    def __init__(
        self,
        path: Union[str, os.PathLike, None],
        meta: Optional[Dict[str, object]] = None,
        key: Optional[bytes] = None,
        fileobj: Optional[io.BufferedIOBase] = None,
    ) -> None:
        if (path is None) == (fileobj is None):
            raise ValueError("pass exactly one of path or fileobj")
        self.path = None if path is None else os.fspath(path)
        self.key = key
        self._file = fileobj if fileobj is not None else open(self.path, "wb")
        self._hasher = hashlib.sha256()
        self._signer = (
            hmac_module.new(key, digestmod=hashlib.sha256)
            if key is not None else None
        )
        self._offset = 0
        self._entries: List[IndexEntry] = []
        self._closed = False
        self._write(header_line(
            MAGIC_MARKER, {"format": FORMAT_NAME, "version": FORMAT_VERSION}
        ))
        self._write_section(META_MARKER, canonical_json_bytes(meta or {}))

    # ------------------------------------------------------------------ #
    # Low-level writes (every byte feeds the running hashes)
    # ------------------------------------------------------------------ #
    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self._hasher.update(data)
        if self._signer is not None:
            self._signer.update(data)
        self._offset += len(data)

    def _write_section(self, marker: str, payload: bytes,
                       extra: Optional[Dict[str, object]] = None) -> None:
        header: Dict[str, object] = {
            "length": len(payload),
            "sha256": integrity.sha256_hex(payload),
        }
        if extra:
            header.update(extra)
        self._write(header_line(marker, header))
        self._write(payload + b"\n")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def record_count(self) -> int:
        return len(self._entries)

    def append(self, kind: str, payload: Dict[str, object]) -> int:
        """Append one record; returns its sequence number."""
        if self._closed:
            raise ArtifactFormatError("artifact writer is closed")
        validate_kind(kind)
        if not isinstance(payload, dict):
            raise ArtifactFormatError(
                f"record payload must be a dict, got {type(payload).__name__}"
            )
        blob = canonical_json_bytes(payload)
        seq = len(self._entries)
        digest = integrity.sha256_hex(blob)
        self._write(header_line(RECORD_MARKER, {
            "kind": kind, "length": len(blob), "seq": seq, "sha256": digest,
        }))
        payload_offset = self._offset
        self._write(blob + b"\n")
        self._entries.append(IndexEntry(
            kind=kind, seq=seq, offset=payload_offset,
            length=len(blob), sha256=digest,
        ))
        return seq

    def close(self) -> None:
        """Finalize: write the index section and the integrity footer."""
        if self._closed:
            return
        index_payload = canonical_json_bytes(
            {"entries": [entry.as_dict() for entry in self._entries]}
        )
        self._write_section(
            INDEX_MARKER, index_payload, extra={"count": len(self._entries)}
        )
        footer = {
            "content_sha256": self._hasher.hexdigest(),
            "records": len(self._entries),
            "signature": (
                self._signer.hexdigest() if self._signer is not None else None
            ),
        }
        # The footer is outside the hashed content by definition; write it
        # without feeding the (now finalized) hashes.
        self._file.write(header_line(END_MARKER, footer))
        self._file.flush()
        if self.path is not None:
            os.fsync(self._file.fileno())
            self._file.close()
        self._closed = True

    def __enter__(self) -> "ArtifactWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self.path is not None and not self._closed:
            # A failed write session must not leave a half-valid file that
            # could be mistaken for a finalized artifact.
            self._file.close()
            self._closed = True
            try:
                os.unlink(self.path)
            except OSError:
                pass


def write_artifact_bytes(
    meta: Optional[Dict[str, object]],
    records: Iterable[Tuple[str, Dict[str, object]]],
    key: Optional[bytes] = None,
) -> bytes:
    """Build a complete artifact in memory (the service's response body)."""
    buffer = io.BytesIO()
    writer = ArtifactWriter(None, meta=meta, key=key, fileobj=buffer)
    for kind, payload in records:
        writer.append(kind, payload)
    writer.close()
    return buffer.getvalue()
