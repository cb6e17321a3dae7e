"""Artifact reader: full structural + integrity verification on open.

The reader is deliberately paranoid: *opening* an artifact performs a full
sequential parse that validates every structural rule of the format
(:mod:`repro.artifacts.spec`), every per-record checksum, the footer's
record count, the whole-content checksum, and -- when a key is supplied --
the HMAC signature in constant time.  There is no lazy mode where a crafted
file partially "works": either the whole container verifies or a typed
:class:`ArtifactError` names what is wrong.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.artifacts import integrity
from repro.artifacts.spec import (
    ArtifactFormatError,
    ArtifactIntegrityError,
    ArtifactMarkerError,
    ArtifactTruncatedError,
    END_MARKER,
    Footer,
    MAGIC_MARKER,
    META_MARKER,
    MagicHeader,
    RECORD_MARKER,
    RecordHeader,
    SectionHeader,
    parse_payload,
    split_header_line,
)


@dataclass(frozen=True)
class ArtifactRecord:
    """One verified record."""

    seq: int
    kind: str
    payload: Dict[str, object]
    length: int
    sha256: str


class ArtifactReader:
    """Parse + verify one artifact from a path or raw bytes."""

    def __init__(
        self,
        source: Union[str, os.PathLike, bytes],
        key: Optional[bytes] = None,
    ) -> None:
        if isinstance(source, bytes):
            self.path: Optional[str] = None
            self._data = source
        else:
            self.path = os.fspath(source)
            try:
                with open(self.path, "rb") as handle:
                    self._data = handle.read()
            except OSError as error:
                raise ArtifactTruncatedError(
                    f"cannot read artifact {self.path}: {error}"
                )
        self.key = key
        self.meta: Dict[str, object] = {}
        self.magic: Optional[MagicHeader] = None
        self.footer: Optional[Footer] = None
        self._records: List[ArtifactRecord] = []
        self._parse()

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #
    def _read_line(self, pos: int, what: str) -> Tuple[bytes, int]:
        end = self._data.find(b"\n", pos)
        if end < 0:
            raise ArtifactTruncatedError(
                f"artifact ends inside {what} (no line terminator)"
            )
        return self._data[pos:end], end + 1

    def _read_section_payload(
        self, pos: int, length: int, sha256: str, what: str
    ) -> Tuple[bytes, int]:
        """Read exactly ``length`` payload bytes + the terminating newline."""
        end = pos + length
        if end >= len(self._data):
            raise ArtifactTruncatedError(
                f"artifact ends inside {what} payload "
                f"(declared {length} bytes at offset {pos})"
            )
        blob = self._data[pos:end]
        if self._data[end:end + 1] != b"\n":
            raise ArtifactFormatError(
                f"{what} payload at offset {pos} is not newline-terminated "
                f"(length field disagrees with the stream)"
            )
        if b"\n" in blob or b"\r" in blob:
            raise ArtifactMarkerError(
                f"{what} payload at offset {pos} contains newline bytes "
                f"(possible embedded section marker)"
            )
        if integrity.sha256_hex(blob) != sha256:
            raise ArtifactIntegrityError(
                f"{what} payload checksum mismatch at offset {pos}"
            )
        return blob, end + 1

    def _parse(self) -> None:
        data = self._data
        if not data:
            raise ArtifactTruncatedError("artifact is empty")

        # Magic line.
        line, pos = self._read_line(0, "the magic line")
        marker, mapping = split_header_line(line, "magic")
        if marker != MAGIC_MARKER:
            raise ArtifactFormatError(
                f"not a repro artifact (first line starts with {marker!r})"
            )
        self.magic = MagicHeader.parse(mapping)

        # Meta section.
        line, pos = self._read_line(pos, "the meta header")
        marker, mapping = split_header_line(line, "meta")
        if marker != META_MARKER:
            raise ArtifactFormatError(f"expected {META_MARKER} line, got {marker!r}")
        meta_header = SectionHeader.parse_meta(mapping)
        blob, pos = self._read_section_payload(
            pos, meta_header.length, meta_header.sha256, "meta"
        )
        self.meta = parse_payload(blob, "meta")

        # Record sections until the footer.
        while True:
            line_start = pos
            line, pos = self._read_line(pos, "a section header")
            marker, mapping = split_header_line(line, "section")
            if marker == END_MARKER:
                break
            if marker != RECORD_MARKER:
                raise ArtifactFormatError(
                    f"unexpected section marker {marker!r} at offset "
                    f"{line_start} (expected {RECORD_MARKER} or {END_MARKER})"
                )
            header = RecordHeader.parse(mapping)
            if header.seq != len(self._records):
                raise ArtifactFormatError(
                    f"record at offset {line_start} declares seq "
                    f"{header.seq}, expected {len(self._records)}"
                )
            blob, pos = self._read_section_payload(
                pos, header.length, header.sha256, f"record {header.seq}",
            )
            self._records.append(ArtifactRecord(
                seq=header.seq, kind=header.kind,
                payload=parse_payload(blob, f"record {header.seq}"),
                length=header.length, sha256=header.sha256,
            ))

        # Footer: checksums cover every byte before its line.
        self.footer = Footer.parse(mapping)
        if pos != len(data):
            raise ArtifactFormatError(
                f"{len(data) - pos} trailing bytes after the {END_MARKER} line"
            )
        if self.footer.records != len(self._records):
            raise ArtifactFormatError(
                f"footer declares {self.footer.records} records, "
                f"stream holds {len(self._records)}"
            )
        content = data[:line_start]
        if integrity.sha256_hex(content) != self.footer.content_sha256:
            raise ArtifactIntegrityError("artifact content checksum mismatch")
        if self.key is not None:
            integrity.verify_signature(self.key, content, self.footer.signature)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def signed(self) -> bool:
        return self.footer is not None and self.footer.signature is not None

    @property
    def signature_verified(self) -> bool:
        return self.signed and self.key is not None

    @property
    def record_count(self) -> int:
        return len(self._records)

    def records(self) -> List[ArtifactRecord]:
        return list(self._records)

    def records_of_kind(self, kind: str) -> List[ArtifactRecord]:
        return [record for record in self._records if record.kind == kind]

    def verify_summary(self) -> Dict[str, object]:
        """What ``python -m repro artifact verify`` prints on success."""
        kinds: Dict[str, int] = {}
        for record in self._records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        assert self.footer is not None
        return {
            "path": self.path,
            "bytes": len(self._data),
            "records": len(self._records),
            "kinds": kinds,
            "signed": self.signed,
            "signature_verified": self.signature_verified,
            "content_sha256": self.footer.content_sha256,
            "repro_version": self.meta.get("repro_version"),
            "cache_schema_version": self.meta.get("cache_schema_version"),
        }


def verify_artifact(
    source: Union[str, os.PathLike, bytes], key: Optional[bytes] = None
) -> Dict[str, object]:
    """Open + fully verify ``source``; returns the verification summary."""
    return ArtifactReader(source, key=key).verify_summary()
