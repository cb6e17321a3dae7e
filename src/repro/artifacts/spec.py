"""The artifact container format: constants, typed errors, header parsing.

An artifact is a **text container** holding an ordered stream of JSON
records and an integrity footer::

    #!REPRO-ARTIFACT {"format":"repro-artifact","version":2}
    #@meta {"length":L,"sha256":H}
    {...provenance JSON...}
    #@record {"kind":"job","length":L,"seq":0,"sha256":H}
    {...payload JSON...}
    ...
    #!END {"content_sha256":H,"records":N,"signature":null}

Design rules, each the direct answer to a known container-format exploit
class (see ``docs/ARTIFACTS.md``):

* **Every payload is exactly one line of canonical JSON** (sorted keys,
  no whitespace, ASCII-only).  Canonical JSON can never contain a raw
  newline, so section markers cannot be smuggled inside a payload; the
  reader independently rejects any declared payload region containing a
  newline byte (:class:`ArtifactMarkerError`).
* **Headers are parsed by whitelist, never by reflection.**  Each header
  kind has a frozen dataclass whose ``parse`` classmethod checks the key
  set exactly and type-checks every value explicitly -- there is no
  ``setattr`` loop anywhere in this package, so unknown fields are a typed
  error (:class:`ArtifactHeaderError`), not an attribute injection.
* **The container holds no offsets.**  The reader finds every record by
  a sequential scan; the footer's record count must equal the records
  scanned (:class:`ArtifactFormatError`).
* **Integrity is layered**: per-record SHA-256, a whole-content SHA-256 in
  the footer, and an optional HMAC-SHA256 signature verified in constant
  time (:mod:`repro.artifacts.integrity`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro import __version__ as REPRO_VERSION
from repro.experiments.cache import CACHE_SCHEMA_VERSION

#: Bytes that open the first and last line of every artifact.
MAGIC_MARKER = "#!REPRO-ARTIFACT"
END_MARKER = "#!END"

#: Bytes that open the two section header lines.
META_MARKER = "#@meta"
RECORD_MARKER = "#@record"

#: Format version written by this code; readers reject anything else.
FORMAT_VERSION = 2
FORMAT_NAME = "repro-artifact"

#: Record/section kinds must look like identifiers (no markers, no spaces).
_KIND_RE = re.compile(r"^[a-z][a-z0-9_-]{0,63}$")
_SHA256_RE = re.compile(r"^[0-9a-f]{64}$")
_SIGNATURE_RE = _SHA256_RE  # HMAC-SHA256 hex digests share the shape.

#: Upper bound on a single payload line (headers included the container
#: stays strictly line-oriented; 64 MiB is far above any real record).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------------- #
# Typed errors
# --------------------------------------------------------------------------- #

class ArtifactError(Exception):
    """Base class: anything wrong with an artifact raises a subclass."""


class ArtifactFormatError(ArtifactError):
    """Structurally malformed artifact (bad magic, grammar, non-canonical)."""


class ArtifactHeaderError(ArtifactFormatError):
    """A section header carries unknown fields or ill-typed values."""


class ArtifactMarkerError(ArtifactFormatError):
    """Section-marker / newline bytes embedded inside a declared payload."""


class ArtifactTruncatedError(ArtifactError):
    """The file ends before its declared structure does."""


class ArtifactIntegrityError(ArtifactError):
    """A checksum (per-record or whole-content) does not match."""


class ArtifactSignatureError(ArtifactError):
    """The HMAC signature is missing, malformed, or fails verification."""


class ArtifactKeyError(ArtifactError):
    """A signing key file is missing, malformed, or too weak."""


# --------------------------------------------------------------------------- #
# Canonical JSON
# --------------------------------------------------------------------------- #

def canonical_json(payload: object) -> str:
    """The one serialization every artifact byte derives from.

    Sorted keys + no whitespace + ASCII-only means a given value has
    exactly one byte representation, payloads can never contain a raw
    newline, and re-writing a parsed artifact is byte-stable.
    """
    try:
        text = json.dumps(
            payload, sort_keys=True, separators=(",", ":"),
            ensure_ascii=True, allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise ArtifactFormatError(f"payload is not canonical-JSON encodable: {error}")
    return text


def canonical_json_bytes(payload: object) -> bytes:
    return canonical_json(payload).encode("ascii")


def parse_payload(blob: bytes, what: str) -> Dict[str, object]:
    """Decode one payload line back into a dict, enforcing canonical form.

    Rejecting non-canonical bytes (anything ``json.loads`` accepts but
    ``canonical_json`` would not re-emit identically) closes malleability:
    two byte-different artifacts can never carry the same logical content.
    """
    if b"\n" in blob or b"\r" in blob:
        raise ArtifactMarkerError(
            f"{what} payload contains newline bytes (possible embedded "
            f"section marker)"
        )
    try:
        payload = json.loads(blob.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ArtifactFormatError(f"{what} payload is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ArtifactFormatError(
            f"{what} payload must be a JSON object, got {type(payload).__name__}"
        )
    if canonical_json_bytes(payload) != blob:
        raise ArtifactFormatError(f"{what} payload is not canonical JSON")
    return payload


# --------------------------------------------------------------------------- #
# Whitelist field readers (no reflection, no setattr -- ever)
# --------------------------------------------------------------------------- #

def _require_exact_keys(
    mapping: Mapping[str, object], allowed: frozenset, what: str
) -> None:
    if not isinstance(mapping, dict):
        raise ArtifactHeaderError(f"{what} header must be a JSON object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ArtifactHeaderError(f"{what} header has unknown fields: {unknown}")
    missing = sorted(allowed - set(mapping))
    if missing:
        raise ArtifactHeaderError(f"{what} header is missing fields: {missing}")


def _read_int(mapping: Mapping[str, object], key: str, what: str,
              minimum: int = 0) -> int:
    value = mapping[key]
    # bool is an int subclass; an attacker sending true/false must not pass.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArtifactHeaderError(f"{what}.{key} must be an integer")
    if value < minimum:
        raise ArtifactHeaderError(f"{what}.{key} must be >= {minimum}, got {value}")
    return value


def _read_kind(mapping: Mapping[str, object], key: str, what: str) -> str:
    value = mapping[key]
    if not isinstance(value, str) or not _KIND_RE.match(value):
        raise ArtifactHeaderError(
            f"{what}.{key} must match {_KIND_RE.pattern!r}, got {value!r}"
        )
    return value


def _read_sha256(mapping: Mapping[str, object], key: str, what: str) -> str:
    value = mapping[key]
    if not isinstance(value, str) or not _SHA256_RE.match(value):
        raise ArtifactHeaderError(f"{what}.{key} must be 64 lowercase hex chars")
    return value


def _read_length(mapping: Mapping[str, object], key: str, what: str) -> int:
    value = _read_int(mapping, key, what, minimum=1)
    if value > MAX_PAYLOAD_BYTES:
        raise ArtifactHeaderError(
            f"{what}.{key} of {value} bytes exceeds {MAX_PAYLOAD_BYTES}"
        )
    return value


# --------------------------------------------------------------------------- #
# Header dataclasses
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class MagicHeader:
    """``#!REPRO-ARTIFACT`` line: format self-description."""

    format: str
    version: int

    _FIELDS = frozenset({"format", "version"})

    @classmethod
    def parse(cls, mapping: Mapping[str, object]) -> "MagicHeader":
        _require_exact_keys(mapping, cls._FIELDS, "magic")
        name = mapping["format"]
        if name != FORMAT_NAME:
            raise ArtifactFormatError(f"not a repro artifact (format={name!r})")
        version = _read_int(mapping, "version", "magic", minimum=1)
        if version != FORMAT_VERSION:
            raise ArtifactFormatError(
                f"unsupported artifact format version {version} "
                f"(this reader speaks {FORMAT_VERSION})"
            )
        return cls(format=name, version=version)


@dataclass(frozen=True)
class SectionHeader:
    """``#@meta`` line: the checksummed provenance section."""

    length: int
    sha256: str

    _META_FIELDS = frozenset({"length", "sha256"})

    @classmethod
    def parse_meta(cls, mapping: Mapping[str, object]) -> "SectionHeader":
        _require_exact_keys(mapping, cls._META_FIELDS, "meta")
        return cls(
            length=_read_length(mapping, "length", "meta"),
            sha256=_read_sha256(mapping, "sha256", "meta"),
        )


@dataclass(frozen=True)
class RecordHeader:
    """``#@record`` line: one appended record."""

    kind: str
    seq: int
    length: int
    sha256: str

    _FIELDS = frozenset({"kind", "length", "seq", "sha256"})

    @classmethod
    def parse(cls, mapping: Mapping[str, object]) -> "RecordHeader":
        _require_exact_keys(mapping, cls._FIELDS, "record")
        return cls(
            kind=_read_kind(mapping, "kind", "record"),
            seq=_read_int(mapping, "seq", "record"),
            length=_read_length(mapping, "length", "record"),
            sha256=_read_sha256(mapping, "sha256", "record"),
        )


@dataclass(frozen=True)
class Footer:
    """``#!END`` line: whole-content checksum + optional signature."""

    content_sha256: str
    records: int
    signature: Optional[str]

    _FIELDS = frozenset({"content_sha256", "records", "signature"})

    @classmethod
    def parse(cls, mapping: Mapping[str, object]) -> "Footer":
        _require_exact_keys(mapping, cls._FIELDS, "footer")
        signature = mapping["signature"]
        if signature is not None and (
            not isinstance(signature, str) or not _SIGNATURE_RE.match(signature)
        ):
            raise ArtifactHeaderError(
                "footer.signature must be null or 64 lowercase hex chars"
            )
        return cls(
            content_sha256=_read_sha256(mapping, "content_sha256", "footer"),
            records=_read_int(mapping, "records", "footer"),
            signature=signature,
        )


def validate_kind(kind: str) -> str:
    """Writer-side check mirroring the reader's whitelist."""
    if not isinstance(kind, str) or not _KIND_RE.match(kind):
        raise ArtifactFormatError(
            f"record kind must match {_KIND_RE.pattern!r}, got {kind!r}"
        )
    return kind


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #

def provenance(
    config_payload: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The self-description every artifact's meta section starts from.

    ``config_payload`` is a :func:`repro.experiments.cache.config_payload`
    dict (the same canonical form the cache keys hash), so an artifact
    pins exactly which system it measured; ``extra`` merges caller context
    (command line, job id, ...) -- it is plain data, never reflected.
    """
    meta: Dict[str, object] = {
        "artifact_format": FORMAT_VERSION,
        "repro_version": REPRO_VERSION,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "config": config_payload,
    }
    if extra:
        for key, value in extra.items():
            if not isinstance(key, str):
                raise ArtifactFormatError("meta keys must be strings")
            meta[key] = value
    return meta


#: Record kinds whose payloads are expected to vary between otherwise
#: identical runs (timings); ``artifact diff`` skips them by default.
VOLATILE_KINDS = frozenset({"report"})


def header_line(marker: str, payload: Dict[str, object]) -> bytes:
    """Serialise one ``#@...``/``#!...`` header line."""
    return marker.encode("ascii") + b" " + canonical_json_bytes(payload) + b"\n"


def split_header_line(line: bytes, what: str) -> tuple:
    """Split ``b"#@x {json}"`` into (marker, parsed-json-dict)."""
    marker, separator, rest = line.partition(b" ")
    if not separator:
        raise ArtifactFormatError(f"malformed {what} line: {line[:64]!r}")
    try:
        marker_text = marker.decode("ascii")
    except UnicodeDecodeError:
        raise ArtifactFormatError(f"malformed {what} line: {line[:64]!r}")
    try:
        mapping = json.loads(rest.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ArtifactFormatError(f"{what} header is not valid JSON: {error}")
    if not isinstance(mapping, dict):
        raise ArtifactFormatError(f"{what} header must be a JSON object")
    return marker_text, mapping
