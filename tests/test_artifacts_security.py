"""Adversarial artifact suite: every corruption class must raise a *typed*
:class:`ArtifactError` -- truncation at any boundary, bit flips anywhere,
a lying record count, unknown-field injection, marker smuggling -- and
``python -m repro artifact verify`` must exit nonzero on all of them.

The forgery helper below rebuilds a structurally valid artifact from
scratch with hooks to poison any single layer while keeping every *other*
hash consistent, so each test isolates exactly one defense.
"""

import dataclasses
import hashlib
import pathlib

import pytest

from repro.artifacts import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactHeaderError,
    ArtifactMarkerError,
    ArtifactReader,
    ArtifactSignatureError,
    ArtifactTruncatedError,
    generate_key,
    write_artifact_bytes,
    write_key_file,
)
from repro.artifacts.integrity import sha256_hex
from repro.artifacts.spec import (
    Footer,
    MagicHeader,
    RecordHeader,
    canonical_json_bytes,
    header_line,
)
from repro.cli import main as cli_main

RECORDS = [
    ("job", {"key": "alpha", "result": {"cycles": 100}}),
    ("job", {"key": "beta", "result": {"cycles": 200}}),
    ("report", {"wall_seconds": 1.5}),
]
META = {"artifact_format": 2, "run": "security-suite"}

#: A complete, valid artifact as format version 1 wrote it (with its
#: record index), byte for byte.
V1_ARTIFACT = (
    b'#!REPRO-ARTIFACT {"format":"repro-artifact","version":1}\n'
    b'#@meta {"length":12,"sha256":"61b0c9572cf9cb28730ffb06ef542ba79ca2db62eeaeb26e587186fea84d9a32"}\n'
    b'{"run":"v1"}\n'
    b'#@record {"kind":"job","length":11,"seq":0,"sha256":"9d51e365f1c8bfc26e8dff4501c26cf03bf87902824143a6476f10c50e912cf0"}\n'
    b'{"key":"k"}\n'
    b'#@index {"count":1,"length":137,"sha256":"fa9330ffd2b038f3b4164bd05de1b1c7b92671ab5ca10184363a2dbc5f4e9d5d"}\n'
    b'{"entries":[{"kind":"job","length":11,"offset":287,"seq":0,"sha256":"9d51e365f1c8bfc26e8dff4501c26cf03bf87902824143a6476f10c50e912cf0"}]}\n'
    b'#!END {"content_sha256":"ad09c0eaa4e364287e9010a6a90ba2fdeef9b521241e8da1db9ee530db313dd9","records":1,"signature":null}\n'
)


def forge(
    records=None,
    meta=None,
    mutate_magic=None,
    mutate_meta_header=None,
    mutate_record_header=None,
    mutate_payload=None,
    mutate_footer=None,
):
    """Build artifact bytes, optionally poisoning exactly one layer.

    Every hash *downstream* of a mutation is recomputed (an attacker can
    rewrite trailing bytes too), so the poisoned field itself is the only
    inconsistency the reader gets to catch.
    """
    out = bytearray()
    magic = {"format": "repro-artifact", "version": 2}
    if mutate_magic:
        magic = mutate_magic(magic)
    out += header_line("#!REPRO-ARTIFACT", magic)

    meta_blob = canonical_json_bytes(META if meta is None else meta)
    meta_header = {"length": len(meta_blob), "sha256": sha256_hex(meta_blob)}
    if mutate_meta_header:
        meta_header = mutate_meta_header(meta_header)
    out += header_line("#@meta", meta_header)
    out += meta_blob + b"\n"

    records = RECORDS if records is None else records
    for seq, (kind, payload) in enumerate(records):
        blob = canonical_json_bytes(payload)
        if mutate_payload:
            blob = mutate_payload(blob, seq)
        record_header = {
            "kind": kind, "length": len(blob), "seq": seq, "sha256": sha256_hex(blob),
        }
        if mutate_record_header:
            record_header = mutate_record_header(record_header, seq)
        out += header_line("#@record", record_header)
        out += blob + b"\n"

    footer = {
        "content_sha256": hashlib.sha256(bytes(out)).hexdigest(),
        "records": len(records),
        "signature": None,
    }
    if mutate_footer:
        footer = mutate_footer(footer)
    out += header_line("#!END", footer)
    return bytes(out)


class TestForgeIsFaithful:
    """The forgery helper must track the real writer byte for byte --
    otherwise the poisoning tests would be exercising a strawman format."""

    def test_unmutated_forgery_matches_the_real_writer(self):
        assert forge() == write_artifact_bytes(META, RECORDS)

    def test_unmutated_forgery_verifies(self):
        reader = ArtifactReader(forge())
        assert reader.record_count == len(RECORDS)
        assert reader.meta == META


class TestTruncation:
    def test_every_strict_prefix_raises_a_typed_error(self):
        blob = forge()
        accepted, untyped = [], []
        for cut in range(len(blob)):
            try:
                ArtifactReader(blob[:cut])
            except ArtifactError:
                continue
            except Exception as error:  # noqa: BLE001 -- the point of the test
                untyped.append((cut, type(error).__name__))
            else:
                accepted.append(cut)
        assert accepted == [], f"truncated prefixes accepted at {accepted[:10]}"
        assert untyped == [], f"untyped errors leaked at {untyped[:10]}"

    def test_trailing_garbage_after_footer_is_rejected(self):
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(forge() + b"extra")

    def test_empty_file_is_truncated_not_crash(self):
        with pytest.raises(ArtifactTruncatedError):
            ArtifactReader(b"")


class TestBitFlips:
    def test_every_single_bit_flip_raises_a_typed_error(self):
        key = generate_key()
        blob = write_artifact_bytes(META, RECORDS, key=key)
        accepted, untyped = [], []
        for position in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[position] ^= 1 << bit
                try:
                    ArtifactReader(bytes(flipped), key=key)
                except ArtifactError:
                    continue
                except Exception as error:  # noqa: BLE001
                    untyped.append((position, bit, type(error).__name__))
                else:
                    accepted.append((position, bit))
        assert accepted == [], f"bit flips accepted: {accepted[:10]}"
        assert untyped == [], f"untyped errors leaked: {untyped[:10]}"


class TestRecordCount:
    """With no index, the footer's record count is the one number that
    describes the stream; it must agree with the records scanned."""

    @pytest.mark.parametrize("delta", [1, -1])
    def test_footer_record_count_disagrees_with_stream(self, delta):
        def lie(footer):
            footer = dict(footer)
            footer["records"] += delta
            return footer
        with pytest.raises(ArtifactFormatError, match="footer declares"):
            ArtifactReader(forge(mutate_footer=lie))


class TestHeaderInjection:
    """Unknown fields never become attributes: headers are parsed by
    whitelisted key sets, so injection is a typed error, not a setattr."""

    @staticmethod
    def _inject(field, value):
        def mutate(header, *_seq):
            header = dict(header)
            header[field] = value
            return header
        return mutate

    @pytest.mark.parametrize("field", ["__class__", "extra", "setattr"])
    def test_unknown_field_in_record_header(self, field):
        blob = forge(mutate_record_header=self._inject(field, "x"))
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(blob)

    def test_unknown_field_in_meta_header(self):
        blob = forge(mutate_meta_header=self._inject("__init__", 1))
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(blob)

    def test_unknown_field_in_magic_header(self):
        blob = forge(mutate_magic=self._inject("loader", "pickle"))
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(blob)

    def test_unknown_field_in_footer(self):
        blob = forge(mutate_footer=self._inject("trusted", True))
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(blob)

    def test_missing_record_header_field(self):
        def drop(header, _seq):
            header = dict(header)
            del header["sha256"]
            return header
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(forge(mutate_record_header=drop))

    def test_bool_smuggled_as_integer_length(self):
        # bool subclasses int; a type-confusion classic the whitelist blocks.
        def confuse(header, _seq):
            header = dict(header)
            header["length"] = True
            return header
        with pytest.raises(ArtifactHeaderError):
            ArtifactReader(forge(mutate_record_header=confuse))

    def test_record_seq_mismatch(self):
        def bump(header, seq):
            if seq == 1:
                header = dict(header)
                header["seq"] = 7
            return header
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(forge(mutate_record_header=bump))

    def test_unsupported_format_version(self):
        def bump(magic):
            magic = dict(magic)
            magic["version"] = 99
            return magic
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(forge(mutate_magic=bump))


class TestMarkerSmuggling:
    def test_marker_bytes_in_payload_region_with_corrected_sha(self):
        """An attacker embeds a fake ``#@record`` line inside a declared
        payload region *and* fixes every checksum to match -- the payload
        region's no-newline rule must still catch it."""
        fake = (
            b'{"key":"alpha"}\n'
            b'#@record {"kind":"job","length":9,"seq":9,"sha256":"'
            + b"0" * 64 + b'"}'
        )

        def smuggle(blob, seq):
            return fake if seq == 0 else blob

        with pytest.raises(ArtifactMarkerError):
            ArtifactReader(forge(mutate_payload=smuggle))

    def test_non_canonical_payload_is_rejected(self):
        # Same logical JSON, different bytes: malleability is a format error.
        def uglify(blob, seq):
            return blob.replace(b'":', b'": ') if seq == 0 else blob
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(forge(mutate_payload=uglify))

    def test_payload_swap_between_records_is_caught(self):
        # Swap two payloads but keep each header's sha describing its own
        # original -- per-record checksums pin payloads to their headers.
        blobs = [canonical_json_bytes(payload) for _, payload in RECORDS]

        def swap(blob, seq):
            return blobs[1] if seq == 0 else (blobs[0] if seq == 1 else blob)

        def keep_original_header(header, seq):
            header = dict(header)
            original = blobs[header["seq"]]
            header["length"] = len(original)
            header["sha256"] = sha256_hex(original)
            return header

        with pytest.raises(ArtifactError):
            ArtifactReader(forge(
                mutate_payload=swap, mutate_record_header=keep_original_header
            ))


class TestSignatureStripping:
    def test_stripped_signature_is_detected(self):
        key = generate_key()
        signed = write_artifact_bytes(META, RECORDS, key=key)
        # Forge an unsigned footer over the same content.
        stripped = forge()
        assert signed[:stripped.rfind(b"#!END")] == stripped[:stripped.rfind(b"#!END")]
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(stripped, key=key)

    def test_resigned_with_attacker_key_is_detected(self):
        key = generate_key()
        resigned = write_artifact_bytes(META, RECORDS, key=generate_key())
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(resigned, key=key)


class TestNoReflection:
    """The PFM post-mortem class: parsed input must never drive setattr."""

    def test_no_reflection_rule_reports_zero_findings(self):
        """The AST-based reprolint rule replaces the old regex source scan.

        The rule sees aliased calls, ``object.__setattr__`` and ``__dict__``
        mutation that a ``"setattr(" in text`` scan misses, and does not
        false-positive on mentions inside comments or docstrings.
        """
        from repro.lint import manifest
        from repro.lint.framework import parse_project, run_rules
        from repro.lint.rules import NoReflectionRule

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        project, parse_errors = parse_project(
            repo_root, manifest.NO_REFLECTION_TARGETS
        )
        assert project.files, "no-reflection target files not found"
        result = run_rules(project, [NoReflectionRule()], parse_errors)
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings
        )

    @pytest.mark.parametrize("instance", [
        MagicHeader(format="repro-artifact", version=2),
        RecordHeader(kind="job", seq=0, length=2, sha256="0" * 64),
        Footer(content_sha256="0" * 64, records=0, signature=None),
    ])
    def test_parsed_headers_are_frozen(self, instance):
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.kind = "evil"  # type: ignore[misc]

    def test_dunder_keys_in_meta_stay_plain_data(self):
        blob = write_artifact_bytes(
            {"__class__": "os.system", "signature": "forged"}, [("job", {"key": "k"})]
        )
        reader = ArtifactReader(blob)
        assert type(reader.meta) is dict
        assert reader.meta["__class__"] == "os.system"
        # The meta "signature" field is inert data; the artifact is unsigned.
        assert reader.signed is False


class TestCliVerifyExitCodes:
    """``repro artifact verify`` must exit nonzero for every corruption
    class -- CI relies on the exit code, not on a human reading stderr."""

    def _write(self, tmp_path, name, blob):
        path = str(tmp_path / name)
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    def test_valid_artifact_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.artifact", forge())
        assert cli_main(["artifact", "verify", path]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("name,blob_fn", [
        ("truncated", lambda: forge()[:200]),
        ("bitflip", lambda: forge()[:150] + bytes([forge()[150] ^ 1]) + forge()[151:]),
        ("badcount", lambda: forge(
            mutate_footer=lambda f: {**f, "records": 10 ** 9})),
        ("injected", lambda: forge(
            mutate_record_header=lambda h, s: {**h, "__class__": "x"})),
        ("trailing", lambda: forge() + b"junk"),
    ])
    def test_corrupted_artifact_exits_nonzero(self, tmp_path, capsys, name, blob_fn):
        path = self._write(tmp_path, f"{name}.artifact", blob_fn())
        code = cli_main(["artifact", "verify", path])
        assert code != 0
        output = capsys.readouterr()
        assert "Artifact" in output.err or "error" in output.err.lower()

    def test_wrong_key_exits_nonzero(self, tmp_path, capsys):
        key_path = str(tmp_path / "signer.key")
        other_path = str(tmp_path / "other.key")
        key = write_key_file(key_path)
        write_key_file(other_path)
        path = self._write(
            tmp_path, "signed.artifact",
            write_artifact_bytes(META, RECORDS, key=key),
        )
        assert cli_main(["artifact", "verify", path, "--key", key_path]) == 0
        capsys.readouterr()
        assert cli_main(["artifact", "verify", path, "--key", other_path]) != 0

    def test_format_version_1_is_rejected(self, tmp_path, capsys):
        path = self._write(tmp_path, "v1.artifact", V1_ARTIFACT)
        assert cli_main(["artifact", "verify", path]) == 1
        assert (
            "unsupported artifact format version 1 (this reader speaks 2)"
            in capsys.readouterr().err
        )

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(
            ["artifact", "verify", str(tmp_path / "missing.artifact")]
        ) != 0
