"""Result-artifact round-trip properties: write -> read is byte-stable,
in-memory and on-disk writes agree, signing round-trips, emitted sweep
artifacts diff field by field, and a failed write leaves the previous file.

The adversarial half of the contract (tampering, truncation, injection)
lives in ``tests/test_artifacts_security.py``.
"""

import errno
import gc
import io
import json
import os
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro import __version__
from repro.artifacts import (
    ArtifactError,
    ArtifactReader,
    ArtifactSignatureError,
    diff_artifacts,
    generate_key,
    load_key_file,
    provenance,
    verify_artifact,
    write_artifact,
    write_artifact_bytes,
    write_key_file,
)
from repro.artifacts.emit import emit_run_artifact
from repro.cli import main as cli_main
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_payload,
)
from repro.experiments.sweep import SweepEngine, SweepSpec


# --------------------------------------------------------------------------- #
# Hypothesis strategies: arbitrary JSON-ish record streams
# --------------------------------------------------------------------------- #

# Text deliberately includes newlines, carriage returns and the section
# markers themselves -- all must round-trip safely *inside* payload values.
nasty_text = st.one_of(
    st.text(alphabet="abc #@!\\\"{}[]:,\n\r\té☃", max_size=20),
    st.sampled_from(["#@record", "#@meta", "#!END", "#!REPRO-ARTIFACT"]),
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 53), max_value=1 << 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    nasty_text,
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(nasty_text, children, max_size=4),
    ),
    max_leaves=12,
)

payloads = st.dictionaries(nasty_text, json_values, max_size=6)
kinds = st.sampled_from(["job", "probe", "report", "bench", "note"])
record_streams = st.lists(st.tuples(kinds, payloads), max_size=12)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(records=record_streams, meta=payloads)
    def test_write_read_rewrite_is_byte_stable(self, tmp_path_factory, records, meta):
        tmp_path = tmp_path_factory.mktemp("artifact")
        first = str(tmp_path / "first.artifact")
        assert write_artifact(first, meta, records) == len(records)
        reader = ArtifactReader(first)
        assert reader.meta == meta
        assert [(r.kind, r.payload) for r in reader.records()] == records
        # Re-writing the parsed content reproduces the file byte for byte.
        second = str(tmp_path / "second.artifact")
        write_artifact(
            second, reader.meta, [(r.kind, r.payload) for r in reader.records()]
        )
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_in_memory_bytes_equal_on_disk_bytes(self, tmp_path):
        records = [("job", {"key": "k", "x": 1}), ("note", {"t": "#@record"})]
        path = str(tmp_path / "disk.artifact")
        write_artifact(path, {"m": 1}, records)
        blob = write_artifact_bytes({"m": 1}, records)
        with open(path, "rb") as handle:
            assert handle.read() == blob

    def test_format_version_2_has_no_index(self):
        blob = write_artifact_bytes({"m": 1}, [("job", {"key": "k"})])
        lines = blob.splitlines()
        assert lines[0] == b'#!REPRO-ARTIFACT {"format":"repro-artifact","version":2}'
        assert [line.split(b" ")[0] for line in lines[1::2]] == [
            b"#@meta", b"#@record", b"#!END",
        ]

    def test_marker_text_inside_values_is_escaped_not_executed(self, tmp_path):
        path = str(tmp_path / "markers.artifact")
        evil = "\n#@record {\"kind\":\"job\",\"length\":1,\"seq\":9,\"sha256\":\"x\"}\n"
        write_artifact(path, {}, [("job", {"key": "k", "note": evil})])
        reader = ArtifactReader(path)
        assert reader.record_count == 1
        assert reader.records()[0].payload["note"] == evil


class TestSigning:
    def test_signed_round_trip_and_summary(self, tmp_path):
        path = str(tmp_path / "signed.artifact")
        key = generate_key()
        write_artifact(path, provenance(), [("job", {"key": "k"})], key=key)
        summary = verify_artifact(path, key=key)
        assert summary["signed"] is True
        assert summary["signature_verified"] is True
        assert summary["repro_version"] == __version__
        assert summary["cache_schema_version"] == CACHE_SCHEMA_VERSION

    def test_wrong_key_is_rejected(self, tmp_path):
        path = str(tmp_path / "signed.artifact")
        write_artifact(path, {}, [("job", {"key": "k"})], key=generate_key())
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(path, key=generate_key())

    def test_unsigned_artifact_with_key_is_rejected(self, tmp_path):
        path = str(tmp_path / "plain.artifact")
        write_artifact(path, {}, [("job", {"key": "k"})])
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(path, key=generate_key())

    def test_key_file_round_trip_and_permissions(self, tmp_path):
        path = str(tmp_path / "hmac.key")
        key = write_key_file(path)
        assert load_key_file(path) == key
        assert os.stat(path).st_mode & 0o777 == 0o600

    def test_keygen_force_over_a_readable_file_leaves_mode_0600(self, tmp_path, capsys):
        path = str(tmp_path / "hmac.key")
        with open(path, "w", encoding="ascii") as handle:
            handle.write("00" * 32 + "\n")
        os.chmod(path, 0o644)
        assert cli_main(["artifact", "keygen", path, "--force"]) == 0
        assert "(mode 0600)" in capsys.readouterr().out
        assert os.stat(path).st_mode & 0o777 == 0o600
        assert load_key_file(path) != bytes(32)
        assert os.listdir(tmp_path) == ["hmac.key"]


# --------------------------------------------------------------------------- #
# Diff + emit integration (a real tiny sweep)
# --------------------------------------------------------------------------- #

TINY_SPEC = SweepSpec(
    mechanisms=("Chronus",),
    nrh_values=(1024,),
    mixes=(("429.mcf",),),
    accesses_per_core=150,
)


class TestEmitAndDiff:
    def _emit(self, tmp_path, name, cache_dir):
        engine = SweepEngine(cache=ResultCache(cache_dir), workers=0)
        jobs = TINY_SPEC.expand()
        results = engine.run_jobs(jobs)
        path = str(tmp_path / name)
        emit_run_artifact(
            path, jobs, results, report=engine.last_run_report,
            base_config=TINY_SPEC.resolved_base_config(),
        )
        return path

    def test_identical_sweeps_diff_clean(self, tmp_path):
        first = self._emit(tmp_path, "first.artifact", str(tmp_path / "c1"))
        second = self._emit(tmp_path, "second.artifact", str(tmp_path / "c2"))
        outcome = diff_artifacts(ArtifactReader(first), ArtifactReader(second))
        assert outcome.is_empty
        assert outcome.compared == len(TINY_SPEC.expand())
        # The volatile timing report was skipped, not compared.
        assert outcome.skipped_kinds.get("report", 0) > 0

    def test_run_artifact_carries_full_provenance(self, tmp_path):
        path = self._emit(tmp_path, "run.artifact", str(tmp_path / "cache"))
        reader = ArtifactReader(path)
        assert reader.meta["repro_version"] == __version__
        assert reader.meta["cache_schema_version"] == CACHE_SCHEMA_VERSION
        expected_config = json.loads(
            json.dumps(config_payload(TINY_SPEC.resolved_base_config()))
        )  # JSON round-trip: tuples come back as lists
        assert reader.meta["config"] == expected_config
        jobs = reader.records_of_kind("job")
        assert len(jobs) == len(TINY_SPEC.expand())
        mechanisms = set()
        for record in jobs:
            assert record.payload["key"]
            mechanisms.add(record.payload["job"]["config"]["mechanism"])
            assert record.payload["result"]["cycles"] > 0
        assert "Chronus" in mechanisms  # the sweep point itself is in there

    def test_changed_result_shows_up_field_by_field(self, tmp_path):
        path = self._emit(tmp_path, "base.artifact", str(tmp_path / "cache"))
        reader = ArtifactReader(path)
        mutated = str(tmp_path / "mutated.artifact")
        records = []
        for record in reader.records():
            payload = json.loads(json.dumps(record.payload))
            if record.kind == "job":
                payload["result"]["cycles"] += 7
            records.append((record.kind, payload))
        write_artifact(mutated, reader.meta, records)
        outcome = diff_artifacts(ArtifactReader(path), ArtifactReader(mutated))
        assert not outcome.is_empty
        changes = list(outcome.changed.values())[0]
        assert any(change.path == "result.cycles" for change in changes)

    def test_diff_reports_added_and_removed_records(self, tmp_path):
        left = str(tmp_path / "left.artifact")
        right = str(tmp_path / "right.artifact")
        write_artifact(left, {}, [("job", {"key": "shared"}), ("job", {"key": "only-left"})])
        write_artifact(right, {}, [("job", {"key": "shared"}), ("job", {"key": "only-right"})])
        outcome = diff_artifacts(ArtifactReader(left), ArtifactReader(right))
        assert outcome.removed == ["job:only-left"]
        assert outcome.added == ["job:only-right"]
        assert outcome.compared == 1


class TestWriterValidation:
    def test_bad_kind_is_rejected_before_writing(self, tmp_path):
        path = str(tmp_path / "bad.artifact")
        with pytest.raises(ArtifactError):
            write_artifact(path, {}, [("Not A Kind!", {"key": "k"})])
        assert os.listdir(tmp_path) == []

    def test_rewrite_with_a_bad_kind_keeps_the_previous_artifact(self, tmp_path):
        path = str(tmp_path / "run.artifact")
        write_artifact(path, {}, [("job", {"key": "k"})])
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(ArtifactError):
            write_artifact(path, {}, [("job", {"key": "k"}), ("Not A Kind!", {})])
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["run.artifact"]

    def test_non_dict_payload_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            write_artifact(str(tmp_path / "x.artifact"), {}, [("job", [1, 2, 3])])

    def test_nan_payload_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            write_artifact(str(tmp_path / "x.artifact"), {}, [("job", {"x": float("nan")})])


class _FullDisk(io.FileIO):
    """A file whose every write fails the way a full disk does."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _full_disk_fdopen(descriptor, mode="r", *args, **kwargs):
    return io.BufferedWriter(_FullDisk(descriptor, "wb"))


def _raise_eio(*args, **kwargs):
    raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestAtomicWrite:
    """A write that fails anywhere leaves the artifact that was at the path
    byte for byte, no temporary file, and no unclosed handle."""

    FAULTS = {
        "write": ("fdopen", _full_disk_fdopen, errno.ENOSPC),
        "fsync": ("fsync", _raise_eio, errno.EIO),
        "replace": ("replace", _raise_eio, errno.EIO),
    }

    @pytest.mark.parametrize("stage", list(FAULTS))
    def test_failed_rewrite_keeps_the_previous_artifact(self, tmp_path, monkeypatch, stage):
        path = str(tmp_path / "run.artifact")
        write_artifact(path, {"run": 1}, [("job", {"key": "k"})])
        with open(path, "rb") as handle:
            before = handle.read()
        name, fault, code = self.FAULTS[stage]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with monkeypatch.context() as patch:
                patch.setattr(os, name, fault)
                with pytest.raises(OSError) as excinfo:
                    write_artifact(path, {"run": 2}, [("job", {"key": "new"})])
            errno_seen, filename = excinfo.value.errno, excinfo.value.filename
            del excinfo  # its traceback holds the writer's frame and handle
            gc.collect()
        assert errno_seen == code
        assert filename == path
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["run.artifact"]
        # Once the fault clears, the same write goes through.
        write_artifact(path, {"run": 2}, [("job", {"key": "new"})])
        assert ArtifactReader(path).meta == {"run": 2}

    def test_a_new_artifact_honours_the_umask(self, tmp_path):
        path = str(tmp_path / "run.artifact")
        previous = os.umask(0o027)
        try:
            write_artifact(path, {}, [])
        finally:
            os.umask(previous)
        assert os.stat(path).st_mode & 0o777 == 0o640


class TestCommittedBenchArtifacts:
    """The committed ``benchmarks/BENCH_*.artifact`` files must verify and
    wrap exactly the committed JSON trajectories, and regeneration must be
    byte-stable (no timestamps in the artifact layer)."""

    def _bench_dir(self):
        import pathlib

        import repro

        return pathlib.Path(repro.__file__).resolve().parents[2] / "benchmarks"

    def test_every_bench_json_has_a_verifiable_artifact(self, tmp_path):
        from repro.artifacts.emit import emit_bench_artifact

        bench_jsons = sorted(self._bench_dir().glob("BENCH_*.json"))
        assert bench_jsons, "no committed bench trajectories found"
        for bench_json in bench_jsons:
            artifact = bench_json.with_suffix(".artifact")
            assert artifact.exists(), f"missing committed {artifact.name}"
            reader = ArtifactReader(str(artifact))
            record = reader.records_of_kind("bench")[0]
            with open(bench_json, "r", encoding="utf-8") as handle:
                assert record.payload["bench"] == json.load(handle)
            regenerated = emit_bench_artifact(
                bench_json, artifact_path=str(tmp_path / artifact.name)
            )
            with open(regenerated, "rb") as new, open(artifact, "rb") as old:
                assert new.read() == old.read(), f"{artifact.name} is stale"
