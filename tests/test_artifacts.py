"""Result-artifact round-trip properties: write -> read is byte-stable,
in-memory and on-disk writes agree, signing round-trips, and emitted sweep
artifacts diff field by field.

The adversarial half of the contract (tampering, truncation, injection)
lives in ``tests/test_artifacts_security.py``.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import __version__
from repro.artifacts import (
    ArtifactError,
    ArtifactReader,
    ArtifactSignatureError,
    ArtifactWriter,
    diff_artifacts,
    generate_key,
    load_key_file,
    provenance,
    verify_artifact,
    write_artifact_bytes,
    write_key_file,
)
from repro.artifacts.emit import emit_run_artifact
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
    st.sampled_from(["#@record", "#@index", "#!END", "#!REPRO-ARTIFACT"]),
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
        with ArtifactWriter(first, meta=meta) as writer:
            for kind, payload in records:
                writer.append(kind, payload)
        reader = ArtifactReader(first)
        assert reader.meta == meta
        assert [(r.kind, r.payload) for r in reader.records()] == records
        # Re-writing the parsed content reproduces the file byte for byte.
        second = str(tmp_path / "second.artifact")
        with ArtifactWriter(second, meta=reader.meta) as writer:
            for record in reader.records():
                writer.append(record.kind, record.payload)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_in_memory_bytes_equal_on_disk_bytes(self, tmp_path):
        records = [("job", {"key": "k", "x": 1}), ("note", {"t": "#@record"})]
        path = str(tmp_path / "disk.artifact")
        with ArtifactWriter(path, meta={"m": 1}) as writer:
            for kind, payload in records:
                writer.append(kind, payload)
        blob = write_artifact_bytes({"m": 1}, records)
        with open(path, "rb") as handle:
            assert handle.read() == blob

    def test_marker_text_inside_values_is_escaped_not_executed(self, tmp_path):
        path = str(tmp_path / "markers.artifact")
        evil = "\n#@record {\"kind\":\"job\",\"length\":1,\"seq\":9,\"sha256\":\"x\"}\n"
        with ArtifactWriter(path, meta={}) as writer:
            writer.append("job", {"key": "k", "note": evil})
        reader = ArtifactReader(path)
        assert reader.record_count == 1
        assert reader.records()[0].payload["note"] == evil


class TestSigning:
    def test_signed_round_trip_and_summary(self, tmp_path):
        path = str(tmp_path / "signed.artifact")
        key = generate_key()
        with ArtifactWriter(path, meta=provenance(), key=key) as writer:
            writer.append("job", {"key": "k"})
        summary = verify_artifact(path, key=key)
        assert summary["signed"] is True
        assert summary["signature_verified"] is True
        assert summary["repro_version"] == __version__
        assert summary["cache_schema_version"] == CACHE_SCHEMA_VERSION

    def test_wrong_key_is_rejected(self, tmp_path):
        path = str(tmp_path / "signed.artifact")
        with ArtifactWriter(path, meta={}, key=generate_key()) as writer:
            writer.append("job", {"key": "k"})
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(path, key=generate_key())

    def test_unsigned_artifact_with_key_is_rejected(self, tmp_path):
        path = str(tmp_path / "plain.artifact")
        with ArtifactWriter(path, meta={}) as writer:
            writer.append("job", {"key": "k"})
        with pytest.raises(ArtifactSignatureError):
            ArtifactReader(path, key=generate_key())

    def test_key_file_round_trip_and_permissions(self, tmp_path):
        path = str(tmp_path / "hmac.key")
        key = write_key_file(path)
        assert load_key_file(path) == key
        assert os.stat(path).st_mode & 0o777 == 0o600


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
        with ArtifactWriter(mutated, meta=reader.meta) as writer:
            for record in reader.records():
                payload = json.loads(json.dumps(record.payload))
                if record.kind == "job":
                    payload["result"]["cycles"] += 7
                writer.append(record.kind, payload)
        outcome = diff_artifacts(ArtifactReader(path), ArtifactReader(mutated))
        assert not outcome.is_empty
        changes = list(outcome.changed.values())[0]
        assert any(change.path == "result.cycles" for change in changes)

    def test_diff_reports_added_and_removed_records(self, tmp_path):
        left = str(tmp_path / "left.artifact")
        right = str(tmp_path / "right.artifact")
        with ArtifactWriter(left, meta={}) as writer:
            writer.append("job", {"key": "shared"})
            writer.append("job", {"key": "only-left"})
        with ArtifactWriter(right, meta={}) as writer:
            writer.append("job", {"key": "shared"})
            writer.append("job", {"key": "only-right"})
        outcome = diff_artifacts(ArtifactReader(left), ArtifactReader(right))
        assert outcome.removed == ["job:only-left"]
        assert outcome.added == ["job:only-right"]
        assert outcome.compared == 1


class TestWriterValidation:
    def test_bad_kind_is_rejected_before_writing(self, tmp_path):
        path = str(tmp_path / "bad.artifact")
        with pytest.raises(ArtifactError):
            with ArtifactWriter(path, meta={}) as writer:
                writer.append("Not A Kind!", {"key": "k"})
        # The failed session removed its half-written file.
        assert not os.path.exists(path)

    def test_non_dict_payload_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            with ArtifactWriter(str(tmp_path / "x.artifact"), meta={}) as writer:
                writer.append("job", [1, 2, 3])

    def test_nan_payload_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            with ArtifactWriter(str(tmp_path / "x.artifact"), meta={}) as writer:
                writer.append("job", {"x": float("nan")})

    def test_closed_writer_refuses_appends(self, tmp_path):
        path = str(tmp_path / "closed.artifact")
        writer = ArtifactWriter(path, meta={})
        writer.close()
        with pytest.raises(ArtifactError):
            writer.append("job", {"key": "k"})


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
