"""Simulation service: protocol, admission, streaming and edge cases.

The integration tests run a real :class:`SimulationService` on an ephemeral
port (event loop on a background thread) and talk to it through the real
blocking :class:`ServiceClient` -- sockets, HTTP parsing, the event stream
and the executor thread are all exercised exactly as in production.

Controllable timing (submit-while-full, cancel mid-run, disconnect
mid-stream) uses a :class:`BlockingEngine` -- a real ``SweepEngine`` whose
``run_jobs`` parks on an event until the test releases it, honouring the
cancellation token the way the real engine does between jobs.
"""

import asyncio
import http.client
import io
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.sweep import (
    RunReport,
    SweepCancelled,
    SweepEngine,
)
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError, _raise_for_status
from repro.service.queue import (
    ClientCapExceeded,
    FairQueue,
    JobRecord,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.service import server
from repro.service.server import _discard_until_eof
from repro.service.specs import MAX_ACCESSES, SpecError, parse_submission
from service_harness import ServiceHarness

TINY_SWEEP = {
    "mechanisms": ["Chronus"],
    "nrh": [64],
    "num_mixes": 1,
    "accesses": 200,
}


# --------------------------------------------------------------------------- #
# Protocol layer (sans-I/O, no sockets)
# --------------------------------------------------------------------------- #

#: asyncio's default stream buffer limit, as ``asyncio.start_server`` and a
#: bare ``asyncio.StreamReader()`` both use.
STREAM_LIMIT = 1 << 16


def read_request_from(data: bytes):
    """``protocol.read_request`` over ``data`` followed by EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_request(reader)

    return asyncio.run(read())


def assert_parses_or_rejects(data: bytes) -> None:
    """The codec's contract on any input: a request, ``None``, or a typed
    error; a body cut short by EOF reads as a dropped connection."""
    try:
        request = read_request_from(data)
    except (protocol.ProtocolError, asyncio.IncompleteReadError):
        return
    assert request is None or isinstance(request, protocol.HttpRequest)


#: Request targets, with brackets, ``%``-escapes and authority forms.
TARGETS = st.one_of(
    st.sampled_from(("/", "//[", "//[::1", "http://[::1/x", "/jobs?a=1&b=%zz", "/%", "/a%2")),
    st.text(alphabet="/[]%?#:@a1", max_size=12),
).map(lambda target: target.encode("latin-1"))

#: Content-Length values, poisoned ones included.
LENGTHS = st.one_of(
    st.sampled_from((
        "0", "3", "+3", "1_0", " 3", "-1", "", "0x3", "\xb2", "3 3",
        "9" * 5000, "99999999999999999999",
    )),
    st.integers(0, 40).map(str),
).map(lambda value: b"Content-Length: " + value.encode("latin-1"))

#: A line one byte past the stream limit, with no newline in reach.
OVERSIZED_LINE = b"x" * (STREAM_LIMIT + 1)

LINES_WITHOUT_NEWLINE = st.binary(max_size=24).map(lambda line: line.replace(b"\n", b""))

REQUEST_LINES = st.one_of(
    st.builds(
        lambda method, target, version: b" ".join((method, target, version)),
        st.sampled_from((b"GET", b"post", b"DELETE")), TARGETS,
        st.sampled_from((b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2")),
    ),
    LINES_WITHOUT_NEWLINE,
    st.just(OVERSIZED_LINE),
)

HEADER_LINES = st.one_of(
    LENGTHS,
    st.sampled_from((b"Host: x", b"no-colon", b": empty", b"X-Pad: " + OVERSIZED_LINE)),
    LINES_WITHOUT_NEWLINE,
)


@st.composite
def http_requests(draw):
    """A request head built line by line, then a body."""
    newline = draw(st.sampled_from((b"\r\n", b"\n")))
    lines = [draw(REQUEST_LINES)] + draw(st.lists(HEADER_LINES, max_size=4))
    head = newline.join(lines) + newline
    if draw(st.booleans()):
        head += newline
    return head + draw(st.binary(max_size=12))


class TestReadRequest:
    """``read_request`` answers malformed input with a typed error."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_any_bytes_then_eof(self, data):
        assert_parses_or_rejects(data)

    @settings(max_examples=300, deadline=None)
    @given(data=http_requests())
    def test_structured_requests_then_eof(self, data):
        assert_parses_or_rejects(data)

    def test_unbalanced_bracket_target_is_400(self):
        with pytest.raises(protocol.ProtocolError, match="malformed request target") as info:
            read_request_from(b"GET //[ HTTP/1.1\r\n\r\n")
        assert info.value.status == 400

    @pytest.mark.parametrize("head", (
        OVERSIZED_LINE,
        b"GET / HTTP/1.1\r\nX-Pad: " + OVERSIZED_LINE + b"\r\n\r\n",
    ), ids=("request-line", "header-line"))
    def test_line_past_the_stream_limit_is_400(self, head):
        with pytest.raises(protocol.ProtocolError, match="too long") as info:
            read_request_from(head)
        assert info.value.status == 400

    @pytest.mark.parametrize("length", ("+3", "1_0"))
    def test_content_length_takes_ascii_digits_only(self, length):
        head = f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        with pytest.raises(protocol.ProtocolError, match="bad Content-Length"):
            read_request_from(head.encode("latin-1") + b"{}{}{}{}{}")

    def test_content_length_past_int_conversion_is_413(self):
        head = "POST /jobs HTTP/1.1\r\nContent-Length: " + "9" * 5000 + "\r\n\r\n"
        with pytest.raises(protocol.ProtocolError) as info:
            read_request_from(head.encode("latin-1"))
        assert info.value.status == 413

    def test_status_does_not_depend_on_the_message(self):
        """A malformed header line that echoes "exceeds" is still a 400."""
        with pytest.raises(protocol.ProtocolError, match="exceeds") as info:
            read_request_from(b"GET / HTTP/1.1\r\nexceeds\r\n\r\n")
        assert info.value.status == 400


class CannedSocket:
    """What ``http.client.HTTPResponse`` reads from: ``data``, then EOF."""

    def __init__(self, data: bytes):
        self._file = io.BytesIO(data)

    def makefile(self, mode):
        return self._file


def canned_response(data: bytes) -> http.client.HTTPResponse:
    """``data`` parsed by http.client as the answer to a GET."""
    response = http.client.HTTPResponse(CannedSocket(data), method="GET")
    response.begin()
    return response


#: Any value a JSON event can hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=12,
)


class TestEventLines:
    """The stream's framing: one JSON object per ``\\n``-ended line after a
    head that leaves the length to the server's close."""

    @pytest.mark.parametrize("payload", (
        {"event": "state", "state": "done", "seq": 3, "job": "j1"},
        {"event": "state", "state": "failed", "error": "line one\nline two\r\n"},
        {"event": "job", "app": "na\u00efve \u2028 \u2029 \x85 sep"},
        {"event": "report", "report": {"b": [1, 2.5, None, True], "a": {}}},
    ), ids=("state", "newlines-in-text", "unicode-line-breaks", "nested"))
    def test_json_line_is_one_sorted_object_then_its_newline(self, payload):
        line = protocol.json_line(payload)
        assert line.count(b"\n") == 1 and line.endswith(b"\n")
        # Escaped to ASCII, so no reader can split a line on U+2028 or NEL.
        assert line.isascii()
        assert line == json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        assert json.loads(line) == payload

    @settings(max_examples=200, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
    def test_any_event_is_exactly_one_line(self, payload):
        line = protocol.json_line(payload)
        assert line.index(b"\n") == len(line) - 1
        assert json.loads(line) == payload

    def test_stream_head_reads_as_a_200_that_ends_when_the_server_closes(self):
        events = [
            {"event": "state", "seq": 0, "state": "queued"},
            {"event": "state", "seq": 1, "state": "done"},
        ]
        response = canned_response(
            protocol.EVENT_STREAM_HEAD
            + b"".join(protocol.json_line(event) for event in events)
        )
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        assert response.getheader("Content-Length") is None
        assert response.length is None and response.will_close
        assert [json.loads(line) for line in iter(response.readline, b"")] == events

    def test_stray_client_bytes_are_read_in_bounded_chunks_until_eof(self):
        sizes = []

        class RecordingReader(asyncio.StreamReader):
            async def read(self, n=-1):
                sizes.append(n)
                return await super().read(n)

        async def discard():
            reader = RecordingReader()
            reader.feed_data(b"x" * 300_000)
            reader.feed_eof()
            await asyncio.wait_for(_discard_until_eof(reader), timeout=5)

        asyncio.run(discard())
        assert len(sizes) > 1
        assert all(0 < size <= 65536 for size in sizes)


class TestErrorBodies:
    """One decoder turns every call's 4xx/5xx answer into a ServiceError."""

    @pytest.mark.parametrize("wire, expected", (
        (
            protocol.error_response(429, "queue full", reason="queue_full", retry_after=2.6),
            (429, "queue full", "queue_full", 3),
        ),
        (
            protocol.http_response(502, b"bad gateway", content_type="text/plain"),
            (502, "bad gateway", "", None),
        ),
        (
            protocol.json_response(500, {"detail": "no error field"}),
            (500, "request failed", "", None),
        ),
        (protocol.http_response(503, b'["busy"]'), (503, '["busy"]', "", None)),
        (protocol.http_response(500, b"\xff oops"), (500, "\ufffd oops", "", None)),
    ), ids=("json-with-retry-after", "plain-text", "json-without-error",
            "json-not-an-object", "not-utf8"))
    def test_error_body_becomes_a_service_error(self, wire, expected):
        with pytest.raises(ServiceError) as info:
            _raise_for_status(canned_response(wire))
        error = info.value
        assert (error.status, error.message, error.reason, error.retry_after) == expected

    def test_success_is_left_unread(self):
        response = canned_response(protocol.json_response(200, {"status": "ok"}))
        _raise_for_status(response)
        assert json.loads(response.read()) == {"status": "ok"}


# --------------------------------------------------------------------------- #
# Submission validation
# --------------------------------------------------------------------------- #

class TestParseSubmission:
    def submission(self, **overrides):
        body = {"kind": "sweep", "client": "alice", "spec": dict(TINY_SWEEP)}
        body.update(overrides)
        return body

    def test_valid_sweep_expands_jobs_and_echoes_canonical_spec(self):
        submission = parse_submission(self.submission())
        assert submission.kind == "sweep"
        assert submission.client == "alice"
        assert len(submission.jobs) > 0
        spec = submission.payload["spec"]
        assert spec["mechanisms"] == ["Chronus"]
        assert spec["accesses"] == 200
        # Defaults are resolved into the echo.
        assert (spec["seed"], spec["channels"]) == (0, 1)
        assert sorted(spec) == [
            "accesses", "channels", "mechanisms", "mixes", "nrh", "seed",
        ]

    def test_valid_attack_search(self):
        submission = parse_submission({
            "kind": "attack_search", "client": "red",
            "spec": {"mechanism": "Chronus", "nrh": [8, 4], "pattern": "single_sided"},
        })
        assert submission.kind == "attack_search"
        assert len(submission.jobs) == 2
        assert [job.config.nrh for job in submission.jobs] == [4, 8]
        assert all(job.attack is not None for job in submission.jobs)

    @pytest.mark.parametrize("body", [
        "just a string",
        ["a", "list"],
        {"kind": "sweep", "spec": TINY_SWEEP, "surprise": 1},
        {"kind": "teapot", "spec": TINY_SWEEP},
        {"kind": "sweep"},
        {"kind": "sweep", "spec": "not a dict"},
        {"kind": "sweep", "priority": "high", "spec": TINY_SWEEP},
        {"kind": "sweep", "priority": 99, "spec": TINY_SWEEP},
        {"kind": "sweep", "client": "../../etc", "spec": TINY_SWEEP},
    ])
    def test_malformed_top_level_is_rejected(self, body):
        with pytest.raises(SpecError):
            parse_submission(body)

    @pytest.mark.parametrize("mutation", [
        {"mechanisms": ["NotAMechanism"]},
        {"mechanisms": []},
        {"mechanisms": "Chronus"},
        {"nrh": [0]},
        {"nrh": [True]},
        {"accesses": -5},
        {"accesses": True},
        {"accesses": 10**9},
        {"num_mixes": 0},
        {"mix_types": ["imaginary"]},
        {"channels": 9},
        {"__class__": "exploit"},
        {"base_config": {"nrh": 1}},   # no field injection past the whitelist
        {"workload_name": "x"},
        {"mixes": [["no.such.app"]]},
        {"mixes": [["429.mcf"] * 5000], "accesses": 200_000},
    ])
    def test_malformed_sweep_spec_is_rejected(self, mutation):
        spec = dict(TINY_SWEEP)
        if "mixes" in mutation:
            del spec["num_mixes"]   # mixes and num_mixes exclude each other
        spec.update(mutation)
        with pytest.raises(SpecError):
            parse_submission({"kind": "sweep", "spec": spec})

    @pytest.mark.parametrize("mutation", [
        {"mechanism": "Nope"},
        {"pattern": "not_a_pattern"},
        {"params": {"num_aggressors": "many"}},
        {"params": {"not_a_param": 3}},
        {"channel": 1},                 # out of range for channels=1
        {"attack": {"pattern": "wave"}},
        # Trace lengths past MAX_ACCESSES, and a negative parameter.
        {"pattern": "perf_attack", "params": {"num_accesses": 10**12}},
        {"pattern": "wave", "params": {"rounds": 10**9}},
        {"pattern": "single_sided", "params": {"hammer_count": 2**62}},
        {"pattern": "wave", "params": {"num_rows": -5}},
        # Rows or banks outside the organization, caught without compiling.
        {"pattern": "single_sided", "params": {"row": 10**9}},
        {"pattern": "single_sided", "params": {"bank_index": 64}},
        {"pattern": "single_sided", "params": {"dummy_distance": 10**6}},
        {"pattern": "many_sided", "params": {"first_row": 65530}},
        {"pattern": "rfm_dodge", "params": {"first_row": 70000}},
        {"pattern": "double_sided", "params": {"victim_row": 0}},
        {"pattern": "perf_attack", "params": {"rows_per_bank": 20000}},
    ])
    def test_malformed_attack_spec_is_rejected(self, mutation):
        spec = {"mechanism": "Chronus", "nrh": [8], "pattern": "single_sided"}
        spec.update(mutation)
        with pytest.raises(SpecError):
            parse_submission({"kind": "attack_search", "spec": spec})

    def test_attack_trace_length_bound_is_inclusive(self):
        spec = {"mechanism": "Chronus", "nrh": [8], "pattern": "perf_attack",
                "params": {"num_accesses": MAX_ACCESSES}}
        assert parse_submission({"kind": "attack_search", "spec": spec}).jobs
        spec["params"] = {"num_accesses": MAX_ACCESSES + 1}
        with pytest.raises(SpecError, match="accesses"):
            parse_submission({"kind": "attack_search", "spec": spec})

    def test_explicit_mixes_are_accepted(self):
        spec = dict(TINY_SWEEP)
        del spec["num_mixes"]
        spec["mixes"] = [["526.blender", "403.gcc"]]
        submission = parse_submission({"kind": "sweep", "spec": spec})
        assert any(job.config.num_cores == 2 for job in submission.jobs)

    def test_oversized_expansion_is_rejected(self):
        spec = {
            "mechanisms": list(dict.fromkeys(["Chronus", "PRAC-4", "Graphene",
                                              "Hydra", "PARA", "PRFM", "ABACuS"])),
            "nrh": list(range(100, 164)),
            "num_mixes": 8,
            "accesses": 100,
        }
        with pytest.raises(SpecError, match="split it"):
            parse_submission({"kind": "sweep", "spec": spec})


# --------------------------------------------------------------------------- #
# Admission queue
# --------------------------------------------------------------------------- #

def make_record(client="c", priority=0, job_id=None):
    submission = parse_submission(
        {"kind": "sweep", "client": client, "priority": priority,
         "spec": dict(TINY_SWEEP)}
    )
    return JobRecord(
        id=job_id or f"{client}-{time.monotonic_ns()}",
        client=client, kind=submission.kind, payload=submission.payload,
        jobs=submission.jobs, priority=priority,
    )


class TestFairQueue:
    def test_round_robin_across_clients(self):
        queue = FairQueue(max_depth=10, per_client_active=10)
        a1, a2 = make_record("alice"), make_record("alice")
        b1 = make_record("bob")
        for record in (a1, a2, b1):
            queue.submit(record)
        # Alice submitted first, but after serving her once the rotation
        # moves on to Bob before her second job.
        assert queue.next_job() is a1
        assert queue.next_job() is b1
        assert queue.next_job() is a2
        assert queue.next_job() is None

    def test_priority_beats_rotation(self):
        queue = FairQueue(max_depth=10, per_client_active=10)
        batch = make_record("alice", priority=5)
        urgent = make_record("bob", priority=0)
        queue.submit(batch)
        queue.submit(urgent)
        assert queue.next_job() is urgent
        assert queue.next_job() is batch

    def test_queue_full_raises_with_retry_hint(self):
        queue = FairQueue(max_depth=1, per_client_active=10)
        queue.submit(make_record("alice"))
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(make_record("bob"))
        assert excinfo.value.retry_after > 0

    def test_per_client_cap_counts_running_jobs(self):
        queue = FairQueue(max_depth=10, per_client_active=1)
        first = make_record("alice")
        queue.submit(first)
        assert queue.next_job() is first  # running now
        with pytest.raises(ClientCapExceeded):
            queue.submit(make_record("alice"))
        queue.submit(make_record("bob"))  # other clients are unaffected
        queue.release(first)
        queue.submit(make_record("alice"))  # slot freed

    def test_rate_limit_with_exact_retry_after(self):
        queue = FairQueue(max_depth=100, per_client_active=100, rate=0.5, burst=1)
        queue.submit(make_record("alice"))
        with pytest.raises(RateLimited) as excinfo:
            queue.submit(make_record("alice"))
        assert 0 < excinfo.value.retry_after <= 2.0

    def test_remove_only_finds_queued_jobs(self):
        queue = FairQueue()
        record = make_record("alice")
        queue.submit(record)
        assert queue.remove(record.id) is record
        assert queue.remove(record.id) is None

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.try_consume() is None
        wait = bucket.try_consume()
        assert wait is not None
        time.sleep(wait + 0.005)
        assert bucket.try_consume() is None


# --------------------------------------------------------------------------- #
# Integration harness
# --------------------------------------------------------------------------- #

class BlockingEngine(SweepEngine):
    """A real engine that parks until released (cancellation-aware)."""

    def __init__(self):
        super().__init__(workers=0)
        self.release = threading.Event()

    def run_jobs(self, jobs, progress=None, cancel=None):
        while not self.release.wait(0.005):
            if cancel is not None and cancel.cancelled:
                raise SweepCancelled(RunReport())
        return super().run_jobs(jobs, progress=progress, cancel=cancel)


@pytest.fixture
def harness():
    instance = ServiceHarness()
    yield instance
    instance.close()


@pytest.fixture
def blocking_harness():
    engine = BlockingEngine()
    instance = ServiceHarness(engine=engine, max_depth=1, per_client_active=10)
    yield instance, engine
    engine.release.set()
    instance.close()


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


# --------------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------------- #

class TestHttpSurface:
    def test_health_and_stats(self, harness):
        client = harness.client()
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == 4
        stats = client.stats()
        assert stats["queue"]["depth"] == 0
        assert "cache" in stats["engine"]

    def test_unknown_route_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client()._request("GET", "/not/a/route")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client()._request("GET", "/jobs")
        assert excinfo.value.status == 405

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client().status("doesnotexist")
        assert excinfo.value.status == 404

    def test_non_json_body_is_400(self, harness):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", harness.service.port, timeout=10
        )
        try:
            connection.request("POST", "/jobs", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["reason"] == "bad_json"
        finally:
            connection.close()

    def test_malformed_spec_is_400_with_reason(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client().submit({"mechanisms": ["NotReal"], "nrh": [8]})
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "bad_spec"

    def test_injection_style_fields_are_rejected(self, harness):
        spec = dict(TINY_SWEEP)
        spec["__init__"] = {"evil": True}
        with pytest.raises(ServiceError) as excinfo:
            harness.client().submit(spec)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("head", (
        b"GET //[ HTTP/1.1\r\n\r\n",
        # Exactly one byte past the limit, so the server has read all of
        # it when it answers and closes.
        OVERSIZED_LINE,
    ), ids=("bracket-target", "oversized-request-line"))
    def test_malformed_request_head_is_400(self, harness, head):
        with socket.create_connection(("127.0.0.1", harness.service.port), timeout=10) as sock:
            sock.sendall(head)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")


# --------------------------------------------------------------------------- #
# Jobs end to end
# --------------------------------------------------------------------------- #

class TestJobLifecycle:
    def test_sweep_job_streams_progress_and_finishes(self, harness):
        client = harness.client("alice")
        response = client.submit(dict(TINY_SWEEP))
        assert response["state"] == "queued"
        assert response["watch"] == f"/jobs/{response['job']}/events"
        events = list(client.watch(str(response["job"]), timeout=60))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "state"                      # queued
        assert "plan" in kinds
        assert "job" in kinds                           # per-job progress
        assert "report" in kinds
        final = events[-1]
        assert (final["event"], final["state"]) == ("state", "done")
        report = final["result"]["report"]
        assert report["executed_jobs"] == report["total_jobs"] > 0
        assert report["engine"] == "serial"
        assert all(summary["workload"] for summary in final["result"]["results"])
        # Sequence numbers are gapless: the replay missed nothing.
        assert [event["seq"] for event in events] == list(range(len(events)))

    def test_duplicate_submission_is_served_from_cache(self, harness):
        client = harness.client("alice")
        first = client.submit(dict(TINY_SWEEP))
        client.wait(str(first["job"]), timeout=60)
        executed_before = harness.engine.executed_jobs
        second = client.submit(dict(TINY_SWEEP))
        assert second["cached_jobs"] == second["num_jobs"]  # visible at admission
        final = client.wait(str(second["job"]), timeout=60)
        report = final["result"]["report"]
        assert report["engine"] == "cached"
        assert report["cached_jobs"] == report["total_jobs"]
        assert report["executed_jobs"] == 0
        assert report["cache_hit_rate"] == 1.0
        assert harness.engine.executed_jobs == executed_before

    def test_attack_search_job_kind(self, harness):
        client = harness.client("red")
        response = client.submit(
            {"mechanism": "Chronus", "nrh": [64], "pattern": "single_sided"},
            kind="attack_search",
        )
        final = client.wait(str(response["job"]), timeout=120)
        assert final["state"] == "done"
        assert final["result"]["results"][0]["nrh"] == 64

    def test_status_snapshot_and_full_event_log(self, harness):
        client = harness.client()
        response = client.submit(dict(TINY_SWEEP))
        client.wait(str(response["job"]), timeout=60)
        snapshot = client.status(str(response["job"]))
        assert snapshot["state"] == "done"
        assert "event_log" not in snapshot
        full = client.status(str(response["job"]), full=True)
        assert len(full["event_log"]) == full["events"] > 0

    def test_late_subscriber_replays_the_full_history(self, harness):
        client = harness.client()
        response = client.submit(dict(TINY_SWEEP))
        client.wait(str(response["job"]), timeout=60)
        # Job already finished; a fresh watch still sees everything.
        events = list(client.watch(str(response["job"]), timeout=30))
        assert events[0]["state"] == "queued"
        assert events[-1]["state"] == "done"


class TestJobHistory:
    """The service keeps MAX_FINISHED_JOBS finished jobs, and every
    unfinished one."""

    def test_the_oldest_finished_jobs_are_forgotten(self, harness, monkeypatch):
        monkeypatch.setattr(server, "MAX_FINISHED_JOBS", 2)
        client = harness.client()
        ids = []
        for _ in range(4):
            job_id = str(client.submit(dict(TINY_SWEEP))["job"])
            assert client.wait(job_id, timeout=60)["state"] == "done"
            ids.append(job_id)
        assert list(harness.service.jobs) == ids[2:]
        assert set(harness.service._pulses) == set(ids[2:])
        for job_id in ids[:2]:
            with pytest.raises(ServiceError) as excinfo:
                client.status(job_id)
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                list(client.watch(job_id, timeout=10))
            assert excinfo.value.status == 404
        assert client.stats()["jobs_by_state"] == {"done": 2}

    def test_unfinished_jobs_are_never_forgotten(self, blocking_harness, monkeypatch):
        monkeypatch.setattr(server, "MAX_FINISHED_JOBS", 1)
        harness, engine = blocking_harness
        client = harness.client("alice")
        running = str(client.submit(dict(TINY_SWEEP))["job"])
        wait_for(
            lambda: harness.service.jobs[running].state == "running",
            message="first job running",
        )
        cancelled = []
        for _ in range(2):
            job_id = str(client.submit(dict(TINY_SWEEP))["job"])
            assert client.cancel(job_id)["state"] == "cancelled"
            cancelled.append(job_id)
        assert list(harness.service.jobs) == [running, cancelled[1]]
        engine.release.set()
        assert client.wait(running, timeout=60)["state"] == "done"
        assert list(harness.service.jobs) == [running]

    def test_stop_past_the_cap_cancels_every_unfinished_job(
        self, blocking_harness, monkeypatch
    ):
        monkeypatch.setattr(server, "MAX_FINISHED_JOBS", 1)
        harness, _engine = blocking_harness
        client = harness.client("alice")
        running = str(client.submit(dict(TINY_SWEEP))["job"])
        wait_for(
            lambda: harness.service.jobs[running].state == "running",
            message="first job running",
        )
        client.cancel(str(client.submit(dict(TINY_SWEEP))["job"]))
        client.submit(dict(TINY_SWEEP))  # queued until stop cancels it
        # Each cancel in stop() forgets an older finished job.
        asyncio.run_coroutine_threadsafe(harness.service.stop(), harness.loop).result(30)
        assert list(harness.service.jobs) == [running]
        assert harness.service.jobs[running].state == "cancelled"


# --------------------------------------------------------------------------- #
# The event stream: JSON lines over plain HTTP
# --------------------------------------------------------------------------- #

def open_stream(port, job_id):
    """A raw socket that has sent ``GET /jobs/{id}/events``."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    return sock


def read_until_closed(sock, data=b""):
    """Everything the server sends until it closes the connection."""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def serve_canned(responses):
    """A stand-in server on an ephemeral port: it answers one connection
    per canned response, in order, then stops.  Returns (port, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            for response in responses:
                connection, _ = listener.accept()
                with connection:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        chunk = connection.recv(65536)
                        if not chunk:
                            break
                        head += chunk
                    connection.sendall(response)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


class TestEventStream:
    def test_wire_format_is_json_lines_until_the_server_closes(self, harness):
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        with open_stream(harness.service.port, job_id) as sock:
            head, _, body = read_until_closed(sock).partition(b"\r\n\r\n")
        header_lines = head.split(b"\r\n")
        assert header_lines[0] == b"HTTP/1.1 200 OK"
        assert b"Content-Type: application/x-ndjson" in header_lines
        assert not any(line.lower().startswith(b"content-length") for line in header_lines)
        lines = body.split(b"\n")
        assert lines.pop() == b""  # every event ends with its newline
        events = [json.loads(line) for line in lines]
        for line, event in zip(lines, events):
            assert isinstance(event, dict)
            assert line == json.dumps(event, sort_keys=True).encode("utf-8")
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert (events[-1]["event"], events[-1]["state"]) == ("state", "done")

    def test_other_methods_on_the_stream_are_405(self, harness):
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        with pytest.raises(ServiceError) as excinfo:
            harness.client()._request("POST", f"/jobs/{job_id}/events")
        assert excinfo.value.status == 405

    def test_unknown_job_stream_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            list(harness.client().watch("doesnotexist", timeout=10))
        assert excinfo.value.status == 404

    def test_bytes_sent_after_the_request_neither_end_nor_break_it(
        self, blocking_harness
    ):
        harness, engine = blocking_harness
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        with open_stream(harness.service.port, job_id) as sock:
            data = b""
            while b"\n" not in data.partition(b"\r\n\r\n")[2]:
                data += sock.recv(65536)
            sock.sendall(b"x" * 200_000)  # several of the server's read chunks
            time.sleep(0.2)
            assert harness.service.manager.subscriber_count(job_id) == 1
            engine.release.set()
            body = read_until_closed(sock, data).partition(b"\r\n\r\n")[2]
        final = json.loads(body.splitlines()[-1])
        assert (final["event"], final["state"]) == ("state", "done")

    def test_every_watcher_gets_the_whole_stream(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client()
        job_id = str(client.submit(dict(TINY_SWEEP))["job"])
        watchers = [client.watch(job_id, timeout=60) for _ in range(2)]
        firsts = [next(watcher) for watcher in watchers]
        wait_for(
            lambda: harness.service.manager.subscriber_count(job_id) == 2,
            message="two subscriptions",
        )
        engine.release.set()
        streams = [[first] + list(watcher) for first, watcher in zip(firsts, watchers)]
        assert streams[0] == streams[1]
        assert streams[0][-1]["state"] == "done"

    def test_half_closed_client_counts_as_gone(self, blocking_harness):
        harness, engine = blocking_harness
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        with open_stream(harness.service.port, job_id) as sock:
            sock.shutdown(socket.SHUT_WR)
            body = read_until_closed(sock).partition(b"\r\n\r\n")[2]
        assert b'"done"' not in body  # closed before the job ended
        assert harness.service.manager.subscriber_count(job_id) == 0
        engine.release.set()
        assert harness.client().wait(job_id, timeout=60)["state"] == "done"

    def test_watch_timeout_bounds_an_idle_stream(self, blocking_harness):
        harness, _engine = blocking_harness
        client = harness.client()  # each read may wait 30 s
        job_id = str(client.submit(dict(TINY_SWEEP))["job"])
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=f"watch of job {job_id} timed out"):
            list(client.watch(job_id, timeout=0.5))
        assert time.monotonic() - started < 2

    def test_watch_timeout_outlasts_the_client_timeout(self, blocking_harness):
        harness, _engine = blocking_harness
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        client = ServiceClient(port=harness.service.port, timeout=1.0)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=f"watch of job {job_id} timed out"):
            list(client.watch(job_id, timeout=3))
        # The watch outlasts the client's 1 s per-read timeout.
        assert 2.5 <= time.monotonic() - started < 5

    def test_cli_watch_prints_its_own_timeout(self, blocking_harness, capsys):
        from repro.cli import main as cli_main

        harness, _engine = blocking_harness
        job_id = str(harness.client().submit(dict(TINY_SWEEP))["job"])
        server = f"127.0.0.1:{harness.service.port}"
        assert cli_main(["client", "--server", server, "watch", job_id,
                         "--timeout", "0.5"]) == 1
        assert f"error: watch of job {job_id} timed out" in capsys.readouterr().err

    def test_cli_watch_of_unknown_job_exits_1(self, harness, capsys):
        from repro.cli import main as cli_main

        server = f"127.0.0.1:{harness.service.port}"
        assert cli_main(["client", "--server", server, "watch", "nosuch"]) == 1
        assert "HTTP 404" in capsys.readouterr().err

    def test_delete_on_the_stream_is_405_and_cancels_nothing(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client()
        job_id = str(client.submit(dict(TINY_SWEEP))["job"])
        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", f"/jobs/{job_id}/events")
        assert excinfo.value.status == 405
        assert not harness.service.jobs[job_id].cancel.cancelled
        engine.release.set()
        assert client.wait(job_id, timeout=60)["state"] == "done"

    def test_stream_of_a_queued_job_ends_when_it_is_cancelled(self, blocking_harness):
        harness, _engine = blocking_harness
        client = harness.client("alice")
        running = str(client.submit(dict(TINY_SWEEP))["job"])
        wait_for(
            lambda: harness.service.jobs[running].state == "running",
            message="first job running",
        )
        queued = str(client.submit(dict(TINY_SWEEP))["job"])
        watcher = client.watch(queued, timeout=30)
        assert next(watcher)["state"] == "queued"
        wait_for(
            lambda: harness.service.manager.subscriber_count(queued) == 1,
            message="queued job watched",
        )
        client.cancel(queued)
        rest = list(watcher)  # returns only once the server closes
        assert (rest[-1]["event"], rest[-1]["state"]) == ("state", "cancelled")
        assert harness.service.jobs[running].state == "running"

    def test_wait_falls_back_to_the_snapshot_when_a_stream_ends_early(self):
        running = {"event": "state", "job": "j1", "seq": 0, "state": "running"}
        snapshot = {"job": "j1", "state": "cancelled"}
        port, server = serve_canned([
            protocol.EVENT_STREAM_HEAD + protocol.json_line(running),
            protocol.json_response(200, snapshot),
        ])
        assert ServiceClient(port=port, timeout=10).wait("j1", timeout=10) == snapshot
        server.join(timeout=10)
        assert not server.is_alive()


# --------------------------------------------------------------------------- #
# Back-pressure, caps and cancellation
# --------------------------------------------------------------------------- #

class TestBackpressure:
    def test_submit_while_full_gets_429_with_retry_after(self, blocking_harness):
        harness, engine = blocking_harness  # queue depth 1
        client = harness.client("alice")
        running = client.submit(dict(TINY_SWEEP))
        wait_for(
            lambda: harness.service.jobs[running["job"]].state == "running",
            message="first job running",
        )
        queued = client.submit(dict(TINY_SWEEP))   # fills the bounded queue
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(TINY_SWEEP))
        assert excinfo.value.status == 429
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after >= 1
        engine.release.set()
        assert client.wait(str(running["job"]), timeout=60)["state"] == "done"
        assert client.wait(str(queued["job"]), timeout=60)["state"] == "done"

    def test_per_client_cap_is_per_client(self):
        harness = ServiceHarness(
            engine=BlockingEngine(), max_depth=10, per_client_active=1
        )
        try:
            alice, bob = harness.client("alice"), harness.client("bob")
            first = alice.submit(dict(TINY_SWEEP))
            with pytest.raises(ServiceError) as excinfo:
                alice.submit(dict(TINY_SWEEP))
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "client_cap"
            bob.submit(dict(TINY_SWEEP))  # bob is not capped by alice's job
            harness.engine.release.set()
            alice.wait(str(first["job"]), timeout=60)
        finally:
            harness.engine.release.set()
            harness.close()

    def test_rate_limited_submission_gets_429(self):
        harness = ServiceHarness(rate=0.001, burst=1)
        try:
            client = harness.client("chatty")
            client.submit(dict(TINY_SWEEP))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(TINY_SWEEP))
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "rate_limited"
        finally:
            harness.close()


class TestCancellation:
    def test_cancel_queued_job(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client("alice")
        running = client.submit(dict(TINY_SWEEP))
        wait_for(
            lambda: harness.service.jobs[running["job"]].state == "running",
            message="first job running",
        )
        queued = client.submit(dict(TINY_SWEEP))
        cancelled = client.cancel(str(queued["job"]))
        assert cancelled["state"] == "cancelled"
        engine.release.set()
        assert client.wait(str(running["job"]), timeout=60)["state"] == "done"
        # The cancelled job never ran.
        assert harness.service.jobs[queued["job"]].started_at is None

    def test_cancel_running_job_mid_run(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client("alice")
        response = client.submit(dict(TINY_SWEEP))
        wait_for(
            lambda: harness.service.jobs[response["job"]].state == "running",
            message="job running",
        )
        client.cancel(str(response["job"]))  # engine blocked: cancel mid-run
        final = client.wait(str(response["job"]), timeout=60)
        assert final["state"] == "cancelled"

    def test_stop_cancels_queued_jobs_and_ends_every_stream(self, blocking_harness):
        harness, _engine = blocking_harness
        client = harness.client("alice")
        running = str(client.submit(dict(TINY_SWEEP))["job"])
        wait_for(
            lambda: harness.service.jobs[running].state == "running",
            message="first job running",
        )
        queued = str(client.submit(dict(TINY_SWEEP))["job"])
        outcomes = {}

        def watch(job_id):
            try:
                outcomes[job_id] = list(client.watch(job_id, timeout=20))[-1]
            except Exception as error:  # noqa: BLE001 -- reported below
                outcomes[job_id] = error

        watchers = [threading.Thread(target=watch, args=(job,)) for job in (running, queued)]
        for thread in watchers:
            thread.start()
        wait_for(
            lambda: all(harness.service.manager.subscriber_count(job) == 1
                        for job in (running, queued)),
            message="both jobs watched",
        )
        asyncio.run_coroutine_threadsafe(harness.service.stop(), harness.loop).result(30)
        for thread in watchers:
            thread.join(timeout=10)
        for job in (running, queued):
            final = outcomes.get(job)
            assert isinstance(final, dict), f"watch of {job}: {final!r}"
            assert (final["event"], final["state"]) == ("state", "cancelled")
        assert harness.service.jobs[queued].started_at is None

    def test_cancel_is_idempotent_after_completion(self, harness):
        client = harness.client()
        response = client.submit(dict(TINY_SWEEP))
        client.wait(str(response["job"]), timeout=60)
        assert client.cancel(str(response["job"]))["state"] == "done"


class TestDisconnect:
    def test_client_disconnect_mid_stream_cleans_subscription(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client("alice")
        response = client.submit(dict(TINY_SWEEP))
        job_id = str(response["job"])
        watcher = client.watch(job_id, timeout=30)
        assert next(watcher)["state"] == "queued"
        wait_for(
            lambda: harness.service.manager.subscriber_count(job_id) == 1,
            message="subscription registered",
        )
        watcher.close()  # abrupt client exit mid-stream
        wait_for(
            lambda: harness.service.manager.subscriber_count(job_id) == 0,
            message="subscription cleaned up",
        )
        # The job is unaffected by the lost subscriber.
        engine.release.set()
        assert client.wait(job_id, timeout=60)["state"] == "done"


# --------------------------------------------------------------------------- #
# The acceptance scenario: two concurrent clients, overlap computed once
# --------------------------------------------------------------------------- #

class TestConcurrentClients:
    def test_overlapping_sweeps_computed_once_with_live_progress(self, harness):
        spec = {"mechanisms": ["Chronus"], "nrh": [32], "num_mixes": 1,
                "accesses": 150}
        unique_jobs = len(parse_submission({"kind": "sweep", "spec": spec}).jobs)
        outcomes = {}

        def run_client(name):
            client = harness.client(name)
            response = client.submit(dict(spec))
            events = list(client.watch(str(response["job"]), timeout=120))
            outcomes[name] = events

        threads = [
            threading.Thread(target=run_client, args=(name,))
            for name in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        finals = {name: events[-1] for name, events in outcomes.items()}
        for name, final in finals.items():
            assert final["state"] == "done", f"{name} did not finish"
            assert final["result"]["results"], f"{name} got no results"
        # Both watched live progress (more than just the terminal state).
        for events in outcomes.values():
            assert {"plan", "report"} <= {event["event"] for event in events}
        # The overlap was computed exactly once; the second job's streamed
        # report shows the cache serving it.
        assert harness.engine.executed_jobs == unique_jobs
        reports = sorted(
            (final["result"]["report"] for final in finals.values()),
            key=lambda report: report["executed_jobs"],
        )
        assert reports[0]["executed_jobs"] == 0
        assert reports[0]["cache_hit_rate"] == 1.0
        assert reports[1]["executed_jobs"] == unique_jobs
        # Both clients received identical result summaries.
        summaries = [
            sorted(final["result"]["results"], key=lambda row: row["key"])
            for final in finals.values()
        ]
        assert summaries[0] == summaries[1]

    def test_cancelling_one_client_does_not_disturb_the_other(self, harness):
        alice, bob = harness.client("alice"), harness.client("bob")
        big = dict(TINY_SWEEP, accesses=5000, nrh=[64, 128])
        small = dict(TINY_SWEEP, accesses=120, nrh=[16])
        first = alice.submit(big)
        second = bob.submit(small)
        alice.cancel(str(first["job"]))
        final_bob = bob.wait(str(second["job"]), timeout=120)
        assert final_bob["state"] == "done"
        final_alice = alice.status(str(first["job"]))
        assert final_alice["state"] in ("cancelled", "done")


# --------------------------------------------------------------------------- #
# Authentication + signed artifacts
# --------------------------------------------------------------------------- #

@pytest.fixture
def auth_harness():
    from repro.artifacts import generate_key

    key = generate_key()
    instance = ServiceHarness(auth_key=key)
    yield instance, key
    instance.close()


class TestAuthentication:
    """Every route except /healthz requires X-Auth-Token = HMAC(key, client)
    -- enforced over real sockets, event streams included."""

    def test_healthz_stays_open_without_a_token(self, auth_harness):
        harness, _key = auth_harness
        health = harness.client().health()  # no auth_key on this client
        assert health["status"] == "ok"

    def test_request_without_token_is_401(self, auth_harness):
        harness, _key = auth_harness
        with pytest.raises(ServiceError) as excinfo:
            harness.client().stats()
        assert excinfo.value.status == 401
        assert excinfo.value.reason == "unauthorized"

    def test_submit_without_token_is_401(self, auth_harness):
        harness, _key = auth_harness
        with pytest.raises(ServiceError) as excinfo:
            harness.client().submit(dict(TINY_SWEEP))
        assert excinfo.value.status == 401

    def test_token_from_wrong_key_is_401(self, auth_harness):
        from repro.artifacts import generate_key

        harness, _key = auth_harness
        with pytest.raises(ServiceError) as excinfo:
            harness.client(auth_key=generate_key()).stats()
        assert excinfo.value.status == 401

    def test_token_for_other_client_is_401(self, auth_harness):
        from repro.artifacts.integrity import auth_token

        harness, key = auth_harness
        client = harness.client("mallory")
        # A valid token, but minted for a different client id.
        client._auth_token = auth_token(key, "alice")
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 401

    def test_authenticated_job_runs_end_to_end(self, auth_harness):
        harness, key = auth_harness
        client = harness.client(auth_key=key)
        response = client.submit(dict(TINY_SWEEP))
        final = client.wait(str(response["job"]), timeout=120)
        assert final["state"] == "done"

    def test_event_stream_without_token_is_401(self, auth_harness):
        harness, key = auth_harness
        job = harness.client(auth_key=key).submit(dict(TINY_SWEEP))
        with pytest.raises(ServiceError) as excinfo:
            list(harness.client().watch(str(job["job"]), timeout=10))
        assert excinfo.value.status == 401

    def test_body_client_cannot_spoof_the_authenticated_identity(
        self, auth_harness
    ):
        harness, key = auth_harness
        alice = harness.client("alice", auth_key=key)
        response = alice._request("POST", "/jobs", body={
            "kind": "sweep",
            "client": "bob",  # spoof attempt: bill bob's quota
            "spec": dict(TINY_SWEEP),
        })
        status = alice.status(str(response["job"]))
        assert status["client"] == "alice"


class TestArtifactEndpoint:
    def test_done_job_serves_a_signed_verifiable_artifact(self, auth_harness):
        from repro.artifacts import ArtifactReader

        harness, key = auth_harness
        client = harness.client(auth_key=key)
        response = client.submit(dict(TINY_SWEEP))
        job_id = str(response["job"])
        client.wait(job_id, timeout=120)
        blob = client.artifact(job_id)
        reader = ArtifactReader(blob, key=key)  # full verify incl. HMAC
        assert reader.signed and reader.signature_verified
        assert reader.meta["job_id"] == job_id
        assert reader.meta["client"] == "tester"
        jobs = reader.records_of_kind("job")
        assert jobs, "artifact carries no job records"
        for record in jobs:
            assert record.payload["result"]["cycles"] > 0
        assert reader.records_of_kind("report")

    def test_artifact_without_auth_key_is_unsigned(self, harness):
        from repro.artifacts import ArtifactReader

        client = harness.client()
        response = client.submit(dict(TINY_SWEEP))
        job_id = str(response["job"])
        client.wait(job_id, timeout=120)
        reader = ArtifactReader(client.artifact(job_id))
        assert reader.signed is False
        assert reader.record_count > 0

    def test_unfinished_job_artifact_is_409(self, blocking_harness):
        harness, engine = blocking_harness
        client = harness.client()
        response = client.submit(dict(TINY_SWEEP))
        with pytest.raises(ServiceError) as excinfo:
            client.artifact(str(response["job"]))
        assert excinfo.value.status == 409
        assert excinfo.value.reason == "not_done"
        engine.release.set()

    def test_artifact_without_token_is_401(self, auth_harness):
        harness, key = auth_harness
        client = harness.client(auth_key=key)
        response = client.submit(dict(TINY_SWEEP))
        job_id = str(response["job"])
        client.wait(job_id, timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            harness.client().artifact(job_id)
        assert excinfo.value.status == 401
