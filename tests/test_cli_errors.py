"""Every input error of ``python -m repro``: its exit code and its one line.

The contract: a command exits 0 on success, 1 when a check or the service
failed, and 2 for bad input or an output that cannot be written; every
failure prints exactly one ``error: <message>`` line on stderr and no
traceback.  A check on a command's input runs before any job: the rows
marked ``NO_JOB`` assert that no simulation started.
"""

import errno
import socket

import pytest

import repro.experiments.sweep as sweep_module
import repro.service.server as server_module
from repro.artifacts import write_key_file
from repro.cli import main
from repro.core.factory import MECHANISM_NAMES
from repro.experiments.sweep import SweepEngine
from repro.service.client import ServiceClient
from repro.service.queue import FairQueue
from service_harness import ServiceHarness

#: A sweep that simulates three short jobs (alone, baseline, Chronus).
TINY_SWEEP = [
    "sweep", "--num-mixes", "1", "--nrh", "1024", "--mechanisms", "Chronus",
    "--accesses", "50", "--no-cache", "--workers", "0",
]
#: A red-team search that simulates one short probe.
TINY_SEARCH = [
    "attack", "search", "--mechanism", "Chronus", "--nrh", "4",
    "--patterns", "single_sided", "--no-refine", "--no-cache", "--workers", "0",
]
DRY_SWEEP = ["sweep", "--dry-run", "--num-mixes", "1", "--nrh", "1024", "--no-cache"]
DRY_SEARCH = ["attack", "search", "--mechanism", "Chronus", "--dry-run", "--no-cache"]
COMPARE = [
    "attack", "compare", "--mechanisms", "Chronus", "--patterns", "single_sided",
    "--no-refine", "--no-cache", "--workers", "0",
]
POWER_OF_TWO = "channels must be a positive power of two, got"
MISSING_KEY = (
    "ArtifactKeyError: cannot read key file {tmp}/missing.key: "
    "[Errno 2] No such file or directory: '{tmp}/missing.key'"
)
MISSING_ARTIFACT = (
    "ArtifactTruncatedError: cannot read artifact {tmp}/missing.artifact: "
    "[Errno 2] No such file or directory: '{tmp}/missing.artifact'"
)

NO_JOB = "no job"

#: (id, argv, environment, exit code, error line, NO_JOB or None).  ``{tmp}``
#: is a directory holding ``key`` (a valid key file), ``bad.key`` (not hex)
#: and ``junk.artifact``; ``{server}`` is a live service whose job ``{job}``
#: is done, and ``{closed}`` an address nothing listens on.
ROWS = [
    ("sweep-no-mixes", ["sweep", "--dry-run", "--num-mixes", "0", "--no-cache"],
     {}, 2, "no mixes selected", None),
    ("sweep-channels", DRY_SWEEP + ["--channels", "3"],
     {}, 2, f"--channels: {POWER_OF_TWO} 3", None),
    ("sweep-mechanism", DRY_SWEEP + ["--mechanisms", "Nope"],
     {}, 2, f"unknown mechanism 'Nope'; expected one of {MECHANISM_NAMES}", None),
    ("sweep-nrh", ["sweep", "--dry-run", "--num-mixes", "1", "--nrh", "0", "--no-cache"],
     {}, 2, "every N_RH value must be positive", None),
    ("sweep-accesses", DRY_SWEEP + ["--accesses", "0"],
     {}, 2, "accesses_per_core must be positive", None),
    ("sweep-workers-env", DRY_SWEEP, {"REPRO_SWEEP_WORKERS": "eight"},
     2, "REPRO_SWEEP_WORKERS must be an integer worker count, got 'eight'", None),
    ("sweep-sign-key", TINY_SWEEP + [
        "--artifact", "{tmp}/run.artifact", "--sign-key", "{tmp}/missing.key"],
     {}, 2, MISSING_KEY, NO_JOB),
    ("sweep-artifact-dir", TINY_SWEEP + ["--artifact", "{tmp}/missing/run.artifact"],
     {}, 2, "--artifact: {tmp}/missing is not a writable directory", NO_JOB),
    ("sweep-report-json-dir", TINY_SWEEP + ["--report-json", "{tmp}/missing/run.json"],
     {}, 2, "--report-json: {tmp}/missing is not a writable directory", NO_JOB),
    ("sweep-artifact-write", TINY_SWEEP + ["--artifact", "{tmp}"],
     {}, 2, "--artifact: [Errno 21] Is a directory: '{tmp}'", None),
    ("trace-unknown-parameter", ["attack", "trace", "--pattern", "wave", "--set", "warp=9"],
     {}, 2, "unknown parameter(s) ['warp'] for pattern 'wave'; accepted: "
            "['bank_index', 'first_row', 'num_rows', 'rounds', 'row_stride']", None),
    ("trace-override-form", ["attack", "trace", "--pattern", "wave", "--set", "bad"],
     {}, 2, "expected NAME=VALUE, got 'bad'", None),
    ("trace-override-value", ["attack", "trace", "--pattern", "wave", "--set", "rounds=x"],
     {}, 2, "invalid literal for int() with base 10: 'x'", None),
    ("trace-row", ["attack", "trace", "--pattern", "single_sided", "--set", "row=1000000000"],
     {}, 2, "row 1000000000 out of range [0, 65536)", None),
    ("trace-channels", ["attack", "trace", "--pattern", "wave", "--channels", "3"],
     {}, 2, f"--channels: {POWER_OF_TWO} 3", None),
    ("trace-channel", ["attack", "trace", "--pattern", "wave", "--channel", "2"],
     {}, 2, "--channel 2 out of range [0, 1)", None),
    ("trace-out-write", ["attack", "trace", "--pattern", "wave", "--out", "{tmp}/missing/w.trace"],
     {}, 2, "--out: [Errno 2] No such file or directory: '{tmp}/missing/w.trace'", None),
    ("search-channels", DRY_SEARCH + ["--channels", "0"],
     {}, 2, f"--channels: {POWER_OF_TWO} 0", None),
    ("search-channel", DRY_SEARCH + ["--channel", "1"],
     {}, 2, "--channel 1 out of range [0, 1)", None),
    ("search-nrh-dry-run", DRY_SEARCH + ["--nrh", "0"],
     {}, 2, "nrh_values must be positive", None),
    ("search-nrh", TINY_SEARCH + ["--nrh", "0", "4"],
     {}, 2, "nrh_values must be positive", NO_JOB),
    ("search-workers-env", DRY_SEARCH, {"REPRO_SWEEP_WORKERS": "eight"},
     2, "REPRO_SWEEP_WORKERS must be an integer worker count, got 'eight'", None),
    ("search-sign-key", TINY_SEARCH + [
        "--artifact", "{tmp}/probe.artifact", "--sign-key", "{tmp}/missing.key"],
     {}, 2, MISSING_KEY, NO_JOB),
    ("search-artifact-dir", TINY_SEARCH + ["--artifact", "{tmp}/missing/probe.artifact"],
     {}, 2, "--artifact: {tmp}/missing is not a writable directory", NO_JOB),
    ("compare-channels", COMPARE + ["--channels", "0"],
     {}, 2, f"--channels: {POWER_OF_TWO} 0", None),
    ("compare-channel", COMPARE + ["--channel", "1"],
     {}, 2, "--channel 1 out of range [0, 1)", None),
    ("compare-nrh", COMPARE + ["--nrh", "0"],
     {}, 2, "nrh_values must be positive", NO_JOB),
    ("keygen-exists", ["artifact", "keygen", "{tmp}/key"],
     {}, 2, "{tmp}/key exists (pass --force to overwrite)", None),
    ("keygen-write", ["artifact", "keygen", "{tmp}/missing/new.key"],
     {}, 2, "artifact keygen: [Errno 2] No such file or directory: "
            "'{tmp}/missing/new.key'", None),
    ("verify-key", ["artifact", "verify", "{tmp}/junk.artifact", "--key", "{tmp}/missing.key"],
     {}, 2, MISSING_KEY, None),
    ("verify-key-hex", ["artifact", "verify", "{tmp}/junk.artifact", "--key", "{tmp}/bad.key"],
     {}, 2, "ArtifactKeyError: key file {tmp}/bad.key is not valid hex", None),
    ("verify-corrupt", ["artifact", "verify", "{tmp}/junk.artifact"],
     {}, 1, "ArtifactFormatError: malformed magic line: b'junk'", None),
    ("verify-missing", ["artifact", "verify", "{tmp}/missing.artifact"],
     {}, 1, MISSING_ARTIFACT, None),
    ("show-key", ["artifact", "show", "{tmp}/junk.artifact", "--key", "{tmp}/missing.key"],
     {}, 2, MISSING_KEY, None),
    ("show-corrupt", ["artifact", "show", "{tmp}/junk.artifact"],
     {}, 1, "ArtifactFormatError: malformed magic line: b'junk'", None),
    ("diff-missing", ["artifact", "diff", "{tmp}/missing.artifact", "{tmp}/junk.artifact"],
     {}, 2, MISSING_ARTIFACT, None),
    ("serve-auth-key", ["serve", "--port", "0", "--no-cache", "--auth-key", "{tmp}/missing.key"],
     {}, 2, MISSING_KEY, None),
    ("serve-workers-env", ["serve", "--port", "0", "--no-cache"],
     {"REPRO_SWEEP_WORKERS": "eight"},
     2, "REPRO_SWEEP_WORKERS must be an integer worker count, got 'eight'", None),
    ("client-server-form", ["client", "--server", "nocolon", "health"],
     {}, 2, "expected HOST:PORT, got 'nocolon'", None),
    ("client-server-port", ["client", "--server", "127.0.0.1:abc", "health"],
     {}, 2, "invalid literal for int() with base 10: 'abc'", None),
    ("client-auth-key", ["client", "--auth-key", "{tmp}/missing.key", "health"],
     {}, 2, MISSING_KEY, None),
    ("client-spec-object", ["client", "--server", "{closed}", "submit", "--spec", "[1]"],
     {}, 2, "spec must be a JSON object", None),
    ("client-spec-json", ["client", "--server", "{closed}", "submit", "--spec", "{{bad"],
     {}, 2, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
     None),
    ("client-spec-required", ["client", "--server", "{closed}", "submit", "--kind",
                              "attack_search"],
     {}, 2, "--spec is required for non-sweep submissions", None),
    ("client-unreachable", ["client", "--server", "{closed}", "health"],
     {}, 1, "cannot reach {closed}: [Errno 111] Connection refused", None),
    ("client-unknown-job", ["client", "--server", "{server}", "status", "nosuch"],
     {}, 1, "HTTP 404: unknown job 'nosuch'", None),
    ("client-artifact-dir", ["client", "--server", "{server}", "artifact", "{job}",
                             "--out", "{tmp}/missing/job.artifact"],
     {}, 2, "--out: [Errno 2] No such file or directory: '{tmp}/missing/job.artifact'",
     None),
    ("client-artifact-write", ["client", "--server", "{server}", "artifact", "{job}",
                               "--out", "{tmp}"],
     {}, 2, "--out: [Errno 21] Is a directory: '{tmp}'", None),
    ("lint-nothing", ["lint", "--root", "{tmp}", "nothing"],
     {}, 2, "nothing to lint under {tmp} (paths: nothing)", None),
]


@pytest.fixture(scope="module")
def live_service():
    """The address of a live service and the id of its one finished job."""
    harness = ServiceHarness()
    client = harness.client()
    spec = {"mechanisms": ["Chronus"], "nrh": [1024], "num_mixes": 1, "accesses": 50}
    job = str(client.submit(spec)["job"])
    states = [e["state"] for e in client.watch(job, timeout=60) if e["event"] == "state"]
    assert states[-1] == "done", states
    yield f"127.0.0.1:{harness.service.port}", job
    harness.close()


def _closed_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


@pytest.fixture
def count_jobs(monkeypatch):
    """Count the simulations the command starts (serial engines only)."""
    calls = []
    execute_job = sweep_module.execute_job

    def counted(job):
        calls.append(job.label)
        return execute_job(job)

    monkeypatch.setattr(sweep_module, "execute_job", counted)
    return calls


@pytest.mark.parametrize(
    "argv,env,code,line,no_job", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_error_exit(argv, env, code, line, no_job, request, tmp_path, monkeypatch,
                    capsys, count_jobs):
    write_key_file(str(tmp_path / "key"))
    (tmp_path / "bad.key").write_text("garbage\n")
    (tmp_path / "junk.artifact").write_bytes(b"junk\n")
    fields = {"tmp": str(tmp_path), "closed": _closed_address()}
    if any("{server}" in arg for arg in argv):
        fields["server"], fields["job"] = request.getfixturevalue("live_service")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)

    assert main([arg.format(**fields) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {line.format(**fields)}\n"
    if no_job:
        assert count_jobs == []
        assert "simulated" not in captured.out


def test_a_value_error_from_a_running_search_propagates(monkeypatch):
    """Only the input checks exit 2: a ValueError from inside the engine is
    a fault of the program, not of the command line, and keeps its
    traceback."""

    def broken(self, jobs, progress=None, cancel=None):
        raise ValueError("broken engine")

    monkeypatch.setattr(SweepEngine, "run_jobs", broken)
    with pytest.raises(ValueError, match="broken engine"):
        main(TINY_SEARCH)


class ClosedPipe:
    """A stdout whose reader has gone, like ``| head`` after its lines."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        self.flush()

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_is_not_an_unreachable_service(live_service, tmp_path,
                                                       monkeypatch, capsys):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr("sys.stdout", ClosedPipe(target.fileno()))
        assert main(["client", "--server", live_service[0], "health"]) == 0
    assert capsys.readouterr().err == ""


def test_a_broken_connection_is_an_unreachable_service(monkeypatch, capsys):
    def broken(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(ServiceClient, "health", broken)
    address = _closed_address()
    assert main(["client", "--server", address, "health"]) == 1
    assert capsys.readouterr().err == f"error: cannot reach {address}: [Errno 32] Broken pipe\n"


ADMISSION_FLAGS = {
    "--queue-depth": "max_depth",
    "--client-cap": "per_client_active",
    "--rate": "rate",
    "--burst": "burst",
}


def _admission(queue):
    return {name: getattr(queue, name) for name in ADMISSION_FLAGS.values()}


def test_serve_help_names_the_queue_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    options = capsys.readouterr().out.split("options:")[1].split("\n  --")
    defaults = _admission(FairQueue())
    for flag, name in ADMISSION_FLAGS.items():
        (entry,) = [text for text in options if text.startswith(flag[2:] + " ")]
        assert f"(default: {defaults[name]:g})" in " ".join(entry.split()), flag


@pytest.mark.parametrize("argv,overrides", [
    ([], {}),
    (["--rate", "3", "--queue-depth", "7"], {"rate": 3.0, "max_depth": 7}),
], ids=["defaults", "flags"])
def test_serve_overrides_only_the_given_admission_flags(argv, overrides, monkeypatch):
    queues = []

    async def run_service(service, host, port):
        queues.append(service.queue)
        service.engine.close()

    monkeypatch.setattr(server_module, "run_service", run_service)
    assert main(["serve", "--no-cache", *argv]) == 0
    assert _admission(queues[0]) == {**_admission(FairQueue()), **overrides}
