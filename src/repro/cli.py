"""Command-line interface: ``python -m repro``.

Subcommands:

``sweep``
    Expand a declarative (mechanism x N_RH x mix) sweep into jobs and run it
    through the :class:`~repro.experiments.sweep.SweepEngine`, printing the
    aggregated mechanism comparison.  ``--dry-run`` lists the expanded jobs
    (and whether each is already cached) without simulating anything;
    ``--workers N`` executes missing jobs across N worker processes.

``cache``
    Inspect (``cache info``) or wipe (``cache clear``) the on-disk result
    cache.

``mechanisms``
    List every mechanism name accepted by ``--mechanisms``.

``attack``
    The red-team subsystem (:mod:`repro.attacks`): ``attack list`` prints
    the attack-pattern catalogue, ``attack trace`` compiles one pattern and
    summarises (or saves) the resulting trace, ``attack search`` empirically
    searches for the minimum RowHammer threshold at which a pattern escapes
    a mechanism and compares it with the analytical bound, and ``attack
    compare`` tabulates that boundary across mechanisms.

``artifact``
    The result-artifact toolbox (:mod:`repro.artifacts`): ``artifact
    keygen`` creates an HMAC key file, ``artifact verify`` fully checks one
    artifact (typed error + nonzero exit on any corruption), ``artifact
    show`` prints its provenance and records, and ``artifact diff``
    compares two artifacts job-by-job -- the cross-PR result-diff tool.

``lint``
    reprolint, the project-aware static contract checker
    (:mod:`repro.lint`): six AST rules enforce the no-reflection,
    hot-path-allocation, determinism, canonical-JSON, cache-key and
    event-source invariants documented in docs/LINTING.md.  Exit 0 means
    no findings; any finding exits 1.

``serve``
    Run the long-lived simulation service (:mod:`repro.service`): clients
    submit sweep / attack-search jobs over HTTP and stream live progress
    as JSON lines over plain HTTP, all multiplexed onto one shared engine
    and cache.
    ``--auth-key FILE`` authenticates clients (HMAC of the client id,
    compared in constant time; 401 otherwise) and signs served artifacts.

``client``
    The matching thin client: ``client submit`` posts a job (``--watch``
    streams its events), ``client watch|status|cancel`` manage one job, and
    ``client health|stats|shutdown`` poke the server.  Used by the CI smoke
    test and the service load benchmark.

Every command exits 0 on success; 1 when a check or the service failed (a
corrupt artifact, a diff that found a difference, a lint finding, a job that
did not end ``done``, a service that refused a call or could not be
reached); and 2 for bad input or an output that cannot be written.  A
failure prints one ``error: <message>`` line on stderr, and every check of
a command's input and output paths runs before its first job.

The on-disk cache location defaults to ``$REPRO_CACHE_DIR`` or
``.repro-cache``; pass ``--no-cache`` for a purely in-memory run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.attacks.patterns import (
    ATTACK_PATTERNS,
    AttackSpec,
    default_search_specs,
    pattern_by_name,
    pattern_names,
)
from repro.attacks.redteam import DEFAULT_NRH_GRID, RedTeamEngine, RedTeamReport
from repro.core.factory import MECHANISM_NAMES
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.figures import format_rows
from repro.experiments.runner import compare, default_mixes
from repro.experiments.sweep import SweepEngine, SweepSpec, default_workers
from repro.system.config import SystemConfig, paper_system_config
from repro.workloads.mixes import MIX_TYPES

#: Mechanisms ``attack compare`` tabulates by default (one representative of
#: each class: the proposal, the industry on-die default, periodic RFM, and
#: a deterministic controller-side tracker).
DEFAULT_COMPARE_MECHANISMS = ("Chronus", "PRAC-4", "PRFM", "Graphene")

#: Patterns ``attack compare`` uses by default (kept small: the comparison
#: runs |mechanisms| x |grid| x |specs| simulations).
DEFAULT_COMPARE_PATTERNS = ("wave", "single_sided", "rfm_dodge")

T = TypeVar("T")


class CommandError(Exception):
    """Ends a command: :func:`main` prints ``error: <message>`` and returns
    ``code`` -- 2 for bad input or an output that cannot be written, 1 for a
    failed check or service call."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _named(error: Exception, code: int = 2) -> CommandError:
    """A :class:`CommandError` that names the type of ``error``."""
    return CommandError(f"{type(error).__name__}: {error}", code)


# --------------------------------------------------------------------------- #
# Options shared by several commands: each is declared and resolved here
# --------------------------------------------------------------------------- #

def _add_engine_options(
    parser: argparse.ArgumentParser, auto_workers: Optional[bool] = None
) -> None:
    """Declare ``--cache-dir`` and, for a command that runs an engine
    (``auto_workers`` not None), ``--no-cache`` and ``--workers``.  Without
    ``--workers`` or ``$REPRO_SWEEP_WORKERS`` the engine takes one worker per
    CPU when ``auto_workers`` holds, else runs serially."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    if auto_workers is None:
        return
    parser.add_argument(
        "--no-cache", action="store_true",
        help="keep results in memory only (no on-disk cache)",
    )
    otherwise = "one per CPU up to 8; values below 2 run serially" if auto_workers else "serial"
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=f"worker processes (default: $REPRO_SWEEP_WORKERS, else {otherwise})",
    )
    parser.set_defaults(auto_workers=auto_workers)


def _cache(args: argparse.Namespace) -> ResultCache:
    if getattr(args, "no_cache", False):
        return ResultCache(directory=None)
    directory = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    return ResultCache(directory=directory)


def _engine(args: argparse.Namespace) -> SweepEngine:
    """The engine of the engine options.  The worker count is the last input
    check, so call this after every other one: nothing before it creates an
    engine, a pool or a cache directory."""
    try:
        workers = (
            default_workers(auto=args.auto_workers) if args.workers is None
            else max(0, args.workers)
        )
    except ValueError as error:
        raise CommandError(str(error)) from None
    return SweepEngine(cache=_cache(args), workers=workers)


def _add_system_options(parser: argparse.ArgumentParser, attack: bool = False) -> None:
    """Declare ``--channels`` and, for a command that aims attacks,
    ``--channel``."""
    parser.add_argument(
        "--channels", type=int, default=1, metavar="N",
        help="memory channels of the simulated system (default: 1, as in Table 2)",
    )
    if attack:
        parser.add_argument(
            "--channel", type=int, default=0, metavar="CH",
            help="memory channel the attacks target (default: 0)",
        )


def _system_config(args: argparse.Namespace) -> SystemConfig:
    """The paper's system on ``--channels``, with ``--channel`` inside it."""
    try:
        config = paper_system_config().with_overrides(channels=args.channels)
    except ValueError as error:
        raise CommandError(f"--channels: {error}") from None
    channel = getattr(args, "channel", 0)
    if not 0 <= channel < args.channels:
        raise CommandError(f"--channel {channel} out of range [0, {args.channels})")
    return config


def _load_key(path: Optional[str]) -> Optional[bytes]:
    """The HMAC key of a ``--sign-key``, ``--key`` or ``--auth-key`` file
    (``None`` without one)."""
    if path is None:
        return None
    from repro.artifacts import ArtifactKeyError, load_key_file

    try:
        return load_key_file(path)
    except ArtifactKeyError as error:
        raise _named(error) from None


def _check_output(option: str, path: Optional[str]) -> None:
    """Fail ``option`` up front when ``path``'s directory cannot take it."""
    if not path:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise CommandError(f"{option}: {directory} is not a writable directory")


def _write_output(option: str, write: Callable[[], T]) -> T:
    """Run ``write``; a failure to write is bad input naming ``option``."""
    from repro.artifacts import ArtifactError

    try:
        return write()
    except (OSError, ArtifactError) as error:
        raise CommandError(f"{option}: {error}") from None


def _add_artifact_options(parser: argparse.ArgumentParser, content: str) -> None:
    """Declare ``--artifact`` and ``--sign-key``."""
    parser.add_argument(
        "--artifact", default=None, metavar="PATH",
        help=f"emit {content} as a signed, self-describing result artifact "
             "(see docs/ARTIFACTS.md)",
    )
    parser.add_argument(
        "--sign-key", default=None, metavar="FILE",
        help="HMAC key file signing --artifact (create one with "
             "'artifact keygen')",
    )


def _artifact_key(args: argparse.Namespace) -> Optional[bytes]:
    """Check ``--artifact``'s directory and load ``--sign-key``, before any
    job runs."""
    if not args.artifact:
        return None
    _check_output("--artifact", args.artifact)
    return _load_key(args.sign_key)


def _emit_artifact(args: argparse.Namespace, key: Optional[bytes], emit, *content, **meta) -> None:
    """Write ``--artifact`` with ``emit(path, *content, key=key, **meta)``."""
    if not args.artifact:
        return
    count = _write_output("--artifact", lambda: emit(args.artifact, *content, key=key, **meta))
    signed = " (signed)" if key is not None else ""
    print(f"artifact written to {args.artifact}: {count} record(s){signed}")


def _print_dry_run(
    engine: SweepEngine, jobs: Sequence, columns: Callable[..., dict], noun: str,
    detail: str = "",
) -> int:
    """List ``jobs`` (their ``columns``) with their cache status, then one
    summary line that counts them as ``noun``."""
    cached = [engine.cache.contains(job.key) for job in jobs]
    print(format_rows([
        {"job": index, **columns(job), "cached": "yes" if hit else "no", "key": job.key[:12]}
        for index, (job, hit) in enumerate(zip(jobs, cached))
    ]))
    print(
        f"\ndry run: {len(jobs)} {noun} ({detail}{sum(cached)} cached, "
        f"{len(jobs) - sum(cached)} to simulate, workers={engine.workers}, "
        f"cache={engine.cache.directory or 'memory-only'})"
    )
    return 0


def _print_json(document: object) -> int:
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


# --------------------------------------------------------------------------- #
# The parser: every leaf names its handler
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Chronus (HPCA 2025) reproduction: sweep engine CLI.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="run a (mechanism x N_RH x mix) performance sweep"
    )
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument(
        "--mechanisms", nargs="+", default=["Chronus", "PRAC-4"],
        metavar="NAME", help=f"mechanisms to sweep (from: {', '.join(MECHANISM_NAMES)})",
    )
    sweep.add_argument(
        "--nrh", nargs="+", type=int, default=[1024, 128],
        metavar="N", help="RowHammer thresholds to sweep",
    )
    sweep.add_argument(
        "--num-mixes", type=int, default=2, metavar="N",
        help="number of four-core workload mixes (paper: 60)",
    )
    sweep.add_argument(
        "--mix-types", nargs="+", default=None, choices=list(MIX_TYPES),
        help="restrict mixes to these intensity types",
    )
    sweep.add_argument(
        "--accesses", type=int, default=1000, metavar="N",
        help="memory accesses per core (paper: 100M instructions)",
    )
    _add_system_options(sweep)
    sweep.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    _add_engine_options(sweep, auto_workers=True)
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="list the expanded jobs and their cache status, then exit",
    )
    sweep.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="also write the run report (RunReport.as_dict) as JSON -- the "
             "same serialization the service streams and the benches record",
    )
    _add_artifact_options(sweep, "the run (full SystemConfig + per-job results)")

    cache = subparsers.add_parser("cache", help="inspect or clear the result cache")
    cache.set_defaults(handler=_cmd_cache)
    cache.add_argument("action", choices=["info", "clear"])
    _add_engine_options(cache)

    subparsers.add_parser(
        "mechanisms", help="list the available mechanism names"
    ).set_defaults(handler=_cmd_mechanisms)

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the project-aware static contract checker",
    )
    from repro.lint.cli import add_lint_arguments, run_lint

    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint)

    attack = subparsers.add_parser(
        "attack", help="attack synthesis and empirical red-team search"
    )
    attack_sub = attack.add_subparsers(dest="attack_command", required=True)

    attack_sub.add_parser(
        "list", help="list the registered attack patterns"
    ).set_defaults(handler=_cmd_attack_list)

    trace = attack_sub.add_parser(
        "trace", help="compile one attack pattern into a trace"
    )
    trace.set_defaults(handler=_cmd_attack_trace)
    trace.add_argument(
        "--pattern", required=True, choices=list(pattern_names()),
        help="attack pattern to compile",
    )
    trace.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        dest="overrides", help="override a pattern parameter (repeatable)",
    )
    trace.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    _add_system_options(trace, attack=True)
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the compiled trace in the text format instead of printing stats",
    )

    def add_search_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--nrh", nargs="+", type=int, default=list(DEFAULT_NRH_GRID),
            metavar="N", help="RowHammer thresholds of the grid scan",
        )
        parser.add_argument("--seed", type=int, default=0, help="trace/mechanism seed")
        _add_system_options(parser, attack=True)
        parser.add_argument(
            "--no-refine", action="store_true",
            help="skip the bisection refinement of the empirical boundary",
        )
        _add_engine_options(parser, auto_workers=True)

    search = attack_sub.add_parser(
        "search",
        help="search for the minimum N_RH at which an attack escapes a mechanism",
    )
    search.set_defaults(handler=_cmd_attack_search)
    search.add_argument(
        "--mechanism", required=True, choices=list(MECHANISM_NAMES),
        help="mechanism to red-team",
    )
    search.add_argument(
        "--patterns", nargs="+", default=None, choices=list(pattern_names()),
        help="restrict the synthesised patterns (default: all)",
    )
    add_search_options(search)
    search.add_argument(
        "--dry-run", action="store_true",
        help="list the grid-scan probe jobs and their cache status, then exit",
    )
    _add_artifact_options(search, "the probe outcomes")

    compare = attack_sub.add_parser(
        "compare", help="tabulate the empirical vs analytical boundary per mechanism"
    )
    compare.set_defaults(handler=_cmd_attack_compare)
    compare.add_argument(
        "--mechanisms", nargs="+", default=list(DEFAULT_COMPARE_MECHANISMS),
        choices=list(MECHANISM_NAMES), metavar="NAME",
        help=f"mechanisms to compare (default: {', '.join(DEFAULT_COMPARE_MECHANISMS)})",
    )
    compare.add_argument(
        "--patterns", nargs="+", default=list(DEFAULT_COMPARE_PATTERNS),
        choices=list(pattern_names()),
        help=f"patterns to try (default: {', '.join(DEFAULT_COMPARE_PATTERNS)})",
    )
    add_search_options(compare)

    artifact = subparsers.add_parser(
        "artifact", help="verify, inspect and diff result artifacts"
    )
    artifact_sub = artifact.add_subparsers(dest="artifact_command", required=True)

    keygen = artifact_sub.add_parser(
        "keygen", help="generate an HMAC signing/auth key file"
    )
    keygen.set_defaults(handler=_cmd_artifact_keygen)
    keygen.add_argument("path", help="where to write the key (hex, mode 0600)")
    keygen.add_argument(
        "--force", action="store_true", help="overwrite an existing key file"
    )

    verify = artifact_sub.add_parser(
        "verify",
        help="fully verify one artifact (nonzero exit on any corruption)",
    )
    verify.set_defaults(handler=_cmd_artifact_verify)
    verify.add_argument("path", help="artifact to verify")
    verify.add_argument(
        "--key", default=None, metavar="FILE",
        help="HMAC key file; with it the signature must verify too",
    )

    show = artifact_sub.add_parser(
        "show", help="print an artifact's provenance meta and record listing"
    )
    show.set_defaults(handler=_cmd_artifact_show)
    show.add_argument("path", help="artifact to show")
    show.add_argument(
        "--key", default=None, metavar="FILE",
        help="HMAC key file (verifies the signature before showing)",
    )
    show.add_argument(
        "--records", action="store_true",
        help="also print every record payload as JSON lines",
    )

    adiff = artifact_sub.add_parser(
        "diff", help="compare two artifacts job-by-job"
    )
    adiff.set_defaults(handler=_cmd_artifact_diff)
    adiff.add_argument("left", help="baseline artifact")
    adiff.add_argument("right", help="artifact to compare against the baseline")
    adiff.add_argument(
        "--all", action="store_true", dest="include_volatile",
        help="also compare volatile kinds (timing reports)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the simulation service (HTTP job server)"
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8123,
        help="bind port (0 picks a free port and prints it)",
    )
    _add_engine_options(serve, auto_workers=False)
    # The admission defaults belong to FairQueue; only a given flag
    # overrides one (test_cli_errors pins these help texts to them).
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="bounded job-queue depth; overflow answers 429 (default: 32)",
    )
    serve.add_argument(
        "--client-cap", type=int, default=None, metavar="N",
        help="max jobs one client may have queued or running (default: 4)",
    )
    serve.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="per-client submissions per second refill rate (default: 10)",
    )
    serve.add_argument(
        "--burst", type=int, default=None, metavar="N",
        help="per-client submission token-bucket burst (default: 20)",
    )
    serve.add_argument(
        "--auth-key", default=None, metavar="FILE",
        help="HMAC key file: clients must send X-Auth-Token = "
             "HMAC(key, client id) or are answered 401, and served "
             "artifacts are signed with the same key",
    )

    client = subparsers.add_parser(
        "client", help="talk to a running simulation service"
    )
    client.add_argument(
        "--server", default="127.0.0.1:8123", metavar="HOST:PORT",
        help="service address (default: 127.0.0.1:8123)",
    )
    client.add_argument(
        "--client-id", default="cli", metavar="NAME",
        help="client identity for fairness/rate accounting (default: cli)",
    )
    client.add_argument(
        "--auth-key", default=None, metavar="FILE",
        help="HMAC key file matching the server's --auth-key",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    submit = client_sub.add_parser("submit", help="submit a job")
    submit.set_defaults(handler=_client_command(_client_submit))
    submit.add_argument(
        "--kind", choices=["sweep", "attack_search"], default="sweep",
        help="job kind (default: sweep)",
    )
    submit.add_argument(
        "--spec", default=None, metavar="JSON_OR_PATH",
        help="spec as inline JSON or a path to a JSON file; without it a "
             "sweep spec is built from --mechanisms/--nrh/--num-mixes/--accesses",
    )
    submit.add_argument(
        "--mechanisms", nargs="+", default=["Chronus"], metavar="NAME",
        help="mechanisms of the built-in sweep spec",
    )
    submit.add_argument(
        "--nrh", nargs="+", type=int, default=[1024], metavar="N",
        help="N_RH values of the built-in sweep spec",
    )
    submit.add_argument("--num-mixes", type=int, default=1, metavar="N")
    submit.add_argument("--accesses", type=int, default=300, metavar="N")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=int, default=0, help="0 (urgent) .. 9 (batch)"
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's progress events until it finishes",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="--watch timeout in seconds (default: 300)",
    )

    watch = client_sub.add_parser("watch", help="stream one job's events")
    watch.set_defaults(handler=_client_command(
        lambda args, service: _watch_until_done(service, args.job_id, args.timeout)
    ))
    watch.add_argument("job_id")
    watch.add_argument("--timeout", type=float, default=300.0)

    status = client_sub.add_parser("status", help="print one job's snapshot")
    status.set_defaults(handler=_client_command(
        lambda args, service: _print_json(service.status(args.job_id, full=args.full))
    ))
    status.add_argument("job_id")
    status.add_argument(
        "--full", action="store_true", help="include the full event log"
    )

    cancel = client_sub.add_parser("cancel", help="cancel one job")
    cancel.set_defaults(handler=_client_command(
        lambda args, service: _print_json(service.cancel(args.job_id))
    ))
    cancel.add_argument("job_id")

    cartifact = client_sub.add_parser(
        "artifact", help="download one finished job's signed result artifact"
    )
    cartifact.set_defaults(handler=_client_command(_client_artifact))
    cartifact.add_argument("job_id")
    cartifact.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the artifact",
    )

    client_sub.add_parser(
        "health", help="print the service health document"
    ).set_defaults(handler=_client_command(lambda args, service: _print_json(service.health())))
    client_sub.add_parser(
        "stats", help="print the service statistics"
    ).set_defaults(handler=_client_command(lambda args, service: _print_json(service.stats())))
    client_sub.add_parser(
        "shutdown", help="ask the service to stop cleanly"
    ).set_defaults(handler=_client_command(lambda args, service: _print_json(service.shutdown())))
    return parser


# --------------------------------------------------------------------------- #
# sweep / cache / mechanisms
# --------------------------------------------------------------------------- #

def _cmd_sweep(args: argparse.Namespace) -> int:
    base_config = _system_config(args)
    mixes = [
        mix.applications
        for mix in default_mixes(args.num_mixes, mix_types=args.mix_types)
    ]
    if not mixes:
        raise CommandError("no mixes selected")
    try:
        spec = SweepSpec(
            mechanisms=args.mechanisms,
            nrh_values=args.nrh,
            mixes=mixes,
            accesses_per_core=args.accesses,
            seed=args.seed,
            base_config=base_config,
        )
    except ValueError as error:
        raise CommandError(str(error)) from None
    _check_output("--report-json", args.report_json)
    key = _artifact_key(args)
    engine = _engine(args)
    jobs = spec.expand()
    if args.dry_run:
        return _print_dry_run(
            engine, jobs,
            lambda job: {
                "workload": job.workload_name,
                "mechanism": job.config.mechanism,
                "nrh": job.config.nrh,
                "cores": job.config.num_cores,
                "accesses": job.accesses_per_core,
            },
            "jobs", f"{spec.num_points()} sweep points, ",
        )

    try:
        results = engine.run_jobs(jobs)
    finally:
        # The pool must not outlive the command, error or not.
        engine.close()
    rows = [
        {
            "mechanism": c.mechanism,
            "nrh": c.nrh,
            "normalized_ws": c.mean_normalized_ws,
            "performance_overhead": c.mean_performance_overhead,
            "normalized_energy": c.mean_normalized_energy,
            "is_secure": c.is_secure,
        }
        for c in compare(spec, results)
    ]
    print(format_rows(rows))
    print()
    print(engine.last_run_report.summary_line())
    print(f"{engine.executed_jobs} jobs simulated; {engine.cache.summary()}")
    if args.report_json:
        report = json.dumps(engine.last_run_report.as_dict(), indent=2, sort_keys=True)
        _write_output(
            "--report-json",
            lambda: Path(args.report_json).write_text(report, encoding="utf-8"),
        )
        print(f"run report written to {args.report_json}")
    from repro.artifacts.emit import emit_run_artifact

    _emit_artifact(
        args, key, emit_run_artifact, jobs, results,
        report=engine.last_run_report, base_config=base_config,
        extra_meta={"command": "sweep", "accesses": args.accesses, "seed": args.seed},
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _cache(args)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    print(f"cache directory: {cache.directory}")
    print(f"entries: {cache.disk_entry_count()}")
    return 0


def _cmd_mechanisms(args: argparse.Namespace) -> int:
    for name in MECHANISM_NAMES:
        print(name)
    return 0


# --------------------------------------------------------------------------- #
# attack subcommands
# --------------------------------------------------------------------------- #

def _cmd_attack_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "pattern": pattern.name,
            "summary": pattern.summary,
            "defaults": ",".join(f"{k}={v}" for k, v in pattern.defaults),
            "variants": len(pattern.search_variants),
        }
        for pattern in ATTACK_PATTERNS.values()
    ]
    print(format_rows(rows))
    print(f"\n{len(rows)} registered attack patterns")
    return 0


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, int]:
    overrides: Dict[str, int] = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        overrides[name] = int(value)
    return overrides


def _cmd_attack_trace(args: argparse.Namespace) -> int:
    organization = _system_config(args).organization
    try:
        spec = AttackSpec.create(
            args.pattern, _parse_overrides(args.overrides), seed=args.seed,
            channel=args.channel,
        )
        trace = spec.compile(organization=organization)
    except ValueError as error:
        raise CommandError(str(error)) from None
    if args.out:
        _write_output("--out", lambda: trace.save(args.out))
        print(f"saved {trace.memory_accesses} accesses to {args.out}")
        return 0
    print(f"pattern: {spec.label} (seed {spec.seed})")
    print(f"  {pattern_by_name(spec.pattern).summary}")
    for name, value in sorted(spec.resolved_params.items()):
        print(f"  {name} = {value}")
    print(
        f"trace: {trace.memory_accesses} accesses, "
        f"{trace.total_instructions} instructions, "
        f"{len({entry.address for entry in trace})} distinct addresses"
    )
    return 0


def _search_config(args: argparse.Namespace) -> SystemConfig:
    """The probed system of ``attack search|compare``, after their checks."""
    config = _system_config(args)
    if min(args.nrh) <= 0:
        raise CommandError("nrh_values must be positive")
    return config


def _redteam(args: argparse.Namespace, base_config: SystemConfig) -> RedTeamEngine:
    return RedTeamEngine(engine=_engine(args), base_config=base_config, seed=args.seed)


def _search_report_rows(report: RedTeamReport) -> List[dict]:
    rows = []
    for nrh in sorted({probe.nrh for probe in report.probes}):
        best = report.best_probe(nrh)
        rows.append(
            {
                "nrh": nrh,
                "configured": "yes" if best.configured else "no",
                "secure_config": "yes" if best.secure_config else "no",
                "best_attack": best.spec_label,
                "max_disturbance": best.max_disturbance,
                "escaped": "yes" if best.escaped else "no",
            }
        )
    return rows


def _format_nrh(value: Optional[int]) -> str:
    return "-" if value is None else str(value)


def _print_search_summary(report: RedTeamReport) -> None:
    print(
        f"\nempirical: min escaping N_RH = "
        f"{_format_nrh(report.empirical_min_escaping_nrh)}, "
        f"max escaping = {_format_nrh(report.empirical_max_escaping_nrh)}, "
        f"min secure = {_format_nrh(report.empirical_min_secure_nrh)}"
    )
    if report.empirical_min_escaping_nrh is None:
        print(
            "  (no escape observed: the mechanism held down to the smallest "
            "probed threshold at this simulation scale)"
        )
    analytical = report.analytical_min_secure
    if analytical is None:
        print("analytical: no wave-attack bound modelled for this mechanism")
    else:
        print(f"analytical: min secure N_RH = {analytical}")
        disagreement = report.disagreement
        print(f"agreement: {'no -- ' + disagreement if disagreement else 'yes'}")


def _cmd_attack_search(args: argparse.Namespace) -> int:
    base_config = _search_config(args)
    key = _artifact_key(args)
    redteam = _redteam(args, base_config)
    specs = default_search_specs(args.patterns, seed=args.seed, channel=args.channel)

    if args.dry_run:
        return _print_dry_run(
            redteam.engine,
            redteam.probe_jobs(args.mechanism, sorted(set(args.nrh)), specs),
            lambda job: {
                "workload": job.workload_name,
                "nrh": job.config.nrh,
                "accesses": job.attack.trace_length(base_config.organization),
            },
            "grid-scan probes",
        )

    try:
        report = redteam.search(
            args.mechanism, args.nrh, specs=specs,
            refine=not args.no_refine,
        )
    finally:
        redteam.engine.close()
    print(f"red-team search: {args.mechanism} ({len(specs)} attack specs per N_RH)")
    print(format_rows(_search_report_rows(report)))
    _print_search_summary(report)
    print(
        f"\n{redteam.engine.executed_jobs} probes simulated; "
        f"{redteam.engine.cache.summary()}"
    )
    from repro.artifacts.emit import emit_probe_artifact

    _emit_artifact(
        args, key, emit_probe_artifact, report.probes, base_config=base_config,
        extra_meta={"command": "attack search", "mechanism": args.mechanism,
                    "seed": args.seed},
    )
    return 0


def _cmd_attack_compare(args: argparse.Namespace) -> int:
    redteam = _redteam(args, _search_config(args))
    specs = default_search_specs(args.patterns, seed=args.seed, channel=args.channel)
    rows = []
    try:
        for mechanism in args.mechanisms:
            report = redteam.search(
                mechanism, args.nrh, specs=specs,
                refine=not args.no_refine,
            )
            disagreement = report.disagreement
            rows.append(
                {
                    "mechanism": mechanism,
                    "empirical_min_escaping": _format_nrh(report.empirical_min_escaping_nrh),
                    "empirical_max_escaping": _format_nrh(report.empirical_max_escaping_nrh),
                    "empirical_min_secure": _format_nrh(report.empirical_min_secure_nrh),
                    "analytical_min_secure": _format_nrh(report.analytical_min_secure),
                    "agreement": (
                        "-" if report.analytical_min_secure is None
                        else ("no" if disagreement else "yes")
                    ),
                }
            )
    finally:
        # The pool must not outlive the command, error or not.
        redteam.engine.close()
    print(format_rows(rows))
    print(
        f"\n{redteam.engine.executed_jobs} probes simulated; "
        f"{redteam.engine.cache.summary()}"
    )
    return 0


# --------------------------------------------------------------------------- #
# artifact subcommands
# --------------------------------------------------------------------------- #

def _cmd_artifact_keygen(args: argparse.Namespace) -> int:
    from repro.artifacts import write_key_file

    if os.path.exists(args.path) and not args.force:
        raise CommandError(f"{args.path} exists (pass --force to overwrite)")
    key = _write_output("artifact keygen", lambda: write_key_file(args.path))
    print(f"wrote {len(key)}-byte key to {args.path} (mode 0600)")
    return 0


def _cmd_artifact_verify(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, verify_artifact

    key = _load_key(args.key)
    try:
        summary = verify_artifact(args.path, key=key)
    except ArtifactError as error:
        raise _named(error, 1) from None
    _print_json(summary)
    print(f"OK: {args.path} verified ({summary['records']} records)")
    return 0


def _signature_line(summary: Dict[str, object]) -> str:
    return (
        f"{summary['records']} record(s), "
        f"{'signed' if summary['signed'] else 'unsigned'}"
        f"{' + signature verified' if summary['signature_verified'] else ''}"
    )


def _cmd_artifact_show(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, ArtifactReader

    key = _load_key(args.key)
    try:
        reader = ArtifactReader(args.path, key=key)
    except ArtifactError as error:
        raise _named(error, 1) from None
    _print_json({"meta": reader.meta})
    rows = [
        {
            "seq": record.seq,
            "kind": record.kind,
            "bytes": record.length,
            "key": str(record.payload.get("key", "-"))[:48],
        }
        for record in reader.records()
    ]
    if rows:
        print(format_rows(rows))
    print(f"\n{_signature_line(reader.verify_summary())}")
    if args.records:
        for record in reader.records():
            print(json.dumps(record.payload, sort_keys=True))
    return 0


def _cmd_artifact_diff(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, ArtifactReader, diff_artifacts

    try:
        left = ArtifactReader(args.left)
        right = ArtifactReader(args.right)
    except ArtifactError as error:
        raise _named(error) from None
    outcome = diff_artifacts(
        left, right, include_volatile=args.include_volatile
    )
    for line in outcome.summary_lines():
        print(line)
    return 0 if outcome.is_empty else 1


# --------------------------------------------------------------------------- #
# serve / client subcommands
# --------------------------------------------------------------------------- #

def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.queue import FairQueue
    from repro.service.server import SimulationService, run_service

    auth_key = _load_key(args.auth_key)
    admission = {
        name: value
        for name, value in (
            ("max_depth", args.queue_depth), ("per_client_active", args.client_cap),
            ("rate", args.rate), ("burst", args.burst),
        )
        if value is not None
    }
    service = SimulationService(
        engine=_engine(args), queue=FairQueue(**admission), auth_key=auth_key
    )
    try:
        asyncio.run(run_service(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        # The engine's atexit hook reaps the pool even on a hard interrupt;
        # this path just keeps the exit quiet.
        print("interrupted", file=sys.stderr)
    return 0


def _client_command(call: Callable) -> Callable[[argparse.Namespace], int]:
    """The handler of a ``client`` subcommand: ``call(args, client)`` on a
    client of ``--server``, where a refused call or a failed connection
    exits 1."""

    def handler(args: argparse.Namespace) -> int:
        from repro.service.client import ServiceClient, ServiceError

        host, separator, port_text = args.server.rpartition(":")
        if not separator:
            raise CommandError(f"expected HOST:PORT, got {args.server!r}")
        try:
            port = int(port_text)
        except ValueError as error:
            raise CommandError(str(error)) from None
        client = ServiceClient(
            host=host, port=port, client_id=args.client_id,
            auth_key=_load_key(args.auth_key),
        )
        try:
            return call(args, client)
        except ServiceError as error:
            detail = f" (retry after {error.retry_after}s)" if error.retry_after else ""
            raise CommandError(f"{error}{detail}", 1) from None
        except (ConnectionError, OSError, TimeoutError) as error:
            if isinstance(error, BrokenPipeError):
                # A closed stdout (``| head``) fails this flush too and is
                # main's to handle; a closed connection leaves stdout alone.
                sys.stdout.flush()
            raise CommandError(f"cannot reach {args.server}: {error}", 1) from None

    return handler


def _client_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The spec payload of ``client submit`` (inline JSON, file, or flags)."""
    if args.spec is not None:
        text = args.spec
        try:
            if os.path.exists(text):
                text = Path(text).read_text(encoding="utf-8")
            spec = json.loads(text)
        except (ValueError, OSError) as error:
            raise CommandError(str(error)) from None
        if not isinstance(spec, dict):
            raise CommandError("spec must be a JSON object")
        return spec
    if args.kind != "sweep":
        raise CommandError("--spec is required for non-sweep submissions")
    return {
        "mechanisms": args.mechanisms,
        "nrh": args.nrh,
        "num_mixes": args.num_mixes,
        "accesses": args.accesses,
        "seed": args.seed,
    }


def _client_submit(args: argparse.Namespace, client) -> int:
    response = client.submit(_client_spec(args), kind=args.kind, priority=args.priority)
    _print_json(response)
    if not args.watch:
        return 0
    return _watch_until_done(client, str(response["job"]), args.timeout)


def _client_artifact(args: argparse.Namespace, client) -> int:
    from repro.artifacts import ArtifactError, ArtifactReader

    blob = client.artifact(args.job_id)
    try:
        reader = ArtifactReader(blob, key=client.auth_key)
    except ArtifactError as error:
        raise CommandError(
            f"served artifact failed verification: {type(error).__name__}: {error}", 1
        ) from None
    _write_output("--out", lambda: Path(args.out).write_bytes(blob))
    print(
        f"artifact for job {args.job_id} written to {args.out}: "
        f"{_signature_line(reader.verify_summary())}"
    )
    return 0


def _print_event(event: Dict[str, object]) -> None:
    kind = event.get("event", "?")
    parts = [f"[{event.get('seq', '?')}] {kind}"]
    if kind == "state":
        parts.append(str(event.get("state")))
    elif kind == "plan":
        parts.append(
            f"{event.get('total_jobs')} jobs, {event.get('cached_jobs')} cached, "
            f"mode={event.get('mode')}"
        )
    elif kind == "job":
        parts.append(
            f"{event.get('label')} ({event.get('done_jobs')}/{event.get('missing_jobs')})"
        )
    elif kind == "report":
        report = event.get("report", {})
        if isinstance(report, dict):
            parts.append(
                f"engine={report.get('engine')} "
                f"hit_rate={report.get('cache_hit_rate', 0.0):.2f} "
                f"wall={report.get('wall_seconds', 0.0):.2f}s"
            )
    print("  ".join(parts), flush=True)


def _watch_until_done(client, job_id: str, timeout: float) -> int:
    """Print a job's events; exit 0 only when it ends ``done``."""
    final_state = ""
    try:
        for event in client.watch(job_id, timeout=timeout):
            _print_event(event)
            if event.get("event") == "state":
                final_state = str(event.get("state"))
    except TimeoutError as error:
        raise CommandError(str(error), 1) from None
    return 0 if final_state == "done" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except CommandError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.code
    except BrokenPipeError:
        # Piping into ``head``/``jq`` closes stdout early (common with
        # ``artifact show``); swap in devnull so interpreter shutdown does
        # not raise again while flushing, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
