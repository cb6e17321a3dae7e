"""Command-line interface: ``python -m repro``.

Subcommands:

``sweep``
    Expand a declarative (mechanism x N_RH x mix) sweep into jobs and run it
    through the :class:`~repro.experiments.sweep.SweepEngine`, printing the
    aggregated mechanism comparison.  ``--dry-run`` lists the expanded jobs
    (and whether each is already cached) without simulating anything;
    ``--workers N`` executes missing jobs across N worker processes and
    ``--batch`` runs them through the in-process batch-vectorized engine
    instead (fastest on single-CPU machines).

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
    clean against the committed baseline; any *new* finding exits 1.

``serve``
    Run the long-lived simulation service (:mod:`repro.service`): clients
    submit sweep / attack-search jobs over HTTP and stream live progress
    over WebSocket, all multiplexed onto one shared engine and cache.
    ``--auth-key FILE`` authenticates clients (HMAC of the client id,
    compared in constant time; 401 otherwise) and signs served artifacts.

``client``
    The matching thin client: ``client submit`` posts a job (``--watch``
    streams its events), ``client watch|status|cancel`` manage one job, and
    ``client health|stats|shutdown`` poke the server.  Used by the CI smoke
    test and the service load benchmark.

The on-disk cache location defaults to ``$REPRO_CACHE_DIR`` or
``.repro-cache``; pass ``--no-cache`` for a purely in-memory run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

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
from repro.experiments.runner import ExperimentRunner, default_mixes
from repro.experiments.sweep import SweepEngine, default_workers
from repro.system.config import paper_system_config
from repro.workloads.mixes import MIX_TYPES

#: Mechanisms ``attack compare`` tabulates by default (one representative of
#: each class: the proposal, the industry on-die default, periodic RFM, and
#: a deterministic controller-side tracker).
DEFAULT_COMPARE_MECHANISMS = ("Chronus", "PRAC-4", "PRFM", "Graphene")

#: Patterns ``attack compare`` uses by default (kept small: the comparison
#: runs |mechanisms| x |grid| x |specs| simulations).
DEFAULT_COMPARE_PATTERNS = ("wave", "single_sided", "rfm_dodge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Chronus (HPCA 2025) reproduction: sweep engine CLI.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="run a (mechanism x N_RH x mix) performance sweep"
    )
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
    sweep.add_argument(
        "--channels", type=int, default=1, metavar="N",
        help="memory channels of the simulated system (default: 1, as in Table 2)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_SWEEP_WORKERS, else one per "
             "CPU up to 8; values below 2 run serially)",
    )
    sweep.add_argument(
        "--batch", action="store_true",
        help="run missing jobs through the in-process batch-vectorized "
             "engine (shared trace precomputation + pooled buffers; "
             "byte-identical results, fastest on single-CPU machines)",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="keep results in memory only (no on-disk cache)",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="list the expanded jobs and their cache status, then exit",
    )
    sweep.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="also write the run report (RunReport.as_dict) as JSON -- the "
             "same serialization the service streams and the benches record",
    )
    sweep.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="emit the run as a signed, self-describing result artifact "
             "(full SystemConfig + per-job results; see docs/ARTIFACTS.md)",
    )
    sweep.add_argument(
        "--sign-key", default=None, metavar="FILE",
        help="HMAC key file signing --artifact (create one with "
             "'artifact keygen')",
    )

    cache = subparsers.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache (default: $REPRO_CACHE_DIR or .repro-cache)",
    )

    subparsers.add_parser("mechanisms", help="list the available mechanism names")

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the project-aware static contract checker",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    attack = subparsers.add_parser(
        "attack", help="attack synthesis and empirical red-team search"
    )
    attack_sub = attack.add_subparsers(dest="attack_command", required=True)

    attack_sub.add_parser("list", help="list the registered attack patterns")

    trace = attack_sub.add_parser(
        "trace", help="compile one attack pattern into a trace"
    )
    trace.add_argument(
        "--pattern", required=True, choices=list(pattern_names()),
        help="attack pattern to compile",
    )
    trace.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        dest="overrides", help="override a pattern parameter (repeatable)",
    )
    trace.add_argument("--seed", type=int, default=0, help="trace-generation seed")
    trace.add_argument(
        "--channel", type=int, default=0, metavar="CH",
        help="target memory channel of the compiled attack (default: 0)",
    )
    trace.add_argument(
        "--channels", type=int, default=1, metavar="N",
        help="memory channels of the addressed system (default: 1)",
    )
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
        parser.add_argument(
            "--channels", type=int, default=1, metavar="N",
            help="memory channels of the probed system (default: 1)",
        )
        parser.add_argument(
            "--channel", type=int, default=0, metavar="CH",
            help="channel the synthesised attacks target (default: 0)",
        )
        parser.add_argument(
            "--no-refine", action="store_true",
            help="skip the bisection refinement of the empirical boundary",
        )
        parser.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="worker processes (default: $REPRO_SWEEP_WORKERS, else one "
                 "per CPU up to 8; values below 2 run serially)",
        )
        parser.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="on-disk result cache (default: $REPRO_CACHE_DIR or .repro-cache)",
        )
        parser.add_argument(
            "--no-cache", action="store_true",
            help="keep results in memory only (no on-disk cache)",
        )

    search = attack_sub.add_parser(
        "search",
        help="search for the minimum N_RH at which an attack escapes a mechanism",
    )
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
    search.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="emit the probe outcomes as a result artifact "
             "(see docs/ARTIFACTS.md)",
    )
    search.add_argument(
        "--sign-key", default=None, metavar="FILE",
        help="HMAC key file signing --artifact",
    )

    compare = attack_sub.add_parser(
        "compare", help="tabulate the empirical vs analytical boundary per mechanism"
    )
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
    keygen.add_argument("path", help="where to write the key (hex, mode 0600)")
    keygen.add_argument(
        "--force", action="store_true", help="overwrite an existing key file"
    )

    verify = artifact_sub.add_parser(
        "verify",
        help="fully verify one artifact (nonzero exit on any corruption)",
    )
    verify.add_argument("path", help="artifact to verify")
    verify.add_argument(
        "--key", default=None, metavar="FILE",
        help="HMAC key file; with it the signature must verify too",
    )

    show = artifact_sub.add_parser(
        "show", help="print an artifact's provenance meta and record listing"
    )
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
    adiff.add_argument("left", help="baseline artifact")
    adiff.add_argument("right", help="artifact to compare against the baseline")
    adiff.add_argument(
        "--all", action="store_true", dest="include_volatile",
        help="also compare volatile kinds (timing reports)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the simulation service (HTTP + WebSocket job server)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8123,
        help="bind port (0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes of the shared engine (default: "
             "$REPRO_SWEEP_WORKERS, else serial)",
    )
    serve.add_argument(
        "--batch", action="store_true",
        help="execute jobs through the in-process batch-vectorized engine",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="bounded job-queue depth; overflow answers 429 (default: 32)",
    )
    serve.add_argument(
        "--client-cap", type=int, default=4, metavar="N",
        help="max jobs one client may have queued or running (default: 4)",
    )
    serve.add_argument(
        "--rate", type=float, default=10.0, metavar="R",
        help="per-client submissions per second refill rate (default: 10)",
    )
    serve.add_argument(
        "--burst", type=int, default=20, metavar="N",
        help="per-client submission token-bucket burst (default: 20)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="keep results in memory only (no on-disk cache)",
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
    watch.add_argument("job_id")
    watch.add_argument("--timeout", type=float, default=300.0)

    status = client_sub.add_parser("status", help="print one job's snapshot")
    status.add_argument("job_id")
    status.add_argument(
        "--full", action="store_true", help="include the full event log"
    )

    cancel = client_sub.add_parser("cancel", help="cancel one job")
    cancel.add_argument("job_id")

    cartifact = client_sub.add_parser(
        "artifact", help="download one finished job's signed result artifact"
    )
    cartifact.add_argument("job_id")
    cartifact.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the artifact",
    )

    client_sub.add_parser("health", help="print the service health document")
    client_sub.add_parser("stats", help="print the service statistics")
    client_sub.add_parser("shutdown", help="ask the service to stop cleanly")
    return parser


def _resolve_cache(args: argparse.Namespace) -> ResultCache:
    if getattr(args, "no_cache", False):
        return ResultCache(directory=None)
    directory = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    return ResultCache(directory=directory)


def _load_key_arg(path: Optional[str]) -> Optional[bytes]:
    """Load an HMAC key file argument; ``None`` stays ``None``.

    Raises :class:`repro.artifacts.ArtifactError` (the caller turns it into
    exit code 2 -- a usage error, not a verification failure).
    """
    if path is None:
        return None
    from repro.artifacts import load_key_file

    return load_key_file(path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    mixes = [
        mix.applications
        for mix in default_mixes(args.num_mixes, mix_types=args.mix_types)
    ]
    if not mixes:
        print("error: no mixes selected", file=sys.stderr)
        return 2
    cache = _resolve_cache(args)
    try:
        workers = default_workers(auto=True) if args.workers is None else args.workers
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    engine = SweepEngine(cache=cache, workers=workers, batch=args.batch)
    try:
        base_config = paper_system_config().with_overrides(channels=args.channels)
    except ValueError as error:
        print(f"error: --channels: {error}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(
        base_config=base_config,
        accesses_per_core=args.accesses, seed=args.seed, engine=engine,
    )
    try:
        spec = runner.sweep_spec(args.mechanisms, args.nrh, mixes)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    jobs = spec.expand()

    if args.dry_run:
        rows = [
            {
                "job": index,
                "workload": job.workload_name,
                "mechanism": job.config.mechanism,
                "nrh": job.config.nrh,
                "cores": job.config.num_cores,
                "accesses": job.accesses_per_core,
                "cached": "yes" if cache.contains(job.key) else "no",
                "key": job.key[:12],
            }
            for index, job in enumerate(jobs)
        ]
        print(format_rows(rows))
        cached = sum(1 for row in rows if row["cached"] == "yes")
        print(
            f"\ndry run: {len(jobs)} jobs ({spec.num_points()} sweep points, "
            f"{cached} cached, {len(jobs) - cached} to simulate, "
            f"workers={workers}{', batch' if args.batch else ''}, "
            f"cache={cache.directory or 'memory-only'})"
        )
        return 0

    try:
        comparisons = runner.compare(args.mechanisms, args.nrh, mixes)
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
        for c in comparisons
    ]
    print(format_rows(rows))
    print()
    for line in engine.last_run_report.summary_lines():
        print(line)
    print(f"{engine.executed_jobs} jobs simulated; {cache.summary()}")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(engine.last_run_report.as_dict(), handle, indent=2, sort_keys=True)
        print(f"run report written to {args.report_json}")
    if args.artifact:
        from repro.artifacts import ArtifactError
        from repro.artifacts.emit import emit_run_artifact

        try:
            key = _load_key_arg(args.sign_key)
            # compare() ran every job through the engine, so the cache's
            # memory layer holds every result.
            results = {job.key: cache.get(job.key) for job in jobs}
            count = emit_run_artifact(
                args.artifact, jobs, results,
                report=engine.last_run_report, base_config=base_config,
                key=key,
                extra_meta={"command": "sweep", "accesses": args.accesses,
                            "seed": args.seed},
            )
        except ArtifactError as error:
            print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
            return 2
        signed = " (signed)" if key is not None else ""
        print(f"artifact written to {args.artifact}: {count} record(s){signed}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    print(f"cache directory: {cache.directory}")
    print(f"entries: {cache.disk_entry_count()}")
    return 0


def _cmd_mechanisms() -> int:
    for name in MECHANISM_NAMES:
        print(name)
    return 0


# --------------------------------------------------------------------------- #
# attack subcommands
# --------------------------------------------------------------------------- #

def _cmd_attack_list() -> int:
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
    try:
        spec = AttackSpec.create(
            args.pattern, _parse_overrides(args.overrides), seed=args.seed,
            channel=args.channel,
        )
        organization = paper_system_config().with_overrides(
            channels=args.channels
        ).organization
        trace = spec.compile(organization=organization)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        trace.save(args.out)
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


def _redteam_engine(args: argparse.Namespace) -> RedTeamEngine:
    workers = default_workers(auto=True) if args.workers is None else args.workers
    engine = SweepEngine(cache=_resolve_cache(args), workers=workers)
    base_config = paper_system_config().with_overrides(
        channels=getattr(args, "channels", 1)
    )
    return RedTeamEngine(engine=engine, base_config=base_config, seed=args.seed)


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


def _check_channel_args(args: argparse.Namespace) -> Optional[str]:
    try:
        paper_system_config().with_overrides(channels=args.channels)
    except ValueError as error:
        return f"--channels: {error}"
    if not 0 <= args.channel < args.channels:
        return f"--channel {args.channel} out of range [0, {args.channels})"
    return None


def _cmd_attack_search(args: argparse.Namespace) -> int:
    error = _check_channel_args(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    redteam = _redteam_engine(args)
    specs = default_search_specs(args.patterns, seed=args.seed, channel=args.channel)

    if args.dry_run:
        try:
            jobs = redteam.probe_jobs(args.mechanism, sorted(set(args.nrh)), specs)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        cache = redteam.engine.cache
        # A spec's access count is independent of N_RH: compile each distinct
        # spec once instead of once per grid point.  Compile against the
        # probed organization, or channel-targeted specs cannot encode.
        organization = redteam.base_config.organization
        accesses = {
            spec: spec.compile(organization=organization).memory_accesses
            for spec in {job.attack for job in jobs}
        }
        rows = [
            {
                "job": index,
                "workload": job.workload_name,
                "nrh": job.config.nrh,
                "accesses": accesses[job.attack],
                "cached": "yes" if cache.contains(job.key) else "no",
                "key": job.key[:12],
            }
            for index, job in enumerate(jobs)
        ]
        print(format_rows(rows))
        cached = sum(1 for row in rows if row["cached"] == "yes")
        print(
            f"\ndry run: {len(jobs)} grid-scan probes ({cached} cached, "
            f"{len(jobs) - cached} to simulate, workers={redteam.engine.workers}, "
            f"cache={cache.directory or 'memory-only'})"
        )
        return 0

    try:
        report = redteam.search(
            args.mechanism, args.nrh, specs=specs,
            refine=not args.no_refine,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        redteam.engine.close()
    print(f"red-team search: {args.mechanism} ({len(specs)} attack specs per N_RH)")
    print(format_rows(_search_report_rows(report)))
    _print_search_summary(report)
    print(
        f"\n{redteam.engine.executed_jobs} probes simulated; "
        f"{redteam.engine.cache.summary()}"
    )
    if args.artifact:
        from repro.artifacts import ArtifactError
        from repro.artifacts.emit import emit_probe_artifact

        try:
            key = _load_key_arg(args.sign_key)
            count = emit_probe_artifact(
                args.artifact, report.probes,
                base_config=redteam.base_config, key=key,
                extra_meta={"command": "attack search",
                            "mechanism": args.mechanism, "seed": args.seed},
            )
        except ArtifactError as error:
            print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
            return 2
        signed = " (signed)" if key is not None else ""
        print(f"artifact written to {args.artifact}: {count} record(s){signed}")
    return 0


def _cmd_attack_compare(args: argparse.Namespace) -> int:
    error = _check_channel_args(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    redteam = _redteam_engine(args)
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
    import os

    from repro.artifacts import write_key_file

    if os.path.exists(args.path) and not args.force:
        print(
            f"error: {args.path} exists (pass --force to overwrite)",
            file=sys.stderr,
        )
        return 2
    key = write_key_file(args.path)
    print(f"wrote {len(key)}-byte key to {args.path} (mode 0600)")
    return 0


def _cmd_artifact_verify(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, ArtifactKeyError, verify_artifact

    try:
        key = _load_key_arg(args.key)
    except ArtifactKeyError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    try:
        summary = verify_artifact(args.path, key=key)
    except ArtifactError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"OK: {args.path} verified ({summary['records']} records)")
    return 0


def _cmd_artifact_show(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactError, ArtifactKeyError, ArtifactReader

    try:
        key = _load_key_arg(args.key)
    except ArtifactKeyError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    try:
        reader = ArtifactReader(args.path, key=key)
    except ArtifactError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": reader.meta}, indent=2, sort_keys=True))
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
    summary = reader.verify_summary()
    print(
        f"\n{summary['records']} record(s), "
        f"{'signed' if summary['signed'] else 'unsigned'}"
        f"{' + signature verified' if summary['signature_verified'] else ''}"
    )
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
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    outcome = diff_artifacts(
        left, right, include_volatile=args.include_volatile
    )
    for line in outcome.summary_lines():
        print(line)
    return 0 if outcome.is_empty else 1


def _cmd_artifact(args: argparse.Namespace) -> int:
    if args.artifact_command == "keygen":
        return _cmd_artifact_keygen(args)
    if args.artifact_command == "verify":
        return _cmd_artifact_verify(args)
    if args.artifact_command == "show":
        return _cmd_artifact_show(args)
    if args.artifact_command == "diff":
        return _cmd_artifact_diff(args)
    raise AssertionError(f"unhandled artifact command {args.artifact_command!r}")


# --------------------------------------------------------------------------- #
# serve / client subcommands
# --------------------------------------------------------------------------- #

def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import SimulationService, run_service

    try:
        workers = default_workers() if args.workers is None else max(0, args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else (
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    from repro.artifacts import ArtifactKeyError

    try:
        auth_key = _load_key_arg(args.auth_key)
    except ArtifactKeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = SimulationService.build(
        cache_dir=cache_dir,
        workers=workers,
        batch=args.batch,
        max_queue_depth=args.queue_depth,
        per_client_active=args.client_cap,
        rate=args.rate,
        burst=args.burst,
        auth_key=auth_key,
    )
    try:
        asyncio.run(run_service(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        # The engine's atexit hook reaps the pool even on a hard interrupt;
        # this path just keeps the exit quiet.
        print("interrupted", file=sys.stderr)
    return 0


def _parse_server(address: str) -> tuple:
    host, separator, port_text = address.rpartition(":")
    if not separator:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port_text)


def _client_spec(args: argparse.Namespace) -> Dict[str, object]:
    """The spec payload of ``client submit`` (inline JSON, file, or flags)."""
    import os

    if args.spec is not None:
        text = args.spec
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("spec must be a JSON object")
        return spec
    if args.kind != "sweep":
        raise ValueError("--spec is required for non-sweep submissions")
    return {
        "mechanisms": args.mechanisms,
        "nrh": args.nrh,
        "num_mixes": args.num_mixes,
        "accesses": args.accesses,
        "seed": args.seed,
    }


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
    elif kind == "shard":
        parts.append(
            f"shard {event.get('shard')}: {event.get('jobs')} job(s) in "
            f"{event.get('seconds', 0.0):.2f}s "
            f"({event.get('done_jobs')}/{event.get('missing_jobs')})"
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


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.artifacts import ArtifactKeyError
    from repro.service.client import ServiceClient, ServiceError

    try:
        host, port = _parse_server(args.server)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        auth_key = _load_key_arg(args.auth_key)
    except ArtifactKeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    client = ServiceClient(
        host=host, port=port, client_id=args.client_id, auth_key=auth_key
    )
    try:
        if args.client_command == "submit":
            try:
                spec = _client_spec(args)
            except (ValueError, OSError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            response = client.submit(spec, kind=args.kind, priority=args.priority)
            print(json.dumps(response, indent=2, sort_keys=True))
            if not args.watch:
                return 0
            job_id = str(response["job"])
            final_state = ""
            for event in client.watch(job_id, timeout=args.timeout):
                _print_event(event)
                if event.get("event") == "state":
                    final_state = str(event.get("state"))
            return 0 if final_state == "done" else 1
        if args.client_command == "watch":
            final_state = ""
            for event in client.watch(args.job_id, timeout=args.timeout):
                _print_event(event)
                if event.get("event") == "state":
                    final_state = str(event.get("state"))
            return 0 if final_state == "done" else 1
        if args.client_command == "status":
            print(json.dumps(client.status(args.job_id, full=args.full),
                             indent=2, sort_keys=True))
            return 0
        if args.client_command == "cancel":
            print(json.dumps(client.cancel(args.job_id), indent=2, sort_keys=True))
            return 0
        if args.client_command == "artifact":
            from repro.artifacts import ArtifactError, ArtifactReader

            blob = client.artifact(args.job_id)
            try:
                reader = ArtifactReader(blob, key=auth_key)
            except ArtifactError as error:
                print(
                    f"error: served artifact failed verification: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                return 1
            with open(args.out, "wb") as handle:
                handle.write(blob)
            summary = reader.verify_summary()
            print(
                f"artifact for job {args.job_id} written to {args.out}: "
                f"{summary['records']} record(s), "
                f"{'signed' if summary['signed'] else 'unsigned'}"
                f"{' + signature verified' if summary['signature_verified'] else ''}"
            )
            return 0
        if args.client_command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "shutdown":
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
            return 0
    except ServiceError as error:
        detail = f" (retry after {error.retry_after}s)" if error.retry_after else ""
        print(f"error: {error}{detail}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as error:
        print(f"error: cannot reach {args.server}: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled client command {args.client_command!r}")


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.attack_command == "list":
        return _cmd_attack_list()
    if args.attack_command == "trace":
        return _cmd_attack_trace(args)
    if args.attack_command == "search":
        return _cmd_attack_search(args)
    if args.attack_command == "compare":
        return _cmd_attack_compare(args)
    raise AssertionError(f"unhandled attack command {args.attack_command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Piping into ``head``/``jq`` closes stdout early (common with
        # ``artifact show``); swap in devnull so interpreter shutdown does
        # not raise again while flushing, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "mechanisms":
        return _cmd_mechanisms()
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "artifact":
        return _cmd_artifact(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    raise AssertionError(f"unhandled command {args.command!r}")
