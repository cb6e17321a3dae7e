#!/usr/bin/env python3
"""End-to-end benchmark of the read-disturbance simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload perf-attack --seed 0 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seconds 200 --trace 1 --out A.json
    python3 benchmarks/e2e/run.py --record          # re-record fingerprints.json

The load is closed-loop and one job at a time: this script starts one child
interpreter at a time, and each child runs one round of one workload
single-threaded.  With several workloads, round r of every workload runs
before round r+1, so slow host drift hits every workload alike.  Rounds
repeat until ``--seconds`` have passed (at least three untraced rounds per
workload).  With ``--trace 1`` the second half of the time goes to traced
rounds, which yield the per-layer metrics.

Every round re-checks each job's fingerprint (against fingerprints.json at
seed 0, against the run's first round otherwise) and the workload's gate.
Any failure makes the run print ``"correct": false`` and exit 1.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics listed in
BENCHMARK.json (``--trace 1``).  The full results go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, ".work", "results.json")
SOURCES = os.path.join(REPO_ROOT, "src", "repro")

if os.path.isdir(SOURCES):
    import harness

#: Untraced rounds per workload before a run may stop (quartiles need data).
MIN_ROUNDS = 3
#: A round that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100


def summarize(samples: List[float]) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric."""
    median = statistics.median(samples)
    q1, q3 = (
        statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else (median, median)
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


class WorkloadRuns:
    """The rounds of one workload and the failures found in them."""

    END_TO_END = ("wall_s", "us_per_cmd", "setup_s", "peak_rss_mib")

    def __init__(self, expected) -> None:
        self.expected = expected  # committed fingerprints, or None
        self.reference: Dict[str, Dict[str, object]] = {}
        self.samples: Dict[str, List[float]] = {m: [] for m in self.END_TO_END}
        self.layer_samples: Dict[str, List[float]] = {}
        self.traced_walls: List[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.edges: Optional[list] = None

    def fail(self, job_ids: List[str], reason: str) -> None:
        self.attempted += len(job_ids)
        self.failed += len(job_ids)
        self.errors.append(reason)

    def add(self, record: Dict[str, object]) -> None:
        failures = harness.check_round(record, self.expected or self.reference)
        for job_id, fp in record["fingerprints"].items():
            self.reference.setdefault(job_id, fp)
        self.attempted += len(record["jobs"])
        self.failed += len(failures)
        self.errors.extend(f"{job}: {why}" for job, why in sorted(failures.items()))
        if record["traced"]:
            self.traced_walls.append(record["wall_s"])
            for name, value in record["layers"].items():
                self.layer_samples.setdefault(name, []).append(value)
            self.edges = record["edges"]
            return
        self.rounds += 1
        if record["us_per_cmd"] is not None:
            for metric in self.END_TO_END:
                self.samples[metric].append(record[metric])

    def result(self, units: Dict[str, str]) -> Dict[str, object]:
        metrics = {
            name: {"unit": units[name], **summarize(values)}
            for name, values in self.samples.items() if values
        }
        metrics["error_rate"] = {
            "unit": "fraction",
            "value": self.failed / self.attempted if self.attempted else 1.0,
            "n": self.attempted,
        }
        layers = {
            name: {"unit": harness.layer_unit(name), **summarize(values)}
            for name, values in self.layer_samples.items()
        }
        if self.traced_walls and self.samples["wall_s"]:
            overhead = statistics.median(self.traced_walls) / statistics.median(
                self.samples["wall_s"]
            )
            layers["trace.overhead"] = {"unit": "x", **summarize([overhead])}
        return {
            "rounds": self.rounds,
            "traced_rounds": len(self.traced_walls),
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": harness.digest(self.reference),
            "errors": self.errors[:50],
            "metrics": metrics,
            "layers": layers,
            "edges": self.edges,
        }


def run_child(name: str, seed: int, traced: bool) -> Dict[str, object]:
    """Run one round in a fresh interpreter; return its record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(seed), "--trace", "1" if traced else "0",
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=REPO_ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-3:]
        raise RuntimeError(
            f"round of {name} exited with {completed.returncode}: " + " | ".join(tail)
        )
    return json.loads(lines[-1])


def child_main(args: argparse.Namespace) -> int:
    record = harness.run_round(args.workload[0], args.seed, traced=bool(args.trace))
    print(json.dumps(record))
    return 0


def measure(
    names: List[str], seed: int, seconds: float, trace: bool
) -> Dict[str, WorkloadRuns]:
    committed = harness.load_fingerprints() if seed == harness.FINGERPRINT_SEED else {}
    runs = {name: WorkloadRuns(committed.get(name)) for name in names}
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = all(r.rounds >= MIN_ROUNDS for r in runs.values())
        traced = trace and enough and elapsed >= seconds / 2
        if enough and elapsed >= seconds and (not trace or runs[names[0]].traced_walls):
            return runs
        for name in names:
            try:
                runs[name].add(run_child(name, seed, traced))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                runs[name].fail(list(harness.job_set(name, seed)), str(exc))
        if any(r.failed for r in runs.values()):
            return runs  # the verdict is in; more rounds would only repeat it


def record_fingerprints(names: List[str]) -> int:
    """Re-record fingerprints.json at seed 0; refuse if any check fails."""
    recorded = {}
    refused = False
    for name in names:
        record = run_child(name, harness.FINGERPRINT_SEED, traced=False)
        failures = harness.check_round(record, None)
        for job_id, reason in sorted(failures.items()):
            print(f"REFUSED {name} {job_id}: {reason}", file=sys.stderr)
        refused = refused or bool(failures)
        recorded[name] = record["fingerprints"]
        print(f"{name}: {len(record['jobs'])} jobs, digest {harness.digest(recorded[name])}")
    if refused:
        return 1
    harness.save_fingerprints(recorded)
    print(f"wrote {harness.FINGERPRINTS_PATH}")
    return 0


def _print_table(name: str, result: Dict[str, object], trace: bool) -> None:
    print(
        f"== {name}: {result['rounds']} rounds (+{result['traced_rounds']} traced), "
        f"{result['failed']}/{result['attempted']} jobs failed, "
        f"digest {result['digest']}"
    )
    rows = list(result["metrics"].items())
    if trace:
        rows += sorted(result["layers"].items())
    for metric, entry in rows:
        if "median" in entry:
            print(
                f"  {metric:<46} {entry['median']:>14.6g} {entry['unit']:<8} "
                f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}] n={entry['n']}"
            )
        else:
            print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']:<8} n={entry['n']}")
    for error in result["errors"][:10]:
        print(f"  FAIL {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", default=["all"],
        help="workload names, or 'all' (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT, help="results JSON path")
    parser.add_argument(
        "--record", action="store_true",
        help="re-record fingerprints.json at seed 0 instead of measuring",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(SOURCES):
        print(f"error: no simulator sources at {SOURCES}", file=sys.stderr)
        return 2
    names = list(harness.WORKLOADS) if args.workload == ["all"] else args.workload
    unknown = sorted(set(names) - set(harness.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(harness.WORKLOADS)}")
    if args.child:
        return child_main(args)
    if args.record:
        return record_fingerprints(names)

    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    reported = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]

    runs = measure(names, args.seed, args.seconds, bool(args.trace))
    results = {name: runs[name].result(units) for name in names}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(
            {
                "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
                "host": {
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                },
                "workloads": results,
            },
            handle, indent=1,
        )
    for name in names:
        _print_table(name, results[name], bool(args.trace))

    metrics = {}
    missing = []
    for name in names:
        table = results[name]["layers" if args.trace else "metrics"]
        for metric in reported:
            key = metric["name"] if len(names) == 1 else f"{name}/{metric['name']}"
            entry = table.get(metric["name"])
            if entry is None or "median" not in entry:
                missing.append(key)
            else:
                metrics[key] = {"value": entry["median"], "unit": metric["unit"]}
    for key in missing:
        print(f"FAIL no value measured for {key}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
