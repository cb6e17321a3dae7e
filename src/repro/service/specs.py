"""Strict validation of client submissions into executable job lists.

Untrusted JSON crosses the trust boundary here, so parsing follows three
rules (the lessons of injection-style cache poisoning):

1. **Whitelist, never reflect**: every accepted field is read by name and
   passed as an explicit keyword argument to the dataclass constructors --
   there is no ``setattr`` loop over client keys, so a payload cannot smuggle
   attributes into :class:`~repro.experiments.sweep.SimJob` or the config.
2. **Reject unknown keys** (400), instead of silently ignoring them: a
   typoed field would otherwise change what the client *thinks* it ran.
3. **Bound everything**: access budgets, attack trace lengths, expanded
   job counts and list lengths (mixes included) are capped so one
   submission cannot wedge the service.

The output of :func:`parse_submission` is a :class:`Submission` whose
``payload`` is the *canonical* resolved description (defaults applied) --
what the service echoes back, so clients can verify what was admitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.attacks.patterns import AttackSpec, pattern_names
from repro.core.factory import MECHANISM_NAMES
from repro.experiments.runner import default_mixes
from repro.experiments.sweep import SimJob, SweepSpec, attack_search_job
from repro.system.config import paper_system_config
from repro.workloads.mixes import MIX_TYPES
from repro.workloads.synthetic import app_names

#: Job kinds the service schedules.
KIND_SWEEP = "sweep"
KIND_ATTACK_SEARCH = "attack_search"
KINDS = (KIND_SWEEP, KIND_ATTACK_SEARCH)

#: Per-submission resource bounds (one submission must not wedge the
#: service; clients split bigger work across submissions).
MAX_ACCESSES = 200_000
MAX_JOBS = 512
MAX_LIST_LENGTH = 64
MAX_PRIORITY = 9

#: Client identifiers: short, printable, no separators that could leak into
#: paths or headers.
_CLIENT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class SpecError(ValueError):
    """A rejected submission payload (maps to HTTP 400)."""


@dataclass(frozen=True)
class Submission:
    """A validated, executable submission."""

    kind: str
    client: str
    priority: int
    payload: Dict[str, object]
    jobs: Tuple[SimJob, ...]


# --------------------------------------------------------------------------- #
# Primitive field readers
# --------------------------------------------------------------------------- #

def _require_mapping(value: object, what: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            raise SpecError(f"{what} keys must be strings")
    return value


def _reject_unknown(mapping: Mapping[str, object], allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown {what} field(s) {unknown}; accepted: {sorted(allowed)}"
        )


def _read_int(
    mapping: Mapping[str, object],
    name: str,
    default: Optional[int],
    minimum: int,
    maximum: int,
) -> int:
    value = mapping.get(name, default)
    if value is None:
        raise SpecError(f"missing required field {name!r}")
    # bool is an int subclass; reject it explicitly (JSON true/false must
    # not be readable as 1/0 budgets).
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {type(value).__name__}")
    if not minimum <= value <= maximum:
        raise SpecError(f"{name} must be in [{minimum}, {maximum}], got {value}")
    return value


def _read_str_list(
    mapping: Mapping[str, object],
    name: str,
    allowed: Optional[Sequence[str]] = None,
    default: Optional[Sequence[str]] = None,
) -> List[str]:
    value = mapping.get(name, list(default) if default is not None else None)
    if value is None:
        raise SpecError(f"missing required field {name!r}")
    if not isinstance(value, list) or not value:
        raise SpecError(f"{name} must be a non-empty list")
    if len(value) > MAX_LIST_LENGTH:
        raise SpecError(f"{name} holds {len(value)} entries (max {MAX_LIST_LENGTH})")
    for item in value:
        if not isinstance(item, str):
            raise SpecError(f"{name} entries must be strings")
        if allowed is not None and item not in allowed:
            raise SpecError(
                f"{name} entry {item!r} is not one of {sorted(allowed)}"
            )
    return list(value)


def _read_int_list(mapping: Mapping[str, object], name: str, minimum: int, maximum: int) -> List[int]:
    value = mapping.get(name)
    if value is None:
        raise SpecError(f"missing required field {name!r}")
    if not isinstance(value, list) or not value:
        raise SpecError(f"{name} must be a non-empty list")
    if len(value) > MAX_LIST_LENGTH:
        raise SpecError(f"{name} holds {len(value)} entries (max {MAX_LIST_LENGTH})")
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool):
            raise SpecError(f"{name} entries must be integers")
        if not minimum <= item <= maximum:
            raise SpecError(f"{name} entry {item} must be in [{minimum}, {maximum}]")
    return list(value)


def validate_client(client: object) -> str:
    """A safe client identifier (used in queue bookkeeping and stats)."""
    if not isinstance(client, str) or not _CLIENT_RE.match(client):
        raise SpecError(
            "client must match [A-Za-z0-9._-]{1,64}"
        )
    return client


# --------------------------------------------------------------------------- #
# Kind-specific spec parsing
# --------------------------------------------------------------------------- #

_SWEEP_FIELDS = (
    "mechanisms", "nrh", "mixes", "num_mixes", "mix_types", "accesses",
    "seed", "channels",
)


def _parse_sweep(spec: Mapping[str, object]) -> Tuple[Dict[str, object], Tuple[SimJob, ...]]:
    _reject_unknown(spec, _SWEEP_FIELDS, "sweep spec")
    mechanisms = _read_str_list(spec, "mechanisms", allowed=MECHANISM_NAMES)
    nrh_values = _read_int_list(spec, "nrh", minimum=1, maximum=1 << 20)
    accesses = _read_int(spec, "accesses", 1000, 1, MAX_ACCESSES)
    seed = _read_int(spec, "seed", 0, 0, 1 << 31)
    channels = _read_int(spec, "channels", 1, 1, 8)

    if "mixes" in spec and "num_mixes" in spec:
        raise SpecError("give either mixes or num_mixes, not both")
    if "mixes" in spec:
        raw_mixes = spec["mixes"]
        if not isinstance(raw_mixes, list) or not raw_mixes:
            raise SpecError("mixes must be a non-empty list of application lists")
        if len(raw_mixes) > MAX_LIST_LENGTH:
            raise SpecError(f"mixes holds {len(raw_mixes)} entries (max {MAX_LIST_LENGTH})")
        known_apps = set(app_names())
        mixes: List[Tuple[str, ...]] = []
        for index, mix in enumerate(raw_mixes):
            if not isinstance(mix, list) or not mix:
                raise SpecError(f"mixes[{index}] must be a non-empty list of strings")
            if len(mix) > MAX_LIST_LENGTH:
                raise SpecError(
                    f"mixes[{index}] holds {len(mix)} applications (max {MAX_LIST_LENGTH})"
                )
            for app in mix:
                if not isinstance(app, str):
                    raise SpecError(f"mixes[{index}] entries must be strings")
                if app not in known_apps:
                    raise SpecError(f"mixes[{index}] names unknown application {app!r}")
            mixes.append(tuple(mix))
    else:
        num_mixes = _read_int(spec, "num_mixes", 1, 1, MAX_LIST_LENGTH)
        mix_types = (
            _read_str_list(spec, "mix_types", allowed=tuple(MIX_TYPES))
            if "mix_types" in spec else None
        )
        mixes = [
            tuple(mix.applications)
            for mix in default_mixes(num_mixes, mix_types=mix_types)
        ]
        if not mixes:
            raise SpecError("no mixes match the requested mix_types")

    try:
        base_config = paper_system_config().with_overrides(channels=channels)
        sweep = SweepSpec(
            mechanisms=tuple(mechanisms),
            nrh_values=tuple(nrh_values),
            mixes=tuple(mixes),
            accesses_per_core=accesses,
            seed=seed,
            base_config=base_config,
        )
        jobs = tuple(sweep.expand())
    except ValueError as error:
        raise SpecError(str(error))
    canonical: Dict[str, object] = {
        "mechanisms": mechanisms,
        "nrh": nrh_values,
        "mixes": [list(mix) for mix in mixes],
        "accesses": accesses,
        "seed": seed,
        "channels": channels,
    }
    return canonical, jobs


_ATTACK_FIELDS = (
    "mechanism", "nrh", "pattern", "params", "seed", "channel", "channels",
)


def _parse_attack_search(spec: Mapping[str, object]) -> Tuple[Dict[str, object], Tuple[SimJob, ...]]:
    _reject_unknown(spec, _ATTACK_FIELDS, "attack_search spec")
    mechanism = spec.get("mechanism")
    if mechanism not in MECHANISM_NAMES:
        raise SpecError(
            f"mechanism must be one of {sorted(MECHANISM_NAMES)}, got {mechanism!r}"
        )
    nrh_values = _read_int_list(spec, "nrh", minimum=1, maximum=1 << 20)
    pattern = spec.get("pattern")
    if pattern not in tuple(pattern_names()):
        raise SpecError(
            f"pattern must be one of {sorted(pattern_names())}, got {pattern!r}"
        )
    seed = _read_int(spec, "seed", 0, 0, 1 << 31)
    channels = _read_int(spec, "channels", 1, 1, 8)
    channel = _read_int(spec, "channel", 0, 0, 7)
    if channel >= channels:
        raise SpecError(f"channel {channel} out of range [0, {channels})")
    params_raw = _require_mapping(spec.get("params", {}), "params")
    params: Dict[str, int] = {}
    for name, value in params_raw.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecError(f"params[{name!r}] must be an integer")
        if value < 0:
            raise SpecError(f"params[{name!r}] must be non-negative, got {value}")
        params[name] = value
    try:
        attack = AttackSpec.create(pattern, params, seed=seed, channel=channel)
        base_config = paper_system_config().with_overrides(channels=channels)
        length = attack.trace_length(base_config.organization)
        jobs = tuple(
            attack_search_job(base_config, mechanism, nrh, attack)
            for nrh in sorted(set(nrh_values))
        )
    except ValueError as error:
        raise SpecError(str(error))
    if not 1 <= length <= MAX_ACCESSES:
        raise SpecError(
            f"{pattern} trace would hold {length} accesses "
            f"(must be in [1, {MAX_ACCESSES}])"
        )
    canonical: Dict[str, object] = {
        "mechanism": mechanism,
        "nrh": sorted(set(nrh_values)),
        "pattern": pattern,
        "params": dict(sorted(params.items())),
        "seed": seed,
        "channel": channel,
        "channels": channels,
    }
    return canonical, jobs


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

_TOP_FIELDS = ("kind", "client", "priority", "spec")


def parse_submission(body: object, default_client: str = "anonymous") -> Submission:
    """Validate one POST /jobs payload into a :class:`Submission`.

    Raises :class:`SpecError` (HTTP 400) on anything unexpected.
    """
    top = _require_mapping(body, "submission")
    _reject_unknown(top, _TOP_FIELDS, "submission")
    kind = top.get("kind", KIND_SWEEP)
    if kind not in KINDS:
        raise SpecError(f"kind must be one of {list(KINDS)}, got {kind!r}")
    client = validate_client(top.get("client", default_client))
    priority = _read_int(top, "priority", 0, 0, MAX_PRIORITY)
    spec = _require_mapping(top.get("spec", None), "spec") if "spec" in top else None
    if spec is None:
        raise SpecError("missing required field 'spec'")
    if kind == KIND_SWEEP:
        canonical, jobs = _parse_sweep(spec)
    else:
        canonical, jobs = _parse_attack_search(spec)
    if len(jobs) > MAX_JOBS:
        raise SpecError(
            f"submission expands to {len(jobs)} jobs (max {MAX_JOBS}); "
            "split it across submissions"
        )
    return Submission(
        kind=kind,
        client=client,
        priority=priority,
        payload={"kind": kind, "priority": priority, "spec": canonical},
        jobs=jobs,
    )
