"""Declarative adversarial access patterns.

Every attack this repository knows how to mount is described by an
:class:`AttackSpec` -- a pattern name, a (fully resolvable) parameter set and
a seed -- and compiled into a :class:`~repro.cpu.trace.Trace` by the builder
registered for that pattern.  The registry (:data:`ATTACK_PATTERNS`) is the
single catalogue the red-team engine, the CLI (``python -m repro attack``)
and the benchmarks all draw from:

``single_sided``
    classic single-aggressor hammering, interleaved with a far-away dummy row
    so every access closes the previously open row.
``double_sided``
    the two immediate neighbours of a victim row hammered alternately.
``many_sided``
    N aggressor rows hammered round-robin (generalises TRRespass-style
    many-sided patterns).
``wave``
    the paper's §4 wave / feinting attack: a large decoy row set hammered in
    balanced rounds so a budget-limited mitigation can only refresh a small
    subset per preventive action.
``rfm_dodge``
    round-robin over many banks so per-bank activation counters (PRFM's
    ``RFMth``) grow as slowly as possible relative to per-row pressure.
``refresh_sync``
    burst hammering separated by long compute gaps, aligning the quiet phases
    with periodic refresh to dodge borrowed-refresh style cleanup.
``perf_attack``
    the §11 memory performance attack (few rows, few banks, back-to-back).

The historical entry points (``wave_attack_addresses``, ``wave_attack_trace``
and ``performance_attack_trace``) live here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.controller.address_mapping import AddressMapping, mop_mapping
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.organization import DramAddress, DramOrganization, PAPER_ORGANIZATION


def _address_for(
    mapping: AddressMapping,
    organization: DramOrganization,
    bank_index: int,
    row: int,
    column: int = 0,
) -> int:
    """Physical address that decodes to (bank_index, row, column)."""
    rank, bankgroup, bank = organization.unflatten_bank_index(bank_index)
    dram = DramAddress(
        channel=0, rank=rank, bankgroup=bankgroup, bank=bank, row=row, column=column
    )
    return mapping.encode(dram)


def _check(
    organization: DramOrganization, p: Mapping[str, int], positive: Tuple[str, ...], **rows: int
) -> None:
    """Raise ``ValueError`` unless every ``positive`` parameter of ``p`` is
    positive, ``p["bank_index"]`` (when the pattern has one) is a bank of a
    channel and every row passed by keyword exists."""
    for name in positive:
        if p[name] <= 0:
            raise ValueError(f"{name} must be positive, got {p[name]}")
    if "bank_index" in p:
        organization.unflatten_bank_index(p["bank_index"])
    for what, row in rows.items():
        if not 0 <= row < organization.rows:
            raise ValueError(f"{what} {row} out of range [0, {organization.rows})")


def retarget_channel(trace: Trace, mapping: AddressMapping, channel: int) -> Trace:
    """Move every access of ``trace`` to ``channel``.

    Pattern builders emit channel-0 addresses; on a multi-channel system this
    helper re-encodes each address with the ``channel`` field replaced, so an
    attack aims at exactly one channel while leaving its bank/row geometry
    intact.  Works for any bijective mapping (the decode/encode round-trip is
    exact).
    """
    organization = mapping.organization
    if not 0 <= channel < organization.channels:
        raise ValueError(
            f"channel {channel} out of range [0, {organization.channels})"
        )
    entries = [
        replace(
            entry,
            address=mapping.encode(replace(mapping.decode(entry.address), channel=channel)),
        )
        for entry in trace
    ]
    return Trace(trace.name, entries)


# --------------------------------------------------------------------------- #
# Historical entry points
# --------------------------------------------------------------------------- #

def _wave_rows(
    organization: DramOrganization, num_rows: int, row_stride: int, first_row: int
) -> List[int]:
    """The decoy row set of a wave attack, validated against the bank size.

    A row set that does not fit would silently wrap around under the modulo
    arithmetic historically used here, reusing rows and making victim sets
    overlap -- corrupting the attack's balance -- so it raises ``ValueError``
    instead.
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    if row_stride <= 0:
        raise ValueError("row_stride must be positive")
    if first_row < 0:
        raise ValueError("first_row must be non-negative")
    if first_row + num_rows * row_stride > organization.rows:
        raise ValueError(
            f"wave attack row set does not fit: first_row={first_row} + "
            f"num_rows={num_rows} * row_stride={row_stride} exceeds "
            f"{organization.rows} rows per bank (rows would wrap around and "
            f"victim sets would overlap)"
        )
    return [first_row + index * row_stride for index in range(num_rows)]


def wave_attack_addresses(
    num_rows: int,
    bank_index: int = 0,
    organization: DramOrganization = PAPER_ORGANIZATION,
    mapping: Optional[AddressMapping] = None,
    row_stride: int = 4,
    first_row: int = 0,
) -> List[int]:
    """Physical addresses of ``num_rows`` decoy rows in one bank.

    Rows are spaced ``row_stride`` apart so their victim sets stay disjoint
    enough for the analysis (the paper assumes a blast radius of 2).  The row
    set must fit in the bank (see :func:`_wave_rows`).
    """
    mapping = mapping or mop_mapping(organization)
    return [
        _address_for(mapping, organization, bank_index, row)
        for row in _wave_rows(organization, num_rows, row_stride, first_row)
    ]


def wave_attack_trace(
    num_rows: int = 64,
    rounds: int = 32,
    bank_index: int = 0,
    organization: DramOrganization = PAPER_ORGANIZATION,
    mapping: Optional[AddressMapping] = None,
    name: str = "wave_attack",
    row_stride: int = 4,
    first_row: int = 0,
) -> Trace:
    """A wave-attack trace: hammer every decoy row once per round.

    Alternating between each decoy row and a conflicting row in the same bank
    forces a fresh activation per access even under an open-page policy.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    rows = _wave_rows(organization, num_rows, row_stride, first_row)
    mapping = mapping or mop_mapping(organization)
    # One round, encoded once and repeated (entries are frozen).  Each decoy
    # row alternates with a conflicting row in the same bank, so every access
    # closes the previously open row (classic hammer kernel).
    one_round = [
        TraceEntry(
            gap_instructions=0,
            address=_address_for(mapping, organization, bank_index, hammered_row),
        )
        for row in rows
        for hammered_row in (row, (row + 2) % organization.rows)
    ]
    return Trace(name, one_round * rounds)


#: Row spacing of the §11 performance attack's rows in each bank.
_PERF_ROW_STRIDE = 4


def _check_perf_attack(organization: DramOrganization, p: Mapping[str, int]) -> None:
    # The seed picks the first row from the bank's lower half, so the row set
    # fits for every seed when it fits from the highest first row.
    last_row = organization.rows // 2 - 1 + _PERF_ROW_STRIDE * (p["rows_per_bank"] - 1)
    _check(organization, p, ("num_banks", "rows_per_bank", "num_accesses"), last_row=last_row)


def performance_attack_trace(
    num_banks: int = 4,
    rows_per_bank: int = 8,
    num_accesses: int = 40_000,
    organization: DramOrganization = PAPER_ORGANIZATION,
    mapping: Optional[AddressMapping] = None,
    seed: int = 0,
    name: str = "perf_attack",
) -> Trace:
    """The §11 memory performance attack.

    One malicious core hammers ``rows_per_bank`` rows in each of ``num_banks``
    banks back-to-back (no compute gap), maximising the rate of preventive
    refreshes that the mitigation mechanism performs and thereby hogging DRAM
    bandwidth.  The paper found 8 rows x 4 banks to be the most damaging
    pattern for both Chronus and PRAC in its configuration.
    """
    _check_perf_attack(organization, dict(
        num_banks=num_banks, rows_per_bank=rows_per_bank, num_accesses=num_accesses
    ))
    mapping = mapping or mop_mapping(organization)
    rng = random.Random(seed)
    banks = list(range(min(num_banks, organization.total_banks)))
    base_row = rng.randrange(organization.rows // 2)
    rows = [base_row + _PERF_ROW_STRIDE * index for index in range(rows_per_bank)]
    # One pass over every (row, bank) pair, encoded once, repeated and cut.
    pattern = [
        TraceEntry(
            gap_instructions=0,
            address=_address_for(mapping, organization, bank_index, row),
        )
        for row in rows
        for bank_index in banks
    ]
    return Trace(name, (pattern * (num_accesses // len(pattern) + 1))[:num_accesses])


# --------------------------------------------------------------------------- #
# Pattern builders (new synthesised attacks)
# --------------------------------------------------------------------------- #
# Builders take parameters that passed their pattern's ``check``.

def _hammer_pair(
    organization: DramOrganization,
    mapping: AddressMapping,
    bank_index: int,
    row_a: int,
    row_b: int,
    pairs: int,
) -> List[TraceEntry]:
    """``pairs`` alternations between two conflicting rows of one bank."""
    address_a = _address_for(mapping, organization, bank_index, row_a)
    address_b = _address_for(mapping, organization, bank_index, row_b)
    entries: List[TraceEntry] = []
    for _ in range(pairs):
        entries.append(TraceEntry(gap_instructions=0, address=address_a))
        entries.append(TraceEntry(gap_instructions=0, address=address_b))
    return entries


def build_single_sided(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    hammer_count: int,
    row: int,
    dummy_distance: int,
    bank_index: int,
) -> Trace:
    """One aggressor row, interleaved with a far-away dummy row."""
    entries = _hammer_pair(
        organization, mapping, bank_index, row, row + dummy_distance, hammer_count
    )
    return Trace("single_sided", entries)


def build_double_sided(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    pair_rounds: int,
    victim_row: int,
    bank_index: int,
) -> Trace:
    """The two immediate neighbours of ``victim_row`` hammered alternately."""
    entries = _hammer_pair(
        organization, mapping, bank_index, victim_row - 1, victim_row + 1, pair_rounds
    )
    return Trace("double_sided", entries)


def build_many_sided(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    num_sides: int,
    rounds: int,
    first_row: int,
    stride: int,
    bank_index: int,
) -> Trace:
    """``num_sides`` aggressor rows hammered round-robin."""
    addresses = [
        _address_for(mapping, organization, bank_index, first_row + index * stride)
        for index in range(num_sides)
    ]
    entries = [
        TraceEntry(gap_instructions=0, address=address)
        for _ in range(rounds)
        for address in addresses
    ]
    return Trace("many_sided", entries)


def build_wave(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    num_rows: int,
    rounds: int,
    row_stride: int,
    first_row: int,
    bank_index: int,
) -> Trace:
    """The §4 wave attack (delegates to :func:`wave_attack_trace`)."""
    return wave_attack_trace(
        num_rows=num_rows,
        rounds=rounds,
        bank_index=bank_index,
        organization=organization,
        mapping=mapping,
        name="wave",
        row_stride=row_stride,
        first_row=first_row,
    )


def build_rfm_dodge(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    num_banks: int,
    rows_per_bank: int,
    rounds: int,
    stride: int,
    first_row: int,
) -> Trace:
    """Round-robin over banks so per-bank counters grow as slowly as possible.

    Each round activates every (bank, row) pair once, bank-major, so a
    per-bank activation budget (PRFM's ``RFMth``) is spread across
    ``num_banks`` counters while every row still gains one activation per
    round.
    """
    banks = list(range(min(num_banks, organization.total_banks)))
    addresses = [
        _address_for(
            mapping, organization, bank_index, first_row + row_index * stride
        )
        for row_index in range(rows_per_bank)
        for bank_index in banks
    ]
    entries = [
        TraceEntry(gap_instructions=0, address=address)
        for _ in range(rounds)
        for address in addresses
    ]
    return Trace("rfm_dodge", entries)


def build_refresh_sync(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    burst_pairs: int,
    num_bursts: int,
    gap_instructions: int,
    row: int,
    dummy_distance: int,
    bank_index: int,
) -> Trace:
    """Burst hammering separated by long compute gaps.

    The quiet phases let periodic refreshes (and the borrowed-refresh
    cleanup that rides on them) pass while the aggressor is cold, then each
    burst re-applies maximum pressure.
    """
    entries: List[TraceEntry] = []
    for burst in range(num_bursts):
        burst_entries = _hammer_pair(
            organization, mapping, bank_index, row, row + dummy_distance, burst_pairs
        )
        if burst:
            burst_entries[0] = replace(burst_entries[0], gap_instructions=gap_instructions)
        entries.extend(burst_entries)
    return Trace("refresh_sync", entries)


def build_perf_attack(
    organization: DramOrganization,
    mapping: AddressMapping,
    seed: int,
    num_banks: int,
    rows_per_bank: int,
    num_accesses: int,
) -> Trace:
    """The §11 performance attack (delegates to the historical builder)."""
    return performance_attack_trace(
        num_banks=num_banks,
        rows_per_bank=rows_per_bank,
        num_accesses=num_accesses,
        organization=organization,
        mapping=mapping,
        seed=seed,
        name="perf_attack",
    )


def _check_many_sided(organization: DramOrganization, p: Mapping[str, int]) -> None:
    if p["num_sides"] < 2:
        raise ValueError("num_sides must be at least 2 (adjacent rows conflict)")
    last_aggressor = p["first_row"] + (p["num_sides"] - 1) * p["stride"]
    _check(organization, p, ("rounds", "stride"), last_aggressor=last_aggressor)


def _check_wave(organization: DramOrganization, p: Mapping[str, int]) -> None:
    _check(organization, p, ("rounds",))
    _wave_rows(organization, p["num_rows"], p["row_stride"], p["first_row"])


def _check_refresh_sync(organization: DramOrganization, p: Mapping[str, int]) -> None:
    if p["gap_instructions"] < 0:
        raise ValueError("gap_instructions must be non-negative")
    dummy_row = p["row"] + p["dummy_distance"]
    _check(organization, p, ("burst_pairs", "num_bursts"), row=p["row"], dummy_row=dummy_row)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AttackPattern:
    """One registered attack pattern.

    Attributes:
        name: registry key (also the compiled trace's name).
        summary: one-line human-readable description for ``attack list``.
        builder: callable ``(organization, mapping, seed, **params) -> Trace``.
        check: callable ``(organization, params)`` that raises ``ValueError``
            unless the full parameter set ``params`` is valid on
            ``organization``: counts positive, and every row and bank the
            trace would touch present.  :class:`AttackSpec` runs it before
            ``builder`` and ``length``.
        length: callable ``(organization, params) -> int``, the number of
            accesses ``builder`` produces for the full parameter set
            ``params``, computed without building the trace.
        defaults: full default parameter set, as sorted (name, value) pairs.
        search_variants: parameter overrides (beyond the defaults) that the
            red-team search additionally tries; the defaults are always the
            first variant.
    """

    name: str
    summary: str
    builder: Callable[..., Trace]
    check: Callable[[DramOrganization, Mapping[str, int]], None]
    length: Callable[[DramOrganization, Mapping[str, int]], int]
    defaults: Tuple[Tuple[str, int], ...]
    search_variants: Tuple[Tuple[Tuple[str, int], ...], ...] = ()

    @property
    def default_params(self) -> Dict[str, int]:
        return dict(self.defaults)


def _params(**kwargs: int) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(kwargs.items()))


ATTACK_PATTERNS: Dict[str, AttackPattern] = {
    pattern.name: pattern
    for pattern in (
        AttackPattern(
            name="single_sided",
            summary="one aggressor row interleaved with a far dummy row",
            builder=build_single_sided,
            check=lambda organization, p: _check(
                organization, p, ("hammer_count",),
                row=p["row"], dummy_row=p["row"] + p["dummy_distance"],
            ),
            length=lambda organization, p: 2 * p["hammer_count"],
            defaults=_params(
                hammer_count=1200, row=100, dummy_distance=512, bank_index=0
            ),
            search_variants=(_params(hammer_count=2400),),
        ),
        AttackPattern(
            name="double_sided",
            summary="both immediate neighbours of one victim row",
            builder=build_double_sided,
            check=lambda organization, p: _check(
                organization, p, ("pair_rounds",),
                lower_aggressor=p["victim_row"] - 1, upper_aggressor=p["victim_row"] + 1,
            ),
            length=lambda organization, p: 2 * p["pair_rounds"],
            defaults=_params(pair_rounds=1200, victim_row=100, bank_index=0),
        ),
        AttackPattern(
            name="many_sided",
            summary="N aggressor rows hammered round-robin",
            builder=build_many_sided,
            check=_check_many_sided,
            length=lambda organization, p: p["num_sides"] * p["rounds"],
            defaults=_params(
                num_sides=8, rounds=300, first_row=64, stride=2, bank_index=0
            ),
            search_variants=(_params(num_sides=16, rounds=150),),
        ),
        AttackPattern(
            name="wave",
            summary="balanced decoy row set (the paper's §4 wave attack)",
            builder=build_wave,
            check=_check_wave,
            length=lambda organization, p: 2 * p["num_rows"] * p["rounds"],
            defaults=_params(
                num_rows=48, rounds=25, row_stride=4, first_row=0, bank_index=0
            ),
            search_variants=(_params(num_rows=96, rounds=12),),
        ),
        AttackPattern(
            name="rfm_dodge",
            summary="round-robin over banks to dodge per-bank RFM thresholds",
            builder=build_rfm_dodge,
            check=lambda organization, p: _check(
                organization, p, ("num_banks", "rows_per_bank", "rounds", "stride"),
                last_row=p["first_row"] + (p["rows_per_bank"] - 1) * p["stride"],
            ),
            length=lambda organization, p: (
                min(p["num_banks"], organization.total_banks)
                * p["rows_per_bank"] * p["rounds"]
            ),
            defaults=_params(
                num_banks=8, rows_per_bank=2, rounds=150, stride=4, first_row=32
            ),
        ),
        AttackPattern(
            name="refresh_sync",
            summary="hammer bursts separated by refresh-aligned quiet gaps",
            builder=build_refresh_sync,
            check=_check_refresh_sync,
            length=lambda organization, p: 2 * p["burst_pairs"] * p["num_bursts"],
            defaults=_params(
                burst_pairs=120,
                num_bursts=10,
                gap_instructions=4000,
                row=200,
                dummy_distance=512,
                bank_index=0,
            ),
        ),
        AttackPattern(
            name="perf_attack",
            summary="the §11 memory performance attack (few rows, few banks)",
            builder=build_perf_attack,
            check=_check_perf_attack,
            length=lambda organization, p: p["num_accesses"],
            defaults=_params(num_banks=4, rows_per_bank=8, num_accesses=2400),
        ),
    )
}


def pattern_names() -> Tuple[str, ...]:
    """All registered pattern names, in registry order."""
    return tuple(ATTACK_PATTERNS)


def pattern_by_name(name: str) -> AttackPattern:
    """Look up a registered pattern; raises ``ValueError`` for unknown names."""
    try:
        return ATTACK_PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown attack pattern {name!r}; expected one of {pattern_names()}"
        ) from None


# --------------------------------------------------------------------------- #
# AttackSpec
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AttackSpec:
    """A declarative, content-addressable attack description.

    ``params`` holds *overrides* of the pattern's defaults as sorted
    (name, value) pairs, which keeps the spec hashable, picklable and
    JSON-serialisable -- the properties the sweep engine's job cache needs.

    ``channel`` aims the compiled attack at one memory channel of a
    multi-channel system (every builder emits channel-0 addresses; non-zero
    targets are re-encoded by :func:`retarget_channel`).  The default of 0
    is omitted from the cache payload, so every pre-existing single-channel
    job key is preserved.
    """

    pattern: str
    params: Tuple[Tuple[str, int], ...] = ()
    seed: int = 0
    channel: int = 0

    def __post_init__(self) -> None:
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        registered = pattern_by_name(self.pattern)
        params = tuple(sorted(dict(self.params).items()))
        unknown = set(dict(params)) - set(registered.default_params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for pattern "
                f"{self.pattern!r}; accepted: {sorted(registered.default_params)}"
            )
        object.__setattr__(self, "params", params)

    @classmethod
    def create(
        cls,
        pattern: str,
        params: Optional[Mapping[str, int]] = None,
        seed: int = 0,
        channel: int = 0,
    ) -> "AttackSpec":
        """Build a spec from a plain parameter mapping."""
        return cls(
            pattern=pattern,
            params=tuple((params or {}).items()),
            seed=seed,
            channel=channel,
        )

    @property
    def resolved_params(self) -> Dict[str, int]:
        """The full parameter set: registry defaults with overrides applied."""
        resolved = pattern_by_name(self.pattern).default_params
        resolved.update(dict(self.params))
        return resolved

    def as_payload(self) -> Dict[str, object]:
        """JSON-serialisable description (cache key material).

        The *resolved* parameters are recorded, so changing a pattern's
        registry defaults changes the cache key of every spec relying on
        them -- stale results can never be served.
        """
        payload: Dict[str, object] = {
            "pattern": self.pattern,
            "params": self.resolved_params,
            "seed": self.seed,
        }
        # Only channel-targeted specs carry the field, so the keys of every
        # pre-existing (channel-0) spec -- and their cache entries -- are
        # byte-identical.
        if self.channel:
            payload["channel"] = self.channel
        return payload

    @property
    def label(self) -> str:
        """Compact human-readable description (CLI tables)."""
        overrides = ",".join(f"{k}={v}" for k, v in self.params)
        suffix = f"({overrides})" if overrides else ""
        target = f"@ch{self.channel}" if self.channel else ""
        return f"{self.pattern}{suffix}{target}"

    def _checked(self, organization: DramOrganization) -> Tuple[AttackPattern, Dict[str, int]]:
        """The pattern and the resolved parameters, after the pattern's check."""
        registered = pattern_by_name(self.pattern)
        params = self.resolved_params
        registered.check(organization, params)
        return registered, params

    def trace_length(self, organization: DramOrganization = PAPER_ORGANIZATION) -> int:
        """Accesses :meth:`compile` produces, without building the trace (after
        the same check, so a row or bank outside ``organization`` raises)."""
        registered, params = self._checked(organization)
        return registered.length(organization, params)

    def compile(
        self,
        organization: DramOrganization = PAPER_ORGANIZATION,
        mapping: Optional[AddressMapping] = None,
    ) -> Trace:
        """Compile the spec into a memory-access trace."""
        registered, params = self._checked(organization)
        mapping = mapping or mop_mapping(organization)
        trace = registered.builder(organization, mapping, self.seed, **params)
        if self.channel:
            trace = retarget_channel(trace, mapping, self.channel)
        return trace


def default_search_specs(
    patterns: Optional[Sequence[str]] = None, seed: int = 0, channel: int = 0
) -> List[AttackSpec]:
    """The spec set the red-team search tries per (mechanism, N_RH) point.

    For each selected pattern this yields the default parameterisation plus
    every registered search variant.  ``channel`` aims every spec at one
    memory channel of a multi-channel system.
    """
    selected = pattern_names() if patterns is None else tuple(patterns)
    specs: List[AttackSpec] = []
    for name in selected:
        registered = pattern_by_name(name)
        specs.append(AttackSpec(pattern=name, seed=seed, channel=channel))
        for variant in registered.search_variants:
            specs.append(
                AttackSpec(pattern=name, params=variant, seed=seed, channel=channel)
            )
    return specs
