"""Mechanism factory: build any evaluated mechanism by name.

The experiments sweep mechanisms by name (matching the paper's legends), so
this module centralises the secure-configuration logic: given a mechanism
name and a RowHammer threshold, it returns a :class:`MechanismSetup` with

* the on-DRAM-die component (PRAC / Chronus), if any,
* the memory-controller component (PRFM / Graphene / Hydra / PARA / ABACuS),
  if any.

Every part derives its configuration from ``N_RH`` alone.  A part that has
no configuration secure against the wave attack at ``N_RH`` falls back to its
most aggressive one and says so; the setup derives from its parts whether the
PRAC timing parameters must be applied and whether the configuration is
secure (mirroring the paper's red-edged bars).

``PRAC+PRFM`` is the composite configuration from the specification: PRAC-4
on the DRAM die plus a controller-side periodic RFM with ``RFMth = 75``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.abacus import ABACuS
from repro.core.chronus import Chronus, ChronusPB
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.mitigation import ControllerMitigation, OnDieMitigation
from repro.core.para import PARA
from repro.core.prac import PRAC
from repro.core.prfm import PRFM


#: RFM threshold of the PRAC+PRFM example configuration in JESD79-5c.
PRAC_PRFM_RFM_THRESHOLD = 75

#: All mechanism names accepted by :func:`build_mechanism`, in the order the
#: paper's figures list them.
MECHANISM_NAMES: Tuple[str, ...] = (
    "None",
    "Chronus",
    "Chronus-PB",
    "PRAC-4",
    "PRAC-2",
    "PRAC-1",
    "PRAC+PRFM",
    "PRFM",
    "Graphene",
    "Hydra",
    "PARA",
    "ABACuS",
)


@dataclass
class MechanismSetup:
    """Everything the system simulator needs to install a mechanism."""

    name: str
    on_die: Optional[OnDieMitigation]
    controller: Optional[ControllerMitigation]

    @property
    def use_prac_timings(self) -> bool:
        """True if any installed part needs the PRAC timings (Table 1)."""
        return any(part.requires_prac_timings for part in self.mechanisms())

    @property
    def is_secure(self) -> bool:
        """True if every installed part is configured securely."""
        return all(part.is_secure for part in self.mechanisms())

    @property
    def act_energy_multiplier(self) -> float:
        """Row-access energy multiplier of the installed mechanism(s)."""
        return max([1.0] + [part.act_energy_multiplier for part in self.mechanisms()])

    def mechanisms(self):
        """Iterate over the installed mechanism objects."""
        if self.on_die is not None:
            yield self.on_die
        if self.controller is not None:
            yield self.controller


def build_mechanism(
    name: str,
    nrh: int,
    num_banks: int,
    seed: int = 0,
) -> MechanismSetup:
    """Build the mechanism configuration named ``name`` for threshold ``nrh``.

    Args:
        name: one of :data:`MECHANISM_NAMES` (case-sensitive).
        nrh: RowHammer threshold.
        num_banks: number of banks in the simulated channel.
        seed: random seed (used by PARA).

    Returns:
        A :class:`MechanismSetup`.

    Raises:
        ValueError: for an unknown mechanism name, and for Chronus below
            ``N_RH = Anormal + 2``, where no back-off threshold exists.
    """
    if name == "None":
        return MechanismSetup(name, None, None)

    if name == "PRFM":
        return MechanismSetup(name, None, PRFM(nrh, num_banks))

    if name in ("PRAC-1", "PRAC-2", "PRAC-4"):
        nref = int(name.split("-")[1])
        return MechanismSetup(name, PRAC(nrh, num_banks, nref=nref), None)

    if name == "PRAC+PRFM":
        prac = PRAC(nrh, num_banks, nref=4)
        prfm = PRFM(nrh, num_banks, rfm_threshold=PRAC_PRFM_RFM_THRESHOLD)
        return MechanismSetup(name, prac, prfm)

    if name == "Chronus":
        return MechanismSetup(name, Chronus(nrh, num_banks), None)

    if name == "Chronus-PB":
        return MechanismSetup(name, ChronusPB(nrh, num_banks), None)

    if name == "Graphene":
        return MechanismSetup(name, None, Graphene(nrh, num_banks))

    if name == "Hydra":
        return MechanismSetup(name, None, Hydra(nrh, num_banks))

    if name == "PARA":
        return MechanismSetup(name, None, PARA(nrh, num_banks, seed=seed))

    if name == "ABACuS":
        return MechanismSetup(name, None, ABACuS(nrh, num_banks))

    raise ValueError(f"unknown mechanism {name!r}; expected one of {MECHANISM_NAMES}")
