"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

PARA is a stateless, memory-controller-based mechanism: every time a row is
closed after being activated, the controller refreshes one of its physically
adjacent rows with a (small) probability ``p``.  Because PARA keeps no
counters, its storage cost is essentially zero, but the refresh probability
must grow as ``N_RH`` shrinks, which makes its performance and energy
overheads the largest of all evaluated mechanisms at low thresholds
(Fig. 8 / Fig. 10 of the paper).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.mitigation import ControllerMitigation, PreventiveRefresh


#: Target probability that an aggressor row escapes mitigation for ``N_RH``
#: consecutive activations.  The refresh probability is chosen so that
#: ``(1 - p) ** N_RH <= TARGET_FAILURE_PROBABILITY`` (per-victim-side), the
#: standard way PARA is provisioned in the literature.
TARGET_FAILURE_PROBABILITY = 1e-15


def para_refresh_probability(
    nrh: int, target_failure: float = TARGET_FAILURE_PROBABILITY
) -> float:
    """Refresh probability needed for a given RowHammer threshold.

    Solves ``(1 - p) ** nrh <= target_failure`` for ``p``.
    """
    if nrh <= 0:
        raise ValueError("nrh must be positive")
    if not 0.0 < target_failure < 1.0:
        raise ValueError("target_failure must be in (0, 1)")
    p = 1.0 - target_failure ** (1.0 / nrh)
    return min(1.0, p)


class PARA(ControllerMitigation):
    """Probabilistic victim-row refresh on row closure."""

    name = "PARA"

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        probability: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        """Create a PARA policy.

        PARA refreshes one neighbour per trigger, chosen at random.

        Args:
            nrh: RowHammer threshold.
            num_banks: number of banks (used only for bookkeeping).
            probability: per-activation refresh probability; derived from
                ``nrh`` and :data:`TARGET_FAILURE_PROBABILITY` when ``None``.
            seed: seed of the private random number generator, so simulations
                are reproducible.
        """
        super().__init__(nrh)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        if probability is None:
            probability = para_refresh_probability(nrh)
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)

    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        if self._rng.random() < self.probability:
            # Refresh one neighbour within the blast radius, chosen at random
            # (both sides are equally likely).
            self.queue_refresh(
                PreventiveRefresh(bank_id=bank_id, aggressor_row=row, num_rows=1)
            )

    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """PARA is stateless; it only needs a random number generator."""
        return {}
