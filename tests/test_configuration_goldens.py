"""Goldens for every derived mechanism configuration.

Each factory mechanism derives its configuration from ``N_RH`` alone: the
back-off threshold, the RFM threshold, the table sizes, the trigger
thresholds and PARA's probability all come out of the §5 / §8 analysis and
the Table 1 timings.  The literals below were recorded before the analysis
was wired to ``repro.dram.timing``; a change that moves any of them has
changed what the simulator models.

``None`` marks a threshold at which the mechanism cannot be configured at
all (Chronus needs ``N_RH >= Anormal + 2``).
"""

import pytest

from repro.core.factory import MECHANISM_NAMES, build_mechanism
from repro.core.graphene import DEFAULT_RESET_WINDOW_ACTIVATIONS

#: Attributes a part may expose; each golden lists the ones its parts have.
ATTRIBUTES = (
    "nbo", "nref", "att_entries", "rfm_threshold", "table_entries",
    "trigger_threshold", "group_threshold", "row_threshold", "probability",
    "victim_rows_per_aggressor",
)

#: (mechanism, N_RH) -> (is_secure, use_prac_timings, act_energy_multiplier,
#: [per-part attributes, on-die part first]).
CONFIGURATIONS = {
    ('None', 1024): (True, False, 1.0, []),
    ('None', 128): (True, False, 1.0, []),
    ('None', 32): (True, False, 1.0, []),
    ('None', 20): (True, False, 1.0, []),
    ('None', 4): (True, False, 1.0, []),
    ('Chronus', 1024): (True, False, 1.1907, [{'nbo': 256, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus', 128): (True, False, 1.1907, [{'nbo': 124, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus', 32): (True, False, 1.1907, [{'nbo': 28, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus', 20): (True, False, 1.1907, [{'nbo': 16, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus', 4): None,
    ('Chronus-PB', 1024): (True, False, 1.1907, [{'nbo': 256, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus-PB', 128): (True, False, 1.1907, [{'nbo': 64, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus-PB', 32): (True, False, 1.1907, [{'nbo': 16, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus-PB', 20): (True, False, 1.1907, [{'nbo': 4, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('Chronus-PB', 4): (False, False, 1.1907, [{'nbo': 1, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-4', 1024): (True, True, 1.1907, [{'nbo': 256, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-4', 128): (True, True, 1.1907, [{'nbo': 64, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-4', 32): (True, True, 1.1907, [{'nbo': 16, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-4', 20): (True, True, 1.1907, [{'nbo': 4, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-4', 4): (False, True, 1.1907, [{'nbo': 1, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-2', 1024): (True, True, 1.1907, [{'nbo': 256, 'nref': 2, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-2', 128): (True, True, 1.1907, [{'nbo': 64, 'nref': 2, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-2', 32): (True, True, 1.1907, [{'nbo': 6, 'nref': 2, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-2', 20): (False, True, 1.1907, [{'nbo': 1, 'nref': 2, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-2', 4): (False, True, 1.1907, [{'nbo': 1, 'nref': 2, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-1', 1024): (True, True, 1.1907, [{'nbo': 256, 'nref': 1, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-1', 128): (True, True, 1.1907, [{'nbo': 64, 'nref': 1, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-1', 32): (False, True, 1.1907, [{'nbo': 1, 'nref': 1, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-1', 20): (False, True, 1.1907, [{'nbo': 1, 'nref': 1, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC-1', 4): (False, True, 1.1907, [{'nbo': 1, 'nref': 1, 'att_entries': 4, 'victim_rows_per_aggressor': 4}]),
    ('PRAC+PRFM', 1024): (True, True, 1.1907, [{'nbo': 256, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}, {'rfm_threshold': 75, 'victim_rows_per_aggressor': 4}]),
    ('PRAC+PRFM', 128): (True, True, 1.1907, [{'nbo': 64, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}, {'rfm_threshold': 75, 'victim_rows_per_aggressor': 4}]),
    ('PRAC+PRFM', 32): (True, True, 1.1907, [{'nbo': 16, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}, {'rfm_threshold': 75, 'victim_rows_per_aggressor': 4}]),
    ('PRAC+PRFM', 20): (True, True, 1.1907, [{'nbo': 4, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}, {'rfm_threshold': 75, 'victim_rows_per_aggressor': 4}]),
    ('PRAC+PRFM', 4): (False, True, 1.1907, [{'nbo': 1, 'nref': 4, 'att_entries': 4, 'victim_rows_per_aggressor': 4}, {'rfm_threshold': 75, 'victim_rows_per_aggressor': 4}]),
    ('PRFM', 1024): (True, False, 1.0, [{'rfm_threshold': 80, 'victim_rows_per_aggressor': 4}]),
    ('PRFM', 128): (True, False, 1.0, [{'rfm_threshold': 8, 'victim_rows_per_aggressor': 4}]),
    ('PRFM', 32): (True, False, 1.0, [{'rfm_threshold': 3, 'victim_rows_per_aggressor': 4}]),
    ('PRFM', 20): (True, False, 1.0, [{'rfm_threshold': 2, 'victim_rows_per_aggressor': 4}]),
    ('PRFM', 4): (False, False, 1.0, [{'rfm_threshold': 2, 'victim_rows_per_aggressor': 4}]),
    ('Graphene', 1024): (True, False, 1.0, [{'table_entries': 666, 'trigger_threshold': 512, 'victim_rows_per_aggressor': 4}]),
    ('Graphene', 128): (True, False, 1.0, [{'table_entries': 5321, 'trigger_threshold': 64, 'victim_rows_per_aggressor': 4}]),
    ('Graphene', 32): (True, False, 1.0, [{'table_entries': 21278, 'trigger_threshold': 16, 'victim_rows_per_aggressor': 4}]),
    ('Graphene', 20): (True, False, 1.0, [{'table_entries': 34044, 'trigger_threshold': 10, 'victim_rows_per_aggressor': 4}]),
    ('Graphene', 4): (True, False, 1.0, [{'table_entries': 170214, 'trigger_threshold': 2, 'victim_rows_per_aggressor': 4}]),
    ('Hydra', 1024): (True, False, 1.0, [{'group_threshold': 256, 'row_threshold': 512, 'victim_rows_per_aggressor': 4}]),
    ('Hydra', 128): (True, False, 1.0, [{'group_threshold': 32, 'row_threshold': 64, 'victim_rows_per_aggressor': 4}]),
    ('Hydra', 32): (True, False, 1.0, [{'group_threshold': 8, 'row_threshold': 16, 'victim_rows_per_aggressor': 4}]),
    ('Hydra', 20): (True, False, 1.0, [{'group_threshold': 5, 'row_threshold': 10, 'victim_rows_per_aggressor': 4}]),
    ('Hydra', 4): (True, False, 1.0, [{'group_threshold': 1, 'row_threshold': 2, 'victim_rows_per_aggressor': 4}]),
    ('PARA', 1024): (True, False, 1.0, [{'probability': 0.03316678372989912, 'victim_rows_per_aggressor': 4}]),
    ('PARA', 128): (True, False, 1.0, [{'probability': 0.23649391966166544, 'victim_rows_per_aggressor': 4}]),
    ('PARA', 32): (True, False, 1.0, [{'probability': 0.660179167105744, 'victim_rows_per_aggressor': 4}]),
    ('PARA', 20): (True, False, 1.0, [{'probability': 0.8221720589961077, 'victim_rows_per_aggressor': 4}]),
    ('PARA', 4): (True, False, 1.0, [{'probability': 0.9998221720589962, 'victim_rows_per_aggressor': 4}]),
    ('ABACuS', 1024): (True, False, 1.0, [{'table_entries': 666, 'trigger_threshold': 512, 'victim_rows_per_aggressor': 4}]),
    ('ABACuS', 128): (True, False, 1.0, [{'table_entries': 5321, 'trigger_threshold': 64, 'victim_rows_per_aggressor': 4}]),
    ('ABACuS', 32): (True, False, 1.0, [{'table_entries': 21278, 'trigger_threshold': 16, 'victim_rows_per_aggressor': 4}]),
    ('ABACuS', 20): (True, False, 1.0, [{'table_entries': 34044, 'trigger_threshold': 10, 'victim_rows_per_aggressor': 4}]),
    ('ABACuS', 4): (True, False, 1.0, [{'table_entries': 170214, 'trigger_threshold': 2, 'victim_rows_per_aggressor': 4}]),
}


def test_goldens_cover_every_mechanism():
    assert {name for name, _ in CONFIGURATIONS} == set(MECHANISM_NAMES)


@pytest.mark.parametrize("name,nrh", sorted(CONFIGURATIONS), ids=str)
def test_derived_configuration(name, nrh):
    expected = CONFIGURATIONS[name, nrh]
    if expected is None:
        with pytest.raises(ValueError):
            build_mechanism(name, nrh=nrh, num_banks=32)
        return
    setup = build_mechanism(name, nrh=nrh, num_banks=32)
    is_secure, use_prac_timings, act_energy_multiplier, parts = expected
    assert setup.is_secure is is_secure
    assert setup.use_prac_timings is use_prac_timings
    assert setup.act_energy_multiplier == act_energy_multiplier
    assert [
        {attr: getattr(part, attr) for attr in ATTRIBUTES if hasattr(part, attr)}
        for part in setup.mechanisms()
    ] == parts


def test_reset_window_activations():
    """Half a tREFW of back-to-back ACTs at the Table 1 ns tRC (47 ns)."""
    assert DEFAULT_RESET_WINDOW_ACTIVATIONS == 340_425
