"""Analytical models: wave-attack security, bandwidth attacks, storage cost.

These modules implement the closed-form / iterative analyses of the paper:

* :mod:`repro.analysis.security` -- the wave-attack recurrences (Eq. 1 and
  Eq. 2), the configuration sweeps of Fig. 3, the secure-configuration
  selection used by the performance experiments, and the Chronus security
  bound of §8.
* :mod:`repro.analysis.bandwidth` -- the performance-degradation attack
  analysis of §11 and the worst-case DRAM bandwidth consumption bound of
  Appendix D.
* :mod:`repro.analysis.storage` -- the storage-overhead models behind
  Fig. 11 and Fig. 13.
"""

from repro.analysis.security import (
    chronus_max_activations,
    chronus_secure_backoff_threshold,
    minimum_secure_nrh_chronus,
    minimum_secure_nrh_prac,
    minimum_secure_nrh_prfm,
    prac_max_activations,
    prac_security_sweep,
    prfm_max_activations,
    prfm_security_sweep,
    secure_prac_backoff_threshold,
    secure_prfm_threshold,
    att_required_entries,
)
from repro.analysis.bandwidth import (
    chronus_max_bandwidth_consumption,
    prac_max_bandwidth_consumption,
    dram_bandwidth_consumption,
)
from repro.analysis.storage import storage_overhead_bytes, storage_overhead_table

__all__ = [
    "prfm_max_activations",
    "prac_max_activations",
    "chronus_max_activations",
    "prfm_security_sweep",
    "prac_security_sweep",
    "secure_prfm_threshold",
    "secure_prac_backoff_threshold",
    "chronus_secure_backoff_threshold",
    "minimum_secure_nrh_prac",
    "minimum_secure_nrh_prfm",
    "minimum_secure_nrh_chronus",
    "att_required_entries",
    "dram_bandwidth_consumption",
    "prac_max_bandwidth_consumption",
    "chronus_max_bandwidth_consumption",
    "storage_overhead_bytes",
    "storage_overhead_table",
]
