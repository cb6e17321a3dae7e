#!/usr/bin/env python3
"""Compare all mitigation mechanisms across RowHammer thresholds.

A miniature version of Fig. 8 / Fig. 10: sweeps the RowHammer threshold from
1K down to 20 for every evaluated mechanism on a couple of four-core mixes and
prints normalised weighted speedup, normalised DRAM energy and storage cost.

Run with::

    python examples/mitigation_comparison.py [accesses_per_core]
"""

import sys

from repro.analysis.storage import storage_overhead_bytes
from repro.experiments.runner import compare, default_mixes
from repro.experiments.sweep import SweepEngine, SweepSpec


MECHANISMS = ("Chronus", "Chronus-PB", "PRAC-4", "Graphene", "Hydra", "PRFM", "PARA")
NRH_VALUES = (1024, 64, 20)


def main() -> None:
    accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    spec = SweepSpec(
        mechanisms=MECHANISMS,
        nrh_values=NRH_VALUES,
        mixes=[mix.applications for mix in default_mixes(2)],
        accesses_per_core=accesses,
    )
    print(f"Simulating {len(MECHANISMS)} mechanisms x {len(NRH_VALUES)} thresholds "
          f"x {len(spec.mixes)} four-core mixes ({accesses} accesses/core) ...\n")

    comparisons = compare(spec, SweepEngine().run(spec))

    print("mechanism    N_RH   norm. WS   perf. overhead   norm. energy   storage (MiB)")
    for comparison in comparisons:
        storage = storage_overhead_bytes(comparison.mechanism, comparison.nrh)
        print(
            f"{comparison.mechanism:10s}  {comparison.nrh:5d}   "
            f"{comparison.mean_normalized_ws:8.3f}   "
            f"{comparison.mean_performance_overhead:14.1%}   "
            f"{comparison.mean_normalized_energy:12.3f}   "
            f"{storage.total_mib:13.3f}"
        )

    chronus_at_20 = next(c for c in comparisons if c.mechanism == "Chronus" and c.nrh == 20)
    prac_at_20 = next(c for c in comparisons if c.mechanism == "PRAC-4" and c.nrh == 20)
    print(
        f"\nAt N_RH = 20, Chronus loses {chronus_at_20.mean_performance_overhead:.1%} "
        f"of performance while PRAC-4 loses {prac_at_20.mean_performance_overhead:.1%} "
        "(the paper's headline comparison)."
    )


if __name__ == "__main__":
    main()
