"""Structure-of-arrays storage for the per-bank timing registers.

:class:`BankArrayTiming` stores the six per-bank registers -- the earliest
legal cycle of each command class (``next_act`` / ``next_pre`` /
``next_rd`` / ``next_wr``), the open row and the last-ACT cycle -- as flat
per-channel NumPy ``int64`` arrays indexed by *flat bank id*.  A
:class:`~repro.dram.bank.Bank` is a thin view over one slot of a plane; the
controller's readiness scans and the device's REF/RFM predicates read the
arrays directly instead of walking 64 bank objects per channel.  The plane
itself is owned by :class:`~repro.dram.device.DramDevice`.

Sentinels
---------

``open_row`` uses ``-1`` for "no open row" and ``last_act`` uses ``-1`` for
"never activated"; real rows and cycles are non-negative, so the encoding is
lossless.  Bank state needs no separate array: a bank is ACTIVE iff its
``open_row`` slot is non-negative.
"""

from __future__ import annotations

import numpy as np

#: ``open_row`` / ``last_act`` sentinel for "none".
NO_ROW = -1


class BankArrayTiming:
    """Flat per-channel timing registers for ``num_banks`` banks.

    Every array is ``int64`` of length ``num_banks`` and indexed by flat
    bank id.  The arrays are the single source of truth -- bank views read
    and write them directly, and the controller kernels scan them without
    touching bank objects.
    """

    __slots__ = (
        "num_banks", "next_act", "next_pre", "next_rd", "next_wr",
        "open_row", "last_act",
        "next_act_mv", "next_pre_mv", "next_rd_mv", "next_wr_mv",
        "open_row_mv", "last_act_mv",
    )

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        #: Earliest cycle each command class may be issued (per bank).
        self.next_act = np.zeros(num_banks, dtype=np.int64)
        self.next_pre = np.zeros(num_banks, dtype=np.int64)
        self.next_rd = np.zeros(num_banks, dtype=np.int64)
        self.next_wr = np.zeros(num_banks, dtype=np.int64)
        #: Open row per bank (:data:`NO_ROW` = precharged).
        self.open_row = np.full(num_banks, NO_ROW, dtype=np.int64)
        #: Cycle of the last ACT per bank (:data:`NO_ROW` = never).
        self.last_act = np.full(num_banks, NO_ROW, dtype=np.int64)
        # Scalar-access twins: memoryview indexing reads and writes plain
        # Python ints at roughly half the cost of ndarray scalar indexing
        # and shares the ndarray buffer, so per-slot view accesses and the
        # whole-plane NumPy updates (REF, all-bank RFM) always see the same
        # registers.  The arrays never reallocate, so the views stay valid
        # for the plane's lifetime.
        self.next_act_mv = memoryview(self.next_act)
        self.next_pre_mv = memoryview(self.next_pre)
        self.next_rd_mv = memoryview(self.next_rd)
        self.next_wr_mv = memoryview(self.next_wr)
        self.open_row_mv = memoryview(self.open_row)
        self.last_act_mv = memoryview(self.last_act)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        open_banks = int((self.open_row != NO_ROW).sum())
        return f"BankArrayTiming(num_banks={self.num_banks}, open={open_banks})"
