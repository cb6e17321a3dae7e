"""Channel router: the fan-out point of the multi-channel memory system.

:class:`ChannelRouter` sits between the LLC miss path and the per-channel
:class:`~repro.controller.controller.MemoryController` instances.  It decodes
each demand request's physical address exactly once (the mapping's ``channel``
field selects the target channel), stamps the decoded coordinates onto the
request, and forwards it to the owning controller.  Channels are fully
independent DDR5 channels: each has its own command bus, so every channel may
issue one command per DRAM cycle -- this is where the aggregate-bandwidth
scaling of a multi-channel system comes from.

For a single-channel system the router degenerates to a thin pass-through
around the one controller, preserving the seed simulator's behaviour
bit-for-bit (the golden regression tests pin this).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.controller.address_mapping import AddressMapping
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest
from repro.dram.timing import FAR_FUTURE

#: Shared immutable "nothing completed" result (callers only iterate it).
_NO_REQUESTS: List[MemoryRequest] = []


class ChannelRouter:
    """Routes demand requests to per-channel memory controllers."""

    def __init__(
        self,
        mapping: AddressMapping,
        controllers: Sequence[MemoryController],
    ) -> None:
        if not controllers:
            raise ValueError("at least one memory controller is required")
        self.mapping = mapping
        self.controllers: List[MemoryController] = list(controllers)
        expected = mapping.organization.channels
        if len(self.controllers) != expected:
            raise ValueError(
                f"mapping addresses {expected} channels but "
                f"{len(self.controllers)} controllers were provided"
            )
        # Per-channel tick gating: a sleeping channel's state can only change
        # through its own tick or a new enqueue, so between those its wake
        # hint stays valid and the whole per-channel Python dispatch can be
        # skipped.  ``_wake[i]`` is the next cycle channel i must be ticked;
        # ``_dirty[i]`` forces a tick after an enqueue landed on it.
        self._wake: List[int] = [-1] * len(self.controllers)
        self._dirty: List[bool] = [True] * len(self.controllers)
        if len(self.controllers) == 1:
            # Single-channel fast path: the per-channel loop collapses to a
            # direct dispatch on the one controller (the seed topology, and
            # the hottest configuration in the benchmark suite).
            self.tick = self._tick_single  # type: ignore[method-assign]
            self.drain_completed = (  # type: ignore[method-assign]
                self.controllers[0].drain_completed
            )

    @property
    def num_channels(self) -> int:
        return len(self.controllers)

    # ------------------------------------------------------------------ #
    # LLC-miss-path interface (same surface the cores already use)
    # ------------------------------------------------------------------ #
    def enqueue(self, request: MemoryRequest) -> bool:
        """Decode, route and enqueue a demand request; False if the target
        channel's queue is full."""
        if request.dram is None:
            request.dram = self.mapping.decode(request.address)
            request.bank_id = request.dram.flat_bank(self.mapping.organization)
        channel = request.dram.channel
        accepted = self.controllers[channel].enqueue(request)
        if accepted:
            self._dirty[channel] = True
        return accepted

    def drain_completed(self) -> List[MemoryRequest]:
        """Completed requests of every channel since the last call."""
        completed: Optional[List[MemoryRequest]] = None
        for controller in self.controllers:
            # Direct read of the controller's documented hot-path attribute:
            # skips the swap-and-allocate drain for idle channels.
            if controller._completed:
                drained = controller.drain_completed()
                if completed is None:
                    completed = drained
                else:
                    completed.extend(drained)
        return completed if completed is not None else _NO_REQUESTS

    def pending_requests(self) -> int:
        """Demand requests still queued or in flight on any channel."""
        return sum(c.pending_requests() for c in self.controllers)

    # ------------------------------------------------------------------ #
    # Main per-cycle entry point
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int, force: bool = False) -> Tuple[bool, int]:
        """Tick every channel that can make progress at ``cycle``.

        Each channel owns an independent command bus, so up to one command
        per channel issues per cycle.  Channels that are neither dirty (a new
        request arrived) nor at their own wake cycle are skipped entirely --
        their previous hint is still valid.  ``force`` disables the gating
        (the strict-tick reference path must not depend on hint precision).
        Returns ``(any_issued, next_hint)`` where ``next_hint`` is the
        earliest wake cycle across channels, issuing or not.
        """
        issued_any = False
        hint = FAR_FUTURE
        wake = self._wake
        dirty = self._dirty
        for index, controller in enumerate(self.controllers):
            if force or dirty[index] or cycle >= wake[index]:
                issued, wake[index] = controller.tick(cycle)
                dirty[index] = False
                if issued:
                    issued_any = True
            if wake[index] < hint:
                hint = wake[index]
        return issued_any, hint

    def _tick_single(self, cycle: int, force: bool = False) -> Tuple[bool, int]:
        """Loop-free :meth:`tick` for the one-channel topology."""
        wake = self._wake
        if force or self._dirty[0] or cycle >= wake[0]:
            result = self.controllers[0].tick(cycle)
            self._dirty[0] = False
            wake[0] = result[1]
            return result
        return False, wake[0]
