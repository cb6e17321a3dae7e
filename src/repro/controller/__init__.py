"""Memory controller substrate.

Implements the request queues, the FR-FCFS+Cap scheduling policy, DRAM address
mappings, periodic refresh management, the RFM / back-off protocol handling,
and the hosting of controller-side mitigation mechanisms -- i.e. everything
Table 2 of the paper configures on the memory-controller side.  Multi-channel
systems put a :class:`~repro.controller.router.ChannelRouter` in front of one
:class:`MemoryController` per channel.
"""

from repro.controller.request import MemoryRequest, RequestType
from repro.controller.address_mapping import (
    MAPPING_NAMES,
    AddressMapping,
    abacus_mapping,
    mop_mapping,
    robarracoch_mapping,
    row_interleaved,
    mapping_by_name,
)
from repro.controller.controller import MemoryController
from repro.controller.router import ChannelRouter

__all__ = [
    "MemoryRequest",
    "RequestType",
    "AddressMapping",
    "MAPPING_NAMES",
    "mop_mapping",
    "robarracoch_mapping",
    "abacus_mapping",
    "row_interleaved",
    "mapping_by_name",
    "MemoryController",
    "ChannelRouter",
]
