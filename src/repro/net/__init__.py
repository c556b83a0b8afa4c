"""Message-passing system model (paper Sections 4.2–4.4).

A discrete-event simulator executes a set of processes
``Π = {p1, …, pn}`` that communicate over channels with configurable
synchrony (asynchronous / synchronous(δ) / weakly synchronous with an
unknown GST), exactly the taxonomy of §4.2.  Processes may crash or
behave Byzantine; a fictional global clock (the simulator clock) orders
events but processes never read it.

The Update Agreement properties (Definition 4.3, Figure 13) and the
Light Reliable Communication abstraction (Definition 4.4) are implemented
and *instrumented*: every ``send``/``receive``/``update`` is recorded into
the concurrent history so the necessity results (Theorems 4.6–4.7) can be
demonstrated by switching adversaries on and off.
"""

from repro.net.simulator import Simulator
from repro.net.reference_queue import HeapSimulator
from repro.net.overlay import (
    TOPOLOGY_KINDS,
    FullOverlay,
    GeoClusteredOverlay,
    Overlay,
    RingOverlay,
    SkipGraphOverlay,
    SmallWorldOverlay,
    build_overlay,
    components,
)
from repro.net.channels import (
    DROP,
    AsynchronousChannel,
    ChannelModel,
    LossyChannel,
    SynchronousChannel,
    WeaklySynchronousChannel,
)
from repro.net.process import Network, SimProcess
from repro.net.broadcast import check_update_agreement, check_lrc
from repro.net.faults import MessageDropAdversary, PartitionAdversary
from repro.net.sketch import BloomFilter, IBLT
from repro.net.reconcile import (
    FloodTransport,
    GossipTransport,
    ReconcileTransport,
    build_transport,
    wire_size,
)

__all__ = [
    "Simulator",
    "HeapSimulator",
    "Overlay",
    "FullOverlay",
    "RingOverlay",
    "SmallWorldOverlay",
    "GeoClusteredOverlay",
    "SkipGraphOverlay",
    "build_overlay",
    "components",
    "TOPOLOGY_KINDS",
    "ChannelModel",
    "SynchronousChannel",
    "AsynchronousChannel",
    "WeaklySynchronousChannel",
    "LossyChannel",
    "DROP",
    "Network",
    "SimProcess",
    "check_update_agreement",
    "check_lrc",
    "MessageDropAdversary",
    "PartitionAdversary",
    "BloomFilter",
    "IBLT",
    "GossipTransport",
    "FloodTransport",
    "ReconcileTransport",
    "build_transport",
    "wire_size",
]
