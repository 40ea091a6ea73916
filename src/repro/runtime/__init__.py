"""Message-passing runtime: the process-ready node boundary.

PRs 1–9 built the gateway, sharded consensus, async transport, durability
and replication layers as one in-process call graph.  This package carves
an explicit message boundary out of that graph so the same components can
be placed in separate OS processes without changing their semantics:

``envelope``
    Typed :class:`Envelope` messages with the WAL's sequence discipline:
    every envelope carries a monotonically increasing per-channel sequence
    so gaps and reordering are detectable at the receiver.

``transport``
    The :class:`Transport` interface with two implementations —
    :class:`LoopbackTransport` (in-process queues; today's behaviour,
    byte-identical fingerprints) and :class:`MultiprocessTransport`
    (socketpair framing with length-prefixed canonical-JSON payloads).

``clock``
    A :class:`ClockCoordinator` that merges per-worker simulated clocks so
    deterministic sim-time survives the jump across process boundaries.

``fleet``
    :class:`GatewayFleet`: partitions a gateway workload across worker
    processes, each running the existing single-process pipeline over its
    slice, and aggregates throughput, metrics and state fingerprints.
"""

from repro.runtime.envelope import Envelope, EnvelopeChannel
from repro.runtime.transport import (
    LoopbackTransport,
    MultiprocessTransport,
    Transport,
    read_frame,
    write_frame,
)
from repro.runtime.clock import ClockCoordinator, WorkerClock
from repro.runtime.fleet import (
    FleetResult,
    GatewayFleet,
    WorkerSpec,
    partition_tenants,
    run_worker_slice,
)

__all__ = [
    "ClockCoordinator",
    "Envelope",
    "EnvelopeChannel",
    "FleetResult",
    "GatewayFleet",
    "LoopbackTransport",
    "MultiprocessTransport",
    "Transport",
    "WorkerClock",
    "WorkerSpec",
    "partition_tenants",
    "read_frame",
    "run_worker_slice",
    "write_frame",
]
