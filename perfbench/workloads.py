"""The benchmark's three traffic workloads and the single-threaded replay.

Each workload builds a sharing system through the public topology builders,
puts a :class:`~repro.gateway.SharingGateway` with one session per tenant in
front of it, and generates a seeded open-loop trace with
:meth:`~repro.workloads.traffic.TrafficGenerator.open_loop`.  The trace is cut
at the first arrival by which it holds ``writes`` writes and
``reads`` reads, so every seed measures the same amount of work.

:func:`replay` drives the trace from one thread: closed-loop in wall time
(each arrival is submitted after the previous call returned) and open-loop in
simulated time (the clock jumps to each arrival, and the gateway times a
write from its arrival).  A batch is committed whenever the write queue
reaches the workload's batch size, and each hospital burst as a batch of its
own; the trace ends with a drain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DurabilityConfig, ReplicationConfig, SystemConfig
from repro.core.system import MedicalDataSharingSystem
from repro.gateway import SharingGateway, UpdateEntryRequest
from repro.gateway.requests import GatewayResponse
from repro.gateway.session import GatewaySession
from repro.workloads.topology import (
    HOSPITAL_TABLE_ID,
    TopologySpec,
    build_join_topology_system,
    build_topology_system,
    patients_by_medication,
)
from repro.workloads.traffic import (
    TimedRequest,
    TrafficGenerator,
    default_tenant_profiles,
)

BLOCK_INTERVAL = 2.0
FSYNC_POLICY = "batch"
#: The tenant whose same-time arrivals form one batched update (a burst).
BURST_TENANT = "hospital"


@dataclass
class Rig:
    """A built system with its gateway and one open session per tenant."""

    system: MedicalDataSharingSystem
    gateway: SharingGateway
    sessions: Dict[str, GatewaySession]


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one topology.

    A run replays ``traces`` traces, each from its own seed derived from the
    run's seed (:meth:`trace_seeds`), and pools what they measure: several
    short traces vary less from seed to seed than one long one.  ``rate`` is
    each patient tenant's Poisson rate in requests per simulated second.
    ``hospital_period`` > 0 selects the join topology, where every
    ``hospital_period`` simulated seconds the hospital updates
    ``mechanism_of_action`` for every patient on one medication (the
    medications taken in turn): one fan-out cascade per burst.
    """

    name: str
    why: str
    tenants: int
    rate: float
    read_fraction: float
    writes: int
    reads: int
    traces: int = 6
    batch: int = 16
    shards: int = 1
    replicas: int = 0
    hospital_period: float = 0.0
    medications: int = 8
    first_patient_id: int = 188

    def trace_seeds(self, seed: int) -> List[int]:
        """The topology and traffic seed of each trace of a run."""
        return [seed * 1_000 + index for index in range(self.traces)]

    @property
    def durable(self) -> bool:
        return self.replicas > 0

    def config(self, state_dir: Optional[pathlib.Path]) -> SystemConfig:
        config = SystemConfig.private_chain(BLOCK_INTERVAL,
                                            consensus_shards=self.shards)
        if self.durable:
            config = dataclasses.replace(
                config,
                durability=DurabilityConfig(state_dir=str(state_dir),
                                            fsync_policy=FSYNC_POLICY),
                replication=ReplicationConfig(replicas=self.replicas))
        return config

    def setup(self, seed: int, state_dir: Optional[pathlib.Path] = None) -> Rig:
        """Build the system, deploy contracts, establish every agreement and
        open the tenants' sessions (the work ``setup_s`` times)."""
        spec = TopologySpec(patients=self.tenants, researchers=0,
                            distinct_medications=self.medications, seed=seed,
                            first_patient_id=self.first_patient_id)
        build = (build_join_topology_system if self.hospital_period
                 else build_topology_system)
        system = build(spec, self.config(state_dir))
        gateway = SharingGateway(system, max_batch_size=self.batch)
        tenants = [profile.peer for profile in default_tenant_profiles(system)]
        if self.hospital_period:
            tenants.append(BURST_TENANT)
        return Rig(system, gateway,
                   {peer: gateway.open_session(peer) for peer in tenants})

    def trace(self, rig: Rig, seed: int) -> List[TimedRequest]:
        """The seeded arrivals, cut once they hold the required mix."""
        system = rig.system
        profiles = default_tenant_profiles(system, request_rate=self.rate,
                                           read_fraction=self.read_fraction)
        start = system.simulator.clock.now()
        per_second = self.rate * len(profiles)
        needed = max(self.writes / max(1.0 - self.read_fraction, 1e-3),
                     self.reads / max(self.read_fraction, 1e-3))
        duration = 2.0 * needed / per_second + 10.0
        arrivals = TrafficGenerator(system, seed=seed).open_loop(
            profiles, duration=duration, start_time=start)
        if self.hospital_period:
            arrivals = sorted(arrivals + self._hospital_bursts(system, start, duration),
                              key=lambda timed: (timed.arrival_time, timed.tenant))
        return cut(arrivals, self.writes, self.reads)

    def _hospital_bursts(self, system: MedicalDataSharingSystem, start: float,
                         duration: float) -> List[TimedRequest]:
        groups = list(patients_by_medication(system).items())
        bursts = []
        burst = 0
        while (burst + 0.5) * self.hospital_period < duration:
            medication, patient_ids = groups[burst % len(groups)]
            arrival = start + (burst + 0.5) * self.hospital_period
            for patient_id in patient_ids:
                bursts.append(TimedRequest(arrival, BURST_TENANT, UpdateEntryRequest(
                    metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
                    updates={"mechanism_of_action": f"MeA-{medication}-b{burst}"})))
            burst += 1
        return bursts


def cut(arrivals: List[TimedRequest], writes: int, reads: int) -> List[TimedRequest]:
    """The first ``writes`` writes and first ``reads`` reads, in arrival
    order: every trace of a workload carries the same mix."""
    left = {True: writes, False: reads}
    kept = []
    for timed in arrivals:
        if left[timed.request.is_write] > 0:
            left[timed.request.is_write] -= 1
            kept.append(timed)
            if not any(left.values()):
                return kept
    raise ValueError(f"trace lacks {left[True]} writes and {left[False]} reads")


@dataclass
class Replay:
    """Wall-clock record of one replay (``perf_counter`` seconds, reference
    seconds after :meth:`rescale`)."""

    start: float = 0.0
    end: float = 0.0
    sim_seconds: float = 0.0
    is_write: List[bool] = field(default_factory=list)
    responses: List[GatewayResponse] = field(default_factory=list)
    #: When each request's ``submit`` was called, and when its response
    #: turned terminal (inside ``submit`` for reads, in a commit for writes).
    submitted: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)
    #: Wall clock after every commit the replay made before the final drain.
    commit_marks: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def rescale(self, to_reference: Callable[[float], float]) -> None:
        """Replace every wall-clock reading by its mapped value."""
        self.start, self.end = to_reference(self.start), to_reference(self.end)
        for readings in (self.submitted, self.finished, self.commit_marks):
            readings[:] = map(to_reference, readings)

    def latencies(self, writes: bool) -> List[float]:
        return [done - began for write, began, done
                in zip(self.is_write, self.submitted, self.finished)
                if write == writes]

    def halves(self) -> Tuple[float, int, float, int]:
        """``(wall, writes)`` before and after the split commit, counting
        the writes that turned terminal on each side of it.

        The split is the replay's commit after which the number of terminal
        writes is nearest half of them: a write still queued there is
        committed, and counted, in the second half.  When no commit ends
        mid-trace, the moments writes turned terminal are the candidates.
        """
        done = sorted(finished for write, finished in zip(self.is_write, self.finished)
                      if write)
        writes = len(done)
        marks = []
        for at in self.commit_marks or done:
            count = bisect_right(done, at)
            if 0 < count < writes:
                marks.append((count, at))
        if not marks:
            # Every write turned terminal at once: no growth can show.
            return self.wall, writes, self.wall, writes
        count, at = min(marks, key=lambda mark: abs(2 * mark[0] - writes))
        return at - self.start, count, self.end - at, writes - count


def _burst(arrivals: List[TimedRequest], index: int) -> Optional[Tuple[str, float]]:
    timed = arrivals[index] if 0 <= index < len(arrivals) else None
    if timed is None or timed.tenant != BURST_TENANT:
        return None
    return timed.tenant, timed.arrival_time


def replay(rig: Rig, arrivals: List[TimedRequest], batch: int) -> Replay:
    """Submit every arrival in order; commit at ``batch`` queued writes.

    A hospital burst is committed as a batch of its own, queued writes
    first, as the parallel-cascade experiment does: a burst edit that shares
    a batch with a write-back of the same patient can make the join's
    ``put_delta`` diverge from the full recompute (see ``selftest.py``).
    """
    gateway = rig.gateway
    clock = rig.system.simulator.clock
    finished: Dict[str, float] = {}
    gateway.subscribe_terminal(
        lambda response: finished.__setitem__(response.request_id, perf_counter()))
    result = Replay(is_write=[timed.request.is_write for timed in arrivals])
    sim_start = clock.now()
    result.start = perf_counter()
    for index, timed in enumerate(arrivals):
        burst = _burst(arrivals, index)
        if burst is not None and burst != _burst(arrivals, index - 1):
            gateway.drain()
        clock.advance_to(timed.arrival_time)
        result.submitted.append(perf_counter())
        result.responses.append(
            gateway.submit(rig.sessions[timed.tenant], timed.request))
        if burst is not None and burst != _burst(arrivals, index + 1):
            gateway.drain()
        elif gateway.queue_depth >= batch:
            gateway.commit_once()
        else:
            continue
        result.commit_marks.append(perf_counter())
    gateway.drain()
    result.end = perf_counter()
    result.sim_seconds = clock.now() - sim_start
    result.finished = [finished.get(response.request_id, result.end)
                       for response in result.responses]
    return result


def counters(system: MedicalDataSharingSystem) -> Dict[str, int]:
    """Cumulative work counters of the layers below the gateway."""
    nodes = system.simulator.nodes
    totals = manager_totals(system)
    return {
        "contract_calls": sum(node.runtime.statistics["calls"] for node in nodes),
        "contract_reverts": sum(node.runtime.statistics["reverts"] for node in nodes),
        "transactions": sum(len(block.transactions)
                            for block in nodes[0].chain.blocks),
        "blocks": nodes[0].chain.height,
        "messages": system.simulator.transport.statistics["sent"],
        "delta_puts": totals["delta_put_invocations"],
        "puts": totals["put_invocations"],
        "delta_fallbacks": totals["delta_fallbacks"],
    }


def state_digest(system: MedicalDataSharingSystem) -> str:
    """SHA-256 over every peer's table fingerprints."""
    payload = json.dumps(system.state_fingerprints(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def manager_totals(system: MedicalDataSharingSystem) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for name in system.peer_names:
        for key, value in system.server_app(name).manager.statistics.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def check(workload: Workload, rig: Rig, result: Replay) -> List[str]:
    """Correctness problems of a finished replay (empty when it passed)."""
    system = rig.system
    problems = []
    if not all(response.terminal for response in result.responses):
        problems.append("a request never reached a terminal status")
    if not system.all_shared_tables_consistent():
        problems.append("shared tables disagree between peers")
    if not system.views_consistent_with_sources():
        problems.append("a stored view differs from a fresh get of its source")
    spec = system.check_contract_specification()
    if not spec.passed:
        problems.append("contract specification: " + "; ".join(spec.violations))
    if workload.hospital_period and manager_totals(system)["delta_fallbacks"]:
        problems.append("a join cascade fell back to full recomputation")
    return problems


def close(rig: Rig) -> None:
    """Release the durable files of a finished rig."""
    rig.gateway.close()
    for name in rig.system.peer_names:
        rig.system.peer(name).database.wal.close()


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="mixed-history",
        why=("8 patients, half reads, one lane: contract history grows "
             "several-fold, so O(history) contract, signature and ledger "
             "cost shows"),
        tenants=8, rate=1.0, read_fraction=0.5,
        # Long traces: at 50 writes a trace, cost_growth read only ~1.2; at
        # 150 it reads ~1.6, so the cost of a growing contract history shows.
        writes=150, reads=150, traces=3),
    Workload(
        name="read-mostly-replicas",
        why=("97% view reads routed to 2 WAL-shipping replicas over durable "
             "peers (fsync batch), short history: gateway read path and "
             "replication first"),
        tenants=8, rate=20.0, read_fraction=0.97,
        # 15 short traces a run: the sim metrics pool distinct traces only,
        # and 6 of them spread sim_writes_per_s by 0.09 over ten seeds.
        writes=35, reads=1_100, replicas=2, traces=15),
    Workload(
        name="join-cascade",
        why=("hospital bursts fan out through keyed-join views to one leg per "
             "patient on 3 consensus shards: core cascades and bx join deltas "
             "do the work"),
        tenants=12, rate=0.5, read_fraction=0.7,
        writes=40, reads=70, traces=7, shards=3, hospital_period=4.0,
        medications=6, first_patient_id=1_008),
)}
