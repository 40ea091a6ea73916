"""Fleet placements: parity, partitioning, and crash recovery via the WAL.

The multiprocess tests fork real worker processes and carry the
``multiprocess`` marker so CI can run them in a dedicated job under a hard
timeout; everything else runs on in-process loopback threads.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.crypto.hashing import canonical_json
from repro.errors import FleetError, WorkerCrashError
from repro.gateway.gateway import ResponseJournal
from repro.runtime import GatewayFleet, WorkerSpec, partition_tenants
from repro.runtime.fleet import CRASH_EXIT_CODE

#: Small but non-trivial workload: a few batches per worker, two lanes of
#: tenants, deterministic seeds.
SPEC_KWARGS = dict(duration=6.0, rate=1.0, read_fraction=0.5, interval=1.0,
                   batch_size=4)


def _fingerprints(result):
    return {name: worker["fingerprints"]
            for name, worker in sorted(result.workers.items())}


class TestPartitioning:
    def test_round_robin_split(self):
        specs = partition_tenants(10, 4, base_seed=100, duration=3.0)
        assert [spec.tenants for spec in specs] == [3, 3, 2, 2]
        assert [spec.seed for spec in specs] == [100, 101, 102, 103]
        assert [spec.name for spec in specs] == [f"worker-{i}" for i in range(4)]
        assert all(spec.duration == 3.0 for spec in specs)

    def test_too_few_tenants(self):
        with pytest.raises(FleetError, match="cannot split"):
            partition_tenants(2, 3)

    def test_zero_workers(self):
        with pytest.raises(FleetError, match="at least one worker"):
            partition_tenants(4, 0)


class TestFleetValidation:
    def test_unknown_mode(self):
        with pytest.raises(FleetError, match="unknown fleet mode"):
            GatewayFleet([WorkerSpec("w", tenants=1)], mode="rdma")

    def test_duplicate_names(self):
        with pytest.raises(FleetError, match="duplicate worker names"):
            GatewayFleet([WorkerSpec("w", tenants=1), WorkerSpec("w", tenants=1)])

    def test_empty_fleet(self):
        with pytest.raises(FleetError, match="at least one worker spec"):
            GatewayFleet([]).run()

    def test_unknown_crash_policy(self):
        with pytest.raises(FleetError, match="on_crash"):
            GatewayFleet([WorkerSpec("w", tenants=1)], on_crash="shrug")

    def test_loopback_rejects_crash_specs(self):
        """A crash spec on a loopback thread would os._exit the coordinator
        itself (and leak the ResponseJournal.sync patch into every
        in-process worker), so the fleet must refuse it up front."""
        spec = WorkerSpec("w", tenants=1, crash_after_syncs=1)
        with pytest.raises(FleetError, match="crash_after_syncs"):
            GatewayFleet([spec], mode="loopback")


class TestLoopbackParity:
    def test_one_worker_loopback_matches_direct_run(self):
        """The runtime boundary is a placement change, not a semantic one:
        one loopback worker == calling the engine directly."""
        from repro.cli import run_gateway_loadtest

        spec = WorkerSpec("worker-0", tenants=2, seed=23, **SPEC_KWARGS)
        fleet = GatewayFleet([spec], mode="loopback").run()
        direct = run_gateway_loadtest(tenants=2, seed=23,
                                      include_fingerprints=True, **SPEC_KWARGS)
        direct = json.loads(canonical_json(direct))
        worker = fleet.workers["worker-0"]
        assert worker["fingerprints"] == direct["fingerprints"]
        assert (worker["metrics"]["batches"]["writes_committed"]
                == direct["metrics"]["batches"]["writes_committed"])
        assert fleet.clock["merged_now"] == direct["simulated_seconds"]


@pytest.mark.multiprocess
class TestMultiprocessPlacement:
    def test_matches_loopback_byte_for_byte(self):
        """Same specs, other placement: per-worker fingerprints, commit
        counts and clock reports all identical."""
        specs = partition_tenants(4, 2, **SPEC_KWARGS)
        loop = GatewayFleet(specs, mode="loopback").run()
        forked = GatewayFleet(specs, mode="multiprocess").run()
        assert _fingerprints(forked) == _fingerprints(loop)
        assert forked.committed_writes == loop.committed_writes
        assert forked.clock["reports"] == loop.clock["reports"]
        assert forked.clock["merged_now"] == loop.clock["merged_now"]

    def test_crash_mid_commit_recovers_via_wal(self, tmp_path):
        """A worker killed inside a journal sync (mid-commit, after WAL
        appends) must surface as a crash with its exit code — and its
        journal must reopen cleanly from disk with every synced response
        readable, which is exactly the recovery story the WAL promises."""
        specs = [
            dataclasses.replace(spec,
                                state_dir=str(tmp_path / spec.name),
                                read_fraction=0.0,
                                crash_after_syncs=(2 if index == 0 else None))
            for index, spec in enumerate(
                partition_tenants(4, 2, **SPEC_KWARGS))
        ]
        fleet = GatewayFleet(specs, mode="multiprocess", on_crash="collect",
                             timeout=120.0)
        result = fleet.run()

        assert [crash["worker"] for crash in result.crashes] == ["worker-0"]
        assert result.crashes[0]["exitcode"] == CRASH_EXIT_CODE
        # The survivor finished normally and its result was kept.
        assert set(result.workers) == {"worker-1"}
        assert result.workers["worker-1"]["metrics"]["batches"]["committed"] > 0

        # Recovery: reopen the crashed worker's journal from its WAL.  The
        # first sync completed before the injected crash, so at least one
        # batch of terminal responses must come back, in order, with any
        # torn tail from the crash amputated rather than poisoning the log.
        journal = ResponseJournal(tmp_path / "worker-0" / "responses")
        entries, _last = journal.backend.read_entries()
        assert entries, "no journaled responses survived the crash"
        sequences = [entry.sequence for entry in entries]
        assert sequences == sorted(sequences)
        assert all(entry.operation == "response" for entry in entries)
        journal.close()

    def test_crash_raises_by_default(self, tmp_path):
        specs = [dataclasses.replace(
            WorkerSpec("worker-0", tenants=2, seed=23, **SPEC_KWARGS),
            state_dir=str(tmp_path / "worker-0"), read_fraction=0.0,
            crash_after_syncs=1)]
        fleet = GatewayFleet(specs, mode="multiprocess", timeout=120.0)
        with pytest.raises(WorkerCrashError) as excinfo:
            fleet.run()
        assert excinfo.value.worker == "worker-0"
        assert excinfo.value.exitcode == CRASH_EXIT_CODE
