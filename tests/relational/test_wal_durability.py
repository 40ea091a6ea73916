"""Unit tests for the durable WAL: checkpoint sequences, JSONL segments,
torn-tail tolerance, fsync policies, checkpoint/recovery round trips."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError, WalCorruptionError, WalTruncatedError
from repro.relational import Column, DataType, Database, Schema
from repro.relational.durability import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    JsonlWalBackend,
    open_durable_database,
    read_manifest,
    recover,
)
from repro.relational.wal import WalEntry, WriteAheadLog


@pytest.fixture
def schema():
    return Schema(
        [Column("id", DataType.INTEGER, nullable=False),
         Column("value", DataType.STRING)],
        primary_key=("id",),
    )


def _entry(sequence, operation="insert", table="t", payload=None):
    return WalEntry(sequence, operation, table, payload or {"row": {"id": sequence}})


class TestCheckpointSequence:
    def test_truncate_records_checkpoint_sequence(self):
        wal = WriteAheadLog()
        for _ in range(3):
            wal.append("insert", "t", {"row": {}})
        assert wal.checkpoint_sequence == 0
        wal.truncate()
        assert wal.checkpoint_sequence == 3
        assert len(wal) == 0

    def test_entries_since_below_checkpoint_raises(self):
        wal = WriteAheadLog()
        for _ in range(3):
            wal.append("insert", "t", {"row": {}})
        wal.truncate()
        with pytest.raises(WalTruncatedError):
            wal.entries_since(0)
        with pytest.raises(WalTruncatedError):
            wal.entries_since(2)
        # At or above the checkpoint is fine.
        assert wal.entries_since(3) == ()

    def test_partial_truncate_keeps_tail(self):
        wal = WriteAheadLog()
        for _ in range(5):
            wal.append("insert", "t", {"row": {}})
        wal.truncate(3)
        assert [e.sequence for e in wal] == [4, 5]
        assert wal.checkpoint_sequence == 3

    def test_sequences_continue_after_truncate(self):
        wal = WriteAheadLog()
        for _ in range(3):
            wal.append("insert", "t", {"row": {}})
        wal.truncate()
        entry = wal.append("insert", "t", {"row": {}})
        assert entry.sequence == 4

    def test_checkpoint_cannot_move_backwards(self):
        wal = WriteAheadLog()
        for _ in range(5):
            wal.append("insert", "t", {"row": {}})
        wal.truncate(4)
        with pytest.raises(WalTruncatedError):
            wal.truncate(2)

    def test_suspended_drops_appends(self):
        wal = WriteAheadLog()
        wal.append("insert", "t", {"row": {}})
        with wal.suspended():
            wal.append("insert", "t", {"row": {}})
        assert len(wal) == 1
        assert wal.append("insert", "t", {"row": {}}).sequence == 2

    def test_restore_sets_counter_past_entries(self):
        wal = WriteAheadLog()
        wal.restore([_entry(7), _entry(9)], checkpoint_sequence=5)
        assert wal.checkpoint_sequence == 5
        assert [e.sequence for e in wal] == [7, 9]
        assert wal.append("insert", "t", {}).sequence == 10


class TestJsonlBackend:
    def test_append_read_round_trip(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        for i in range(1, 6):
            backend.append(_entry(i))
        entries, torn = backend.read_entries()
        assert torn == 0
        assert [e.sequence for e in entries] == [1, 2, 3, 4, 5]
        assert entries[0].payload == {"row": {"id": 1}}

    def test_lines_are_plain_json_objects(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        backend.append(_entry(1, table='odd "name"', payload={"k": [1, 2]}))
        backend.append(WalEntry(2, "update", "t", {"key": [1]}, transaction_id=9))
        backend.sync()
        lines = backend.segment_paths()[0].read_text().splitlines()
        first = json.loads(lines[0])
        assert first["table"] == 'odd "name"'
        assert first["payload"] == {"k": [1, 2]}
        assert json.loads(lines[1])["transaction_id"] == 9

    def test_read_since_filters(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        for i in range(1, 6):
            backend.append(_entry(i))
        entries, _ = backend.read_entries(since=3)
        assert [e.sequence for e in entries] == [4, 5]

    def test_segment_rotation(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=200)
        for i in range(1, 21):
            backend.append(_entry(i))
        assert len(backend.segment_paths()) > 1
        entries, _ = backend.read_entries()
        assert [e.sequence for e in entries] == list(range(1, 21))

    def test_rotated_segments_survive_reopen(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=200)
        for i in range(1, 21):
            backend.append(_entry(i))
        assert backend.rotations > 0
        backend.close()
        reopened = JsonlWalBackend(tmp_path)
        entries, torn = reopened.read_entries()
        assert torn == 0
        assert [e.sequence for e in entries] == list(range(1, 21))

    def test_read_since_across_rotated_segments(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=200)
        for i in range(1, 21):
            backend.append(_entry(i))
        assert len(backend.segment_paths()) > 1
        entries, _ = backend.read_entries(since=15)
        assert [e.sequence for e in entries] == [16, 17, 18, 19, 20]

    def test_directory_with_binary_segments_is_refused(self, tmp_path):
        """Binary ``.walb`` segments from an older release must never read
        as an empty JSONL log."""
        (tmp_path / "wal-0000000000000001.walb").write_bytes(b"\x00\x00\x00\x02{}")
        with pytest.raises(WalCorruptionError, match="binary segments"):
            JsonlWalBackend(tmp_path)

    def test_reopen_continues_appending(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        backend.append(_entry(1))
        backend.close()
        reopened = JsonlWalBackend(tmp_path)
        reopened.append(_entry(2))
        entries, _ = reopened.read_entries()
        assert [e.sequence for e in entries] == [1, 2]

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        for i in range(1, 4):
            backend.append(_entry(i))
        backend.close()
        segment = backend.segment_paths()[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"sequence": 4, "operation": "ins')  # torn write
        reopened = JsonlWalBackend(tmp_path)
        assert reopened.torn_lines_repaired == 1
        entries, torn = reopened.read_entries()
        assert torn == 0  # amputated at open, nothing left to tolerate
        assert [e.sequence for e in entries] == [1, 2, 3]

    def test_segment_holding_only_a_torn_line_is_emptied(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=1)
        backend.append(_entry(1))
        backend.append(_entry(2))  # rotates: entry 2 opens its own segment
        backend.close()
        segment = backend.segment_paths()[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(10)  # the segment's only line, torn mid-write
        reopened = JsonlWalBackend(tmp_path)
        assert reopened.torn_lines_repaired == 1
        assert segment.stat().st_size == 0
        reopened.append(_entry(2))
        entries, torn = reopened.read_entries()
        assert torn == 0
        assert [e.sequence for e in entries] == [1, 2]

    def test_append_after_torn_tail_survives_reopen(self, tmp_path):
        """A restarted writer must not concatenate onto a torn partial line:
        entries appended after the crash are durable across a further
        restart, not swallowed by (or corrupted into) the torn tail."""
        backend = JsonlWalBackend(tmp_path, fsync_policy=FSYNC_ALWAYS)
        for i in range(1, 4):
            backend.append(_entry(i))
        backend.close()
        segment = backend.segment_paths()[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size - 10)  # tear the last line
        survivor = JsonlWalBackend(tmp_path, fsync_policy=FSYNC_ALWAYS)
        survivor.append(_entry(3))  # sequence 3 again: entry 3 was torn away
        survivor.append(_entry(4))
        survivor.close()
        entries, torn = JsonlWalBackend(tmp_path).read_entries()
        assert torn == 0
        assert [e.sequence for e in entries] == [1, 2, 3, 4]

    def test_mid_file_corruption_raises(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        for i in range(1, 4):
            backend.append(_entry(i))
        backend.close()
        segment = backend.segment_paths()[-1]
        lines = segment.read_bytes().split(b"\n")
        lines[1] = b"garbage"
        segment.write_bytes(b"\n".join(lines))
        with pytest.raises(WalCorruptionError):
            JsonlWalBackend(tmp_path).read_entries()

    def test_out_of_order_entries_raise(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        backend.append(_entry(5))
        backend.append(_entry(6))
        backend.close()
        segment = backend.segment_paths()[-1]
        with open(segment, "ab") as handle:
            handle.write(json.dumps(_entry(2).to_dict()).encode() + b"\n"
                         + json.dumps(_entry(3).to_dict()).encode() + b"\n")
        with pytest.raises(WalCorruptionError):
            JsonlWalBackend(tmp_path).read_entries()

    def test_truncate_drops_covered_segments(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=120)
        for i in range(1, 11):
            backend.append(_entry(i))
        segments_before = len(backend.segment_paths())
        assert segments_before > 2
        backend.truncate(10)
        assert backend.segment_paths() == []
        # Appends keep working after a full truncation.
        backend.append(_entry(11))
        entries, _ = backend.read_entries()
        assert [e.sequence for e in entries] == [11]

    def test_truncate_keeps_straddling_segment(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=120)
        for i in range(1, 11):
            backend.append(_entry(i))
        backend.truncate(3)
        entries, _ = backend.read_entries(since=3)
        assert entries[0].sequence >= 4
        assert [e.sequence for e in entries][-1] == 10

    def test_truncated_log_covers_its_checkpoint(self, tmp_path):
        backend = JsonlWalBackend(tmp_path, segment_max_bytes=200)
        for i in range(1, 21):
            backend.append(_entry(i))
        assert backend.truncate(10) >= 1
        entries, _ = backend.read_entries(since=10)
        assert [e.sequence for e in entries] == list(range(11, 21))
        assert backend.covers(10)

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlWalBackend(tmp_path, fsync_policy="sometimes")

    def test_fsync_policy_sync_counts(self, tmp_path):
        always = JsonlWalBackend(tmp_path / "a", fsync_policy=FSYNC_ALWAYS)
        for i in range(1, 4):
            always.append(_entry(i))
        assert always.statistics()["syncs"] == 3

        batch = JsonlWalBackend(tmp_path / "b", fsync_policy=FSYNC_BATCH)
        for i in range(1, 4):
            batch.append(_entry(i))
        assert batch.statistics()["syncs"] == 0
        batch.sync()
        assert batch.statistics()["syncs"] == 1

        never = JsonlWalBackend(tmp_path / "n", fsync_policy=FSYNC_NEVER)
        never.append(_entry(1))
        never.sync()
        assert never.statistics()["syncs"] == 0
        # sync still flushes so readers observe the entry.
        entries, _ = never.read_entries()
        assert len(entries) == 1

    def test_wal_bytes_reported(self, tmp_path):
        backend = JsonlWalBackend(tmp_path)
        backend.append(_entry(1))
        backend.sync()
        assert backend.wal_bytes() > 0
        assert backend.statistics()["segments"] == 1


class TestDurableDatabase:
    def test_database_appends_reach_disk(self, tmp_path, schema):
        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.insert("t", {"id": 2, "value": "b"})
        database.wal.sync()
        entries, _ = database.wal.backend.read_entries()
        assert [e.operation for e in entries] == ["create_table", "insert"]

    def test_open_existing_recovers(self, tmp_path, schema):
        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.wal.close()
        reopened = open_durable_database("peer", tmp_path)
        assert reopened.table("t").get(1)["value"] == "a"
        # And keeps journaling where the first process stopped.
        reopened.insert("t", {"id": 2, "value": "b"})
        reopened.wal.close()
        third = open_durable_database("peer", tmp_path)
        assert len(third.table("t")) == 2

    def test_open_existing_name_mismatch(self, tmp_path):
        open_durable_database("peer", tmp_path)
        with pytest.raises(RecoveryError):
            open_durable_database("other", tmp_path)

    def test_recover_missing_directory(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "nope")

    def test_recover_requires_manifest(self, tmp_path):
        (tmp_path / "stray").mkdir()
        with pytest.raises(RecoveryError):
            recover(tmp_path / "stray")

    def test_checkpoint_writes_manifest_and_truncates(self, tmp_path, schema):
        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.insert("t", {"id": 2, "value": "b"})
        result = database.checkpoint(tmp_path)
        assert result.checkpoint_sequence == 2
        manifest = read_manifest(tmp_path)
        assert manifest["checkpoint_sequence"] == 2
        assert manifest["checkpoints"] == 1
        assert database.wal.checkpoint_sequence == 2
        # A second checkpoint bumps the count and supersedes the snapshot.
        database.insert("t", {"id": 3, "value": "c"})
        second = database.checkpoint(tmp_path)
        assert second.checkpoint_count == 2
        assert len(list(tmp_path.glob("snapshot-*.json"))) == 1

    def test_checkpoint_then_recover_replays_only_tail(self, tmp_path, schema):
        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.checkpoint(tmp_path)
        database.insert("t", {"id": 2, "value": "b"})
        database.update_by_key("t", (1,), {"value": "z"})
        database.wal.sync()
        result = recover(tmp_path)
        assert result.snapshot_loaded
        assert result.entries_replayed == 2
        assert result.database.table("t").fingerprint() == database.table("t").fingerprint()

    def test_recovery_restores_views_and_indexes(self, tmp_path, schema):
        from repro.relational.predicates import Gt
        from repro.relational.query import Scan, Select

        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.create_index("t", ["value"])
        database.register_view("big", Select(Scan("t"), Gt("id", 0)))
        database.checkpoint(tmp_path)
        # Post-checkpoint registrations replay from the WAL tail.
        database.create_index("t", ["id", "value"])
        database.register_view("all", Select(Scan("t"), Gt("id", -1)))
        database.wal.sync()
        recovered = recover(tmp_path).database
        assert set(recovered.table("t").indexed_columns) == {("value",), ("id", "value")}
        assert set(recovered.view_names) == {"big", "all"}

    def test_writes_after_torn_crash_recovery_are_not_lost(self, tmp_path, schema):
        """Recover from a torn WAL, write more, recover again: the
        post-recovery writes survive (regression: appending onto the torn
        line used to swallow them)."""
        database = open_durable_database("peer", tmp_path,
                                         fsync_policy=FSYNC_ALWAYS)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.insert("t", {"id": 2, "value": "b"})
        database.wal.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.jsonl"))[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size - 7)  # tear the insert
        recovered = recover(tmp_path, fsync_policy=FSYNC_ALWAYS)
        assert len(recovered.database.table("t")) == 1
        recovered.database.insert("t", {"id": 3, "value": "c"})
        recovered.database.wal.close()
        second = recover(tmp_path)
        assert sorted(row["id"] for row in second.database.table("t")) == [1, 3]

    def test_rollback_survives_replay(self, tmp_path, schema):
        database = open_durable_database("peer", tmp_path)
        database.create_table("t", schema, [{"id": 1, "value": "a"}])
        database.transactions.begin()
        database.insert("t", {"id": 2, "value": "doomed"})
        database.update_by_key("t", (1,), {"value": "doomed-too"})
        database.transactions.rollback()
        database.wal.sync()
        recovered = recover(tmp_path).database
        assert recovered.table("t").fingerprint() == database.table("t").fingerprint()
        assert len(recovered.table("t")) == 1
        assert recovered.table("t").get(1)["value"] == "a"
