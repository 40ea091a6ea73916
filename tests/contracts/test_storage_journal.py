"""Tests for journaled contract storage and journal-based call rollback.

The differential tests drive the same random call sequence through two
contracts: one executed by :class:`ContractRuntime` (undo journal) and one
rolled back by the deep-copy oracle (``storage_snapshot`` before the call,
``restore_storage`` on failure).  After every call both must hold the same
storage, and a failed call must leave the journaled contract exactly as it
was before the call.
"""

import copy
import random
import threading

import pytest

from repro.contracts.base import CallContext
from repro.contracts.runtime import ContractRuntime
from repro.contracts.sharing_contract import SharedDataContract, UpdateRecord
from repro.contracts.storage import (
    JournaledDict,
    JournaledList,
    UndoJournal,
    storable,
)
from repro.crypto.hashing import canonical_json, hash_payload
from repro.errors import ContractError, ContractRevert
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction

PEERS = ["0xd0c" + "0" * 37, "0xpa7" + "0" * 37, "0x5e5" + "0" * 37, "0xbad" + "0" * 37]
ROLES = ["Doctor", "Patient", "Researcher"]
TABLES = ["T1", "T2", "T3"]
ATTRIBUTES = ["dosage", "name", "notes", "unknown"]


class TestJournaledContainers:
    def test_append_is_undone_by_truncating(self):
        items = JournaledList([1, 2])
        with pytest.raises(RuntimeError):
            with UndoJournal() as journal:
                items.append(3)
                items.extend([4, 5])
                items += [6]
                assert len(journal) == 3
                raise RuntimeError
        assert items == [1, 2]

    def test_every_list_write_is_undone(self):
        items = JournaledList([3, 1, 2])
        with UndoJournal(always_revert=True):
            items[0] = 9
            items[1:2] = [7, 7]
            items.insert(0, 5)
            items.remove(7)
            del items[0]
            items.pop()
            items.sort()
            items.reverse()
            items *= 2
            items.clear()
        assert items == [3, 1, 2]

    def test_every_dict_write_is_undone_with_key_order(self):
        mapping = JournaledDict(a=1, b=2, c=3)
        with UndoJournal(always_revert=True):
            mapping["a"] = 10
            mapping["z"] = 26
            del mapping["b"]
            mapping.pop("c")
            mapping.update(d=4)
            mapping |= {"e": 5}
            mapping.setdefault("f", 6)
            mapping.popitem()
            mapping.clear()
        assert list(mapping.items()) == [("a", 1), ("b", 2), ("c", 3)]

    def test_record_fields_are_undone(self):
        record = UpdateRecord(update_id=1, metadata_id="T1", operation="update",
                              requester="a", requester_role="Doctor",
                              changed_attributes=("dosage",), diff_hash="",
                              block_number=1, timestamp=1.0)
        with UndoJournal(always_revert=True):
            record.acknowledged_by.append("b")
            record.acknowledged_by = ["c"]
            record.extra = 1
            del record.diff_hash
        assert record.acknowledged_by == [] and record.diff_hash == ""
        assert not hasattr(record, "extra")

    def test_stored_values_are_converted_recursively(self):
        value = storable({"a": [1, {"b": [2]}], "t": ({"c": 3},)})
        assert type(value) is JournaledDict
        assert type(value["a"]) is JournaledList
        assert type(value["a"][1]["b"]) is JournaledList
        assert type(value["t"]) is tuple and type(value["t"][0]) is JournaledDict
        items = JournaledList()
        items.append([1])
        assert type(items[0]) is JournaledList

    def test_immutable_values_are_stored_as_they_are(self):
        value = ("a", 1, 2.0, None, b"x", frozenset({"b"}))
        assert storable(value) is value

    @pytest.mark.parametrize("bad", [{1, 2}, bytearray(b"x"), object(), [set()]])
    def test_unjournaled_mutable_values_are_refused(self, bad):
        with pytest.raises(TypeError):
            storable(bad)
        with pytest.raises(TypeError):
            JournaledDict()["k"] = bad

    def test_writes_outside_a_journal_are_not_recorded(self):
        items = JournaledList()
        items.append(1)
        with UndoJournal(always_revert=True):
            pass
        assert items == [1]

    def test_committed_inner_journal_is_undone_by_the_outer_one(self):
        items = JournaledList()
        with UndoJournal(always_revert=True):
            with UndoJournal():
                items.append(1)
            assert items == [1]
        assert items == []

    def test_copies_keep_the_journaled_types_and_record_nothing(self):
        original = storable({"a": [1, [2]]})
        with UndoJournal() as journal:
            duplicate = copy.deepcopy(original)
        assert len(journal) == 0
        assert duplicate == original and duplicate["a"] is not original["a"]
        assert type(duplicate["a"][1]) is JournaledList


# --------------------------------------------------------------- contracts


#: The exception type the next calls on this thread fail with, if any.
_injected = threading.local()


class FaultInjectingContract(SharedDataContract):
    """Fails at its first ``emit`` when told to: every mutating method emits
    after it has written storage, so the failure lands after in-place
    mutations."""

    def emit(self, name, **data):
        fault = getattr(_injected, "fault", None)
        if fault is not None:
            raise fault("injected failure after mutating storage")
        super().emit(name, **data)


def _random_call(rng, contract):
    """A random SharedDataContract call: (caller, method, kwargs).

    Mostly plausible calls, steered by the current storage (read, never
    written), so that a good share succeeds; the rest revert on their own.
    """
    table = rng.choice(TABLES)
    entry = contract.entries.get(table)
    if entry is None or rng.random() < 0.1:
        caller = rng.choice(PEERS)
        peers = rng.sample(PEERS[:3], rng.randint(1, 3))
        if rng.random() < 0.8 and caller not in peers:
            peers.append(caller)
        sharing = {peer: rng.choice(ROLES) for peer in peers}
        roles = sorted(set(sharing.values()))
        return caller, "register_shared_table", {
            "metadata_id": table, "sharing_peers": sharing,
            "write_permission": {attr: rng.sample(roles, rng.randint(1, len(roles)))
                                 for attr in ATTRIBUTES[:3]},
            "authority_role": rng.choice(roles),
            "view_spec": {"columns": list(ATTRIBUTES[:3]), "meta": {"k": [1, 2]}},
        }
    plausible = rng.random() < 0.85
    if entry.pending_acks and rng.random() < 0.7:
        caller = rng.choice(list(entry.pending_acks)) if plausible else rng.choice(PEERS)
        latest = [r.update_id for r in contract.history if r.metadata_id == table]
        update_id = latest[-1] if plausible else rng.randint(-1, len(contract.history) + 2)
        return caller, "acknowledge_update", {"metadata_id": table, "update_id": update_id}
    caller = rng.choice(list(entry.sharing_peers)) if plausible else rng.choice(PEERS)
    role = entry.sharing_peers.get(caller)
    writable = [a for a in entry.write_permission if role in entry.write_permission[a]]
    attributes = (rng.sample(writable, rng.randint(1, len(writable)))
                  if writable and plausible else rng.sample(ATTRIBUTES, rng.randint(0, 2)))
    method = rng.choice(["request_update", "request_update", "request_create",
                         "request_delete", "change_permission", "transfer_authority",
                         "request_folded_update"])
    if method == "change_permission":
        if plausible:
            caller = next((peer for peer, peer_role in entry.sharing_peers.items()
                           if peer_role == entry.authority_role), caller)
        roles = sorted(set(entry.sharing_peers.values()))
        return caller, method, {"metadata_id": table, "attribute": rng.choice(ATTRIBUTES),
                                "new_writers": rng.sample(roles, rng.randint(1, len(roles)))}
    if method == "transfer_authority":
        return caller, method, {"metadata_id": table, "new_authority_role": rng.choice(ROLES)}
    if method == "request_folded_update":
        return caller, method, {"metadata_id": table, "diff_hash": "h",
                                "contributions": [{"peer": caller,
                                                   "changed_attributes": attributes}]}
    return caller, method, {"metadata_id": table, "changed_attributes": attributes,
                            "diff_hash": f"h{rng.randint(0, 9)}"}


def _oracle_call(contract, caller, method, kwargs, read_only=False):
    """Run a call rolled back by deep copy; returns (succeeded, result)."""
    snapshot = contract.storage_snapshot()
    # The runtime's contexts: static calls run at block -1, time 0.
    contract._begin_call(CallContext(caller=caller, block_number=-1 if read_only else 3,
                                     timestamp=0.0 if read_only else 3.0,
                                     contract_address="0xc"))
    try:
        result = getattr(contract, method)(**copy.deepcopy(kwargs))
    except Exception:
        contract.restore_storage(snapshot)
        return False, None
    finally:
        contract._end_call()
    if read_only:
        contract.restore_storage(snapshot)
    return True, result


def _storage_json(contract):
    return canonical_json(contract.storage_view())


def run_differential(seed, calls=150):
    """Drive one seeded call sequence through both rollback mechanisms."""
    rng = random.Random(seed)
    runtime = ContractRuntime()
    runtime.register_contract_class(FaultInjectingContract)
    state = WorldState()
    deployer = PEERS[0]
    receipt = runtime.execute(Transaction(sender=deployer, kind="deploy", nonce=0,
                                          method="FaultInjectingContract"),
                              state, block_number=1, timestamp=1.0)
    journaled = state.contract_at(receipt.contract_address)
    oracle = FaultInjectingContract()
    outcomes = {"ok": 0, "reverted": 0, "injected": 0, "static": 0}
    try:
        for index in range(calls):
            caller, method, kwargs = _random_call(rng, oracle)
            before = _storage_json(journaled)
            fault = rng.choice([None, None, None, None, ContractRevert, RuntimeError])
            _injected.fault = fault
            if rng.random() < 0.15:
                # A mutating method run read-only must change nothing.
                try:
                    static = runtime.static_call(state, receipt.contract_address, method,
                                                 caller=caller, **copy.deepcopy(kwargs))
                    static_ok = True
                except (ContractRevert, RuntimeError):
                    static, static_ok = None, False
                expected_ok, expected = _oracle_call(oracle, caller, method, kwargs,
                                                     read_only=True)
                assert (static_ok, static) == (expected_ok, expected), (seed, index)
                assert _storage_json(journaled) == before, (seed, index)
                outcomes["static"] += 1
                continue
            tx = Transaction(sender=caller, kind="call", nonce=index + 1,
                             contract=receipt.contract_address, method=method, args=kwargs)
            try:
                result = runtime.execute(tx, state, block_number=3, timestamp=3.0)
                succeeded, value = result.success, result.return_value
            except ContractError:
                succeeded, value = False, None
            expected_ok, expected = _oracle_call(oracle, caller, method, kwargs)
            assert (succeeded, value) == (expected_ok, expected), (seed, index, method)
            if not succeeded:
                assert _storage_json(journaled) == before, (seed, index, method)
                outcomes["injected" if fault is not None else "reverted"] += 1
            else:
                outcomes["ok"] += 1
            assert _storage_json(journaled) == _storage_json(oracle), (seed, index, method)
    finally:
        _injected.fault = None
    return outcomes


class TestJournalMatchesDeepCopyOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_call_sequences(self, seed):
        outcomes = run_differential(seed)
        # The sequence must exercise every path, or it proves nothing.
        assert all(count > 0 for count in outcomes.values()), outcomes

    def test_state_root_hashes_live_storage_like_a_deep_copy(self):
        run_differential(5, calls=60)
        runtime = ContractRuntime()
        runtime.register_contract_class(SharedDataContract)
        state = WorldState()
        receipt = runtime.execute(Transaction(sender=PEERS[0], kind="deploy", nonce=0,
                                              method="SharedDataContract"),
                                  state, block_number=1, timestamp=1.0)
        runtime.execute(Transaction(sender=PEERS[0], kind="call", nonce=1,
                                    contract=receipt.contract_address,
                                    method="register_shared_table",
                                    args={"metadata_id": "T1",
                                          "sharing_peers": {PEERS[0]: "Doctor",
                                                            PEERS[1]: "Patient"},
                                          "write_permission": {"dosage": ["Doctor"]},
                                          "authority_role": "Doctor"}),
                        state, block_number=2, timestamp=2.0)
        contract = state.contract_at(receipt.contract_address)
        expected = hash_payload({
            "accounts": {a: state.get_account(a).to_dict() for a in state.addresses},
            "contracts": {receipt.contract_address: contract.storage_snapshot()},
        })
        assert state.state_root() == expected

    def test_storing_an_unjournaled_type_reverts_the_call(self):
        class SetStoring(SharedDataContract):
            def keep(self, value):
                self.history.append(UpdateRecord(
                    update_id=1, metadata_id="T", operation="update", requester="a",
                    requester_role="r", changed_attributes=(), diff_hash="",
                    block_number=1, timestamp=1.0))
                self.tags = set(value)

        runtime = ContractRuntime()
        runtime.register_contract_class(SetStoring)
        state = WorldState()
        receipt = runtime.execute(Transaction(sender=PEERS[0], kind="deploy", nonce=0,
                                              method="SetStoring"),
                                  state, block_number=1, timestamp=1.0)
        contract = state.contract_at(receipt.contract_address)
        with pytest.raises(ContractError, match="cannot hold a set"):
            runtime.execute(Transaction(sender=PEERS[0], kind="call", nonce=1,
                                        contract=receipt.contract_address, method="keep",
                                        args={"value": ["a"]}),
                            state, block_number=2, timestamp=2.0)
        assert contract.history == [] and not hasattr(contract, "tags")


def test_journals_are_per_thread():
    """A call committing on one thread while another thread's call is still
    open must not hand its writes to that call's journal."""
    committed, rolled_back = JournaledList(), JournaledList()
    b_inside, a_done = threading.Event(), threading.Event()

    def open_call_that_reverts():
        with UndoJournal(always_revert=True):
            rolled_back.append("b")
            b_inside.set()
            assert a_done.wait(timeout=10)

    def call_that_commits():
        assert b_inside.wait(timeout=10)
        with UndoJournal():
            committed.append("a")
        a_done.set()

    threads = [threading.Thread(target=open_call_that_reverts),
               threading.Thread(target=call_that_commits)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert committed == ["a"] and rolled_back == []
