"""Tests for the process-wide cache of successful signature checks."""

import sys
import threading

import pytest

from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig
from repro.contracts.sharing_contract import SharedDataContract
from repro.crypto.keys import generate_keypair
from repro.ledger import transaction as transaction_module
from repro.ledger.transaction import Transaction
from repro.network.simulator import NetworkSimulator

ALICE = generate_keypair(seed=301)
MALLORY = generate_keypair(seed=302)


@pytest.fixture
def verify_calls(monkeypatch):
    """Start from an empty cache and count the real Schnorr checks."""
    monkeypatch.setattr(transaction_module, "_verified", {})
    calls = []
    real_verify = transaction_module.verify

    def counting_verify(public_key, payload, signature):
        calls.append(public_key)
        return real_verify(public_key, payload, signature)

    monkeypatch.setattr(transaction_module, "verify", counting_verify)
    return calls


def _signed(nonce=0, args=None, keypair=ALICE):
    return Transaction(sender=keypair.address, kind="call", nonce=nonce,
                       contract="0xc" + "0" * 39, method="request_update",
                       args=args or {"metadata_id": "T1"}, timestamp=1.0,
                       ).signed_by(keypair)


def _with(tx, **changes):
    """A copy of a signed ``tx`` with fields replaced, signature kept."""
    body = tx.to_dict()
    body.update(changes)
    return Transaction.from_dict(body)


class TestVerifiedSignatureCache:
    def test_second_check_is_served_from_the_cache(self, verify_calls):
        tx = _signed()
        assert tx.verify_signature()
        assert tx.verify_signature()
        assert Transaction.from_dict(tx.to_dict()).verify_signature()
        assert len(verify_calls) == 1

    def test_tampered_transaction_rejected_with_cache_warm(self, verify_calls):
        tx = _signed()
        assert tx.verify_signature()
        tampered = _with(tx, args={"metadata_id": "T2"})
        assert tampered.signature == tx.signature
        assert not tampered.verify_signature()
        assert not _with(tx, nonce=1).verify_signature()

    def test_same_transaction_with_another_key_rejected(self, verify_calls):
        tx = _signed()
        assert tx.verify_signature()
        assert not _with(tx, sender_public_key=hex(MALLORY.public_key)).verify_signature()

    def test_cache_key_includes_the_public_key(self, verify_calls, monkeypatch):
        # The hash does not cover the key, so a warm entry for one key must
        # not vouch for the same hash under another (address check bypassed
        # here to reach the cache).
        tx = _signed()
        monkeypatch.setattr("repro.crypto.keys.address_from_public_key",
                            lambda key: tx.sender)
        assert tx.verify_signature()
        forged = _with(tx, sender_public_key=hex(MALLORY.public_key))
        assert forged.tx_hash == tx.tx_hash
        assert not forged.verify_signature()
        assert len(verify_calls) == 2

    def test_failures_are_not_cached(self, verify_calls):
        tampered = _with(_signed(), timestamp=2.0)
        assert not tampered.verify_signature()
        assert not tampered.verify_signature()
        assert len(verify_calls) == 2
        assert transaction_module._verified == {}

    def test_cache_is_bounded_oldest_first(self, verify_calls, monkeypatch):
        monkeypatch.setattr(transaction_module, "VERIFIED_CACHE_SIZE", 2)
        first, second, third = (_signed(nonce=n) for n in range(3))
        for tx in (first, second, third):
            assert tx.verify_signature()
        assert list(transaction_module._verified) == [
            (second.tx_hash, ALICE.public_key), (third.tx_hash, ALICE.public_key)]
        assert first.verify_signature()
        assert len(verify_calls) == 4

    def test_three_nodes_ingesting_one_transaction_verify_it_once(self, verify_calls):
        simulator = NetworkSimulator(
            ledger_config=LedgerConfig(
                consensus=ConsensusConfig(kind="poa", block_interval=1.0)),
            network_config=NetworkConfig(base_latency=0.01, latency_jitter=0.0),
            contract_classes=(SharedDataContract,),
        )
        for index in range(3):
            simulator.add_node(f"node-{index}", is_miner=(index == 0))
        deploy = Transaction(sender=ALICE.address, kind="deploy", nonce=0,
                             method="SharedDataContract", timestamp=0.0).signed_by(ALICE)
        blocks = simulator.submit_and_mine("node-1", deploy)
        assert blocks and all(node.chain.height == 1 for node in simulator.nodes)
        assert verify_calls == [ALICE.public_key]

    def test_concurrent_checks_keep_the_cache_bounded_and_correct(self, verify_calls,
                                                                 monkeypatch):
        monkeypatch.setattr(transaction_module, "VERIFIED_CACHE_SIZE", 3)
        good = [_signed(nonce=n) for n in range(6)]
        bad = [_with(tx, nonce=tx.nonce + 100) for tx in good]
        errors = []

        def check():
            try:
                for _ in range(5):
                    for tx, forged in zip(good, bad):
                        if not tx.verify_signature() or forged.verify_signature():
                            errors.append("wrong verdict")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=check) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(transaction_module._verified) <= 3
