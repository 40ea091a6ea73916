"""Transactions and receipts.

A transaction is a signed request from an account: either a plain value/data
transfer, a contract deployment, or a contract call.  Contract calls carry a
method name and keyword arguments; the contract runtime executes them when a
block is applied.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import Signature, sign, verify
from repro.errors import InvalidTransactionError


class FrozenDict(dict):
    """A dict whose mutating methods raise.

    Used to deep-freeze a signed transaction's ``args``/``payload``: unlike
    ``MappingProxyType`` it survives ``copy.deepcopy`` (contract storage
    snapshots) and serialises with ``json`` natively.
    """

    def _blocked(self, *args: Any, **kwargs: Any) -> None:
        raise InvalidTransactionError(
            "transaction args/payload are frozen after signing")

    __setitem__ = _blocked
    __delitem__ = _blocked
    pop = _blocked
    popitem = _blocked
    clear = _blocked
    update = _blocked
    setdefault = _blocked

    # deepcopy/pickle rebuild dicts item by item through __setitem__, which
    # is blocked — provide explicit reconstruction instead.
    def __copy__(self) -> "FrozenDict":
        return FrozenDict(self)

    def __deepcopy__(self, memo: Dict[int, Any]) -> "FrozenDict":
        import copy

        return FrozenDict(
            (key, copy.deepcopy(value, memo)) for key, value in self.items())

    def __reduce__(self):
        return (FrozenDict, (dict(self),))


def _deep_freeze(value: Any) -> Any:
    """Recursively convert mappings to :class:`FrozenDict` and sequences to
    tuples, so no reachable part of a signed transaction is mutable."""
    if isinstance(value, Mapping):
        return FrozenDict((key, _deep_freeze(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_deep_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    return value


#: How many successful signature checks :meth:`Transaction.verify_signature`
#: remembers; the oldest is forgotten first.
VERIFIED_CACHE_SIZE = 4096

#: ``(tx_hash, sender_public_key)`` of recent successful checks, oldest first.
_verified: Dict[Tuple[str, int], None] = {}
_verified_lock = threading.Lock()


@dataclass
class Transaction:
    """A signed ledger transaction.

    Attributes
    ----------
    sender:
        Address of the originating account.
    kind:
        ``"transfer"``, ``"deploy"`` or ``"call"``.
    nonce:
        Per-sender sequence number, preventing replay and ordering a sender's
        transactions.
    contract:
        Target contract address for ``call`` transactions; for ``deploy``
        transactions it is filled with the created address by the runtime.
    method:
        Contract method name for ``call`` transactions, or the contract class
        name for ``deploy`` transactions.
    args:
        Keyword arguments of the call / constructor.
    payload:
        Free-form extra data (used by baselines that store raw data on-chain).
    timestamp:
        Simulated submission time.
    """

    sender: str
    kind: str
    nonce: int
    contract: Optional[str] = None
    method: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    timestamp: float = 0.0
    sender_public_key: Optional[int] = None
    signature: Optional[Signature] = None

    VALID_KINDS = ("transfer", "deploy", "call")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise InvalidTransactionError(f"unknown transaction kind {self.kind!r}")
        if self.nonce < 0:
            raise InvalidTransactionError("nonce must be non-negative")
        if self.signature is not None:
            # A signed transaction is frozen: its fields are covered by the
            # signature (and by the cached hash), so args/payload are
            # deep-frozen and field assignment raises from here on.
            object.__setattr__(self, "args", _deep_freeze(self.args))
            object.__setattr__(self, "payload", _deep_freeze(self.payload))
            self.__dict__["_frozen"] = True

    def __setattr__(self, name: str, value: Any) -> None:
        if self.__dict__.get("_frozen"):
            raise InvalidTransactionError(
                f"transaction is frozen after signing; cannot assign {name!r}"
            )
        object.__setattr__(self, name, value)

    @property
    def is_frozen(self) -> bool:
        """True once the transaction carries a signature (fields immutable)."""
        return bool(self.__dict__.get("_frozen"))

    # ------------------------------------------------------------------ identity

    def signing_payload(self) -> dict:
        """The part of the transaction covered by the signature."""
        return {
            "sender": self.sender,
            "kind": self.kind,
            "nonce": self.nonce,
            "contract": self.contract,
            "method": self.method,
            "args": dict(self.args),
            "payload": dict(self.payload),
            "timestamp": self.timestamp,
        }

    @property
    def tx_hash(self) -> str:
        """The transaction hash (includes the signature when present).

        Computed once and cached: the mempool, the miner, block building and
        receipt lookup all re-read the hash, and a signed transaction is
        frozen (see ``__post_init__``) so the cache can never go stale.
        Unsigned transactions stay mutable, so only signed ones cache.
        """
        cached = self.__dict__.get("_cached_tx_hash")
        if cached is not None:
            return cached
        body = self.signing_payload()
        if self.signature is not None:
            body["signature"] = self.signature.to_dict()
        digest = hash_payload(body)
        if self.is_frozen:
            self.__dict__["_cached_tx_hash"] = digest
        return digest

    # ------------------------------------------------------------------ signing

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """Return a copy of this transaction signed with ``keypair``."""
        if keypair.address != self.sender:
            raise InvalidTransactionError(
                f"key address {keypair.address} does not match sender {self.sender}"
            )
        signature = sign(keypair, self.signing_payload())
        return Transaction(
            sender=self.sender,
            kind=self.kind,
            nonce=self.nonce,
            contract=self.contract,
            method=self.method,
            args=dict(self.args),
            payload=dict(self.payload),
            timestamp=self.timestamp,
            sender_public_key=keypair.public_key,
            signature=signature,
        )

    def verify_signature(self) -> bool:
        """True when the transaction carries a valid signature of its sender.

        A successful check is remembered process-wide (see
        :data:`VERIFIED_CACHE_SIZE`), so the mempool admission and block
        validation of every simulated node verify each transaction once.
        """
        if self.signature is None or self.sender_public_key is None:
            return False
        from repro.crypto.keys import address_from_public_key

        if address_from_public_key(self.sender_public_key) != self.sender:
            return False
        # The hash covers the signed payload and the signature but not the
        # key, so the key is part of the cache key.
        key = (self.tx_hash, self.sender_public_key)
        if key in _verified:
            return True
        if not verify(self.sender_public_key, self.signing_payload(), self.signature):
            return False  # failures are never cached
        with _verified_lock:
            _verified[key] = None
            if len(_verified) > VERIFIED_CACHE_SIZE:
                del _verified[next(iter(_verified))]
        return True

    # ------------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        body = self.signing_payload()
        body["sender_public_key"] = hex(self.sender_public_key) if self.sender_public_key else None
        body["signature"] = self.signature.to_dict() if self.signature else None
        return body

    @staticmethod
    def from_dict(payload: dict) -> "Transaction":
        return Transaction(
            sender=payload["sender"],
            kind=payload["kind"],
            nonce=payload["nonce"],
            contract=payload.get("contract"),
            method=payload.get("method"),
            args=dict(payload.get("args", {})),
            payload=dict(payload.get("payload", {})),
            timestamp=payload.get("timestamp", 0.0),
            sender_public_key=int(payload["sender_public_key"], 16)
            if payload.get("sender_public_key") else None,
            signature=Signature.from_dict(payload["signature"])
            if payload.get("signature") else None,
        )


@dataclass(frozen=True)
class TransactionReceipt:
    """The outcome of executing one transaction inside a block."""

    tx_hash: str
    block_number: int
    success: bool
    gas_used: int
    return_value: Any = None
    error: Optional[str] = None
    contract_address: Optional[str] = None
    events: Tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "tx_hash": self.tx_hash,
            "block_number": self.block_number,
            "success": self.success,
            "gas_used": self.gas_used,
            "return_value": self.return_value,
            "error": self.error,
            "contract_address": self.contract_address,
            "events": list(self.events),
        }
