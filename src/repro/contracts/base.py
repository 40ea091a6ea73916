"""The contract programming model.

Contracts are plain Python classes whose public methods are invoked by
``call`` transactions.  Execution is deterministic: every node re-runs the
same calls in block order and must reach the same storage, which the state
root check in tests verifies.

A contract method can:

* read ``self.ctx`` — the caller address, block number and block timestamp;
* mutate its own attributes (its "storage"), which may hold only the
  journaled value types of :mod:`repro.contracts.storage`, so a reverted
  call can be rolled back write by write;
* call :meth:`Contract.require` to revert with a reason;
* call :meth:`Contract.emit` to produce an event delivered to subscribers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.contracts.storage import JournaledRecord, storable
from repro.errors import ContractRevert, PermissionDenied

#: Per-call attributes: not storage, so neither journaled nor hashed.
CALL_STATE = frozenset({"_ctx", "_pending_events"})

#: Public :class:`Contract` methods that serve the runtime and contract
#: authors; no transaction may call them.
NON_ABI_METHODS = frozenset({
    "abi", "require", "require_permission", "emit",
    "storage_view", "storage_snapshot", "restore_storage",
})


@dataclass(frozen=True)
class CallContext:
    """Execution context available to a contract method."""

    caller: str
    block_number: int
    timestamp: float
    contract_address: str


@dataclass(frozen=True)
class ContractEvent:
    """An event emitted during one contract call."""

    contract: str
    name: str
    data: Mapping[str, Any]

    def to_dict(self) -> dict:
        return {"contract": self.contract, "name": self.name, "data": dict(self.data)}


class Contract(JournaledRecord):
    """Base class for deployable contracts."""

    def __init__(self) -> None:
        self._ctx: Optional[CallContext] = None
        self._pending_events: List[ContractEvent] = []

    # -- runtime integration ----------------------------------------------------

    @property
    def ctx(self) -> CallContext:
        """The current call context (only valid during a call)."""
        if self._ctx is None:
            raise ContractRevert("contract accessed its context outside of a call")
        return self._ctx

    def __setattr__(self, name: str, value: Any) -> None:
        if name in CALL_STATE:
            object.__setattr__(self, name, value)
        else:
            super().__setattr__(name, value)

    def _begin_call(self, ctx: CallContext) -> None:
        self._ctx = ctx
        self._pending_events = []

    def _end_call(self) -> Tuple[ContractEvent, ...]:
        events = tuple(self._pending_events)
        self._ctx = None
        self._pending_events = []
        return events

    def storage_view(self) -> Dict[str, Any]:
        """The live contract storage (everything except call state), uncopied."""
        return {key: value for key, value in self.__dict__.items() if key not in CALL_STATE}

    def storage_snapshot(self) -> Dict[str, Any]:
        """A deep copy of the contract storage.

        Calls roll back through the undo journal instead; the deep copy
        stays as the simple version the journal is tested against.
        """
        return copy.deepcopy(self.storage_view())

    def restore_storage(self, snapshot: Mapping[str, Any]) -> None:
        """Replace the storage with a deep copy of ``snapshot``."""
        for key in list(self.__dict__.keys()):
            if key not in CALL_STATE:
                del self.__dict__[key]
        for key, value in copy.deepcopy(dict(snapshot)).items():
            self.__dict__[key] = storable(value)

    # -- helpers for contract authors ------------------------------------------

    def require(self, condition: bool, message: str = "requirement failed") -> None:
        """Revert the call unless ``condition`` holds."""
        if not condition:
            raise ContractRevert(message)

    def require_permission(self, condition: bool, message: str = "permission denied") -> None:
        """Revert with a :class:`PermissionDenied` unless ``condition`` holds."""
        if not condition:
            raise PermissionDenied(message)

    def emit(self, name: str, **data: Any) -> None:
        """Emit an event from the current call.

        The data is deep-copied: an event must not alias storage that a later
        call may change.
        """
        self._pending_events.append(
            ContractEvent(contract=self.ctx.contract_address, name=name,
                          data=copy.deepcopy(data))
        )

    # -- reflection -------------------------------------------------------------

    @classmethod
    def abi(cls) -> Tuple[str, ...]:
        """The callable public methods of the contract."""
        methods = []
        for name in dir(cls):
            if name.startswith("_"):
                continue
            attribute = getattr(cls, name)
            if callable(attribute) and name not in NON_ABI_METHODS:
                methods.append(name)
        return tuple(sorted(methods))
