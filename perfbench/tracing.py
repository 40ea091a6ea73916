"""Per-layer spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public functions
(class methods and module-level bindings of ``repro``) for the length of one
traced replay, then restoring the originals.  Every call becomes a
:class:`Span` kept in memory; a layer's *self time* is its spans' duration
minus the part of each span that nested wrapped spans cover.

Spans opened on a thread other than the replay's (the parallel-cascade
executor) take the replay thread's innermost open span as their parent: it
is blocked inside that call while the executor runs the legs it handed over.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(module, attribute path, metric name)`` for every wrapped callable.  An
#: attribute path names a module-level function (``"verify"``) or a method
#: (``"Class.method"``).  ``verify`` and ``sign`` are imported by name into
#: several modules, so each binding is wrapped, not only the defining one.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.gateway.gateway", "SharingGateway.submit", "gateway.submit"),
    ("repro.gateway.gateway", "SharingGateway.commit_once", "gateway.commit_once"),
    ("repro.core.workflow", "UpdateCoordinator.commit_entry_batch",
     "core.commit_entry_batch"),
    ("repro.core.manager", "DatabaseManager.reflect_shared_table_delta",
     "core.reflect_shared_table_delta"),
    ("repro.core.manager", "DatabaseManager.refresh_shared_table_delta",
     "core.refresh_shared_table_delta"),
    ("repro.core.manager", "DatabaseManager.changed_dependents_delta",
     "core.changed_dependents_delta"),
    ("repro.bx.registry", "BXProgram.get", "bx.get"),
    ("repro.bx.registry", "BXProgram.put", "bx.put"),
    *((module, f"{lens}.{fn}", f"bx.{lens}.{fn}")
      for module, lens in (("repro.bx.join", "JoinLens"),
                           ("repro.bx.projection", "ProjectionLens"),
                           ("repro.bx.selection", "SelectionLens"),
                           ("repro.bx.rename", "RenameLens"),
                           ("repro.bx.compose", "ComposeLens"),
                           ("repro.bx.compose", "IdentityLens"))
      for fn in ("get_delta", "put_delta")),
    ("repro.contracts.runtime", "ContractRuntime.execute", "contracts.execute"),
    ("repro.contracts.runtime", "ContractRuntime.static_call",
     "contracts.static_call"),
    ("repro.contracts.base", "Contract.storage_snapshot", "contracts.snapshot"),
    ("repro.contracts.base", "Contract.restore_storage", "contracts.restore"),
    ("repro.crypto.signatures", "verify", "crypto.verify"),
    ("repro.crypto", "verify", "crypto.verify"),
    ("repro.ledger.transaction", "verify", "crypto.verify"),
    ("repro.contracts.sharing_contract", "verify", "crypto.verify"),
    ("repro.crypto.signatures", "sign", "crypto.sign"),
    ("repro.crypto", "sign", "crypto.sign"),
    ("repro.ledger.transaction", "sign", "crypto.sign"),
    ("repro.ledger.mempool", "Mempool.submit", "ledger.mempool_submit"),
    ("repro.ledger.mempool", "Mempool.submit_batch", "ledger.mempool_submit"),
    ("repro.ledger.miner", "Miner.mine_block", "ledger.mine_block"),
    ("repro.ledger.chain", "Blockchain.validate_block", "ledger.validate_block"),
    ("repro.ledger.chain", "Blockchain.append_block", "ledger.append_block"),
    ("repro.network.gossip", "GossipProtocol.broadcast_transaction",
     "network.broadcast"),
    ("repro.network.gossip", "GossipProtocol.broadcast_transaction_batch",
     "network.broadcast"),
    ("repro.network.gossip", "GossipProtocol.broadcast_block", "network.broadcast"),
    ("repro.network.gossip", "GossipProtocol.mine_and_propagate",
     "network.mine_and_propagate"),
    ("repro.relational.durability", "JsonlWalBackend.append",
     "relational.wal_append"),
    ("repro.relational.durability", "JsonlWalBackend.sync", "relational.wal_sync"),
    ("repro.relational.replication", "SegmentShipper.ship", "relational.ship"),
    ("repro.relational.replication", "ReadReplica.apply",
     "relational.replica_apply"),
    ("repro.relational.replication", "ReplicaRouter.route", "relational.route"),
)


def layer_names() -> List[str]:
    """Every wrapped metric name, in first-appearance order."""
    return list(dict.fromkeys(name for _module, _path, name in TARGETS))


class Span:
    """One wrapped call: ``parent`` is the index of the enclosing span."""

    __slots__ = ("index", "name", "start", "end", "parent", "trace_id")

    def __init__(self, index: int, name: str, start: float, end: float,
                 parent: Optional[int]):
        self.index = index
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id: Optional[str] = None


class SpanRecorder:
    """Keeps spans in memory; owns the wrappers while they are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._replay_stack: List[Span] = []
        self._replay_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, bool, object]] = []
        self._batches = 0

    # ------------------------------------------------------------------ spans

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._replay_thread:
            return self._replay_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[List[Span], Span]:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        else:
            replaying = self._replay_stack
            parent = replaying[-1] if replaying and stack is not replaying else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0,
                        parent.index if parent is not None else None)
            self.spans.append(span)
        stack.append(span)
        return stack, span

    def wrap(self, name: str, fn: Callable,
             trace_id_of: Optional[Callable[[object], Optional[str]]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``trace_id_of(result)`` names a
        root span's trace (a gateway request id or batch id)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if trace_id_of is not None:
                span.trace_id = trace_id_of(result)
            return result

        timed.__wrapped_by_perfbench__ = True
        return timed

    def _batch_id(self, result: object) -> Optional[str]:
        # The gateway numbers batches 1, 2, ... for every commit that planned
        # a non-empty batch, which is exactly when commit_once returns one.
        if result is None:
            return None
        self._batches += 1
        return f"batch-{self._batches}"

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        trace_ids = {"gateway.submit": lambda response: response.request_id,
                     "gateway.commit_once": self._batch_id}
        try:
            for module_name, path, name in TARGETS:
                owner = importlib.import_module(module_name)
                *owner_path, attribute = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                own = attribute in vars(owner)
                original = vars(owner)[attribute] if own else getattr(owner, attribute)
                setattr(owner, attribute,
                        self.wrap(name, original, trace_ids.get(name)))
                self._installed.append((owner, attribute, own, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, own, original = self._installed.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------ analysis

    def trace_id(self, span: Span) -> Optional[str]:
        """The trace id of ``span``'s root span."""
        while span.parent is not None:
            span = self.spans[span.parent]
        return span.trace_id

    def write_jsonl(self, path: pathlib.Path) -> None:
        """Write every span, with its root's trace id, as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {"index": span.index, "name": span.name,
                          "start": span.start, "end": span.end,
                          "parent": span.parent, "trace_id": self.trace_id(span)}
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def installed_wrappers() -> List[str]:
    """Targets whose current binding is a benchmark wrapper (should be none
    outside a traced replay)."""
    left = []
    for module_name, path, _name in TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        if getattr(owner, "__wrapped_by_perfbench__", False):
            left.append(f"{module_name}.{path}")
    return left


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, self seconds)``: each span's duration minus the part
    its direct children cover (overlapping children counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        own = (span.end - span.start) - _covered(children.get(span.index, ()),
                                                 span.start, span.end)
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + own)
    return totals
