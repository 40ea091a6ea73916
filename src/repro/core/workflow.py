"""Cross-peer coordination of shared-data operations (Fig. 4 and Fig. 5).

The :class:`UpdateCoordinator` drives the paper's protocols end to end:

* the **CRUD procedure** of Fig. 4 — a user executes an operation locally,
  requests permission from the smart contract, sharing peers are notified,
  fetch the newest shared data, the metadata is updated, and every sharing
  peer runs its BX program to reflect the change into its complete data;
* the **11-step update workflow** of Fig. 5 — including step 6, where the
  peer that absorbed an update checks whether *other* shared pieces derived
  from the same base table changed and, if so, propagates to those peers too
  (the Researcher → Doctor → Patient cascade).

Every run produces a :class:`WorkflowTrace` whose steps mirror the numbered
steps of the figures, with simulated timestamps and block numbers, so the
benchmarks and the examples can print the exact choreography.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_payload
from repro.errors import ReproError, UpdateRejected, WorkflowError
from repro.core.sharing import SharingAgreement
from repro.chaos import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.relational.diff import TableDiff, diff_tables
from repro.relational.table import Table

#: Callback fired after a shared table changed: ``(metadata_id, operation, peers)``.
SharedChangeListener = Callable[[str, str, Tuple[str, str]], None]

#: Callback fired with the row-level view diff of the change (None when the
#: change is not describable as a diff, e.g. a failed half-installed commit):
#: ``(metadata_id, operation, peers, view_diff)``.
SharedDiffListener = Callable[[str, str, Tuple[str, str], Optional[TableDiff]], None]


@dataclass(frozen=True)
class WorkflowStep:
    """One numbered step of a workflow run."""

    index: int
    actor: str
    action: str
    description: str
    simulated_time: float
    block_number: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "actor": self.actor,
            "action": self.action,
            "description": self.description,
            "simulated_time": self.simulated_time,
            "block_number": self.block_number,
            "data": dict(self.data),
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowStep":
        return WorkflowStep(
            index=int(payload["index"]),
            actor=payload["actor"],
            action=payload["action"],
            description=payload["description"],
            simulated_time=float(payload["simulated_time"]),
            block_number=payload.get("block_number"),
            data=dict(payload.get("data", {})),
        )


@dataclass
class WorkflowTrace:
    """The full record of one shared-data operation and its propagation."""

    initiator: str
    metadata_id: str
    operation: str
    steps: List[WorkflowStep] = field(default_factory=list)
    succeeded: bool = False
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    blocks_created: int = 0
    cascaded_metadata_ids: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """End-to-end simulated latency of the operation."""
        return self.finished_at - self.started_at

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def add_step(self, actor: str, action: str, description: str, clock_now: float,
                 block_number: Optional[int] = None, **data: Any) -> WorkflowStep:
        step = WorkflowStep(
            index=len(self.steps) + 1,
            actor=actor,
            action=action,
            description=description,
            simulated_time=clock_now,
            block_number=block_number,
            data=dict(data),
        )
        self.steps.append(step)
        return step

    def to_dict(self) -> dict:
        return {
            "initiator": self.initiator,
            "metadata_id": self.metadata_id,
            "operation": self.operation,
            "steps": [step.to_dict() for step in self.steps],
            "succeeded": self.succeeded,
            "error": self.error,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "blocks_created": self.blocks_created,
            "cascaded_metadata_ids": list(self.cascaded_metadata_ids),
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowTrace":
        return WorkflowTrace(
            initiator=payload["initiator"],
            metadata_id=payload["metadata_id"],
            operation=payload["operation"],
            steps=[WorkflowStep.from_dict(step) for step in payload.get("steps", ())],
            succeeded=bool(payload.get("succeeded", False)),
            error=payload.get("error"),
            started_at=float(payload.get("started_at", 0.0)),
            finished_at=float(payload.get("finished_at", 0.0)),
            blocks_created=int(payload.get("blocks_created", 0)),
            cascaded_metadata_ids=list(payload.get("cascaded_metadata_ids", ())),
        )

    def pretty(self) -> str:
        """A plain-text rendering of the trace, step by step."""
        lines = [
            f"Workflow {self.operation!r} on {self.metadata_id!r} initiated by {self.initiator}",
            f"  succeeded={self.succeeded} elapsed={self.elapsed:.2f}s "
            f"blocks={self.blocks_created} steps={self.step_count}",
        ]
        for step in self.steps:
            block = f" [block #{step.block_number}]" if step.block_number is not None else ""
            lines.append(
                f"  {step.index:>2}. t={step.simulated_time:8.2f}s {step.actor:<12} "
                f"{step.action:<22} {step.description}{block}"
            )
        if self.error:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EntryEdit:
    """One entry-level edit of a shared table, batchable with others.

    ``op`` is ``"update"``, ``"create"`` or ``"delete"``.  Updates and deletes
    identify their row by primary ``key``; updates and creates carry the new
    ``values``.
    """

    op: str
    key: Tuple[Any, ...] = ()
    values: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in ("update", "create", "delete"):
            raise ValueError(f"unknown edit op {self.op!r}")
        object.__setattr__(self, "key", tuple(self.key))
        object.__setattr__(self, "values", dict(self.values))

    def to_dict(self) -> dict:
        return {"op": self.op, "key": list(self.key), "values": dict(self.values)}

    @staticmethod
    def from_dict(payload: dict) -> "EntryEdit":
        return EntryEdit(op=payload["op"], key=tuple(payload.get("key", ())),
                         values=dict(payload.get("values", {})))


@dataclass(frozen=True)
class BatchGroup:
    """A set of compatible edits on one shared table, folded into a single
    diff and a single on-chain request.

    Usually all edits come from ``peer``.  A *cross-peer folded* group also
    carries edits by the other party of the agreement on **disjoint**
    attribute sets and distinct rows — ``edit_peers`` records each edit's
    author, aligned with ``edits``; ``peer`` stays the requester who submits
    the merged diff on-chain (via ``request_folded_update``).
    """

    peer: str
    metadata_id: str
    edits: Tuple[EntryEdit, ...]
    #: Author of each edit, aligned with ``edits``; defaults to ``peer``.
    edit_peers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edits", tuple(self.edits))
        if not self.edits:
            raise ValueError("a batch group needs at least one edit")
        edit_peers = tuple(self.edit_peers) or (self.peer,) * len(self.edits)
        if len(edit_peers) != len(self.edits):
            raise ValueError("edit_peers must align with edits")
        object.__setattr__(self, "edit_peers", edit_peers)

    @property
    def contributors(self) -> Tuple[str, ...]:
        """Distinct edit authors, requester first, in first-edit order."""
        ordered = [self.peer]
        for peer in self.edit_peers:
            if peer not in ordered:
                ordered.append(peer)
        return tuple(ordered)

    @property
    def folded(self) -> bool:
        """True when edits from more than one peer were folded together."""
        return len(self.contributors) > 1

    @property
    def operation(self) -> str:
        """The contract operation the group maps to (homogeneous op, else update)."""
        ops = {edit.op for edit in self.edits}
        return self.edits[0].op if len(ops) == 1 else "update"


@dataclass
class BatchCommitResult:
    """Outcome of committing one batch of groups through shared consensus rounds.

    ``consensus_rounds`` counts the mining rounds the batch itself required
    (one for every request transaction together, one for every acknowledgement
    together); cascaded propagations mine their own rounds and account their
    blocks on the individual traces.
    """

    traces: List[WorkflowTrace] = field(default_factory=list)
    blocks_created: int = 0
    consensus_rounds: int = 0
    #: Per group (aligned with ``traces``), one entry per edit: None when the
    #: edit was folded into the group's diff, else why it was dropped.  An
    #: invalid edit is rejected alone — it never poisons its group mates.
    edit_errors: List[List[Optional[str]]] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(1 for trace in self.traces if trace.succeeded)

    @property
    def rejected(self) -> int:
        return sum(1 for trace in self.traces if not trace.succeeded)


class UpdateCoordinator:
    """Runs shared-data operations across the whole system."""

    def __init__(self, system: "MedicalDataSharingSystem"):  # noqa: F821 (forward ref)
        self.system = system
        self._change_listeners: List[SharedChangeListener] = []
        self._diff_listeners: List[SharedDiffListener] = []
        #: When true, propagation legs push row-level diffs through lenses,
        #: indexes and caches instead of recomputing whole tables.
        self.delta_enabled = bool(getattr(system.config, "delta_propagation", True))
        #: When true and the ledger has more than one consensus lane, the
        #: legs of one cascade commit through *shared* request/ack rounds
        #: (see :meth:`_cascade_parallel`).  Single-lane systems always take
        #: the sequential path, byte-identical to the seed.
        self.parallel_enabled = bool(getattr(system.config, "parallel_cascades", True))
        #: Set by :meth:`MedicalDataSharingSystem.attach_tracer`; spans cover
        #: consensus rounds and every delta-propagation leg.
        self.tracer = NULL_TRACER
        #: Chaos hooks, set by :meth:`MedicalDataSharingSystem.attach_chaos`:
        #: the injector can fail a whole batch (``commit.fail``), one group's
        #: contract step (``contract.fail``), or a mining round
        #: (``consensus.fail`` / ``consensus.slow``); the optional retrier
        #: re-runs failed mining rounds with deterministic backoff.
        self.injector = NULL_INJECTOR
        self.retrier = None

    # ------------------------------------------------------------ change hooks

    def subscribe_shared_change(self, listener: SharedChangeListener) -> None:
        """Register a callback fired after every successful propagation of a
        shared-table change (including each cascaded Fig. 5 leg).

        The gateway's view cache uses this to invalidate materialised views.
        """
        self._change_listeners.append(listener)

    def subscribe_shared_diff(self, listener: SharedDiffListener) -> None:
        """Like :meth:`subscribe_shared_change`, but the listener also receives
        the row-level :class:`TableDiff` the shared table underwent (or None
        when the change cannot be described as a diff, e.g. a commit that
        failed after partially installing).

        The gateway's view cache uses this to *patch* cached views row by row
        instead of dropping them.
        """
        self._diff_listeners.append(listener)

    def _notify_change(self, metadata_id: str, operation: str,
                       peers: Tuple[str, str],
                       view_diff: Optional[TableDiff] = None) -> None:
        for listener in self._change_listeners:
            listener(metadata_id, operation, peers)
        for listener in self._diff_listeners:
            listener(metadata_id, operation, peers, view_diff)

    # --------------------------------------------------------------- utilities

    @property
    def _clock(self):
        return self.system.simulator.clock

    def _peer(self, name: str):
        return self.system.peer(name)

    def _app(self, name: str):
        return self.system.server_app(name)

    def _mine(self) -> int:
        """Mine pending transactions; returns how many blocks were produced.

        Fault probes run *before* the mining step, so a retried round never
        double-mines: an injected ``consensus.fail`` (a transient fault) is
        absorbed by the retrier when one is attached, and ``consensus.slow``
        stretches the round by advancing the sim clock.
        """
        def one_round() -> int:
            self.injector.maybe_fail("consensus.fail")
            slow = self.injector.delay("consensus.slow")
            if slow > 0:
                self._clock.advance(slow)
            return len(self.system.simulator.mine())

        if self.retrier is not None:
            return self.retrier.call(one_round, label="consensus.round")
        return one_round()

    def _submit_and_mine(self, peer_name: str, method: str, args: Mapping[str, Any]):
        """Submit a signed contract call from ``peer_name`` and mine it.

        Returns ``(receipt, blocks_created)`` using the submitting peer's own
        node replica for the receipt lookup.
        """
        app = self._app(peer_name)
        tx = app.build_contract_call(method, args)
        with self.tracer.span("consensus.round", phase="sequential",
                              method=method) as span:
            self.system.simulator.submit_transaction(app.node.name, tx)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        receipt = app.node.chain.receipt(tx.tx_hash)
        return receipt, blocks

    @staticmethod
    def _diff_hash(diff: TableDiff) -> str:
        return hash_payload(diff.to_dict())

    @staticmethod
    def _changed_attributes(diff: TableDiff, agreement: SharingAgreement) -> Tuple[str, ...]:
        """The shared attributes an operation touches (what permission is checked on)."""
        shared = set(agreement.shared_columns)
        return tuple(column for column in diff.touched_columns if column in shared)

    def _fold_contributions(self, group: BatchGroup, diff: TableDiff,
                            agreement: SharingAgreement,
                            edit_errors: Sequence[Optional[str]],
                            diff_hash: str) -> List[dict]:
        """Per-contributor ``{"peer": address, "changed_attributes": [...]}``
        entries of a cross-peer folded group.

        Each contributor's attributes are the columns its *applied* update
        edits declared, restricted to the columns the merged diff actually
        touched (a no-op edit contributes nothing, exactly as the diff-based
        attribute computation of the unfolded path).  The scheduler's fold
        rule guarantees the declared sets are disjoint between contributors.
        Contributors other than the requester sign an attestation over their
        attributes and the merged diff hash — the contract refuses a folded
        request whose foreign contributions are unattested, so the requester
        cannot write through another peer's permissions.
        """
        from repro.contracts.sharing_contract import fold_attestation_payload
        from repro.crypto.signatures import sign

        touched = set(diff.touched_columns) & set(agreement.shared_columns)
        columns_by_peer: Dict[str, List[str]] = {}
        for index, (edit, author) in enumerate(zip(group.edits, group.edit_peers)):
            if index < len(edit_errors) and edit_errors[index] is not None:
                continue
            collected = columns_by_peer.setdefault(author, [])
            for column in edit.values:
                if column in touched and column not in collected:
                    collected.append(column)
        contributions = []
        for peer_name, columns in columns_by_peer.items():
            if not columns:
                continue
            peer = self._peer(peer_name)
            contribution = {"peer": peer.address, "changed_attributes": columns}
            if peer_name != group.peer:
                payload = fold_attestation_payload(group.metadata_id, diff_hash,
                                                   columns)
                contribution["public_key"] = hex(peer.keypair.public_key)
                contribution["attestation"] = sign(peer.keypair, payload).to_dict()
            contributions.append(contribution)
        return contributions

    # ------------------------------------------------------------ read (Fig. 4)

    def read_shared_data(self, peer_name: str, metadata_id: str) -> Table:
        """Read = query the local database directly (no blockchain involvement)."""
        return self._peer(peer_name).shared_table(metadata_id).snapshot()

    # -------------------------------------------------------- update entry-point

    def propagate_local_change(self, peer_name: str, metadata_id: str) -> WorkflowTrace:
        """Fig. 5, researcher-style: the peer already updated its *local base
        table* and now propagates the change through the shared view.

        Step 1 regenerates the shared view with ``get``; the remaining steps
        follow the contract/notification/put protocol.
        """
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id, operation="update",
                              started_at=self._clock.now())
        app = self._app(peer_name)
        diff = app.manager.pending_view_diff(metadata_id)
        trace.add_step(peer_name, "bx_get",
                       f"regenerate shared view from local base table "
                       f"({len(diff)} row change(s))", self._clock.now(),
                       rows_changed=len(diff))
        if diff.is_empty:
            trace.succeeded = True
            trace.finished_at = self._clock.now()
            return trace
        self._finish(trace, peer_name, metadata_id, "update", diff,
                     install_initiator_view=True, reflect_initiator_source=False)
        return trace

    def update_shared_entry(self, peer_name: str, metadata_id: str, key: Sequence[Any],
                            updates: Mapping[str, Any]) -> WorkflowTrace:
        """Fig. 4 entry-level update: the peer edits one row of the shared table.

        The change is validated locally, authorised on-chain, installed in the
        peer's stored shared table, reflected into the peer's own base table
        with ``put``, and propagated to the sharing peer.
        """
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id, operation="update",
                              started_at=self._clock.now())
        peer = self._peer(peer_name)
        stored = peer.shared_table(metadata_id)
        if self.delta_enabled:
            # O(changed rows): validate the edit and build its diff directly,
            # without snapshotting the whole shared table.
            diff = stored.diff_for_update(key, updates)
            candidate = None
        else:
            candidate = stored.snapshot()
            candidate.update_by_key(key, updates)
            diff = diff_tables(stored, candidate)
        trace.add_step(peer_name, "local_edit",
                       f"edit shared entry {tuple(key)!r}: {dict(updates)!r}",
                       self._clock.now(), rows_changed=len(diff))
        if diff.is_empty:
            trace.succeeded = True
            trace.finished_at = self._clock.now()
            return trace
        self._finish(trace, peer_name, metadata_id, "update", diff,
                     install_initiator_view=True, reflect_initiator_source=True,
                     candidate_view=candidate)
        return trace

    def create_shared_entry(self, peer_name: str, metadata_id: str,
                            values: Mapping[str, Any]) -> WorkflowTrace:
        """Fig. 4 entry-level create: add a row to the shared table."""
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id, operation="create",
                              started_at=self._clock.now())
        peer = self._peer(peer_name)
        stored = peer.shared_table(metadata_id)
        if self.delta_enabled:
            diff = stored.diff_for_insert(values)
            candidate = None
        else:
            candidate = stored.snapshot()
            candidate.insert(values)
            diff = diff_tables(stored, candidate)
        trace.add_step(peer_name, "local_edit", f"create shared entry {dict(values)!r}",
                       self._clock.now(), rows_changed=len(diff))
        self._finish(trace, peer_name, metadata_id, "create", diff,
                     install_initiator_view=True, reflect_initiator_source=True,
                     candidate_view=candidate)
        return trace

    def delete_shared_entry(self, peer_name: str, metadata_id: str,
                            key: Sequence[Any]) -> WorkflowTrace:
        """Fig. 4 entry-level delete: remove a row from the shared table."""
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id, operation="delete",
                              started_at=self._clock.now())
        peer = self._peer(peer_name)
        stored = peer.shared_table(metadata_id)
        if self.delta_enabled:
            diff = stored.diff_for_delete(key)
            candidate = None
        else:
            candidate = stored.snapshot()
            candidate.delete_by_key(key)
            diff = diff_tables(stored, candidate)
        trace.add_step(peer_name, "local_edit", f"delete shared entry {tuple(key)!r}",
                       self._clock.now(), rows_changed=len(diff))
        self._finish(trace, peer_name, metadata_id, "delete", diff,
                     install_initiator_view=True, reflect_initiator_source=True,
                     candidate_view=candidate)
        return trace

    # ------------------------------------------------------- batched commits

    @staticmethod
    def _apply_edit(candidate: Table, edit: EntryEdit) -> None:
        if edit.op == "update":
            candidate.update_by_key(edit.key, edit.values)
        elif edit.op == "create":
            candidate.insert(edit.values)
        else:
            candidate.delete_by_key(edit.key)

    def update_shared_entries(self, peer_name: str, metadata_id: str,
                              edits: Sequence[EntryEdit]) -> WorkflowTrace:
        """Fold several entry-level edits on one shared table into a single
        protocol run: one diff, one contract request, one acknowledgement.

        This is the single-group form of batched commits — ``k`` edits cost
        the same two consensus rounds a lone :meth:`update_shared_entry` does.
        """
        group = BatchGroup(peer=peer_name, metadata_id=metadata_id, edits=tuple(edits))
        trace = WorkflowTrace(initiator=peer_name, metadata_id=metadata_id,
                              operation=group.operation, started_at=self._clock.now())
        peer = self._peer(peer_name)
        stored = peer.shared_table(metadata_id)
        candidate = stored.snapshot()
        for edit in group.edits:
            self._apply_edit(candidate, edit)
        diff = diff_tables(stored, candidate)
        trace.add_step(peer_name, "local_edit",
                       f"batch of {len(group.edits)} edit(s) on shared table",
                       self._clock.now(), rows_changed=len(diff), edits=len(group.edits))
        if diff.is_empty:
            trace.succeeded = True
            trace.finished_at = self._clock.now()
            return trace
        # In delta mode the diff (not the materialised candidate) is installed,
        # so the remaining legs stay O(changed rows).
        self._finish(trace, peer_name, metadata_id, group.operation, diff,
                     install_initiator_view=True, reflect_initiator_source=True,
                     candidate_view=None if self.delta_enabled else candidate)
        return trace

    def commit_entry_batch(self, groups: Sequence[BatchGroup]) -> BatchCommitResult:
        """Commit many groups through *shared* consensus rounds (the gateway's
        batched ledger commit).

        All groups' request transactions are submitted together and mined in
        one round, and all acknowledgements are mined in a second round — so a
        batch of N compatible groups costs two rounds instead of 2·N.  Groups
        must target distinct shared tables (the contract serialises operations
        per metadata entry through its pending-acknowledgement rule); the
        write scheduler guarantees this.

        A rejected or failed group never aborts the batch: its trace carries
        ``succeeded=False`` and the error, mirroring what the sequential path
        raises.
        """
        self.injector.maybe_fail("commit.fail")
        seen_ids = set()
        for group in groups:
            if group.metadata_id in seen_ids:
                raise WorkflowError(
                    f"batch contains two groups on shared table {group.metadata_id!r}; "
                    "same-table groups must be committed in separate batches"
                )
            seen_ids.add(group.metadata_id)

        result = BatchCommitResult()
        method_by_op = {"update": "request_update", "create": "request_create",
                        "delete": "request_delete"}

        # Phase A: validate every group locally and submit every request
        # transaction, then mine them all in one consensus round.  Requests
        # are gossiped as one batch (a single tx-batch flood) after each has
        # been ingested at its own peer's node for nonce accounting.
        prepared = []
        request_submissions: List[Tuple[str, Any]] = []
        for group in groups:
            trace = WorkflowTrace(initiator=group.peer, metadata_id=group.metadata_id,
                                  operation=group.operation, started_at=self._clock.now())
            result.traces.append(trace)
            edit_errors: List[Optional[str]] = [None] * len(group.edits)
            result.edit_errors.append(edit_errors)
            try:
                self.injector.maybe_fail("contract.fail", group.metadata_id)
                peer = self._peer(group.peer)
                agreement = peer.agreement(group.metadata_id)
                stored = peer.shared_table(group.metadata_id)
                candidate = stored.snapshot()
            except ReproError as exc:
                trace.error = str(exc)
                trace.finished_at = self._clock.now()
                continue
            # Apply each edit on its own: an invalid one (missing key,
            # duplicate insert, constraint violation) is rejected alone and
            # the group carries on with the rest.
            applied = 0
            for index, edit in enumerate(group.edits):
                try:
                    self._apply_edit(candidate, edit)
                    applied += 1
                except ReproError as exc:
                    edit_errors[index] = str(exc)
            diff = diff_tables(stored, candidate)
            trace.add_step(group.peer, "local_edit",
                           f"batch of {len(group.edits)} edit(s) on shared table "
                           f"({applied} applied)", self._clock.now(),
                           rows_changed=len(diff), edits=len(group.edits),
                           edits_applied=applied)
            if applied == 0:
                trace.error = next(error for error in edit_errors if error)
                trace.finished_at = self._clock.now()
                continue
            if diff.is_empty:
                trace.succeeded = True
                trace.finished_at = self._clock.now()
                continue
            app = self._app(group.peer)
            if group.folded:
                diff_hash = self._diff_hash(diff)
                contributions = self._fold_contributions(group, diff, agreement,
                                                         edit_errors, diff_hash)
                tx = app.build_contract_call(
                    "request_folded_update",
                    {"metadata_id": group.metadata_id,
                     "contributions": contributions,
                     "diff_hash": diff_hash},
                )
            else:
                tx = app.build_contract_call(
                    method_by_op[group.operation],
                    {"metadata_id": group.metadata_id,
                     "changed_attributes": list(self._changed_attributes(diff, agreement)),
                     "diff_hash": self._diff_hash(diff)},
                )
            # Ingest at the submitting peer's own node right away so a peer
            # initiating several groups keeps its nonces sequential.
            if not app.node.receive_transaction(tx):
                trace.error = f"request transaction rejected by {app.node.name!r}'s mempool"
                trace.finished_at = self._clock.now()
                continue
            request_submissions.append((app.node.name, tx))
            prepared.append((group, trace, agreement, candidate, diff, tx))
        if not prepared:
            return result
        with self.tracer.span("consensus.round", phase="requests",
                              groups=len(prepared)) as span:
            self.system.simulator.submit_transaction_batch(request_submissions)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        result.blocks_created += blocks
        result.consensus_rounds += 1

        # Phase B: install accepted groups on both sides and submit every
        # acknowledgement (gossiped as one batch, like the requests), then
        # mine them all in a second shared round.
        acknowledged = []
        ack_submissions: List[Tuple[str, Any]] = []
        for group, trace, agreement, candidate, diff, tx in prepared:
            app = self._app(group.peer)
            counterpart = agreement.counterparty_of(group.peer)
            installed = False
            try:
                receipt = app.node.chain.receipt(tx.tx_hash)
                trace.add_step(group.peer, "contract_request",
                               f"send {group.operation} request for attributes "
                               f"{list(self._changed_attributes(diff, agreement))} "
                               f"(batched round)",
                               self._clock.now(), block_number=receipt.block_number,
                               success=receipt.success, error=receipt.error)
                if not receipt.success:
                    trace.error = receipt.error
                    trace.finished_at = self._clock.now()
                    continue
                update_id = int(receipt.return_value["update_id"])
                counterpart_app = self._app(counterpart)
                if self.delta_enabled:
                    app.manager.apply_incoming_diff(group.metadata_id, diff)
                else:
                    app.manager.replace_shared_table(group.metadata_id, candidate)
                installed = True
                app.outgoing_diffs[group.metadata_id] = diff
                initiator_source_diff = self._reflect(app, group.metadata_id, diff)
                trace.add_step(group.peer, "bx_put",
                               f"reflect shared-table change into local base table "
                               f"({len(initiator_source_diff)} row change(s))",
                               self._clock.now(),
                               rows_changed=len(initiator_source_diff))
                notifications = counterpart_app.pop_notifications(group.metadata_id)
                if not any(n.update_id == update_id for n in notifications):
                    raise WorkflowError(
                        f"peer {counterpart!r} did not receive the contract notification "
                        f"for update {update_id} on {group.metadata_id!r}"
                    )
                trace.add_step(counterpart, "notified",
                               f"received contract notification (update #{update_id})",
                               self._clock.now(), update_id=update_id)
                counterpart_app.request_shared_data(group.metadata_id, group.peer,
                                                    since_update=update_id)
                transfer = app.serve_shared_data(group.metadata_id, counterpart, mode="diff")
                counterpart_app.receive_shared_data(group.metadata_id, transfer)
                trace.add_step(counterpart, "fetch_data",
                               f"fetched updated shared data ({transfer.kind}, "
                               f"{transfer.size_bytes} bytes)", self._clock.now(),
                               transfer_kind=transfer.kind, bytes=transfer.size_bytes)
                counterpart_diff = self._reflect(counterpart_app, group.metadata_id, diff)
                trace.add_step(counterpart, "bx_put",
                               f"reflect shared-table change into local base table "
                               f"({len(counterpart_diff)} row change(s))", self._clock.now(),
                               rows_changed=len(counterpart_diff))
                ack_tx = counterpart_app.build_contract_call(
                    "acknowledge_update",
                    {"metadata_id": group.metadata_id, "update_id": update_id},
                )
                counterpart_app.node.receive_transaction(ack_tx)
                ack_submissions.append((counterpart_app.node.name, ack_tx))
            except ReproError as exc:
                trace.error = str(exc)
                trace.finished_at = self._clock.now()
                if installed:
                    # The initiator's shared table was already replaced, so
                    # cached views of it are stale even though the protocol
                    # did not complete — listeners must still be told.  No
                    # diff is passed: a half-installed change is not safely
                    # describable as one, so caches drop the views instead.
                    self._notify_change(group.metadata_id, group.operation,
                                        (group.peer, counterpart))
                continue
            acknowledged.append((group, trace, counterpart, ack_tx, diff,
                                 initiator_source_diff, counterpart_diff))
        if not acknowledged:
            return result
        with self.tracer.span("consensus.round", phase="acks",
                              groups=len(acknowledged)) as span:
            self.system.simulator.submit_transaction_batch(ack_submissions)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        result.blocks_created += blocks
        result.consensus_rounds += 1

        # Phase C: confirm acknowledgements, run the Fig. 5 step-6 cascades
        # (each cascade mines its own rounds) and fire the change listeners.
        for (group, trace, counterpart, ack_tx, diff,
             initiator_source_diff, counterpart_diff) in acknowledged:
            counterpart_app = self._app(counterpart)
            try:
                ack_receipt = counterpart_app.node.chain.receipt(ack_tx.tx_hash)
                trace.add_step(counterpart, "acknowledge",
                               "acknowledged the update on the smart contract "
                               "(batched round)",
                               self._clock.now(), block_number=ack_receipt.block_number,
                               success=ack_receipt.success)
                if not ack_receipt.success:
                    trace.error = (f"acknowledgement by {counterpart!r} failed: "
                                   f"{ack_receipt.error}")
                    trace.finished_at = self._clock.now()
                    continue
                self._cascade(counterpart, group.metadata_id, trace, depth=0,
                              source_diff=counterpart_diff)
                self._cascade(group.peer, group.metadata_id, trace, depth=0,
                              source_diff=initiator_source_diff)
                trace.succeeded = True
            except ReproError as exc:
                trace.error = str(exc)
            finally:
                trace.finished_at = self._clock.now()
                # The group's data was installed on both sides in Phase B,
                # whatever happened to its cascade: listeners always fire.
                # The diff travels along only for fully-successful groups so
                # caches can patch rather than drop.
                self._notify_change(group.metadata_id, group.operation,
                                    (group.peer, counterpart),
                                    diff if trace.succeeded else None)
        return result

    def _finish(self, trace: WorkflowTrace, peer_name: str, metadata_id: str, operation: str,
                diff: TableDiff, install_initiator_view: bool, reflect_initiator_source: bool,
                candidate_view: Optional[Table] = None) -> None:
        """Run the protocol, always stamping the trace end time; rejections carry
        the trace on the raised exception (``exc.trace``)."""
        try:
            self._run_protocol(peer_name, metadata_id, operation, diff, trace,
                               install_initiator_view=install_initiator_view,
                               reflect_initiator_source=reflect_initiator_source,
                               candidate_view=candidate_view)
        except UpdateRejected as exc:
            trace.finished_at = self._clock.now()
            exc.trace = trace  # type: ignore[attr-defined]
            raise
        trace.finished_at = self._clock.now()

    # ------------------------------------------------------- permission admin

    def change_permission(self, peer_name: str, metadata_id: str, attribute: str,
                          new_writers: Sequence[str]) -> dict:
        """Have the authority peer change the writers of one attribute."""
        receipt, _blocks = self._submit_and_mine(
            peer_name, "change_permission",
            {"metadata_id": metadata_id, "attribute": attribute,
             "new_writers": list(new_writers)},
        )
        if not receipt.success:
            raise UpdateRejected(f"permission change rejected: {receipt.error}")
        return receipt.return_value

    # -------------------------------------------------------------- the protocol

    def _run_protocol(self, initiator: str, metadata_id: str, operation: str,
                      diff: TableDiff, trace: WorkflowTrace,
                      install_initiator_view: bool, reflect_initiator_source: bool,
                      candidate_view: Optional[Table] = None, depth: int = 0) -> None:
        """Steps 2..11 of Fig. 5 (recursing into step 6's cascade)."""
        if depth > 8:
            raise WorkflowError("propagation cascade exceeded the supported depth")
        peer = self._peer(initiator)
        app = self._app(initiator)
        agreement = peer.agreement(metadata_id)
        counterpart = agreement.counterparty_of(initiator)
        counterpart_app = self._app(counterpart)
        changed_attributes = self._changed_attributes(diff, agreement)
        diff_hash = self._diff_hash(diff)

        # Step 2: request permission from the smart contract.
        method = {"update": "request_update", "create": "request_create",
                  "delete": "request_delete"}[operation]
        receipt, blocks = self._submit_and_mine(
            initiator, method,
            {"metadata_id": metadata_id, "changed_attributes": list(changed_attributes),
             "diff_hash": diff_hash},
        )
        trace.blocks_created += blocks
        trace.add_step(initiator, "contract_request",
                       f"send {operation} request for attributes {list(changed_attributes)}",
                       self._clock.now(), block_number=receipt.block_number,
                       success=receipt.success, error=receipt.error)
        if not receipt.success:
            trace.succeeded = False
            trace.error = receipt.error
            raise UpdateRejected(
                f"{operation} on {metadata_id!r} by {initiator} rejected: {receipt.error}"
            )
        update_id = int(receipt.return_value["update_id"])

        # The contract accepted: install the local changes on the initiator side.
        if install_initiator_view:
            self._install_initiator_view(app, metadata_id, diff, candidate_view,
                                         from_get=not reflect_initiator_source)
        app.outgoing_diffs[metadata_id] = diff
        initiator_reflected = False
        initiator_source_diff: Optional[TableDiff] = None
        if reflect_initiator_source:
            initiator_source_diff = self._reflect(app, metadata_id, diff)
            initiator_reflected = True
            trace.add_step(initiator, "bx_put",
                           f"reflect shared-table change into local base table "
                           f"({len(initiator_source_diff)} row change(s))", self._clock.now(),
                           rows_changed=len(initiator_source_diff))

        # Step 3: the sharing peer is notified through the contract event.
        notifications = counterpart_app.pop_notifications(metadata_id)
        matching = [n for n in notifications if n.update_id == update_id]
        if not matching:
            raise WorkflowError(
                f"peer {counterpart!r} did not receive the contract notification for "
                f"update {update_id} on {metadata_id!r}"
            )
        trace.add_step(counterpart, "notified",
                       f"received contract notification (update #{update_id})",
                       self._clock.now(), update_id=update_id)

        # Step 4: the sharing peer fetches the newest shared data over the channel.
        counterpart_app.request_shared_data(metadata_id, initiator, since_update=update_id)
        transfer = app.serve_shared_data(metadata_id, counterpart, mode="diff")
        counterpart_app.receive_shared_data(metadata_id, transfer)
        trace.add_step(counterpart, "fetch_data",
                       f"fetched updated shared data ({transfer.kind}, "
                       f"{transfer.size_bytes} bytes)", self._clock.now(),
                       transfer_kind=transfer.kind, bytes=transfer.size_bytes)

        # Step 5: the sharing peer reflects the change into its complete data (put).
        source_diff = self._reflect(counterpart_app, metadata_id, diff)
        trace.add_step(counterpart, "bx_put",
                       f"reflect shared-table change into local base table "
                       f"({len(source_diff)} row change(s))", self._clock.now(),
                       rows_changed=len(source_diff))

        # Metadata update / acknowledgement: the sharing peer confirms it holds
        # the newest shared data, unblocking further operations on this table.
        ack_receipt, ack_blocks = self._submit_and_mine(
            counterpart, "acknowledge_update",
            {"metadata_id": metadata_id, "update_id": update_id},
        )
        trace.blocks_created += ack_blocks
        trace.add_step(counterpart, "acknowledge",
                       "acknowledged the update on the smart contract",
                       self._clock.now(), block_number=ack_receipt.block_number,
                       success=ack_receipt.success)
        if not ack_receipt.success:
            raise WorkflowError(
                f"acknowledgement by {counterpart!r} failed: {ack_receipt.error}"
            )

        # Step 6 and steps 7-11: both the peer that absorbed the update (the
        # counterpart) and — when it reflected a direct edit into its own base
        # table — the initiator must check whether other shared pieces derived
        # from the same base table changed, and re-share them.
        self._cascade(counterpart, metadata_id, trace, depth, source_diff=source_diff)
        if initiator_reflected:
            self._cascade(initiator, metadata_id, trace, depth,
                          source_diff=initiator_source_diff)

        trace.succeeded = True
        self._notify_change(metadata_id, operation, (initiator, counterpart), diff)

    # ----------------------------------------------------- delta/full dispatch

    def _install_initiator_view(self, app, metadata_id: str, diff: TableDiff,
                                candidate_view: Optional[Table],
                                from_get: bool) -> None:
        """Install the accepted change into the initiator's stored shared table.

        Delta mode patches only the changed rows; ``from_get`` marks diffs
        computed in the ``get`` direction (propagations and cascade legs),
        which additionally run the sampled full-``get`` verification.  Full
        mode keeps the seed behaviour (whole-table replace/refresh).
        """
        if candidate_view is not None:
            app.manager.replace_shared_table(metadata_id, candidate_view)
        elif self.delta_enabled:
            if from_get:
                app.manager.refresh_shared_table_delta(metadata_id, diff)
            else:
                app.manager.apply_incoming_diff(metadata_id, diff)
        else:
            app.manager.refresh_shared_table(metadata_id)

    def _reflect(self, app, metadata_id: str, view_diff: TableDiff) -> TableDiff:
        """Run the ``put`` direction: incrementally when enabled, else fully."""
        with self.tracer.span("delta.leg", peer=app.peer.name,
                              metadata_id=metadata_id,
                              delta=self.delta_enabled) as span:
            if self.delta_enabled:
                result = app.manager.reflect_shared_table_delta(metadata_id,
                                                                view_diff)
            else:
                result = app.manager.reflect_shared_table(metadata_id)
            span.annotate(rows=len(result))
            return result

    def _cascade(self, peer_name: str, metadata_id: str, trace: WorkflowTrace,
                 depth: int, source_diff: Optional[TableDiff] = None) -> None:
        """Check dependent shared views of ``peer_name`` and propagate changes.

        When the base-table diff of the triggering ``put`` is known and delta
        propagation is on, each dependent lens translates that diff forward
        (O(changed rows)) instead of re-running its full ``get``.

        With more than one consensus lane and more than one affected
        dependent, the legs commit through the batched parallel path
        (:meth:`_cascade_parallel`); single-lane systems always take the
        sequential loop below, byte-identical to the seed behaviour.
        """
        app = self._app(peer_name)
        if self.delta_enabled and source_diff is not None:
            dependents = app.manager.changed_dependents_delta(metadata_id, source_diff)
        else:
            dependents = app.manager.changed_dependents(metadata_id)
        trace.add_step(peer_name, "check_dependencies",
                       f"{len(dependents)} dependent shared table(s) affected",
                       self._clock.now(), dependents=sorted(dependents))
        legs = sorted(dependents.items())
        router = self.system.simulator.router
        if self.parallel_enabled and router.num_shards > 1 and len(legs) > 1:
            self._cascade_parallel(peer_name, trace, depth, legs)
            return
        for dependent_id, dependent_diff in legs:
            trace.cascaded_metadata_ids.append(dependent_id)
            trace.add_step(peer_name, "bx_get",
                           f"regenerate dependent shared view {dependent_id!r} "
                           f"({len(dependent_diff)} row change(s))", self._clock.now(),
                           rows_changed=len(dependent_diff))
            with self.tracer.span("cascade.leg", peer=peer_name,
                                  metadata_id=dependent_id, depth=depth,
                                  lane=router.shard_of(dependent_id),
                                  rows=len(dependent_diff)) as span:
                try:
                    self._run_protocol(peer_name, dependent_id, "update",
                                       dependent_diff, trace,
                                       install_initiator_view=True,
                                       reflect_initiator_source=False,
                                       depth=depth + 1)
                    app.manager.clear_view_unhealed(dependent_id)
                except UpdateRejected as exc:
                    # A rejected cascade leg does not undo the already-accepted
                    # primary update; the peer simply keeps its other shared
                    # piece unchanged and the trace records the refusal.  The
                    # dependent view now lags its base table, so the delta
                    # dependency check must diff it exactly until a leg goes
                    # through again.
                    app.manager.mark_view_unhealed(dependent_id)
                    span.annotate(rejected=True)
                    trace.add_step(peer_name, "cascade_rejected", str(exc),
                                   self._clock.now())

    def _cascade_parallel(self, peer_name: str, trace: WorkflowTrace, depth: int,
                          legs: Sequence[Tuple[str, TableDiff]]) -> None:
        """Propagate one peer's cascade legs through *shared* consensus rounds.

        The sequential loop above costs two mining rounds per leg; here every
        leg's request transaction mines in one shared round and every
        acknowledgement in a second (the :meth:`commit_entry_batch` shape).
        The ledger-free middle of each leg — notification, data transfer,
        counterpart ``put`` — runs between the two rounds, one leg after
        another in sorted leg order.  Simulated-clock advances are additive,
        so resulting table states and fingerprints are byte-identical to the
        sequential path.  A rejected leg leaves exactly the sequential
        bookkeeping (failed trace fields, an unhealed-view mark, a
        ``cascade_rejected`` step) without aborting the batch.
        """
        if depth + 1 > 8:
            raise WorkflowError("propagation cascade exceeded the supported depth")
        app = self._app(peer_name)
        peer = self._peer(peer_name)
        router = self.system.simulator.router

        # Phase A (sorted): record each leg and build + locally ingest its
        # request transaction (keeping the initiator's nonces sequential).
        # Then one shared consensus round mines every request.
        prepared: List[Dict[str, Any]] = []
        request_submissions: List[Tuple[str, Any]] = []
        for dependent_id, diff in legs:
            trace.cascaded_metadata_ids.append(dependent_id)
            trace.add_step(peer_name, "bx_get",
                           f"regenerate dependent shared view {dependent_id!r} "
                           f"({len(diff)} row change(s))", self._clock.now(),
                           rows_changed=len(diff))
            agreement = peer.agreement(dependent_id)
            counterpart = agreement.counterparty_of(peer_name)
            changed = self._changed_attributes(diff, agreement)
            tx = app.build_contract_call(
                "request_update",
                {"metadata_id": dependent_id,
                 "changed_attributes": list(changed),
                 "diff_hash": self._diff_hash(diff)},
            )
            if not app.node.receive_transaction(tx):
                raise WorkflowError(
                    f"cascade request for {dependent_id!r} rejected by "
                    f"{app.node.name!r}'s mempool"
                )
            request_submissions.append((app.node.name, tx))
            prepared.append({
                "dependent_id": dependent_id,
                "diff": diff,
                "changed": changed,
                "counterpart": counterpart,
                "lane": router.shard_of(dependent_id),
                "tx": tx,
            })
        with self.tracer.span("consensus.round", phase="cascade_requests",
                              legs=len(prepared), depth=depth) as span:
            self.system.simulator.submit_transaction_batch(request_submissions)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        trace.blocks_created += blocks

        # Phase B (sorted): read each receipt; install accepted legs
        # on the initiator side, leave rejected ones with the sequential
        # path's bookkeeping.
        active: List[Dict[str, Any]] = []
        for leg in prepared:
            dependent_id = leg["dependent_id"]
            diff = leg["diff"]
            receipt = app.node.chain.receipt(leg["tx"].tx_hash)
            trace.add_step(peer_name, "contract_request",
                           f"send update request for attributes {list(leg['changed'])}",
                           self._clock.now(), block_number=receipt.block_number,
                           success=receipt.success, error=receipt.error)
            if not receipt.success:
                trace.succeeded = False
                trace.error = receipt.error
                with self.tracer.span("cascade.leg", peer=peer_name,
                                      metadata_id=dependent_id, depth=depth,
                                      lane=leg["lane"], rows=len(diff)) as span:
                    span.annotate(rejected=True)
                app.manager.mark_view_unhealed(dependent_id)
                trace.add_step(
                    peer_name, "cascade_rejected",
                    f"update on {dependent_id!r} by {peer_name} rejected: "
                    f"{receipt.error}",
                    self._clock.now())
                continue
            leg["update_id"] = int(receipt.return_value["update_id"])
            self._install_initiator_view(app, dependent_id, diff, None,
                                         from_get=True)
            app.outgoing_diffs[dependent_id] = diff
            active.append(leg)
        if not active:
            return

        # Phase B2 (serial, sorted): the ledger-free middle of each accepted
        # leg — notification, data transfer, counterpart ``put`` — ending in
        # the counterpart's locally ingested acknowledgement.
        for leg in active:
            dependent_id = leg["dependent_id"]
            diff = leg["diff"]
            counterpart = leg["counterpart"]
            counterpart_app = self._app(counterpart)
            update_id = leg["update_id"]
            with self.tracer.span("cascade.leg", peer=peer_name,
                                  metadata_id=dependent_id, depth=depth,
                                  lane=leg["lane"], rows=len(diff)):
                notifications = counterpart_app.pop_notifications(dependent_id)
                if not any(n.update_id == update_id for n in notifications):
                    raise WorkflowError(
                        f"peer {counterpart!r} did not receive the contract "
                        f"notification for update {update_id} on {dependent_id!r}"
                    )
                trace.add_step(counterpart, "notified",
                               f"received contract notification (update #{update_id})",
                               self._clock.now(), update_id=update_id)
                counterpart_app.request_shared_data(dependent_id, peer_name,
                                                    since_update=update_id)
                transfer = app.serve_shared_data(dependent_id, counterpart,
                                                 mode="diff")
                counterpart_app.receive_shared_data(dependent_id, transfer)
                trace.add_step(counterpart, "fetch_data",
                               f"fetched updated shared data ({transfer.kind}, "
                               f"{transfer.size_bytes} bytes)", self._clock.now(),
                               transfer_kind=transfer.kind,
                               bytes=transfer.size_bytes)
                leg["counterpart_diff"] = self._reflect(counterpart_app,
                                                        dependent_id, diff)
                trace.add_step(counterpart, "bx_put",
                               f"reflect shared-table change into local base "
                               f"table ({len(leg['counterpart_diff'])} row change(s))",
                               self._clock.now(),
                               rows_changed=len(leg["counterpart_diff"]))
                leg["ack_tx"] = counterpart_app.build_contract_call(
                    "acknowledge_update",
                    {"metadata_id": dependent_id, "update_id": update_id},
                )
                counterpart_app.node.receive_transaction(leg["ack_tx"])

        # Phase B3: one shared consensus round for every
        # acknowledgement.
        ack_submissions = [(self._app(leg["counterpart"]).node.name, leg["ack_tx"])
                           for leg in active]
        with self.tracer.span("consensus.round", phase="cascade_acks",
                              legs=len(active), depth=depth) as span:
            self.system.simulator.submit_transaction_batch(ack_submissions)
            blocks = self._mine()
            span.annotate(blocks=blocks)
        trace.blocks_created += blocks

        # Phase C (sorted): confirm acknowledgements, recurse into
        # each counterpart's own cascade (which may batch again), fire the
        # change listeners and heal the view bookkeeping.
        for leg in active:
            dependent_id = leg["dependent_id"]
            counterpart = leg["counterpart"]
            counterpart_app = self._app(counterpart)
            ack_receipt = counterpart_app.node.chain.receipt(leg["ack_tx"].tx_hash)
            trace.add_step(counterpart, "acknowledge",
                           "acknowledged the update on the smart contract",
                           self._clock.now(), block_number=ack_receipt.block_number,
                           success=ack_receipt.success)
            if not ack_receipt.success:
                raise WorkflowError(
                    f"acknowledgement by {counterpart!r} failed: {ack_receipt.error}"
                )
            self._cascade(counterpart, dependent_id, trace, depth + 1,
                          source_diff=leg["counterpart_diff"])
            trace.succeeded = True
            self._notify_change(dependent_id, "update", (peer_name, counterpart),
                                leg["diff"])
            app.manager.clear_view_unhealed(dependent_id)
