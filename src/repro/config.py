"""System-wide configuration objects.

The reproduction is fully deterministic: anything that could depend on time or
randomness is parameterised here and driven either by a seed or by the
simulated clock (:class:`repro.ledger.clock.SimClock`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Valid WAL fsync policies (mirrors :mod:`repro.relational.durability`).
_FSYNC_POLICIES = ("always", "batch", "never")


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the on-disk durability subsystem.

    Attributes
    ----------
    state_dir:
        Directory where the gateway journals terminal responses (and where
        peers may checkpoint their databases).  ``None`` (the default) keeps
        everything in memory — the seed behaviour.
    fsync_policy:
        ``"always"`` fsyncs the WAL per append, ``"batch"`` fsyncs at commit
        boundaries (the default — one fsync per committed batch), ``"never"``
        flushes to the OS and lets it schedule the write.
    segment_max_bytes:
        WAL segment rotation threshold; smaller segments mean finer-grained
        truncation at checkpoints, at the cost of more files.
    response_retention:
        Cap on terminal responses the gateway keeps in memory; journaled
        responses evicted under the cap remain answerable from the WAL.
        ``None`` disables eviction.
    checkpoint_wal_bytes:
        Background-checkpoint trigger: when a durable peer's WAL exceeds
        this many bytes at a commit boundary, the gateway checkpoints that
        peer's database (snapshot + WAL truncation) inline with the commit.
        ``None`` (the default) disables the size trigger.
    checkpoint_interval:
        Background-checkpoint trigger in *simulated* seconds: durable peers
        are checkpointed at the first commit boundary at least this long
        after their previous checkpoint.  ``None`` disables the time trigger.
    journal_compact_bytes:
        Response-journal compaction trigger: when the journal's segment
        bytes exceed this threshold at a commit boundary, fully-superseded
        closed segments (every line re-recorded in a later segment) are
        removed.  ``None`` disables compaction.
    """

    state_dir: Optional[str] = None
    fsync_policy: str = "batch"
    segment_max_bytes: int = 1_000_000
    response_retention: Optional[int] = None
    checkpoint_wal_bytes: Optional[int] = None
    checkpoint_interval: Optional[float] = None
    journal_compact_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fsync_policy not in _FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync_policy!r}; "
                f"use one of {_FSYNC_POLICIES}")
        if self.segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        if self.response_retention is not None and self.response_retention < 1:
            raise ValueError("response_retention must be at least 1 (or None)")
        if self.checkpoint_wal_bytes is not None and self.checkpoint_wal_bytes <= 0:
            raise ValueError("checkpoint_wal_bytes must be positive (or None)")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        if self.journal_compact_bytes is not None and self.journal_compact_bytes <= 0:
            raise ValueError("journal_compact_bytes must be positive (or None)")


@dataclass(frozen=True)
class ConsensusConfig:
    """Configuration of the ledger consensus engine.

    Attributes
    ----------
    kind:
        ``"poa"`` (proof-of-authority, the private-chain deployment the paper
        recommends in §IV.3) or ``"pow"`` (a public-chain stand-in).
    block_interval:
        Target seconds of simulated time between blocks.  The paper quotes
        ~12 s for public Ethereum (§IV.1).
    pow_difficulty:
        Number of leading zero hex digits required of a PoW block hash.
    authorities:
        Addresses allowed to seal blocks under PoA.  Empty means "any node".
    """

    kind: str = "poa"
    block_interval: float = 12.0
    pow_difficulty: int = 3
    authorities: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("poa", "pow"):
            raise ValueError(f"unknown consensus kind: {self.kind!r}")
        if self.block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if self.pow_difficulty < 0:
            raise ValueError("pow_difficulty must be non-negative")


@dataclass(frozen=True)
class LedgerConfig:
    """Configuration of the simulated blockchain.

    Attributes
    ----------
    consensus_shards:
        Number of independent consensus *lanes* the ledger pipeline is
        sharded into.  Shared tables are routed to lanes by a stable hash of
        their metadata id; every lane has its own mempool shard and block
        budget, and lanes with pending work each seal a block in the same
        simulated block interval.  ``1`` (the default) keeps the single
        unsharded pipeline — byte-identical to the pre-sharding behaviour.
    """

    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    max_transactions_per_block: int = 64
    gas_limit_per_block: int = 8_000_000
    gas_per_transaction: int = 21_000
    gas_per_payload_byte: int = 16
    chain_id: int = 2019
    consensus_shards: int = 1

    def __post_init__(self) -> None:
        if self.max_transactions_per_block <= 0:
            raise ValueError("max_transactions_per_block must be positive")
        if self.gas_limit_per_block <= 0:
            raise ValueError("gas_limit_per_block must be positive")
        if self.consensus_shards < 1:
            raise ValueError("consensus_shards must be at least 1")


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of the simulated peer-to-peer network."""

    base_latency: float = 0.05
    latency_jitter: float = 0.02
    drop_rate: float = 0.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.latency_jitter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")


@dataclass(frozen=True)
class ResilienceConfig:
    """Configuration of the self-healing policies (retries, breakers,
    latency-aware admission, degraded reads).

    Attributes
    ----------
    retry_max_attempts / retry_base_delay / retry_multiplier / retry_max_delay /
    retry_jitter:
        The exponential-backoff :class:`~repro.chaos.RetryPolicy` applied to
        consensus rounds, gossip retransmissions and WAL appends when chaos
        wiring is attached.  Jitter is a deterministic fraction drawn from a
        seeded RNG, all delays are simulated seconds.
    breaker_failure_threshold / breaker_reset_timeout:
        Per-peer / per-lane circuit breakers: consecutive *infrastructure*
        failures (commit blow-ups, not contract rejections) before a breaker
        opens, and the simulated seconds before an open breaker admits a
        half-open probe.
    latency_target_p99:
        Commit-latency admission target in simulated seconds.  When set, the
        gateway sheds writes while the sliding-window p99 — or the predicted
        queueing delay at the current depth — exceeds the target.  ``None``
        (default) keeps queue-depth-only shedding.
    latency_window / latency_min_samples:
        Sliding window (simulated seconds) and minimum sample count before
        the p99 estimate participates in shed decisions.
    fair_queueing:
        When true, a tenant holding at least its fair share of the bounded
        write queue (capacity / active queued tenants) is shed before the
        queue is full, so one hot tenant cannot starve the fleet.
    degraded_reads / max_staleness:
        When degraded reads are enabled and the commit path is unhealthy
        (commit breaker open, or p99 over target), ``ReadViewRequest``s are
        answered from the ``ViewCache`` without touching the commit lock,
        marked ``degraded`` with their staleness; entries older than
        ``max_staleness`` simulated seconds are never served degraded.
    """

    retry_max_attempts: int = 4
    retry_base_delay: float = 0.05
    retry_multiplier: float = 2.0
    retry_max_delay: float = 2.0
    retry_jitter: float = 0.5
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 10.0
    latency_target_p99: Optional[float] = None
    latency_window: float = 30.0
    latency_min_samples: int = 5
    fair_queueing: bool = True
    degraded_reads: bool = False
    max_staleness: float = 30.0

    def __post_init__(self) -> None:
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be at least 1")
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.retry_multiplier < 1.0:
            raise ValueError("retry_multiplier must be >= 1")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be at least 1")
        if self.breaker_reset_timeout <= 0:
            raise ValueError("breaker_reset_timeout must be positive")
        if self.latency_target_p99 is not None and self.latency_target_p99 <= 0:
            raise ValueError("latency_target_p99 must be positive (or None)")
        if self.latency_window <= 0:
            raise ValueError("latency_window must be positive")
        if self.latency_min_samples < 1:
            raise ValueError("latency_min_samples must be at least 1")
        if self.max_staleness <= 0:
            raise ValueError("max_staleness must be positive")


@dataclass(frozen=True)
class ReplicationConfig:
    """Configuration of WAL-shipping read replicas.

    Attributes
    ----------
    replicas:
        Number of read-only follower replicas fed from the primary peers'
        JSONL WAL segments.  ``0`` (the default) disables replication and
        keeps the single-writer behaviour byte-identical to the seed.
        Requires ``durability.state_dir`` — replicas bootstrap from the
        checkpoint manifest and replay the shipped WAL tail.
    ship_interval:
        Simulated seconds between WAL shipments.  Shipping happens at commit
        boundaries, but a shipment is only published once the interval has
        elapsed since the previous one — this is the knob that creates
        (measurable) replica staleness.  ``0.0`` ships every commit.
    max_lag:
        Bounded-staleness routing cutoff in simulated seconds: a replica
        whose replayed-through timestamp trails the primary's last commit by
        more than this is skipped and the read falls back to the primary.
    read_service_time:
        Simulated seconds a replica spends serving one read (its service
        lane models a single-threaded follower), used to spread read load
        deterministically across the fleet.
    prewarm_cache:
        When true (the default), each commit's ``TableDiff`` pre-warms the
        replicas' view caches during replay, so a freshly replayed commit
        is immediately servable without a read-through miss.
    """

    replicas: int = 0
    ship_interval: float = 0.0
    max_lag: float = 30.0
    read_service_time: float = 0.002
    prewarm_cache: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")
        if self.ship_interval < 0:
            raise ValueError("ship_interval must be non-negative")
        if self.max_lag <= 0:
            raise ValueError("max_lag must be positive")
        if self.read_service_time < 0:
            raise ValueError("read_service_time must be non-negative")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration assembling every subsystem (Fig. 2).

    Attributes
    ----------
    delta_propagation:
        When true (the default) the update workflow pushes row-level
        ``TableDiff``s through lenses, indexes and caches (O(changed rows)
        per propagation leg) and only falls back to full ``get``/``put``
        recomputation where no delta translation exists.  When false, every
        leg recomputes whole tables (the seed behaviour).
    delta_verify_interval:
        Sampled correctness oracle of the delta path: every Nth delta
        application (the first included) is checked against a full
        recomputation via ``Table.fingerprint()``.  ``0`` disables checking.
    parallel_cascades:
        When true (the default) the Fig. 5 cascade legs of one propagation
        are batched into shared request/acknowledgement rounds, with each
        leg's counterpart-side work run serially between them.  Only takes
        effect with ``consensus_shards > 1`` — single-lane systems keep the
        sequential path byte-identical to the seed.  ``False`` keeps the
        two-rounds-per-leg sequential path as the oracle the E17 benchmark
        compares against.
    """

    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    check_lens_laws: bool = True
    audit_enabled: bool = True
    delta_propagation: bool = True
    delta_verify_interval: int = 16
    parallel_cascades: bool = True

    @property
    def consensus_shards(self) -> int:
        """Number of consensus lanes (see :attr:`LedgerConfig.consensus_shards`)."""
        return self.ledger.consensus_shards

    @staticmethod
    def private_chain(block_interval: float = 2.0,
                      consensus_shards: int = 1) -> "SystemConfig":
        """A convenient PoA configuration (the paper's recommended deployment)."""
        return SystemConfig(
            ledger=LedgerConfig(
                consensus=ConsensusConfig(kind="poa", block_interval=block_interval),
                consensus_shards=consensus_shards,
            )
        )

    @staticmethod
    def public_chain(block_interval: float = 12.0, difficulty: int = 3) -> "SystemConfig":
        """A public-Ethereum-like PoW configuration (§IV.1 / §IV.3)."""
        return SystemConfig(
            ledger=LedgerConfig(
                consensus=ConsensusConfig(
                    kind="pow",
                    block_interval=block_interval,
                    pow_difficulty=difficulty,
                )
            )
        )
