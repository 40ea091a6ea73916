"""A from-scratch simulated blockchain.

The paper delegates four responsibilities to the blockchain (§III-B):

1. keep the *permission metadata* of shared data on smart contracts;
2. reach consensus on update requests and serialise conflicting ones
   (one update transaction per shared table per block);
3. notify sharing peers that shared data changed;
4. provide an immutable, auditable history of updates.

This subpackage provides the ledger those responsibilities need, without an
external Ethereum/Fabric dependency:

* :mod:`repro.ledger.clock` — a simulated clock so block intervals (the ~12 s
  of §IV.1) are modelled without real waiting.
* :mod:`repro.ledger.transaction` / :mod:`repro.ledger.block` — signed
  transactions, Merkle-committed blocks, receipts.
* :mod:`repro.ledger.mempool` — the pending-transaction pool.
* :mod:`repro.ledger.gas` — a simple gas model (storage pressure benchmark).
* :mod:`repro.ledger.consensus` — proof-of-work and proof-of-authority seals.
* :mod:`repro.ledger.chain` — chain storage, validation and fork choice.
* :mod:`repro.ledger.state` — account/contract world state.
* :mod:`repro.ledger.events` — event logs emitted by contracts.
* :mod:`repro.ledger.miner` — the block producer enforcing the paper's
  one-update-per-shared-table-per-block rule.
* :mod:`repro.ledger.sharding` / :mod:`repro.ledger.lanes` — per-shard
  mempools and the lane scheduler that seals one block per shard inside one
  simulated block interval (``LedgerConfig.consensus_shards``).
"""

from repro.ledger.clock import SimClock
from repro.ledger.transaction import Transaction, TransactionReceipt
from repro.ledger.block import Block, BlockHeader
from repro.ledger.mempool import Mempool
from repro.ledger.gas import GasSchedule, transaction_gas
from repro.ledger.consensus import ConsensusEngine, ProofOfAuthority, ProofOfWork, make_consensus
from repro.ledger.state import WorldState, Account
from repro.ledger.events import EventLog, LogEntry
from repro.ledger.chain import Blockchain
from repro.ledger.lanes import HeldClock, LaneScheduler
from repro.ledger.miner import Miner
from repro.ledger.sharding import ShardedMempool, ShardRouter

__all__ = [
    "SimClock",
    "Transaction",
    "TransactionReceipt",
    "Block",
    "BlockHeader",
    "Mempool",
    "GasSchedule",
    "transaction_gas",
    "ConsensusEngine",
    "ProofOfAuthority",
    "ProofOfWork",
    "make_consensus",
    "WorldState",
    "Account",
    "EventLog",
    "LogEntry",
    "Blockchain",
    "HeldClock",
    "LaneScheduler",
    "Miner",
    "ShardRouter",
    "ShardedMempool",
]
