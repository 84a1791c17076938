"""Deterministic in-memory blockchain: blocks, mempool, and publishing modes.

The simulator runs on a logical clock. Block production times are drawn from
an exponential distribution with a configurable mean, from a seeded RNG, so
identical (seed, scenario) pairs replay bit-identically. Blocks fill from
the mempool by fee priority (then arrival order) up to a capacity, and a
child is eligible as soon as its parent is confirmed or included earlier in
the same block, which lets whole unconfirmed chains confirm at once.

Block assembly is incremental: the simulator keeps, across blocks, a heap of
ready transactions keyed by fee, then arrival, and a count of unpicked
in-mempool parents for every other mempool transaction. Picking a parent
decrements its children's counts, and a child whose count reaches zero joins
the heap, so it can follow its parent into the same block.

Conflicting spends of an outpoint are rejected first-seen; a conflict that
nevertheless wins (another participant's alternative spend chosen by the
network) is injected through :meth:`ChainSim.force_conflict`, which drops
the loser and its entire descendant chain from the mempool.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .encoding import (
    EnrichedTransaction,
    OutputKind,
    TransactionInvariantError,
    TxOutput,
    tx_from_hex,
    tx_to_hex,
)
from .engine import Keypair, ScriptValidationError, Spendable, validate_transaction_scripts

GENESIS_TIME = 1_700_000_000  # logical epoch; keeps timestamps in 4 bytes


class ChainError(Exception):
    pass


class TxEvicted(ChainError):
    def __init__(self, tx_id: bytes):
        super().__init__(f"transaction {tx_id.hex()} was evicted with its pending chain")
        self.tx_id = tx_id


class PublishError(ChainError):
    pass


class DumpFormatError(ChainError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    block_interval_mean: float = 600.0
    block_capacity: int = 1500
    relay_min_fee: int = 1
    produce_empty_blocks: bool = True


@dataclass(frozen=True)
class BroadcastResult:
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class ConfirmationStatus:
    tx_id: bytes
    state: str  # "pending" | "confirmed" | "evicted" | "unknown"
    depth: int = 0


@dataclass
class Block:
    height: int
    timestamp: int
    txs: list[EnrichedTransaction] = field(default_factory=list)
    produced_at: float = 0.0  # exact production instant; timestamp is the
    # whole-second value that goes into data blocks and dumps


@dataclass(frozen=True)
class PublishReport:
    per_tx_waits: tuple[float, ...]
    total_duration: float


class ChainSim:
    """Single chain, no reorgs; every public method is safe to call from the
    event-driving harness thread."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.now: float = float(GENESIS_TIME)
        self.blocks: list[Block] = []
        self._tx_at: dict[bytes, tuple[EnrichedTransaction, int | None]] = {}
        self._mempool: dict[bytes, tuple[EnrichedTransaction, int, int, float]] = {}
        # outpoint -> spending txid, across chain and mempool; first seen wins
        self._spender: dict[tuple[bytes, int], bytes] = {}
        self._children: dict[bytes, set[bytes]] = {}
        # block assembly state: mempool txid -> number of distinct parents
        # still in the mempool, and a heap of (-fee, seq, txid) for mempool
        # transactions with no such parent; heap entries of evicted
        # transactions stay until popped and are skipped then
        self._waiting: dict[bytes, int] = {}
        self._ready: list[tuple[int, int, bytes]] = []
        self._evicted: set[bytes] = set()
        self._arrivals: dict[bytes, float] = {}
        self._arrival_seq = 0
        self._next_block_at = self.now + self._interval()
        self.phase_recorder: Callable[[float, str], None] | None = None
        # command interface is reentrant-lock protected so participant
        # actors may drive it from threads; the default harness is
        # single-threaded and pays only the uncontended cost
        self._lock = threading.RLock()

    def _interval(self) -> float:
        return self.rng.expovariate(1.0 / self.config.block_interval_mean)

    # --- views ------------------------------------------------------------------

    def get_transaction(self, tx_id: bytes) -> EnrichedTransaction | None:
        entry = self._tx_at.get(tx_id)
        return entry[0] if entry else None

    def get_spender(self, outpoint: tuple[bytes, int]) -> bytes | None:
        return self._spender.get(outpoint)

    def resolve_output(self, outpoint: tuple[bytes, int]) -> TxOutput | None:
        entry = self._tx_at.get(outpoint[0])
        if entry is None or outpoint[1] >= len(entry[0].outputs):
            return None
        return entry[0].outputs[outpoint[1]]

    def confirmation_status(self, tx_id: bytes) -> ConfirmationStatus:
        if tx_id in self._evicted:
            return ConfirmationStatus(tx_id, "evicted")
        entry = self._tx_at.get(tx_id)
        if entry is None:
            return ConfirmationStatus(tx_id, "unknown")
        _, height = entry
        if height is None:
            return ConfirmationStatus(tx_id, "pending", 0)
        return ConfirmationStatus(tx_id, "confirmed", len(self.blocks) - height)

    @property
    def mempool_ids(self) -> list[bytes]:
        # only _admit inserts into _mempool, in increasing seq, so the
        # dict's insertion order is arrival order
        return list(self._mempool)

    def all_transactions(self) -> Iterator[EnrichedTransaction]:
        for block in self.blocks:
            yield from block.txs
        for tx_id in self.mempool_ids:
            yield self._mempool[tx_id][0]

    # --- broadcasting --------------------------------------------------------------

    def broadcast(self, tx: EnrichedTransaction) -> BroadcastResult:
        with self._lock:
            return self._broadcast(tx)

    def _broadcast(self, tx: EnrichedTransaction) -> BroadcastResult:
        try:
            tx_id = tx.tx_id  # serializes, so it checks the structure
        except TransactionInvariantError as exc:
            return BroadcastResult(False, f"invalid: {exc}")
        if tx_id in self._tx_at:
            return BroadcastResult(False, "duplicate")
        if tx.is_coinbase:
            return BroadcastResult(False, "coinbase outside block")
        input_total = 0
        for txin in tx.inputs:
            out = self.resolve_output(txin.outpoint)
            if out is None:
                return BroadcastResult(False, "missing-input")
            if out.kind == OutputKind.DATA:
                return BroadcastResult(False, "script: spends a data output")
            if txin.outpoint in self._spender:
                return BroadcastResult(False, "conflict")
            input_total += out.value
        fee = input_total - sum(o.value for o in tx.outputs)
        if fee < self.config.relay_min_fee:
            return BroadcastResult(False, "fee-below-minimum")
        try:
            validate_transaction_scripts(tx, self)
        except ScriptValidationError as exc:
            return BroadcastResult(False, f"script: {exc}")
        self._admit(tx, fee)
        return BroadcastResult(True)

    def _admit(self, tx: EnrichedTransaction, fee: int) -> None:
        tx_id = tx.tx_id
        self._arrival_seq += 1
        parents = {txin.prev_tx_id for txin in tx.inputs if txin.prev_tx_id in self._mempool}
        self._mempool[tx_id] = (tx, fee, self._arrival_seq, self.now)
        self._tx_at[tx_id] = (tx, None)
        self._evicted.discard(tx_id)  # an evicted transaction may come back
        for txin in tx.inputs:
            self._spender[txin.outpoint] = tx_id
        for parent in parents:
            self._children.setdefault(parent, set()).add(tx_id)
        if parents:
            self._waiting[tx_id] = len(parents)
        else:
            heapq.heappush(self._ready, (-fee, self._arrival_seq, tx_id))

    def force_conflict(self, tx: EnrichedTransaction) -> set[bytes]:
        """Admit a conflicting spend as the network's pick, evicting the
        first-seen transaction and its whole descendant chain. Returns the
        evicted ids."""
        with self._lock:
            return self._force_conflict(tx)

    def _force_conflict(self, tx: EnrichedTransaction) -> set[bytes]:
        losers: set[bytes] = set()
        for txin in tx.inputs:
            holder = self._spender.get(txin.outpoint)
            if holder is not None and holder in self._mempool:
                losers.add(holder)
            elif holder is not None:
                raise ChainError("cannot conflict an already confirmed spend")
        evicted: set[bytes] = set()
        frontier = list(losers)
        while frontier:
            victim = frontier.pop()
            if victim in evicted or victim not in self._mempool:
                continue
            evicted.add(victim)
            frontier.extend(self._children.get(victim, ()))
        for victim in evicted:
            vtx, _, _, _ = self._mempool.pop(victim)
            del self._tx_at[victim]
            self._children.pop(victim, None)
            self._waiting.pop(victim, None)
            for txin in vtx.inputs:
                if self._spender.get(txin.outpoint) == victim:
                    del self._spender[txin.outpoint]
            self._evicted.add(victim)
        result = self._broadcast(tx)
        if not result.accepted:
            raise ChainError(f"forced conflict not broadcastable: {result.reason}")
        return evicted

    # --- time and mining ---------------------------------------------------------------

    def advance_time(self, dt: float, phase: str = "idle") -> list[Block]:
        """Move the logical clock forward, producing every block whose
        scheduled time falls inside the window."""
        with self._lock:
            return self._advance_time(dt, phase)

    def _advance_time(self, dt: float, phase: str) -> list[Block]:
        if dt < 0:
            raise ValueError("time cannot run backwards")
        if self.phase_recorder:
            self.phase_recorder(dt, phase)
        target = self.now + dt
        produced = []
        while self._next_block_at <= target:
            self.now = self._next_block_at
            block = self._produce_block()
            if block is not None:
                produced.append(block)
            self._next_block_at = self.now + self._interval()
        self.now = target
        return produced

    def mine_pending(self) -> Block | None:
        """Force a block at the current instant (test and tooling hook)."""
        with self._lock:
            block = self._produce_block()
            self._next_block_at = self.now + self._interval()
            return block

    def _produce_block(self) -> Block | None:
        block = Block(len(self.blocks), int(self.now), produced_at=self.now)
        # fee priority, then arrival; a child enters the heap once its last
        # in-mempool parent is picked, for this block or a later one
        while self._ready and len(block.txs) < self.config.block_capacity:
            _, seq, tx_id = heapq.heappop(self._ready)
            entry = self._mempool.get(tx_id)
            if entry is None or entry[2] != seq:
                continue  # evicted, possibly broadcast again under a new seq
            del self._mempool[tx_id]
            tx, _, _, arrived = entry
            self._arrivals[tx_id] = arrived
            self._tx_at[tx_id] = (tx, block.height)
            block.txs.append(tx)
            for child in self._children.pop(tx_id, ()):
                left = self._waiting.get(child)
                if left is None:
                    continue  # evicted since it was recorded
                if left > 1:
                    self._waiting[child] = left - 1
                    continue
                del self._waiting[child]
                _, fee, child_seq, _ = self._mempool[child]
                heapq.heappush(self._ready, (-fee, child_seq, child))
        if not block.txs and not self.config.produce_empty_blocks and self.blocks:
            return None
        self.blocks.append(block)
        return block

    # --- confirmation waits ----------------------------------------------------------

    def await_confirmation(self, tx_id: bytes, depth: int = 1) -> float:
        """Advance simulated time until the transaction reaches the given
        confirmation depth; returns the simulated seconds waited."""
        start = self.now
        if depth <= 0:
            return 0.0
        for _ in range(100_000):
            status = self.confirmation_status(tx_id)
            if status.state == "evicted":
                raise TxEvicted(tx_id)
            if status.state == "unknown":
                raise ChainError(f"transaction {tx_id.hex()} never broadcast")
            if status.state == "confirmed" and status.depth >= depth:
                return self.now - start
            self.advance_time(self._next_block_at - self.now, phase="confirm")
        raise ChainError("confirmation wait exceeded 100,000 blocks")

    def confirmation_wait(self, tx_id: bytes) -> float | None:
        """Broadcast-to-first-confirmation span, once confirmed."""
        entry = self._tx_at.get(tx_id)
        if entry is None or entry[1] is None:
            return None
        arrived = self._arrivals.get(tx_id)
        if arrived is None:
            return None
        return self.blocks[entry[1]].produced_at - arrived

    def publish_sequence(self, txs: list[EnrichedTransaction], greedy: bool) -> PublishReport:
        """Publish a dependency-ordered chain of transactions.

        Non-greedy waits for each confirmation before broadcasting the next;
        greedy broadcasts the whole chain immediately and waits once for all
        of them.
        """
        start = self.now
        ids = []
        if greedy:
            for tx in txs:
                result = self.broadcast(tx)
                if not result.accepted:
                    raise PublishError(result.reason)
                ids.append(tx.tx_id)
            for tx_id in ids:
                self.await_confirmation(tx_id, 1)
        else:
            for tx in txs:
                result = self.broadcast(tx)
                if not result.accepted:
                    raise PublishError(result.reason)
                ids.append(tx.tx_id)
                self.await_confirmation(tx.tx_id, 1)
        waits = tuple(self.confirmation_wait(tx_id) for tx_id in ids)
        return PublishReport(waits, self.now - start)

    # --- funding -----------------------------------------------------------------------

    def grant(self, key: Keypair, values: list[int]) -> list[Spendable]:
        """Mint spendable key-hash outputs in an immediate block (faucet)."""
        with self._lock:
            return self._grant(key, values)

    def _grant(self, key: Keypair, values: list[int]) -> list[Spendable]:
        tx = EnrichedTransaction(
            inputs=(),
            outputs=tuple(TxOutput.to_key_hash(v, key.key_hash) for v in values),
        )
        tx_id = tx.tx_id
        if tx_id in self._tx_at:
            raise ChainError(f"grant {tx_id.hex()} repeats a transaction already on the chain")
        height = len(self.blocks)
        self._tx_at[tx_id] = (tx, height)
        self._arrivals[tx_id] = self.now
        self.blocks.append(Block(height, int(self.now), [tx], produced_at=self.now))
        return [Spendable(tx_id, i, v, key) for i, v in enumerate(values)]

    # --- dump / load -------------------------------------------------------------------

    def dump(self) -> str:
        header = {
            "seed": self.config.seed,
            "block_interval_mean": self.config.block_interval_mean,
            "block_capacity": self.config.block_capacity,
            "relay_min_fee": self.config.relay_min_fee,
            "time": self.now,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for block in self.blocks:
            lines.append(f"block {block.height} {block.timestamp}")
            lines.extend(tx_to_hex(tx) for tx in block.txs)
        lines.append("mempool")
        lines.extend(tx_to_hex(self._mempool[t][0]) for t in self.mempool_ids)
        return "\n".join(lines) + "\n"


class StaticChainView:
    """Read-only chain view parsed from a dump; used by audits."""

    def __init__(self, header: dict, blocks: list[Block], mempool: list[EnrichedTransaction]):
        self.header = header
        self.blocks = blocks
        self.mempool = mempool
        self._tx_at: dict[bytes, tuple[EnrichedTransaction, int | None]] = {}
        self._spender: dict[tuple[bytes, int], bytes] = {}
        for block in blocks:
            for tx in block.txs:
                self._index(tx, block.height)
        for tx in mempool:
            self._index(tx, None)

    def _index(self, tx: EnrichedTransaction, height: int | None) -> None:
        tx_id = tx.tx_id
        self._tx_at[tx_id] = (tx, height)
        for txin in tx.inputs:
            self._spender[txin.outpoint] = tx_id

    def get_transaction(self, tx_id: bytes) -> EnrichedTransaction | None:
        entry = self._tx_at.get(tx_id)
        return entry[0] if entry else None

    def get_spender(self, outpoint: tuple[bytes, int]) -> bytes | None:
        return self._spender.get(outpoint)

    def confirmation_status(self, tx_id: bytes) -> ConfirmationStatus:
        entry = self._tx_at.get(tx_id)
        if entry is None:
            return ConfirmationStatus(tx_id, "unknown")
        if entry[1] is None:
            return ConfirmationStatus(tx_id, "pending", 0)
        return ConfirmationStatus(tx_id, "confirmed", len(self.blocks) - entry[1])

    def all_transactions(self) -> Iterator[EnrichedTransaction]:
        for block in self.blocks:
            yield from block.txs
        yield from self.mempool


def load_dump(text: str) -> StaticChainView:
    lines = text.splitlines()
    if not lines:
        raise DumpFormatError(1, "empty dump")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DumpFormatError(1, f"bad header: {exc}") from None
    blocks: list[Block] = []
    mempool: list[EnrichedTransaction] = []
    in_mempool = False
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line == "mempool":
            in_mempool = True
            continue
        if line.startswith("block "):
            if in_mempool:
                raise DumpFormatError(line_no, "block section after mempool")
            parts = line.split()
            if len(parts) != 3:
                raise DumpFormatError(line_no, "block line needs height and timestamp")
            try:
                blocks.append(Block(int(parts[1]), int(parts[2])))
            except ValueError:
                raise DumpFormatError(line_no, "block height/timestamp not integers") from None
            continue
        try:
            tx = tx_from_hex(line)
        except Exception as exc:
            raise DumpFormatError(line_no, f"bad transaction: {exc}") from None
        if in_mempool:
            mempool.append(tx)
        elif not blocks:
            raise DumpFormatError(line_no, "transaction before any block line")
        else:
            blocks[-1].txs.append(tx)
    return StaticChainView(header, blocks, mempool)
