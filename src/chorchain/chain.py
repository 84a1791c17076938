"""Deterministic in-memory blockchain: one chain index, blocks and mempool.

:class:`ChainIndex` holds a chain's transactions by id, each with its block
height, and the spender of every spent outpoint; it refuses a repeated txid
and a second spend of an outpoint. :func:`load_dump` builds one from a dump,
line by line, and also refuses an input that spends a later line;
:class:`ChainSim` keeps its mempool, block assembly and evictions on top of
one.

The simulator runs on a logical clock. Block production times are drawn from
an exponential distribution with a configurable mean, from a seeded RNG, so
identical (seed, scenario) pairs replay bit-identically. Every advance
names a phase (task, logic, provider, ...), and the simulator tallies the
seconds of each in ``phase_seconds``. Blocks fill from the mempool by fee
priority (then arrival order) up to a capacity, and a child is eligible as
soon as its parent is confirmed or included earlier in the same block,
which lets whole unconfirmed chains confirm at once.

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
import math
import random
from dataclasses import dataclass, field
from typing import Container, Iterator

from .encoding import (
    EncodingError,
    EnrichedTransaction,
    OutputKind,
    TxOutput,
    tx_from_hex,
    tx_to_hex,
)
from .engine import Keypair, ScriptValidationError, Spendable, validate_transaction_scripts

GENESIS_TIME = 1_700_000_000  # logical epoch; keeps timestamps in 4 bytes
RELAY_MIN_FEE = 1  # satoshi; a transaction paying less is refused


class ChainError(Exception):
    pass


class TxEvicted(ChainError):
    def __init__(self, tx_id: bytes):
        super().__init__(f"transaction {tx_id.hex()} was evicted with its pending chain")
        self.tx_id = tx_id


class DumpFormatError(ChainError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    block_interval_mean: float = 600.0
    block_capacity: int = 1500

    def __post_init__(self) -> None:
        # at 0 or infinity the interval divides by zero; below 0, each block
        # falls due before the last one and advance_time's loop never ends
        if not 0 < self.block_interval_mean < math.inf:
            raise ValueError("mean block interval must be a finite number above 0")


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


class ChainIndex:
    """One chain's transactions, each by id with its block height (None while
    in the mempool), and the spender of every spent outpoint, across blocks
    and mempool. A loaded dump is one; the simulator builds on one."""

    def __init__(self):
        self.blocks: list[Block] = []
        self._tx_at: dict[bytes, tuple[EnrichedTransaction, int | None]] = {}
        self._spender: dict[tuple[bytes, int], bytes] = {}

    def add(self, tx: EnrichedTransaction, height: int | None) -> None:
        """Index ``tx`` at ``height``. A repeated txid or a second spend of an
        outpoint raises :class:`ChainError`: no valid chain holds either."""
        tx_id = tx.tx_id
        if tx_id in self._tx_at:
            raise ChainError(f"transaction {tx_id.hex()} is already on the chain")
        for txin in tx.inputs:
            spender = self._spender.get(txin.outpoint)
            if spender is not None:
                raise ChainError(
                    f"output {txin.prev_tx_id.hex()}:{txin.prev_output_index} "
                    f"already spent by {spender.hex()}"
                )
        self._tx_at[tx_id] = (tx, height)
        for txin in tx.inputs:
            self._spender[txin.outpoint] = tx_id

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
        entry = self._tx_at.get(tx_id)
        if entry is None:
            return ConfirmationStatus(tx_id, "unknown")
        _, height = entry
        if height is None:
            return ConfirmationStatus(tx_id, "pending", 0)
        return ConfirmationStatus(tx_id, "confirmed", len(self.blocks) - height)

    def all_transactions(self) -> Iterator[EnrichedTransaction]:
        """Block transactions in block order, then the mempool in arrival
        order (the order in which they were indexed)."""
        for block in self.blocks:
            yield from block.txs
        for tx, height in self._tx_at.values():
            if height is None:
                yield tx


class ChainSim(ChainIndex):
    """Single chain, no reorgs, driven synchronously by the harness."""

    def __init__(self, config: SimConfig):
        super().__init__()
        self.config = config
        self.rng = random.Random(config.seed)
        self.now: float = float(GENESIS_TIME)
        self._mempool: dict[bytes, tuple[EnrichedTransaction, int, int, float]] = {}
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
        self.phase_seconds: dict[str, float] = {}  # simulated seconds by phase

    def _interval(self) -> float:
        return self.rng.expovariate(1.0 / self.config.block_interval_mean)

    # --- views ------------------------------------------------------------------

    def confirmation_status(self, tx_id: bytes) -> ConfirmationStatus:
        if tx_id in self._evicted:
            return ConfirmationStatus(tx_id, "evicted")
        return super().confirmation_status(tx_id)

    @property
    def mempool_ids(self) -> list[bytes]:
        # only _admit inserts into _mempool, in increasing seq, so the
        # dict's insertion order is arrival order
        return list(self._mempool)

    # --- broadcasting --------------------------------------------------------------

    def broadcast(self, tx: EnrichedTransaction) -> BroadcastResult:
        reason, fee = self._refusal(tx)
        if reason is not None:
            return BroadcastResult(False, reason)
        self._admit(tx, fee)
        return BroadcastResult(True)

    def _refusal(
        self, tx: EnrichedTransaction, gone: Container[bytes] = frozenset()
    ) -> tuple[str | None, int]:
        """Why ``tx`` would be refused, or None and its fee if it would be
        admitted, as if the mempool transactions in ``gone`` were evicted."""
        try:
            tx_id = tx.tx_id  # serializes, so it checks the structure and push sizes
        except EncodingError as exc:
            return f"invalid: {exc}", 0
        if tx_id in self._tx_at and tx_id not in gone:
            return "duplicate", 0
        if tx.is_coinbase:
            return "coinbase outside block", 0
        input_total = 0
        for txin in tx.inputs:
            out = None if txin.prev_tx_id in gone else self.resolve_output(txin.outpoint)
            if out is None:
                return "missing-input", 0
            if out.kind == OutputKind.DATA:
                return "script: spends a data output", 0
            spender = self._spender.get(txin.outpoint)
            if spender is not None and spender not in gone:
                return "conflict", 0
            input_total += out.value
        fee = input_total - sum(o.value for o in tx.outputs)
        if fee < RELAY_MIN_FEE:
            return "fee-below-minimum", 0
        try:
            validate_transaction_scripts(tx, self)
        except ScriptValidationError as exc:
            return f"script: {exc}", 0
        return None, fee

    def _admit(self, tx: EnrichedTransaction, fee: int) -> None:
        tx_id = tx.tx_id
        self._arrival_seq += 1
        parents = {txin.prev_tx_id for txin in tx.inputs if txin.prev_tx_id in self._mempool}
        self._mempool[tx_id] = (tx, fee, self._arrival_seq, self.now)
        self.add(tx, None)
        self._evicted.discard(tx_id)  # an evicted transaction may come back
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
        # check before evicting, so a refused winner leaves the mempool as it was
        reason, fee = self._refusal(tx, evicted)
        if reason is not None:
            raise ChainError(f"forced conflict not broadcastable: {reason}")
        for victim in evicted:
            vtx, _, _, _ = self._mempool.pop(victim)
            del self._tx_at[victim]
            self._children.pop(victim, None)
            self._waiting.pop(victim, None)
            for txin in vtx.inputs:
                if self._spender.get(txin.outpoint) == victim:
                    del self._spender[txin.outpoint]
            self._evicted.add(victim)
        self._admit(tx, fee)
        return evicted

    # --- time and mining ---------------------------------------------------------------

    def advance_time(self, dt: float, phase: str = "idle") -> list[Block]:
        """Move the logical clock forward, producing every block whose
        scheduled time falls inside the window, and add ``dt`` to the
        phase's tally."""
        if dt < 0:
            raise ValueError("time cannot run backwards")
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + dt
        target = self.now + dt
        produced = []
        while self._next_block_at <= target:
            self.now = self._next_block_at
            produced.append(self._produce_block())
            self._next_block_at = self.now + self._interval()
        self.now = target
        return produced

    def _produce_block(self) -> Block:
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

    # --- funding -----------------------------------------------------------------------

    def grant(self, key: Keypair, values: list[int]) -> list[Spendable]:
        """Mint spendable key-hash outputs in an immediate block (faucet)."""
        tx = EnrichedTransaction(
            inputs=(),
            outputs=tuple(TxOutput.to_key_hash(v, key.key_hash) for v in values),
        )
        tx_id = tx.tx_id
        height = len(self.blocks)
        self.add(tx, height)
        self._arrivals[tx_id] = self.now
        self.blocks.append(Block(height, int(self.now), [tx], produced_at=self.now))
        return [Spendable(tx_id, i, v, key) for i, v in enumerate(values)]

    # --- dump / load -------------------------------------------------------------------

    def dump(self) -> str:
        header = {
            "seed": self.config.seed,
            "block_interval_mean": self.config.block_interval_mean,
            "block_capacity": self.config.block_capacity,
            "relay_min_fee": RELAY_MIN_FEE,
            "time": self.now,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for block in self.blocks:
            lines.append(f"block {block.height} {block.timestamp}")
            lines.extend(tx_to_hex(tx) for tx in block.txs)
        lines.append("mempool")
        lines.extend(tx_to_hex(self._mempool[t][0]) for t in self.mempool_ids)
        return "\n".join(lines) + "\n"


def load_dump(text: str) -> ChainIndex:
    """The chain index of a dump, built line by line. A block line whose
    height is not the previous height + 1 (the first is 0) or whose timestamp
    is below the previous block's, a repeated txid, a second spend of an
    outpoint, or an input spending a transaction that only a later line holds
    raises :class:`DumpFormatError` with the offending line's number. An
    input whose transaction no line holds is left to the audit."""
    lines = text.splitlines()
    if not lines:
        raise DumpFormatError(1, "empty dump")
    try:
        json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DumpFormatError(1, f"bad header: {exc}") from None
    index = ChainIndex()
    blocks = index.blocks
    in_mempool = False
    unresolved: list[tuple[int, bytes]] = []  # (line, spent txid) not yet indexed
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
                block = Block(int(parts[1]), int(parts[2]))
            except ValueError:
                raise DumpFormatError(line_no, "block height/timestamp not integers") from None
            if block.height != len(blocks):
                raise DumpFormatError(line_no, f"block height {block.height}, expected {len(blocks)}")
            if blocks and block.timestamp < blocks[-1].timestamp:
                raise DumpFormatError(
                    line_no, f"block timestamp {block.timestamp} before {blocks[-1].timestamp}"
                )
            blocks.append(block)
            continue
        try:
            tx = tx_from_hex(line)
        except Exception as exc:
            raise DumpFormatError(line_no, f"bad transaction: {exc}") from None
        if not in_mempool and not blocks:
            raise DumpFormatError(line_no, "transaction before any block line")
        for txin in tx.inputs:
            if index.get_transaction(txin.prev_tx_id) is None:
                unresolved.append((line_no, txin.prev_tx_id))
        try:
            index.add(tx, None if in_mempool else blocks[-1].height)
        except ChainError as exc:
            raise DumpFormatError(line_no, str(exc)) from None
        if not in_mempool:
            blocks[-1].txs.append(tx)
    for line_no, prev_tx_id in unresolved:
        if index.get_transaction(prev_tx_id) is not None:
            raise DumpFormatError(line_no, f"spends {prev_tx_id.hex()}, held by a later line")
    return index
