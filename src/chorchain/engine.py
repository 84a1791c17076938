"""Building, validating, and tracing the five enriched transaction kinds.

The process owner funds a token output whose budget pays every downstream
fee, so other participants never contribute coins of their own. Handovers
move that token between freshly generated keys; splits and joins fan it out
and merge it for parallel paths; the end transaction returns the residual.

A handover is negotiated around a partially signed template: the sender
fills in everything except the two signatures, the receiver runs four checks
against it, and both parties then sign the same digest (the serialization
with unlocking scripts empty and the receiver-signature field zero-filled).
The receiver's signature lands inside the data block, the sender's in the
input's unlocking script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import Iterable, Protocol

from . import model as model_mod
from .crypto import Keypair, hash160, sign, verify, verify_with_key_hash
from .encoding import (
    MAX_PROCESS_ID,
    TEMPLATE_SIGNATURE,
    DataBlock,
    EnrichedTransaction,
    OutputKind,
    TxInput,
    TxKind,
    TxOutput,
    Unlocking,
    build_redeem_script,
    parse_redeem_script,
    signing_digest,
)

DEFAULT_FEE = 18_982  # satoshi; observed mean fee per metadata transaction
FILLER_TASK_ID = 251  # custody-only handover returning the token to the owner
TIMESTAMP_SKEW = 120  # seconds of clock disagreement tolerated in check 3


class EngineError(Exception):
    pass


class InsufficientFunds(EngineError):
    def __init__(self, required: int, available: int):
        super().__init__(
            f"need {required} satoshi but only {available} available "
            f"(short {required - available})"
        )
        self.required = required
        self.available = available
        self.shortfall = required - available


class TokenValueError(EngineError):
    pass


class KeyMismatch(EngineError):
    pass


class BadReceiverSignature(EngineError):
    pass


class UnlockError(EngineError):
    pass


class ScriptValidationError(EngineError):
    pass


class UnresolvableAncestor(EngineError):
    pass


class BrokenLineage(EngineError):
    def __init__(self, tx_id: bytes):
        super().__init__(f"token output consumed by non-process transaction {tx_id.hex()}")
        self.tx_id = tx_id


@dataclass(frozen=True)
class FeePolicy:
    per_tx_fee: int = DEFAULT_FEE
    safety_factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.per_tx_fee <= 0:
            raise ValueError("per-transaction fee must be positive")
        if self.safety_factor < 1:
            raise ValueError("safety factor must be at least 1")

    def budget(self, estimated_tx_count: int) -> int:
        return ceil(self.per_tx_fee * estimated_tx_count * Fraction(self.safety_factor))


@dataclass(frozen=True)
class Spendable:
    """A key-hash output the owner can fund a process from."""

    tx_id: bytes
    output_index: int
    value: int
    key: Keypair


@dataclass(frozen=True)
class ProcessToken:
    process_id: int
    tx_id: bytes
    output_index: int
    value: int
    holder_key: Keypair
    redeem_script: bytes
    attached_data_hash: bytes | None = None

    @property
    def outpoint(self) -> tuple[bytes, int]:
        return (self.tx_id, self.output_index)


@dataclass(frozen=True)
class ExpectedTerms:
    """What the receiver negotiated and therefore demands of the template."""

    process_id: int
    task_id: int
    timestamp: int
    receiver_key_hash: bytes
    data_hash: bytes | None = None  # hash of the process data just received
    prev_data_hash: bytes | None = None  # last documented hash, when known
    timestamp_skew: int = TIMESTAMP_SKEW


@dataclass(frozen=True)
class HandoverTemplate:
    tx: EnrichedTransaction
    receiver_key_hash: bytes
    data_hash: bytes | None

    @property
    def digest(self) -> bytes:
        return signing_digest(self.tx)

    @property
    def data_block(self) -> DataBlock:
        block = self.tx.data_block
        if block is None:
            raise EngineError("handover template carries no data block")
        return block

    @property
    def token_output(self) -> tuple[int, TxOutput]:
        return self.tx.token_outputs[0]

    def output_redeem_script(self) -> bytes:
        return build_redeem_script(self.receiver_key_hash, self.data_hash)


@dataclass(frozen=True)
class TemplateVerdict:
    accepted: bool
    failed_check: int | None = None
    reason: str = ""

    @classmethod
    def accept(cls) -> "TemplateVerdict":
        return cls(True)

    @classmethod
    def reject(cls, check: int, reason: str) -> "TemplateVerdict":
        return cls(False, check, reason)


class ChainView(Protocol):
    """Minimal read access the engine needs; chain, provider, and parsed
    dumps all satisfy it."""

    def get_transaction(self, tx_id: bytes) -> EnrichedTransaction | None: ...

    def get_spender(self, outpoint: tuple[bytes, int]) -> bytes | None: ...


# --- transaction builders ---------------------------------------------------------


def default_tx_estimate(model: model_mod.ProcessModel) -> int:
    """Planned chain length used for start budgeting: one transaction per
    task, parallel split, and parallel join, plus the end and the filler
    handover back to the owner. XOR blocks resolve into a single path and
    produce no transaction of their own."""
    tasks = model.count(model_mod.NodeKind.TASK)
    splits = model.count(model_mod.NodeKind.AND_SPLIT)
    joins = model.count(model_mod.NodeKind.AND_JOIN)
    return tasks + splits + joins + 2


def _sign_inputs(tx: EnrichedTransaction, keys: list[Keypair], redeems: list[bytes | None]) -> EnrichedTransaction:
    digest = signing_digest(tx)
    inputs = []
    for txin, key, redeem in zip(tx.inputs, keys, redeems):
        unlocking = Unlocking(sign(digest, key), key.public_key, redeem or b"")
        inputs.append(replace(txin, unlocking=unlocking))
    return replace(tx, inputs=tuple(inputs))


def build_start(
    owner_funds: Iterable[Spendable],
    process_id: int,
    now: int,
    fee_policy: FeePolicy,
    estimated_tx_count: int,
    owner_key: Keypair,
    rng: random.Random,
) -> tuple[EnrichedTransaction, ProcessToken]:
    """Fund and document a new process instance.

    The token output carries the whole fee budget for the instance; a change
    output returns any surplus to the owner.
    """
    if not 0 <= process_id <= MAX_PROCESS_ID:
        raise EngineError(f"process id {process_id} exceeds the two-byte field")
    budget = fee_policy.budget(estimated_tx_count)
    required = budget + fee_policy.per_tx_fee
    selected: list[Spendable] = []
    total = 0
    for fund in sorted(owner_funds, key=lambda f: f.value, reverse=True):
        selected.append(fund)
        total += fund.value
        if total >= required:
            break
    if total < required:
        raise InsufficientFunds(required, total)

    token_key = Keypair.generate(rng)
    redeem = build_redeem_script(token_key.key_hash)
    outputs = [
        TxOutput.to_script_hash(budget, hash160(redeem)),
        TxOutput.data(DataBlock(TxKind.START, process_id, now)),
    ]
    change = total - required
    if change > 0:
        outputs.append(TxOutput.to_key_hash(change, owner_key.key_hash))
    tx = EnrichedTransaction(
        inputs=tuple(
            TxInput(f.tx_id, f.output_index, prev_value=f.value) for f in selected
        ),
        outputs=tuple(outputs),
    )
    tx = _sign_inputs(tx, [f.key for f in selected], [None] * len(selected))
    token = ProcessToken(process_id, tx.tx_id, 0, budget, token_key, redeem)
    return tx, token


def build_handover_template(
    token: ProcessToken,
    next_task_id: int,
    now: int,
    receiver_key_hash: bytes,
    data_hash: bytes | None,
    fee_policy: FeePolicy,
) -> HandoverTemplate:
    if not 1 <= next_task_id <= 251:
        raise EngineError(f"task id {next_task_id} outside 1..251")
    fee = fee_policy.per_tx_fee
    if token.value <= fee:
        raise TokenValueError(
            f"token of {token.value} satoshi cannot pay the {fee} satoshi fee and survive"
        )
    out_redeem = build_redeem_script(receiver_key_hash, data_hash)
    tx = EnrichedTransaction(
        inputs=(
            TxInput(
                token.tx_id,
                token.output_index,
                Unlocking(redeem_script=token.redeem_script),
                prev_value=token.value,
            ),
        ),
        outputs=(
            TxOutput.to_script_hash(token.value - fee, hash160(out_redeem)),
            TxOutput.data(
                DataBlock(TxKind.HANDOVER, token.process_id, now, next_task_id, TEMPLATE_SIGNATURE)
            ),
        ),
    )
    return HandoverTemplate(tx, receiver_key_hash, data_hash)


def validate_template(
    template: HandoverTemplate,
    expected: ExpectedTerms,
    process_model: model_mod.ProcessModel,
    chain_view: ChainView,
) -> TemplateVerdict:
    """The receiver's four checks before it signs anything.

    1. the consumed input reveals a redeem script matching the referenced
       output (and, when known, the previously documented data hash);
    2. the token output can be reconstructed from the receiver's own key
       hash and the hash of the data just received;
    3. the data block repeats the negotiated terms;
    4. the execution history reconstructed from the chain conforms to the
       process model.

    An ancestor that cannot be resolved at all raises
    :class:`UnresolvableAncestor` instead of producing a verdict.
    """
    txin = template.tx.inputs[0]
    prev_tx = chain_view.get_transaction(txin.prev_tx_id)
    if prev_tx is None:
        raise UnresolvableAncestor(f"referenced transaction {txin.prev_tx_id.hex()} unknown")
    if txin.prev_output_index >= len(prev_tx.outputs):
        raise UnresolvableAncestor("referenced output index out of range")
    prev_out = prev_tx.outputs[txin.prev_output_index]

    redeem = txin.unlocking.redeem_script
    if not redeem:
        return TemplateVerdict.reject(1, "template input carries no redeem script")
    if prev_out.kind != OutputKind.SCRIPT_HASH or hash160(redeem) != prev_out.script_hash:
        return TemplateVerdict.reject(1, "redeem script does not hash to the referenced output")
    try:
        parsed = parse_redeem_script(redeem)
    except Exception as exc:
        return TemplateVerdict.reject(1, f"redeem script unparseable: {exc}")
    if expected.prev_data_hash is not None and parsed.data_hash != expected.prev_data_hash:
        return TemplateVerdict.reject(1, "documented data hash differs from the transferred data")

    _, token_out = template.token_output
    want = hash160(build_redeem_script(expected.receiver_key_hash, expected.data_hash))
    if token_out.script_hash != want:
        return TemplateVerdict.reject(
            2, "token output does not lock to the receiver's key and data hash"
        )

    block = template.data_block
    if block.process_id != expected.process_id:
        return TemplateVerdict.reject(3, f"process id {block.process_id} not negotiated")
    if block.task_id != expected.task_id:
        return TemplateVerdict.reject(
            3, f"task id {block.task_id} does not match negotiated task {expected.task_id}"
        )
    if abs(block.timestamp - expected.timestamp) > expected.timestamp_skew:
        return TemplateVerdict.reject(3, "timestamp outside the agreed skew window")

    start_id = _find_start(chain_view, txin.prev_tx_id)
    trace = reconstruct_trace(chain_view, start_id)
    verdict = model_mod.check_conformance(process_model, trace)
    if not verdict.ok:
        return TemplateVerdict.reject(4, f"execution history deviates: {verdict}")
    return TemplateVerdict.accept()


def sign_as_receiver(template: HandoverTemplate, receiver_keypair: Keypair) -> bytes:
    if receiver_keypair.key_hash != template.receiver_key_hash:
        raise KeyMismatch("keypair does not hash to the key the template locks to")
    _, token_out = template.token_output
    if token_out.script_hash != hash160(template.output_redeem_script()):
        raise KeyMismatch("template token output inconsistent with echoed terms")
    return sign(template.digest, receiver_keypair)


def finalize_and_sign_as_sender(
    template: HandoverTemplate,
    receiver_signature: bytes,
    sender_keypair: Keypair,
) -> EnrichedTransaction:
    digest = template.digest
    if len(receiver_signature) not in (71, 72) or not verify_with_key_hash(
        digest, receiver_signature, template.receiver_key_hash
    ):
        raise BadReceiverSignature("receiver signature does not verify against the token key")
    txin = template.tx.inputs[0]
    parsed = parse_redeem_script(txin.unlocking.redeem_script)
    if sender_keypair.key_hash != parsed.payee_key_hash:
        raise UnlockError("sender key cannot unlock the consumed token output")

    block = template.data_block
    final_block = DataBlock(
        TxKind.HANDOVER, block.process_id, block.timestamp, block.task_id, receiver_signature
    )
    outputs = tuple(
        TxOutput.data(final_block) if o.kind == OutputKind.DATA else o
        for o in template.tx.outputs
    )
    unlocking = Unlocking(
        sign(digest, sender_keypair), sender_keypair.public_key, txin.unlocking.redeem_script
    )
    return replace(template.tx, inputs=(replace(txin, unlocking=unlocking),), outputs=outputs)


def token_from_handover(
    tx: EnrichedTransaction, receiver_key: Keypair, data_hash: bytes | None
) -> ProcessToken:
    """The receiver's view of the token it now holds."""
    block = tx.data_block
    if block is None or block.kind != TxKind.HANDOVER:
        raise EngineError("token_from_handover needs a handover transaction")
    index, out = tx.token_outputs[0]
    return ProcessToken(
        block.process_id,
        tx.tx_id,
        index,
        out.value,
        receiver_key,
        build_redeem_script(receiver_key.key_hash, data_hash),
        data_hash,
    )


def build_split(
    token: ProcessToken,
    branch_count: int,
    now: int,
    fee_policy: FeePolicy,
    rng: random.Random,
) -> tuple[EnrichedTransaction, list[ProcessToken]]:
    """Fan the token out into parallel branches, all still held by the
    caller; remaining value splits evenly, remainder to the first branch."""
    if branch_count < 2:
        raise EngineError("a split needs at least two token outputs")
    fee = fee_policy.per_tx_fee
    distributable = token.value - fee
    if distributable < branch_count:
        raise TokenValueError(
            f"token of {token.value} satoshi cannot fund {branch_count} branches plus fee"
        )
    share = distributable // branch_count
    values = [share + distributable % branch_count] + [share] * (branch_count - 1)
    keys = [Keypair.generate(rng) for _ in range(branch_count)]
    redeems = [build_redeem_script(k.key_hash, token.attached_data_hash) for k in keys]
    outputs = [TxOutput.to_script_hash(v, hash160(r)) for v, r in zip(values, redeems)]
    outputs.append(TxOutput.data(DataBlock(TxKind.SPLIT, token.process_id, now)))
    tx = EnrichedTransaction(
        inputs=(
            TxInput(
                token.tx_id,
                token.output_index,
                prev_value=token.value,
            ),
        ),
        outputs=tuple(outputs),
    )
    tx = _sign_inputs(tx, [token.holder_key], [token.redeem_script])
    tokens = [
        ProcessToken(
            token.process_id, tx.tx_id, i, values[i], keys[i], redeems[i], token.attached_data_hash
        )
        for i in range(branch_count)
    ]
    return tx, tokens


def build_join(
    tokens: list[ProcessToken],
    now: int,
    fee_policy: FeePolicy,
    rng: random.Random,
    attached_data_hash: bytes | None = None,
) -> tuple[EnrichedTransaction, ProcessToken]:
    """Merge parallel-path tokens (all already handed to the caller) back
    into a single token."""
    if len(tokens) < 2:
        raise EngineError("a join expects at least two token inputs")
    pids = {t.process_id for t in tokens}
    if len(pids) != 1:
        raise EngineError(f"tokens from different process instances: {sorted(pids)}")
    fee = fee_policy.per_tx_fee
    merged_value = sum(t.value for t in tokens) - fee
    if merged_value <= 0:
        raise TokenValueError("joined tokens cannot pay the fee and survive")
    key = Keypair.generate(rng)
    redeem = build_redeem_script(key.key_hash, attached_data_hash)
    tx = EnrichedTransaction(
        inputs=tuple(
            TxInput(t.tx_id, t.output_index, prev_value=t.value) for t in tokens
        ),
        outputs=(
            TxOutput.to_script_hash(merged_value, hash160(redeem)),
            TxOutput.data(DataBlock(TxKind.JOIN, tokens[0].process_id, now)),
        ),
    )
    tx = _sign_inputs(tx, [t.holder_key for t in tokens], [t.redeem_script for t in tokens])
    token = ProcessToken(
        tokens[0].process_id, tx.tx_id, 0, merged_value, key, redeem, attached_data_hash
    )
    return tx, token


def build_end(
    token: ProcessToken,
    owner_key: Keypair,
    now: int,
    fee_policy: FeePolicy,
    final_data_hash: bytes | None = None,
    extraordinary: bool = False,
) -> EnrichedTransaction:
    """Close the instance, returning the residual budget to the publisher.

    A normal end may only be published by the process owner (a filler
    handover must return the token first); an extraordinary end is published
    by whoever holds the token when incorrect behaviour is detected.
    """
    if not extraordinary and token.holder_key.key_hash != owner_key.key_hash:
        raise EngineError("end transaction requires the owner to hold the token")
    if final_data_hash is not None and final_data_hash != token.attached_data_hash:
        raise EngineError("final data hash differs from the hash documented with the token")
    fee = fee_policy.per_tx_fee
    residual = token.value - fee
    if residual < 0:
        raise TokenValueError(f"token of {token.value} satoshi cannot pay the end fee")
    payout_key = token.holder_key if extraordinary else owner_key
    outputs = [TxOutput.data(DataBlock(TxKind.END, token.process_id, now, extraordinary=extraordinary))]
    if residual > 0:
        outputs.append(TxOutput.to_key_hash(residual, payout_key.key_hash))
    tx = EnrichedTransaction(
        inputs=(
            TxInput(token.tx_id, token.output_index, prev_value=token.value),
        ),
        outputs=tuple(outputs),
    )
    return _sign_inputs(tx, [token.holder_key], [token.redeem_script])


# --- script validation --------------------------------------------------------------


def validate_transaction_scripts(tx: EnrichedTransaction, chain_view: ChainView) -> None:
    """Full unlock validation: every input's script parameters must render
    the referenced locking script true. Raises :class:`ScriptValidationError`."""
    digest = signing_digest(tx)
    for n, txin in enumerate(tx.inputs):
        prev = chain_view.get_transaction(txin.prev_tx_id)
        if prev is None or txin.prev_output_index >= len(prev.outputs):
            raise ScriptValidationError(f"input {n} references an unknown output")
        out = prev.outputs[txin.prev_output_index]
        unlocking = txin.unlocking
        if out.kind == OutputKind.DATA:
            raise ScriptValidationError(f"input {n} spends a data output, which never unlocks")
        if out.kind == OutputKind.SCRIPT_HASH:
            if not unlocking.redeem_script:
                raise ScriptValidationError(f"input {n} missing redeem script")
            if hash160(unlocking.redeem_script) != out.script_hash:
                raise ScriptValidationError(f"input {n} redeem script hash mismatch")
            payee = parse_redeem_script(unlocking.redeem_script).payee_key_hash
        else:
            payee = out.key_hash
        if not unlocking.signature or not unlocking.public_key:
            raise ScriptValidationError(f"input {n} missing signature or public key")
        if hash160(unlocking.public_key) != payee:
            raise ScriptValidationError(f"input {n} public key does not hash to the payee")
        if not verify(digest, unlocking.signature, unlocking.public_key):
            raise ScriptValidationError(f"input {n} signature invalid")


# --- execution-history reconstruction --------------------------------------------------


def _find_start(chain_view: ChainView, tx_id: bytes) -> bytes:
    """Walk input references backwards until the start transaction."""
    seen = set()
    current = tx_id
    while True:
        if current in seen:
            raise UnresolvableAncestor("cycle while walking ancestors")
        seen.add(current)
        tx = chain_view.get_transaction(current)
        if tx is None:
            raise UnresolvableAncestor(f"ancestor {current.hex()} unknown")
        kind = tx.kind
        if kind == TxKind.START:
            return current
        if kind is None:
            raise BrokenLineage(current)
        current = tx.inputs[0].prev_tx_id


def reconstruct_trace(
    chain_view: ChainView,
    start_tx_id: bytes,
    filler_task_id: int = FILLER_TASK_ID,
) -> model_mod.ExecutionTrace:
    """Follow token spend links forward from the start transaction.

    Events are linearized by (timestamp, chain depth, lineage), which keeps
    every lineage's own order while interleaving parallel branches
    deterministically. Stops at the spend frontier for in-flight instances.
    """
    start_tx = chain_view.get_transaction(start_tx_id)
    if start_tx is None or start_tx.kind != TxKind.START:
        raise EngineError("transaction is not a process start")
    block = start_tx.data_block
    events: list[tuple[int, int, tuple[int, ...], model_mod.TraceEvent]] = []
    events.append(
        (block.timestamp, 0, (), model_mod.TraceEvent(model_mod.EventKind.START, block.timestamp))
    )
    visited: set[bytes] = {start_tx_id}
    # frontier entries: (outpoint, lineage, depth)
    index, _ = start_tx.token_outputs[0]
    frontier: list[tuple[tuple[bytes, int], tuple[int, ...], int]] = [
        ((start_tx_id, index), (), 1)
    ]
    while frontier:
        outpoint, lineage, depth = frontier.pop()
        spender_id = chain_view.get_spender(outpoint)
        if spender_id is None:
            continue
        tx = chain_view.get_transaction(spender_id)
        if tx is None:
            raise UnresolvableAncestor(f"spender {spender_id.hex()} unknown")
        kind = tx.kind
        if kind is None or kind == TxKind.START:
            raise BrokenLineage(spender_id)
        if spender_id in visited:
            continue
        visited.add(spender_id)
        block = tx.data_block
        ts = block.timestamp
        if kind == TxKind.HANDOVER:
            events.append(
                (
                    ts,
                    depth,
                    lineage,
                    model_mod.TraceEvent(
                        model_mod.EventKind.HANDOVER,
                        ts,
                        task_id=block.task_id,
                        lineage=lineage,
                        filler=block.task_id == filler_task_id,
                    ),
                )
            )
            idx, _ = tx.token_outputs[0]
            frontier.append(((tx.tx_id, idx), lineage, depth + 1))
        elif kind == TxKind.SPLIT:
            events.append(
                (ts, depth, lineage,
                 model_mod.TraceEvent(model_mod.EventKind.SPLIT, ts, lineage=lineage))
            )
            for branch, (idx, _) in enumerate(tx.token_outputs):
                frontier.append(((tx.tx_id, idx), lineage + (branch,), depth + 1))
        elif kind == TxKind.JOIN:
            joined = lineage[:-1] if lineage else ()
            events.append(
                (ts, depth, joined,
                 model_mod.TraceEvent(model_mod.EventKind.JOIN, ts, lineage=joined))
            )
            idx, _ = tx.token_outputs[0]
            frontier.append(((tx.tx_id, idx), joined, depth + 1))
        else:  # END
            events.append(
                (
                    ts,
                    depth,
                    lineage,
                    model_mod.TraceEvent(
                        model_mod.EventKind.END,
                        ts,
                        lineage=lineage,
                        extraordinary=block.extraordinary,
                    ),
                )
            )
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return model_mod.ExecutionTrace(tuple(e[3] for e in events))
