"""Building, validating, and tracing the five enriched transaction kinds.

The process owner funds a token output whose budget pays every downstream
fee, so other participants never contribute coins of their own. Handovers
move that token between freshly generated keys; splits and joins fan it out
and merge it for parallel paths; the end transaction returns the residual.

A handover is negotiated around its template, the handover transaction
itself before either signature: the sender builds it, the receiver runs four
checks against it, and both parties then sign the same digest (the
serialization with unlocking scripts empty and the receiver-signature field
zero-filled). The receiver's signature lands inside the data block, the
sender's in the input's unlocking script.

An instance is rebuilt from the chain alone by :func:`walk_instance`, the one
forward walk over token spend links: the trace, the audit's value tally and
a run's fee totals all read its result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import Iterable, Protocol

from . import model as model_mod
from .crypto import Keypair, hash160, sign, verify
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
    UnsupportedScriptShape,
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
) -> EnrichedTransaction:
    """The handover transaction before either party signs it."""
    if not 1 <= next_task_id <= 251:
        raise EngineError(f"task id {next_task_id} outside 1..251")
    fee = fee_policy.per_tx_fee
    if token.value <= fee:
        raise TokenValueError(
            f"token of {token.value} satoshi cannot pay the {fee} satoshi fee and survive"
        )
    out_redeem = build_redeem_script(receiver_key_hash, data_hash)
    return EnrichedTransaction(
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


def validate_template(
    template: EnrichedTransaction,
    expected: ExpectedTerms,
    process_model: model_mod.ProcessModel,
    chain_view: ChainView,
) -> TemplateVerdict:
    """The receiver's four checks before it signs anything.

    1. the consumed input reveals a parsable redeem script that hashes to
       the referenced output;
    2. the token output can be reconstructed from the receiver's own key
       hash and the hash of the data just received;
    3. the data block repeats the negotiated terms;
    4. the execution history reconstructed from the chain, followed by the
       template's own task, conforms to the process model.

    The consumed output's data hash is not compared with anything: it
    documents the data the sender received, which the sender's task has
    changed since.

    A transaction without a handover data block raises :class:`EngineError`,
    and an ancestor that cannot be resolved at all raises
    :class:`UnresolvableAncestor`, instead of producing a verdict.
    """
    block = template.data_block
    if block is None or block.kind != TxKind.HANDOVER:
        raise EngineError("template carries no handover data block")
    txin = template.inputs[0]
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
        parse_redeem_script(redeem)
    except Exception as exc:
        return TemplateVerdict.reject(1, f"redeem script unparseable: {exc}")

    _, token_out = template.token_outputs[0]
    want = hash160(build_redeem_script(expected.receiver_key_hash, expected.data_hash))
    if token_out.script_hash != want:
        return TemplateVerdict.reject(
            2, "token output does not lock to the receiver's key and data hash"
        )

    if block.process_id != expected.process_id:
        return TemplateVerdict.reject(3, f"process id {block.process_id} not negotiated")
    if block.task_id != expected.task_id:
        return TemplateVerdict.reject(
            3, f"task id {block.task_id} does not match negotiated task {expected.task_id}"
        )
    if abs(block.timestamp - expected.timestamp) > TIMESTAMP_SKEW:
        return TemplateVerdict.reject(3, "timestamp outside the agreed skew window")

    history = reconstruct_trace(chain_view, _find_start(chain_view, txin.prev_tx_id))
    step = model_mod.TraceEvent(
        model_mod.EventKind.HANDOVER,
        block.timestamp,
        task_id=block.task_id,
        filler=block.task_id == FILLER_TASK_ID,
    )
    verdict = model_mod.check_conformance(
        process_model, model_mod.ExecutionTrace(history.events + (step,))
    )
    if not verdict.ok:
        return TemplateVerdict.reject(4, f"execution history deviates: {verdict}")
    return TemplateVerdict.accept()


def finalize_and_sign_as_sender(
    template: EnrichedTransaction,
    receiver_key_hash: bytes,
    receiver_signature: bytes,
    receiver_public_key: bytes,
    sender_keypair: Keypair,
) -> EnrichedTransaction:
    """The published handover: the receiver's signature, checked against
    the public key it revealed with it, goes into the data block and the
    sender's into the input. The key must hash to ``receiver_key_hash``,
    the one the receiver attested and the template locks the token to."""
    digest = signing_digest(template)
    if hash160(receiver_public_key) != receiver_key_hash:
        raise BadReceiverSignature("receiver key does not hash to the token key")
    if len(receiver_signature) not in (71, 72) or not verify(
        digest, receiver_signature, receiver_public_key
    ):
        raise BadReceiverSignature("receiver signature does not verify against the token key")
    txin = template.inputs[0]
    parsed = parse_redeem_script(txin.unlocking.redeem_script)
    if sender_keypair.key_hash != parsed.payee_key_hash:
        raise UnlockError("sender key cannot unlock the consumed token output")

    block = template.data_block
    final_block = DataBlock(
        TxKind.HANDOVER, block.process_id, block.timestamp, block.task_id, receiver_signature
    )
    outputs = tuple(
        TxOutput.data(final_block) if o.kind == OutputKind.DATA else o
        for o in template.outputs
    )
    unlocking = Unlocking(
        sign(digest, sender_keypair), sender_keypair.public_key, txin.unlocking.redeem_script
    )
    return replace(template, inputs=(replace(txin, unlocking=unlocking),), outputs=outputs)


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
    redeem = build_redeem_script(key.key_hash)
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
    token = ProcessToken(tokens[0].process_id, tx.tx_id, 0, merged_value, key, redeem)
    return tx, token


def build_end(
    token: ProcessToken,
    owner_key: Keypair,
    now: int,
    fee_policy: FeePolicy,
    extraordinary: bool = False,
) -> EnrichedTransaction:
    """Close the instance, returning the residual budget to the publisher.

    A normal end may only be published by the process owner (a filler
    handover must return the token first); an extraordinary end is published
    by whoever holds the token when incorrect behaviour is detected.
    """
    if not extraordinary and token.holder_key.key_hash != owner_key.key_hash:
        raise EngineError("end transaction requires the owner to hold the token")
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


SignatureCheck = tuple[bytes, bytes, bytes]  # (digest, signature, public key), for crypto.verify


def script_checks(
    tx: EnrichedTransaction, chain_view: ChainView
) -> tuple[list[SignatureCheck], ScriptValidationError | None]:
    """The structural half of unlock validation, input by input: the
    signature check of each input up to the first one that breaks a
    structural rule, and that rule's error (None when no input does)."""
    digest = signing_digest(tx)
    checks: list[SignatureCheck] = []
    for n, txin in enumerate(tx.inputs):
        prev = chain_view.get_transaction(txin.prev_tx_id)
        if prev is None or txin.prev_output_index >= len(prev.outputs):
            return checks, ScriptValidationError(f"input {n} references an unknown output")
        out = prev.outputs[txin.prev_output_index]
        unlocking = txin.unlocking
        if out.kind == OutputKind.DATA:
            return checks, ScriptValidationError(f"input {n} spends a data output, which never unlocks")
        if out.kind == OutputKind.SCRIPT_HASH:
            if not unlocking.redeem_script:
                return checks, ScriptValidationError(f"input {n} missing redeem script")
            if hash160(unlocking.redeem_script) != out.script_hash:
                return checks, ScriptValidationError(f"input {n} redeem script hash mismatch")
            try:
                payee = parse_redeem_script(unlocking.redeem_script).payee_key_hash
            except UnsupportedScriptShape as exc:
                error = ScriptValidationError(f"input {n} redeem script: {exc}")
                error.__cause__ = exc
                return checks, error
        else:
            payee = out.key_hash
        if not unlocking.signature or not unlocking.public_key:
            return checks, ScriptValidationError(f"input {n} missing signature or public key")
        if hash160(unlocking.public_key) != payee:
            return checks, ScriptValidationError(f"input {n} public key does not hash to the payee")
        checks.append((digest, unlocking.signature, unlocking.public_key))
    return checks, None


def script_error(
    verdicts: Iterable[bool], structural: ScriptValidationError | None
) -> ScriptValidationError | None:
    """What unlock validation refuses, given the verdicts of
    :func:`script_checks`' checks in input order and its structural error:
    the first input whose signature is invalid, as in a validation that
    verifies each input before it reads the next, else the structural error.
    Stops reading verdicts at the first False."""
    for n, ok in enumerate(verdicts):
        if not ok:
            return ScriptValidationError(f"input {n} signature invalid")
    return structural


def validate_transaction_scripts(tx: EnrichedTransaction, chain_view: ChainView) -> None:
    """Full unlock validation: every input's script parameters must render
    the referenced locking script true. Verifies inline, no signature after
    the first invalid one. Raises :class:`ScriptValidationError`."""
    checks, structural = script_checks(tx, chain_view)
    error = script_error((verify(*check) for check in checks), structural)
    if error is not None:
        raise error


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


@dataclass(frozen=True)
class WalkStep:
    """A transaction reached by an instance walk: the token outpoint it
    spent on the walk's first arrival, its lineage (a join's is its
    branches' parent lineage) and its depth below the start."""

    tx: EnrichedTransaction
    spent: tuple[bytes, int]
    lineage: tuple[int, ...]
    depth: int


@dataclass
class InstanceWalk:
    start: EnrichedTransaction
    steps: list[WalkStep]  # in the order reached
    unspent: list[tuple[bytes, int]]  # token outpoints no transaction spends
    reached: set[bytes]  # the start's id and every step's
    broken: list[EngineError]  # BrokenLineage or UnresolvableAncestor, per link

    def trace(self) -> model_mod.ExecutionTrace:
        """Events linearized by (timestamp, chain depth, lineage), which keeps
        every lineage's own order while interleaving parallel branches
        deterministically."""
        ts = self.start.data_block.timestamp
        events = [(ts, 0, (), model_mod.TraceEvent(model_mod.EventKind.START, ts))]
        for step in self.steps:
            block = step.tx.data_block  # only a handover's has a task id
            event = model_mod.TraceEvent(
                model_mod.EventKind(block.kind.value),
                block.timestamp,
                task_id=block.task_id,
                lineage=step.lineage,
                filler=block.task_id == FILLER_TASK_ID,
                extraordinary=block.extraordinary,
            )
            events.append((block.timestamp, step.depth, step.lineage, event))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return model_mod.ExecutionTrace(tuple(e[3] for e in events))


def walk_instance(chain_view: ChainView, start_tx_id: bytes) -> InstanceWalk:
    """Follow token spend links forward from the start transaction, depth
    first, stopping at the spend frontier of an instance still in flight.

    The query order is fixed, because a receiver pays for every query: the
    start first, then the last pushed outpoint's spender, which is fetched
    before the visited check, so a join is fetched once per incoming branch.
    A link to an unknown spender, or a token spent by a non-process
    transaction or a start, is recorded in ``broken`` and not followed.
    """
    start = chain_view.get_transaction(start_tx_id)
    if start is None or start.kind != TxKind.START:
        raise EngineError("transaction is not a process start")
    walk = InstanceWalk(start, [], [], {start_tx_id}, [])
    frontier = [((start_tx_id, start.token_outputs[0][0]), (), 1)]
    while frontier:
        outpoint, lineage, depth = frontier.pop()
        spender_id = chain_view.get_spender(outpoint)
        if spender_id is None:
            walk.unspent.append(outpoint)
            continue
        tx = chain_view.get_transaction(spender_id)
        if tx is None:
            walk.broken.append(UnresolvableAncestor(f"spender {spender_id.hex()} unknown"))
            continue
        kind = tx.kind
        if kind is None or kind == TxKind.START:
            walk.broken.append(BrokenLineage(spender_id))
            continue
        if spender_id in walk.reached:
            continue
        walk.reached.add(spender_id)
        if kind == TxKind.JOIN:
            lineage = lineage[:-1]
        walk.steps.append(WalkStep(tx, outpoint, lineage, depth))
        for branch, (index, _) in enumerate(tx.token_outputs):
            branch_lineage = lineage + (branch,) if kind == TxKind.SPLIT else lineage
            frontier.append(((spender_id, index), branch_lineage, depth + 1))
    return walk


def reconstruct_trace(chain_view: ChainView, start_tx_id: bytes) -> model_mod.ExecutionTrace:
    """The execution trace of one instance, rebuilt from the chain alone.
    Raises the first broken link of the walk."""
    walk = walk_instance(chain_view, start_tx_id)
    if walk.broken:
        raise walk.broken[0]
    return walk.trace()
