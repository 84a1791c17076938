"""Byte-exact encoding of enriched transactions and their embedded metadata.

The metadata block rides in a provably unspendable zero-value data output
(return-abort script) and is laid out as::

    length(1) | process_id(2, BE) | marker(1) | timestamp(4, BE) | signature(0|71|72)

The length byte counts the bytes that follow it. The marker byte selects the
transaction kind: 0x00 starts a process, 0x01..0xFB is the next task id of a
handover (which is the only kind carrying a receiver signature), 0xFC splits,
0xFD joins, 0xFE ends, and 0xFF is the extraordinary end published after a
detected incorrect handover. Multi-byte block integers are big-endian; the
surrounding transaction uses Bitcoin's little-endian wire conventions.

Token-bearing outputs are script-hash locked. Their redeem script is a
pay-to-key-hash clause, optionally prefixed by a pushed 32-byte process-data
hash that an immediate drop operator removes from the stack, so the hash is
documented without influencing evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from .crypto import sha256d

MAX_DATA_BYTES = 80
BLOCK_HEADER_LEN = 8  # length + process id + marker + timestamp
SIGNATURE_LENGTHS = (71, 72)
TEMPLATE_SIGNATURE = b"\x00" * 72  # fixed-width placeholder both parties sign over

MARKER_START = 0x00
MARKER_TASK_MIN = 0x01
MARKER_TASK_MAX = 0xFB
MARKER_SPLIT = 0xFC
MARKER_JOIN = 0xFD
MARKER_END = 0xFE
MARKER_END_EXTRAORDINARY = 0xFF

MAX_PROCESS_ID = 0xFFFF
MAX_TIMESTAMP = 0xFFFFFFFF

OP_RETURN = 0x6A
OP_DUP = 0x76
OP_HASH160 = 0xA9
OP_EQUAL = 0x87
OP_EQUALVERIFY = 0x88
OP_CHECKSIG = 0xAC
OP_DROP = 0x75
OP_PUSHDATA1 = 0x4C

SEQUENCE_FINAL = 0xFFFFFFFF


class EncodingError(ValueError):
    """Base for all wire-format rejections."""


class TruncatedInput(EncodingError):
    pass


class LengthMismatch(EncodingError):
    pass


class UnknownMarker(EncodingError):
    pass


class OversizeData(EncodingError):
    pass


class BadSignatureLength(EncodingError):
    pass


class UnsupportedScriptShape(EncodingError):
    pass


class TransactionInvariantError(EncodingError):
    pass


class TxKind(str, Enum):
    START = "start"
    HANDOVER = "handover"
    SPLIT = "split"
    JOIN = "join"
    END = "end"


# --- data block -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DataBlock:
    kind: TxKind
    process_id: int
    timestamp: int
    task_id: int | None = None
    receiver_signature: bytes = b""
    extraordinary: bool = False  # END only, marker 0xFF

    @property
    def marker(self) -> int:
        if self.kind == TxKind.START:
            return MARKER_START
        if self.kind == TxKind.HANDOVER:
            if self.task_id is None:
                raise EncodingError("handover block has no task id")
            return self.task_id
        if self.kind == TxKind.SPLIT:
            return MARKER_SPLIT
        if self.kind == TxKind.JOIN:
            return MARKER_JOIN
        return MARKER_END_EXTRAORDINARY if self.extraordinary else MARKER_END

    @property
    def is_template(self) -> bool:
        return self.receiver_signature == TEMPLATE_SIGNATURE


def encode_data_block(block: DataBlock) -> bytes:
    if not 0 <= block.process_id <= MAX_PROCESS_ID:
        raise EncodingError(f"process id {block.process_id} exceeds two bytes")
    if not 0 <= block.timestamp <= MAX_TIMESTAMP:
        raise EncodingError(f"timestamp {block.timestamp} exceeds four bytes")
    if block.kind == TxKind.HANDOVER:
        if block.task_id is None or not MARKER_TASK_MIN <= block.task_id <= MARKER_TASK_MAX:
            raise EncodingError(f"handover task id {block.task_id} outside 1..251")
        if len(block.receiver_signature) not in SIGNATURE_LENGTHS:
            raise BadSignatureLength(
                f"receiver signature is {len(block.receiver_signature)} bytes, expected 71-72"
            )
    else:
        if block.task_id is not None:
            raise EncodingError(f"{block.kind.value} block must not carry a task id")
        if block.receiver_signature:
            raise EncodingError(f"{block.kind.value} block must not carry a signature")
    if block.extraordinary and block.kind != TxKind.END:
        raise EncodingError("only end blocks can be extraordinary")
    payload = (
        block.process_id.to_bytes(2, "big")
        + bytes([block.marker])
        + block.timestamp.to_bytes(4, "big")
        + block.receiver_signature
    )
    if 1 + len(payload) > MAX_DATA_BYTES:
        raise OversizeData(f"data block would serialize to {1 + len(payload)} bytes")
    return bytes([len(payload)]) + payload


def decode_data_block(data: bytes) -> DataBlock:
    if len(data) < BLOCK_HEADER_LEN:
        raise TruncatedInput(f"data block of {len(data)} bytes, need at least 8")
    if data[0] != len(data) - 1:
        raise LengthMismatch(f"length byte says {data[0]}, payload has {len(data) - 1} bytes")
    if len(data) > MAX_DATA_BYTES:
        raise OversizeData(f"data block of {len(data)} bytes exceeds 80")
    process_id = int.from_bytes(data[1:3], "big")
    marker = data[3]
    timestamp = int.from_bytes(data[4:8], "big")
    signature = data[8:]
    if signature:
        if MARKER_TASK_MIN <= marker <= MARKER_TASK_MAX:
            if len(signature) not in SIGNATURE_LENGTHS:
                raise BadSignatureLength(f"signature of {len(signature)} bytes, expected 71-72")
            return DataBlock(TxKind.HANDOVER, process_id, timestamp, marker, signature)
        raise UnknownMarker(f"marker 0x{marker:02x} cannot carry a signature")
    if marker == MARKER_START:
        return DataBlock(TxKind.START, process_id, timestamp)
    if marker == MARKER_SPLIT:
        return DataBlock(TxKind.SPLIT, process_id, timestamp)
    if marker == MARKER_JOIN:
        return DataBlock(TxKind.JOIN, process_id, timestamp)
    if marker == MARKER_END:
        return DataBlock(TxKind.END, process_id, timestamp)
    if marker == MARKER_END_EXTRAORDINARY:
        return DataBlock(TxKind.END, process_id, timestamp, extraordinary=True)
    raise UnknownMarker(f"marker 0x{marker:02x} unassigned for signature-less blocks")


# --- scripts --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RedeemScript:
    payee_key_hash: bytes
    data_hash: bytes | None = None


def build_redeem_script(payee_key_hash: bytes, data_hash: bytes | None = None) -> bytes:
    if len(payee_key_hash) != 20:
        raise EncodingError(f"payee key hash is {len(payee_key_hash)} bytes, expected 20")
    clause = bytes([OP_DUP, OP_HASH160, 20]) + payee_key_hash + bytes([OP_EQUALVERIFY, OP_CHECKSIG])
    if data_hash is None:
        return clause
    if len(data_hash) != 32:
        raise EncodingError(f"data hash is {len(data_hash)} bytes, expected 32")
    return bytes([32]) + data_hash + bytes([OP_DROP]) + clause


def parse_redeem_script(script: bytes) -> RedeemScript:
    data_hash = None
    rest = script
    if rest[:1] == b"\x20":
        if len(rest) < 34 or rest[33] != OP_DROP:
            raise UnsupportedScriptShape("pushed hash not followed by drop operator")
        data_hash = rest[1:33]
        rest = rest[34:]
    if len(rest) != 25 or rest[0] != OP_DUP or rest[1] != OP_HASH160 or rest[2] != 20:
        raise UnsupportedScriptShape("script is not a pay-to-key-hash clause")
    if rest[23] != OP_EQUALVERIFY or rest[24] != OP_CHECKSIG:
        raise UnsupportedScriptShape("pay-to-key-hash clause tail malformed")
    return RedeemScript(rest[3:23], data_hash)


def _push(data: bytes) -> bytes:
    if len(data) <= 75:
        return bytes([len(data)]) + data
    if len(data) <= 255:
        return bytes([OP_PUSHDATA1, len(data)]) + data
    raise EncodingError("push too large")


def _read_pushes(script: bytes) -> list[bytes]:
    out = []
    i = 0
    while i < len(script):
        op = script[i]
        if 1 <= op <= 75:
            chunk = script[i + 1 : i + 1 + op]
            i += 1 + op
        elif op == OP_PUSHDATA1:
            if i + 1 >= len(script):
                raise TruncatedInput("pushdata length missing")
            ln = script[i + 1]
            chunk = script[i + 2 : i + 2 + ln]
            i += 2 + ln
        else:
            raise UnsupportedScriptShape(f"unexpected opcode 0x{op:02x} in push-only script")
        if len(chunk) != (op if op <= 75 else ln):
            raise TruncatedInput("push runs past end of script")
        out.append(chunk)
    return out


class OutputKind(str, Enum):
    SCRIPT_HASH = "script_hash"
    KEY_HASH = "key_hash"
    DATA = "data"


# --- transaction structures -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TxOutput:
    value: int
    script: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**64:
            raise TransactionInvariantError(f"output value {self.value} out of range")
        if self.kind == OutputKind.DATA and self.value != 0:
            raise TransactionInvariantError("data outputs must carry zero value")

    @classmethod
    def to_script_hash(cls, value: int, script_hash: bytes) -> "TxOutput":
        if value <= 0:
            raise TransactionInvariantError("token outputs need positive value")
        if len(script_hash) != 20:
            raise EncodingError("script hash must be 20 bytes")
        return cls(value, bytes([OP_HASH160, 20]) + script_hash + bytes([OP_EQUAL]))

    @classmethod
    def to_key_hash(cls, value: int, key_hash: bytes) -> "TxOutput":
        if value <= 0:
            raise TransactionInvariantError("key-hash outputs need positive value")
        # the plain key-hash locking script is the redeem script's pay clause
        return cls(value, build_redeem_script(key_hash))

    @classmethod
    def data(cls, block: DataBlock) -> "TxOutput":
        return cls(0, bytes([OP_RETURN]) + _push(encode_data_block(block)))

    @property
    def kind(self) -> OutputKind:
        if self.script[:1] == bytes([OP_RETURN]):
            return OutputKind.DATA
        if len(self.script) == 23 and self.script[0] == OP_HASH160 and self.script[-1] == OP_EQUAL:
            return OutputKind.SCRIPT_HASH
        if len(self.script) == 25 and self.script[0] == OP_DUP and self.script[-1] == OP_CHECKSIG:
            return OutputKind.KEY_HASH
        raise UnsupportedScriptShape("locking script matches no supported shape")

    @property
    def script_hash(self) -> bytes:
        if self.kind != OutputKind.SCRIPT_HASH:
            raise UnsupportedScriptShape("not a script-hash output")
        return self.script[2:22]

    @property
    def key_hash(self) -> bytes:
        if self.kind != OutputKind.KEY_HASH:
            raise UnsupportedScriptShape("not a key-hash output")
        return self.script[3:23]

    @property
    def data_block(self) -> DataBlock:
        if self.kind != OutputKind.DATA:
            raise UnsupportedScriptShape("not a data output")
        pushes = _read_pushes(self.script[1:])
        if len(pushes) != 1:
            raise UnsupportedScriptShape("data output must push exactly one blob")
        return decode_data_block(pushes[0])


# which of (signature, public key, redeem script) are non-empty in the
# unlockings Unlocking.from_script returns
_UNLOCKING_SHAPES = frozenset(
    {(False, False, False), (False, False, True), (True, True, False), (True, True, True)}
)


@dataclass(frozen=True, slots=True)
class Unlocking:
    """Parameters rendering the referenced locking script true.

    Script-hash spends carry (signature, public key, redeem script);
    key-hash spends carry (signature, public key); a handover template
    carries only the redeem script until the sender signs.
    """

    signature: bytes = b""
    public_key: bytes = b""
    redeem_script: bytes = b""

    def to_script(self) -> bytes:
        """The pushes of the non-empty fields. An empty field is not pushed,
        so a shape that :meth:`from_script` cannot give back is refused."""
        fields = (self.signature, self.public_key, self.redeem_script)
        if tuple(map(bool, fields)) not in _UNLOCKING_SHAPES:
            raise TransactionInvariantError(
                "unlocking must be empty, a redeem script alone, or a signature and key"
                " with or without a redeem script"
            )
        return b"".join(_push(p) for p in fields if p)

    @classmethod
    def from_script(cls, script: bytes) -> "Unlocking":
        if not script:
            return cls()
        pushes = _read_pushes(script)
        if len(pushes) == 3:
            return cls(*pushes)
        if len(pushes) == 2:
            return cls(pushes[0], pushes[1])
        if len(pushes) == 1:
            return cls(redeem_script=pushes[0])
        raise UnsupportedScriptShape(f"unlocking script with {len(pushes)} pushes")


@dataclass(frozen=True, slots=True)
class TxInput:
    prev_tx_id: bytes
    prev_output_index: int
    unlocking: Unlocking = Unlocking()
    # Resolved value of the referenced output. Engine-built transactions set
    # it so fee soundness is checkable offline; it is not wire data.
    prev_value: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.prev_tx_id) != 32:
            raise TransactionInvariantError("previous tx id must be 32 bytes")
        if not 0 <= self.prev_output_index < 2**32:
            raise TransactionInvariantError("output index out of range")

    @property
    def outpoint(self) -> tuple[bytes, int]:
        return (self.prev_tx_id, self.prev_output_index)


@dataclass(frozen=True)
class EnrichedTransaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    version: int = 1
    locktime: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.version < 2**32:
            raise TransactionInvariantError(f"version {self.version} out of range")
        if not 0 <= self.locktime < 2**32:
            raise TransactionInvariantError(f"locktime {self.locktime} out of range")

    @property
    def data_outputs(self) -> tuple[TxOutput, ...]:
        return tuple(o for o in self.outputs if o.kind == OutputKind.DATA)

    @property
    def token_outputs(self) -> tuple[tuple[int, TxOutput], ...]:
        return tuple((i, o) for i, o in enumerate(self.outputs) if o.kind == OutputKind.SCRIPT_HASH)

    # The transaction is frozen, so its block, id and signing digest are
    # computed once and kept in the instance dict; the public names stay plain
    # properties and functions.
    @cached_property
    def _data_block(self) -> DataBlock | None:
        outs = self.data_outputs
        if len(outs) != 1:
            return None
        try:
            return outs[0].data_block
        except EncodingError:
            return None

    @cached_property
    def _tx_id(self) -> bytes:
        return sha256d(serialize_transaction(self))

    @cached_property
    def _signing_digest(self) -> bytes:
        """See :func:`signing_digest`. The signed form is written from this
        transaction directly, by the writer of its wire form."""
        return sha256d(_serialize(self, signed=True))

    @property
    def data_block(self) -> DataBlock | None:
        return self._data_block

    @property
    def kind(self) -> TxKind | None:
        block = self._data_block
        return block.kind if block else None

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs

    @property
    def tx_id(self) -> bytes:
        return self._tx_id

    def fee(self) -> int | None:
        """Input-output difference when every input value is known."""
        if self.is_coinbase or any(i.prev_value is None for i in self.inputs):
            return None
        return sum(i.prev_value for i in self.inputs) - sum(o.value for o in self.outputs)


def _check_structure(tx: EnrichedTransaction) -> None:
    if len(tx.data_outputs) > 1:
        raise TransactionInvariantError("only one data output is allowed per transaction")
    if len(tx.inputs) > 1 and len({txin.outpoint for txin in tx.inputs}) != len(tx.inputs):
        raise TransactionInvariantError("two inputs spend the same outpoint")
    fee = tx.fee()
    if fee is not None and fee < 0:
        raise TransactionInvariantError(f"outputs exceed inputs by {-fee} satoshi")
    kind = tx.kind
    if kind is None:
        return
    tokens = len(tx.token_outputs)
    others = len(tx.outputs) - tokens - 1
    if kind == TxKind.START:
        if not tx.inputs:
            raise TransactionInvariantError("start transaction needs at least one input")
        if tokens != 1:
            raise TransactionInvariantError("start transaction needs exactly one token output")
        if others > 1:
            raise TransactionInvariantError("start transaction allows at most one change output")
    elif kind == TxKind.HANDOVER:
        if len(tx.inputs) != 1 or tokens != 1 or others:
            raise TransactionInvariantError(
                "handover transaction is one token input to one token output"
            )
    elif kind == TxKind.SPLIT:
        if len(tx.inputs) != 1 or tokens < 2:
            raise TransactionInvariantError("split transaction needs at least two token outputs")
    elif kind == TxKind.JOIN:
        if len(tx.inputs) < 2 or tokens != 1:
            raise TransactionInvariantError("join transaction expects at least two token inputs")
    elif kind == TxKind.END:
        if len(tx.inputs) != 1 or tokens:
            raise TransactionInvariantError("end transaction consumes the token without reissuing")


# --- wire format ---------------------------------------------------------------------


# the bytes that follow a varint's first byte, by that byte (none below 0xFD)
_VARINT_SIZES = {0xFD: 2, 0xFE: 4, 0xFF: 8}


def _varint(n: int) -> bytes:
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + n.to_bytes(2, "little")
    if n <= 0xFFFFFFFF:
        return b"\xfe" + n.to_bytes(4, "little")
    return b"\xff" + n.to_bytes(8, "little")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedInput("transaction bytes end prematurely")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def varint(self) -> int:
        first = self.take(1)[0]
        if first < 0xFD:
            return first
        return int.from_bytes(self.take(_VARINT_SIZES[first]), "little")

    def done(self) -> bool:
        return self.pos == len(self.data)


def _serialize(tx: EnrichedTransaction, signed: bool) -> bytes:
    """The wire form; or, when ``signed``, the form :func:`signing_digest`
    hashes: every unlocking script empty, and a handover data block with the
    placeholder in its receiver-signature field."""
    _check_structure(tx)
    out = bytearray()
    out += tx.version.to_bytes(4, "little")
    out += _varint(len(tx.inputs))
    for txin in tx.inputs:
        out += txin.prev_tx_id
        out += txin.prev_output_index.to_bytes(4, "little")
        script = b"" if signed else txin.unlocking.to_script()
        out += _varint(len(script))
        out += script
        out += SEQUENCE_FINAL.to_bytes(4, "little")
    out += _varint(len(tx.outputs))
    for txout in tx.outputs:
        script = txout.script
        if signed and txout.kind == OutputKind.DATA:
            block = txout.data_block
            if block.kind == TxKind.HANDOVER:
                script = TxOutput.data(replace(block, receiver_signature=TEMPLATE_SIGNATURE)).script
        out += txout.value.to_bytes(8, "little")
        out += _varint(len(script))
        out += script
    out += tx.locktime.to_bytes(4, "little")
    return bytes(out)


def serialize_transaction(tx: EnrichedTransaction) -> bytes:
    return _serialize(tx, signed=False)


def deserialize_transaction(data: bytes) -> EnrichedTransaction:
    r = _Reader(data)
    version = int.from_bytes(r.take(4), "little")
    inputs = []
    for _ in range(r.varint()):
        prev_id = r.take(32)
        prev_idx = int.from_bytes(r.take(4), "little")
        script = r.take(r.varint())
        sequence = int.from_bytes(r.take(4), "little")
        if sequence != SEQUENCE_FINAL:
            raise TransactionInvariantError("non-final sequence numbers unsupported")
        inputs.append(TxInput(prev_id, prev_idx, Unlocking.from_script(script)))
    outputs = []
    for _ in range(r.varint()):
        value = int.from_bytes(r.take(8), "little")
        outputs.append(TxOutput(value, r.take(r.varint())))
    locktime = int.from_bytes(r.take(4), "little")
    if not r.done():
        raise TransactionInvariantError("trailing bytes after transaction")
    tx = EnrichedTransaction(tuple(inputs), tuple(outputs), version, locktime)
    # Serializing also checks the structure. Only the canonical encoding
    # parses, so the bytes read are the bytes the id is taken over, and the
    # id's cached property is filled from them without a second serialization.
    if serialize_transaction(tx) != data:
        raise TransactionInvariantError("transaction encoding is not canonical")
    tx.__dict__["_tx_id"] = sha256d(data)
    return tx


def signing_digest(tx: EnrichedTransaction) -> bytes:
    """Digest both handover parties commit to.

    Serialization with every input's unlocking script empty and the data
    block's receiver-signature field forced to the fixed 72-byte placeholder.
    The sender's input signatures and the receiver's embedded signature are
    both taken over this digest, so either party can later prove what terms
    were signed. The transaction computes it once and keeps it, like its id,
    so the audit's receiver-signature check and script validation share one
    serialization.
    """
    return tx._signing_digest


def tx_to_hex(tx: EnrichedTransaction) -> str:
    return serialize_transaction(tx).hex()


def tx_from_hex(line: str) -> EnrichedTransaction:
    try:
        raw = bytes.fromhex(line.strip())
    except ValueError as exc:
        raise EncodingError(f"bad hex: {exc}") from None
    return deserialize_transaction(raw)
