import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorchain import encoding as enc
from chorchain.crypto import Keypair, hash160, sha256d


def handover_block(sig_len=71, pid=7, task=3, ts=1472601600):
    return enc.DataBlock(enc.TxKind.HANDOVER, pid, ts, task, b"\x01" * sig_len)


# --- data blocks ---------------------------------------------------------------


def test_handover_block_is_79_or_80_bytes():
    b71 = enc.encode_data_block(handover_block(71))
    b72 = enc.encode_data_block(handover_block(72))
    assert len(b71) == 79 and b71[0] == 78
    assert len(b72) == 80 and b72[0] == 79


def test_marker_only_block_is_8_bytes():
    block = enc.DataBlock(enc.TxKind.START, 65535, 0)
    data = enc.encode_data_block(block)
    assert len(data) == 8
    assert enc.decode_data_block(data) == block


def test_field_layout():
    data = enc.encode_data_block(handover_block(71, pid=0x0102, task=0x03, ts=0x0A0B0C0D))
    assert data[1:3] == b"\x01\x02"  # process id, big-endian
    assert data[3] == 0x03  # task marker
    assert data[4:8] == b"\x0a\x0b\x0c\x0d"  # timestamp, big-endian


def test_oversize_signature_rejected():
    with pytest.raises(enc.BadSignatureLength):
        enc.encode_data_block(
            enc.DataBlock(enc.TxKind.HANDOVER, 1, 0, 1, b"\x00" * 73)
        )


def test_process_id_range():
    with pytest.raises(enc.EncodingError):
        enc.encode_data_block(enc.DataBlock(enc.TxKind.START, 65536, 0))


def test_decode_truncated():
    with pytest.raises(enc.TruncatedInput):
        enc.decode_data_block(b"")
    with pytest.raises(enc.TruncatedInput):
        enc.decode_data_block(b"\x07\x00\x01")


def test_decode_length_mismatch():
    good = bytearray(enc.encode_data_block(enc.DataBlock(enc.TxKind.START, 1, 0)))
    good[0] = 9
    with pytest.raises(enc.LengthMismatch):
        enc.decode_data_block(bytes(good))


def test_unassigned_marker_rejected():
    raw = bytes([7]) + (1).to_bytes(2, "big") + bytes([0xF0]) + (0).to_bytes(4, "big")
    with pytest.raises(enc.UnknownMarker):
        enc.decode_data_block(raw)


def test_signature_on_marker_block_rejected():
    raw = bytes([78]) + (1).to_bytes(2, "big") + bytes([0x00]) + (0).to_bytes(4, "big") + b"\x01" * 71
    with pytest.raises(enc.UnknownMarker):
        enc.decode_data_block(raw)


def test_extraordinary_end_marker():
    block = enc.DataBlock(enc.TxKind.END, 5, 10, extraordinary=True)
    data = enc.encode_data_block(block)
    assert data[3] == 0xFF
    assert enc.decode_data_block(data).extraordinary


MARKER_KINDS = [
    (enc.TxKind.START, 0x00),
    (enc.TxKind.SPLIT, 0xFC),
    (enc.TxKind.JOIN, 0xFD),
    (enc.TxKind.END, 0xFE),
]


@pytest.mark.parametrize("kind,marker", MARKER_KINDS)
def test_marker_table(kind, marker):
    data = enc.encode_data_block(enc.DataBlock(kind, 1, 2))
    assert data[3] == marker


@settings(max_examples=300, deadline=None)
@given(
    pid=st.integers(0, 65535),
    ts=st.integers(0, 2**32 - 1),
    task=st.integers(1, 251),
    sig_len=st.sampled_from([71, 72]),
    payload=st.binary(min_size=72, max_size=72),
)
def test_block_roundtrip_property(pid, ts, task, sig_len, payload):
    block = enc.DataBlock(enc.TxKind.HANDOVER, pid, ts, task, payload[:sig_len])
    assert enc.decode_data_block(enc.encode_data_block(block)) == block


# --- redeem scripts --------------------------------------------------------------


def test_redeem_script_bytes_with_hash():
    key_hash = bytes(range(20))
    data_hash = bytes(range(32))
    script = enc.build_redeem_script(key_hash, data_hash)
    want = (
        bytes([32]) + data_hash + bytes([0x75])  # push hash, drop
        + bytes([0x76, 0xA9, 0x14]) + key_hash + bytes([0x88, 0xAC])
    )
    assert script == want


def test_redeem_script_without_hash_is_plain_clause():
    key_hash = bytes(range(20))
    script = enc.build_redeem_script(key_hash)
    assert len(script) == 25
    assert enc.parse_redeem_script(script) == enc.RedeemScript(key_hash, None)


def test_redeem_script_roundtrip():
    rng = random.Random(4)
    for _ in range(500):
        key_hash = rng.getrandbits(160).to_bytes(20, "big")
        data_hash = rng.getrandbits(256).to_bytes(32, "big") if rng.random() < 0.5 else None
        script = enc.build_redeem_script(key_hash, data_hash)
        assert enc.parse_redeem_script(script) == enc.RedeemScript(key_hash, data_hash)


def test_multisig_shape_rejected():
    two_of_two = (
        bytes([0x52, 33]) + b"\x02" + b"\x11" * 32
        + bytes([33]) + b"\x03" + b"\x22" * 32
        + bytes([0x52, 0xAE])
    )
    with pytest.raises(enc.UnsupportedScriptShape):
        enc.parse_redeem_script(two_of_two)


def test_truncated_redeem_script_rejected():
    script = enc.build_redeem_script(bytes(20), bytes(32))
    with pytest.raises(enc.EncodingError):
        enc.parse_redeem_script(script[:-3])


def test_bad_hash_sizes_rejected():
    with pytest.raises(enc.EncodingError):
        enc.build_redeem_script(bytes(19))
    with pytest.raises(enc.EncodingError):
        enc.build_redeem_script(bytes(20), bytes(31))


# --- outputs and transactions ------------------------------------------------------


def test_data_output_is_zero_value_and_unspendable_shape():
    out = enc.TxOutput.data(enc.DataBlock(enc.TxKind.START, 1, 0))
    assert out.value == 0
    assert out.script[0] == 0x6A  # return-abort operator first
    with pytest.raises(enc.TransactionInvariantError):
        enc.TxOutput(5, out.script)


def sample_tx(kind=enc.TxKind.HANDOVER, data_outputs=1, prev_value=10**6):
    rng = random.Random(9)
    kp = Keypair.generate(rng)
    outputs = [enc.TxOutput.to_script_hash(900_000, hash160(enc.build_redeem_script(kp.key_hash)))]
    for i in range(data_outputs):
        if kind == enc.TxKind.HANDOVER:
            block = enc.DataBlock(kind, 1, i, 5, b"\x07" * 71)
        else:
            block = enc.DataBlock(kind, 1, i)
        outputs.append(enc.TxOutput.data(block))
    return enc.EnrichedTransaction(
        inputs=(enc.TxInput(b"\x42" * 32, 0, prev_value=prev_value),),
        outputs=tuple(outputs),
    )


def test_transaction_roundtrip_all_kinds(rng, fee_policy):
    from chorchain import engine as eng
    from chorchain.chain import ChainSim, SimConfig

    sim = ChainSim(SimConfig(seed=1))
    owner = Keypair.generate(rng)
    funds = sim.grant(owner, [1_000_000])
    start, token = eng.build_start(funds, 3, 100, fee_policy, 5, owner, rng)
    split, tokens = eng.build_split(token, 2, 110, fee_policy, rng)
    join, merged = eng.build_join(tokens, 120, fee_policy, rng)
    tpl = eng.build_handover_template(merged, 9, 130, owner.key_hash, None, fee_policy)
    end = eng.build_end(merged, merged.holder_key, 140, fee_policy)
    for tx in (start, split, join, tpl, end):
        raw = enc.serialize_transaction(tx)
        assert enc.deserialize_transaction(raw) == tx


def test_two_data_outputs_rejected():
    with pytest.raises(enc.TransactionInvariantError, match="one data output"):
        enc.serialize_transaction(sample_tx(data_outputs=2))


def test_negative_fee_rejected():
    with pytest.raises(enc.TransactionInvariantError, match="exceed"):
        enc.serialize_transaction(sample_tx(prev_value=100))


def test_fee_unknown_when_inputs_unresolved():
    tx = sample_tx()
    stripped = enc.deserialize_transaction(enc.serialize_transaction(tx))
    assert stripped.fee() is None
    assert tx.fee() == 10**6 - 900_000


def test_classify_kinds():
    assert sample_tx().kind == enc.TxKind.HANDOVER
    plain = enc.EnrichedTransaction(
        inputs=(enc.TxInput(b"\x01" * 32, 0, prev_value=1000),),
        outputs=(enc.TxOutput.to_key_hash(500, bytes(20)),),
    )
    assert plain.kind is None


def test_timestamp_changes_tx_id():
    a = sample_tx()
    block = enc.DataBlock(enc.TxKind.HANDOVER, 1, 999, 5, b"\x07" * 71)
    b = enc.EnrichedTransaction(a.inputs, (a.outputs[0], enc.TxOutput.data(block)))
    assert a.tx_id != b.tx_id


def test_signing_digest_ignores_unlockings_and_receiver_sig():
    tx = sample_tx()
    digest = enc.signing_digest(tx)
    # swap in a different receiver signature; digest must not move
    block = enc.DataBlock(enc.TxKind.HANDOVER, 1, 0, 5, b"\x09" * 72)
    other = enc.EnrichedTransaction(tx.inputs, (tx.outputs[0], enc.TxOutput.data(block)))
    assert enc.signing_digest(other) == digest
    # but a changed task id must move it
    block2 = enc.DataBlock(enc.TxKind.HANDOVER, 1, 0, 6, b"\x07" * 71)
    changed = enc.EnrichedTransaction(tx.inputs, (tx.outputs[0], enc.TxOutput.data(block2)))
    assert enc.signing_digest(changed) != digest


def stripped_copy_digest(tx):
    """The signing digest by its definition: the hash of a copy of ``tx``
    with every unlocking emptied and a handover block's receiver signature
    replaced by the placeholder, serialized on the wire."""
    inputs = tuple(
        enc.TxInput(i.prev_tx_id, i.prev_output_index, enc.Unlocking(), prev_value=i.prev_value)
        for i in tx.inputs
    )
    outputs = []
    for out in tx.outputs:
        if out.kind == enc.OutputKind.DATA and out.data_block.kind == enc.TxKind.HANDOVER:
            b = out.data_block
            out = enc.TxOutput.data(
                enc.DataBlock(b.kind, b.process_id, b.timestamp, b.task_id, enc.TEMPLATE_SIGNATURE)
            )
        outputs.append(out)
    stripped = enc.EnrichedTransaction(inputs, tuple(outputs), tx.version, tx.locktime)
    return sha256d(enc.serialize_transaction(stripped))


@st.composite
def digest_blocks(draw):
    """A data block of any kind; a handover's with a 71- or 72-byte
    receiver signature or the placeholder."""
    kind = draw(st.sampled_from(list(enc.TxKind)))
    pid, ts = draw(st.integers(0, 65535)), draw(st.integers(0, 2**32 - 1))
    if kind == enc.TxKind.HANDOVER:
        sig = draw(st.just(enc.TEMPLATE_SIGNATURE) | st.binary(min_size=71, max_size=72))
        return enc.DataBlock(kind, pid, ts, draw(st.integers(1, 251)), sig)
    return enc.DataBlock(kind, pid, ts, extraordinary=kind == enc.TxKind.END and draw(st.booleans()))


@st.composite
def digest_txs(draw):
    """Transactions in the shapes of the acceptance tests' ``random_tx``,
    with any unlocking shape (even those the wire refuses), zero to two
    data blocks, outpoints that may repeat and input values that may fall
    short, so that some are structurally invalid."""
    inputs = tuple(
        enc.TxInput(
            bytes([draw(st.integers(0, 3))]) * 32,
            draw(st.integers(0, 1)),
            enc.Unlocking(
                draw(st.sampled_from([b"", b"\x30" * 71, b"\x30" * 72])),
                draw(st.sampled_from([b"", b"\x02" * 33])),
                draw(st.sampled_from([b"", enc.build_redeem_script(b"\x05" * 20)])),
            ),
            draw(st.none() | st.integers(0, 3 * 10**6)),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    outputs = [
        enc.TxOutput.to_script_hash(draw(st.integers(1, 10**6)), b"\x07" * 20)
        for _ in range(draw(st.integers(0, 2)))
    ]
    if draw(st.booleans()):
        outputs.append(enc.TxOutput.to_key_hash(draw(st.integers(1, 10**6)), b"\x08" * 20))
    outputs += [enc.TxOutput.data(draw(digest_blocks())) for _ in range(draw(st.integers(0, 2)))]
    version, locktime = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    return enc.EnrichedTransaction(inputs, tuple(draw(st.permutations(outputs))), version, locktime)


@settings(max_examples=200, deadline=None)
@given(digest_txs())
@example(sample_tx())
@example(sample_tx(data_outputs=2))
@example(sample_tx(prev_value=100))
def test_signing_digest_is_the_stripped_copys_hash(tx):
    """The signing digest, written straight from the transaction, is the
    hash of the stripped copy; a transaction whose copy is structurally
    invalid has no digest."""
    try:
        want = stripped_copy_digest(tx)
    except enc.TransactionInvariantError:
        with pytest.raises(enc.TransactionInvariantError):
            enc.signing_digest(tx)
    else:
        assert enc.signing_digest(tx) == want


def test_hex_roundtrip():
    tx = sample_tx()
    assert enc.tx_from_hex(enc.tx_to_hex(tx)) == tx
    with pytest.raises(enc.EncodingError):
        enc.tx_from_hex("zz")


def test_split_arity_enforced():
    tx = sample_tx(kind=enc.TxKind.SPLIT)
    with pytest.raises(enc.TransactionInvariantError, match="two token outputs"):
        enc.serialize_transaction(tx)


def test_handover_block_without_task_id_has_no_marker():
    block = enc.DataBlock(enc.TxKind.HANDOVER, 1, 0, None, b"\x07" * 71)
    with pytest.raises(enc.EncodingError, match="no task id"):
        block.marker


def test_transaction_id_and_block_computed_once(monkeypatch):
    tx = sample_tx()
    want_id = sha256d(enc.serialize_transaction(tx))
    calls = []
    real = enc.serialize_transaction
    monkeypatch.setattr(enc, "serialize_transaction", lambda t: calls.append(t) or real(t))
    assert tx.tx_id == tx.tx_id == want_id
    assert len(calls) == 1
    assert tx.data_block is tx.data_block and tx.kind == enc.TxKind.HANDOVER
    twin = enc.EnrichedTransaction(tx.inputs, tx.outputs)
    assert twin == tx and hash(twin) == hash(tx) and len({tx, twin}) == 1
    assert repr(twin) == repr(tx)


# --- unlocking scripts -----------------------------------------------------------


unlocking_fields = st.one_of(st.just(b""), st.binary(min_size=1, max_size=255))


@settings(max_examples=200, deadline=None)
@given(unlocking_fields, unlocking_fields, unlocking_fields)
@example(b"", b"\x02" * 33, b"\x01" * 59)  # parsed back with the fields shifted, if written
def test_unlocking_round_trips_or_is_refused(signature, public_key, redeem_script):
    """Empty fields are not pushed, so only the shapes from_script can give
    back serialize: empty, a redeem script alone, and a signature and key
    with or without a redeem script. Every other shape is refused."""
    unlocking = enc.Unlocking(signature, public_key, redeem_script)
    shape = (bool(signature), bool(public_key), bool(redeem_script))
    returnable = shape[:2] in ((False, False), (True, True))
    if returnable:
        assert enc.Unlocking.from_script(unlocking.to_script()) == unlocking
    else:
        with pytest.raises(enc.TransactionInvariantError):
            unlocking.to_script()
