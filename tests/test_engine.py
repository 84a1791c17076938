import hashlib

import pytest

from chorchain import engine as eng
from chorchain import harness as H
from chorchain import model as M
from chorchain.crypto import Keypair, hash160, sha256, sign, verify
from chorchain.encoding import (
    EnrichedTransaction,
    OutputKind,
    TxInput,
    TxKind,
    TxOutput,
    build_redeem_script,
    signing_digest,
)

from conftest import make_instance


def spendable(value, key, tx_id=b"\x33" * 32, index=0):
    return eng.Spendable(tx_id, index, value, key)


# --- start ------------------------------------------------------------------------


def test_start_budget_shortfall(rng, fee_policy):
    owner = Keypair.generate(rng)
    with pytest.raises(eng.InsufficientFunds) as err:
        eng.build_start([spendable(100_000, owner)], 1, 0, fee_policy, 6, owner, rng)
    assert err.value.required == 132_874
    assert err.value.shortfall == 32_874


def test_start_exact_budget_omits_change(rng, fee_policy):
    owner = Keypair.generate(rng)
    funds = [spendable(132_874, owner)]
    tx, token = eng.build_start(funds, 1, 0, fee_policy, 6, owner, rng)
    assert token.value == 132_874 - fee_policy.per_tx_fee
    assert len(tx.outputs) == 2  # token + data, no change
    assert tx.fee() == fee_policy.per_tx_fee


def test_start_change_returned(rng, fee_policy):
    owner = Keypair.generate(rng)
    tx, token = eng.build_start([spendable(200_000, owner)], 1, 0, fee_policy, 6, owner, rng)
    change = [o for o in tx.outputs if o.kind == OutputKind.KEY_HASH]
    assert change and change[0].value == 200_000 - 132_874
    assert change[0].key_hash == owner.key_hash


def test_start_coin_selection_largest_first(rng, fee_policy):
    owner = Keypair.generate(rng)
    funds = [
        spendable(30_000, owner, b"\x01" * 32),
        spendable(140_000, owner, b"\x02" * 32),
        spendable(20_000, owner, b"\x03" * 32),
    ]
    tx, _ = eng.build_start(funds, 1, 0, fee_policy, 6, owner, rng)
    assert len(tx.inputs) == 1 and tx.inputs[0].prev_tx_id == b"\x02" * 32


def test_start_process_id_range(rng, fee_policy):
    owner = Keypair.generate(rng)
    with pytest.raises(eng.EngineError, match="two-byte"):
        eng.build_start([spendable(10**6, owner)], 65536, 0, fee_policy, 6, owner, rng)


def test_safety_factor_scales_budget():
    from fractions import Fraction

    policy = eng.FeePolicy(10_000, Fraction(3, 2))
    assert policy.budget(4) == 60_000
    with pytest.raises(ValueError):
        eng.FeePolicy(10_000, Fraction(1, 2))


# --- handover template ----------------------------------------------------------------


@pytest.fixture
def live(rng, fee_policy, funded_sim, models):
    sim, owner_key, funds = funded_sim
    start_tx, token = make_instance(sim, owner_key, funds, fee_policy, rng)
    receiver = Keypair.generate(rng)
    data = b"payload"
    return dict(
        sim=sim,
        owner=owner_key,
        start=start_tx,
        token=token,
        receiver=receiver,
        data_hash=sha256(data),
        model=models[1],
        fee=fee_policy,
        rng=rng,
    )


def expected_terms(live, task=1, **kw):
    defaults = dict(
        process_id=1,
        task_id=task,
        timestamp=int(live["sim"].now),
        receiver_key_hash=live["receiver"].key_hash,
        data_hash=live["data_hash"],
    )
    defaults.update(kw)
    return eng.ExpectedTerms(**defaults)


def receiver_sign(tpl, key):
    """The receiver's signature once its checks pass: the template's
    signing digest under its fresh transaction key."""
    return sign(signing_digest(tpl), key)


def finalize(tpl, key, holder_key):
    """The published handover of ``tpl`` to ``key``."""
    return eng.finalize_and_sign_as_sender(
        tpl, key.key_hash, receiver_sign(tpl, key), key.public_key, holder_key
    )


def template(live, task=1, data_hash="default", ts=None):
    dh = live["data_hash"] if data_hash == "default" else data_hash
    return eng.build_handover_template(
        live["token"], task, ts if ts is not None else int(live["sim"].now),
        live["receiver"].key_hash, dh, live["fee"],
    )


def test_template_output_recomputes(live):
    tpl = template(live)
    want = hash160(build_redeem_script(live["receiver"].key_hash, live["data_hash"]))
    assert tpl.token_outputs[0][1].script_hash == want
    assert eng.validate_template(tpl, expected_terms(live), live["model"], live["sim"]).accepted


def test_template_without_data_hash_locks_plain_clause(live):
    tpl = template(live, data_hash=None)
    assert tpl.token_outputs[0][1].script_hash == hash160(
        build_redeem_script(live["receiver"].key_hash)
    )


def test_template_fee_deducted(live):
    tpl = template(live)
    assert tpl.token_outputs[0][1].value == live["token"].value - live["fee"].per_tx_fee


def test_template_token_would_vanish(live):
    tiny = eng.ProcessToken(1, b"\x01" * 32, 0, live["fee"].per_tx_fee, live["owner"],
                            build_redeem_script(live["owner"].key_hash))
    with pytest.raises(eng.TokenValueError):
        eng.build_handover_template(tiny, 1, 0, live["receiver"].key_hash, None, live["fee"])


def test_template_task_range(live):
    with pytest.raises(eng.EngineError):
        template(live, task=0)
    with pytest.raises(eng.EngineError):
        template(live, task=252)


# --- the four validation checks ----------------------------------------------------------


def test_check1_redeem_script_mismatch(live):
    tpl = template(live)
    from dataclasses import replace

    from chorchain.encoding import Unlocking

    wrong_redeem = build_redeem_script(Keypair.generate(live["rng"]).key_hash)
    txin = replace(tpl.inputs[0], unlocking=Unlocking(redeem_script=wrong_redeem))
    bad = replace(tpl, inputs=(txin,))
    verdict = eng.validate_template(bad, expected_terms(live), live["model"], live["sim"])
    assert not verdict.accepted and verdict.failed_check == 1


def test_check2_wrong_data_hash(live):
    tpl = template(live, data_hash=sha256(b"mutated"))
    verdict = eng.validate_template(tpl, expected_terms(live), live["model"], live["sim"])
    assert not verdict.accepted and verdict.failed_check == 2


def test_check2_template_locked_to_another_key(live):
    """What the receiver signs is locked to its own key: a template whose
    token output pays another key is refused before any signature."""
    other = Keypair.generate(live["rng"])
    tpl = eng.build_handover_template(
        live["token"], 1, int(live["sim"].now), other.key_hash, live["data_hash"], live["fee"]
    )
    verdict = eng.validate_template(tpl, expected_terms(live), live["model"], live["sim"])
    assert not verdict.accepted and verdict.failed_check == 2


def test_check3_wrong_task_is_the_papers_fault(live):
    tpl = template(live, task=2)
    verdict = eng.validate_template(tpl, expected_terms(live), live["model"], live["sim"])
    assert not verdict.accepted and verdict.failed_check == 3


def test_check3_timestamp_skew(live):
    tpl = template(live, ts=int(live["sim"].now) + 121)
    verdict = eng.validate_template(tpl, expected_terms(live), live["model"], live["sim"])
    assert not verdict.accepted and verdict.failed_check == 3
    ok = template(live, ts=int(live["sim"].now) + 120)
    assert eng.validate_template(ok, expected_terms(live), live["model"], live["sim"]).accepted


def test_check4_history_must_conform(live, models):
    # two colluding parties already recorded an off-model handover (task 3
    # straight after task 1); the next honest receiver must walk away
    sim, fee, rng = live["sim"], live["fee"], live["rng"]
    tpl = template(live)
    final = finalize(tpl, live["receiver"], live["token"].holder_key)
    assert sim.broadcast(final).accepted
    token2 = eng.token_from_handover(final, live["receiver"], live["data_hash"])

    rogue_key = Keypair.generate(rng)
    tpl_bad = eng.build_handover_template(
        token2, 3, int(sim.now), rogue_key.key_hash, live["data_hash"], fee
    )
    final_bad = finalize(tpl_bad, rogue_key, token2.holder_key)
    assert sim.broadcast(final_bad).accepted  # miners do not check conformance

    token3 = eng.token_from_handover(final_bad, rogue_key, live["data_hash"])
    honest = Keypair.generate(rng)
    tpl3 = eng.build_handover_template(
        token3, 2, int(sim.now), honest.key_hash, live["data_hash"], fee
    )
    terms3 = eng.ExpectedTerms(1, 2, int(sim.now), honest.key_hash, live["data_hash"])
    verdict = eng.validate_template(tpl3, terms3, live["model"], sim)
    assert not verdict.accepted and verdict.failed_check == 4


def test_check4_judges_the_step_being_signed(live):
    """Model 1 runs 1 -> 2 -> 3. Over a history with no task yet, a
    negotiated handover for task 2 is refused at check 4; a filler handover
    moves custody only and is a legal step."""
    model, sim = live["model"], live["sim"]
    verdict = eng.validate_template(template(live, task=2), expected_terms(live, 2), model, sim)
    assert not verdict.accepted and verdict.failed_check == 4
    assert "Deviation(position=1, expected=frozenset({1}), actual=2)" in verdict.reason
    filler = eng.FILLER_TASK_ID
    assert eng.validate_template(
        template(live, task=filler), expected_terms(live, filler), model, sim
    ).accepted


def test_unresolvable_ancestor_is_an_error_not_a_verdict(live):
    tpl = template(live)
    from dataclasses import replace

    txin = replace(tpl.inputs[0], prev_tx_id=b"\x77" * 32)
    orphan = replace(tpl, inputs=(txin,))
    with pytest.raises(eng.UnresolvableAncestor):
        eng.validate_template(orphan, expected_terms(live), live["model"], live["sim"])


# --- signatures --------------------------------------------------------------------------


def test_sign_as_receiver_and_lengths(live):
    tpl = template(live)
    sig = receiver_sign(tpl, live["receiver"])
    assert len(sig) in (71, 72)
    assert verify(signing_digest(tpl), sig, live["receiver"].public_key)


def test_finalize_rejects_corrupt_receiver_signature(live):
    tpl = template(live)
    receiver = live["receiver"]
    sig = bytearray(receiver_sign(tpl, receiver))
    sig[12] ^= 0xFF
    with pytest.raises(eng.BadReceiverSignature, match="does not verify"):
        eng.finalize_and_sign_as_sender(
            tpl, receiver.key_hash, bytes(sig), receiver.public_key, live["token"].holder_key
        )


def test_finalize_rejects_a_receiver_key_off_the_template(live):
    """A genuine signature by another key is refused on the key's hash,
    before any signature check."""
    tpl = template(live)
    other = Keypair.generate(live["rng"])
    with pytest.raises(eng.BadReceiverSignature, match="does not hash"):
        eng.finalize_and_sign_as_sender(
            tpl, live["receiver"].key_hash, receiver_sign(tpl, other), other.public_key,
            live["token"].holder_key,
        )


def test_finalize_rejects_the_right_key_under_a_signature_it_did_not_make(live):
    tpl = template(live)
    forged = receiver_sign(tpl, Keypair.generate(live["rng"]))
    receiver = live["receiver"]
    with pytest.raises(eng.BadReceiverSignature, match="does not verify"):
        eng.finalize_and_sign_as_sender(
            tpl, receiver.key_hash, forged, receiver.public_key, live["token"].holder_key
        )


def test_finalize_rejects_wrong_sender_key(live):
    tpl = template(live)
    with pytest.raises(eng.UnlockError):
        finalize(tpl, live["receiver"], Keypair.generate(live["rng"]))


def test_finalized_tx_passes_script_validation_and_broadcast(live):
    tpl = template(live)
    final = finalize(tpl, live["receiver"], live["token"].holder_key)
    eng.validate_transaction_scripts(final, live["sim"])
    assert final.data_block.receiver_signature == receiver_sign(tpl, live["receiver"])
    assert live["sim"].broadcast(final).accepted


# --- split / join / end --------------------------------------------------------------------


def test_split_conserves_value(live):
    tx, tokens = eng.build_split(live["token"], 2, 0, live["fee"], live["rng"])
    assert len(tokens) == 2
    assert sum(t.value for t in tokens) == live["token"].value - live["fee"].per_tx_fee
    assert tx.kind == TxKind.SPLIT
    assert live["sim"].broadcast(tx).accepted


def test_split_remainder_to_first_branch(live):
    tx, tokens = eng.build_split(live["token"], 3, 0, live["fee"], live["rng"])
    distributable = live["token"].value - live["fee"].per_tx_fee
    share = distributable // 3
    assert [t.value for t in tokens] == [share + distributable % 3, share, share]


def test_split_needs_two_branches(live):
    with pytest.raises(eng.EngineError, match="two token outputs"):
        eng.build_split(live["token"], 1, 0, live["fee"], live["rng"])


def test_split_forwards_data_hash(live):
    token = eng.ProcessToken(
        1, live["token"].tx_id, 0, live["token"].value, live["token"].holder_key,
        live["token"].redeem_script, attached_data_hash=live["data_hash"],
    )
    _, tokens = eng.build_split(token, 2, 0, live["fee"], live["rng"])
    assert all(t.attached_data_hash == live["data_hash"] for t in tokens)


def test_join_merges_minus_fee(live):
    fee = live["fee"].per_tx_fee
    split_tx, tokens = eng.build_split(live["token"], 2, 0, live["fee"], live["rng"])
    assert live["sim"].broadcast(split_tx).accepted
    join_tx, merged = eng.build_join(tokens, 1, live["fee"], live["rng"])
    assert merged.value == live["token"].value - 2 * fee
    assert join_tx.kind == TxKind.JOIN
    assert live["sim"].broadcast(join_tx).accepted


def test_join_rejects_mixed_process_ids(live):
    _, tokens = eng.build_split(live["token"], 2, 0, live["fee"], live["rng"])
    from dataclasses import replace

    alien = replace(tokens[1], process_id=2)
    with pytest.raises(eng.EngineError, match="different process"):
        eng.build_join([tokens[0], alien], 1, live["fee"], live["rng"])


def test_join_needs_two_tokens(live):
    with pytest.raises(eng.EngineError, match="at least two"):
        eng.build_join([live["token"]], 1, live["fee"], live["rng"])


def test_end_returns_residual_to_owner(live):
    tx = eng.build_end(live["token"], live["token"].holder_key, 5, live["fee"])
    residual = [o for o in tx.outputs if o.kind == OutputKind.KEY_HASH]
    assert residual[0].value == live["token"].value - live["fee"].per_tx_fee
    assert tx.kind == TxKind.END
    assert not tx.data_block.extraordinary
    assert live["sim"].broadcast(tx).accepted


def test_end_requires_owner(live, rng):
    stranger = Keypair.generate(rng)
    with pytest.raises(eng.EngineError, match="owner"):
        eng.build_end(live["token"], stranger, 5, live["fee"])
    # extraordinary end may be published by whoever holds the token
    tx = eng.build_end(live["token"], stranger, 5, live["fee"], extraordinary=True)
    assert tx.data_block.extraordinary


def test_end_on_spent_token_rejected_by_chain(live):
    tx = eng.build_end(live["token"], live["token"].holder_key, 5, live["fee"])
    assert live["sim"].broadcast(tx).accepted
    again = eng.build_end(live["token"], live["token"].holder_key, 6, live["fee"])
    result = live["sim"].broadcast(again)
    assert not result.accepted and result.reason == "conflict"


def test_zero_residual_end_has_no_value_output(live, rng, fee_policy):
    key = Keypair.generate(rng)
    token = eng.ProcessToken(
        1, b"\x10" * 32, 0, fee_policy.per_tx_fee, key, build_redeem_script(key.key_hash)
    )
    tx = eng.build_end(token, key, 5, fee_policy)
    assert all(o.kind != OutputKind.KEY_HASH for o in tx.outputs)


# --- trace reconstruction --------------------------------------------------------------------


def run_split_join_instance(live):
    sim, fee, rng = live["sim"], live["fee"], live["rng"]
    ts = int(sim.now)
    h = template(live)
    final = finalize(h, live["receiver"], live["token"].holder_key)
    assert sim.broadcast(final).accepted
    token = eng.token_from_handover(final, live["receiver"], live["data_hash"])
    split_tx, tokens = eng.build_split(token, 2, ts + 1, fee, rng)
    assert sim.broadcast(split_tx).accepted
    # hand each branch token over to fresh keys, then join
    branch_tokens = []
    for i, t in enumerate(tokens):
        k = Keypair.generate(rng)
        tpl = eng.build_handover_template(t, 2 + i, ts + 2 + i, k.key_hash, None, fee)
        fin = finalize(tpl, k, t.holder_key)
        assert sim.broadcast(fin).accepted
        branch_tokens.append(eng.token_from_handover(fin, k, None))
    join_tx, merged = eng.build_join(branch_tokens, ts + 5, fee, rng)
    assert sim.broadcast(join_tx).accepted
    end_tx = eng.build_end(merged, merged.holder_key, ts + 6, fee)
    assert sim.broadcast(end_tx).accepted
    return live["start"].tx_id


def test_reconstruct_split_join_trace(live):
    start_id = run_split_join_instance(live)
    trace = eng.reconstruct_trace(live["sim"], start_id)
    kinds = [e.kind for e in trace.events]
    assert kinds.count(M.EventKind.SPLIT) == 1
    assert kinds.count(M.EventKind.JOIN) == 1
    assert kinds.count(M.EventKind.HANDOVER) == 3
    assert trace.events[-1].kind == M.EventKind.END
    assert trace.task_sequence() == (1, 2, 3)
    # branch lineages diverge under the split
    lineages = {e.lineage for e in trace.events if e.kind == M.EventKind.HANDOVER}
    assert ((0,) in lineages) and ((1,) in lineages)


class RecordingView:
    """A chain view that logs every query it answers."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def get_transaction(self, tx_id):
        self.calls.append(f"get_transaction {tx_id.hex()}")
        return self.inner.get_transaction(tx_id)

    def get_spender(self, outpoint):
        self.calls.append(f"get_spender {outpoint[0].hex()}:{outpoint[1]}")
        return self.inner.get_spender(outpoint)


def test_reconstruct_trace_query_sequence_is_pinned(live):
    """The receiver's check 4 bills every view query as provider time, so
    the query sequence is part of the program's output: depth first, the
    last pushed outpoint first, and a spender fetched before the visited
    check, so a join is fetched once per incoming branch."""
    start_id = run_split_join_instance(live)
    view = RecordingView(live["sim"])
    eng.reconstruct_trace(view, start_id)
    assert len(view.calls) == 15
    digest = hashlib.sha256("\n".join(view.calls).encode()).hexdigest()
    assert digest == "4f03b3b85036df5959dd2cd259652d934a0b7ccf7236da238a4c2c60548aa2b8"


def test_reconstruct_unspent_start_token(live):
    trace = eng.reconstruct_trace(live["sim"], live["start"].tx_id)
    assert [e.kind for e in trace.events] == [M.EventKind.START]


def test_reconstruct_requires_start(live):
    with pytest.raises(eng.EngineError, match="not a process start"):
        eng.reconstruct_trace(live["sim"], b"\x00" * 32)


def test_broken_lineage_reported(live):
    # spend the token with a plain (non-process) payment
    sim, token = live["sim"], live["token"]
    digestless = EnrichedTransaction(
        inputs=(TxInput(token.tx_id, token.output_index, prev_value=token.value),),
        outputs=(TxOutput.to_key_hash(token.value - 20_000, live["owner"].key_hash),),
    )
    from chorchain.encoding import Unlocking
    from chorchain.crypto import sign
    from chorchain.encoding import signing_digest
    from dataclasses import replace

    digest = signing_digest(digestless)
    rogue = replace(
        digestless,
        inputs=(
            replace(
                digestless.inputs[0],
                unlocking=Unlocking(
                    sign(digest, token.holder_key),
                    token.holder_key.public_key,
                    token.redeem_script,
                ),
            ),
        ),
    )
    assert sim.broadcast(rogue).accepted
    with pytest.raises(eng.BrokenLineage) as err:
        eng.reconstruct_trace(sim, live["start"].tx_id)
    assert err.value.tx_id == rogue.tx_id


def test_default_tx_estimate(models):
    # The start budget covers every planned transaction after the start;
    # XOR picks resolve into one path and add none of their own.
    def estimate(model_id, choices):
        return H.planned_tx_count(H.build_plan(models[model_id], choices))

    assert estimate(1, []) == 3 + 1 + 1  # 3 handovers, filler, end
    assert estimate(3, []) == 4 + 1 + 1 + 2 + 1  # 4 handovers, split, join, 2 fillers, end
    assert estimate(4, [0]) == estimate(4, [1]) == 4 + 1 + 1 + 2 + 1


def test_template_without_data_block_raises(live):
    """validate_template refuses to judge a transaction that is not a
    handover, before any check or chain query."""
    tx = EnrichedTransaction(
        inputs=(TxInput(b"\x21" * 32, 0, prev_value=50_000),),
        outputs=(TxOutput.to_key_hash(40_000, bytes(20)),),
    )
    for not_a_handover in (tx, live["start"]):
        with pytest.raises(eng.EngineError, match="no handover data block"):
            eng.validate_template(not_a_handover, expected_terms(live), live["model"], live["sim"])


def test_token_from_handover_refuses_other_kinds(funded_sim, fee_policy, rng):
    sim, owner_key, funds = funded_sim
    start_tx, _ = make_instance(sim, owner_key, funds, fee_policy, rng)
    with pytest.raises(eng.EngineError, match="handover transaction"):
        eng.token_from_handover(start_tx, Keypair.generate(rng), None)
