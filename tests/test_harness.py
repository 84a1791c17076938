import functools
import io
import json
import statistics

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chorchain import harness as H
from chorchain.engine import FILLER_TASK_ID

from conftest import DER_EDITS, tamper_der


# --- planning ---------------------------------------------------------------------


def planned_task_sequence(plan):
    return tuple(s.task_id for s in plan if isinstance(s, H.PlanTask))


def test_plan_model1():
    plan = H.build_plan(H.builtin_model(1), [0])
    handovers = H.planned_handovers(plan)
    assert [(h.sender, h.receiver, h.task_id) for h in handovers] == [
        ("owner", "p1", 1),
        ("p1", "p2", 2),
        ("p2", "p3", 3),
        ("p3", "owner", FILLER_TASK_ID),
    ]
    assert H.planned_tx_count(plan) == 5
    assert planned_task_sequence(plan) == (1, 2, 3)


def test_plan_model2_variants():
    for pick, executed in ((0, 2), (1, 3)):
        plan = H.build_plan(H.builtin_model(2), [pick])
        assert planned_task_sequence(plan) == (1, executed, 4)


def test_plan_model3_has_split_join_and_fillers():
    plan = H.build_plan(H.builtin_model(3), [0])
    kinds = [type(s).__name__ for s in plan]
    assert kinds.count("PlanSplit") == 1
    assert kinds.count("PlanJoin") == 1
    handovers = H.planned_handovers(plan)
    fillers = [h for h in handovers if h.filler]
    assert len(fillers) == 2  # one branch custody return, one final return
    # the proceeding handover documents the post-join task
    proceed = [h for h in handovers if h.task_id == 4]
    assert proceed and proceed[0].receiver == "p4"
    assert H.planned_tx_count(plan) == 9


def test_plan_model4_respects_xor_choice():
    for pick, last in ((0, 4), (1, 5)):
        plan = H.build_plan(H.builtin_model(4), [pick])
        assert planned_task_sequence(plan)[-1] == last
        proceed = [h for h in H.planned_handovers(plan) if h.task_id == last]
        assert proceed[0].receiver == f"p{last}"
        assert H.planned_tx_count(plan) == 9  # 4 handovers, split, join, 2 fillers, end


_PIN_PREFIX = [
    ("PlanStart", None, None, None, None),
    ("PlanHandover", "owner", "p1", 1, False),
    ("PlanTask", "p1", None, 1, None),
]
_PIN_SPLIT = [
    ("PlanSplit", "p1", None, None, None),
    ("PlanHandover", "p1", "p2", 2, False),
    ("PlanTask", "p2", None, 2, None),
    ("PlanHandover", "p1", "p3", 3, False),
    ("PlanTask", "p3", None, 3, None),
]


def _pin_join(task):
    actor = f"p{task}"
    return [
        ("PlanHandover", "p2", actor, task, False),
        ("PlanHandover", "p3", actor, FILLER_TASK_ID, True),
        ("PlanJoin", actor, None, None, None),
        ("PlanTask", actor, None, task, None),
    ]


def _pin_seq(*pairs):
    out = []
    for sender, task in pairs:
        actor = f"p{task}"
        out += [("PlanHandover", sender, actor, task, False), ("PlanTask", actor, None, task, None)]
    return out


def _pin_tail(holder):
    return [
        ("PlanHandover", holder, "owner", FILLER_TASK_ID, True),
        ("PlanEnd", "owner", None, None, None),
    ]


# every plan of the built-in models: (step type, actor or sender, receiver,
# task id, filler); a change here changes what every scenario executes
PINNED_PLANS = {
    (1, 0): _PIN_PREFIX + _pin_seq(("p1", 2), ("p2", 3)) + _pin_tail("p3"),
    (2, 0): _PIN_PREFIX + _pin_seq(("p1", 2), ("p2", 4)) + _pin_tail("p4"),
    (2, 1): _PIN_PREFIX + _pin_seq(("p1", 3), ("p3", 4)) + _pin_tail("p4"),
    (3, 0): _PIN_PREFIX + _PIN_SPLIT + _pin_join(4) + _pin_tail("p4"),
    (4, 0): _PIN_PREFIX + _PIN_SPLIT + _pin_join(4) + _pin_tail("p4"),
    (4, 1): _PIN_PREFIX + _PIN_SPLIT + _pin_join(5) + _pin_tail("p5"),
}


@pytest.mark.parametrize("model_id,pick", sorted(PINNED_PLANS))
def test_every_plan_is_pinned(model_id, pick):
    def row(step):
        return (
            type(step).__name__,
            getattr(step, "actor", getattr(step, "sender", None)),
            getattr(step, "receiver", None),
            getattr(step, "task_id", None),
            getattr(step, "filler", None),
        )

    plan = H.build_plan(H.builtin_model(model_id), [pick])
    assert [row(s) for s in plan] == PINNED_PLANS[model_id, pick]


def test_fault_step_validated():
    with pytest.raises(H.ScenarioError, match="fault step"):
        H.run_scenario(H.ScenarioConfig(model_id=1, fault_step=9))


def test_bad_variant_rejected():
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="7"))
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="zebra"))
    # model 4's XOR block follows its AND block, so the join peeks the pick
    for variant in ("2", "7", "-1"):
        with pytest.raises(H.ScenarioError, match=f"variant picks branch {variant} of 2"):
            H.run_scenario(H.ScenarioConfig(model_id=4, variant=variant))


# --- fault-free runs -----------------------------------------------------------------


@pytest.mark.parametrize("model_id,variant", [(1, "0"), (2, "0"), (2, "1"), (3, "0"), (4, "0"), (4, "1")])
def test_fault_free_runs_conform_and_conserve(model_id, variant):
    result = H.run_scenario(H.ScenarioConfig(model_id=model_id, variant=variant, seed=31))
    run = result.runs[0]
    assert result.trace_reports[0]["verdict"] == "conformant"
    assert run.start_budget - run.end_residual == run.total_fees
    assert not run.aborted
    plan = H.build_plan(H.builtin_model(model_id), [int(v) for v in variant.split(",")])
    assert run.tx_count == H.planned_tx_count(plan) + 1  # plus the start tx


def test_executed_tasks_match_plan():
    result = H.run_scenario(H.ScenarioConfig(model_id=4, variant="1", seed=13))
    events = result.trace_reports[0]["events"]
    tasks = tuple(e["task_id"] for e in events if e["kind"] == "handover" and not e["filler"])
    plan = H.build_plan(H.builtin_model(4), [1])
    assert tasks == planned_task_sequence(plan)


def test_phase_fractions_sum_to_one():
    result = H.run_scenario(H.ScenarioConfig(model_id=2, seed=5))
    run = result.runs[0]
    fractions = [run.phase_seconds.get(p, 0.0) / run.duration for p in H.PHASES]
    assert abs(sum(fractions) - 1.0) < 1e-9
    assert run.phase_seconds["confirm"] > 0


def test_baseline_runs_only_sleep():
    result = H.run_scenario(H.ScenarioConfig(model_id=3, verify=False, seed=5))
    run = result.runs[0]
    assert run.tx_count == 0 and run.total_fees == 0
    assert run.phase_seconds["confirm"] == 0
    expected = sum(H.task_duration(t) for t in (1, 2, 3, 4))
    assert abs(run.duration - expected) / expected < 0.01  # jitter only


def test_untagged_clock_advance_is_reported(monkeypatch):
    # seconds charged to a phase outside PHASES are missing from the tally
    monkeypatch.setattr(H._Run, "_sleep_task", lambda self, task: self.sim.advance_time(0.1, "nap"))
    with pytest.raises(H.ScenarioError, match="disagree"):
        H.run_scenario(H.ScenarioConfig(model_id=1, verify=False, seed=5))


def test_greedy_runs_faster_than_non_greedy():
    slow = H.run_scenario(H.ScenarioConfig(model_id=4, seed=17, greedy=False)).runs[0]
    fast = H.run_scenario(H.ScenarioConfig(model_id=4, seed=17, greedy=True)).runs[0]
    assert slow.duration > fast.duration
    assert fast.start_budget - fast.end_residual == fast.total_fees


def test_determinism_same_seed_same_everything():
    a = H.run_scenario(H.ScenarioConfig(model_id=3, seed=23, repetitions=2))
    b = H.run_scenario(H.ScenarioConfig(model_id=3, seed=23, repetitions=2))
    assert a.dumps == b.dumps
    assert [r.to_row() for r in a.runs] == [r.to_row() for r in b.runs]
    c = H.run_scenario(H.ScenarioConfig(model_id=3, seed=24))
    assert c.dumps[0] != a.dumps[0]


def test_fault_injection_detected_and_recorded():
    result = H.run_scenario(H.ScenarioConfig(model_id=2, fault_step=2, seed=8))
    run = result.runs[0]
    assert run.aborted and run.detection == "detected"
    events = result.trace_reports[0]["events"]
    assert events[-1]["kind"] == "end" and events[-1]["extraordinary"]
    assert result.trace_reports[0]["verdict"] == "conformant"  # prefix of a legal run


@pytest.mark.parametrize("greedy", [False, True])
def test_receiver_refusing_the_published_handover_stops_the_run(monkeypatch, greedy):
    """The receiver compares the published transaction against the template
    it signed. Here its copy of the template differs by one satoshi, so it
    refuses the receipt, and the run stops there with the receiver's reason."""
    from dataclasses import replace

    from chorchain import protocol as proto

    original = proto.Participant.confirm_receipt

    def confirm_against_another_template(self, session):
        tx = session.template.tx
        token = replace(tx.outputs[0], value=tx.outputs[0].value - 1)
        other = replace(tx, outputs=(token,) + tx.outputs[1:])
        session.template = replace(session.template, tx=other)
        return original(self, session)

    monkeypatch.setattr(proto.Participant, "confirm_receipt", confirm_against_another_template)
    with pytest.raises(
        H.ScenarioError,
        match="^p1 refused the published handover: "
        "published transaction does not match the signed template$",
    ):
        H.run_scenario(H.ScenarioConfig(model_id=1, seed=5, greedy=greedy))


def test_participant_refusal_reaches_the_caller_as_a_scenario_error(monkeypatch):
    """A plan step its participant refuses, here a join with one token in
    hand, stops the run with the participant's reason."""
    build_plan = H.build_plan

    def plan_with_an_early_join(model, choices):
        plan = build_plan(model, choices)
        return plan[:1] + [H.PlanJoin(H.OWNER, 2)] + plan[1:]

    monkeypatch.setattr(H, "build_plan", plan_with_an_early_join)
    with pytest.raises(H.ScenarioError, match="^join reached without all branch tokens$"):
        H.run_scenario(H.ScenarioConfig(model_id=1, seed=5))


# --- metrics io and summaries -----------------------------------------------------------


def test_metrics_csv_roundtrip():
    result = H.run_scenario(H.ScenarioConfig(model_id=1, seed=3, repetitions=2))
    buf = io.StringIO()
    H.write_metrics_csv(result.runs, buf)
    buf.seek(0)
    rows = H.read_metrics_csv(buf)
    assert len(rows) == 2
    assert rows[0]["model_id"] == "1"
    assert float(rows[0]["duration"]) == pytest.approx(result.runs[0].duration)


def test_summarize_groups_and_stats():
    result = H.run_scenario(H.ScenarioConfig(model_id=1, seed=3, repetitions=3))
    buf = io.StringIO()
    H.write_metrics_csv(result.runs, buf)
    buf.seek(0)
    summary = H.summarize(H.read_metrics_csv(buf))
    assert len(summary["groups"]) == 1
    group = summary["groups"][0]
    assert group["runs"] == 3
    durations = [r.duration for r in result.runs]
    assert group["mean_duration"] == pytest.approx(statistics.fmean(durations))
    assert group["std_duration"] == pytest.approx(statistics.pstdev(durations))
    text = H.render_summary(summary)
    assert "mean dur" in text and "1" in text


def test_summarize_single_run_zero_std():
    result = H.run_scenario(H.ScenarioConfig(model_id=1, seed=3))
    buf = io.StringIO()
    H.write_metrics_csv(result.runs, buf)
    buf.seek(0)
    assert H.summarize(H.read_metrics_csv(buf))["groups"][0]["std_duration"] == 0.0


# --- audit ------------------------------------------------------------------------------


def model_doc(model_id):
    from importlib.resources import files

    return files("chorchain.models").joinpath(f"model{model_id}.json").read_text()


def test_audit_clean_run():
    result = H.run_scenario(H.ScenarioConfig(model_id=3, seed=41))
    report = H.audit(result.dumps[0], model_doc(3))
    assert report.all_clean
    inst = report.instances[0]
    assert inst.conformant and inst.ended and not inst.aborted_by_detection
    assert inst.value_conserved and not inst.signature_issues
    assert report.non_process_txs == 1  # the faucet grant


def test_audit_flags_detected_abort():
    result = H.run_scenario(H.ScenarioConfig(model_id=2, fault_step=2, seed=41))
    report = H.audit(result.dumps[0], model_doc(2))
    inst = report.instances[0]
    assert inst.aborted_by_detection
    assert inst.conformant  # the recorded prefix is legal


def test_audit_flags_tampered_byte():
    result = H.run_scenario(H.ScenarioConfig(model_id=1, seed=42))
    dump = result.dumps[0]
    lines = dump.splitlines()
    # find a handover transaction line and flip a digest-covered data-block
    # byte (the timestamp), which invalidates the sender's input signature
    from chorchain.encoding import TxKind, encode_data_block, tx_from_hex

    target = None
    for i, line in enumerate(lines):
        if line.startswith(("{", "block", "mempool")) or not line.strip():
            continue
        tx = tx_from_hex(line)
        if tx.kind == TxKind.HANDOVER:
            target = i
            break
    tx = tx_from_hex(lines[target])
    raw = bytearray(bytes.fromhex(lines[target]))
    block_bytes = encode_data_block(tx.data_block)
    offset = bytes(raw).index(block_bytes)
    raw[offset + 5] ^= 0x01  # timestamp byte
    lines[target] = raw.hex()
    report = H.audit("\n".join(lines) + "\n", model_doc(1))
    assert not report.all_clean
    assert any(i.signature_issues for i in report.instances)


def _model4_instance_lines(seed=3):
    from chorchain.encoding import tx_from_hex

    lines = H.run_scenario(H.ScenarioConfig(model_id=4, seed=seed)).dumps[0].splitlines()
    instance = [
        i for i, line in enumerate(lines[1:], start=1)
        if line and line != "mempool" and not line.startswith("block ")
        and tx_from_hex(line).data_block is not None
    ]
    return lines, instance


def test_audit_flags_a_deleted_handover_without_raising():
    from chorchain.encoding import TxKind, tx_from_hex

    lines, instance = _model4_instance_lines()
    # a handover inside the parallel block: the next transaction of its
    # branch spends an output the dump no longer holds
    deleted = instance[5]
    assert tx_from_hex(lines[deleted]).kind == TxKind.HANDOVER
    del lines[deleted]
    report = H.audit("\n".join(lines) + "\n", model_doc(4))
    (inst,) = report.instances
    assert not inst.clean and not inst.value_conserved
    assert any("references an unknown output" in issue for issue in inst.signature_issues)


def test_audit_flags_an_unparsable_redeem_script_without_raising():
    from dataclasses import replace

    from chorchain.encoding import TxKind, tx_from_hex, tx_to_hex

    lines, instance = _model4_instance_lines()
    del lines[instance[5]]
    # the first spend of a handover's token output gets a redeem script of
    # no supported shape
    kinds = {tx.tx_id: tx.kind for tx in map(tx_from_hex, (lines[i] for i in instance[:5]))}
    at = next(
        i for i in instance[1:5]
        if any(kinds.get(txin.prev_tx_id) == TxKind.HANDOVER for txin in tx_from_hex(lines[i]).inputs)
    )
    tx = tx_from_hex(lines[at])
    inputs = tuple(
        replace(txin, unlocking=replace(txin.unlocking, redeem_script=b"\x51"))
        if txin.unlocking.redeem_script else txin
        for txin in tx.inputs
    )
    lines[at] = tx_to_hex(replace(tx, inputs=inputs))
    report = H.audit("\n".join(lines) + "\n", model_doc(4))
    (inst,) = report.instances
    assert not inst.clean
    assert any("token spend redeem script" in issue for issue in inst.signature_issues)


def test_audit_records_a_token_spent_by_a_plain_payment():
    """The simulator accepts a holder spending the token with a plain
    key-hash payment; the audit flags the broken link instead of raising."""
    import random
    from dataclasses import replace

    from chorchain import engine as eng
    from chorchain.chain import ChainSim, SimConfig
    from chorchain.crypto import Keypair, sign
    from chorchain.encoding import EnrichedTransaction, TxInput, TxOutput, signing_digest

    rng = random.Random(5)
    sim = ChainSim(SimConfig(seed=5, block_interval_mean=6.0))
    owner = Keypair.generate(rng)
    funds = sim.grant(owner, [1_000_000])
    start, token = eng.build_start(funds, 1, int(sim.now), eng.FeePolicy(), 5, owner, rng)
    assert sim.broadcast(start).accepted
    payment = EnrichedTransaction(
        inputs=(TxInput(token.tx_id, token.output_index, prev_value=token.value),),
        outputs=(TxOutput.to_key_hash(token.value - 20_000, owner.key_hash),),
    )
    unlocking = replace(
        payment.inputs[0].unlocking,
        signature=sign(signing_digest(payment), token.holder_key),
        public_key=token.holder_key.public_key,
        redeem_script=token.redeem_script,
    )
    payment = replace(payment, inputs=(replace(payment.inputs[0], unlocking=unlocking),))
    assert sim.broadcast(payment).accepted
    report = H.audit(sim.dump(), model_doc(1))
    (inst,) = report.instances
    assert not inst.clean and not report.all_clean
    assert inst.lineage_issues == [str(eng.BrokenLineage(payment.tx_id))]
    assert report.non_process_txs == 2  # the grant and the payment
    assert json.loads(report.to_json())["instances"][0]["lineage_issues"]


def test_duplicated_instance_line_refused_with_its_line_number():
    from chorchain.chain import DumpFormatError

    lines, instance = _model4_instance_lines(seed=11)
    assert len(instance) == 10
    for at in instance:
        copy = lines[:at] + [lines[at]] + lines[at:]
        with pytest.raises(DumpFormatError, match="already on the chain") as err:
            H.audit("\n".join(copy) + "\n", model_doc(4))
        assert err.value.line_no == at + 2  # the second copy, one-based


def test_second_spend_of_an_outpoint_refused_with_its_line_number():
    from dataclasses import replace

    from chorchain.chain import DumpFormatError
    from chorchain.encoding import TxKind, tx_from_hex, tx_to_hex

    lines, instance = _model4_instance_lines(seed=11)
    at = next(i for i in instance if tx_from_hex(lines[i]).kind == TxKind.HANDOVER)
    tx = tx_from_hex(lines[at])
    token = replace(tx.outputs[0], value=tx.outputs[0].value - 1)
    rival = replace(tx, outputs=(token,) + tx.outputs[1:])
    lines.append(tx_to_hex(rival))
    with pytest.raises(DumpFormatError, match="already spent by " + tx.tx_id.hex()) as err:
        H.audit("\n".join(lines) + "\n", model_doc(4))
    assert err.value.line_no == len(lines)


def test_end_moved_ahead_of_its_ancestors_refused_with_its_line_number():
    from chorchain.chain import DumpFormatError
    from chorchain.encoding import TxKind, tx_from_hex

    lines, instance = _model4_instance_lines(seed=11)
    start, end = instance[0], instance[-1]
    assert tx_from_hex(lines[end]).kind == TxKind.END
    moved = lines[:start] + [lines[end]] + lines[start:end] + lines[end + 1:]
    with pytest.raises(DumpFormatError, match="held by a later line") as err:
        H.audit("\n".join(moved) + "\n", model_doc(4))
    assert err.value.line_no == start + 1


@pytest.mark.parametrize("edit", ["output count", "signature push"])
def test_non_canonical_encoding_refused_with_its_line_number(edit):
    """A grant whose output count is written FD 01 00, and a handover whose
    signature push uses OP_PUSHDATA1, read back as the original
    transaction. Only the canonical bytes parse, so each is refused."""
    from chorchain.chain import DumpFormatError, load_dump
    from chorchain.encoding import TransactionInvariantError, TxKind, tx_from_hex

    _, lines, instance = _seed11_dump(1)
    lines = list(lines)
    if edit == "output count":
        at = 2  # the grant, in block 0
        assert tx_from_hex(lines[at]).is_coinbase and lines[at][8:12] == "0001"
        edited = lines[at][:10] + "fd0100" + lines[at][12:]
    else:
        at = next(i for i in instance if tx_from_hex(lines[i]).kind == TxKind.HANDOVER)
        # version (4), input count (1), outpoint (36), script length, push
        script_len, push = int(lines[at][82:84], 16), int(lines[at][84:86], 16)
        assert script_len < 0xFC and 71 <= push <= 73
        edited = lines[at][:82] + f"{script_len + 1:02x}4c" + lines[at][84:]
    with pytest.raises(TransactionInvariantError, match="not canonical"):
        tx_from_hex(edited)
    lines[at] = edited
    with pytest.raises(DumpFormatError, match="not canonical") as err:
        load_dump("\n".join(lines) + "\n")
    assert err.value.line_no == at + 1


@functools.lru_cache(maxsize=None)
def _seed11_dump(model_id):
    """The seed-11 dump of a model, its lines and the indices of its
    instance lines, built once per test session."""
    from chorchain.encoding import TxKind, tx_from_hex

    dump = H.run_scenario(H.ScenarioConfig(model_id=model_id, seed=11)).dumps[0]
    lines = tuple(dump.splitlines())
    kinds = {
        i: tx_from_hex(line).kind
        for i, line in enumerate(lines[1:], start=1)
        if line and line != "mempool" and not line.startswith("block ")
    }
    instance = tuple(i for i, kind in kinds.items() if kind is not None)
    assert kinds[instance[-1]] == TxKind.END
    return dump, lines, instance


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_seed11_dumps_audit_clean(model_id):
    dump, _, _ = _seed11_dump(model_id)
    assert H.audit(dump, model_doc(model_id)).all_clean


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_audit_recovers_keys_only_for_frontier_handovers(model_id, monkeypatch):
    """Key recovery is plain double-and-add, not tuned, because an audit
    needs it only for a handover whose token no transaction spends: never
    on a complete dump, and once per handover whose token the END spent
    when the END line is deleted."""
    from chorchain import crypto
    from chorchain.encoding import TxKind, tx_from_hex

    recover = crypto.recover_candidates
    recovered = []

    def counted(digest, signature):
        recovered.append(signature)
        return recover(digest, signature)

    monkeypatch.setattr(crypto, "recover_candidates", counted)
    monkeypatch.setattr(H, "recover_candidates", counted)
    dump, lines, instance = _seed11_dump(model_id)
    assert H.audit(dump, model_doc(model_id)).all_clean
    assert recovered == []

    end = tx_from_hex(lines[instance[-1]])
    spent_by_end = {txin.outpoint for txin in end.inputs}
    txs = [tx_from_hex(lines[i]) for i in instance]
    frontier = [
        tx.data_block.receiver_signature
        for tx in txs
        if tx.kind == TxKind.HANDOVER and (tx.tx_id, tx.token_outputs[0][0]) in spent_by_end
    ]
    assert frontier
    without_end = "\n".join(line for i, line in enumerate(lines) if i != instance[-1]) + "\n"
    H.audit(without_end, model_doc(model_id))
    assert sorted(recovered) == sorted(frontier)


def test_auditing_one_document_twice_parses_it_once(monkeypatch):
    dump, _, _ = _seed11_dump(1)
    document = model_doc(1) + "\n"  # a text no other test audits
    parse = H.model_mod.load_model
    calls = []
    monkeypatch.setattr(H.model_mod, "load_model", lambda doc: calls.append(doc) or parse(doc))
    reports = [H.audit(dump, document).to_json() for _ in range(2)]
    assert calls == [document]
    assert reports[0] == reports[1]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), model_id=st.sampled_from([1, 2, 3, 4]))
def test_any_single_edit_of_an_instance_line_is_flagged_or_refused(data, model_id):
    """A duplicate, a move to the first block, a hex-digit flip or a deletion
    of one instance line is refused by the loader or audits not clean. The
    deletion of the instance's last transaction (its END) is left out: no
    transaction records it, so only block headers could show it."""
    from chorchain.chain import DumpFormatError

    _, lines, instance = _seed11_dump(model_id)
    edit = data.draw(st.sampled_from(["duplicate", "move", "flip", "delete"]))
    at = data.draw(st.sampled_from(instance[:-1] if edit == "delete" else instance))
    line = lines[at]
    edited = list(lines)
    if edit == "duplicate":
        edited.insert(at, line)
    elif edit == "move":
        first_block = next(i for i, l in enumerate(lines) if l.startswith("block "))
        del edited[at]
        edited.insert(first_block + 1, line)
    elif edit == "flip":
        pos = data.draw(st.integers(0, len(line) - 1))
        digit = data.draw(st.sampled_from([c for c in "0123456789abcdef" if c != line[pos]]))
        edited[at] = line[:pos] + digit + line[pos + 1:]
    else:
        del edited[at]
    try:
        report = H.audit("\n".join(edited) + "\n", model_doc(model_id))
    except DumpFormatError:
        return
    assert not report.all_clean


def _handovers_with_revealed_keys(dump):
    """(handover, spending input's unlocking) for every spent handover token."""
    from chorchain.chain import load_dump
    from chorchain.encoding import TxKind

    view = load_dump(dump)
    out = []
    for tx in view.all_transactions():
        if tx.kind == TxKind.HANDOVER:
            outpoint = (tx.tx_id, tx.token_outputs[0][0])
            spender = view.get_transaction(view.get_spender(outpoint))
            (txin,) = [txin for txin in spender.inputs if txin.outpoint == outpoint]
            out.append((tx, txin.unlocking))
    return out


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_revealed_key_verdict_equals_key_recovery_verdict(model_id):
    """The audit checks a spent handover's receiver signature against the key
    its spender reveals; for every handover of the seed-11 dumps, genuine or
    with one signature byte flipped, that verdict is key recovery's."""
    from chorchain import crypto
    from chorchain.encoding import parse_redeem_script, signing_digest

    dump, _, _ = _seed11_dump(model_id)
    handovers = _handovers_with_revealed_keys(dump)
    assert handovers
    for tx, unlocking in handovers:
        payee = parse_redeem_script(unlocking.redeem_script).payee_key_hash
        assert crypto.hash160(unlocking.public_key) == payee
        digest = signing_digest(tx)
        signature = tx.data_block.receiver_signature
        flipped = signature[:40] + bytes([signature[40] ^ 0x10]) + signature[41:]
        for sig, valid in ((signature, True), (flipped, False)):
            assert crypto.verify(digest, sig, unlocking.public_key) is valid
            assert crypto.verify_with_key_hash(digest, sig, payee) is valid


def _last_handover_and_end(model_id):
    """The seed-11 dump's lines, the END's line index and the line index of
    the handover whose token the END spends."""
    from chorchain.encoding import TxKind, tx_from_hex

    _, lines, instance = _seed11_dump(model_id)
    end_at = instance[-1]
    end = tx_from_hex(lines[end_at])
    (handover_at,) = [i for i in instance if tx_from_hex(lines[i]).tx_id == end.inputs[0].prev_tx_id]
    assert tx_from_hex(lines[handover_at]).kind == TxKind.HANDOVER
    return list(lines), handover_at, end_at


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), model_id=st.sampled_from([1, 2, 3, 4]))
def test_flipped_receiver_signature_digit_is_flagged(data, model_id):
    """A hex digit of the last handover's receiver signature is flipped and
    the END is relinked to the edited handover. The audit flags the
    receiver signature, and the END's input signature, which covers the
    relinked outpoint; nothing else."""
    from dataclasses import replace

    from chorchain.encoding import tx_from_hex, tx_to_hex

    lines, handover_at, end_at = _last_handover_and_end(model_id)
    handover, end = tx_from_hex(lines[handover_at]), tx_from_hex(lines[end_at])
    signature = handover.data_block.receiver_signature.hex()
    pos = data.draw(st.integers(0, len(signature) - 1))
    digit = data.draw(st.sampled_from([c for c in "0123456789abcdef" if c != signature[pos]]))
    lines[handover_at] = lines[handover_at].replace(
        signature, signature[:pos] + digit + signature[pos + 1:]
    )
    handover = tx_from_hex(lines[handover_at])
    relinked = replace(end.inputs[0], prev_tx_id=handover.tx_id)
    end = replace(end, inputs=(relinked,) + end.inputs[1:])
    lines[end_at] = tx_to_hex(end)
    (inst,) = H.audit("\n".join(lines) + "\n", model_doc(model_id)).instances
    assert inst.signature_issues == [
        f"{handover.tx_id.hex()[:16]}: receiver signature invalid",
        f"{end.tx_id.hex()[:16]}: input 0 signature invalid",
    ]
    assert inst.lineage_issues == [] and inst.conformant and inst.value_conserved


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([1, 2, 3, 4]), st.sampled_from(DER_EDITS), st.integers(0, 255))
@example(4, "r", 0)  # r's length covers s
@example(1, "negative r", 0)  # the same (r, s) one byte shorter
def test_tampered_der_length_in_an_input_signature_is_flagged(model_id, edit, value):
    """One DER length byte of the first handover's input signature is edited,
    or the signature is cut, or its r made negative. The audit flags that
    input instead of raising. A negative r is made on the first handover
    whose r has a 0x00 pad, so that dropping the pad keeps its value."""
    from dataclasses import replace

    from chorchain.encoding import TxKind, tx_from_hex, tx_to_hex

    _, lines, instance = _seed11_dump(model_id)
    at = next(
        i for i in instance
        if (tx := tx_from_hex(lines[i])).kind == TxKind.HANDOVER
        and (edit != "negative r" or tx.inputs[0].unlocking.signature[4] == 0)
    )
    handover = tx_from_hex(lines[at])
    txin = handover.inputs[0]
    signature = txin.unlocking.signature
    bad = tamper_der(signature, edit, value)
    if bad in (signature, b""):
        return
    edited = replace(handover, inputs=(replace(txin, unlocking=replace(txin.unlocking, signature=bad)),))
    lines = list(lines)
    lines[at] = tx_to_hex(edited)
    report = H.audit("\n".join(lines) + "\n", model_doc(model_id))
    (inst,) = report.instances
    assert f"{edited.tx_id.hex()[:16]}: input 0 signature invalid" in inst.signature_issues
    assert not report.all_clean


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_spender_revealing_another_key_is_flagged_once(model_id):
    """The END spends the last handover's token with another key, signing
    with that key. The script check flags the key; the receiver signature,
    which the payee did make, is still found valid by key recovery."""
    import random
    from dataclasses import replace

    from chorchain.crypto import Keypair, sign
    from chorchain.encoding import signing_digest, tx_from_hex, tx_to_hex

    lines, _, end_at = _last_handover_and_end(model_id)
    end = tx_from_hex(lines[end_at])
    other = Keypair.generate(random.Random(model_id))
    unlocking = replace(
        end.inputs[0].unlocking,
        signature=sign(signing_digest(end), other),
        public_key=other.public_key,
    )
    end = replace(end, inputs=(replace(end.inputs[0], unlocking=unlocking),) + end.inputs[1:])
    lines[end_at] = tx_to_hex(end)
    (inst,) = H.audit("\n".join(lines) + "\n", model_doc(model_id)).instances
    assert inst.signature_issues == [
        f"{end.tx_id.hex()[:16]}: input 0 public key does not hash to the payee"
    ]
    assert inst.lineage_issues == [] and inst.conformant and inst.value_conserved


def test_audit_reports_orphans_of_a_deleted_start():
    from chorchain.encoding import tx_from_hex

    lines, instance = _model4_instance_lines(seed=11)
    clean = H.audit("\n".join(lines) + "\n", model_doc(4))
    assert clean.all_clean and clean.orphans == []
    assert json.loads(clean.to_json())["orphans"] == []
    rest = [tx_from_hex(lines[i]).tx_id.hex() for i in instance[1:]]
    del lines[instance[0]]
    report = H.audit("\n".join(lines) + "\n", model_doc(4))
    assert report.instances == []
    assert sorted(report.orphans) == sorted(rest)
    assert not report.all_clean
    assert json.loads(report.to_json())["orphans"] == report.orphans


def test_audit_parse_error_carries_line():
    from chorchain.chain import DumpFormatError

    result = H.run_scenario(H.ScenarioConfig(model_id=1, seed=43))
    lines = result.dumps[0].splitlines()
    lines[2] = "zz-not-hex"
    with pytest.raises(DumpFormatError) as err:
        H.audit("\n".join(lines), model_doc(1))
    assert err.value.line_no == 3


def test_nongreedy_median_confirmation_near_exponential_median():
    """200-seed non-greedy batch: pooled median confirmation wait lands
    within 10% of block-interval-mean times ln 2."""
    import math

    waits = []
    for seed in range(200):
        run = H.run_scenario(H.ScenarioConfig(model_id=1, seed=seed, greedy=False)).runs[0]
        waits.extend(run.confirmation_waits)
    median = statistics.median(waits)
    expected = 6.0 * math.log(2)
    assert abs(median - expected) / expected < 0.10, median


def test_reconstructed_path_matches_configured_path_all_variants():
    """Reconstruction recovers exactly the scenario's configured task path
    for every model and variant."""
    for model_id, variant in ((1, "0"), (2, "0"), (2, "1"), (3, "0"), (4, "0"), (4, "1")):
        result = H.run_scenario(H.ScenarioConfig(model_id=model_id, variant=variant, seed=77))
        events = result.trace_reports[0]["events"]
        tasks = tuple(e["task_id"] for e in events if e["kind"] == "handover" and not e["filler"])
        plan = H.build_plan(H.builtin_model(model_id), [int(v) for v in variant.split(",")])
        assert tasks == planned_task_sequence(plan), (model_id, variant)
