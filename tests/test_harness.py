import functools
import io
import itertools
import json
import statistics

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chorchain import harness as H
from chorchain import model as M
from chorchain.engine import FILLER_TASK_ID

from conftest import DER_EDITS, block_models, scenario_run, synthetic_trace, tamper_der


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


def _model_doc(model_id, nodes, edges):
    return json.dumps({
        "model_id": model_id,
        "nodes": [{"id": n, "kind": k} if t is None else {"id": n, "kind": k, "task_id": t} for n, k, t in nodes],
        "edges": [{"from": a, "to": b} for a, b in edges],
    })


# AND((10), (20)), then XOR((), (30)), then 40
AND_THEN_EMPTY_XOR = _model_doc(
    9,
    [("s", "start", None), ("a", "and_split", None), ("t10", "task", 10), ("t20", "task", 20),
     ("aj", "and_join", None), ("x", "xor_split", None), ("t30", "task", 30),
     ("xj", "xor_join", None), ("t40", "task", 40), ("e", "end", None)],
    [("s", "a"), ("a", "t10"), ("a", "t20"), ("t10", "aj"), ("t20", "aj"), ("aj", "x"),
     ("x", "xj"), ("x", "t30"), ("t30", "xj"), ("xj", "t40"), ("t40", "e")],
)


# XOR((AND((10), (20))), (30)), then 40: the AND block ends its XOR branch
XOR_ENDING_IN_AND = _model_doc(
    8,
    [("s", "start", None), ("x", "xor_split", None), ("a", "and_split", None),
     ("t10", "task", 10), ("t20", "task", 20), ("aj", "and_join", None), ("t30", "task", 30),
     ("xj", "xor_join", None), ("t40", "task", 40), ("e", "end", None)],
    [("s", "x"), ("x", "a"), ("a", "t10"), ("a", "t20"), ("t10", "aj"), ("t20", "aj"),
     ("aj", "xj"), ("x", "t30"), ("t30", "xj"), ("xj", "t40"), ("t40", "e")],
)


@pytest.mark.parametrize("pick", [0, 1])
def test_a_join_hands_over_the_task_after_an_xor_once(pick, monkeypatch):
    """The join hands the token over for the first task ahead. When the XOR
    after the join takes its empty branch, that task is 40, and 40 must not
    be handed over a second time, by its own performer to itself."""
    model = H.parsed_model(AND_THEN_EMPTY_XOR)
    plan = H.build_plan(model, [pick])
    handed = [h.task_id for h in H.planned_handovers(plan) if not h.filler]
    assert handed == ([10, 20, 40] if pick == 0 else [10, 20, 30, 40])
    assert all(h.sender != h.receiver for h in H.planned_handovers(plan))

    monkeypatch.setattr(H, "builtin_model", lambda model_id: model)
    result = H.run_scenario(H.ScenarioConfig(model_id=9, variant=str(pick), seed=3))
    (run,) = result.runs
    assert not run.aborted
    assert H.audit(result.dumps[0], AND_THEN_EMPTY_XOR).all_clean


def _reference_plan(model, choices):
    """The plan compiler as it was before it became one walk: a cursor over
    the picks, a look-ahead walk for the task after an AND block, and that
    task threaded through the recursion so that its handover is not planned
    twice. Kept as the reference that ``build_plan`` must match."""
    xor_splits = sum(n.kind == M.NodeKind.XOR_SPLIT for n in model.nodes)
    if len(choices) == 1 and xor_splits > 1:
        choices = choices * xor_splits
    if len(choices) < xor_splits:
        raise H.ScenarioError(f"model has {xor_splits} XOR splits, variant picks {len(choices)}")
    cursor = 0  # XOR picks taken so far, in walk order

    def branch(gateway, pick_no):
        pick = choices[pick_no]
        if not 0 <= pick < len(gateway.branches):
            raise H.ScenarioError(f"variant picks branch {pick} of {len(gateway.branches)}")
        return gateway.branches[pick]

    def tasks_ahead(steps, pick_nos):
        """Tasks these steps will execute, in order. XOR picks are peeked,
        not consumed; the main walk takes them later."""
        for step in steps:
            if isinstance(step, int):
                yield step
            elif step.kind == M.NodeKind.AND_SPLIT:
                raise H.ScenarioError("parallel block directly after a join is unsupported")
            else:
                yield from tasks_ahead(branch(step, next(pick_nos)), pick_nos)

    plan = [H.PlanStart()]

    def walk(steps, holder, skip_task):
        """Emit the steps' plan; returns the final holder, and the task whose
        handover a join already documented if these steps never reached it."""
        nonlocal cursor
        for i, step in enumerate(steps):
            if isinstance(step, int):
                actor = H.participant_for(step)
                if step == skip_task:
                    skip_task = None  # handover already documented before the join
                else:
                    plan.append(H.PlanHandover(holder, actor, step))
                plan.append(H.PlanTask(actor, step))
                holder = actor
            elif step.kind == M.NodeKind.XOR_SPLIT:
                cursor += 1
                holder, skip_task = walk(branch(step, cursor - 1), holder, skip_task)
            else:
                plan.append(H.PlanSplit(holder, len(step.branches)))
                finals = [walk(b, holder, None)[0] for b in step.branches]
                proceed_task = next(tasks_ahead(steps[i + 1 :], itertools.count(cursor)), None)
                proceed = H.OWNER if proceed_task is None else H.participant_for(proceed_task)
                # first finished branch hands over for the next task, the
                # others return custody only
                first, *rest = finals
                if proceed_task is None:
                    plan.append(H.PlanHandover(first, proceed, FILLER_TASK_ID, filler=True))
                else:
                    plan.append(H.PlanHandover(first, proceed, proceed_task))
                for other in rest:
                    plan.append(H.PlanHandover(other, proceed, FILLER_TASK_ID, filler=True))
                plan.append(H.PlanJoin(proceed, len(step.branches)))
                holder = proceed
                skip_task = proceed_task
        return holder, skip_task

    final_holder, _ = walk(model.body, H.OWNER, None)
    if final_holder != H.OWNER:
        plan.append(H.PlanHandover(final_holder, H.OWNER, FILLER_TASK_ID, filler=True))
    plan.append(H.PlanEnd(H.OWNER))
    return plan


@st.composite
def models_with_picks(draw):
    """A random block model's document and XOR picks for it: each pick in
    0..3, from none up to one more than the model has XOR splits."""
    document = draw(block_models())
    xors = sum(n.kind == M.NodeKind.XOR_SPLIT for n in M.load_model(document).nodes)
    return document, draw(st.lists(st.integers(0, 3), max_size=xors + 1))


@settings(max_examples=500, deadline=None)
@given(models_with_picks())
@example((AND_THEN_EMPTY_XOR, [0]))
@example((AND_THEN_EMPTY_XOR, [1]))
@example((XOR_ENDING_IN_AND, [0]))  # joins at the owner, not at 40
def test_plan_is_the_reference_plan_and_replays_conformant(model_and_picks):
    """``build_plan`` gives the reference's plan, or its refusal word for
    word. A plan's tasks, replayed with a normal end, conform to the model,
    and its non-filler handovers hand exactly those tasks to their
    performers."""
    document, picks = model_and_picks
    model = M.load_model(document)
    try:
        want = _reference_plan(model, picks)
    except H.ScenarioError as refusal:
        with pytest.raises(H.ScenarioError) as got:
            H.build_plan(model, picks)
        assert str(got.value) == str(refusal)
        return
    plan = H.build_plan(model, picks)
    assert plan == want
    tasks = planned_task_sequence(plan)
    assert M.check_conformance(model, synthetic_trace(tasks, True)) == M.Conformant()
    handed = [h for h in H.planned_handovers(plan) if not h.filler]
    assert tuple(h.task_id for h in handed) == tasks
    assert all(h.receiver == H.participant_for(h.task_id) for h in handed)


def test_a_run_that_never_audits_starts_no_helper_thread(monkeypatch):
    """Broadcast verifies inline; only an audit's batches use the helper."""
    from chorchain import crypto

    monkeypatch.setattr(crypto, "_helper", None)
    result = H.run_scenario(H.ScenarioConfig(model_id=4, seed=3))
    assert not any(run.aborted for run in result.runs)
    assert crypto._helper is None


def test_fault_step_validated():
    with pytest.raises(H.ScenarioError, match="fault step"):
        H.run_scenario(H.ScenarioConfig(model_id=1, fault_step=9))


def test_bad_variant_rejected():
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="7"))
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="zebra"))
    # model 4's XOR block follows its AND block: its pick is refused where
    # the walk reaches it, after the block's branches
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


def test_fault_free_run_refused_at_check4_reads_false_refusal(monkeypatch):
    """A run with no injected fault and the model's own plan, whose first
    handover a receiver refuses at check 4, is not a detection."""
    from chorchain import engine as eng

    monkeypatch.setattr(
        eng, "validate_template", lambda *args: eng.TemplateVerdict.reject(4, "refused")
    )
    run = H.run_scenario(H.ScenarioConfig(model_id=1, seed=8)).runs[0]
    assert run.aborted and run.detection == "false-refusal"


def _run_skipping(task):
    """Model 1 (1 -> 2 -> 3) run at seed 5 on a plan built from the model
    without ``task``: the run's metrics, its trace report and the audit of
    its dump against the real model."""
    kept = [t for t in (1, 2, 3) if t != task]
    names = ["s"] + [f"t{t}" for t in kept] + ["e"]
    nodes = [("s", "start", None)] + [(f"t{t}", "task", t) for t in kept] + [("e", "end", None)]
    plan = H.build_plan(H.parsed_model(_model_doc(1, nodes, list(zip(names, names[1:])))), [0])
    run = H._Run(H.ScenarioConfig(model_id=1, seed=5), 0, H.builtin_model(1), plan)
    metrics, dump, report = run.run()
    return metrics, report, H.audit(dump, model_doc(1))


@pytest.mark.parametrize("task, tx_count", [(1, 2), (2, 3)])
def test_a_skipped_task_is_refused_at_the_handover_that_skips_it(task, tx_count):
    """Check 4 judges the history followed by the step being signed, so the
    receiver refuses the handover for the task after the skipped one. The
    sender ends the instance there, and the chain holds a legal prefix."""
    metrics, report, audit = _run_skipping(task)
    assert metrics.aborted and metrics.detection == "detected"
    assert metrics.tx_count == tx_count  # start, the handovers before the skip, extraordinary end
    handed = [e["task_id"] for e in report["events"] if e["kind"] == "handover"]
    assert handed == list(range(1, task))
    assert report["events"][-1]["extraordinary"]
    assert report["verdict"] == "conformant"
    assert audit.all_clean


def test_a_skipped_last_task_is_refused_at_the_end():
    """A filler handover after task 2 is a legal step of an unfinished
    instance, so the owner's check 4 accepts it. What it leaves of the model
    still needs task 3, so the owner ends the instance with an extraordinary
    END, and the chain holds a legal prefix."""
    metrics, report, audit = _run_skipping(3)
    assert metrics.aborted and metrics.detection == "detected"
    assert metrics.tx_count == 5  # start, handovers for tasks 1 and 2, filler, extraordinary end
    handed = [e["task_id"] for e in report["events"] if e["kind"] == "handover"]
    assert handed == [1, 2, H.eng.FILLER_TASK_ID]
    assert report["events"][-1]["extraordinary"]
    assert report["verdict"] == "conformant"
    assert audit.all_clean


@pytest.mark.parametrize("greedy", [False, True])
def test_receiver_refusing_the_published_handover_stops_the_run(monkeypatch, greedy):
    """The receiver compares the published transaction against the template
    it signed. Here its copy of the template differs by one satoshi, so it
    refuses the receipt, and the run stops there with the receiver's reason."""
    from dataclasses import replace

    from chorchain import protocol as proto

    original = proto.Participant.confirm_receipt

    def confirm_against_another_template(self, session):
        tx = session.template
        token = replace(tx.outputs[0], value=tx.outputs[0].value - 1)
        session.template = replace(tx, outputs=(token,) + tx.outputs[1:])
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
    monkeypatch.setattr(H.eng, "recover_candidates", counted)
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


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_batched_verification_gives_the_serial_reports(model_id, monkeypatch):
    """The audit verifies an instance's signatures in one verify_many batch.
    Over every single-line deletion and duplicate of the seed-11 dump, its
    report is the one a serial verify of each check gives. A dump the
    loader refuses never reaches verification."""
    from chorchain import crypto
    from chorchain.chain import DumpFormatError

    _, lines, _ = _seed11_dump(model_id)
    edited = [lines[:i] + lines[i + 1:] for i in range(len(lines))]
    edited += [lines[:i + 1] + lines[i:] for i in range(len(lines))]
    batched = {}
    for i, edit in enumerate(edited):
        try:
            batched[i] = H.audit("\n".join(edit) + "\n", model_doc(model_id)).to_json()
        except DumpFormatError:
            pass
    assert batched
    monkeypatch.setattr(H.eng, "verify_many", lambda checks: [crypto.verify(*check) for check in checks])
    for i, report in batched.items():
        assert H.audit("\n".join(edited[i]) + "\n", model_doc(model_id)).to_json() == report


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


# kind: (inputs, token outputs, key-hash outputs) it may have, each a range
FORGED_SHAPES = {
    "payment": ((1, 2), (0, 1), (1, 1)),
    "start": ((1, 2), (1, 1), (0, 1)),
    "handover": ((1, 1), (1, 1), (0, 0)),
    "split": ((1, 1), (2, 3), (0, 0)),
    "join": ((2, 2), (1, 1), (0, 0)),
    "end": ((1, 1), (0, 0), (0, 1)),
}


def _forged_transaction(data, rng, spendable, timestamp, process_id):
    """A parseable transaction of a drawn kind that spends drawn outputs,
    each input signed with a fresh key, and pays fresh keys. ``spendable``
    holds every output of value, and those of them no transaction spends."""
    from dataclasses import replace

    from chorchain.crypto import Keypair, sign
    from chorchain.encoding import (
        DataBlock, EnrichedTransaction, TxInput, TxKind, TxOutput, Unlocking, build_redeem_script,
        signing_digest,
    )

    kind = data.draw(st.sampled_from(sorted(FORGED_SHAPES)))
    (n_in, max_in), (n_tok, max_tok), (n_key, max_key) = FORGED_SHAPES[kind]
    spent = data.draw(st.lists(
        st.sampled_from(spendable[1]) | st.sampled_from(spendable[0]), min_size=n_in, max_size=max_in, unique=True
    ))
    tokens = data.draw(st.integers(n_tok, max_tok))
    keyed = data.draw(st.integers(n_key, max_key))
    share = (sum(out.value for _, _, out in spent) - 1_000) // max(tokens + keyed, 1)
    payees = [Keypair.generate(rng) for _ in range(tokens + keyed)]
    outputs = [TxOutput.to_script_hash(share, H.eng.hash160(build_redeem_script(k.key_hash))) for k in payees[:tokens]]
    outputs += [TxOutput.to_key_hash(share, k.key_hash) for k in payees[tokens:]]
    if kind != "payment":
        handover = kind == "handover"
        outputs.append(TxOutput.data(DataBlock(
            TxKind[kind.upper()], process_id, timestamp,
            data.draw(st.integers(1, 251)) if handover else None,
            sign(bytes(32), Keypair.generate(rng)) if handover else b"",
            extraordinary=kind == "end" and data.draw(st.booleans()),
        )))
    tx = EnrichedTransaction(
        inputs=tuple(TxInput(tx_id, n, prev_value=out.value) for tx_id, n, out in spent),
        outputs=tuple(outputs),
    )
    digest = signing_digest(tx)
    keys = [Keypair.generate(rng) for _ in spent]
    return replace(tx, inputs=tuple(
        replace(txin, unlocking=Unlocking(sign(digest, key), key.public_key, build_redeem_script(key.key_hash)))
        for txin, key in zip(tx.inputs, keys)
    ))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), model_id=st.sampled_from([1, 2, 3, 4]))
def test_forged_transactions_are_refused_or_flagged(data, model_id):
    """One to three parseable transactions of random kinds, signed with
    fresh keys and spending instance outputs and others (the grant's, and
    those of the forged transactions before them), are appended in a new
    block or in the mempool. The loader refuses the dump, or the audit
    flags it; nothing else is raised."""
    import random

    from chorchain.chain import DumpFormatError, load_dump
    from chorchain.encoding import tx_from_hex, tx_to_hex

    dump, lines, instance = _seed11_dump(model_id)
    view = load_dump(dump)
    outputs = [(tx.tx_id, n, out) for tx in view.all_transactions() for n, out in enumerate(tx.outputs) if out.value]
    spendable = (outputs, [o for o in outputs if view.get_spender(o[:2]) is None])
    last_block = [line for line in lines if line.startswith("block ")][-1].split()
    timestamp = int(last_block[2]) + data.draw(st.integers(0, 30))
    process_id = data.draw(st.sampled_from([tx_from_hex(lines[instance[0]]).data_block.process_id, 7]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    forged = []
    for _ in range(data.draw(st.integers(1, 3))):
        tx = _forged_transaction(data, rng, spendable, timestamp, process_id)
        for pool in spendable:
            pool += [(tx.tx_id, n, out) for n, out in enumerate(tx.outputs) if out.value]
        forged.append(tx_to_hex(tx))
    assert lines[-1] == "mempool"
    if data.draw(st.booleans()):  # a new block
        edited = list(lines[:-1]) + [f"block {int(last_block[1]) + 1} {timestamp}"] + forged + ["mempool"]
    else:
        edited = list(lines) + forged
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
        run = scenario_run(H.ScenarioConfig(model_id=1, seed=seed, greedy=False))
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
