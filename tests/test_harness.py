import io
import json
import statistics

import pytest

from chorchain import harness as H
from chorchain.engine import FILLER_TASK_ID


# --- planning ---------------------------------------------------------------------


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
    assert H.planned_task_sequence(plan) == (1, 2, 3)


def test_plan_model2_variants():
    for pick, executed in ((0, 2), (1, 3)):
        plan = H.build_plan(H.builtin_model(2), [pick])
        assert H.planned_task_sequence(plan) == (1, executed, 4)


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
        assert H.planned_task_sequence(plan)[-1] == last
        proceed = [h for h in H.planned_handovers(plan) if h.task_id == last]
        assert proceed[0].receiver == f"p{last}"


def test_fault_step_validated():
    with pytest.raises(H.ScenarioError, match="fault step"):
        H.run_scenario(H.ScenarioConfig(model_id=1, fault_step=9))


def test_bad_variant_rejected():
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="7"))
    with pytest.raises(H.ScenarioError):
        H.run_scenario(H.ScenarioConfig(model_id=2, variant="zebra"))


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
    assert tasks == H.planned_task_sequence(plan)


def test_phase_fractions_sum_to_one():
    result = H.run_scenario(H.ScenarioConfig(model_id=2, seed=5))
    run = result.runs[0]
    assert abs(sum(run.phase_fractions.values()) - 1.0) < 1e-9
    assert run.phase_seconds["confirm"] > 0


def test_baseline_runs_only_sleep():
    result = H.run_scenario(H.ScenarioConfig(model_id=3, verify=False, seed=5))
    run = result.runs[0]
    assert run.tx_count == 0 and run.total_fees == 0
    assert run.phase_seconds["confirm"] == 0
    expected = sum(H.task_duration(t) for t in (1, 2, 3, 4))
    assert abs(run.duration - expected) / expected < 0.01  # jitter only


def test_untagged_clock_advance_is_reported(monkeypatch):
    monkeypatch.setattr(H._Run, "_record", lambda self, dt, phase: None)
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
        assert tasks == H.planned_task_sequence(plan), (model_id, variant)


def test_tx_estimate_override_changes_budget():
    base = H.run_scenario(H.ScenarioConfig(model_id=1, seed=2)).runs[0]
    bigger = H.run_scenario(
        H.ScenarioConfig(model_id=1, seed=2, tx_estimate_override=20)
    ).runs[0]
    assert bigger.start_budget > base.start_budget
    assert bigger.start_budget - bigger.end_residual == bigger.total_fees
