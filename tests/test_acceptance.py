"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete. Absolute network timings are out of reach by design; these
criteria check structure, ratios, and properties against the simulator.
"""

import math
import random
import statistics
import time

import pytest
from scipy import stats as scipy_stats

from chorchain import engine as eng
from chorchain import harness as H
from chorchain import model as M
from chorchain.chain import ChainSim, SimConfig, load_dump
from chorchain.crypto import Keypair, hash160, sign
from chorchain.encoding import (
    DataBlock,
    EnrichedTransaction,
    OutputKind,
    RedeemScript,
    TxInput,
    TxKind,
    TxOutput,
    Unlocking,
    build_redeem_script,
    decode_data_block,
    deserialize_transaction,
    encode_data_block,
    parse_redeem_script,
    serialize_transaction,
    signing_digest,
)

from conftest import scenario_run, synthetic_trace


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# --- 1. encoding fidelity ----------------------------------------------------------


def random_data_block(rng):
    kind = rng.choice(list(TxKind))
    pid = rng.randrange(0, 65536)
    ts = rng.randrange(0, 2**32)
    if kind == TxKind.HANDOVER:
        sig = bytes(rng.getrandbits(8) for _ in range(rng.choice([71, 72])))
        return DataBlock(kind, pid, ts, rng.randrange(1, 252), sig)
    if kind == TxKind.END:
        return DataBlock(kind, pid, ts, extraordinary=rng.random() < 0.5)
    return DataBlock(kind, pid, ts)


def random_tx(rng):
    n_in = rng.randrange(1, 4)
    inputs = []
    for _ in range(n_in):
        style = rng.randrange(3)
        if style == 0:
            unlocking = Unlocking()
        elif style == 1:
            unlocking = Unlocking(
                bytes(rng.getrandbits(8) for _ in range(71)),
                bytes(rng.getrandbits(8) for _ in range(33)),
            )
        else:
            unlocking = Unlocking(
                bytes(rng.getrandbits(8) for _ in range(72)),
                bytes(rng.getrandbits(8) for _ in range(33)),
                build_redeem_script(rng.getrandbits(160).to_bytes(20, "big")),
            )
        inputs.append(
            TxInput(rng.getrandbits(256).to_bytes(32, "big"), rng.randrange(0, 8), unlocking)
        )
    outputs = [
        TxOutput.to_script_hash(rng.randrange(1, 10**9), rng.getrandbits(160).to_bytes(20, "big")),
        TxOutput.to_key_hash(rng.randrange(1, 10**9), rng.getrandbits(160).to_bytes(20, "big")),
    ]
    return EnrichedTransaction(tuple(inputs), tuple(outputs))


def test_criterion_1_encoding_fidelity():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(10_000):
        block = random_data_block(rng)
        data = encode_data_block(block)
        if block.kind == TxKind.HANDOVER:
            assert len(data) in (79, 80)
        else:
            assert len(data) == 8
        assert decode_data_block(data) == block
    for _ in range(10_000):
        key_hash = rng.getrandbits(160).to_bytes(20, "big")
        data_hash = rng.getrandbits(256).to_bytes(32, "big") if rng.random() < 0.5 else None
        script = build_redeem_script(key_hash, data_hash)
        assert parse_redeem_script(script) == RedeemScript(key_hash, data_hash)
    for _ in range(10_000):
        tx = random_tx(rng)
        assert deserialize_transaction(serialize_transaction(tx)) == tx
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"encoding round-trips took {elapsed:.2f}s"
    report(1, f"30,000 round-trips lossless, handover blocks 79-80 bytes, {elapsed:.2f}s")


# --- 2. detection completeness ------------------------------------------------------


def fault_matrix():
    cases = []
    for model_id, variants in ((1, ["0"]), (2, ["0", "1"]), (3, ["0"]), (4, ["0", "1"])):
        for variant in variants:
            plan = H.build_plan(H.builtin_model(model_id), [int(v) for v in variant.split(",")])
            for step in range(1, len(H.planned_handovers(plan)) + 1):
                cases.append((model_id, variant, step))
    return cases


def test_criterion_2_detection_completeness():
    started = time.monotonic()
    cases = fault_matrix()
    assert len(cases) >= 24
    detected = 0
    for model_id, variant, step in cases:
        result = H.run_scenario(
            H.ScenarioConfig(model_id=model_id, variant=variant, fault_step=step, seed=500 + step)
        )
        run = result.runs[0]
        events = result.trace_reports[0]["events"]
        assert run.detection == "detected", (model_id, variant, step)
        assert events[-1]["kind"] == "end" and events[-1]["extraordinary"]
        detected += 1
    elapsed = time.monotonic() - started
    assert detected == len(cases)
    assert elapsed < 60.0, f"fault matrix took {elapsed:.1f}s"
    report(2, f"{detected}/{len(cases)} corrupted handovers rejected at check 3, {elapsed:.1f}s")


# --- 3. confirmation-wait dominance ---------------------------------------------------


def test_criterion_3_confirmation_dominance():
    started = time.monotonic()
    confirm = overhead = 0.0
    for seed in range(50):
        run = H.run_scenario(
            H.ScenarioConfig(model_id=3, seed=seed, greedy=False, block_interval_mean=6.0)
        ).runs[0]
        confirm += run.phase_seconds["confirm"]
        overhead += run.verification_overhead
    share = confirm / overhead
    elapsed = time.monotonic() - started
    assert share >= 0.95, f"confirmation share {share:.4f}"
    assert elapsed < 600.0
    report(3, f"confirmation waits are {share:.2%} of verification overhead over 50 seeds")


# --- 4. greedy speedup ------------------------------------------------------------------


def mean_duration(model_id, greedy, seeds):
    durations = []
    for seed in seeds:
        run = scenario_run(H.ScenarioConfig(model_id=model_id, variant="0", greedy=greedy, seed=seed))
        durations.append(run.duration)
    return statistics.fmean(durations)


def test_criterion_4_greedy_speedup():
    seeds = range(200)
    slow4 = mean_duration(4, False, seeds)
    fast4 = mean_duration(4, True, seeds)
    ratio4 = slow4 / fast4
    assert ratio4 >= 2.5, f"model 4 speedup {ratio4:.2f}"
    slow1 = mean_duration(1, False, seeds)
    fast1 = mean_duration(1, True, seeds)
    ratio1 = slow1 / fast1
    assert ratio4 > ratio1, f"speedup must grow with chain length ({ratio1:.2f} vs {ratio4:.2f})"
    report(4, f"non-greedy/greedy = {ratio4:.2f}x on model 4 (model 1: {ratio1:.2f}x), 200 seeds")


# --- 5. exponential block statistics ------------------------------------------------------


def test_criterion_5_exponential_blocks():
    mean = 600.0
    sim = ChainSim(SimConfig(seed=4242, block_interval_mean=mean))
    times = [float(sim.now)]
    while len(times) < 10_001:
        for block in sim.advance_time(50_000.0):
            times.append(block.produced_at)
    intervals = [b - a for a, b in zip(times, times[1:])]
    median = statistics.median(intervals)
    expected_median = mean * math.log(2)
    rel = abs(median - expected_median) / expected_median
    assert rel < 0.05, f"median off by {rel:.2%}"
    ks = scipy_stats.kstest(intervals, "expon", args=(0, mean))
    assert ks.pvalue > 0.01, f"KS p-value {ks.pvalue:.4f}"
    report(5, f"median {median:.1f}s vs {expected_median:.1f}s, KS p={ks.pvalue:.3f}, n=10,000")


# --- 6. conformance oracle equivalence ------------------------------------------------------


def test_criterion_6_conformance_oracle_equivalence():
    rng = random.Random(606)
    total_mutations = 0
    for model_id in (1, 2, 3, 4):
        model = H.builtin_model(model_id)
        full = M.enumerate_valid_traces(model, 10_000)
        prefixes = {t[:i] for t in full for i in range(len(t) + 1)}
        for seq in full:
            assert M.check_conformance(model, synthetic_trace(seq, True)).ok
            for i in range(len(seq) + 1):
                assert M.check_conformance(model, synthetic_trace(seq[:i], False)).ok
        tasks = sorted(model.task_ids)
        for _ in range(1000):
            base = list(rng.choice(sorted(full)))
            op = rng.randrange(4)
            if op == 0 and base:
                base[rng.randrange(len(base))] = rng.choice(tasks)
            elif op == 1 and base:
                del base[rng.randrange(len(base))]
            elif op == 2:
                base.insert(rng.randrange(len(base) + 1), rng.choice(tasks))
            elif len(base) > 1:
                i, j = rng.sample(range(len(base)), 2)
                base[i], base[j] = base[j], base[i]
            seq = tuple(base)
            as_prefix = M.check_conformance(model, synthetic_trace(seq, False)).ok
            as_ended = M.check_conformance(model, synthetic_trace(seq, True)).ok
            assert as_prefix == (seq in prefixes), seq
            assert as_ended == (seq in full), seq
            total_mutations += 1
    report(6, f"replay agrees with enumeration on all traces + {total_mutations} mutations")


# --- 7. value conservation -------------------------------------------------------------------


def test_criterion_7_value_conservation():
    assert eng.DEFAULT_FEE == 18_982 == round(0.000189816 * 100_000_000)
    checked = 0
    for model_id in (1, 2, 3, 4):
        for greedy in (False, True):
            for seed in (0, 1):
                run = H.run_scenario(
                    H.ScenarioConfig(model_id=model_id, greedy=greedy, seed=seed)
                ).runs[0]
                assert run.start_budget - run.end_residual == run.total_fees
                checked += 1
    for step in (1, 3):
        run = H.run_scenario(H.ScenarioConfig(model_id=3, fault_step=step, seed=3)).runs[0]
        assert run.start_budget - run.end_residual == run.total_fees
        checked += 1
    report(7, f"budget - residual == fees exactly in {checked} runs; default fee 18,982 sat")


# --- 8. eviction cascade ----------------------------------------------------------------------


def random_mempool_dag(seed):
    """Random DAG of <= 20 chained payments; returns (sim, spendable outpoints
    map, child edges, tx keys)."""
    rng = random.Random(seed)
    sim = ChainSim(SimConfig(seed=seed, block_interval_mean=1e9))  # no blocks
    root_key = Keypair.generate(rng)
    outs = sim.grant(root_key, [10_000_000, 10_000_000])
    spendable = {(o.tx_id, o.output_index): (o.value, root_key, None) for o in outs}
    children: dict[bytes, set[bytes]] = {}
    txs = {}
    n = rng.randrange(5, 21)
    for _ in range(n):
        outpoint = rng.choice(sorted(spendable, key=lambda k: (k[0].hex(), k[1])))
        value, key, parent = spendable.pop(outpoint)
        n_out = rng.choice([1, 1, 2])
        share = (value - 1000) // n_out
        keys = [Keypair.generate(rng) for _ in range(n_out)]
        tx = EnrichedTransaction(
            inputs=(TxInput(outpoint[0], outpoint[1], prev_value=value),),
            outputs=tuple(TxOutput.to_key_hash(share, k.key_hash) for k in keys),
        )
        digest = signing_digest(tx)
        from dataclasses import replace

        tx = replace(
            tx,
            inputs=(
                replace(tx.inputs[0], unlocking=Unlocking(sign(digest, key), key.public_key)),
            ),
        )
        assert sim.broadcast(tx).accepted
        txs[tx.tx_id] = tx
        if parent is not None:
            children.setdefault(parent, set()).add(tx.tx_id)
        for i, k in enumerate(keys):
            spendable[(tx.tx_id, i)] = (share, k, tx.tx_id)
    return sim, spendable, children, txs


def descendants(children, root):
    out = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out


def test_criterion_8_eviction_cascade():
    checked = 0
    for seed in range(25):
        sim, spendable, children, txs = random_mempool_dag(seed)
        rng = random.Random(1000 + seed)
        victim_id = rng.choice(sorted(txs, key=bytes.hex))
        victim = txs[victim_id]
        # alternative spend of the victim's consumed outpoint
        outpoint = victim.inputs[0].outpoint
        parent_tx = sim.get_transaction(outpoint[0])
        value = parent_tx.outputs[outpoint[1]].value
        # find the key able to spend it: it is either the root grant key or a
        # tx output key still tracked in `spendable`... reconstruct instead:
        key = _key_for(sim, spendable, txs, outpoint, seed)
        alt = EnrichedTransaction(
            inputs=(TxInput(outpoint[0], outpoint[1], prev_value=value),),
            outputs=(TxOutput.to_key_hash(value - 2000, key.key_hash),),
        )
        from dataclasses import replace

        digest = signing_digest(alt)
        alt = replace(
            alt,
            inputs=(replace(alt.inputs[0], unlocking=Unlocking(sign(digest, key), key.public_key)),),
        )
        evicted = sim.force_conflict(alt)
        expected = descendants(children, victim_id)
        assert evicted == expected, f"seed {seed}"
        # everything else still pending
        for other in txs:
            if other not in expected:
                assert sim.confirmation_status(other).state == "pending"
        checked += 1
    report(8, f"eviction == descendant closure on {checked} random DAGs (<=20 txs)")


def _key_for(sim, spendable, txs, outpoint, seed):
    """Regenerate the DAG deterministically to recover the outpoint's key."""
    rng = random.Random(seed)
    sim2 = ChainSim(SimConfig(seed=seed, block_interval_mean=1e9))
    root_key = Keypair.generate(rng)
    outs = sim2.grant(root_key, [10_000_000, 10_000_000])
    book = {(o.tx_id, o.output_index): root_key for o in outs}
    live = {(o.tx_id, o.output_index): (o.value, root_key, None) for o in outs}
    n = rng.randrange(5, 21)
    for _ in range(n):
        op = rng.choice(sorted(live, key=lambda k: (k[0].hex(), k[1])))
        value, key, parent = live.pop(op)
        n_out = rng.choice([1, 1, 2])
        share = (value - 1000) // n_out
        keys = [Keypair.generate(rng) for _ in range(n_out)]
        tx = EnrichedTransaction(
            inputs=(TxInput(op[0], op[1], prev_value=value),),
            outputs=tuple(TxOutput.to_key_hash(share, k.key_hash) for k in keys),
        )
        digest = signing_digest(tx)
        from dataclasses import replace

        tx = replace(
            tx,
            inputs=(replace(tx.inputs[0], unlocking=Unlocking(sign(digest, key), key.public_key)),),
        )
        for i, k in enumerate(keys):
            book[(tx.tx_id, i)] = k
            live[(tx.tx_id, i)] = (share, k, tx.tx_id)
    return book[outpoint]


# --- 9. baseline consistency ------------------------------------------------------------------


def test_criterion_9_baseline_consistency():
    worst = 0.0
    for model_id in (1, 2, 3, 4):
        durations = [
            H.run_scenario(H.ScenarioConfig(model_id=model_id, verify=False, seed=seed)).runs[0].duration
            for seed in range(10)
        ]
        spread = statistics.pstdev(durations) / statistics.fmean(durations)
        assert spread < 0.02, f"model {model_id} spread {spread:.4f}"
        worst = max(worst, spread)
    report(9, f"verification-off runs: worst sigma/mean {worst:.4%} over 10 seeds x 4 models")


# --- 10. anonymity ---------------------------------------------------------------------------


def instance_keys(tx):
    """The public keys a transaction's inputs reveal, and every key hash it
    names: each input key's hash160, each redeem script's payee and each
    key-hash output."""
    keys = {txin.unlocking.public_key for txin in tx.inputs if txin.unlocking.public_key}
    key_hashes = {hash160(key) for key in keys}
    key_hashes.update(
        parse_redeem_script(txin.unlocking.redeem_script).payee_key_hash
        for txin in tx.inputs
        if txin.unlocking.redeem_script
    )
    key_hashes.update(out.key_hash for out in tx.outputs if out.kind == OutputKind.KEY_HASH)
    return keys, key_hashes


def test_criterion_10_anonymity():
    started = time.monotonic()
    configs = [
        H.ScenarioConfig(
            model_id=model_id, greedy=greedy, fault_step=fault_step, seed=11, repetitions=2
        )
        for model_id in (1, 2, 3, 4)
        for greedy in (False, True)
        for fault_step in (None, 1, 2)
    ]
    dumps = txs = 0
    for config in configs:
        task_ids = H.builtin_model(config.model_id).task_ids
        names = [H.OWNER] + [H.participant_for(t) for t in task_ids]
        identities = [H.shared_identity(name).certificate for name in names]
        secrets = [c.to_bytes() for c in identities] + [c.public_key_der for c in identities]
        assert all(len(c.public_key_der) == 44 for c in identities)
        for dump in H.run_scenario(config).dumps:
            view = load_dump(dump)
            raw = b"".join(serialize_transaction(tx) for tx in view.all_transactions())
            for secret in secrets:
                assert secret not in raw and secret.hex() not in dump, config
            seen_keys, seen_hashes = set(), set()
            for tx in view.all_transactions():
                if tx.data_block is None:
                    continue
                keys, key_hashes = instance_keys(tx)
                assert not keys & seen_keys, (config, tx.kind)
                assert not key_hashes & seen_hashes, (config, tx.kind)
                seen_keys |= keys
                seen_hashes |= key_hashes
                txs += 1
            dumps += 1
    elapsed = time.monotonic() - started
    assert dumps == 2 * len(configs)
    report(
        10,
        f"{txs} instance transactions in {dumps} dumps: no key or key hash in two,"
        f" no certificate or identity key, {elapsed:.1f}s",
    )
