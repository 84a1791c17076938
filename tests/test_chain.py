import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorchain import encoding
from chorchain import engine as eng
from chorchain.chain import (
    ChainError,
    ChainSim,
    DumpFormatError,
    SimConfig,
    TxEvicted,
    load_dump,
)
from chorchain.crypto import Keypair, sign
from chorchain.encoding import (
    EnrichedTransaction,
    TxInput,
    TxOutput,
    Unlocking,
    signing_digest,
)


def payment(parents, out_values, keys_out=None, rng=None):
    """Key-hash payment spending (tx_id, idx, value, key) parents."""
    rng = rng or random.Random(1)
    keys_out = keys_out or [Keypair.generate(rng) for _ in out_values]
    tx = EnrichedTransaction(
        inputs=tuple(TxInput(p[0], p[1], prev_value=p[2]) for p in parents),
        outputs=tuple(TxOutput.to_key_hash(v, k.key_hash) for v, k in zip(out_values, keys_out)),
    )
    digest = signing_digest(tx)
    from dataclasses import replace

    inputs = tuple(
        replace(txin, unlocking=Unlocking(sign(digest, p[3]), p[3].public_key))
        for txin, p in zip(tx.inputs, parents)
    )
    return replace(tx, inputs=inputs), keys_out


@pytest.fixture
def sim():
    return ChainSim(SimConfig(seed=12, block_interval_mean=6.0))


@pytest.fixture
def funded(sim):
    rng = random.Random(7)
    key = Keypair.generate(rng)
    outs = sim.grant(key, [1_000_000, 500_000, 250_000])
    return sim, key, outs, rng


# --- broadcasting rules ----------------------------------------------------------


def test_accept_and_confirm(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    assert sim.broadcast(tx).accepted
    assert sim.confirmation_status(tx.tx_id).state == "pending"
    waited = sim.await_confirmation(tx.tx_id, 1)
    assert waited > 0
    assert sim.confirmation_status(tx.tx_id).depth >= 1


def test_missing_input_rejected(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(b"\x99" * 32, 0, 1000, key)], [500], rng=rng)
    assert sim.broadcast(tx).reason == "missing-input"


def test_conflict_first_seen_wins(funded):
    sim, key, outs, rng = funded
    parent = (outs[0].tx_id, 0, outs[0].value, key)
    a, _ = payment([parent], [outs[0].value - 1000], rng=rng)
    b, _ = payment([parent], [outs[0].value - 2000], rng=rng)
    assert sim.broadcast(a).accepted
    assert sim.broadcast(b).reason == "conflict"


def test_fee_below_relay_minimum_rejected(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value], rng=rng)
    assert sim.broadcast(tx).reason == "fee-below-minimum"


def test_bad_signature_rejected(funded):
    sim, key, outs, rng = funded
    wrong = Keypair.generate(rng)
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, wrong)], [outs[0].value - 1000], rng=rng)
    assert sim.broadcast(tx).reason.startswith("script")


def test_duplicate_rejected(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    assert sim.broadcast(tx).accepted
    assert sim.broadcast(tx).reason == "duplicate"


def test_chained_unconfirmed_accepted_and_confirmed_together(funded):
    sim, key, outs, rng = funded
    k2 = Keypair.generate(rng)
    a, keys_a = payment([(outs[0].tx_id, 0, outs[0].value, key)], [900_000], [k2], rng=rng)
    b, _ = payment([(a.tx_id, 0, 900_000, k2)], [800_000], rng=rng)
    assert sim.broadcast(a).accepted
    assert sim.broadcast(b).accepted  # references an unconfirmed parent
    blocks = sim.advance_time(1000)
    containing = [blk for blk in blocks if blk.txs]
    assert len(containing) >= 1
    first = containing[0]
    ids = [t.tx_id for t in first.txs]
    assert ids.index(a.tx_id) < ids.index(b.tx_id)  # parent before child


def test_block_orders_by_fee_priority(funded):
    sim, key, outs, rng = funded
    cheap, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    rich, _ = payment([(outs[0].tx_id, 1, outs[1].value, key)], [outs[1].value - 50_000], rng=rng)
    assert sim.broadcast(cheap).accepted
    assert sim.broadcast(rich).accepted
    block = sim.mine_pending()
    assert [t.tx_id for t in block.txs] == [rich.tx_id, cheap.tx_id]


def test_block_capacity_respected():
    sim = ChainSim(SimConfig(seed=5, block_interval_mean=6.0, block_capacity=2))
    rng = random.Random(8)
    key = Keypair.generate(rng)
    outs = sim.grant(key, [100_000] * 5)
    for out in outs:
        tx, _ = payment([(out.tx_id, out.output_index, out.value, key)], [out.value - 1000], rng=rng)
        assert sim.broadcast(tx).accepted
    block = sim.mine_pending()
    assert len(block.txs) == 2
    assert len(sim.mempool_ids) == 3


# --- time and waits ------------------------------------------------------------------


def test_exponential_inter_block_times():
    sim = ChainSim(SimConfig(seed=42, block_interval_mean=600.0))
    times = [float(sim.now)]
    while len(times) < 10_001:
        for block in sim.advance_time(10_000.0):
            times.append(block.produced_at)
    intervals = [b - a for a, b in zip(times, times[1:])]
    med = statistics.median(intervals)
    assert abs(med - 600 * math.log(2)) / (600 * math.log(2)) < 0.05
    assert abs(statistics.fmean(intervals) - 600) / 600 < 0.05


def test_await_depth_zero_returns_immediately(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    assert sim.await_confirmation(tx.tx_id, 0) == 0.0


def test_await_deeper_depth(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    sim.await_confirmation(tx.tx_id, 3)
    assert sim.confirmation_status(tx.tx_id).depth >= 3


def test_phase_recorder_sees_all_advances(funded):
    sim, key, outs, rng = funded
    buckets = {}
    sim.phase_recorder = lambda dt, phase: buckets.__setitem__(phase, buckets.get(phase, 0) + dt)
    sim.advance_time(5.0, "task")
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    sim.await_confirmation(tx.tx_id, 1)
    assert buckets["task"] == 5.0
    assert buckets["confirm"] > 0


# --- eviction --------------------------------------------------------------------------


def build_chain_of(sim, key, out, n, rng):
    """n chained payments off one output; returns list of txs."""
    txs = []
    parent = (out.tx_id, out.output_index, out.value, key)
    for _ in range(n):
        value = parent[2] - 1000
        k = Keypair.generate(rng)
        tx, _ = payment([parent], [value], [k], rng=rng)
        assert sim.broadcast(tx).accepted
        txs.append(tx)
        parent = (tx.tx_id, 0, value, k)
    return txs


def test_force_conflict_evicts_descendant_closure(funded):
    sim, key, outs, rng = funded
    chain = build_chain_of(sim, key, outs[0], 5, rng)
    # conflict the chain's root spend: an alternative use of the funding output
    alt, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 5000], rng=rng)
    evicted = sim.force_conflict(alt)
    assert evicted == {tx.tx_id for tx in chain}
    assert sim.broadcast(chain[0]).reason == "conflict"
    with pytest.raises(TxEvicted):
        sim.await_confirmation(chain[2].tx_id, 1)
    assert sim.confirmation_status(alt.tx_id).state == "pending"


def test_confirmed_spend_cannot_be_conflicted(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    sim.await_confirmation(tx.tx_id, 1)
    alt, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 9000], rng=rng)
    with pytest.raises(Exception, match="confirmed"):
        sim.force_conflict(alt)


def test_readmitted_evicted_transaction_confirms_once(funded):
    sim, key, outs, rng = funded
    o, o2 = (outs[0].tx_id, 0, outs[0].value, key), (outs[1].tx_id, 1, outs[1].value, key)
    h, _ = payment([o], [o[2] - 1000], rng=rng)
    t, _ = payment([o, o2], [o[2] + o2[2] - 5000], rng=rng)
    alt, _ = payment([o2], [o2[2] - 1000], rng=rng)
    assert sim.broadcast(h).accepted
    assert sim.force_conflict(t) == {h.tx_id}
    assert sim.force_conflict(alt) == {t.tx_id}
    assert sim.confirmation_status(h.tx_id).state == "evicted"
    assert sim.broadcast(h).accepted
    assert sim.confirmation_status(h.tx_id).state == "pending"
    assert sim.mempool_ids == [alt.tx_id, h.tx_id]
    # equal fees: h's heap entry from its first admission would put it
    # ahead of alt; its second admission comes after alt
    block = sim.mine_pending()
    assert [tx.tx_id for tx in block.txs] == [alt.tx_id, h.tx_id]
    assert sim.await_confirmation(h.tx_id, 2) > 0
    assert sim.confirmation_status(h.tx_id).state == "confirmed"
    assert sum(tx.tx_id == h.tx_id for b in sim.blocks for tx in b.txs) == 1


def test_unrelated_mempool_tx_survives_eviction(funded):
    sim, key, outs, rng = funded
    chain = build_chain_of(sim, key, outs[0], 3, rng)
    bystander, _ = payment([(outs[1].tx_id, 1, outs[1].value, key)], [outs[1].value - 1000], rng=rng)
    assert sim.broadcast(bystander).accepted
    alt, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 5000], rng=rng)
    sim.force_conflict(alt)
    assert sim.confirmation_status(bystander.tx_id).state == "pending"


# --- block assembly against the full-mempool scan -----------------------------------------


def scan_selection(mempool, capacity):
    """Reference block selection: for every pick, scan the whole mempool
    (txid -> (tx, fee, seq, arrival)) for the ready transaction with the
    highest fee, then the lowest seq. A transaction is ready when each of
    its inputs spends a transaction outside the mempool or one already
    picked. O(capacity x mempool); the simulator assembled blocks this way
    before it kept a ready-heap."""
    chosen: list[bytes] = []
    chosen_set: set[bytes] = set()
    while len(chosen) < capacity:
        best: bytes | None = None
        best_key: tuple[int, int] | None = None
        for tx_id, (tx, fee, seq, _) in mempool.items():
            if tx_id in chosen_set:
                continue
            ready = all(
                (txin.prev_tx_id not in mempool) or (txin.prev_tx_id in chosen_set)
                for txin in tx.inputs
            )
            if not ready:
                continue
            key = (-fee, seq)
            if best_key is None or key < best_key:
                best, best_key = tx_id, key
        if best is None:
            break
        chosen.append(best)
        chosen_set.add(best)
    return chosen


DAG_KEY = Keypair.from_seed(b"mempool dag")


def signed_spend(sim, outpoints, fee, n_out):
    """A transaction spending ``outpoints`` (all paying DAG_KEY) into
    ``n_out`` outputs, leaving ``fee``."""
    parents = [(op[0], op[1], sim.resolve_output(op).value, DAG_KEY) for op in outpoints]
    rest = sum(p[2] for p in parents) - fee
    share = rest // n_out
    values = [rest - share * (n_out - 1)] + [share] * (n_out - 1)
    tx, _ = payment(parents, values, [DAG_KEY] * n_out)
    return tx


def free_outpoints(sim):
    return [
        (tx.tx_id, i)
        for tx in sim.all_transactions()
        for i in range(len(tx.outputs))
        if sim.get_spender((tx.tx_id, i)) is None
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ready_heap_selects_what_the_scan_selects(data):
    capacity = data.draw(st.integers(1, 6), label="capacity")
    sim = ChainSim(SimConfig(seed=1, block_interval_mean=1e9, block_capacity=capacity))
    sim.grant(DAG_KEY, [1_000_000] * 4)
    fees = st.sampled_from([1000, 2000, 3000])  # few values: ties and rich children
    evicted: list[EnrichedTransaction] = []

    def mine():
        expected = scan_selection(dict(sim._mempool), capacity)
        block = sim.mine_pending()
        assert [tx.tx_id for tx in block.txs] == expected

    ops = st.sampled_from(["spend", "spend", "spend", "mine", "conflict", "conflict", "again"])
    for _ in range(data.draw(st.integers(4, 24), label="steps")):
        op = data.draw(ops)
        if op == "spend":
            free = free_outpoints(sim)
            picks = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
            tx = signed_spend(sim, picks, data.draw(fees), data.draw(st.integers(1, 3)))
            assert sim.broadcast(tx).accepted
        elif op == "mine":
            mine()
        elif op == "conflict" and sim.mempool_ids:
            held = [txin.outpoint for t in sim.mempool_ids for txin in sim.get_transaction(t).inputs]
            confirmed = [
                p for p in free_outpoints(sim) if sim.confirmation_status(p[0]).state == "confirmed"
            ]
            picks = [data.draw(st.sampled_from(held))]
            if confirmed:
                picks += data.draw(st.lists(st.sampled_from(confirmed), max_size=1))
            before = [sim.get_transaction(t) for t in sim.mempool_ids]
            gone = sim.force_conflict(signed_spend(sim, picks, data.draw(fees), 1))
            evicted += [tx for tx in before if tx.tx_id in gone]
        elif op == "again":
            # broadcast evicted transactions again, in eviction order; those
            # whose inputs are still taken or gone stay evicted
            evicted = [tx for tx in evicted if not sim.broadcast(tx).accepted]
        assert sim.mempool_ids == sorted(sim._mempool, key=lambda t: sim._mempool[t][2])
    while sim.mempool_ids:
        mine()


# --- publishing modes --------------------------------------------------------------------


def test_publish_sequence_nongreedy_waits_each(funded):
    sim, key, outs, rng = funded
    chain = []
    parent = (outs[0].tx_id, 0, outs[0].value, key)
    for _ in range(3):
        value = parent[2] - 1000
        k = Keypair.generate(rng)
        tx, _ = payment([parent], [value], [k], rng=rng)
        chain.append(tx)
        parent = (tx.tx_id, 0, value, k)
    report = sim.publish_sequence(chain, greedy=False)
    assert len(report.per_tx_waits) == 3
    assert all(w is not None and w >= 0 for w in report.per_tx_waits)
    assert report.total_duration >= sum(report.per_tx_waits) - 1e-9


def test_publish_sequence_greedy_single_overlapping_wait():
    """Across seeds, greedy total ~ one wait; non-greedy ~ n waits."""
    totals = {"greedy": [], "nongreedy": []}
    for seed in range(40):
        for greedy in (True, False):
            sim = ChainSim(SimConfig(seed=seed, block_interval_mean=6.0))
            rng = random.Random(seed)
            key = Keypair.generate(rng)
            outs = sim.grant(key, [1_000_000])
            chain = []
            parent = (outs[0].tx_id, 0, outs[0].value, key)
            for _ in range(5):
                value = parent[2] - 1000
                k = Keypair.generate(rng)
                tx, _ = payment([parent], [value], [k], rng=rng)
                chain.append(tx)
                parent = (tx.tx_id, 0, value, k)
            report = sim.publish_sequence(chain, greedy=greedy)
            totals["greedy" if greedy else "nongreedy"].append(report.total_duration)
    ratio = statistics.fmean(totals["nongreedy"]) / statistics.fmean(totals["greedy"])
    assert ratio >= 2.5


def test_single_tx_chain_modes_equal(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    report = sim.publish_sequence([tx], greedy=True)
    assert len(report.per_tx_waits) == 1


# --- determinism and dumps ------------------------------------------------------------------


def run_fixed_scenario(seed):
    sim = ChainSim(SimConfig(seed=seed, block_interval_mean=6.0))
    rng = random.Random(99)
    key = Keypair.generate(rng)
    outs = sim.grant(key, [400_000])
    chain = build_chain_of(sim, key, outs[0], 3, rng)
    sim.advance_time(60)
    return sim.dump()


def test_identical_seeds_identical_dumps():
    assert run_fixed_scenario(77) == run_fixed_scenario(77)
    assert run_fixed_scenario(77) != run_fixed_scenario(78)


def test_dump_load_roundtrip(funded):
    sim, key, outs, rng = funded
    chain = build_chain_of(sim, key, outs[0], 2, rng)
    sim.advance_time(100)
    view = load_dump(sim.dump())
    for tx in chain:
        assert view.get_transaction(tx.tx_id) == tx
        assert view.confirmation_status(tx.tx_id).state == sim.confirmation_status(tx.tx_id).state
    assert view.get_spender((outs[0].tx_id, 0)) == chain[0].tx_id


def test_dump_parse_errors_carry_line_numbers():
    with pytest.raises(DumpFormatError) as err:
        load_dump("not json\n")
    assert err.value.line_no == 1
    good = run_fixed_scenario(5)
    lines = good.splitlines()
    idx = next(i for i, l in enumerate(lines) if l and not l.startswith(("{", "block", "mempool")))
    lines[idx] = "deadbeef"
    with pytest.raises(DumpFormatError) as err:
        load_dump("\n".join(lines))
    assert err.value.line_no == idx + 1


def test_utxo_never_double_spent_across_chain_and_mempool(funded):
    sim, key, outs, rng = funded
    chain = build_chain_of(sim, key, outs[0], 4, rng)
    sim.advance_time(30)
    spent = {}
    for tx in sim.all_transactions():
        for txin in tx.inputs:
            assert txin.outpoint not in spent, "double spend"
            spent[txin.outpoint] = tx.tx_id


def test_empty_blocks_skipped_when_configured():
    sim = ChainSim(SimConfig(seed=3, block_interval_mean=6.0, produce_empty_blocks=False))
    rng = random.Random(1)
    key = Keypair.generate(rng)
    outs = sim.grant(key, [100_000])  # grant mines block 0 directly
    blocks = sim.advance_time(600)
    assert blocks == []  # nothing pending, nothing mined
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    blocks = sim.advance_time(600)
    assert len(blocks) >= 1 and all(b.txs for b in blocks)


def test_empty_blocks_produced_by_default(sim):
    blocks = sim.advance_time(60)
    assert blocks and all(not b.txs for b in blocks)


def test_data_output_can_never_be_spent(funded):
    from chorchain import engine as eng
    from chorchain.encoding import DataBlock, TxKind

    sim, key, outs, rng = funded
    fee = eng.FeePolicy()
    start_tx, token = eng.build_start(
        [eng.Spendable(o.tx_id, o.output_index, o.value, key) for o in outs],
        1, int(sim.now), fee, 5, key, rng,
    )
    assert sim.broadcast(start_tx).accepted
    data_index = next(i for i, o in enumerate(start_tx.outputs) if o.value == 0)
    # claim a non-zero input value so the attempt serializes; the chain
    # resolves the real output and refuses the spend regardless
    theft, _ = payment([(start_tx.tx_id, data_index, 100_000, key)], [1], rng=rng)
    result = sim.broadcast(theft)
    assert not result.accepted and "data output" in result.reason


# --- faucet grants -------------------------------------------------------------------


def test_repeated_grant_refused_and_first_stays_spendable(funded):
    sim, key, outs, rng = funded
    blocks = len(sim.blocks)
    with pytest.raises(ChainError, match="already on the chain"):
        sim.grant(key, [1_000_000, 500_000, 250_000])
    assert len(sim.blocks) == blocks
    for out in outs:
        tx, _ = payment([(out.tx_id, out.output_index, out.value, key)], [out.value - 1000], rng=rng)
        assert sim.broadcast(tx).accepted
    sim.await_confirmation(tx.tx_id, 1)
    assert sim.grant(key, [1_000_000, 500_000, 250_001])[0].tx_id != outs[0].tx_id


@pytest.mark.parametrize("outputs", [1, 300])
def test_grant_serializes_once_whatever_its_size(sim, monkeypatch, outputs):
    calls = []
    real = encoding.serialize_transaction

    def counting(tx):
        calls.append(len(tx.outputs))
        return real(tx)

    monkeypatch.setattr(encoding, "serialize_transaction", counting)
    key = Keypair.from_seed(b"faucet")
    funds = sim.grant(key, [10_000 + i for i in range(outputs)])
    assert calls == [outputs]
    assert len({f.tx_id for f in funds}) == 1 and len(funds) == outputs
