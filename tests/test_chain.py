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
from chorchain.crypto import Keypair, sha256d, sign
from chorchain.encoding import (
    EnrichedTransaction,
    TxInput,
    TxOutput,
    Unlocking,
    serialize_transaction,
    signing_digest,
)

from conftest import keypair_from_seed, tamper_der


def mine_pending(sim: ChainSim):
    """Force a block at the current instant and reschedule the next one."""
    block = sim._produce_block()
    sim._next_block_at = sim.now + sim._interval()
    return block


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
    block = mine_pending(sim)
    assert [t.tx_id for t in block.txs] == [rich.tx_id, cheap.tx_id]


def test_block_capacity_respected():
    sim = ChainSim(SimConfig(seed=5, block_interval_mean=6.0, block_capacity=2))
    rng = random.Random(8)
    key = Keypair.generate(rng)
    outs = sim.grant(key, [100_000] * 5)
    for out in outs:
        tx, _ = payment([(out.tx_id, out.output_index, out.value, key)], [out.value - 1000], rng=rng)
        assert sim.broadcast(tx).accepted
    block = mine_pending(sim)
    assert len(block.txs) == 2
    assert len(sim.mempool_ids) == 3


# --- time and waits ------------------------------------------------------------------


@pytest.mark.parametrize("mean", [0.0, -1.0, float("nan"), float("inf")])
def test_block_interval_mean_must_be_above_zero(mean):
    with pytest.raises(ValueError, match="above 0"):
        SimConfig(seed=1, block_interval_mean=mean)


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


def test_phase_seconds_sees_all_advances(funded):
    sim, key, outs, rng = funded
    t0 = sim.now
    sim.advance_time(5.0, "task")
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    sim.broadcast(tx)
    sim.await_confirmation(tx.tx_id, 1)
    assert sim.phase_seconds["task"] == 5.0
    assert sim.phase_seconds["confirm"] > 0
    assert sum(sim.phase_seconds.values()) == pytest.approx(sim.now - t0)


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


def test_refused_forced_conflict_leaves_the_mempool_as_it_was(funded):
    sim, key, outs, rng = funded
    o = (outs[0].tx_id, outs[0].output_index, outs[0].value, key)
    (h, (hk,)) = payment([o], [o[2] - 1000], rng=rng)
    assert sim.broadcast(h).accepted
    (c, (ck,)) = payment([(h.tx_id, 0, o[2] - 1000, hk)], [o[2] - 2000], rng=rng)
    assert sim.broadcast(c).accepted
    # the winner spends O, evicting H and its child C, and also C:0, which
    # the eviction removes, so it is refused with missing-input
    winner, _ = payment([o, (c.tx_id, 0, o[2] - 2000, ck)], [2 * o[2] - 10_000], rng=rng)

    def state():
        return (
            sim.mempool_ids,
            sim.get_spender(o[:2]),
            sim.get_spender((h.tx_id, 0)),
            [sim.confirmation_status(t.tx_id) for t in (h, c)],
        )

    before = state()
    with pytest.raises(ChainError, match="missing-input"):
        sim.force_conflict(winner)
    assert state() == before == ([h.tx_id, c.tx_id], h.tx_id, c.tx_id, before[3])
    assert [s.state for s in before[3]] == ["pending", "pending"]
    assert sim.confirmation_status(winner.tx_id).state == "unknown"
    block = mine_pending(sim)
    assert [tx.tx_id for tx in block.txs] == [h.tx_id, c.tx_id]


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
    block = mine_pending(sim)
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


DAG_KEY = keypair_from_seed(b"mempool dag")


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
        block = mine_pending(sim)
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
    # evictions and re-broadcasts leave no repeated txid or double spend,
    # so the dump loads, with and without a mempool
    for _ in range(2):
        loaded = load_dump(sim.dump())
        assert list(loaded.all_transactions()) == list(sim.all_transactions())
        while sim.mempool_ids:
            mine()


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


@pytest.mark.parametrize(
    "at, edit, message",
    [
        (0, lambda h, t: (1, t), "block height 1, expected 0"),
        (2, lambda h, t: (h + 1, t), "block height 3, expected 2"),
        (2, lambda h, t: (h - 1, t), "block height 1, expected 2"),
        (3, lambda h, t: (h, t - 100), "before"),
    ],
    ids=["first_is_not_0", "height_skips", "height_repeats", "time_goes_back"],
)
def test_block_lines_must_count_up_in_time(at, edit, message):
    lines = run_fixed_scenario(5).splitlines()
    block_lines = [i for i, l in enumerate(lines) if l.startswith("block ")]
    idx = block_lines[at]
    _, height, timestamp = lines[idx].split()
    lines[idx] = "block %d %d" % edit(int(height), int(timestamp))
    with pytest.raises(DumpFormatError, match=message) as err:
        load_dump("\n".join(lines))
    assert err.value.line_no == idx + 1


def test_block_timestamps_may_repeat():
    lines = run_fixed_scenario(5).splitlines()
    first, second = [i for i, l in enumerate(lines) if l.startswith("block ")][:2]
    lines[second] = "block 1 " + lines[first].split()[2]
    assert len(load_dump("\n".join(lines)).blocks) == 6


def _input_listed_twice(raw: bytes) -> bytes:
    """The wire bytes of a one-input transaction with that input listed twice."""
    assert raw[4] == 1 and raw[41] < 0xFD  # one input, one-byte script length
    end = 42 + raw[41] + 4  # outpoint, script length, script, sequence
    return raw[:4] + b"\x02" + raw[5:end] * 2 + raw[end:]


def test_transaction_spending_one_outpoint_twice_refused(funded):
    sim, key, _, rng = funded
    grant = sim.grant(key, [100_000])[0]
    once = EnrichedTransaction(
        inputs=(TxInput(grant.tx_id, grant.output_index),),
        outputs=(TxOutput.to_key_hash(190_000, Keypair.generate(rng).key_hash),),
    )
    # signed over the digest a checker that allowed the repeat would compute
    digest = sha256d(_input_listed_twice(serialize_transaction(once)))
    txin = TxInput(grant.tx_id, grant.output_index, Unlocking(sign(digest, key), key.public_key))
    twice = EnrichedTransaction(inputs=(txin, txin), outputs=once.outputs)
    result = sim.broadcast(twice)
    assert not result.accepted
    assert result.reason == "invalid: two inputs spend the same outpoint"
    assert sim.mempool_ids == []
    assert sim.get_spender(twice.inputs[0].outpoint) is None


@pytest.mark.parametrize("case", ["redeem script push", "signature push", "version", "locktime"])
def test_transaction_that_cannot_be_written_is_refused(funded, case):
    """A push over 255 bytes has no encoding here, and version and locktime
    are four unsigned bytes. Broadcast refuses the push as invalid instead
    of raising; a version or locktime out of range is refused, with the
    same error, when the transaction is built, so it never reaches the
    chain. Either way the mempool is unchanged."""
    from dataclasses import replace

    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    txin = tx.inputs[0]
    if case.endswith("push"):
        field = "redeem_script" if case.startswith("redeem") else "signature"
        unlocking = replace(txin.unlocking, **{field: b"\x51" * 256})
        result = sim.broadcast(replace(tx, inputs=(replace(txin, unlocking=unlocking),)))
        assert not result.accepted and result.reason == "invalid: push too large"
    else:
        with pytest.raises(encoding.TransactionInvariantError, match=f"^{case} .* out of range$"):
            replace(tx, **{case: -1 if case == "version" else 2**32})
    assert sim.mempool_ids == []
    assert sim.get_spender(txin.outpoint) is None


@pytest.mark.parametrize("edit", ["r", "cut body", "negative r"])
def test_broadcast_refuses_a_der_signature_without_s(funded, edit):
    """r's length covering s, or the body cut just after the tag of s; or,
    with s intact, r's 0x00 pad dropped (this r has one): the same (r, s)
    one byte shorter, which would give the transaction a second txid."""
    from dataclasses import replace

    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    txin = tx.inputs[0]
    signature = txin.unlocking.signature
    bad = tamper_der(signature, edit, 0 if edit == "r" else 5 + signature[3])
    assert edit != "negative r" or len(bad) == len(signature) - 1  # r has a pad to drop
    tampered = replace(tx, inputs=(replace(txin, unlocking=replace(txin.unlocking, signature=bad)),))
    result = sim.broadcast(tampered)
    assert not result.accepted
    assert result.reason == "script: input 0 signature invalid"
    assert sim.mempool_ids == []


def test_dump_line_spending_one_outpoint_twice_refused(funded):
    sim, key, outs, rng = funded
    tx, _ = payment([(outs[0].tx_id, 0, outs[0].value, key)], [outs[0].value - 1000], rng=rng)
    assert sim.broadcast(tx).accepted
    mine_pending(sim)
    lines = sim.dump().splitlines()
    idx = lines.index(encoding.tx_to_hex(tx))
    lines[idx] = _input_listed_twice(bytes.fromhex(lines[idx])).hex()
    with pytest.raises(DumpFormatError, match="same outpoint") as err:
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


def test_unparsable_redeem_script_refused_not_raised(funded):
    from dataclasses import replace

    from chorchain.crypto import hash160

    sim, key, outs, rng = funded
    redeem = b"\x51"  # hashes to the output, but is no pay-to-key-hash clause
    lock = EnrichedTransaction(
        inputs=(TxInput(outs[0].tx_id, outs[0].output_index, prev_value=outs[0].value),),
        outputs=(TxOutput.to_script_hash(outs[0].value - 10_000, hash160(redeem)),),
    )
    unlocking = Unlocking(sign(signing_digest(lock), key), key.public_key)
    lock = replace(lock, inputs=(replace(lock.inputs[0], unlocking=unlocking),))
    assert sim.broadcast(lock).accepted
    spend = EnrichedTransaction(
        inputs=(TxInput(lock.tx_id, 0, prev_value=lock.outputs[0].value),),
        outputs=(TxOutput.to_key_hash(lock.outputs[0].value - 10_000, key.key_hash),),
    )
    unlocking = Unlocking(sign(signing_digest(spend), key), key.public_key, redeem)
    spend = replace(spend, inputs=(replace(spend.inputs[0], unlocking=unlocking),))
    result = sim.broadcast(spend)
    assert not result.accepted and result.reason.startswith("script: input 0 redeem script")


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
    key = keypair_from_seed(b"faucet")
    funds = sim.grant(key, [10_000 + i for i in range(outputs)])
    assert calls == [outputs]
    assert len({f.tx_id for f in funds}) == 1 and len(funds) == outputs
