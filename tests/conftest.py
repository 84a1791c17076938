import functools
import json
import random

import pytest
from hypothesis import strategies as st

from chorchain import engine as eng
from chorchain import model as M
from chorchain.chain import ChainSim, SimConfig
from chorchain.crypto import N, Keypair, sha256
from chorchain.harness import RunMetrics, ScenarioConfig, builtin_model, run_scenario


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def fee_policy():
    return eng.FeePolicy()


@pytest.fixture
def models():
    return {i: builtin_model(i) for i in (1, 2, 3, 4)}


@st.composite
def block_models(draw, max_depth=2, max_branches=3, max_steps=3):
    """The JSON document of a random block-structured model.

    Every branch holds 1 to ``max_steps`` steps, except that one branch of a
    block may be empty (a split reaches its join by one edge only). A step
    is a block with probability 0.35, XOR or AND with even odds, with 2 to
    ``max_branches`` branches, nested at most ``max_depth`` deep; otherwise
    it is a task. Task ids are distinct draws from 1..250 (251 is the
    filler handover's).
    """
    nodes = [{"id": "s", "kind": "start"}, {"id": "e", "kind": "end"}]
    edges = []

    def segment(last, depth):
        """Draw the steps after node ``last``; return the segment's last node."""
        for _ in range(draw(st.integers(1, max_steps))):
            if depth < max_depth and draw(st.integers(0, 99)) >= 65:
                kind = draw(st.sampled_from(["xor", "and"]))
                split, join = f"{kind}{len(nodes)}", f"{kind}{len(nodes)}j"
                nodes.extend([{"id": split, "kind": f"{kind}_split"}, {"id": join, "kind": f"{kind}_join"}])
                edges.append((last, split))
                count = draw(st.integers(2, max_branches))
                empty = draw(st.integers(-1, count - 1))  # the empty branch, or -1
                for b in range(count):
                    edges.append((split if b == empty else segment(split, depth + 1), join))
                last = join
            else:
                task = f"t{len(nodes)}"
                nodes.append({"id": task, "kind": "task"})
                edges.append((last, task))
                last = task
        return last

    edges.append((segment("s", 0), "e"))
    tasks = [n for n in nodes if n["kind"] == "task"]
    ids = draw(st.lists(st.integers(1, 250), min_size=len(tasks), max_size=len(tasks), unique=True))
    for node, task_id in zip(tasks, ids):
        node["task_id"] = task_id
    return json.dumps({
        "model_id": draw(st.integers(1, 99)),
        "nodes": nodes,
        "edges": [{"from": a, "to": b} for a, b in edges],
    })


@pytest.fixture
def funded_sim(rng):
    """Simulator with an owner key holding two large spendable outputs."""
    sim = ChainSim(SimConfig(seed=99, block_interval_mean=6.0))
    owner_key = Keypair.generate(rng)
    funds = sim.grant(owner_key, [5_000_000, 1_000_000])
    return sim, owner_key, funds


def keypair_from_seed(seed: bytes) -> Keypair:
    """A keypair whose secret is derived from ``seed``, for fixed test keys."""
    return Keypair(int.from_bytes(sha256(seed), "big") % (N - 1) + 1)


def make_instance(sim, owner_key, funds, fee_policy, rng, process_id=1, estimate=8):
    """Broadcast a start transaction and return (start_tx, token)."""
    start_tx, token = eng.build_start(
        funds, process_id, int(sim.now), fee_policy, estimate, owner_key, rng
    )
    result = sim.broadcast(start_tx)
    assert result.accepted, result.reason
    return start_tx, token


DER_EDITS = ("envelope", "r", "s", "cut body", "cut", "negative r")


def tamper_der(signature: bytes, edit: str, value: int) -> bytes:
    """signature with one DER length byte set to value (r's length to value
    bytes short of the whole body, so value 0 leaves nothing for s); or its
    DER body cut to value bytes, the envelope length set to match and the
    hash-type byte kept; or the whole signature so cut; or r made a negative
    DER integer, with value unused: its 0x00 pad dropped, which keeps r's
    value, or else its top bit set."""
    body = signature[:-1]
    if edit == "negative r":
        if body[4] == 0:  # the pad: a strict encoding has it only before a top bit
            return body[:1] + bytes([body[1] - 1, 2, body[3] - 1]) + body[5:] + signature[-1:]
        return body[:4] + bytes([body[4] | 0x80]) + body[5:] + signature[-1:]
    at, length = {
        "envelope": (1, value),
        "r": (3, (body[1] - 2 - value) % 256),
        "s": (5 + body[3], value),
    }.get(edit, (None, None))
    if at is not None:
        return body[:at] + bytes([length]) + body[at + 1:] + signature[-1:]
    if edit == "cut body":
        cut = value % len(body)
        return (body[:1] + bytes([max(cut - 2, 0)]) + body[2:cut])[:cut] + signature[-1:]
    return signature[: value % len(signature)]


def synthetic_trace(seq, ended):
    """A trace whose handovers do the tasks of ``seq`` in order, with a
    normal END if ``ended``."""
    events = [M.TraceEvent(M.EventKind.START, 0)]
    for i, task in enumerate(seq, 1):
        events.append(M.TraceEvent(M.EventKind.HANDOVER, i, task_id=task))
    if ended:
        events.append(M.TraceEvent(M.EventKind.END, len(seq) + 1))
    return M.ExecutionTrace(tuple(events))


@functools.lru_cache(maxsize=None)
def scenario_run(config: ScenarioConfig) -> RunMetrics:
    """The metrics of ``config``'s first run, run once per session, so that
    tests that run the same seeded configs share them."""
    return run_scenario(config).runs[0]
