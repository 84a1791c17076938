import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorchain import model as M

from conftest import block_models


def trace_of(sequence, end=None, fillers=()):
    """Build a synthetic trace: Start, handovers, optional end.

    end: None (in flight), "normal", or "extraordinary".
    """
    events = [M.TraceEvent(M.EventKind.START, 0)]
    ts = 1
    for task in sequence:
        events.append(M.TraceEvent(M.EventKind.HANDOVER, ts, task_id=task))
        ts += 1
    for f in fillers:
        events.append(M.TraceEvent(M.EventKind.HANDOVER, ts, task_id=f, filler=True))
        ts += 1
    if end:
        events.append(
            M.TraceEvent(M.EventKind.END, ts, extraordinary=end == "extraordinary")
        )
    return M.ExecutionTrace(tuple(events))


# --- loading -------------------------------------------------------------------


def test_load_builtin_models(models):
    table = {1: (3, 0, 0), 2: (4, 1, 1), 3: (4, 0, 0), 4: (5, 1, 1)}
    for mid, (tasks, xor_splits, xor_joins) in table.items():
        m = models[mid]
        assert m.model_id == mid
        assert sum(n.kind == M.NodeKind.TASK for n in m.nodes) == tasks
        assert sum(n.kind == M.NodeKind.XOR_SPLIT for n in m.nodes) == xor_splits
    assert sum(n.kind == M.NodeKind.AND_SPLIT for n in models[3].nodes) == 1
    assert sum(n.kind == M.NodeKind.AND_SPLIT for n in models[4].nodes) == 1


def test_builtin_models_parse_into_block_trees(models):
    xor, and_ = M.NodeKind.XOR_SPLIT, M.NodeKind.AND_SPLIT
    assert models[1].body == (1, 2, 3)
    assert models[2].body == (1, M.Gateway(xor, ((2,), (3,))), 4)
    assert models[3].body == (1, M.Gateway(and_, ((2,), (3,))), 4)
    assert models[4].body == (1, M.Gateway(and_, ((2,), (3,))), M.Gateway(xor, ((4,), (5,))))


def test_nested_blocks_and_empty_branches_parse():
    nodes = [
        {"id": "s", "kind": "start"},
        {"id": "x", "kind": "xor_split"},
        {"id": "a", "kind": "and_split"},
        {"id": "t1", "kind": "task", "task_id": 1},
        {"id": "t2", "kind": "task", "task_id": 2},
        {"id": "aj", "kind": "and_join"},
        {"id": "xj", "kind": "xor_join"},
        {"id": "e", "kind": "end"},
    ]
    edges = [
        ("s", "x"), ("x", "a"), ("x", "xj"), ("a", "t1"), ("a", "t2"),
        ("t1", "aj"), ("t2", "aj"), ("aj", "xj"), ("xj", "e"),
    ]
    m = M.load_model(doc(nodes, edges))
    inner = M.Gateway(M.NodeKind.AND_SPLIT, ((1,), (2,)))
    assert m.body == (M.Gateway(M.NodeKind.XOR_SPLIT, ((inner,), ())),)
    assert M.enumerate_valid_traces(m, 10) == {(1, 2), (2, 1), ()}


def test_parse_error():
    with pytest.raises(M.ModelError, match="JSON"):
        M.load_model("{not json")
    with pytest.raises(M.ModelError, match="malformed"):
        M.load_model(json.dumps({"model_id": 1, "nodes": [{"id": "a"}], "edges": []}))


def doc(nodes, edges, model_id=9):
    return json.dumps(
        {
            "model_id": model_id,
            "nodes": nodes,
            "edges": [{"from": a, "to": b} for a, b in edges],
        }
    )


def test_multiple_starts_rejected():
    text = doc(
        [
            {"id": "s1", "kind": "start"},
            {"id": "s2", "kind": "start"},
            {"id": "t", "kind": "task", "task_id": 1},
            {"id": "e", "kind": "end"},
        ],
        [("s1", "t"), ("s2", "t"), ("t", "e")],
    )
    with pytest.raises(M.ModelError, match="one start"):
        M.load_model(text)


def test_unbalanced_split_rejected(models):
    base = json.loads(
        doc(
            [
                {"id": "s", "kind": "start"},
                {"id": "sp", "kind": "and_split"},
                {"id": "t1", "kind": "task", "task_id": 1},
                {"id": "t2", "kind": "task", "task_id": 2},
                {"id": "j", "kind": "xor_join"},
                {"id": "e", "kind": "end"},
            ],
            [("s", "sp"), ("sp", "t1"), ("sp", "t2"), ("t1", "j"), ("t2", "j"), ("j", "e")],
        )
    )
    with pytest.raises(M.ModelError, match="and_split closed by xor_join"):
        M.load_model(json.dumps(base))


def test_cycle_rejected():
    text = doc(
        [
            {"id": "s", "kind": "start"},
            {"id": "t1", "kind": "task", "task_id": 1},
            {"id": "t2", "kind": "task", "task_id": 2},
            {"id": "e", "kind": "end"},
        ],
        [("s", "t1"), ("t1", "t2"), ("t2", "t1"), ("t2", "e")],
    )
    with pytest.raises(M.ModelError):
        M.load_model(text)


def test_task_id_rules():
    # 251 is the filler handover's task id, so no model task may use it
    for task_id in (251, 252):
        with pytest.raises(M.ModelError, match="1..250"):
            M.load_model(
                doc(
                    [
                        {"id": "s", "kind": "start"},
                        {"id": "t", "kind": "task", "task_id": task_id},
                        {"id": "e", "kind": "end"},
                    ],
                    [("s", "t"), ("t", "e")],
                )
            )
    with pytest.raises(M.ModelError, match="not unique"):
        M.load_model(
            doc(
                [
                    {"id": "s", "kind": "start"},
                    {"id": "t1", "kind": "task", "task_id": 1},
                    {"id": "t2", "kind": "task", "task_id": 1},
                    {"id": "e", "kind": "end"},
                ],
                [("s", "t1"), ("t1", "t2"), ("t2", "e")],
            )
        )


@pytest.mark.parametrize("task_id", ["1", [1], True, 2.5])
def test_task_id_that_is_no_integer_rejected(task_id):
    with pytest.raises(M.ModelError, match="task id must be 1..250"):
        M.load_model(
            doc(
                [
                    {"id": "s", "kind": "start"},
                    {"id": "t", "kind": "task", "task_id": task_id},
                    {"id": "e", "kind": "end"},
                ],
                [("s", "t"), ("t", "e")],
            )
        )


def test_unreachable_node_rejected():
    text = doc(
        [
            {"id": "s", "kind": "start"},
            {"id": "t1", "kind": "task", "task_id": 1},
            {"id": "t2", "kind": "task", "task_id": 2},
            {"id": "e", "kind": "end"},
        ],
        [("s", "t1"), ("t1", "e"), ("t2", "e")],
    )
    with pytest.raises(M.ModelError):
        M.load_model(text)


# --- enumeration -----------------------------------------------------------------


def test_sequential_model_single_trace(models):
    assert M.enumerate_valid_traces(models[1], 100) == {(1, 2, 3)}


def test_xor_model_one_trace_per_branch(models):
    assert M.enumerate_valid_traces(models[2], 100) == {(1, 2, 4), (1, 3, 4)}


def test_and_model_interleavings(models):
    assert M.enumerate_valid_traces(models[3], 100) == {(1, 2, 3, 4), (1, 3, 2, 4)}


def test_combined_model(models):
    assert M.enumerate_valid_traces(models[4], 100) == {
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 2, 3, 5),
        (1, 3, 2, 5),
    }


def test_single_task_model():
    m = M.load_model(
        doc(
            [
                {"id": "s", "kind": "start"},
                {"id": "t", "kind": "task", "task_id": 1},
                {"id": "e", "kind": "end"},
            ],
            [("s", "t"), ("t", "e")],
        )
    )
    assert M.enumerate_valid_traces(m, 10) == {(1,)}


def test_xor_only_model_has_product_of_branch_counts():
    # two XOR blocks with 2 and 3 branches -> exactly 6 sequences
    nodes = [
        {"id": "s", "kind": "start"},
        {"id": "x1", "kind": "xor_split"},
        {"id": "a1", "kind": "task", "task_id": 1},
        {"id": "a2", "kind": "task", "task_id": 2},
        {"id": "j1", "kind": "xor_join"},
        {"id": "x2", "kind": "xor_split"},
        {"id": "b1", "kind": "task", "task_id": 3},
        {"id": "b2", "kind": "task", "task_id": 4},
        {"id": "b3", "kind": "task", "task_id": 5},
        {"id": "j2", "kind": "xor_join"},
        {"id": "e", "kind": "end"},
    ]
    edges = [
        ("s", "x1"), ("x1", "a1"), ("x1", "a2"), ("a1", "j1"), ("a2", "j1"),
        ("j1", "x2"), ("x2", "b1"), ("x2", "b2"), ("x2", "b3"),
        ("b1", "j2"), ("b2", "j2"), ("b3", "j2"), ("j2", "e"),
    ]
    m = M.load_model(doc(nodes, edges))
    assert len(M.enumerate_valid_traces(m, 1000)) == 2 * 3


def test_truncation_cap(models):
    assert len(M.enumerate_valid_traces(models[4], 2)) == 2


# --- conformance ------------------------------------------------------------------


def test_complete_trace_conformant(models):
    assert M.check_conformance(models[1], trace_of((1, 2, 3), "normal")).ok


def test_skipped_task_deviation(models):
    verdict = M.check_conformance(models[1], trace_of((1, 3)))
    assert verdict == M.Deviation(position=2, expected=frozenset({2}), actual=3)


def test_start_only_trace_is_conformant_prefix(models):
    assert M.check_conformance(models[1], trace_of(())).ok


def test_incomplete_but_ended_trace_deviates(models):
    assert not M.check_conformance(models[1], trace_of((1, 2), "normal")).ok


def test_extraordinary_end_keeps_prefix_semantics(models):
    assert M.check_conformance(models[1], trace_of((1, 2), "extraordinary")).ok


def test_filler_handovers_ignored(models):
    trace = trace_of((1, 2, 3), "normal", fillers=(251,))
    assert M.check_conformance(models[1], trace).ok


def test_and_interleavings_accepted(models):
    for seq in ((1, 2, 3, 4), (1, 3, 2, 4)):
        assert M.check_conformance(models[3], trace_of(seq, "normal")).ok


def test_both_xor_branches_deviates(models):
    verdict = M.check_conformance(models[2], trace_of((1, 2, 3), "normal"))
    assert not verdict.ok and verdict.position == 3


def prefix_closure(traces):
    out = set()
    for t in traces:
        for i in range(len(t) + 1):
            out.add(t[:i])
    return out


@pytest.mark.parametrize("model_id", [1, 2, 3, 4])
def test_conformance_matches_enumeration_oracle(models, model_id):
    """Tree replay agrees with brute-force enumeration on random traces."""
    m = models[model_id]
    full = M.enumerate_valid_traces(m, 10_000)
    prefixes = prefix_closure(full)
    tasks = sorted(m.task_ids)
    rng = random.Random(model_id)
    for _ in range(400):
        length = rng.randrange(0, 6)
        seq = tuple(rng.choice(tasks) for _ in range(length))
        got = M.check_conformance(m, trace_of(seq)).ok
        assert got == (seq in prefixes), seq
        got_end = M.check_conformance(m, trace_of(seq, "normal")).ok
        assert got_end == (seq in full), seq


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_enumerated_traces_always_conformant(data):
    from chorchain.harness import builtin_model

    m = builtin_model(data.draw(st.sampled_from([1, 2, 3, 4])))
    seq = data.draw(st.sampled_from(sorted(M.enumerate_valid_traces(m, 100))))
    cut = data.draw(st.integers(0, len(seq)))
    assert M.check_conformance(m, trace_of(seq[:cut])).ok
    assert M.check_conformance(m, trace_of(seq, "normal")).ok


# The edge-marking semantics: a second derivation of the language, from the
# edge list alone, that the tree replay is checked against.


def _edge_key(a, b):
    return f"{a}>{b}"


def _silent_closure(model, states):
    """All markings reachable by firing split/join nodes only."""
    seen = set(states)
    frontier = list(states)
    while frontier:
        marking = frontier.pop()
        for node in model.nodes:
            if node.kind in (M.NodeKind.START, M.NodeKind.END, M.NodeKind.TASK):
                continue
            in_edges = [_edge_key(p, node.node_id) for p in model.predecessors(node.node_id)]
            out_edges = [_edge_key(node.node_id, s) for s in model.successors(node.node_id)]
            if node.kind == M.NodeKind.XOR_JOIN:
                nexts = [marking - {ie} | set(out_edges) for ie in in_edges if ie in marking]
            elif node.kind == M.NodeKind.AND_JOIN:
                fires = all(ie in marking for ie in in_edges)
                nexts = [marking - set(in_edges) | set(out_edges)] if fires else []
            elif node.kind == M.NodeKind.AND_SPLIT:
                fires = in_edges[0] in marking
                nexts = [marking - {in_edges[0]} | set(out_edges)] if fires else []
            else:  # XOR split: one token to exactly one branch
                fires = in_edges[0] in marking
                nexts = [marking - {in_edges[0]} | {oe} for oe in out_edges] if fires else []
            for nxt in map(frozenset, nexts):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _enabled_tasks(model, states):
    """Task id -> the (marking, task node) pairs in which it can fire."""
    enabled = {}
    for marking in states:
        for node in model.nodes:
            if node.kind != M.NodeKind.TASK:
                continue
            if _edge_key(model.predecessors(node.node_id)[0], node.node_id) in marking:
                enabled.setdefault(node.task_id, []).append((marking, node))
    return enabled


def _initial_states(model):
    start = next(n for n in model.nodes if n.kind == M.NodeKind.START)
    return {frozenset({_edge_key(start.node_id, model.successors(start.node_id)[0])})}


def _fire(model, enabled, task_id):
    """The marking set reached by firing task_id in each marking enabling it."""
    return {
        frozenset(
            marking
            - {_edge_key(model.predecessors(node.node_id)[0], node.node_id)}
            | {_edge_key(node.node_id, model.successors(node.node_id)[0])}
        )
        for marking, node in enabled[task_id]
    }


def reference_conformance(model, trace):
    """check_conformance by token markings on the edge list: every step
    closes the marking set under split/join firings and fires the task in
    each marking that enables it. It never reads the block tree."""
    end = next(n for n in model.nodes if n.kind == M.NodeKind.END)
    states = _initial_states(model)
    sequence = trace.task_sequence()
    for position, task_id in enumerate(sequence, start=1):
        states = _silent_closure(model, states)
        enabled = _enabled_tasks(model, states)
        if task_id not in enabled:
            return M.Deviation(position, frozenset(enabled), task_id)
        states = _fire(model, enabled, task_id)
    if trace.ended_normally:
        states = _silent_closure(model, states)
        final = _edge_key(model.predecessors(end.node_id)[0], end.node_id)
        if frozenset({final}) not in states:
            return M.Deviation(len(sequence) + 1, frozenset(_enabled_tasks(model, states)), None)
    return M.Conformant()


def draw_trace(data, model):
    """A legal prefix, drawn by walking the marking replay and picking an
    enabled task at random each step, then up to three random tasks, with no
    end, a normal end or an extraordinary end."""
    states = _initial_states(model)
    prefix = []
    for _ in range(data.draw(st.integers(0, len(model.task_ids)))):
        enabled = _enabled_tasks(model, _silent_closure(model, states))
        if not enabled:
            break
        task_id = data.draw(st.sampled_from(sorted(enabled)))
        prefix.append(task_id)
        states = _fire(model, enabled, task_id)
    tasks = sorted(model.task_ids | {M.MAX_TASK_ID})  # the last may be in no model
    tail = data.draw(st.lists(st.sampled_from(tasks), max_size=3))
    end = data.draw(st.sampled_from([None, "normal", "extraordinary"]))
    return trace_of(tuple(prefix) + tuple(tail), end)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tree_replay_matches_the_reference(data):
    """Over models 1-4, legal prefixes with random tasks appended, with and
    without an end: the tree replay's verdict is the marking replay's."""
    from chorchain.harness import builtin_model

    m = builtin_model(data.draw(st.sampled_from([1, 2, 3, 4])))
    trace = draw_trace(data, m)
    assert M.check_conformance(m, trace) == reference_conformance(m, trace)


@settings(max_examples=300, deadline=None)
@given(document=block_models(), data=st.data())
def test_tree_replay_matches_the_reference_on_random_models(document, data):
    """The same agreement on random block-structured models, nested XOR and
    AND blocks and empty branches included."""
    m = M.load_model(document)
    trace = draw_trace(data, m)
    assert M.check_conformance(m, trace) == reference_conformance(m, trace)


def test_models_with_one_id_never_share_replay_entries():
    """Two models with the same id and the same first edge, whose tasks 2
    and 3 come in opposite orders: each replays against its own edges, in
    either order of first use."""
    nodes = [
        {"id": "s", "kind": "start"},
        {"id": "a", "kind": "task", "task_id": 1},
        {"id": "b", "kind": "task", "task_id": 2},
        {"id": "c", "kind": "task", "task_id": 3},
        {"id": "e", "kind": "end"},
    ]
    forward = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "e")]
    backward = [("s", "a"), ("a", "c"), ("c", "b"), ("b", "e")]
    for first, second in ((forward, backward), (backward, forward)):
        models = [M.load_model(doc(nodes, edges)) for edges in (first, second)]
        assert models[0].model_id == models[1].model_id and models[0] != models[1]
        for m, edges in zip(models, (first, second)):
            verdict = M.check_conformance(m, trace_of((1, 2, 3), "normal"))
            if edges is forward:
                assert verdict.ok
            else:
                assert verdict == M.Deviation(position=2, expected=frozenset({3}), actual=2)
