"""Process models and conformance checking of reconstructed execution traces.

A model is a block-structured graph of tasks plus XOR/AND blocks: one start,
one end, no cycles, and every split closed by exactly one matching join.
Legal behaviour is the set of task sequences the graph can produce, where an
XOR block contributes one branch and an AND block contributes every
interleaving of its branches.

Validation parses the graph once into :attr:`ProcessModel.body`, a tree of
steps: a task id, or a :class:`Gateway` whose branches are step sequences
of their own. This module is the only place that pairs splits with joins;
the harness's plan compiler walks the tree.

Two independent views of the language exist side by side:

* :func:`enumerate_valid_traces` materializes it by recursive descent over
  the parsed block tree (used as the oracle in tests), and
* :func:`check_conformance` replays a trace against a token-marking
  semantics of the edge list, without enumerating and without reading the
  tree.

The replay's work per step depends only on the model and the set of
markings reached, so each model keeps it: the silent closure of every
marking set it has replayed, and the marking set each enabled task leads
to. The memo is a private field of the frozen :class:`ProcessModel`, left
out of equality, hashing and repr, so two models that compare equal still
never share entries; :func:`chorchain.harness.builtin_model` hands out one
parsed model per id, and the runs of a model share its memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterator

MIN_TASK_ID = 1
MAX_TASK_ID = 251


class ModelError(ValueError):
    """Model document rejected; ``node`` names the offender when known."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message if node is None else f"{message} (node {node!r})")
        self.node = node


class NodeKind(str, Enum):
    START = "start"
    TASK = "task"
    XOR_SPLIT = "xor_split"
    XOR_JOIN = "xor_join"
    AND_SPLIT = "and_split"
    AND_JOIN = "and_join"
    END = "end"


_SPLITS = (NodeKind.XOR_SPLIT, NodeKind.AND_SPLIT)
_JOINS = (NodeKind.XOR_JOIN, NodeKind.AND_JOIN)
_MATCHING_JOIN = {NodeKind.XOR_SPLIT: NodeKind.XOR_JOIN, NodeKind.AND_SPLIT: NodeKind.AND_JOIN}


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: NodeKind
    task_id: int | None = None


@dataclass(frozen=True)
class Gateway:
    """One split/join block: ``kind`` is the split's kind, and each branch
    is the step sequence between split and join, in edge-declaration order."""

    kind: NodeKind
    branches: tuple[tuple["Step", ...], ...]


Step = int | Gateway  # a task id, or a block


@dataclass(frozen=True)
class ProcessModel:
    model_id: int
    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    body: tuple[Step, ...] = field(init=False, repr=False, compare=False)
    # check_conformance's memo: marking set -> its silent closure and moves
    _replay: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", _validate(self))

    def successors(self, node_id: str) -> list[str]:
        return [b for a, b in self.edges if a == node_id]

    def predecessors(self, node_id: str) -> list[str]:
        return [a for a, b in self.edges if b == node_id]

    @property
    def start(self) -> Node:
        return next(n for n in self.nodes if n.kind == NodeKind.START)

    @property
    def end(self) -> Node:
        return next(n for n in self.nodes if n.kind == NodeKind.END)

    @property
    def task_ids(self) -> frozenset[int]:
        return frozenset(n.task_id for n in self.nodes if n.kind == NodeKind.TASK)


class EventKind(str, Enum):
    START = "start"
    HANDOVER = "handover"
    SPLIT = "split"
    JOIN = "join"
    END = "end"


@dataclass(frozen=True)
class TraceEvent:
    kind: EventKind
    timestamp: int
    task_id: int | None = None
    lineage: tuple[int, ...] = ()
    filler: bool = False
    extraordinary: bool = False


@dataclass(frozen=True)
class ExecutionTrace:
    events: tuple[TraceEvent, ...]

    def task_sequence(self) -> tuple[int, ...]:
        """Task ids of real handovers; filler handovers move custody only."""
        return tuple(
            e.task_id
            for e in self.events
            if e.kind == EventKind.HANDOVER and not e.filler and e.task_id is not None
        )

    @property
    def end_event(self) -> TraceEvent | None:
        return next((e for e in self.events if e.kind == EventKind.END), None)

    @property
    def ended_normally(self) -> bool:
        end = self.end_event
        return end is not None and not end.extraordinary


@dataclass(frozen=True)
class Conformant:
    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Deviation:
    position: int  # 1-based index into the task sequence
    expected: frozenset[int]
    actual: int | None

    @property
    def ok(self) -> bool:
        return False


Verdict = Conformant | Deviation


# --- loading and validation ---------------------------------------------------


def load_model(document: str) -> ProcessModel:
    """Parse and validate a model file (JSON: model_id, nodes, edges)."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from None
    try:
        nodes = tuple(
            Node(str(n["id"]), NodeKind(n["kind"]), n.get("task_id")) for n in raw["nodes"]
        )
        edges = tuple((str(e["from"]), str(e["to"])) for e in raw["edges"])
        model_id = int(raw["model_id"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"model document malformed: {exc}") from None
    return ProcessModel(model_id, nodes, edges)


def _validate(model: ProcessModel) -> tuple[Step, ...]:
    """Check the graph and return its parsed block tree."""
    ids = [n.node_id for n in model.nodes]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise ModelError("duplicate node id", dup)
    by_id = {n.node_id: n for n in model.nodes}
    for a, b in model.edges:
        for ref in (a, b):
            if ref not in by_id:
                raise ModelError("edge references unknown node", ref)
    if len(set(model.edges)) != len(model.edges):
        raise ModelError("duplicate edge")

    starts = [n for n in model.nodes if n.kind == NodeKind.START]
    ends = [n for n in model.nodes if n.kind == NodeKind.END]
    if len(starts) != 1:
        raise ModelError(f"expected exactly one start node, found {len(starts)}")
    if len(ends) != 1:
        raise ModelError(f"expected exactly one end node, found {len(ends)}")

    seen_tasks: set[int] = set()
    for n in model.nodes:
        if n.kind == NodeKind.TASK:
            if n.task_id is None or not MIN_TASK_ID <= n.task_id <= MAX_TASK_ID:
                raise ModelError(f"task id must be {MIN_TASK_ID}..{MAX_TASK_ID}", n.node_id)
            if n.task_id in seen_tasks:
                raise ModelError(f"task id {n.task_id} not unique", n.node_id)
            seen_tasks.add(n.task_id)
        elif n.task_id is not None:
            raise ModelError("only task nodes carry a task id", n.node_id)

    degree_rules = {
        NodeKind.START: (0, 0, 1, 1),
        NodeKind.END: (1, 1, 0, 0),
        NodeKind.TASK: (1, 1, 1, 1),
        NodeKind.XOR_SPLIT: (1, 1, 2, None),
        NodeKind.AND_SPLIT: (1, 1, 2, None),
        NodeKind.XOR_JOIN: (2, None, 1, 1),
        NodeKind.AND_JOIN: (2, None, 1, 1),
    }
    for n in model.nodes:
        ins = len(model.predecessors(n.node_id))
        outs = len(model.successors(n.node_id))
        lo_i, hi_i, lo_o, hi_o = degree_rules[n.kind]
        if ins < lo_i or (hi_i is not None and ins > hi_i):
            raise ModelError(f"{n.kind.value} has {ins} incoming edges", n.node_id)
        if outs < lo_o or (hi_o is not None and outs > hi_o):
            raise ModelError(f"{n.kind.value} has {outs} outgoing edges", n.node_id)

    # reachability / acyclicity
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(node_id: str) -> None:
        if state.get(node_id) == 1:
            raise ModelError("cycle detected", node_id)
        if state.get(node_id) == 2:
            return
        state[node_id] = 1
        for succ in model.successors(node_id):
            visit(succ)
        state[node_id] = 2
        order.append(node_id)

    visit(starts[0].node_id)
    if set(state) != set(ids):
        missing = sorted(set(ids) - set(state))[0]
        raise ModelError("node unreachable from start", missing)
    reaches_end = {ends[0].node_id}
    for node_id in order:
        if any(s in reaches_end for s in model.successors(node_id)):
            reaches_end.add(node_id)
    stranded = sorted(set(ids) - reaches_end)
    if stranded:
        raise ModelError("node cannot reach end", stranded[0])

    # split/join block structure
    pairs: dict[str, str] = {}
    body, terminal = _parse(model, by_id, model.successors(starts[0].node_id)[0], pairs)
    if by_id[terminal].kind != NodeKind.END:
        raise ModelError("dangling join outside any block", terminal)
    unmatched = [n.node_id for n in model.nodes if n.kind in _JOINS and n.node_id not in pairs.values()]
    if unmatched:
        raise ModelError("join without matching split", unmatched[0])
    for split_id, join_id in pairs.items():
        if len(model.predecessors(join_id)) != len(model.successors(split_id)):
            raise ModelError("join arity differs from its split", join_id)
    return body


def _parse(
    model: ProcessModel, by_id: dict[str, Node], node_id: str, pairs: dict[str, str]
) -> tuple[tuple[Step, ...], str]:
    """Parse a linear segment into steps, pairing each split with its join
    in ``pairs``; returns the steps and the join or end node that terminates
    the segment."""
    steps: list[Step] = []
    while True:
        node = by_id[node_id]
        if node.kind in _JOINS or node.kind == NodeKind.END:
            return tuple(steps), node_id
        if node.kind in _SPLITS:
            branches, exits = zip(
                *(_parse(model, by_id, succ, pairs) for succ in model.successors(node_id))
            )
            if len(set(exits)) != 1:
                raise ModelError("split branches converge on different joins", node_id)
            join_id = exits[0]
            join = by_id[join_id]
            if join.kind != _MATCHING_JOIN[node.kind]:
                raise ModelError(
                    f"{node.kind.value} closed by {join.kind.value}", node_id
                )
            if join_id in pairs.values():
                raise ModelError("join matched by two splits", join_id)
            pairs[node_id] = join_id
            steps.append(Gateway(node.kind, branches))
            node_id = model.successors(join_id)[0]
            continue
        steps.append(node.task_id)
        node_id = model.successors(node_id)[0]


# --- trace language -------------------------------------------------------------


def _interleave(parts: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    live = [p for p in parts if p]
    if not live:
        yield ()
        return
    for i, p in enumerate(live):
        rest = live[:i] + [p[1:]] + live[i + 1 :]
        for tail in _interleave(rest):
            yield (p[0],) + tail


def _language(steps: tuple[Step, ...]) -> Iterator[tuple[int, ...]]:
    if not steps:
        yield ()
        return
    head, rest = steps[0], steps[1:]
    if isinstance(head, int):
        for tail in _language(rest):
            yield (head,) + tail
        return
    if head.kind == NodeKind.XOR_SPLIT:
        for branch in head.branches:
            for chosen in _language(branch):
                for tail in _language(rest):
                    yield chosen + tail
        return
    branch_langs = [list(_language(b)) for b in head.branches]
    combos: list[list[tuple[int, ...]]] = [[]]
    for lang in branch_langs:
        combos = [c + [seq] for c in combos for seq in lang]
    for combo in combos:
        for merged in _interleave(combo):
            for tail in _language(rest):
                yield merged + tail


def enumerate_valid_traces(model: ProcessModel, max_interleavings: int) -> set[tuple[int, ...]]:
    """Every legal complete task sequence, capped at ``max_interleavings``.

    XOR blocks contribute one sequence per branch; AND blocks contribute all
    interleavings of their branches. Generation order is deterministic
    (depth-first in edge-declaration order), so truncation is reproducible.
    """
    return set(islice(_language(model.body), max_interleavings))


# --- conformance ------------------------------------------------------------------

Marking = frozenset[str]  # edges currently holding a token, keyed "from>to"


def _edge_key(a: str, b: str) -> str:
    return f"{a}>{b}"


def _silent_closure(model: ProcessModel, states: set[Marking]) -> set[Marking]:
    """All markings reachable by firing split/join nodes only."""
    seen = set(states)
    frontier = list(states)
    while frontier:
        marking = frontier.pop()
        for node in model.nodes:
            if node.kind not in (*_SPLITS, *_JOINS):
                continue
            in_edges = [_edge_key(p, node.node_id) for p in model.predecessors(node.node_id)]
            out_edges = [_edge_key(node.node_id, s) for s in model.successors(node.node_id)]
            if node.kind == NodeKind.XOR_JOIN:
                for ie in in_edges:
                    if ie in marking:
                        nxt = frozenset(marking - {ie} | set(out_edges))
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
            elif node.kind == NodeKind.AND_JOIN:
                if all(ie in marking for ie in in_edges):
                    nxt = frozenset(marking - set(in_edges) | set(out_edges))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            elif node.kind == NodeKind.AND_SPLIT:
                if in_edges[0] in marking:
                    nxt = frozenset(marking - {in_edges[0]} | set(out_edges))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            else:  # XOR split: one token to exactly one branch
                if in_edges[0] in marking:
                    for oe in out_edges:
                        nxt = frozenset(marking - {in_edges[0]} | {oe})
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
    return seen


def _enabled_tasks(model: ProcessModel, states: set[Marking]) -> dict[int, list[tuple[Marking, Node]]]:
    enabled: dict[int, list[tuple[Marking, Node]]] = {}
    for marking in states:
        for node in model.nodes:
            if node.kind != NodeKind.TASK:
                continue
            ie = _edge_key(model.predecessors(node.node_id)[0], node.node_id)
            if ie in marking:
                enabled.setdefault(node.task_id, []).append((marking, node))
    return enabled


def _replay_step(
    model: ProcessModel, states: frozenset[Marking]
) -> tuple[frozenset[Marking], dict[int, frozenset[Marking]]]:
    """The silent closure of a marking set, and for each task it enables the
    marking set that firing the task leads to. The model is frozen, so both
    are computed once per marking set and kept on the model."""
    hit = model._replay.get(states)
    if hit is None:
        closure = _silent_closure(model, set(states))
        moves: dict[int, set[Marking]] = {}
        for task_id, enabled in _enabled_tasks(model, closure).items():
            for marking, node in enabled:
                ie = _edge_key(model.predecessors(node.node_id)[0], node.node_id)
                oe = _edge_key(node.node_id, model.successors(node.node_id)[0])
                moves.setdefault(task_id, set()).add(frozenset(marking - {ie} | {oe}))
        hit = frozenset(closure), {t: frozenset(m) for t, m in moves.items()}
        model._replay[states] = hit
    return hit


def check_conformance(model: ProcessModel, trace: ExecutionTrace) -> Verdict:
    """Replay the trace's task sequence against the model's token semantics.

    A trace without a normal end event is accepted as long as it is a prefix
    of some legal execution (the instance may still be in flight); once a
    normal end is present the sequence must be complete. Filler handovers
    transfer custody without executing a model task and are skipped.

    Each step of the replay comes from :func:`_replay_step`, so a model
    replays a prefix it has seen before by dictionary lookups alone.
    """
    states: frozenset[Marking] = frozenset(
        {frozenset({_edge_key(model.start.node_id, model.successors(model.start.node_id)[0])})}
    )
    sequence = trace.task_sequence()
    for position, task_id in enumerate(sequence, start=1):
        _, moves = _replay_step(model, states)
        if task_id not in moves:
            return Deviation(position, frozenset(moves), task_id)
        states = moves[task_id]
    if trace.ended_normally:
        closure, moves = _replay_step(model, states)
        final = frozenset({_edge_key(model.predecessors(model.end.node_id)[0], model.end.node_id)})
        if final not in closure:
            return Deviation(len(sequence) + 1, frozenset(moves), None)
    return Conformant()
