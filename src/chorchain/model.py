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

Both views of the language here walk that tree:

* :func:`enumerate_valid_traces` materializes it by recursive descent (used
  as the oracle in tests), and
* :func:`check_conformance` replays one trace without enumerating: each
  task moves what is left of the tree one step forward.

The tests keep a third, independent view: a token-marking replay of the
edge list, against which the tree replay is checked on random models.
A parsed model holds no mutable state, so it can be shared freely.
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", _validate(self))

    def successors(self, node_id: str) -> list[str]:
        return [b for a, b in self.edges if a == node_id]

    def predecessors(self, node_id: str) -> list[str]:
        return [a for a, b in self.edges if b == node_id]

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
            # bool is an int subclass; JSON true must not pass as task 1
            if type(n.task_id) is not int or not MIN_TASK_ID <= n.task_id <= MAX_TASK_ID:
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
#
# The replay moves through the block tree by derivatives: what is left of the
# model after each task is again a step sequence, where an AND block already
# entered is a Gateway holding the rest of each branch. Task ids are unique, so
# at most one branch can take a given task and the rest is a single sequence.


def _nullable(steps: tuple[Step, ...]) -> bool:
    """Whether the steps can finish without another task."""
    return all(
        not isinstance(s, int)
        and (any if s.kind == NodeKind.XOR_SPLIT else all)(map(_nullable, s.branches))
        for s in steps
    )


def _firsts(steps: tuple[Step, ...]) -> frozenset[int]:
    """The task ids that can run next."""
    found: set[int] = set()
    for s in steps:
        if isinstance(s, int):
            found.add(s)
            break
        for branch in s.branches:
            found |= _firsts(branch)
        if not _nullable((s,)):
            break
    return frozenset(found)


def _after(steps: tuple[Step, ...], task_id: int) -> tuple[Step, ...] | None:
    """What is left of the steps once ``task_id`` runs next, or None if it
    cannot."""
    for i, s in enumerate(steps):
        rest = steps[i + 1 :]
        if isinstance(s, int):
            return rest if s == task_id else None
        for j, branch in enumerate(s.branches):
            left = _after(branch, task_id)
            if left is not None:
                if s.kind == NodeKind.XOR_SPLIT:
                    return left + rest
                return (Gateway(s.kind, s.branches[:j] + (left,) + s.branches[j + 1 :]),) + rest
        if not _nullable((s,)):
            return None
    return None


def check_conformance(model: ProcessModel, trace: ExecutionTrace) -> Verdict:
    """Replay the trace's task sequence against the model's block tree.

    A trace without a normal end event is accepted as long as it is a prefix
    of some legal execution (the instance may still be in flight); once a
    normal end is present the sequence must be complete. Filler handovers
    transfer custody without executing a model task and are skipped.
    """
    left = model.body
    sequence = trace.task_sequence()
    for position, task_id in enumerate(sequence, start=1):
        after = _after(left, task_id)
        if after is None:
            return Deviation(position, _firsts(left), task_id)
        left = after
    if trace.ended_normally and not _nullable(left):
        return Deviation(len(sequence) + 1, _firsts(left), None)
    return Conformant()
