"""Scenario runner reproducing the evaluation design at desk scale.

A scenario executes one process model as a multi-participant choreography
against the simulated chain: the owner starts the instance, every task is
carried out by a distinct participant, parallel blocks split and join the
token, a filler handover returns it to the owner, and the owner ends the
instance. Fault injection corrupts the task id of a chosen handover
template, which the receiver must catch (check 3) and the sender must
answer with an extraordinary end transaction.

Time is fully simulated and every advance is tagged with a phase (task,
logic, provider, broadcast, confirm, idle), so runs report exactly where
their duration went. Block intervals default to 6 simulated seconds - the
live network's ten minutes compressed a hundredfold - and all comparisons
against the published numbers are made on ratios and fractions, never on
absolute seconds.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import engine as eng
from . import model as model_mod
from . import protocol as proto
from .chain import ChainSim, SimConfig, StaticChainView, load_dump
from .crypto import Keypair, recovered_keys, sha256
from .encoding import OutputKind, TxKind
from .model import ProcessModel
from .provider import ProviderChainView, SimProvider

DEFAULT_BLOCK_MEAN = 6.0
DEFAULT_SAFETY = Fraction(3, 2)
TASK_MS_FLOOR = 50
TASK_MS_SPAN = 131  # per-task sleeps land in 50..180 ms


class ScenarioError(ValueError):
    pass


def builtin_model(model_id: int) -> ProcessModel:
    from importlib.resources import files

    doc = files("chorchain.models").joinpath(f"model{model_id}.json").read_text()
    return model_mod.load_model(doc)


def task_duration(task_id: int) -> float:
    """Deterministic per-task sleep in seconds (stable across seeds)."""
    return (TASK_MS_FLOOR + (task_id * 37) % TASK_MS_SPAN) / 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    model_id: int
    variant: str = "0"
    verify: bool = True
    greedy: bool = False
    fault_step: int | None = None
    seed: int = 0
    block_interval_mean: float = DEFAULT_BLOCK_MEAN
    fee_per_tx: int = eng.DEFAULT_FEE
    safety_factor: Fraction = DEFAULT_SAFETY
    repetitions: int = 1
    confirmation_depth: int = 1
    task_jitter: float = 0.005
    tx_estimate_override: int | None = None  # start budgeting, if not plan-derived

    def fee_policy(self) -> eng.FeePolicy:
        return eng.FeePolicy(self.fee_per_tx, Fraction(self.safety_factor))

    def xor_choices(self) -> list[int]:
        text = self.variant.strip()
        if not text:
            return [0]
        try:
            return [int(part) for part in text.split(",")]
        except ValueError:
            raise ScenarioError(f"variant {self.variant!r} is not a comma list of branch indices")


# --- execution plan -----------------------------------------------------------------


@dataclass(frozen=True)
class PlanStart:
    pass


@dataclass(frozen=True)
class PlanHandover:
    sender: str
    receiver: str
    task_id: int
    filler: bool = False


@dataclass(frozen=True)
class PlanTask:
    actor: str
    task_id: int


@dataclass(frozen=True)
class PlanSplit:
    actor: str
    branches: int


@dataclass(frozen=True)
class PlanJoin:
    actor: str
    inputs: int


@dataclass(frozen=True)
class PlanEnd:
    actor: str


PlanStep = PlanStart | PlanHandover | PlanTask | PlanSplit | PlanJoin | PlanEnd

OWNER = "owner"


def participant_for(task_id: int) -> str:
    return f"p{task_id}"


def build_plan(model: ProcessModel, choices: list[int]) -> list[PlanStep]:
    """Compile the model plus XOR picks into the linear step list the
    harness executes (sequential actor turns; AND branches run in branch
    order, which is one legal interleaving)."""
    by_id = model.node_by_id
    pairs = model.split_joins
    xor_splits = [n.node_id for n in model.nodes if n.kind == model_mod.NodeKind.XOR_SPLIT]
    if len(choices) == 1 and len(xor_splits) > 1:
        choices = choices * len(xor_splits)
    if len(choices) < len(xor_splits):
        raise ScenarioError(f"model has {len(xor_splits)} XOR splits, variant picks {len(choices)}")
    cursor = 0

    def take_choice() -> int:
        nonlocal cursor
        cursor += 1
        return choices[cursor - 1]

    plan: list[PlanStep] = [PlanStart()]

    def first_task_of(node_id: str, stop: str | None) -> int | None:
        """Task that will proceed execution from this point, if any. XOR
        picks are peeked, not consumed; the main walk takes them later."""
        node = by_id[node_id]
        peek = cursor
        while True:
            if node_id == stop or node.kind == model_mod.NodeKind.END:
                return None
            if node.kind == model_mod.NodeKind.TASK:
                return node.task_id
            if node.kind == model_mod.NodeKind.XOR_SPLIT:
                branches = model.successors(node_id)
                node_id = branches[choices[peek]]
                peek += 1
                node = by_id[node_id]
                continue
            if node.kind == model_mod.NodeKind.AND_SPLIT:
                raise ScenarioError("parallel block directly after a join is unsupported")
            node_id = model.successors(node_id)[0]
            node = by_id[node_id]

    def walk(node_id: str, holder: str, stop: str | None, skip_task: int | None) -> str:
        """Emit steps from node_id until `stop`; returns the final holder."""
        while True:
            node = by_id[node_id]
            if node_id == stop or node.kind == model_mod.NodeKind.END:
                return holder
            if node.kind == model_mod.NodeKind.TASK:
                actor = participant_for(node.task_id)
                if node.task_id == skip_task:
                    skip_task = None  # handover already documented before the join
                else:
                    plan.append(PlanHandover(holder, actor, node.task_id))
                plan.append(PlanTask(actor, node.task_id))
                holder = actor
                node_id = model.successors(node_id)[0]
                continue
            if node.kind == model_mod.NodeKind.XOR_SPLIT:
                join = pairs[node_id]
                branches = model.successors(node_id)
                pick = take_choice()
                if not 0 <= pick < len(branches):
                    raise ScenarioError(f"variant picks branch {pick} of {len(branches)}")
                holder = walk(branches[pick], holder, join, skip_task)
                skip_task = None
                node_id = model.successors(join)[0]
                continue
            if node.kind == model_mod.NodeKind.AND_SPLIT:
                join = pairs[node_id]
                branches = model.successors(node_id)
                plan.append(PlanSplit(holder, len(branches)))
                finals = [walk(branch, holder, join, None) for branch in branches]
                after_join = model.successors(join)[0]
                proceed_task = first_task_of(after_join, stop)
                if proceed_task is None:
                    proceed = OWNER
                else:
                    proceed = participant_for(proceed_task)
                # first finished branch hands over for the next task, the
                # others return custody only
                first, *rest = finals
                if proceed_task is None:
                    plan.append(PlanHandover(first, proceed, eng.FILLER_TASK_ID, filler=True))
                else:
                    plan.append(PlanHandover(first, proceed, proceed_task))
                for other in rest:
                    plan.append(PlanHandover(other, proceed, eng.FILLER_TASK_ID, filler=True))
                plan.append(PlanJoin(proceed, len(branches)))
                holder = proceed
                skip_task = proceed_task
                node_id = after_join
                continue
            node_id = model.successors(node_id)[0]  # joins already consumed

    final_holder = walk(model.successors(model.start.node_id)[0], OWNER, None, None)
    if final_holder != OWNER:
        plan.append(PlanHandover(final_holder, OWNER, eng.FILLER_TASK_ID, filler=True))
    plan.append(PlanEnd(OWNER))
    return plan


def planned_handovers(plan: list[PlanStep]) -> list[PlanHandover]:
    return [s for s in plan if isinstance(s, PlanHandover)]


def planned_tx_count(plan: list[PlanStep]) -> int:
    """Every transaction after the start: handovers, splits, joins, end."""
    return sum(isinstance(s, (PlanHandover, PlanSplit, PlanJoin, PlanEnd)) for s in plan)


def planned_task_sequence(plan: list[PlanStep]) -> tuple[int, ...]:
    return tuple(s.task_id for s in plan if isinstance(s, PlanTask))


# --- metrics --------------------------------------------------------------------------

PHASES = ("task", "logic", "provider", "broadcast", "confirm", "idle")


class PhasedClock:
    """Adapter giving protocol code a charge() view of simulator time."""

    def __init__(self, sim: ChainSim):
        self.sim = sim

    def charge(self, dt: float, phase: str) -> None:
        self.sim.advance_time(dt, phase)

    @property
    def now(self) -> float:
        return self.sim.now


class ChargingChainView:
    """Chain view that bills each query as provider time."""

    def __init__(self, inner, clock: PhasedClock, cost: float = 0.01):
        self.inner = inner
        self.clock = clock
        self.cost = cost

    def get_transaction(self, tx_id):
        self.clock.charge(self.cost, "provider")
        return self.inner.get_transaction(tx_id)

    def get_spender(self, outpoint):
        self.clock.charge(self.cost, "provider")
        return self.inner.get_spender(outpoint)


@dataclass
class RunMetrics:
    model_id: int
    variant: str
    seed: int
    rep: int
    verify: bool
    greedy: bool
    fault_step: int | None
    duration: float
    phase_seconds: dict[str, float]
    tx_count: int
    total_fees: int
    start_budget: int
    end_residual: int
    confirmation_waits: tuple[float, ...]
    detection: str  # "" | "detected" | "missed"
    aborted: bool

    @property
    def phase_fractions(self) -> dict[str, float]:
        if self.duration <= 0:
            return {p: 0.0 for p in PHASES}
        return {p: self.phase_seconds.get(p, 0.0) / self.duration for p in PHASES}

    @property
    def verification_overhead(self) -> float:
        return self.duration - self.phase_seconds.get("task", 0.0) - self.phase_seconds.get(
            "idle", 0.0
        )

    @property
    def confirm_share_of_overhead(self) -> float:
        overhead = self.verification_overhead
        if overhead <= 0:
            return 0.0
        return self.phase_seconds.get("confirm", 0.0) / overhead

    def to_row(self) -> dict:
        row = {
            "model_id": self.model_id,
            "variant": self.variant,
            "seed": self.seed,
            "rep": self.rep,
            "verify": int(self.verify),
            "greedy": int(self.greedy),
            "fault_step": "" if self.fault_step is None else self.fault_step,
            "duration": f"{self.duration:.6f}",
            "tx_count": self.tx_count,
            "total_fees": self.total_fees,
            "start_budget": self.start_budget,
            "end_residual": self.end_residual,
            "median_confirmation_wait": (
                f"{statistics.median(self.confirmation_waits):.6f}"
                if self.confirmation_waits
                else ""
            ),
            "detection": self.detection,
            "aborted": int(self.aborted),
        }
        for phase in PHASES:
            row[f"{phase}_seconds"] = f"{self.phase_seconds.get(phase, 0.0):.6f}"
        return row


CSV_FIELDS = list(
    RunMetrics(
        model_id=0, variant="", seed=0, rep=0, verify=True, greedy=False, fault_step=None,
        duration=0.0, phase_seconds={}, tx_count=0, total_fees=0, start_budget=0,
        end_residual=0, confirmation_waits=(), detection="", aborted=False,
    ).to_row()
)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    runs: list[RunMetrics]
    dumps: list[str]
    trace_reports: list[dict]


# --- identities (long-lived, shared across runs) -------------------------------------------

_TRUST_ROOT: proto.TrustRoot | None = None
_IDENTITIES: dict[str, proto.Identity] = {}


def shared_trust_root() -> proto.TrustRoot:
    global _TRUST_ROOT
    if _TRUST_ROOT is None:
        _TRUST_ROOT = proto.TrustRoot(now=0)
    return _TRUST_ROOT


def shared_identity(name: str) -> proto.Identity:
    if name not in _IDENTITIES:
        _IDENTITIES[name] = shared_trust_root().issue(name, now=0, lifetime=2**33)
    return _IDENTITIES[name]


# --- the runner -------------------------------------------------------------------------


class _Run:
    def __init__(self, config: ScenarioConfig, rep: int, model: ProcessModel, plan: list[PlanStep]):
        self.config = config
        self.rep = rep
        self.model = model
        self.plan = plan
        self.rng = random.Random(f"chorchain:{config.seed}:{rep}")
        sim_seed = int.from_bytes(sha256(f"sim:{config.seed}:{rep}".encode())[:8], "big")
        self.sim = ChainSim(
            SimConfig(seed=sim_seed, block_interval_mean=config.block_interval_mean)
        )
        self.clock = PhasedClock(self.sim)
        self.phase_seconds: dict[str, float] = {p: 0.0 for p in PHASES}
        self.sim.phase_recorder = self._record
        self.fee_policy = config.fee_policy()
        self.instance_txs: list[bytes] = []
        self.detection = ""
        self.aborted = False
        self.start_budget = 0
        self.process_id = 1 + (config.seed % 60000)
        self._t0 = self.sim.now

    def _record(self, dt: float, phase: str) -> None:
        bucket = phase if phase in self.phase_seconds else "idle"
        self.phase_seconds[bucket] += dt

    def _sleep_task(self, task_id: int) -> None:
        jitter = 1.0 + self.rng.uniform(-self.config.task_jitter, self.config.task_jitter)
        self.clock.charge(task_duration(task_id) * jitter, "task")

    def run(self) -> tuple[RunMetrics, str, dict]:
        if self.config.verify:
            self._run_verified()
        else:
            for step in self.plan:
                if isinstance(step, PlanTask):
                    self._sleep_task(step.task_id)
        # every advance is phase-tagged, so the recorded seconds are the
        # run's duration exactly (no float drift against the clock delta)
        duration = sum(self.phase_seconds.values())
        if not abs(duration - (self.sim.now - self._t0)) < 1e-3:
            raise ScenarioError(
                f"phase-tagged seconds {duration} disagree with the clock's "
                f"{self.sim.now - self._t0}"
            )
        return self._collect(duration)

    def _participants(self, transport: proto.InProcTransport, view) -> dict[str, proto.Participant]:
        names = [OWNER] + sorted(
            {participant_for(n.task_id) for n in self.model.nodes if n.kind == model_mod.NodeKind.TASK},
            key=lambda s: int(s[1:]),
        )
        root = shared_trust_root()
        out = {}
        for name in names:
            out[name] = proto.Participant(
                shared_identity(name),
                root,
                transport,
                self.sim,
                view,
                self.clock,
                self.fee_policy,
                self.model,
                self.rng,
            )
        return out

    def _await(self, tx_id: bytes) -> None:
        self.sim.await_confirmation(tx_id, self.config.confirmation_depth)

    def _broadcast_plain(self, tx) -> None:
        self.clock.charge(proto.LOGIC_COST, "broadcast")
        result = self.sim.broadcast(tx)
        if not result.accepted:
            raise ScenarioError(f"broadcast rejected: {result.reason}")
        self.instance_txs.append(tx.tx_id)
        if not self.config.greedy:
            self._await(tx.tx_id)

    def _run_verified(self) -> None:
        config = self.config
        transport = proto.InProcTransport()
        view = ChargingChainView(ProviderChainView(SimProvider(self.sim)), self.clock)
        participants = self._participants(transport, view)
        owner = participants[OWNER]
        owner_key = Keypair.generate(self.rng)

        estimate = config.tx_estimate_override or planned_tx_count(self.plan)
        budget = self.fee_policy.budget(estimate)
        funds = self.sim.grant(owner_key, [budget + self.fee_policy.per_tx_fee + 50_000])

        handover_no = 0
        data: dict[str, bytes] = {OWNER: f"process-{self.process_id}-initial".encode()}
        start_tx = None

        for step in self.plan:
            if isinstance(step, PlanStart):
                self.clock.charge(proto.LOGIC_COST, "logic")
                start_tx, token = eng.build_start(
                    funds,
                    self.process_id,
                    int(self.sim.now),
                    self.fee_policy,
                    estimate,
                    owner_key,
                    self.rng,
                )
                owner.holdings.append(token)
                self.start_budget = token.value
                self._broadcast_plain(start_tx)
            elif isinstance(step, PlanHandover):
                handover_no += 1
                sender = participants[step.sender]
                receiver = participants[step.receiver]
                terms = proto.NegotiatedTerms(
                    self.process_id, step.task_id, int(self.sim.now)
                )
                session = sender.open_session(step.receiver, terms)
                if not (
                    sender.negotiate(session)
                    and sender.transfer_data(session, data.get(step.sender, b""))
                    and sender.exchange_addresses(session)
                ):
                    raise ScenarioError(f"handover setup failed: {session.abort_reason}")
                if config.fault_step == handover_no:
                    session.fault_task_id = 1 + (step.task_id % 250)
                outcome = sender.run_sender(session)
                if outcome.published:
                    self.instance_txs.append(outcome.tx_id)
                    if not config.greedy:
                        self._await(outcome.tx_id)
                    rsession = receiver.sessions[(self.process_id, step.sender)]
                    receiver.confirm_receipt(rsession)
                    data[step.receiver] = data.get(step.sender, b"")
                else:
                    self.aborted = True
                    self.detection = (
                        "detected" if outcome.check == 3 and outcome.abort_tx_id else "missed"
                    )
                    if outcome.abort_tx_id:
                        self.instance_txs.append(outcome.abort_tx_id)
                        if not config.greedy:
                            self._await(outcome.abort_tx_id)
                    break
            elif isinstance(step, PlanTask):
                self._sleep_task(step.task_id)
                actor = participants[step.actor]
                data[step.actor] = f"process-{self.process_id}-after-{step.task_id}".encode()
                actor.process_data[self.process_id] = data[step.actor]
            elif isinstance(step, PlanSplit):
                actor = participants[step.actor]
                token = actor.token_for(self.process_id)
                self.clock.charge(proto.LOGIC_COST, "logic")
                tx, tokens = eng.build_split(
                    token, step.branches, int(self.sim.now), self.fee_policy, self.rng
                )
                actor.holdings.remove(token)
                actor.holdings.extend(tokens)
                self._broadcast_plain(tx)
            elif isinstance(step, PlanJoin):
                actor = participants[step.actor]
                tokens = actor.take_tokens(self.process_id)
                if len(tokens) < step.inputs:
                    raise ScenarioError("join reached without all branch tokens")
                self.clock.charge(proto.LOGIC_COST, "logic")
                tx, token = eng.build_join(
                    tokens, int(self.sim.now), self.fee_policy, self.rng
                )
                actor.holdings.append(token)
                self._broadcast_plain(tx)
            elif isinstance(step, PlanEnd):
                actor = participants[step.actor]
                token = actor.token_for(self.process_id)
                self.clock.charge(proto.LOGIC_COST, "logic")
                tx = eng.build_end(
                    token, token.holder_key, int(self.sim.now), self.fee_policy
                )
                actor.holdings.remove(token)
                self._broadcast_plain(tx)

        if config.greedy:
            for tx_id in self.instance_txs:
                self._await(tx_id)
        self._start_tx_id = start_tx.tx_id if start_tx is not None else None

    def _collect(self, duration: float) -> tuple[RunMetrics, str, dict]:
        waits = []
        total_fees = 0
        end_residual = 0
        for tx_id in self.instance_txs:
            wait = self.sim.confirmation_wait(tx_id)
            if wait is not None:
                waits.append(wait)
            tx = self.sim.get_transaction(tx_id)
            if tx is None:
                continue
            fee = tx.fee()
            if fee and tx_id != self.instance_txs[0]:
                total_fees += fee
            if tx.kind == TxKind.END:
                end_residual += sum(
                    o.value for o in tx.outputs if o.kind == OutputKind.KEY_HASH
                )
            # tokens stranded by an abort stay unspent on chain and remain
            # part of the instance's recoverable residual
            for idx, out in tx.token_outputs:
                if self.sim.get_spender((tx_id, idx)) is None:
                    end_residual += out.value
        metrics = RunMetrics(
            model_id=self.config.model_id,
            variant=self.config.variant,
            seed=self.config.seed,
            rep=self.rep,
            verify=self.config.verify,
            greedy=self.config.greedy,
            fault_step=self.config.fault_step,
            duration=duration,
            phase_seconds=dict(self.phase_seconds),
            tx_count=len(self.instance_txs),
            total_fees=total_fees,
            start_budget=self.start_budget,
            end_residual=end_residual,
            confirmation_waits=tuple(waits),
            detection=self.detection,
            aborted=self.aborted,
        )
        dump = self.sim.dump() if self.config.verify else ""
        trace_report = self._trace_report()
        return metrics, dump, trace_report

    def _trace_report(self) -> dict:
        if not self.config.verify or getattr(self, "_start_tx_id", None) is None:
            return {"process_id": self.process_id, "events": [], "verdict": "not-verified"}
        trace = eng.reconstruct_trace(self.sim, self._start_tx_id)
        verdict = model_mod.check_conformance(self.model, trace)
        return {
            "process_id": self.process_id,
            "start_tx": self._start_tx_id.hex(),
            "events": [
                {
                    "kind": e.kind.value,
                    "task_id": e.task_id,
                    "timestamp": e.timestamp,
                    "lineage": list(e.lineage),
                    "filler": e.filler,
                    "extraordinary": e.extraordinary,
                }
                for e in trace.events
            ],
            "verdict": "conformant" if verdict.ok else f"deviation: {verdict}",
            "detection": self.detection,
        }


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    model = builtin_model(config.model_id)
    plan = build_plan(model, config.xor_choices())
    handovers = planned_handovers(plan)
    if config.fault_step is not None and not 1 <= config.fault_step <= len(handovers):
        raise ScenarioError(
            f"fault step {config.fault_step} outside 1..{len(handovers)} handovers"
        )
    runs, dumps, reports = [], [], []
    for rep in range(config.repetitions):
        run = _Run(config, rep, model, plan)
        metrics, dump, report = run.run()
        runs.append(metrics)
        dumps.append(dump)
        reports.append(report)
    return ScenarioResult(config, runs, dumps, reports)


# --- summaries ---------------------------------------------------------------------------


def write_metrics_csv(runs: list[RunMetrics], fp) -> None:
    writer = csv.DictWriter(fp, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for run in runs:
        writer.writerow(run.to_row())


def read_metrics_csv(fp) -> list[dict]:
    return list(csv.DictReader(fp))


def summarize(rows: list[dict]) -> dict:
    """Aggregate per (model, variant, verify, greedy, fault) group: mean and
    standard deviation of duration, median confirmation wait, fee totals."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (
            int(row["model_id"]),
            row["variant"],
            int(row["verify"]),
            int(row["greedy"]),
            row["fault_step"],
        )
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=str):
        model_id, variant, verify, greedy, fault = key
        rows_g = groups[key]
        durations = [float(r["duration"]) for r in rows_g]
        medians = [
            float(r["median_confirmation_wait"])
            for r in rows_g
            if r["median_confirmation_wait"]
        ]
        out.append(
            {
                "model_id": model_id,
                "variant": variant,
                "verify": bool(verify),
                "greedy": bool(greedy),
                "fault_step": fault or None,
                "runs": len(rows_g),
                "mean_duration": statistics.fmean(durations),
                "std_duration": statistics.pstdev(durations) if len(durations) > 1 else 0.0,
                "median_confirmation_wait": statistics.median(medians) if medians else None,
                "total_fees": sum(int(r["total_fees"]) for r in rows_g),
                "detections": sum(r["detection"] == "detected" for r in rows_g),
                "mean_tx_count": statistics.fmean(int(r["tx_count"]) for r in rows_g),
            }
        )
    return {"groups": out}


def render_summary(summary: dict) -> str:
    headers = [
        "model", "variant", "verify", "greedy", "fault", "runs",
        "mean dur [s]", "std", "median confirm [s]", "fees [sat]", "detected",
    ]
    lines = ["  ".join(f"{h:>18}" for h in headers)]
    for g in summary["groups"]:
        cells = [
            g["model_id"], g["variant"], "on" if g["verify"] else "off",
            "on" if g["greedy"] else "off", g["fault_step"] or "-", g["runs"],
            f"{g['mean_duration']:.3f}", f"{g['std_duration']:.3f}",
            "-" if g["median_confirmation_wait"] is None else f"{g['median_confirmation_wait']:.3f}",
            g["total_fees"], g["detections"],
        ]
        lines.append("  ".join(f"{str(c):>18}" for c in cells))
    return "\n".join(lines)


# --- audit -------------------------------------------------------------------------------


@dataclass
class InstanceAudit:
    process_id: int
    start_tx: str
    conformant: bool
    verdict: str
    ended: bool
    aborted_by_detection: bool
    value_conserved: bool
    signature_issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.conformant and self.value_conserved and not self.signature_issues


@dataclass
class AuditReport:
    instances: list[InstanceAudit]
    non_process_txs: int

    @property
    def all_clean(self) -> bool:
        return all(i.clean for i in self.instances)

    def to_json(self) -> str:
        return json.dumps(
            {
                "instances": [asdict(i) for i in self.instances],
                "non_process_txs": self.non_process_txs,
                "all_clean": self.all_clean,
            },
            indent=2,
        )


def _verify_instance_signatures(view: StaticChainView, trace_txs: list) -> list[str]:
    issues = []
    for tx in trace_txs:
        try:
            eng.validate_transaction_scripts(tx, view)
        except eng.ScriptValidationError as exc:
            issues.append(f"{tx.tx_id.hex()[:16]}: {exc}")
        block = tx.data_block
        if block is not None and block.kind == TxKind.HANDOVER and not block.is_template:
            digest = eng.signing_digest(tx)
            index, _ = tx.token_outputs[0]
            spender_id = view.get_spender((tx.tx_id, index))
            if spender_id is None:
                # frontier: the receiver key is not yet revealed, so only the
                # signature's structural validity is checkable
                if next(recovered_keys(digest, block.receiver_signature), None) is None:
                    issues.append(f"{tx.tx_id.hex()[:16]}: receiver signature malformed")
                continue
            spender = view.get_transaction(spender_id)
            payee = None
            for txin in spender.inputs:
                if txin.outpoint == (tx.tx_id, index) and txin.unlocking.redeem_script:
                    from .encoding import parse_redeem_script

                    payee = parse_redeem_script(txin.unlocking.redeem_script).payee_key_hash
            if payee is None:
                issues.append(f"{tx.tx_id.hex()[:16]}: token spend reveals no redeem script")
            elif not eng.verify_with_key_hash(digest, block.receiver_signature, payee):
                issues.append(f"{tx.tx_id.hex()[:16]}: receiver signature invalid")
    return issues


def audit(dump_text: str, model_doc: str) -> AuditReport:
    """Classify every transaction in a chain dump, reconstruct each process
    instance, and verify conformance, signatures, hash links, and value
    conservation."""
    view = load_dump(dump_text)
    process_model = model_mod.load_model(model_doc)
    instances = []
    non_process = 0
    for tx in view.all_transactions():
        kind = tx.kind
        if kind is None:
            non_process += 1
            continue
        if kind != TxKind.START:
            continue
        start_id = tx.tx_id
        trace = eng.reconstruct_trace(view, start_id)
        verdict = model_mod.check_conformance(process_model, trace)
        end_event = trace.end_event
        # gather the instance transactions by walking the same spend links
        instance_txs = [tx]
        frontier = [(start_id, tx.token_outputs[0][0])]
        seen = {start_id}
        budget = tx.token_outputs[0][1].value
        fees = 0
        residual = 0
        while frontier:
            outpoint = frontier.pop()
            spender_id = view.get_spender(outpoint)
            if spender_id is None:
                holder = view.get_transaction(outpoint[0])
                residual += holder.outputs[outpoint[1]].value  # stranded token
                continue
            if spender_id in seen:
                continue
            seen.add(spender_id)
            spend_tx = view.get_transaction(spender_id)
            instance_txs.append(spend_tx)
            resolved = 0
            for txin in spend_tx.inputs:
                prev = view.get_transaction(txin.prev_tx_id)
                resolved += prev.outputs[txin.prev_output_index].value
            fees += resolved - sum(o.value for o in spend_tx.outputs)
            if spend_tx.kind == TxKind.END:
                residual += sum(o.value for o in spend_tx.outputs if o.kind == OutputKind.KEY_HASH)
            else:
                for idx, _ in spend_tx.token_outputs:
                    frontier.append((spender_id, idx))
        block = tx.data_block
        instances.append(
            InstanceAudit(
                process_id=block.process_id,
                start_tx=start_id.hex(),
                conformant=verdict.ok,
                verdict="conformant" if verdict.ok else str(verdict),
                ended=end_event is not None,
                aborted_by_detection=end_event.extraordinary if end_event else False,
                value_conserved=budget == fees + residual,
                signature_issues=_verify_instance_signatures(view, instance_txs),
            )
        )
    return AuditReport(instances, non_process)
