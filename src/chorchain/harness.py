"""Scenario runner reproducing the evaluation design at desk scale.

A scenario executes one process model as a multi-participant choreography
against the simulated chain: the owner starts the instance, every task is
carried out by a distinct participant, parallel blocks split and join the
token, a filler handover returns it to the owner, and the owner ends the
instance. Fault injection corrupts the task id of a chosen handover
template, which the receiver must catch (check 3) and the sender must
answer with an extraordinary end transaction.

The runner only sequences the plan: it tells each step's participant to
act, sleeps through tasks and waits for confirmations. Tokens, instance
data and transactions belong to the participants (``chorchain.protocol``),
which build and publish their own; a step a participant refuses stops the
run with a ``ScenarioError``. How an instance on chain is judged belongs to
``chorchain.engine``: a run's report and the audit format what its
instance record gives.

Time is fully simulated and every advance is tagged with a phase (task,
logic, provider, broadcast, confirm, idle). The simulator tallies each
phase's seconds, and a run checks that the tally adds up to its clock
delta, so runs report exactly where their duration went. Block intervals
default to 6 simulated seconds - the live network's ten minutes compressed
a hundredfold - and all comparisons against the published numbers are made
on ratios and fractions, never on absolute seconds.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import engine as eng
from . import model as model_mod
from . import protocol as proto
from .chain import ChainSim, SimConfig, load_dump
from .crypto import Keypair, sha256
from .encoding import TxKind
from .model import ProcessModel

DEFAULT_BLOCK_MEAN = 6.0
SAFETY_FACTOR = Fraction(3, 2)  # start budget over the planned fees
CONFIRMATION_DEPTH = 1
TASK_JITTER = 0.005  # per-task sleeps vary by up to this fraction
TASK_MS_FLOOR = 50
TASK_MS_SPAN = 131  # per-task sleeps land in 50..180 ms


class ScenarioError(ValueError):
    pass


@lru_cache(maxsize=8)
def parsed_model(document: str) -> ProcessModel:
    """The model a document describes, parsed once per document text: a
    parsed model is an immutable value, so runs and audits share it."""
    return model_mod.load_model(document)


def builtin_model(model_id: int) -> ProcessModel:
    """The parsed built-in model with this id."""
    from importlib.resources import files

    return parsed_model(files("chorchain.models").joinpath(f"model{model_id}.json").read_text())


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
    repetitions: int = 1

    def fee_policy(self) -> eng.FeePolicy:
        return eng.FeePolicy(self.fee_per_tx, SAFETY_FACTOR)

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
    order, which is one legal interleaving).

    An AND block is joined by the next task the walk reaches: the first
    branch's final holder hands over for that task, the other branches send
    fillers, and the task's performer joins the tokens before doing it.
    Steps that open a block and end before any task joins it (say, an XOR
    branch) join it at the owner, the first branch sending a filler too. An
    AND block reached while another is still unjoined is refused."""
    xor_splits = sum(n.kind == model_mod.NodeKind.XOR_SPLIT for n in model.nodes)
    if len(choices) == 1 and xor_splits > 1:
        choices = choices * xor_splits
    if len(choices) < xor_splits:
        raise ScenarioError(f"model has {xor_splits} XOR splits, variant picks {len(choices)}")
    picks = iter(choices)  # taken in walk order, as each XOR split is reached
    plan: list[PlanStep] = [PlanStart()]

    def join(finals: list[str], actor: str, task_id: int) -> None:
        first, *rest = finals
        plan.append(PlanHandover(first, actor, task_id, filler=task_id == eng.FILLER_TASK_ID))
        plan.extend(PlanHandover(other, actor, eng.FILLER_TASK_ID, filler=True) for other in rest)
        plan.append(PlanJoin(actor, len(finals)))

    def walk(
        steps: tuple[model_mod.Step, ...], holder: str, inherited: list[str] | None
    ) -> tuple[str, list[str] | None]:
        """Emit the steps' plan from ``holder``. ``inherited`` lists the final
        holders of an AND block before these steps that no task has joined;
        returns the final holder, and that block if these steps left it so."""
        unjoined = inherited
        for step in steps:
            if isinstance(step, int):
                actor = participant_for(step)
                if unjoined:
                    join(unjoined, actor, step)
                else:
                    plan.append(PlanHandover(holder, actor, step))
                plan.append(PlanTask(actor, step))
                holder, unjoined = actor, None
            elif step.kind == model_mod.NodeKind.XOR_SPLIT:
                pick = next(picks)
                if not 0 <= pick < len(step.branches):
                    raise ScenarioError(f"variant picks branch {pick} of {len(step.branches)}")
                holder, unjoined = walk(step.branches[pick], holder, unjoined)
            elif unjoined:
                raise ScenarioError("parallel block directly after a join is unsupported")
            else:
                plan.append(PlanSplit(holder, len(step.branches)))
                unjoined = [walk(b, holder, None)[0] for b in step.branches]
        if unjoined and unjoined is not inherited:  # opened by these steps
            join(unjoined, OWNER, eng.FILLER_TASK_ID)
            return OWNER, None
        return holder, unjoined

    final_holder, _ = walk(model.body, OWNER, None)
    if final_holder != OWNER:
        plan.append(PlanHandover(final_holder, OWNER, eng.FILLER_TASK_ID, filler=True))
    plan.append(PlanEnd(OWNER))
    return plan


def planned_handovers(plan: list[PlanStep]) -> list[PlanHandover]:
    return [s for s in plan if isinstance(s, PlanHandover)]


def planned_tx_count(plan: list[PlanStep]) -> int:
    """Every transaction after the start: handovers, splits, joins, end."""
    return sum(isinstance(s, (PlanHandover, PlanSplit, PlanJoin, PlanEnd)) for s in plan)


# --- metrics --------------------------------------------------------------------------

PHASES = ("task", "logic", "provider", "broadcast", "confirm", "idle")


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
    detection: str  # "" | "detected" | "missed" | "false-refusal"
    aborted: bool

    @property
    def verification_overhead(self) -> float:
        return self.duration - self.phase_seconds.get("task", 0.0) - self.phase_seconds.get(
            "idle", 0.0
        )

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
        self.fee_policy = config.fee_policy()
        self.instance_txs: list[bytes] = []
        self.detection = ""
        self.aborted = False
        self.start_budget = 0
        self.process_id = 1 + (config.seed % 60000)
        self._start_tx_id: bytes | None = None  # set by a verified run
        self._t0 = self.sim.now

    def _sleep_task(self, task_id: int) -> None:
        jitter = 1.0 + self.rng.uniform(-TASK_JITTER, TASK_JITTER)
        self.sim.advance_time(task_duration(task_id) * jitter, "task")

    def run(self) -> tuple[RunMetrics, str, dict]:
        if self.config.verify:
            self._run_verified()
        else:
            for step in self.plan:
                if isinstance(step, PlanTask):
                    self._sleep_task(step.task_id)
        # every advance is phase-tagged, so the tallied seconds are the
        # run's duration exactly (no float drift against the clock delta);
        # a phase outside PHASES leaves the sum short and fails the check
        phase_seconds = {p: self.sim.phase_seconds.get(p, 0.0) for p in PHASES}
        duration = sum(phase_seconds.values())
        if not abs(duration - (self.sim.now - self._t0)) < 1e-3:
            raise ScenarioError(
                f"phase-tagged seconds {duration} disagree with the clock's "
                f"{self.sim.now - self._t0}"
            )
        return self._collect(duration, phase_seconds)

    def _participants(self, transport: proto.InProcTransport) -> dict[str, proto.Participant]:
        names = [OWNER] + [participant_for(t) for t in sorted(self.model.task_ids)]
        root = shared_trust_root()
        out = {}
        for name in names:
            out[name] = proto.Participant(
                shared_identity(name),
                root,
                transport,
                self.sim,
                self.fee_policy,
                self.model,
                self.rng,
            )
        return out

    def _record(self, tx_id: bytes) -> None:
        """Count a published transaction as the instance's, and wait for its
        confirmation unless the run is greedy, which waits for all at the end."""
        self.instance_txs.append(tx_id)
        if not self.config.greedy:
            self.sim.await_confirmation(tx_id, CONFIRMATION_DEPTH)

    def _run_verified(self) -> None:
        """Have each step's participant act in plan order. The participants
        build and publish their own transactions; the run records what they
        publish and waits for its confirmation."""
        participants = self._participants(proto.InProcTransport())
        owner_key = Keypair.generate(self.rng)
        estimate = planned_tx_count(self.plan)
        budget = self.fee_policy.budget(estimate)
        funds = self.sim.grant(owner_key, [budget + self.fee_policy.per_tx_fee + 50_000])
        pid = self.process_id
        handover_no = 0
        try:
            for step in self.plan:
                if isinstance(step, PlanStart):
                    start_tx = participants[OWNER].start(pid, funds, owner_key, estimate)
                    self._start_tx_id = start_tx.tx_id
                    self.start_budget = start_tx.token_outputs[0][1].value
                    self._record(start_tx.tx_id)
                elif isinstance(step, PlanHandover):
                    handover_no += 1
                    if not self._hand_over(participants, step, handover_no):
                        break
                elif isinstance(step, PlanTask):
                    self._sleep_task(step.task_id)
                    participants[step.actor].complete_task(pid, step.task_id)
                elif isinstance(step, PlanSplit):
                    self._record(participants[step.actor].split(pid, step.branches).tx_id)
                elif isinstance(step, PlanJoin):
                    self._record(participants[step.actor].join(pid, step.inputs).tx_id)
                elif isinstance(step, PlanEnd):
                    end = participants[step.actor].end(pid)
                    self._record(end.tx_id)
                    if end.data_block.extraordinary:  # the owner refused an unfinished instance
                        self._abort(refused=True)
        except proto.ProtocolError as exc:  # a participant refused its step
            raise ScenarioError(str(exc)) from None
        if self.config.greedy:
            for tx_id in self.instance_txs:
                self.sim.await_confirmation(tx_id, CONFIRMATION_DEPTH)

    def _hand_over(
        self, participants: dict[str, proto.Participant], step: PlanHandover, handover_no: int
    ) -> bool:
        """One handover of the plan; False when it aborted the instance."""
        sender = participants[step.sender]
        receiver = participants[step.receiver]
        terms = proto.NegotiatedTerms(self.process_id, step.task_id, int(self.sim.now))
        session = sender.open_session(step.receiver, terms)
        if not (
            sender.negotiate(session)
            and sender.transfer_data(session, sender.process_data.get(self.process_id, b""))
            and sender.exchange_addresses(session)
        ):
            raise ScenarioError(f"handover setup failed: {session.abort_reason}")
        if self.config.fault_step == handover_no:
            session.fault_task_id = 1 + (step.task_id % 250)
        outcome = sender.run_sender(session)
        if not outcome.published:
            self._abort(refused=bool(outcome.check in (3, 4) and outcome.abort_tx_id))
            if outcome.abort_tx_id:
                self._record(outcome.abort_tx_id)
            return False
        self._record(outcome.tx_id)
        rsession = receiver.sessions[(self.process_id, step.sender)]
        if receiver.confirm_receipt(rsession) is None:
            raise ScenarioError(
                f"{step.receiver} refused the published handover: "
                f"{rsession.abort_reason or 'not found on chain'}"
            )
        return True

    def _abort(self, refused: bool) -> None:
        """Mark the run aborted, by a refusal answered with an extraordinary
        END or not. A refusal detects only what the run injected: a task id
        or an off-model plan."""
        self.aborted = True
        faulted = self.config.fault_step is not None or self.plan != build_plan(
            self.model, self.config.xor_choices()
        )
        self.detection = ("detected" if faulted else "false-refusal") if refused else "missed"

    def _collect(
        self, duration: float, phase_seconds: dict[str, float]
    ) -> tuple[RunMetrics, str, dict]:
        waits = [w for w in map(self.sim.confirmation_wait, self.instance_txs) if w is not None]
        walk = None
        total_fees = end_residual = 0
        if self._start_tx_id is not None:
            walk = eng.walk_instance(self.sim, self._start_tx_id)
            total_fees, end_residual, _ = walk.tally
        metrics = RunMetrics(
            model_id=self.config.model_id,
            variant=self.config.variant,
            seed=self.config.seed,
            rep=self.rep,
            verify=self.config.verify,
            greedy=self.config.greedy,
            fault_step=self.config.fault_step,
            duration=duration,
            phase_seconds=phase_seconds,
            tx_count=len(self.instance_txs),
            total_fees=total_fees,
            start_budget=self.start_budget,
            end_residual=end_residual,
            confirmation_waits=tuple(waits),
            detection=self.detection,
            aborted=self.aborted,
        )
        dump = self.sim.dump() if self.config.verify else ""
        trace_report = self._trace_report(walk)
        return metrics, dump, trace_report

    def _trace_report(self, walk: eng.InstanceWalk | None) -> dict:
        if walk is None:
            return {"process_id": self.process_id, "events": [], "verdict": "not-verified"}
        verdict = walk.verdict(self.model)
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
                for e in walk.trace.events
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
    # broken spend links: a token spent by a non-process transaction or a
    # start, or a spender missing from the dump
    lineage_issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.conformant
            and self.value_conserved
            and not self.signature_issues
            and not self.lineage_issues
        )


@dataclass
class AuditReport:
    instances: list[InstanceAudit]
    non_process_txs: int
    # ids of process transactions (those with a data block) that no
    # instance walk reached
    orphans: list[str] = field(default_factory=list)

    @property
    def all_clean(self) -> bool:
        return all(i.clean for i in self.instances) and not self.orphans

    def to_json(self) -> str:
        return json.dumps(
            {
                "instances": [asdict(i) for i in self.instances],
                "non_process_txs": self.non_process_txs,
                "orphans": self.orphans,
                "all_clean": self.all_clean,
            },
            indent=2,
        )


def audit(dump_text: str, model_doc: str) -> AuditReport:
    """Classify every transaction in a chain dump, walk each process
    instance once, and report what its walk judges (conformance,
    signatures, hash links, value conservation) and every process
    transaction that belongs to no instance."""
    view = load_dump(dump_text)
    process_model = parsed_model(model_doc)
    instances = []
    reached: set[bytes] = set()
    non_process = 0
    for tx in view.all_transactions():
        kind = tx.kind
        if kind is None:
            non_process += 1
            continue
        if kind != TxKind.START:
            continue
        walk = eng.walk_instance(view, tx.tx_id)
        reached |= walk.reached
        verdict = walk.verdict(process_model)
        end_event = walk.trace.end_event
        instances.append(
            InstanceAudit(
                process_id=tx.data_block.process_id,
                start_tx=tx.tx_id.hex(),
                conformant=verdict.ok,
                verdict="conformant" if verdict.ok else str(verdict),
                ended=end_event is not None,
                aborted_by_detection=end_event.extraordinary if end_event else False,
                value_conserved=walk.tally[2],
                signature_issues=walk.signature_issues,
                lineage_issues=[str(link) for link in walk.broken],
            )
        )
    orphans = [
        tx.tx_id.hex()
        for tx in view.all_transactions()
        if tx.kind is not None and tx.tx_id not in reached
    ]
    return AuditReport(instances, non_process, orphans)
