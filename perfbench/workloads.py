"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup`` (untimed,
and counted in ``setup_s``), hands ``run.py`` a fixed list of operations to
time one by one, and checks every operation's output afterwards. Lookups of
program functions happen when an operation runs, never when it is built,
so the traced run sees the wrappers installed after set-up.

Run length is a whole number of rounds, ``round(seconds / ROUND_SECONDS)``,
but never fewer than ``MIN_OPS`` operations, so that the 90th percentile
has ten samples beyond it. ``ROUND_SECONDS`` is the measured time of one
round on the reference machine (2 cores), so a run measures about
``--seconds`` there, while the work itself depends only on the seed and on
``--seconds``.
"""

from __future__ import annotations

import hashlib
import random
from importlib.resources import files

from chorchain import crypto, encoding, harness
from chorchain import engine as eng
from chorchain.chain import ChainSim, DumpFormatError, SimConfig

import checks
import inputs

MODEL_ID = inputs.MODEL_ID
MIN_OPS = 100  # the 90th percentile then has ten samples beyond it


def _model_json() -> str:
    return files("chorchain.models").joinpath(f"model{MODEL_ID}.json").read_text()


def _rounds(seconds: int, round_seconds: float, ops_per_round: int) -> int:
    return max(round(seconds / round_seconds), -(-MIN_OPS // ops_per_round))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _raised(result) -> list[str] | None:
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    return None


class VerifiedInstances:
    """One operation is one verified, fault-free model-4 scenario run.

    Operations rotate through XOR variant 0/1 and greedy off/on, each with
    a seed of its own. A fixed-seed run in set-up creates every participant
    identity (RSA keys) and serves as the warm-up.
    """

    name = "verified_instances"
    ROUND = 4  # operations, one per (variant, greedy) pair of inputs.rotation
    ROUND_SECONDS = 1.05
    WARMUP_SEED = 0

    def __init__(self, seed: int, seconds: int):
        n = self.ROUND * _rounds(seconds, self.ROUND_SECONDS, self.ROUND)
        self.configs = [
            harness.ScenarioConfig(
                model_id=MODEL_ID,
                variant=inputs.rotation(i)[0],
                greedy=inputs.rotation(i)[1],
                seed=seed * 100_000 + i,
            )
            for i in range(n)
        ]
        self.known_faults: set[int] = set()
        self.fingerprints: dict[str, str] = {}

    def setup(self) -> None:
        self.model_json = _model_json()
        warm = harness.run_scenario(
            harness.ScenarioConfig(model_id=MODEL_ID, seed=self.WARMUP_SEED)
        )
        self.fingerprints[f"model{MODEL_ID}_seed{self.WARMUP_SEED}_dump"] = _sha256(warm.dumps[0])

    def operations(self):
        return [lambda c=c: harness.run_scenario(c) for c in self.configs]

    def check(self, results) -> list[list[str]]:
        out = []
        for config, result in zip(self.configs, results):
            problems = _raised(result)
            if problems is None:
                try:
                    problems = self._check_one(config, result)
                except Exception as exc:  # output the checks cannot even parse
                    problems = [f"checking raised {type(exc).__name__}: {exc}"]
            out.append(problems)
        # determinism: the same configuration must give the same bytes
        if not isinstance(results[0], BaseException):
            try:
                again = harness.run_scenario(self.configs[0]).dumps[0]
            except Exception as exc:
                again = f"raised {type(exc).__name__}: {exc}"
            if again != results[0].dumps[0]:
                out[0].append("repeating the run gave a different dump")
        self.fingerprints["run_dumps"] = _sha256(
            "".join(r.dumps[0] for r in results if not isinstance(r, BaseException))
        )
        return out

    def _check_one(self, config, result) -> list[str]:
        run, report, dump = result.runs[0], result.trace_reports[0], result.dumps[0]
        problems = []
        if report["verdict"] != "conformant" or run.aborted:
            problems.append(f"verdict {report['verdict']!r}, aborted={run.aborted}")
        if run.start_budget != run.total_fees + run.end_residual:
            problems.append(
                f"budget {run.start_budget} != fees {run.total_fees} + residual {run.end_residual}"
            )
        want = checks.expected_tx_count(self.model_json, config.variant)
        if run.tx_count != want:
            problems.append(f"{run.tx_count} instance transactions, model requires {want}")
        return problems + checks.check_signatures(dump)


class AuditReplay:
    """One operation is one audit of a recorded single-instance dump.

    A round audits ``CLEAN_PER_ROUND`` clean dumps, sampled without
    replacement from the stored pool by the run seed, and three tampered
    dumps that do not depend on the seed: the round's own base dump with an
    instance line duplicated, deleted, or the END line moved ahead of its
    ancestors. No dump is audited twice in a run.
    """

    name = "audit_replay"
    CLEAN_PER_ROUND = 57
    ROUND_SECONDS = 7.9
    # (kind, position of the tampered dump in the round's operation list)
    TAMPERED = (("duplicate", 19), ("delete", 39), ("end_first", 59))
    DUPLICATED_LINE = 1  # first handover
    DELETED_LINE = 5  # a handover inside the parallel block

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.rounds = _rounds(
            seconds, self.ROUND_SECONDS, self.CLEAN_PER_ROUND + len(self.TAMPERED)
        )
        self.known_faults: set[int] = set()
        self.fingerprints: dict[str, str] = {}

    def setup(self) -> None:
        self.model_json = _model_json()
        pool, bases = inputs.load_pool()
        need = self.rounds * self.CLEAN_PER_ROUND + 1
        if self.rounds > len(bases) or need > len(pool):
            raise SystemExit(
                f"audit_replay: {self.rounds} rounds need {self.rounds} tamper bases and {need} "
                f"clean dumps, the stored file has {len(bases)} and {len(pool)}; "
                f"record more with perfbench/inputs.py"
            )
        picks = random.Random(f"audit_replay:{self.seed}").sample(range(len(pool)), need)
        self.dumps: list[str] = []
        per = self.CLEAN_PER_ROUND
        for r in range(self.rounds):
            clean = [pool[i]["dump"] for i in picks[r * per:(r + 1) * per]]
            for kind, position in self.TAMPERED:
                self.known_faults.add(len(self.dumps) + position)
                clean.insert(position, self._tamper(bases[r]["dump"], kind))
            self.dumps += clean
        pool_bytes = inputs.POOL_FILE.read_bytes()
        self.fingerprints["recorded_pool"] = hashlib.sha256(pool_bytes).hexdigest()
        warm = harness.audit(pool[picks[-1]]["dump"], self.model_json)
        if not warm.all_clean:
            raise SystemExit("audit_replay: the warm-up dump does not audit clean")

    def _tamper(self, dump: str, kind: str) -> str:
        lines = dump.splitlines()
        instance = [
            i
            for i, line in enumerate(lines[1:], start=1)
            if line and line != "mempool" and not line.startswith("block ")
            and encoding.tx_from_hex(line).data_block is not None
        ]
        if kind == "duplicate":
            at = instance[self.DUPLICATED_LINE]
            lines.insert(at, lines[at])
        elif kind == "delete":
            del lines[instance[self.DELETED_LINE]]
        else:
            end = lines.pop(instance[-1])
            lines.insert(instance[0], end)
        return "\n".join(lines) + "\n"

    def operations(self):
        doc = self.model_json
        return [lambda d=d: harness.audit(d, doc) for d in self.dumps]

    def check(self, results) -> list[list[str]]:
        out = []
        for i, result in enumerate(results):
            if i in self.known_faults:
                # a tampered dump must be flagged: an unclean instance, or a
                # format error from the loader; anything else is a miss
                if isinstance(result, DumpFormatError):
                    out.append([])
                elif isinstance(result, BaseException):
                    name = type(result).__name__
                    out.append([f"tampered dump crashed the audit: {name}: {result}"])
                elif all(inst.clean for inst in result.instances):
                    n = len(result.instances)
                    out.append([f"tampered dump audited clean ({n} instances)"])
                else:
                    out.append([])
                continue
            problems = _raised(result)
            if problems is None:
                problems = []
                if len(result.instances) != 1:
                    problems.append(f"{len(result.instances)} instances in a one-instance dump")
                for inst in result.instances:
                    if not (inst.clean and inst.ended and not inst.aborted_by_detection):
                        problems.append(f"recorded instance audited as {inst}")
            out.append(problems)
        return out


class ChainBacklog:
    """One operation is one simulated block interval on a congested chain.

    All instances share one chain whose mempool holds a backlog of
    ``BACKLOG`` lower-fee transactions, broadcast in set-up. Each interval
    broadcasts ``INSTANCES_PER_BLOCK`` whole instances (start, split, join,
    end; pre-signed in set-up, every transaction at its own fee) and waits
    for the next block. Capacity equals the batch size and every instance
    fee beats every backlog fee, so each block is full, holds exactly the
    batch, and the backlog stays the same size: every interval scans the
    same mempool.
    """

    name = "chain_backlog"
    BACKLOG = 2400
    INSTANCES_PER_BLOCK = 3
    TXS_PER_INSTANCE = 4
    CAPACITY = INSTANCES_PER_BLOCK * TXS_PER_INSTANCE
    ROUND_SECONDS = 0.085
    BACKLOG_FEES = (1, 5_000)
    INSTANCE_FEES = tuple(range(10_000, 30_001, 1_000))  # coarse, so fees tie
    BLOCK_MEAN = 6.0
    GRANT_OUTPUTS = 10  # per faucet grant; a grant costs quadratic time in its outputs

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.blocks = _rounds(seconds, self.ROUND_SECONDS, 1)
        self.known_faults: set[int] = set()
        self.fingerprints: dict[str, str] = {}

    def _grant(self, key, value: int, count: int) -> list:
        """``count`` outputs worth ``value`` plus their index; the index keeps
        equal-looking grants from sharing a txid."""
        values = [value + i for i in range(count)]
        funds = []
        for start in range(0, count, self.GRANT_OUTPUTS):
            funds += self.sim.grant(key, values[start:start + self.GRANT_OUTPUTS])
        return funds

    def setup(self) -> None:
        rng = random.Random(f"chain_backlog:{self.seed}")
        self.sim = ChainSim(
            SimConfig(
                seed=rng.getrandbits(64),
                block_interval_mean=self.BLOCK_MEAN,
                block_capacity=self.CAPACITY,
            )
        )
        sim = self.sim
        backlog_key = crypto.Keypair.generate(rng)
        owner_key = crypto.Keypair.generate(rng)
        n_instances = (self.blocks + 1) * self.INSTANCES_PER_BLOCK  # + warm-up interval
        backlog_funds = self._grant(backlog_key, 10_000, self.BACKLOG)
        owner_funds = self._grant(owner_key, 1_000_000, n_instances)
        self.first_block = len(sim.blocks)

        public_key, key_hash = backlog_key.public_key, backlog_key.key_hash
        self.backlog_ids = []
        for fund in backlog_funds:
            fee = rng.randint(*self.BACKLOG_FEES)
            tx = encoding.EnrichedTransaction(
                inputs=(encoding.TxInput(fund.tx_id, fund.output_index, prev_value=fund.value),),
                outputs=(encoding.TxOutput.to_key_hash(fund.value - fee, key_hash),),
            )
            signature = crypto.sign(encoding.signing_digest(tx), backlog_key)
            unlocking = encoding.Unlocking(signature, public_key)
            tx = encoding.EnrichedTransaction(
                inputs=(encoding.TxInput(fund.tx_id, fund.output_index, unlocking, fund.value),),
                outputs=tx.outputs,
            )
            result = sim.broadcast(tx)
            if not result.accepted:
                raise SystemExit(f"chain_backlog: backlog transaction refused: {result.reason}")
            self.backlog_ids.append(tx.tx_id)

        now = int(sim.now)
        instances = [
            self._instance(rng, fund, 1 + i, now, owner_key) for i, fund in enumerate(owner_funds)
        ]
        per = self.INSTANCES_PER_BLOCK
        self.batches = [
            [tx for inst in instances[b * per:(b + 1) * per] for tx in inst]
            for b in range(self.blocks + 1)
        ]
        self.batch_ids = [[tx.tx_id for tx in batch] for batch in self.batches]
        self.end_ids = {inst[-1].tx_id for inst in instances}
        self._interval(0)  # warm-up

    @classmethod
    def _instance(cls, rng, fund, process_id: int, now: int, owner_key) -> list:
        """start -> split -> join -> end, each at its own fee."""

        def policy() -> eng.FeePolicy:
            return eng.FeePolicy(rng.choice(cls.INSTANCE_FEES))

        start, token = eng.build_start([fund], process_id, now, policy(), 13, owner_key, rng)
        split, branches = eng.build_split(token, 2, now, policy(), rng)
        join, token = eng.build_join(branches, now, policy(), rng)
        end = eng.build_end(token, token.holder_key, now, policy())
        return [start, split, join, end]

    def _interval(self, b: int) -> None:
        sim = self.sim
        for tx in self.batches[b]:
            result = sim.broadcast(tx)
            if not result.accepted:
                raise RuntimeError(f"instance transaction refused: {result.reason}")
        sim.await_confirmation(self.batch_ids[b][-1])

    def operations(self):
        return [lambda b=b: self._interval(b) for b in range(1, self.blocks + 1)]

    def check(self, results) -> list[list[str]]:
        out = [_raised(r) or [] for r in results]
        dump = self.sim.dump()
        self.fingerprints[f"chain_seed{self.seed}_dump"] = _sha256(dump)
        entries = checks.parse_dump(dump)
        txs = {tx_id: tx for _, tx_id, tx in entries}
        blocks: list[list[bytes]] = []
        mempool_ids = []
        for height, tx_id, _ in entries:
            if height is None:
                mempool_ids.append(tx_id)
            else:
                while len(blocks) <= height:
                    blocks.append([])
                blocks[height].append(tx_id)
        expected = self.first_block + 1 + self.blocks
        if len(blocks) != expected:
            problem = f"chain has {len(blocks)} blocks, expected {expected}"
            return [p + [problem] for p in out]

        def fee(tx) -> int:
            paid = sum(txs[i.prev_tx_id].outputs[i.prev_output_index].value for i in tx.inputs)
            return paid - sum(o.value for o in tx.outputs)

        def parents(tx) -> tuple[bytes, ...]:
            return tuple(i.prev_tx_id for i in tx.inputs)

        try:
            backlog = {
                tx_id: (fee(txs[tx_id]), seq, parents(txs[tx_id]))
                for seq, tx_id in enumerate(self.backlog_ids, start=1)
            }
            batches = [
                [(tx_id, fee(txs[tx_id]), parents(txs[tx_id])) for tx_id in ids]
                for ids in self.batch_ids
            ]
        except KeyError as exc:
            problem = f"transaction {exc.args[0].hex()[:16]} is missing from the chain"
            return [p + [problem] for p in out]
        reference = checks.reference_blocks(backlog, batches, self.CAPACITY)
        structural = checks.check_chain(blocks, txs, self.CAPACITY)
        confirmed = {tx_id for ids in blocks for tx_id in ids}
        for b in range(1, self.blocks + 1):
            height = self.first_block + b
            problems = out[b - 1]
            problems += structural[height]
            if blocks[height] != reference[b]:
                problems.append(f"block {height} differs from the fee-priority selection")
            for tx_id in self.batch_ids[b]:
                if tx_id in self.end_ids and tx_id not in confirmed:
                    problems.append(f"end transaction {tx_id.hex()[:16]} never confirmed")
        for height in range(self.first_block + 1):
            if structural[height]:
                out[0] += [f"block {height}: {p}" for p in structural[height]]
        if mempool_ids != self.backlog_ids:
            out[-1].append("the mempool after the run is not the untouched backlog")
        return out


WORKLOADS = {w.name: w for w in (VerifiedInstances, AuditReplay, ChainBacklog)}
