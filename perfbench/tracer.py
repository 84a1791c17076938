"""Per-layer tracing of the program, installed from outside it.

Each traced name is replaced by a wrapper everywhere it is reachable: on its
class, or in its defining module and in every ``chorchain`` module that
imported it by name (``engine``, ``harness`` and ``protocol`` import from
``crypto`` directly). A spanned call records (name, start, end, parent span)
in memory; a counted call only bumps a counter. ``uninstall`` restores the
originals, so the checks that follow a timed phase run untraced.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from pathlib import Path

# Spanned and reported as <name>.calls_per_op and <name>.self_ms_per_op.
SPANNED = (
    "crypto.sign",
    "crypto.verify",
    "crypto.recover_candidates",
    "crypto.hash160",
    "crypto.Keypair.public_key",
    "encoding.serialize_transaction",
    "encoding.tx_from_hex",
    "engine.validate_template",
    "engine.validate_transaction_scripts",
    "engine.reconstruct_trace",
    "engine.finalize_and_sign_as_sender",
    "model.check_conformance",
    "provider.ProviderChainView.get_transaction",
    "provider.ProviderChainView.get_spender",
    "chain.ChainSim.broadcast",
    "chain.ChainSim.advance_time",
    "chain.load_dump",
    "harness.run_scenario",
    "harness.audit",
)
# Spanned and reported as <name>.self_ms_per_op only.
PROTOCOL_STEPS = tuple(
    f"protocol.Participant.{step}"
    for step in (
        "negotiate",
        "transfer_data",
        "exchange_addresses",
        "run_sender",
        "on_request",
        "confirm_receipt",
    )
)
# Counted only, reported as <name>.calls_per_op.
COUNTED = (
    "protocol.Identity.sign",
    "protocol.TrustRoot.check",
    "encoding.EnrichedTransaction.tx_id",
    "encoding.EnrichedTransaction.kind",
)
OTHER_METRICS = (
    ("crypto.recover_candidates.keys_per_call", "count", "lower"),
    ("chain.blocks_per_op", "count", "lower"),
    ("chain.mempool_size_per_block", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPANNED:
        specs.append((f"{name}.calls_per_op", "count", "lower"))
        specs.append((f"{name}.self_ms_per_op", "ms", "lower"))
    specs += [(f"{name}.self_ms_per_op", "ms", "lower") for name in PROTOCOL_STEPS]
    specs += [(f"{name}.calls_per_op", "count", "lower") for name in COUNTED]
    return specs + list(OTHER_METRICS)


def _resolve(dotted: str) -> tuple[object, str]:
    """Owner object (module or class) and attribute name of a traced name."""
    module_name, *path = dotted.split(".")
    owner = sys.modules[f"chorchain.{module_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent span or -1]
        self.counts = {name: 0 for name in COUNTED}
        self.recovered_keys = 0
        self.blocks = 0
        self.mempool_at_blocks = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        for name in SPANNED + PROTOCOL_STEPS:
            self._replace(name, self._spanning(name, *_HOOKS.get(name, (None, None))))
        for name in COUNTED:
            self._replace(name, self._counting(name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, dotted: str, make) -> None:
        owner, attr = _resolve(dotted)
        original = vars(owner)[attr]
        if isinstance(original, property):
            wrapped = property(make(original.fget))
        else:
            wrapped = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, original, wrapped)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] != "chorchain":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapped)

    def _set(self, owner, attr, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # --- wrappers ------------------------------------------------------------------

    def _spanning(self, name: str, before, after):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = before(self, args) if before else None
                record = [index, 0, 0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if after:
                    after(self, state, result)
                return result

            return wrapper

        return make

    def _counting(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # --- results ---------------------------------------------------------------------

    def metrics(self, ops: int, wall_s: float) -> dict[str, float]:
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index, start, end, parent in self.spans:
            calls[index] += 1
            self_ns[index] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= end - start
        by_name = {n: (calls[i], self_ns[i]) for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for name in SPANNED:
            n_calls, ns = by_name[name]
            out[f"{name}.calls_per_op"] = n_calls / ops
            out[f"{name}.self_ms_per_op"] = ns / 1e6 / ops
        for name in PROTOCOL_STEPS:
            out[f"{name}.self_ms_per_op"] = by_name[name][1] / 1e6 / ops
        for name in COUNTED:
            out[f"{name}.calls_per_op"] = self.counts[name] / ops
        recover_calls = by_name["crypto.recover_candidates"][0]
        out["crypto.recover_candidates.keys_per_call"] = (
            self.recovered_keys / recover_calls if recover_calls else 0.0
        )
        out["chain.blocks_per_op"] = self.blocks / ops
        out["chain.mempool_size_per_block"] = (
            self.mempool_at_blocks / self.blocks if self.blocks else 0.0
        )
        out["trace.ops_per_s"] = ops / wall_s
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated (name, start ns, end ns, parent span index)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            fp.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for index, start, end, parent in self.spans:
                fp.write(f"{names[index]}\t{start}\t{end}\t{parent}\n")


# --- hooks that read a call's inputs or result, outside its span ---------------------


def _count_keys(tracer: Tracer, _state, result) -> None:
    tracer.recovered_keys += len(result)


def _mempool_before(_tracer: Tracer, args) -> int:
    return len(args[0].mempool_ids)


def _count_blocks(tracer: Tracer, mempool: int, produced) -> None:
    # no transaction arrives while time advances, so each block scans what
    # the previous blocks of the same advance left behind
    for block in produced:
        tracer.blocks += 1
        tracer.mempool_at_blocks += mempool
        mempool -= len(block.txs)


_HOOKS = {
    "crypto.recover_candidates": (None, _count_keys),
    "chain.ChainSim.advance_time": (_mempool_before, _count_blocks),
}
