"""Recorded inputs for the ``audit_replay`` workload.

The audit workload must not generate its dumps in the process that audits
them: a scenario run verifies the very signatures an audit later checks, so
any cache kept across calls would be warmed by the generation and flatter
the audit. The dumps are therefore recorded once, by this script, and
stored compressed next to it.

Regenerate the stored file (about 65 s on 2 vCPUs) with::

    python3 perfbench/inputs.py

Scenario runs are deterministic, so the file regenerates byte-identically
as long as the program's dump bytes do not change.
"""

from __future__ import annotations

import json
import lzma
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "data" / "audit_dumps.jsonl.xz"

MODEL_ID = 4
POOL_SIZE = 260          # clean dumps a run samples from
POOL_SEED_BASE = 10_000  # scenario seeds POOL_SEED_BASE .. + POOL_SIZE - 1
TAMPER_SEEDS = (3, 20_001, 20_002, 20_003)  # bases of the tampered dumps, one per round


def rotation(i: int) -> tuple[str, bool]:
    """XOR variant 0/1 and greedy off/on, cycling with period four."""
    return str(i % 2), bool((i // 2) % 2)


def record(seed: int, index: int) -> dict:
    from chorchain import harness

    variant, greedy = rotation(index)
    config = harness.ScenarioConfig(
        model_id=MODEL_ID, variant=variant, greedy=greedy, seed=seed, repetitions=1
    )
    result = harness.run_scenario(config)
    return {"seed": seed, "variant": variant, "greedy": greedy, "dump": result.dumps[0]}


def load_pool(path: Path = POOL_FILE) -> tuple[list[dict], list[dict]]:
    """Return (clean pool, tamper bases) from the stored file."""
    pool, bases = [], []
    with lzma.open(path, "rt", encoding="utf-8") as fp:
        for line in fp:
            entry = json.loads(line)
            (bases if entry.pop("role") == "tamper_base" else pool).append(entry)
    return pool, bases


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    lines = []
    for i in range(POOL_SIZE):
        lines.append({"role": "pool", **record(POOL_SEED_BASE + i, i)})
    for i, seed in enumerate(TAMPER_SEEDS):
        lines.append({"role": "tamper_base", **record(seed, i)})
    POOL_FILE.parent.mkdir(parents=True, exist_ok=True)
    with lzma.open(POOL_FILE, "wt", encoding="utf-8", preset=9) as fp:
        for entry in lines:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"wrote {len(lines)} dumps to {POOL_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
