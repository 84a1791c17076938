#!/usr/bin/env python3
"""One digest over the audits of a fixed corpus of edited chain dumps.

The corpus, in order:

* for each built-in model 1-4, its seed-11 dump, then every single-line
  delete of it, every single-line duplicate, and 8 seeded hex flips of each
  transaction line, each audited against that model;
* every dump recorded for the benchmark's ``audit_replay`` workload
  (``perfbench/data/audit_dumps.jsonl.xz``, read only), audited against
  model 4.

One sha256 covers, in corpus order, each audit's ``AuditReport.to_json()``,
or the class name and message of the exception the audit raised. Two
checkouts print the same digest exactly when their audits agree on every
dump, so a change that must not alter what the audit reports is checked by
running this on both sides. Its 716 audits take about 3 s on 2 vCPUs.

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 scripts/audit_corpus.py

It prints the number of audits, how many of them the dump loader refused,
and the digest.
"""

import hashlib
import json
import lzma
import random
from importlib.resources import files
from pathlib import Path
from typing import Iterator

from chorchain import harness as H
from chorchain.chain import DumpFormatError

RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "audit_dumps.jsonl.xz"
FLIPS_PER_LINE = 8
HEX_DIGITS = "0123456789abcdef"


def model_doc(model_id: int) -> str:
    return files("chorchain.models").joinpath(f"model{model_id}.json").read_text()


def edits(dump: str, seed: str) -> Iterator[str]:
    """The dump, each single-line delete, each single-line duplicate, and
    ``FLIPS_PER_LINE`` one-digit flips of each transaction line."""
    lines = dump.splitlines()

    def text(edited: list[str]) -> str:
        return "\n".join(edited) + "\n"

    yield dump
    for i in range(len(lines)):
        yield text(lines[:i] + lines[i + 1 :])
    for i in range(len(lines)):
        yield text(lines[: i + 1] + lines[i:])
    rng = random.Random(seed)
    for i, line in enumerate(lines):
        if i == 0 or line == "mempool" or line.startswith("block "):
            continue  # the header, block lines and the mempool marker
        for _ in range(FLIPS_PER_LINE):
            at = rng.randrange(len(line))
            digit = rng.choice(HEX_DIGITS.replace(line[at], ""))
            yield text(lines[:i] + [line[:at] + digit + line[at + 1 :]] + lines[i + 1 :])


def corpus(models=(1, 2, 3, 4), recorded: bool = True) -> Iterator[tuple[str, str]]:
    """(dump, model document) pairs in corpus order."""
    for model_id in models:
        dump = H.run_scenario(H.ScenarioConfig(model_id=model_id, seed=11)).dumps[0]
        doc = model_doc(model_id)
        for edited in edits(dump, f"audit-corpus:{model_id}"):
            yield edited, doc
    if recorded:
        doc = model_doc(4)
        with lzma.open(RECORDED, "rt", encoding="utf-8") as fp:
            for line in fp:
                yield json.loads(line)["dump"], doc


def digest(pairs) -> tuple[int, int, str]:
    """The number of audits, the number the dump loader refused, and the
    sha256 over every report or exception."""
    sha = hashlib.sha256()
    audits = refused = 0
    for dump, doc in pairs:
        try:
            out = H.audit(dump, doc).to_json()
        except Exception as exc:  # the exception is part of what is compared
            refused += isinstance(exc, DumpFormatError)
            out = f"{type(exc).__name__}: {exc}"
        sha.update(out.encode() + b"\0")
        audits += 1
    return audits, refused, sha.hexdigest()


def main() -> None:
    audits, refused, hexdigest = digest(corpus())
    print(f"audits: {audits}")
    print(f"refused by load_dump: {refused}")
    print(f"sha256: {hexdigest}")


if __name__ == "__main__":
    main()
