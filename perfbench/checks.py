"""Output checks that do not trust the program's own verdicts.

Signatures are re-verified with the ``cryptography`` package's secp256k1
ECDSA, key and script hashes are recomputed with ``hashlib``, transaction
ids are recomputed from the raw bytes, the expected transaction count is
derived from the model JSON, and block contents are compared against a
selection computed here. The program is used only to parse transactions and
to form the signing digest both parties commit to.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import heapq
import json

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, utils

from chorchain import encoding

_CURVE = ec.SECP256K1()
_ECDSA = ec.ECDSA(utils.Prehashed(hashes.SHA256()))
_P2SH_LEN, _P2PKH_LEN = 23, 25


def hash160(data: bytes) -> bytes:
    return hashlib.new("ripemd160", hashlib.sha256(data).digest()).digest()


def txid(raw: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(raw).digest()).digest()


def ecdsa_ok(digest: bytes, signature: bytes, public_key: bytes) -> bool:
    """DER signature plus hash-type byte, checked against a compressed key."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, public_key)
        key.verify(signature[:-1], digest, _ECDSA)
    except (InvalidSignature, ValueError):
        return False
    return signature[-1:] == b"\x01"


def _payee_of_redeem(redeem: bytes) -> bytes | None:
    """Key hash in the pay-to-key-hash clause that ends every redeem script."""
    clause = redeem[-_P2PKH_LEN:]
    if len(clause) != _P2PKH_LEN or clause[:3] != b"\x76\xa9\x14" or clause[23:] != b"\x88\xac":
        return None
    return clause[3:23]


def parse_dump(text: str) -> list[tuple[int | None, bytes, encoding.EnrichedTransaction]]:
    """(block height or None for mempool, txid, tx) for every transaction line."""
    out = []
    height: int | None = None
    for line in text.splitlines()[1:]:
        if not line:
            continue
        if line == "mempool":
            height = None
        elif line.startswith("block "):
            height = int(line.split()[1])
        else:
            raw = bytes.fromhex(line)
            out.append((height, txid(raw), encoding.deserialize_transaction(raw)))
    return out


def check_signatures(dump_text: str) -> list[str]:
    """Every input signature verifies, every revealed key hashes to its
    payee, and every handover's receiver signature verifies under the key
    that later spends the handover's token."""
    problems = []
    entries = parse_dump(dump_text)
    by_id = {tx_id: tx for _, tx_id, tx in entries}
    spent_by: dict[tuple[bytes, int], encoding.TxInput] = {}
    for _, tx_id, tx in entries:
        digest = encoding.signing_digest(tx)
        for n, txin in enumerate(tx.inputs):
            where = f"{tx_id.hex()[:16]} input {n}"
            spent_by[(txin.prev_tx_id, txin.prev_output_index)] = txin
            prev = by_id.get(txin.prev_tx_id)
            if prev is None or txin.prev_output_index >= len(prev.outputs):
                problems.append(f"{where}: spends an output not in the dump")
                continue
            script = prev.outputs[txin.prev_output_index].script
            unlock = txin.unlocking
            if len(script) == _P2SH_LEN:
                if hash160(unlock.redeem_script) != script[2:22]:
                    problems.append(f"{where}: redeem script does not hash to the output")
                    continue
                payee = _payee_of_redeem(unlock.redeem_script)
            elif len(script) == _P2PKH_LEN:
                payee = script[3:23]
            else:
                problems.append(f"{where}: spends an unspendable output")
                continue
            if payee is None or hash160(unlock.public_key) != payee:
                problems.append(f"{where}: public key does not hash to the payee")
            if not ecdsa_ok(digest, unlock.signature, unlock.public_key):
                problems.append(f"{where}: signature fails secp256k1 ECDSA")
    for _, tx_id, tx in entries:
        block = tx.data_block
        if block is None or block.kind != encoding.TxKind.HANDOVER:
            continue
        token_index = next(i for i, o in enumerate(tx.outputs) if len(o.script) == _P2SH_LEN)
        spender = spent_by.get((tx_id, token_index))
        if spender is None:
            continue  # frontier token: the receiver key is not revealed yet
        if not ecdsa_ok(
            encoding.signing_digest(tx), block.receiver_signature, spender.unlocking.public_key
        ):
            problems.append(f"{tx_id.hex()[:16]}: receiver signature fails secp256k1 ECDSA")
    return problems


def expected_tx_count(model_json: str, variant: str) -> int:
    """Instance transactions a run of the model must publish.

    Start and end, one handover per executed task, a split and a join per
    parallel block with one closing handover per branch (the first of them
    carries the next task, so that task needs no handover of its own), and a
    filler handover back to the owner when a participant holds the token at
    the end. XOR blocks publish nothing of their own.
    """
    doc = json.loads(model_json)
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    succ: dict[str, list[str]] = {n: [] for n in kinds}
    for edge in doc["edges"]:
        succ[edge["from"]].append(edge["to"])
    picks = iter(int(p) for p in variant.split(","))
    last_pick = [0]

    def pick() -> int:
        last_pick[0] = next(picks, last_pick[0])
        return last_pick[0]

    count = 2
    owner_holds = True
    skip_next_task = False

    def walk(node: str) -> str:
        """Count along a path; returns the join or end node that stops it."""
        nonlocal count, owner_holds, skip_next_task
        while kinds[node] not in ("and_join", "xor_join", "end"):
            kind = kinds[node]
            if kind == "task":
                if skip_next_task:
                    skip_next_task = False
                else:
                    count += 1
                owner_holds = False
                node = succ[node][0]
            elif kind == "xor_split":
                node = succ[walk(succ[node][pick()])][0]
            elif kind == "and_split":
                branches = succ[node]
                for branch in branches:
                    join = walk(branch)
                count += 2 + len(branches)  # split, join, closing handovers
                node = succ[join][0]
                skip_next_task = True  # the next task, if any, was handed over at the join
                owner_holds = False
            else:
                node = succ[node][0]
        if skip_next_task:  # no task followed the join: the branches returned to the owner
            skip_next_task = False
            owner_holds = True
        return node

    start = next(n for n, k in kinds.items() if k == "start")
    walk(succ[start][0])
    return count + (0 if owner_holds else 1)


def reference_blocks(
    mempool: dict[bytes, tuple[int, int, tuple[bytes, ...]]],
    batches: list[list[tuple[bytes, int, tuple[bytes, ...]]]],
    capacity: int,
) -> list[list[bytes]]:
    """Block contents a fee-priority miner must produce.

    ``mempool`` maps txid to (fee, broadcast sequence, parent txids) before
    the first batch; each batch lists (txid, fee, parents) in broadcast order
    and is followed by one block. A block takes, up to its capacity, the
    ready transaction with the highest fee, then the earliest broadcast; a
    transaction is ready when none of its parents is still waiting.
    """
    pool = dict(mempool)
    seq = max((s for _, s, _ in pool.values()), default=0)
    blocks = []
    for batch in batches:
        for tx_id, fee, parents in batch:
            seq += 1
            pool[tx_id] = (fee, seq, parents)
        waiting_on: dict[bytes, int] = {}
        children: dict[bytes, list[bytes]] = {}
        ready = []
        for tx_id, (fee, s, parents) in pool.items():
            pending = [p for p in set(parents) if p in pool]
            waiting_on[tx_id] = len(pending)
            for p in pending:
                children.setdefault(p, []).append(tx_id)
            if not pending:
                ready.append((-fee, s, tx_id))
        heapq.heapify(ready)
        chosen = []
        while ready and len(chosen) < capacity:
            _, _, tx_id = heapq.heappop(ready)
            chosen.append(tx_id)
            for child in children.get(tx_id, ()):
                waiting_on[child] -= 1
                if not waiting_on[child]:
                    fee, s, _ = pool[child]
                    heapq.heappush(ready, (-fee, s, child))
        for tx_id in chosen:
            del pool[tx_id]
        blocks.append(chosen)
    return blocks


def check_chain(
    blocks: list[list[bytes]],
    block_txs: dict[bytes, encoding.EnrichedTransaction],
    capacity: int,
) -> list[list[str]]:
    """Per block: within capacity, every input resolves to an earlier block
    or an earlier position in the same block, and no outpoint is spent
    twice anywhere on the chain."""
    placed: dict[bytes, int] = {}  # txid -> output count
    spent: set[tuple[bytes, int]] = set()
    out = []
    for height, ids in enumerate(blocks):
        problems = []
        if len(ids) > capacity:
            problems.append(f"block {height} holds {len(ids)} transactions, capacity {capacity}")
        for tx_id in ids:
            for txin in block_txs[tx_id].inputs:
                outpoint = (txin.prev_tx_id, txin.prev_output_index)
                if placed.get(txin.prev_tx_id, 0) <= txin.prev_output_index:
                    problems.append(f"{tx_id.hex()[:16]} spends an output not placed before it")
                if outpoint in spent:
                    problems.append(f"{tx_id.hex()[:16]} double-spends {outpoint[0].hex()[:16]}")
                spent.add(outpoint)
            placed[tx_id] = len(block_txs[tx_id].outputs)
        out.append(problems)
    return out
