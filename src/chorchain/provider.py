"""Remote-data-provider access for thin clients.

Participants run without a full chain index and pull transaction records
from a data provider, mirroring the SPV-plus-REST deployment the live
system would use. The simulator-backed provider serves the records
(``get_tx``, ``get_output``) as the JSON-shaped dictionaries an explorer
would return, and ``ProviderChainView`` turns them back into the engine's
read interface.
"""

from __future__ import annotations

from typing import Protocol

from .encoding import EnrichedTransaction, tx_from_hex, tx_to_hex


class NotFound(Exception):
    pass


class DataProvider(Protocol):
    def get_tx(self, tx_id: str) -> dict: ...

    def get_output(self, tx_id: str, index: int) -> dict: ...


class SimProvider:
    """Serves records straight out of a simulator or parsed dump."""

    def __init__(self, view):
        self.view = view

    def get_tx(self, tx_id: str) -> dict:
        raw = bytes.fromhex(tx_id)
        tx = self.view.get_transaction(raw)
        if tx is None:
            raise NotFound(f"transaction {tx_id} unknown")
        status = self.view.confirmation_status(raw)
        kind = tx.kind
        return {
            "tx_id": tx_id,
            "hex": tx_to_hex(tx),
            "state": status.state,
            "depth": status.depth,
            "kind": kind.value if kind else None,
        }

    def get_output(self, tx_id: str, index: int) -> dict:
        raw = bytes.fromhex(tx_id)
        tx = self.view.get_transaction(raw)
        if tx is None or index >= len(tx.outputs):
            raise NotFound(f"output {tx_id}:{index} unknown")
        out = tx.outputs[index]
        spender = self.view.get_spender((raw, index))
        return {
            "tx_id": tx_id,
            "n": index,
            "value": out.value,
            "kind": out.kind.value,
            "spent": spender is not None,
            "spender": spender.hex() if spender else None,
        }


class ProviderChainView:
    """Adapts a provider to the engine's read interface, so execution
    histories reconstruct without a full node."""

    def __init__(self, provider: DataProvider):
        self.provider = provider
        self._cache: dict[bytes, EnrichedTransaction] = {}

    def get_transaction(self, tx_id: bytes) -> EnrichedTransaction | None:
        if tx_id in self._cache:
            return self._cache[tx_id]
        try:
            record = self.provider.get_tx(tx_id.hex())
        except NotFound:
            return None
        tx = tx_from_hex(record["hex"])
        self._cache[tx_id] = tx
        return tx

    def get_spender(self, outpoint: tuple[bytes, int]) -> bytes | None:
        try:
            record = self.provider.get_output(outpoint[0].hex(), outpoint[1])
        except NotFound:
            return None
        return bytes.fromhex(record["spender"]) if record["spender"] else None
