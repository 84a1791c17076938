"""Remote-data-provider access for thin clients.

Participants run without a full chain index: every read they make goes to
a data provider, as in the SPV-plus-REST deployment the live system would
use. ``ProviderChainView`` serves the engine's read interface from the
chain and bills each query as simulated provider time.
"""

from __future__ import annotations

from .encoding import EnrichedTransaction

PROVIDER_QUERY_COST = 0.01  # simulated seconds per provider query


class ProviderChainView:
    """The engine's read interface over a provider, so execution histories
    reconstruct without a full node. ``chain`` is a ``ChainSim``."""

    def __init__(self, chain):
        self.chain = chain

    def get_transaction(self, tx_id: bytes) -> EnrichedTransaction | None:
        self.chain.advance_time(PROVIDER_QUERY_COST, "provider")
        return self.chain.get_transaction(tx_id)

    def get_spender(self, outpoint: tuple[bytes, int]) -> bytes | None:
        self.chain.advance_time(PROVIDER_QUERY_COST, "provider")
        return self.chain.get_spender(outpoint)
