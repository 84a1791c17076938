import pytest

from chorchain import engine as eng
from chorchain.crypto import Keypair, sha256
from chorchain.provider import PROVIDER_QUERY_COST, ProviderChainView

from conftest import make_instance


@pytest.fixture
def populated(rng, fee_policy, funded_sim):
    sim, owner_key, funds = funded_sim
    start_tx, token = make_instance(sim, owner_key, funds, fee_policy, rng)
    receiver = Keypair.generate(rng)
    dh = sha256(b"data")
    tpl = eng.build_handover_template(token, 1, int(sim.now), receiver.key_hash, dh, fee_policy)
    final = eng.finalize_and_sign_as_sender(
        tpl, eng.sign_as_receiver(tpl, receiver), receiver.public_key, token.holder_key
    )
    assert sim.broadcast(final).accepted
    sim.await_confirmation(final.tx_id, 1)
    return sim, start_tx, final, token


def test_each_query_is_billed_as_provider_time(populated):
    sim, start_tx, final, token = populated
    view = ProviderChainView(sim)
    before, provider_before = sim.now, sim.phase_seconds.get("provider", 0.0)
    assert view.get_transaction(final.tx_id) == final
    assert view.get_spender((start_tx.tx_id, token.output_index)) == final.tx_id
    assert sim.now - before == pytest.approx(2 * PROVIDER_QUERY_COST)
    assert sim.phase_seconds["provider"] - provider_before == pytest.approx(
        2 * PROVIDER_QUERY_COST
    )


def test_get_tx_mempool_state(rng, fee_policy, funded_sim):
    sim, owner_key, funds = funded_sim
    start_tx, _ = make_instance(sim, owner_key, funds, fee_policy, rng)
    assert ProviderChainView(sim).get_transaction(start_tx.tx_id) == start_tx
    status = sim.confirmation_status(start_tx.tx_id)
    assert status.state == "pending" and status.depth == 0


def test_get_output_spender(populated):
    sim, start_tx, final, token = populated
    view = ProviderChainView(sim)
    assert view.get_spender((start_tx.tx_id, token.output_index)) == final.tx_id
    assert view.get_spender((final.tx_id, 0)) is None


def test_not_found(populated):
    sim, *_ = populated
    view = ProviderChainView(sim)
    assert view.get_transaction(b"\x00" * 32) is None
    assert view.get_spender((b"\x00" * 32, 0)) is None


def test_provider_chain_view_supports_reconstruction(populated):
    sim, start_tx, final, _ = populated
    view = ProviderChainView(sim)
    trace = eng.reconstruct_trace(view, start_tx.tx_id)
    assert trace.task_sequence() == (1,)
    direct = eng.reconstruct_trace(sim, start_tx.tx_id)
    assert trace == direct
