import pytest

from chorchain import engine as eng
from chorchain.crypto import Keypair, sha256
from chorchain.provider import NotFound, ProviderChainView, SimProvider

from conftest import make_instance


@pytest.fixture
def populated(rng, fee_policy, funded_sim):
    sim, owner_key, funds = funded_sim
    start_tx, token = make_instance(sim, owner_key, funds, fee_policy, rng)
    receiver = Keypair.generate(rng)
    dh = sha256(b"data")
    tpl = eng.build_handover_template(token, 1, int(sim.now), receiver.key_hash, dh, fee_policy)
    final = eng.finalize_and_sign_as_sender(
        tpl, eng.sign_as_receiver(tpl, receiver), token.holder_key
    )
    assert sim.broadcast(final).accepted
    sim.await_confirmation(final.tx_id, 1)
    return sim, start_tx, final, token


def test_get_tx_records(populated):
    sim, start_tx, final, _ = populated
    provider = SimProvider(sim)
    pending_or_confirmed = provider.get_tx(final.tx_id.hex())
    assert pending_or_confirmed["state"] == "confirmed"
    assert pending_or_confirmed["depth"] >= 1
    assert pending_or_confirmed["kind"] == "handover"


def test_get_tx_mempool_state(rng, fee_policy, funded_sim):
    sim, owner_key, funds = funded_sim
    start_tx, _ = make_instance(sim, owner_key, funds, fee_policy, rng)
    record = SimProvider(sim).get_tx(start_tx.tx_id.hex())
    assert record["state"] == "pending" and record["depth"] == 0


def test_get_output_spender(populated):
    sim, start_tx, final, token = populated
    provider = SimProvider(sim)
    record = provider.get_output(start_tx.tx_id.hex(), token.output_index)
    assert record["spent"] and record["spender"] == final.tx_id.hex()
    tip = provider.get_output(final.tx_id.hex(), 0)
    assert not tip["spent"] and tip["spender"] is None


def test_not_found(populated):
    sim, *_ = populated
    provider = SimProvider(sim)
    with pytest.raises(NotFound):
        provider.get_tx("00" * 32)
    with pytest.raises(NotFound):
        provider.get_output("00" * 32, 0)


def test_provider_chain_view_supports_reconstruction(populated):
    sim, start_tx, final, _ = populated
    view = ProviderChainView(SimProvider(sim))
    trace = eng.reconstruct_trace(view, start_tx.tx_id)
    assert trace.task_sequence() == (1,)
    direct = eng.reconstruct_trace(sim, start_tx.tx_id)
    assert trace == direct

