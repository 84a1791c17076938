import functools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chorchain import engine as eng
from chorchain import protocol as P
from chorchain.chain import ChainSim, SimConfig
from chorchain.crypto import Keypair, sha256
from chorchain.harness import builtin_model, shared_identity, shared_trust_root

from conftest import make_instance

NOW = 1_700_000_000


# --- frames ----------------------------------------------------------------------


def test_frame_roundtrip():
    payload = P.pack_fields(b"alpha", b"", b"\x00" * 300)
    frame = P.make_frame(P.FrameType.DATA, payload)
    kind, body = P.split_frame(frame)
    assert kind == P.FrameType.DATA
    assert P.unpack_fields(body, 3) == [b"alpha", b"", b"\x00" * 300]


def test_frame_errors():
    with pytest.raises(P.FrameError):
        P.split_frame(b"")
    with pytest.raises(P.FrameError):
        P.split_frame(b"\xee payload")
    with pytest.raises(P.FrameError):
        P.unpack_fields(b"\x05abc", 1)  # truncated field
    with pytest.raises(P.FrameError):
        P.unpack_fields(P.pack_fields(b"a", b"b"), 1)  # trailing bytes


def test_negotiated_terms_roundtrip():
    terms = P.NegotiatedTerms(42, 7, 123456)
    assert P.NegotiatedTerms.from_bytes(terms.to_bytes()) == terms


# --- PKI ------------------------------------------------------------------------


def test_certificate_issue_and_check():
    root = shared_trust_root()
    ident = shared_identity("cert-check")
    root.check(ident.certificate, NOW)


def test_expired_certificate_rejected():
    root = P.TrustRoot(now=0)
    ident = root.issue("shortlived", now=0, lifetime=10)
    with pytest.raises(P.CertificateError, match="validity"):
        root.check(ident.certificate, 11)


def test_foreign_issuer_rejected():
    root = P.TrustRoot(now=0)
    other = P.TrustRoot(name="rogue-root", now=0)
    ident = other.issue("mallory", now=0)
    with pytest.raises(P.CertificateError):
        root.check(ident.certificate, 5)


def test_forged_certificate_rejected():
    from dataclasses import replace

    root = P.TrustRoot(now=0)
    ident = root.issue("honest", now=0)
    forged = replace(ident.certificate, subject="dishonest")
    with pytest.raises(P.CertificateError, match="signature"):
        root.check(forged, 5)


def test_attestation_verify_and_replay():
    root = P.TrustRoot(now=0)
    ident = root.issue("alice", now=0)
    rng = random.Random(3)
    att = P.make_attestation(ident, b"\x01" * 20, 7, rng)
    seen = set()
    P.verify_attestation(att, root, 5, seen)
    with pytest.raises(P.CertificateError, match="replayed"):
        P.verify_attestation(att, root, 5, seen)


def test_attestation_wrong_signer_rejected():
    from dataclasses import replace

    root = P.TrustRoot(now=0)
    alice = root.issue("alice", now=0)
    bob = root.issue("bob", now=0)
    att = P.make_attestation(alice, b"\x01" * 20, 7, random.Random(3))
    swapped = replace(att, certificate=bob.certificate)
    with pytest.raises(P.CertificateError, match="signature"):
        P.verify_attestation(swapped, root, 5, set())


def test_certificate_with_non_utf8_name_is_a_frame_error():
    cert = shared_identity("cert-check").certificate
    garbled = P.pack_fields(
        b"\xff\xfe", cert.public_key_der, b"\x00" * 8, b"\x00" * 8, b"root", cert.signature
    )
    with pytest.raises(P.FrameError, match="UTF-8"):
        P.Certificate.from_bytes(garbled)


def test_attestation_wire_roundtrip():
    root = P.TrustRoot(now=0)
    ident = root.issue("alice", now=0)
    att = P.make_attestation(ident, b"\x01" * 20, 7, random.Random(3))
    assert P.AddressAttestation.from_bytes(att.to_bytes()) == att


# --- symmetric data ---------------------------------------------------------------


def test_encrypt_decrypt_roundtrip():
    rng = random.Random(5)
    key = P.new_data_key(rng)
    enc = P.encrypt_process_data(key, b"x" * (1 << 20), rng)
    assert P.decrypt_process_data(key, enc) == b"x" * (1 << 20)


def test_wrong_key_fails_authentication():
    rng = random.Random(6)
    key = P.new_data_key(rng)
    other = P.new_data_key(rng)
    enc = P.encrypt_process_data(key, b"secret", rng)
    with pytest.raises(P.ProtocolError):
        P.decrypt_process_data(other, enc)
    # even with a matching key id, a tampered ciphertext fails
    from dataclasses import replace

    tampered = replace(enc, ciphertext=bytes([enc.ciphertext[0] ^ 1]) + enc.ciphertext[1:])
    with pytest.raises(P.ProtocolError, match="authentication"):
        P.decrypt_process_data(key, tampered)


def test_empty_payload_allowed():
    rng = random.Random(7)
    key = P.new_data_key(rng)
    enc = P.encrypt_process_data(key, b"", rng)
    assert P.decrypt_process_data(key, enc) == b""
    assert sha256(b"") == sha256(P.decrypt_process_data(key, enc))


# --- handover sessions ------------------------------------------------------------


class Env:
    """Two participants wired over an in-process transport and a simulator."""

    def __init__(self, seed=21, model_id=1, acceptable_tasks=None):
        self.rng = random.Random(seed)
        self.sim = ChainSim(SimConfig(seed=seed, block_interval_mean=6.0))
        self.transport = P.InProcTransport()
        self.root = shared_trust_root()
        self.fee = eng.FeePolicy()
        self.model = builtin_model(model_id)
        self.participants = {}
        for name in ("owner", "alice", "bob"):
            self.participants[name] = P.Participant(
                shared_identity(name), self.root, self.transport, self.sim, self.fee,
                self.model, self.rng,
                acceptable_tasks=acceptable_tasks if name != "owner" else None,
            )
        owner_key = Keypair.generate(self.rng)
        funds = self.sim.grant(owner_key, [2_000_000])
        self.start_tx, token = make_instance(
            self.sim, owner_key, funds, self.fee, self.rng, estimate=8
        )
        self.owner().holdings.append(token)

    def owner(self):
        return self.participants["owner"]

    def handover(self, src, dst, task, data=b"payload-1", fault=None):
        sender = self.participants[src]
        terms = P.NegotiatedTerms(1, task, int(self.sim.now))
        session = sender.open_session(dst, terms)
        assert sender.negotiate(session), session.abort_reason
        assert sender.transfer_data(session, data), session.abort_reason
        assert sender.exchange_addresses(session), session.abort_reason
        if fault:
            session.fault_task_id = fault
        outcome = sender.run_sender(session)
        return session, outcome


def test_clean_handover_publishes_and_delivers_data():
    env = Env()
    session, outcome = env.handover("owner", "alice", 1)
    assert outcome.published
    assert session.state == P.SessionState.PUBLISHED
    alice = env.participants["alice"]
    rsession = alice.sessions[(1, "owner")]
    token = alice.confirm_receipt(rsession)
    assert token is not None and token.value > 0
    assert alice.process_data[1] == b"payload-1"
    assert env.sim.get_transaction(outcome.tx_id) is not None


def test_receiver_cannot_open_data_before_template():
    env = Env()
    sender = env.participants["owner"]
    terms = P.NegotiatedTerms(1, 1, int(env.sim.now))
    session = sender.open_session("alice", terms)
    assert sender.negotiate(session)
    assert sender.transfer_data(session, b"secret payload")
    rsession = env.participants["alice"].sessions[(1, "owner")]
    assert rsession.data_key is None  # key only arrives with the template
    assert rsession.ciphertext is not None
    with pytest.raises(P.ProtocolError):
        P.decrypt_process_data(P.new_data_key(env.rng), rsession.ciphertext)


def test_wrong_task_rejected_at_check3_with_extraordinary_end():
    env = Env()
    session, outcome = env.handover("owner", "alice", 1, fault=2)
    assert not outcome.published
    assert outcome.check == 3
    assert outcome.abort_tx_id is not None
    end_tx = env.sim.get_transaction(outcome.abort_tx_id)
    assert end_tx.data_block.extraordinary
    rsession = env.participants["alice"].sessions[(1, "owner")]
    assert rsession.state == P.SessionState.ABORTED
    assert rsession.abort_check == 3


def test_corrupted_data_source_rejected_at_check2():
    env = Env()
    sender = env.participants["owner"]
    terms = P.NegotiatedTerms(1, 1, int(env.sim.now))
    session = sender.open_session("alice", terms)
    assert sender.negotiate(session)
    assert sender.transfer_data(session, b"real payload")
    # the sender's recorded hash silently diverges from what was shipped
    session.data_hash = sha256(b"different payload")
    assert sender.exchange_addresses(session)
    outcome = sender.run_sender(session)
    assert not outcome.published and outcome.check == 2


def test_negotiation_rejected_for_unacceptable_task():
    env = Env(acceptable_tasks=frozenset({9}))
    sender = env.participants["owner"]
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not sender.negotiate(session)
    assert session.state == P.SessionState.ABORTED
    assert "not acceptable" in session.abort_reason


def test_timeout_aborts_session_and_charges_clock():
    env = Env()
    env.transport.drop_when(lambda s, d, k: k == P.FrameType.TEMPLATE_KEY)
    before = env.sim.now
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert "timeout" in session.abort_reason
    assert env.sim.now - before >= P.STEP_TIMEOUT


def test_unreachable_endpoint_times_out():
    env = Env()
    sender = env.participants["owner"]
    session = sender.open_session("ghost", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not sender.negotiate(session)
    assert "timeout" in session.abort_reason


def test_tampered_receiver_signature_blocks_broadcast():
    env = Env()
    original = env.transport.request

    def corrupting(src, dst, frame):
        reply = original(src, dst, frame)
        kind, body = P.split_frame(reply)
        if kind == P.FrameType.RECEIVER_SIG:
            (sig,) = P.unpack_fields(body, 1)
            bad = bytes([sig[0]]) + bytes([sig[1] ^ 0xFF]) + sig[2:]
            return P.make_frame(P.FrameType.RECEIVER_SIG, P.pack_fields(bad))
        return reply

    env.transport.request = corrupting
    mempool_before = set(env.sim.mempool_ids)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert "finalize" in session.abort_reason
    # state machine safety: nothing was broadcast without a valid signature
    handover_txs = set(env.sim.mempool_ids) - mempool_before
    assert all(
        env.sim.get_transaction(t).kind != eng.TxKind.HANDOVER for t in handover_txs
    )


def test_non_repudiation_artifacts():
    env = Env()
    session, outcome = env.handover("owner", "alice", 1)
    assert outcome.published
    rsession = env.participants["alice"].sessions[(1, "owner")]
    # receiver holds the sender's identity-signed template
    assert rsession.template_bytes and rsession.template_identity_sig
    sender_cert = rsession.peer_certificate
    assert P._rsa_verify(
        sender_cert.public_key_der,
        rsession.template_identity_sig,
        sha256(rsession.template_bytes + rsession.data_key),
    )
    # sender holds the receiver's transaction signature, which is also on chain
    final = env.sim.get_transaction(outcome.tx_id)
    assert final.data_block.receiver_signature == rsession.receiver_signature
    from chorchain.crypto import verify_with_key_hash

    assert verify_with_key_hash(
        eng.signing_digest(final), rsession.receiver_signature,
        rsession.receive_key.key_hash,
    )


def test_state_order_enforced():
    env = Env()
    sender = env.participants["owner"]
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    with pytest.raises(P.ProtocolError, match="cannot exchange addresses"):
        sender.exchange_addresses(session)
    with pytest.raises(P.ProtocolError, match="cannot run handover"):
        sender.run_sender(session)


def test_replayed_attestation_aborts():
    env = Env()
    captured = {}
    original = env.transport.request

    def capture(src, dst, frame):
        kind, _ = P.split_frame(frame)
        reply = original(src, dst, frame)
        if kind == P.FrameType.ADDR_ATTEST:
            captured["frame"] = frame
        return reply

    env.transport.request = capture
    session, outcome = env.handover("owner", "alice", 1)
    assert outcome.published
    # replay the captured sender attestation at bob: no session is open
    reply = original("owner", "bob", captured["frame"])
    kind, _ = P.split_frame(reply)
    assert kind == P.FrameType.ACK

    # replay against alice inside a fresh session awaiting the exchange
    from chorchain.encoding import build_redeem_script

    sender = env.participants["owner"]
    spare_key = Keypair.generate(env.rng)
    sender.holdings.append(
        eng.ProcessToken(1, b"\x00" * 32, 0, 500_000, spare_key,
                         build_redeem_script(spare_key.key_hash))
    )
    s2 = sender.open_session("alice", P.NegotiatedTerms(1, 2, int(env.sim.now)))
    assert sender.negotiate(s2)
    assert sender.transfer_data(s2, b"x")
    reply = original("owner", "alice", captured["frame"])
    kind, body = P.split_frame(reply)
    assert kind == P.FrameType.ACK
    assert b"replayed" in P.unpack_fields(body, 5)[2]


def test_session_cannot_skip_a_state():
    session = P.HandoverSession(P.Role.RECEIVER, "owner")
    with pytest.raises(P.ProtocolError, match="illegal transition"):
        session.advance(P.SessionState.ADDRESSES_EXCHANGED)
    session.advance(P.SessionState.DATA_TRANSFERRED)
    with pytest.raises(P.ProtocolError, match="illegal transition"):
        session.advance(P.SessionState.DATA_TRANSFERRED)


def capture_handover_frames(env):
    """The frames the owner sends alice in one clean handover, in order."""
    frames = []
    alice = env.participants["alice"]

    def endpoint(src, frame):
        frames.append(frame)
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)
    _, outcome = env.handover("owner", "alice", 1)
    assert outcome.published
    return frames


def ack_status(reply):
    kind, body = P.split_frame(reply)
    assert kind == P.FrameType.ACK
    status, _, detail, _, _ = P.unpack_fields(body, 5)
    return status[0], detail.decode()


def test_second_data_frame_is_refused_and_aborts():
    negotiate, data, _, _ = capture_handover_frames(Env())
    alice = Env().participants["alice"]
    alice.on_request("owner", negotiate)
    assert ack_status(alice.on_request("owner", data)) == (0, "")
    status, detail = ack_status(alice.on_request("owner", data))
    assert status == 1 and detail == "DATA out of order in state data_transferred"
    session = alice.sessions[(1, "owner")]
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason == detail


def test_attestation_before_data_is_refused_and_aborts():
    negotiate, _, attest, template = capture_handover_frames(Env())
    alice = Env().participants["alice"]
    alice.on_request("owner", negotiate)
    status, detail = ack_status(alice.on_request("owner", attest))
    assert status == 1 and detail == "ADDR_ATTEST out of order in state negotiating"
    assert alice.sessions[(1, "owner")].state == P.SessionState.ABORTED
    # the aborted session admits nothing more
    assert ack_status(alice.on_request("owner", template)) == (1, "no open session")


@functools.cache
def captured_frames():
    return tuple(capture_handover_frames(Env()))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(order=st.lists(st.integers(min_value=0, max_value=3), max_size=10))
@example(order=[0, 1, 2, 3])
@example(order=[0, 1, 1, 2, 3])
@example(order=[0, 2, 3])
@example(order=[0, 1, 2, 3, 0, 1, 2, 3])
def test_replayed_frames_in_any_order_never_raise(order):
    """Frames of a real handover, replayed at a fresh receiver in any order
    and with repeats, are answered; an out-of-order frame aborts the
    session, and only the captured order can reach the receiver's
    signature."""
    frames = captured_frames()
    alice = Env().participants["alice"]
    kinds = []
    for i in order:
        kind, _ = P.split_frame(alice.on_request("owner", frames[i]))
        kinds.append(kind)
    if P.FrameType.RECEIVER_SIG in kinds:
        assert order[: kinds.index(P.FrameType.RECEIVER_SIG) + 1][-4:] == [0, 1, 2, 3]
    for session in alice.sessions.values():
        if session.state == P.SessionState.ABORTED:
            assert session.abort_reason


def test_template_that_is_not_a_handover_is_refused():
    """A certified sender's identity signature does not make an input-less
    transaction a handover; the receiver refuses it instead of raising."""
    from chorchain.encoding import EnrichedTransaction, deserialize_transaction, serialize_transaction

    env = Env()
    alice, owner = env.participants["alice"], env.owner()

    def endpoint(src, frame):
        kind, body = P.split_frame(frame)
        if kind == P.FrameType.TEMPLATE_KEY:
            tx_bytes, key_hash, data_hash, data_key, _ = P.unpack_fields(body, 5)
            tx = deserialize_transaction(tx_bytes)
            bare = serialize_transaction(
                EnrichedTransaction(inputs=(), outputs=tuple(o for _, o in tx.token_outputs))
            )
            sig = owner.identity.sign(sha256(bare + data_key))
            frame = P.make_frame(kind, P.pack_fields(bare, key_hash, data_hash, data_key, sig))
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert "template is not a handover" in session.abort_reason
    rsession = alice.sessions[(1, "owner")]
    assert rsession.state == P.SessionState.ABORTED
    assert rsession.abort_reason == "template is not a handover"


# --- garbled frames ------------------------------------------------------------------


def garble(data, truncate, position, mask):
    """``data`` cut at a position, or with the byte there XOR-ed by ``mask``."""
    k = position % len(data)
    if truncate:
        return data[:k]
    return data[:k] + bytes([data[k] ^ mask]) + data[k + 1 :]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(
        [P.FrameType.NEGOTIATE, P.FrameType.DATA, P.FrameType.ADDR_ATTEST, P.FrameType.TEMPLATE_KEY]
    ),
    on_reply=st.booleans(),
    truncate=st.booleans(),
    position=st.integers(min_value=0, max_value=4096),
    mask=st.integers(min_value=1, max_value=255),
)
def test_garbled_frame_or_reply_ends_the_handover_without_raising(
    kind, on_reply, truncate, position, mask
):
    """One frame of the given kind, or the reply to it, is cut short or has
    one byte flipped between the parties. The handover never raises, and the
    sender's session ends published or aborted with a reason."""
    env = Env()
    alice = env.participants["alice"]

    def endpoint(src, frame):
        hit = P.split_frame(frame)[0] == kind
        if hit and not on_reply:
            frame = garble(frame, truncate, position, mask)
        reply = alice.on_request(src, frame)
        return garble(reply, truncate, position, mask) if hit and on_reply else reply

    env.transport.register("alice", endpoint)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    if (
        sender.negotiate(session)
        and sender.transfer_data(session, b"payload-1")
        and sender.exchange_addresses(session)
    ):
        sender.run_sender(session)
    assert session.state in (P.SessionState.PUBLISHED, P.SessionState.ABORTED)
    if session.state == P.SessionState.ABORTED:
        assert session.abort_reason


def test_truncated_frame_aborts_the_receivers_session():
    env = Env()
    alice = env.participants["alice"]
    env.transport.register(
        "alice",
        lambda src, frame: alice.on_request(
            src, frame[:-1] if P.split_frame(frame)[0] == P.FrameType.ADDR_ATTEST else frame
        ),
    )
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert sender.negotiate(session) and sender.transfer_data(session, b"x")
    assert not sender.exchange_addresses(session)
    assert "malformed frame" in session.abort_reason
    rsession = alice.sessions[(1, "owner")]
    assert rsession.state == P.SessionState.ABORTED
    assert "malformed frame" in rsession.abort_reason


def test_signed_template_that_does_not_parse_is_refused():
    """A certified sender's identity signature does not make its template
    bytes parse; the receiver refuses them instead of raising."""
    env = Env()
    alice, owner = env.participants["alice"], env.owner()

    def endpoint(src, frame):
        kind, body = P.split_frame(frame)
        if kind == P.FrameType.TEMPLATE_KEY:
            tx_bytes, key_hash, data_hash, data_key, _ = P.unpack_fields(body, 5)
            cut = tx_bytes[:10]
            sig = owner.identity.sign(sha256(cut + data_key))
            frame = P.make_frame(kind, P.pack_fields(cut, key_hash, data_hash, data_key, sig))
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert "malformed frame" in session.abort_reason
    assert alice.sessions[(1, "owner")].state == P.SessionState.ABORTED


def test_truncated_reply_aborts_the_senders_session():
    env = Env()
    alice = env.participants["alice"]
    env.transport.register("alice", lambda src, frame: alice.on_request(src, frame)[:-3])
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not sender.negotiate(session)
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason.startswith("malformed reply:")


def test_refusal_detail_that_is_not_utf8_still_aborts():
    env = Env()
    refusal = P.make_frame(P.FrameType.ACK, P.pack_fields(b"\x01", b"\x00", b"\xff\xfe", b"", b""))
    env.transport.register("alice", lambda src, frame: refusal)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not sender.negotiate(session)
    assert session.abort_reason.startswith("negotiation rejected:")


# --- owner monitoring ----------------------------------------------------------------


def chain_of_three(env):
    session, out1 = env.handover("owner", "alice", 1)
    assert out1.published
    alice = env.participants["alice"]
    alice.confirm_receipt(alice.sessions[(1, "owner")])
    _, out2 = env.handover("alice", "bob", 2, data=b"payload-2")
    assert out2.published
    bob = env.participants["bob"]
    bob.confirm_receipt(bob.sessions[(1, "alice")])
    _, out3 = env.handover("bob", "owner", 3, data=b"payload-3")
    assert out3.published
    owner = env.owner()
    owner.confirm_receipt(owner.sessions[(1, "bob")])
    return [out1.tx_id, out2.tx_id, out3.tx_id]


def test_owner_collects_identities_in_order():
    env = Env(model_id=1)
    tx_ids = chain_of_three(env)
    monitor = P.OwnerMonitor(env.owner(), env.start_tx.tx_id, 1)
    report = monitor.collect()
    handovers = [e for e in report.entries if e.kind == "handover"]
    assert [e.participant for e in handovers] == ["alice", "bob", "owner"]
    assert [e.tx_id for e in handovers] == tx_ids
    assert not any(e.gap for e in handovers)


def take_offline(transport, name):
    """Every later request to ``name`` times out, as to an unknown endpoint."""

    def unreachable(src, frame):
        raise P.TransportTimeout(f"endpoint {name!r} unreachable")

    transport.register(name, unreachable)


def test_offline_participant_leaves_gap_but_monitoring_continues():
    env = Env(model_id=1)
    chain_of_three(env)
    take_offline(env.transport, "alice")  # alice cannot answer identity queries
    monitor = P.OwnerMonitor(env.owner(), env.start_tx.tx_id, 1)
    report = monitor.collect()
    handovers = [e for e in report.entries if e.kind == "handover"]
    # first handover known from the owner's own records; second needs alice
    assert handovers[0].participant == "alice"
    assert handovers[1].gap and handovers[1].participant is None
    assert len(handovers) == 3  # later handovers still observed


def test_garbled_identity_reply_leaves_gap():
    env = Env(model_id=1)
    chain_of_three(env)
    alice = env.participants["alice"]
    env.transport.register("alice", lambda src, frame: alice.on_request(src, frame)[:-1])
    report = P.OwnerMonitor(env.owner(), env.start_tx.tx_id, 1).collect()
    handovers = [e for e in report.entries if e.kind == "handover"]
    assert handovers[0].participant == "alice"
    assert handovers[1].gap and handovers[1].participant is None
    assert len(handovers) == 3


def test_empty_report_when_nothing_new():
    env = Env(model_id=1)
    monitor = P.OwnerMonitor(env.owner(), env.start_tx.tx_id, 1)
    report = monitor.collect()
    assert report.entries == ()

