import functools
import random
import re
from dataclasses import replace
from pathlib import Path

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


def test_wire_formats_frame_table_matches_frame_types():
    """The frame table in docs/wire-formats.md has one row per FrameType,
    with its tag and name, and no other row."""
    doc = (Path(__file__).parents[1] / "docs" / "wire-formats.md").read_text()
    section = doc.split("## Protocol frames", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (0x[0-9A-Fa-f]{2}) +\| (\w+) *\|", section, re.MULTILINE)
    assert sorted((int(tag, 16), name) for tag, name in rows) == sorted(
        (kind.value, kind.name) for kind in P.FrameType
    )


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.binary(max_size=300), max_size=3),
    edit=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=400), st.binary(max_size=9)),
    ),
)
@example(fields=[b"ab"], edit=(0, b"\xff\x02\x00\x00\x00"))  # 0xFF read as 4 bytes
@example(fields=[b"ab"], edit=(0, b"\xfd\x02\x00"))  # 0xFD for a length below 0xFD
@example(fields=[b"ab"], edit=(0, b"\xfe\x02\x00\x00\x00"))
@example(fields=[bytes(300)], edit=(0, b"\xfe\x2c\x01\x00\x00"))  # 0xFE below 2^16
def test_unpack_fields_accepts_only_what_pack_fields_writes(fields, edit):
    """A packed frame, with bytes spliced in at a position; whatever
    unpack_fields accepts, pack_fields writes back byte for byte."""
    data = P.pack_fields(*fields)
    if edit is not None:
        at, spliced = edit
        at = min(at, len(data))
        data = data[:at] + spliced + data[at + 1 :]
    count = len(fields)
    try:
        out = P.unpack_fields(data, count)
    except P.FrameError:
        return
    assert P.pack_fields(*out) == data


def test_negotiated_terms_roundtrip():
    terms = P.NegotiatedTerms(42, 7, 123456)
    assert P.NegotiatedTerms.from_bytes(terms.to_bytes()) == terms


# --- PKI ------------------------------------------------------------------------


def test_certificate_issue_and_check():
    root = shared_trust_root()
    ident = shared_identity("cert-check")
    root.check(ident.certificate, NOW, set())


def test_expired_certificate_rejected():
    root = P.TrustRoot(now=0)
    ident = root.issue("shortlived", now=0, lifetime=10)
    with pytest.raises(P.CertificateError, match="validity"):
        root.check(ident.certificate, 11, set())


def test_foreign_issuer_rejected():
    root = P.TrustRoot(now=0)
    other = P.TrustRoot(name="rogue-root", now=0)
    ident = other.issue("mallory", now=0)
    with pytest.raises(P.CertificateError):
        root.check(ident.certificate, 5, set())


def test_forged_certificate_rejected():
    from dataclasses import replace

    root = P.TrustRoot(now=0)
    ident = root.issue("honest", now=0)
    forged = replace(ident.certificate, subject="dishonest")
    with pytest.raises(P.CertificateError, match="signature"):
        root.check(forged, 5, set())


def test_root_check_remembers_only_what_it_verified():
    root = P.TrustRoot(now=0)
    ident, checker = root.issue("alice", now=0), root.issue("bob", now=0)
    forged = replace(ident.certificate, subject="mallory")
    with pytest.raises(P.CertificateError, match="signature"):
        root.check(forged, 5, checker.vouched)
    assert not checker.vouched
    root.check(ident.certificate, 5, checker.vouched)
    assert checker.vouched == {(root.identity.certificate, ident.certificate)}
    with pytest.raises(P.CertificateError, match="validity"):
        root.check(ident.certificate, 2**40, checker.vouched)


def test_attestation_verify_and_replay():
    root = P.TrustRoot(now=0)
    ident = root.issue("alice", now=0)
    rng = random.Random(3)
    att = P.make_attestation(ident, b"\x01" * 20, 7, rng)
    seen = set()
    P.verify_attestation(att, ident.certificate, 5, seen)
    with pytest.raises(P.CertificateError, match="replayed"):
        P.verify_attestation(att, ident.certificate, 5, seen)


def test_attestation_wrong_signer_rejected():
    from dataclasses import replace

    root = P.TrustRoot(now=0)
    alice = root.issue("alice", now=0)
    bob = root.issue("bob", now=0)
    att = P.make_attestation(alice, b"\x01" * 20, 7, random.Random(3))
    swapped = replace(att, certificate=bob.certificate)
    with pytest.raises(P.CertificateError, match="signature"):
        P.verify_attestation(swapped, bob.certificate, 5, set())


def test_attestation_in_session_needs_the_negotiated_certificate():
    """Within a session the attestation must carry the certificate checked
    at NEGOTIATE; its validity window is still checked."""
    root = P.TrustRoot(now=0)
    ident = root.issue("alice", now=0, lifetime=10)
    twin = root.issue("alice", now=0, lifetime=10)  # same subject, another key
    att = P.make_attestation(twin, b"\x01" * 20, 7, random.Random(3))
    with pytest.raises(P.CertificateError, match="differs from the one negotiated"):
        P.verify_attestation(att, ident.certificate, 5, set())
    own = P.make_attestation(ident, b"\x01" * 20, 7, random.Random(3))
    P.verify_attestation(own, ident.certificate, 5, set())
    with pytest.raises(P.CertificateError, match="validity"):
        P.verify_attestation(own, ident.certificate, 11, set())


@functools.cache
def foreign_keys():
    """SubjectPublicKeyInfo DER of keys of other types than Ed25519."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec, rsa, x25519

    keys = [
        rsa.generate_private_key(public_exponent=65537, key_size=1024),
        ec.generate_private_key(ec.SECP256R1()),
        x25519.X25519PrivateKey.generate(),
    ]
    return tuple(
        k.public_key().public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )
        for k in keys
    )


def test_identity_keys_and_signatures_have_the_ed25519_sizes():
    ident = shared_identity("cert-check")
    assert len(ident.certificate.public_key_der) == 44
    assert len(ident.certificate.signature) == 64
    assert len(ident.sign(b"terms")) == 64


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(["der", "signature", "foreign"]),
    truncate=st.booleans(),
    position=st.integers(min_value=0, max_value=100),
    spliced=st.binary(max_size=4),
    foreign=st.integers(min_value=0, max_value=2),
)
@example(target="signature", truncate=True, position=0, spliced=b"", foreign=0)
@example(target="der", truncate=True, position=0, spliced=b"", foreign=0)
@example(target="foreign", truncate=False, position=0, spliced=b"", foreign=0)
def test_identity_verify_is_false_on_any_edit_and_never_raises(
    target, truncate, position, spliced, foreign
):
    """A certificate key or a signature cut short or with bytes spliced in,
    and a key of another type, verify False instead of raising; only the
    unedited pair verifies."""
    ident = shared_identity("cert-check")
    data = b"signed terms"
    der, sig = ident.certificate.public_key_der, ident.sign(data)

    def edit(blob):
        k = position % (len(blob) + 1)
        return blob[:k] if truncate else blob[:k] + spliced + blob[k + 1 :]

    if target == "foreign":
        edited_der, edited_sig = foreign_keys()[foreign], sig
    elif target == "der":
        edited_der, edited_sig = edit(der), sig
    else:
        edited_der, edited_sig = der, edit(sig)
    verdict = P._identity_verify(edited_der, edited_sig, data)
    assert verdict is ((edited_der, edited_sig) == (der, sig))


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
    """Two participants wired over an in-process transport and a simulator.
    Their identities are the harness's shared ones, or, given a ``root``,
    fresh ones that root issues."""

    def __init__(self, seed=21, model_id=1, root=None):
        self.rng = random.Random(seed)
        self.sim = ChainSim(SimConfig(seed=seed, block_interval_mean=6.0))
        self.transport = P.InProcTransport()
        self.root = root or shared_trust_root()
        self.fee = eng.FeePolicy()
        self.model = builtin_model(model_id)
        self.participants = {}
        for name in ("owner", "alice", "bob"):
            identity = root.issue(name, now=0, lifetime=2**33) if root else shared_identity(name)
            self.participants[name] = P.Participant(
                identity, self.root, self.transport, self.sim, self.fee, self.model, self.rng
            )
        owner_key = Keypair.generate(self.rng)
        funds = self.sim.grant(owner_key, [2_000_000])
        self.start_tx, token = make_instance(
            self.sim, owner_key, funds, self.fee, self.rng, estimate=8
        )
        self.owner().holdings.append(token)

    def owner(self):
        return self.participants["owner"]

    def add_instance(self, process_id):
        """Another instance whose token the owner holds."""
        key = Keypair.generate(self.rng)
        funds = self.sim.grant(key, [2_000_000])
        _, token = make_instance(self.sim, key, funds, self.fee, self.rng, process_id=process_id)
        self.owner().holdings.append(token)

    def handover(self, src, dst, task, data=b"payload-1", fault=None, process_id=1):
        sender = self.participants[src]
        terms = P.NegotiatedTerms(process_id, task, int(self.sim.now))
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


def test_second_process_from_one_sender_gets_its_own_session():
    """Alice's process-1 session still waits for its handover to show on
    the chain when the owner hands her process 2. The frames of the second
    handover go to the session its NEGOTIATE opened, and alice confirms
    both handovers."""
    env = Env()
    owner, alice = env.owner(), env.participants["alice"]
    env.add_instance(2)
    _, first = env.handover("owner", "alice", 1)
    assert first.published
    assert alice.sessions[(1, "owner")].state == P.SessionState.RECEIVER_SIGNED
    session, second = env.handover("owner", "alice", 1, data=b"payload-2", process_id=2)
    assert second.published, session.abort_reason
    for pid in (1, 2):
        assert alice.confirm_receipt(alice.sessions[(pid, "owner")]) is not None
    assert sorted(t.process_id for t in alice.holdings) == [1, 2]
    assert alice.process_data == {1: b"payload-1", 2: b"payload-2"}
    assert owner.holdings == [] and owner.sessions == {}  # a sender stores no session


def test_refused_publish_keeps_the_holdings():
    from dataclasses import replace

    env = Env()
    owner = env.owner()
    token = owner.token_for(1)
    ghost = replace(token, tx_id=bytes(32))  # an outpoint no transaction made
    tx = eng.build_end(ghost, ghost.holder_key, int(env.sim.now), env.fee)
    result = owner.publish(tx, spent=(token,), minted=(ghost,))
    assert not result.accepted and result.reason == "missing-input"
    assert owner.holdings == [token]


def test_accepted_publish_swaps_spent_for_minted():
    env = Env()
    owner = env.owner()
    token = owner.token_for(1)
    tx, branches = eng.build_split(token, 2, int(env.sim.now), env.fee, env.rng)
    charged = env.sim.phase_seconds.get("broadcast", 0.0)
    assert owner.publish(tx, spent=(token,), minted=branches).accepted
    assert owner.holdings == branches
    assert env.sim.get_transaction(tx.tx_id) is not None
    assert env.sim.phase_seconds["broadcast"] == pytest.approx(charged + P.LOGIC_COST)


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


def rewrite_receiver_sig(env, rewrite):
    """Route alice's RECEIVER_SIG reply to the sender as the fields
    ``rewrite(signature, public_key)`` returns."""
    alice = env.participants["alice"]

    def endpoint(src, frame):
        reply = alice.on_request(src, frame)
        kind, body = P.split_frame(reply)
        if kind == P.FrameType.RECEIVER_SIG:
            reply = P.make_frame(kind, P.pack_fields(*rewrite(*P.unpack_fields(body, 2))))
        return reply

    env.transport.register("alice", endpoint)


def no_handover_published(env, mempool_before):
    return all(
        env.sim.get_transaction(t).kind != eng.TxKind.HANDOVER
        for t in set(env.sim.mempool_ids) - mempool_before
    )


def test_tampered_receiver_signature_blocks_broadcast():
    env = Env()
    rewrite_receiver_sig(env, lambda sig, key: (sig[:1] + bytes([sig[1] ^ 0xFF]) + sig[2:], key))
    mempool_before = set(env.sim.mempool_ids)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert "finalize" in session.abort_reason
    # state machine safety: nothing was broadcast without a valid signature
    assert no_handover_published(env, mempool_before)


def test_receiver_key_off_the_attested_hash_blocks_broadcast():
    """A genuine receiver signature paired with a key that does not hash to
    the attested one is refused before any signature check."""
    env = Env()
    stranger = Keypair.generate(random.Random(9)).public_key
    rewrite_receiver_sig(env, lambda sig, key: (sig, stranger))
    mempool_before = set(env.sim.mempool_ids)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert session.abort_reason == "finalize: receiver key does not hash to the token key"
    assert no_handover_published(env, mempool_before)
    assert env.owner().token_for(1).tx_id == env.start_tx.tx_id


def test_receiver_signature_without_its_key_is_a_malformed_reply():
    """The one-field RECEIVER_SIG of the earlier layout aborts the sender's
    session as a reply that does not parse."""
    env = Env()
    rewrite_receiver_sig(env, lambda sig, key: (sig,))
    mempool_before = set(env.sim.mempool_ids)
    session, outcome = env.handover("owner", "alice", 1)
    assert not outcome.published
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason == "malformed reply: frame truncated"
    assert no_handover_published(env, mempool_before)


def test_one_handover_makes_the_expected_public_key_operations(monkeypatch):
    """Per handover: five identity signatures and five verifications of
    them, and two root checks at NEGOTIATE. The root's signature on each
    peer certificate is verified at the pair's first handover only, so the
    identities are fresh ones from a fresh root. The sender checks the
    receiver's transaction signature with one verification against the
    revealed key, and nothing recovers a key."""
    from chorchain import crypto

    env = Env(root=P.TrustRoot(now=0))
    env.add_instance(2)
    counts = {}
    root_der = env.root.identity.certificate.public_key_der

    def counting(name, fn, key=None):
        def wrapped(*args):
            label = key(*args) if key else name
            counts[label] = counts.get(label, 0) + 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(P.Identity, "sign", counting("sign", P.Identity.sign))
    monkeypatch.setattr(P.TrustRoot, "check", counting("check", P.TrustRoot.check))
    monkeypatch.setattr(
        P, "_identity_verify",
        counting(None, P._identity_verify, lambda der, *_: "root" if der == root_der else "verify"),
    )
    monkeypatch.setattr(crypto, "recover_candidates", counting("recover", crypto.recover_candidates))
    monkeypatch.setattr(eng, "verify", counting("ecdsa", eng.verify))
    finalize = eng.finalize_and_sign_as_sender

    def counted_finalize(*args):
        before = counts.get("ecdsa", 0)
        final = finalize(*args)
        counts["sender ecdsa"] = counts.get("ecdsa", 0) - before
        return final

    monkeypatch.setattr(eng, "finalize_and_sign_as_sender", counted_finalize)
    for process_id, root_verifications in ((1, 2), (2, 0)):
        counts.clear()
        counts["root"] = 0
        _, outcome = env.handover("owner", "alice", 1, process_id=process_id)
        assert outcome.published
        counts.pop("ecdsa")  # the chain's script check of the broadcast counts here too
        assert counts == {
            "sign": 5, "verify": 5, "root": root_verifications, "check": 2, "sender ecdsa": 1
        }


def negotiate_second_handover(env):
    """The owner negotiates a second handover to alice, of a new instance;
    returns the session and whether negotiation succeeded."""
    env.add_instance(2)
    owner = env.owner()
    session = owner.open_session("alice", P.NegotiatedTerms(2, 1, int(env.sim.now)))
    return session, owner.negotiate(session)


@pytest.mark.parametrize("kind", ["expired", "other root", "one field"])
def test_second_handover_still_refuses_a_bad_certificate(kind):
    """Alice vouched for the owner's certificate at their first handover. At
    the second she still refuses it once it has expired; a certificate for
    the owner signed by another root of the same name, or one that differs
    from the vouched certificate in one field, is checked in full."""
    root = P.TrustRoot(now=0)
    env = Env(root=root)
    owner = env.owner()
    if kind == "expired":
        owner.identity = root.issue("owner", now=0, lifetime=int(env.sim.now) + 100)
    _, first = env.handover("owner", "alice", 1)
    assert first.published
    if kind == "expired":
        env.sim.advance_time(200)
    elif kind == "other root":
        impostor = P.TrustRoot(name=root.name, now=0)
        owner.identity = impostor.issue("owner", now=0, lifetime=2**33)
    else:
        cert = replace(owner.identity.certificate, not_after=2**33 + 1)
        owner.identity = P.Identity("owner", owner.identity._key, cert)
    session, ok = negotiate_second_handover(env)
    assert not ok
    want = "validity window" if kind == "expired" else "certificate signature invalid"
    assert want in session.abort_reason


def test_a_participant_trusting_another_root_inherits_nothing():
    """The vouched pairs name the root that signed: once alice trusts
    another root of the same name, the owner's certificate she vouched for
    under the first root is checked in full, and refused."""
    root = P.TrustRoot(now=0)
    env = Env(root=root)
    _, first = env.handover("owner", "alice", 1)
    assert first.published
    env.participants["alice"].root = P.TrustRoot(name=root.name, now=0)
    session, ok = negotiate_second_handover(env)
    assert not ok
    assert "certificate signature invalid" in session.abort_reason


def test_non_repudiation_artifacts():
    env = Env()
    session, outcome = env.handover("owner", "alice", 1)
    assert outcome.published
    rsession = env.participants["alice"].sessions[(1, "owner")]
    # receiver holds the sender's identity-signed template
    assert rsession.template_bytes and rsession.template_identity_sig
    sender_cert = rsession.peer_certificate
    assert P._identity_verify(
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


def second_certificate(name):
    """Another identity the shared root issues for ``name``: the same
    subject under another key."""
    return shared_trust_root().issue(name, now=0, lifetime=2**33)


def test_receiver_refuses_an_attestation_under_a_second_certificate():
    env = Env()
    alice, twin = env.participants["alice"], second_certificate("owner")

    def endpoint(src, frame):
        kind, body = P.split_frame(frame)
        if kind == P.FrameType.ADDR_ATTEST:
            att = P.AddressAttestation.from_bytes(body)
            forged = P.make_attestation(twin, att.bitcoin_key_hash, 1, random.Random(9))
            frame = P.make_frame(kind, forged.to_bytes())
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert sender.negotiate(session) and sender.transfer_data(session, b"x")
    assert not sender.exchange_addresses(session)
    assert session.abort_reason == (
        "address exchange rejected: certificate differs from the one negotiated"
    )
    rsession = alice.sessions[(1, "owner")]
    assert rsession.state == P.SessionState.ABORTED
    assert rsession.abort_reason == (
        "address attestation: certificate differs from the one negotiated"
    )


def test_sender_refuses_an_attestation_under_a_second_certificate():
    env = Env()
    alice, twin = env.participants["alice"], second_certificate("alice")

    def endpoint(src, frame):
        reply = alice.on_request(src, frame)
        kind, body = P.split_frame(reply)
        if kind == P.FrameType.ADDR_ATTEST:
            att = P.AddressAttestation.from_bytes(body)
            forged = P.make_attestation(twin, att.bitcoin_key_hash, 1, random.Random(9))
            reply = P.make_frame(kind, forged.to_bytes())
        return reply

    env.transport.register("alice", endpoint)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert sender.negotiate(session) and sender.transfer_data(session, b"x")
    assert not sender.exchange_addresses(session)
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason == (
        "address attestation: certificate differs from the one negotiated"
    )


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
    session = P.HandoverSession("owner")
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
            tx_bytes, data_key, _ = P.unpack_fields(body, 3)
            tx = deserialize_transaction(tx_bytes)
            bare = serialize_transaction(
                EnrichedTransaction(inputs=(), outputs=tuple(o for _, o in tx.token_outputs))
            )
            sig = owner.identity.sign(sha256(bare + data_key))
            frame = P.make_frame(kind, P.pack_fields(bare, data_key, sig))
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
            tx_bytes, data_key, _ = P.unpack_fields(body, 3)
            cut = tx_bytes[:10]
            sig = owner.identity.sign(sha256(cut + data_key))
            frame = P.make_frame(kind, P.pack_fields(cut, data_key, sig))
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


# --- fixed-width frame fields ---------------------------------------------------------


def replace_negotiate(env, rewrite):
    """Route the owner's NEGOTIATE to alice as ``rewrite(terms, cert, sig)``
    returns it; every other frame passes unchanged."""
    alice = env.participants["alice"]

    def endpoint(src, frame):
        kind, body = P.split_frame(frame)
        if kind == P.FrameType.NEGOTIATE:
            frame = P.make_frame(kind, P.pack_fields(*rewrite(*P.unpack_fields(body, 3))))
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)


def test_unsigned_certificate_with_a_wide_validity_field_aborts():
    """A 9-byte not_before is refused as it is parsed, before the receiver
    re-encodes the certificate to check its signature."""
    env = Env()

    def rewrite(terms, cert_bytes, sig):
        subject, key, _, na, issuer, _ = P.unpack_fields(cert_bytes, 6)
        wide = P.pack_fields(subject, key, b"\x01" + bytes(8), na, issuer, b"")
        return terms, wide, sig

    replace_negotiate(env, rewrite)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not sender.negotiate(session)
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason.startswith("negotiation rejected: malformed frame:")
    assert "not_before is 9 bytes, not 8" in session.abort_reason
    assert env.participants["alice"].sessions == {}


def test_certified_terms_with_a_wide_process_id_abort():
    """Terms the certified owner really signed, with a 3-byte process id, are
    refused instead of overflowing when the receiver echoes them."""
    env = Env()
    owner = env.owner()

    def rewrite(terms, cert_bytes, sig):
        _, task, ts = P.unpack_fields(terms, 3)
        wide = P.pack_fields(b"\x01\x00\x01", task, ts)
        return wide, cert_bytes, owner.identity.sign(wide)

    replace_negotiate(env, rewrite)
    session = owner.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert not owner.negotiate(session)
    assert session.state == P.SessionState.ABORTED
    assert "process id is 3 bytes, not 2" in session.abort_reason
    assert env.participants["alice"].sessions == {}


def test_certified_receiver_attesting_a_short_key_hash_aborts():
    """A 19-byte key hash, attested under alice's real identity, would lock
    the handover to an output the encoder refuses; the sender aborts on the
    reply instead."""
    env = Env()
    alice = env.participants["alice"]

    def endpoint(src, frame):
        reply = alice.on_request(src, frame)
        if P.split_frame(frame)[0] == P.FrameType.ADDR_ATTEST:
            att = P.make_attestation(alice.identity, b"\x01" * 19, 1, random.Random(9))
            reply = P.make_frame(P.FrameType.ADDR_ATTEST, att.to_bytes())
        return reply

    env.transport.register("alice", endpoint)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert sender.negotiate(session) and sender.transfer_data(session, b"x")
    if sender.exchange_addresses(session):
        sender.run_sender(session)
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason == "malformed reply: attested key hash is 19 bytes, not 20"


def test_data_frame_with_a_short_nonce_aborts():
    """The DATA frame is not signed, and a 7-byte AES-GCM nonce would make
    the decryption raise once the key arrives; the receiver refuses it when
    the frame arrives."""
    env = Env()
    alice = env.participants["alice"]

    def endpoint(src, frame):
        kind, body = P.split_frame(frame)
        if kind == P.FrameType.DATA:
            key_id, nonce, ciphertext = P.unpack_fields(body, 3)
            frame = P.make_frame(kind, P.pack_fields(key_id, nonce[:7], ciphertext))
        return alice.on_request(src, frame)

    env.transport.register("alice", endpoint)
    sender = env.owner()
    session = sender.open_session("alice", P.NegotiatedTerms(1, 1, int(env.sim.now)))
    assert sender.negotiate(session)
    if sender.transfer_data(session, b"x") and sender.exchange_addresses(session):
        sender.run_sender(session)
    assert session.state == P.SessionState.ABORTED
    assert session.abort_reason == "data transfer not acknowledged"
    rsession = alice.sessions[(1, "owner")]
    assert rsession.abort_reason == "malformed frame: data nonce is 7 bytes, not 12"


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (P.NegotiatedTerms, (b"\x00\x01", b"", b"\x00" * 4), "task id is 0 bytes, not 1"),
        (P.NegotiatedTerms, (b"\x00\x01", b"\x01", b"\x00" * 5), "timestamp is 5 bytes, not 4"),
        (P.AddressAttestation, (b"\x01" * 20, b"\x00", b"\x00" * 16, b"", b""), "process id"),
        (P.AddressAttestation, (b"\x01" * 20, b"\x00\x01", b"\x00" * 15, b"", b""), "nonce"),
        (P.EncryptedProcessData, (b"\x00" * 9, b"\x00" * 12, b""), "key id is 9 bytes, not 8"),
        (P.Certificate, (b"x", b"key", bytes(8), bytes(7), b"root", b""), "not_after is 7 bytes"),
    ],
)
def test_fixed_width_fields_are_frame_errors(cls, fields, message):
    with pytest.raises(P.FrameError, match=message):
        cls.from_bytes(P.pack_fields(*fields))


def test_frame_with_a_retired_tag_is_refused():
    """Tags 0x07 and 0x08 name no frame type: the receiver answers them as
    malformed and does not raise."""
    alice = Env().participants["alice"]
    for tag in (0x07, 0x08):
        frame = bytes([tag]) + P.pack_fields(bytes(32))
        assert ack_status(alice.on_request("owner", frame)) == (
            1, f"malformed frame: unknown frame tag 0x{tag:02x}"
        )
