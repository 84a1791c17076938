"""Six-step handover protocol between choreography participants.

The flow, driven by the sending side and answered synchronously by the
receiver, is:

1. negotiate terms under mutual PKI identification,
2. transfer the symmetrically encrypted process data (hash retained by the
   sender; the receiver cannot open it yet),
3. exchange freshly generated transaction addresses; the receiver signs
   its answer over the session transcript,
4. build the handover-transaction template,
5. send the template (the unsigned handover transaction) and the data key
   under the sender's signature over the session transcript; the receiver
   runs its four checks, signs the template with its fresh transaction key
   and answers with the signature and that key,
6. finalize with the sender's signature and broadcast.

A rejected template aborts the session and the sender closes the instance
with an extraordinary end transaction. After a successful publication the
receiver picks its new token off the chain: watching for that transaction
is also how it proves the sender really broadcast what both parties signed.

Identities are Ed25519 certificates issued by a single self-signed trust
root; transaction keys are separate, fresh per handover. At NEGOTIATE,
which is unsigned, each side checks that the peer's certificate names the
peer and comes from the root, whose signature on it is verified once per
certificate. Each party then signs once per handover, over the session
transcript (every frame and reply so far, as in TLS 1.3's
CertificateVerify), under the negotiated certificate: the receiver in its
ADDR_ATTEST answer, the sender in TEMPLATE_KEY. Both nonces are in every
signed transcript, which binds each signed frame to one session. The
receiver's transaction signature comes with the public key it was made
with, and the sender checks it against that key.
All messages are tagged binary frames (one length-prefixed byte string per
field), carried by the in-process channel. A frame or reply that does not
parse, and a frame that arrives out of protocol order, aborts the session
instead of raising.

Each participant holds one handle on the chain, the simulator: it charges
its protocol work there as simulated time, and reads the chain only through
a :class:`~chorchain.provider.ProviderChainView` over it, as a thin client
would. A participant owns its tokens, its copy of each instance's data and
the sessions it receives. It builds its own start, split, join, end and
handover transactions, and :meth:`Participant.publish` is its one way to
broadcast them: a transaction the chain accepts swaps the tokens it spends
for the tokens it mints.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Protocol

from cryptography.exceptions import InvalidSignature, InvalidTag, UnsupportedAlgorithm
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import engine as eng
from . import model as model_mod
from .chain import BroadcastResult
from .crypto import Keypair, sha256, sign
from .encoding import (
    _VARINT_SIZES,
    EncodingError,
    EnrichedTransaction,
    TxKind,
    _varint,
    deserialize_transaction,
    serialize_transaction,
    signing_digest,
)
from .provider import ProviderChainView

STEP_TIMEOUT = 30.0  # simulated seconds per awaited reply
LOGIC_COST = 0.002  # simulated seconds charged per protocol step
NONCE_SIZE = 16


class ProtocolError(Exception):
    pass


class CertificateError(ProtocolError):
    pass


class TransportTimeout(ProtocolError):
    pass


class FrameError(ProtocolError):
    pass


# --- frame codec -----------------------------------------------------------------


class FrameType(Enum):
    NEGOTIATE = 0x01
    DATA = 0x02
    ADDR_ATTEST = 0x03
    TEMPLATE_KEY = 0x04
    RECEIVER_SIG = 0x05
    ACK = 0x06


def _fixed(field: bytes, width: int, name: str) -> bytes:
    """A fixed-width frame field, checked before it is read as a number or
    used as a hash or nonce."""
    if len(field) != width:
        raise FrameError(f"{name} is {len(field)} bytes, not {width}")
    return field


def pack_fields(*fields: bytes) -> bytes:
    return b"".join(_varint(len(f)) + f for f in fields)


def unpack_fields(data: bytes, count: int) -> list[bytes]:
    """The ``count`` fields of :func:`pack_fields` output. Anything else is a
    FrameError, a length prefix that is not in shortest form included."""
    out = []
    pos = 0
    for _ in range(count):
        if pos >= len(data):
            raise FrameError("frame truncated")
        first = data[pos]
        prefix = data[pos : pos + 1 + _VARINT_SIZES.get(first, 0)]
        ln = int.from_bytes(prefix[1:], "little") if first >= 0xFD else first
        if prefix != _varint(ln):
            raise FrameError("field length prefix truncated or not in shortest form")
        pos += len(prefix)
        if pos + ln > len(data):
            raise FrameError("frame field runs past end")
        out.append(data[pos : pos + ln])
        pos += ln
    if pos != len(data):
        raise FrameError("trailing bytes in frame")
    return out


def make_frame(kind: FrameType, payload: bytes) -> bytes:
    return bytes([kind.value]) + payload


def split_frame(frame: bytes) -> tuple[FrameType, bytes]:
    if not frame:
        raise FrameError("empty frame")
    try:
        kind = FrameType(frame[0])
    except ValueError:
        raise FrameError(f"unknown frame tag 0x{frame[0]:02x}") from None
    return kind, frame[1:]


# --- PKI -------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    subject: str
    public_key_der: bytes
    not_before: int
    not_after: int
    issuer: str
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return pack_fields(
            self.subject.encode(),
            self.public_key_der,
            self.not_before.to_bytes(8, "big"),
            self.not_after.to_bytes(8, "big"),
            self.issuer.encode(),
        )

    def to_bytes(self) -> bytes:
        return self.signed_payload() + pack_fields(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        subject, key, nb, na, issuer, sig = unpack_fields(data, 6)
        try:
            subject_name, issuer_name = subject.decode(), issuer.decode()
        except UnicodeDecodeError:
            raise FrameError("certificate name is not UTF-8") from None
        return cls(
            subject_name,
            key,
            int.from_bytes(_fixed(nb, 8, "not_before"), "big"),
            int.from_bytes(_fixed(na, 8, "not_after"), "big"),
            issuer_name,
            sig,
        )

    def check_validity(self, now: int) -> None:
        if not self.not_before <= now <= self.not_after:
            raise CertificateError(f"certificate for {self.subject!r} outside validity window")


def _identity_sign(private_key: ed25519.Ed25519PrivateKey, data: bytes) -> bytes:
    return private_key.sign(data)


def _identity_verify(public_key_der: bytes, signature: bytes, data: bytes) -> bool:
    """Whether ``signature`` is the Ed25519 signature of ``data`` under the
    key of a certificate. A key that does not load as an Ed25519
    SubjectPublicKeyInfo, and a signature of any other form, are False."""
    try:
        key = serialization.load_der_public_key(public_key_der)
    except (ValueError, UnsupportedAlgorithm):
        return False
    if not isinstance(key, ed25519.Ed25519PublicKey):
        return False
    try:
        key.verify(signature, data)
    except InvalidSignature:
        return False
    return True


def _new_key() -> tuple[ed25519.Ed25519PrivateKey, bytes]:
    """A fresh identity key and the DER SubjectPublicKeyInfo of its public half."""
    key = ed25519.Ed25519PrivateKey.generate()
    der = key.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    return key, der


class Identity:
    """A participant's long-lived signing identity plus its certificate.

    ``vouched`` is what the holder has learned about other certificates: the
    (root certificate, peer certificate) pairs whose root signature it has
    verified, passed to :meth:`TrustRoot.check` so that each is verified once.
    """

    def __init__(
        self, name: str, private_key: ed25519.Ed25519PrivateKey, certificate: Certificate
    ):
        self.name = name
        self._key = private_key
        self.certificate = certificate
        self.vouched: set[tuple[Certificate, Certificate]] = set()

    def sign(self, data: bytes) -> bytes:
        return _identity_sign(self._key, data)


class TrustRoot:
    """Self-signed root that issues every participant certificate."""

    def __init__(self, name: str = "trust-root", lifetime: int = 10 * 365 * 86400, now: int = 0):
        self._key, der = _new_key()
        cert = Certificate(name, der, now, now + lifetime, name)
        cert = replace(cert, signature=_identity_sign(self._key, cert.signed_payload()))
        self.identity = Identity(name, self._key, cert)

    @property
    def name(self) -> str:
        return self.identity.name

    def issue(self, name: str, now: int, lifetime: int = 365 * 86400) -> Identity:
        key, der = _new_key()
        cert = Certificate(name, der, now, now + lifetime, self.name)
        cert = replace(cert, signature=_identity_sign(self._key, cert.signed_payload()))
        return Identity(name, key, cert)

    def check(
        self, cert: Certificate, now: int, vouched: set[tuple[Certificate, Certificate]]
    ) -> None:
        """Refuse a certificate this root did not issue or that is outside its
        validity window. The root's signature is verified only for a
        certificate not yet in the checker's ``vouched`` set, under this
        root's certificate, and a verified one is added; the issuer and the
        window are checked on every call."""
        if cert.issuer != self.name:
            raise CertificateError(f"certificate issued by unknown authority {cert.issuer!r}")
        pair = (self.identity.certificate, cert)
        if pair not in vouched:
            if not _identity_verify(
                self.identity.certificate.public_key_der, cert.signature, cert.signed_payload()
            ):
                raise CertificateError("certificate signature invalid")
            vouched.add(pair)
        cert.check_validity(now)

    def check_peer(
        self, cert: Certificate, name: str, now: int, vouched: set[tuple[Certificate, Certificate]]
    ) -> None:
        """:meth:`check` for the certificate of the party ``name``: one
        issued to any other subject is refused first."""
        if cert.subject != name:
            raise CertificateError(f"certificate names {cert.subject!r}, not {name!r}")
        self.check(cert, now, vouched)


# --- encrypted data ----------------------------------------------------------------


@dataclass(frozen=True)
class EncryptedProcessData:
    key_id: bytes
    nonce: bytes
    ciphertext: bytes  # includes the authentication tag

    def to_bytes(self) -> bytes:
        return pack_fields(self.key_id, self.nonce, self.ciphertext)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedProcessData":
        key_id, nonce, ciphertext = unpack_fields(data, 3)
        return cls(_fixed(key_id, 8, "key id"), _fixed(nonce, 12, "data nonce"), ciphertext)


def new_data_key(rng: random.Random) -> bytes:
    return rng.getrandbits(256).to_bytes(32, "big")


def new_nonce(rng: random.Random) -> bytes:
    return rng.getrandbits(8 * NONCE_SIZE).to_bytes(NONCE_SIZE, "big")


def encrypt_process_data(key: bytes, plaintext: bytes, rng: random.Random) -> EncryptedProcessData:
    nonce = rng.getrandbits(96).to_bytes(12, "big")
    ciphertext = AESGCM(key).encrypt(nonce, plaintext, b"")
    return EncryptedProcessData(sha256(key)[:8], nonce, ciphertext)


def decrypt_process_data(key: bytes, enc: EncryptedProcessData) -> bytes:
    if sha256(key)[:8] != enc.key_id:
        raise ProtocolError("key does not match the ciphertext's key id")
    try:
        return AESGCM(key).decrypt(enc.nonce, enc.ciphertext, b"")
    except InvalidTag:
        raise ProtocolError("process data fails authentication") from None


# --- transport -------------------------------------------------------------------------


class Transport(Protocol):
    def register(self, name: str, handler: Callable[[str, bytes], bytes]) -> None: ...

    def request(self, src: str, dst: str, frame: bytes) -> bytes: ...


class InProcTransport:
    """Reliable synchronous channel; faults are injected via rules.

    A rule is a predicate(src, dst, frame_type); the first request it
    matches is never answered (a timeout at the caller), and the rule is
    spent.
    """

    def __init__(self):
        self._endpoints: dict[str, Callable[[str, bytes], bytes]] = {}
        self._rules: list[Callable[[str, str, FrameType], bool]] = []

    def register(self, name: str, handler: Callable[[str, bytes], bytes]) -> None:
        self._endpoints[name] = handler

    def drop_when(self, predicate: Callable[[str, str, FrameType], bool]) -> None:
        self._rules.append(predicate)

    def request(self, src: str, dst: str, frame: bytes) -> bytes:
        kind, _ = split_frame(frame)
        for i, predicate in enumerate(self._rules):
            if predicate(src, dst, kind):
                del self._rules[i]
                raise TransportTimeout(f"{kind.name} from {src} to {dst} dropped")
        handler = self._endpoints.get(dst)
        if handler is None:
            raise TransportTimeout(f"endpoint {dst!r} unreachable")
        return handler(src, frame)


# --- sessions ---------------------------------------------------------------------------


class SessionState(Enum):
    NEGOTIATING = "negotiating"
    DATA_TRANSFERRED = "data_transferred"
    ADDRESSES_EXCHANGED = "addresses_exchanged"
    TEMPLATE_SENT = "template_sent"
    RECEIVER_SIGNED = "receiver_signed"
    PUBLISHED = "published"
    ABORTED = "aborted"


_ORDER = [
    SessionState.NEGOTIATING,
    SessionState.DATA_TRANSFERRED,
    SessionState.ADDRESSES_EXCHANGED,
    SessionState.TEMPLATE_SENT,
    SessionState.RECEIVER_SIGNED,
    SessionState.PUBLISHED,
]

# the receiver session state each in-session frame is admitted in
_ADMITTED_IN = {
    FrameType.DATA: SessionState.NEGOTIATING,
    FrameType.ADDR_ATTEST: SessionState.DATA_TRANSFERRED,
    FrameType.TEMPLATE_KEY: SessionState.ADDRESSES_EXCHANGED,
}


@dataclass(frozen=True)
class NegotiatedTerms:
    process_id: int
    task_id: int
    timestamp: int

    def to_bytes(self) -> bytes:
        return pack_fields(
            self.process_id.to_bytes(2, "big"),
            self.task_id.to_bytes(1, "big"),
            self.timestamp.to_bytes(4, "big"),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "NegotiatedTerms":
        pid, task, ts = unpack_fields(data, 3)
        return cls(
            int.from_bytes(_fixed(pid, 2, "process id"), "big"),
            int.from_bytes(_fixed(task, 1, "task id"), "big"),
            int.from_bytes(_fixed(ts, 4, "timestamp"), "big"),
        )


@dataclass
class HandoverSession:
    peer: str
    terms: NegotiatedTerms | None = None
    state: SessionState = SessionState.NEGOTIATING
    abort_reason: str = ""
    abort_check: int | None = None
    peer_certificate: Certificate | None = None
    peer_key_hash: bytes = b""  # the transaction key hash the peer attested
    transcript: bytes = b""  # every frame and reply of the session so far, packed
    receive_key: Keypair | None = None  # receiver's fresh transaction key
    data_key: bytes | None = None
    data_hash: bytes | None = None
    plaintext: bytes | None = None
    ciphertext: EncryptedProcessData | None = None
    template: EnrichedTransaction | None = None
    receiver_signature: bytes = b""
    token: "eng.ProcessToken | None" = None  # sender side: the token being handed over
    fault_task_id: int | None = None  # injected: template built off the negotiated task

    def advance(self, state: SessionState) -> None:
        if self.state == SessionState.ABORTED:
            raise ProtocolError("session already aborted")
        if _ORDER.index(state) != _ORDER.index(self.state) + 1:
            raise ProtocolError(f"illegal transition {self.state.value} -> {state.value}")
        self.state = state

    def abort(self, reason: str, check: int | None = None) -> None:
        self.state = SessionState.ABORTED
        self.abort_reason = reason
        self.abort_check = check

    def check_peer_signature(self, signature: bytes, signed: bytes, now: int) -> None:
        """Refuse a transcript signature that does not verify over ``signed``
        under the negotiated certificate, or that certificate once it is
        outside its validity window."""
        self.peer_certificate.check_validity(now)
        if not _identity_verify(self.peer_certificate.public_key_der, signature, signed):
            raise CertificateError("transcript signature invalid")


@dataclass(frozen=True)
class SenderOutcome:
    published: bool
    tx_id: bytes | None = None
    reason: str = ""
    check: int | None = None
    abort_tx_id: bytes | None = None  # extraordinary end, when one was published


# --- participant actor ---------------------------------------------------------------------


def _reply_guard(failed: Callable[[HandoverSession], object]):
    """Sender-step decorator: a reply that does not parse aborts the
    session, and the step returns ``failed(session)`` as on any refusal."""

    def wrap(step):
        @functools.wraps(step)
        def guarded(self, session: HandoverSession, *args):
            try:
                return step(self, session, *args)
            except FrameError as exc:
                session.abort(f"malformed reply: {exc}")
                return failed(session)

        return guarded

    return wrap


class Participant:
    """One choreography actor: an identity, a transport endpoint, and the
    engine state it needs to send and receive process tokens. ``chain`` is
    the ``ChainSim``."""

    def __init__(
        self,
        identity: Identity,
        root: TrustRoot,
        transport: Transport,
        chain,
        fee_policy: eng.FeePolicy,
        process_model,
        rng: random.Random,
    ):
        self.identity = identity
        self.root = root
        self.transport = transport
        self.chain = chain
        self.chain_view = ProviderChainView(chain)
        self.fee_policy = fee_policy
        self.model = process_model
        self.rng = rng
        # the sessions this participant receives, by (process id, sender);
        # frames go to the session the sender's latest NEGOTIATE opened
        self.sessions: dict[tuple[int, str], HandoverSession] = {}
        self._latest: dict[str, HandoverSession] = {}
        # per process id, what of the model its last accepted check 4 left
        self._left: dict[int, tuple[model_mod.Step, ...]] = {}
        self.holdings: list[eng.ProcessToken] = []
        self.process_data: dict[int, bytes] = {}
        transport.register(self.name, self.on_request)

    @property
    def name(self) -> str:
        return self.identity.name

    def _charge(self, phase: str = "logic") -> None:
        self.chain.advance_time(LOGIC_COST, phase)

    def _now(self) -> int:
        return int(self.chain.now)

    # --- custody: own tokens, own data, own transactions ---------------------------

    def token_for(self, process_id: int) -> eng.ProcessToken:
        for token in self.holdings:
            if token.process_id == process_id:
                return token
        raise ProtocolError(f"no token held for process {process_id}")

    def publish(self, tx: EnrichedTransaction, spent=(), minted=()) -> BroadcastResult:
        """Broadcast one of this participant's transactions. Once the chain
        accepts it, the participant gives up ``spent`` and holds ``minted``."""
        self._charge("broadcast")
        result = self.chain.broadcast(tx)
        if result.accepted:
            self.holdings = [t for t in self.holdings if t not in spent]
            self.holdings.extend(minted)
        return result

    def _publish_step(self, tx: EnrichedTransaction, spent=(), minted=()) -> EnrichedTransaction:
        """Publish a start, split, join or end; a refusal raises."""
        result = self.publish(tx, spent, minted)
        if not result.accepted:
            raise ProtocolError(f"broadcast rejected: {result.reason}")
        return tx

    def start(
        self, process_id: int, funds: Iterable[eng.Spendable], key: Keypair, tx_estimate: int
    ) -> EnrichedTransaction:
        """Open an instance funded from ``funds``, its token held by ``key``."""
        self._charge()
        tx, token = eng.build_start(
            funds, process_id, self._now(), self.fee_policy, tx_estimate, key, self.rng
        )
        self.process_data[process_id] = f"process-{process_id}-initial".encode()
        return self._publish_step(tx, minted=(token,))

    def complete_task(self, process_id: int, task_id: int) -> None:
        """Record the instance's data as this participant's task leaves it."""
        self.process_data[process_id] = f"process-{process_id}-after-{task_id}".encode()

    def split(self, process_id: int, branches: int) -> EnrichedTransaction:
        token = self.token_for(process_id)
        self._charge()
        tx, tokens = eng.build_split(token, branches, self._now(), self.fee_policy, self.rng)
        return self._publish_step(tx, spent=(token,), minted=tokens)

    def join(self, process_id: int, inputs: int) -> EnrichedTransaction:
        tokens = [t for t in self.holdings if t.process_id == process_id]
        if len(tokens) < inputs:
            raise ProtocolError("join reached without all branch tokens")
        self._charge()
        tx, token = eng.build_join(tokens, self._now(), self.fee_policy, self.rng)
        return self._publish_step(tx, spent=tokens, minted=(token,))

    def end(self, process_id: int) -> EnrichedTransaction:
        """Close the instance: a normal END only if what of the model this
        participant's last accepted check 4 left (the whole model if none
        ran) can finish without another task, else an extraordinary one."""
        token = self.token_for(process_id)
        self._charge()
        complete = model_mod.nullable(self._left.get(process_id, self.model.body))
        tx = eng.build_end(token, token.holder_key, self._now(), self.fee_policy, not complete)
        return self._publish_step(tx, spent=(token,))

    def _publish_extraordinary_end(self, token: eng.ProcessToken) -> bytes | None:
        tx = eng.build_end(token, token.holder_key, self._now(), self.fee_policy, True)
        return tx.tx_id if self.publish(tx, spent=(token,)).accepted else None

    # --- sender side -------------------------------------------------------------

    def open_session(self, peer: str, terms: NegotiatedTerms) -> HandoverSession:
        """A sender's session, handing over the token held for the process.
        The sender keeps it; only received sessions enter ``sessions``."""
        return HandoverSession(peer, terms, token=self.token_for(terms.process_id))

    def _request(self, session: HandoverSession, frame: bytes) -> bytes | None:
        """The peer's reply to ``frame``, both added to the transcript; a
        timeout aborts the session and gives None."""
        try:
            reply = self.transport.request(self.name, session.peer, frame)
        except TransportTimeout as exc:
            self.chain.advance_time(STEP_TIMEOUT, "logic")
            session.abort(f"timeout: {exc}")
            return None
        session.transcript += pack_fields(frame, reply)
        return reply

    @_reply_guard(lambda session: False)
    def negotiate(self, session: HandoverSession) -> bool:
        """Step 1: mutual identification plus agreement on the terms."""
        self._charge()
        payload = pack_fields(session.terms.to_bytes(), self.identity.certificate.to_bytes())
        reply = self._request(session, make_frame(FrameType.NEGOTIATE, payload))
        if reply is None:
            return False
        kind, body = split_frame(reply)
        if kind != FrameType.ACK:
            session.abort("negotiation: unexpected reply")
            return False
        status, _, detail, cert_bytes = unpack_fields(body, 4)
        if status != b"\x00":
            session.abort(f"negotiation rejected: {detail.decode(errors='replace')}")
            return False
        cert = Certificate.from_bytes(cert_bytes)
        try:
            self.root.check_peer(cert, session.peer, self._now(), self.identity.vouched)
        except CertificateError as exc:
            session.abort(f"identity: {exc}")
            return False
        session.peer_certificate = cert
        return True

    @_reply_guard(lambda session: False)
    def transfer_data(self, session: HandoverSession, process_data: bytes) -> bool:
        """Step 2: ship the encrypted data ahead of the handover."""
        if session.state != SessionState.NEGOTIATING:
            raise ProtocolError(f"cannot transfer data in state {session.state.value}")
        self._charge()
        session.data_key = new_data_key(self.rng)
        session.data_hash = sha256(process_data)
        enc = encrypt_process_data(session.data_key, process_data, self.rng)
        reply = self._request(session, make_frame(FrameType.DATA, enc.to_bytes()))
        if reply is None:
            return False
        kind, body = split_frame(reply)
        if kind != FrameType.ACK or unpack_fields(body, 4)[0] != b"\x00":
            session.abort("data transfer not acknowledged")
            return False
        session.advance(SessionState.DATA_TRANSFERRED)
        return True

    @_reply_guard(lambda session: False)
    def exchange_addresses(self, session: HandoverSession) -> bool:
        """Step 3: swap transaction key hashes and nonces. The receiver's
        answer is signed over the transcript, this frame included."""
        if session.state != SessionState.DATA_TRANSFERRED:
            raise ProtocolError(f"cannot exchange addresses in state {session.state.value}")
        self._charge()
        own = pack_fields(session.token.holder_key.key_hash, new_nonce(self.rng))
        frame = make_frame(FrameType.ADDR_ATTEST, own)
        signed = session.transcript + pack_fields(frame)
        reply = self._request(session, frame)
        if reply is None:
            return False
        kind, body = split_frame(reply)
        if kind == FrameType.ACK:
            detail = unpack_fields(body, 4)[2].decode(errors="replace")
            session.abort(f"address exchange rejected: {detail}")
            return False
        if kind != FrameType.ADDR_ATTEST:
            session.abort("address exchange: unexpected reply")
            return False
        key_hash, nonce, signature = unpack_fields(body, 3)
        _fixed(key_hash, 20, "attested key hash")
        _fixed(nonce, NONCE_SIZE, "nonce")
        try:
            session.check_peer_signature(
                signature, signed + pack_fields(key_hash, nonce), self._now()
            )
        except CertificateError as exc:
            session.abort(f"address exchange: {exc}")
            return False
        session.peer_key_hash = key_hash
        session.advance(SessionState.ADDRESSES_EXCHANGED)
        return True

    @_reply_guard(lambda session: SenderOutcome(False, reason=session.abort_reason))
    def run_sender(self, session: HandoverSession) -> SenderOutcome:
        """Steps 4-6: template, receiver signature, finalize, broadcast."""
        if session.state != SessionState.ADDRESSES_EXCHANGED:
            raise ProtocolError(f"cannot run handover in state {session.state.value}")
        terms = session.terms
        token = session.token
        task_id = session.fault_task_id or terms.task_id
        receiver_key_hash = session.peer_key_hash
        self._charge()
        template = eng.build_handover_template(
            token, task_id, self._now(), receiver_key_hash, session.data_hash, self.fee_policy
        )
        session.template = template
        signed = pack_fields(serialize_transaction(template), session.data_key)
        signature = self.identity.sign(session.transcript + signed)
        frame = make_frame(FrameType.TEMPLATE_KEY, signed + pack_fields(signature))
        reply = self._request(session, frame)
        if reply is None:
            return SenderOutcome(False, reason=session.abort_reason)
        session.advance(SessionState.TEMPLATE_SENT)
        kind, body = split_frame(reply)
        if kind == FrameType.ACK:
            status, check_byte, detail, _ = unpack_fields(body, 4)
            check = check_byte[0] if status == b"\x01" and check_byte[0] else None
            session.abort(f"receiver rejected template: {detail.decode(errors='replace')}", check)
            abort_tx = self._publish_extraordinary_end(token)
            return SenderOutcome(
                False, reason=session.abort_reason, check=check, abort_tx_id=abort_tx
            )
        if kind != FrameType.RECEIVER_SIG:
            session.abort("unexpected reply to template")
            return SenderOutcome(False, reason=session.abort_reason)
        receiver_sig, receiver_key = unpack_fields(body, 2)
        _fixed(receiver_key, 33, "receiver public key")
        self._charge()
        try:
            final = eng.finalize_and_sign_as_sender(
                template, receiver_key_hash, receiver_sig, receiver_key, token.holder_key
            )
        except eng.EngineError as exc:
            session.abort(f"finalize: {exc}")
            return SenderOutcome(False, reason=session.abort_reason)
        session.receiver_signature = receiver_sig
        session.advance(SessionState.RECEIVER_SIGNED)
        result = self.publish(final, spent=(token,))
        if not result.accepted:
            # the receiver's transcript keeps the signed template as proof of intent
            session.abort(f"broadcast: {result.reason}")
            return SenderOutcome(False, reason=session.abort_reason)
        session.advance(SessionState.PUBLISHED)
        return SenderOutcome(True, tx_id=final.tx_id)

    def confirm_receipt(self, session: HandoverSession) -> eng.ProcessToken | None:
        """Receiver-side monitoring: pick the published handover off the
        chain and derive the token it now holds."""
        if session.state != SessionState.RECEIVER_SIGNED:
            return None
        template = session.template
        self._charge("provider")
        spender = self.chain_view.get_spender(template.inputs[0].outpoint)
        if spender is None:
            return None
        final = self.chain_view.get_transaction(spender)
        if final is None or signing_digest(final) != signing_digest(template):
            session.abort("published transaction does not match the signed template")
            return None
        token = eng.token_from_handover(final, session.receive_key, session.data_hash)
        self.holdings.append(token)
        self.process_data[token.process_id] = session.plaintext
        session.advance(SessionState.PUBLISHED)
        return token

    # --- receiver side (frame handlers) ----------------------------------------------

    def on_request(self, src: str, frame: bytes) -> bytes:
        """Answer one frame. A frame that does not parse, down to the
        template's transaction bytes, is answered with a refusal and aborts
        the open session with its sender."""
        self._charge()
        try:
            return self._dispatch(src, frame)
        except (FrameError, EncodingError) as exc:
            session = self._session_for(src)
            if session is not None:
                session.abort(f"malformed frame: {exc}")
            return _ack(1, f"malformed frame: {exc}")

    def _dispatch(self, src: str, frame: bytes) -> bytes:
        """Route a frame. An in-session frame is admitted only in the one
        session state that follows its predecessor; out of order, it is
        refused and aborts the session. The frame and its answer join the
        session's transcript."""
        kind, body = split_frame(frame)
        if kind == FrameType.NEGOTIATE:
            return self._on_negotiate(src, frame, body)
        if kind not in _ADMITTED_IN:
            return _ack(1, f"unexpected frame {kind.name}")
        session = self._session_for(src)
        if session is None:
            return _ack(1, "no open session")
        if session.state != _ADMITTED_IN[kind]:
            return _refuse(session, f"{kind.name} out of order in state {session.state.value}")
        if kind == FrameType.DATA:
            reply = self._on_data(session, body)
        elif kind == FrameType.ADDR_ATTEST:
            reply = self._on_addr_attest(session, frame, body)
        else:
            reply = self._on_template_key(session, body)
        session.transcript += pack_fields(frame, reply)
        return reply

    def _session_for(self, src: str) -> HandoverSession | None:
        """The session the sender's latest NEGOTIATE opened, unless aborted."""
        session = self._latest.get(src)
        if session is None or session.state == SessionState.ABORTED:
            return None
        return session

    def _on_negotiate(self, src: str, frame: bytes, body: bytes) -> bytes:
        """Open a session with ``src``, which replaces its previous one. A
        replay of the NEGOTIATE that opened the live session is refused and
        touches no session."""
        live = self._session_for(src)
        if live is not None and live.transcript.startswith(pack_fields(frame)):
            return _ack(1, "replayed NEGOTIATE of the live session")
        terms_bytes, cert_bytes = unpack_fields(body, 2)
        terms = NegotiatedTerms.from_bytes(terms_bytes)
        cert = Certificate.from_bytes(cert_bytes)
        try:
            self.root.check_peer(cert, src, self._now(), self.identity.vouched)
        except CertificateError as exc:
            return _ack(1, f"identity: {exc}")
        reply = _ack(0, "", self.identity.certificate.to_bytes())
        session = HandoverSession(
            src, terms, peer_certificate=cert, transcript=pack_fields(frame, reply)
        )
        self.sessions[(terms.process_id, src)] = self._latest[src] = session
        return reply

    def _on_data(self, session: HandoverSession, body: bytes) -> bytes:
        session.ciphertext = EncryptedProcessData.from_bytes(body)
        session.advance(SessionState.DATA_TRANSFERRED)
        return _ack(0, "")

    def _on_addr_attest(self, session: HandoverSession, frame: bytes, body: bytes) -> bytes:
        """Keep the sender's key hash and answer with a fresh key hash and
        nonce, signed over the transcript with ``frame`` added."""
        key_hash, nonce = unpack_fields(body, 2)
        session.peer_key_hash = _fixed(key_hash, 20, "attested key hash")
        _fixed(nonce, NONCE_SIZE, "nonce")
        session.receive_key = Keypair.generate(self.rng)
        own = pack_fields(session.receive_key.key_hash, new_nonce(self.rng))
        signature = self.identity.sign(session.transcript + pack_fields(frame) + own)
        session.advance(SessionState.ADDRESSES_EXCHANGED)
        return make_frame(FrameType.ADDR_ATTEST, own + pack_fields(signature))

    def _on_template_key(self, session: HandoverSession, body: bytes) -> bytes:
        tx_bytes, data_key, sender_sig = unpack_fields(body, 3)
        try:
            session.check_peer_signature(
                sender_sig, session.transcript + pack_fields(tx_bytes, data_key), self._now()
            )
        except CertificateError as exc:
            return _refuse(session, f"template: {exc}")
        session.advance(SessionState.TEMPLATE_SENT)

        # the key arrived with the template, so the data can now be opened
        try:
            plaintext = decrypt_process_data(data_key, session.ciphertext)
        except ProtocolError:
            return _refuse(session, "process data fails authentication", check=2)
        received_hash = sha256(plaintext)
        tx = deserialize_transaction(tx_bytes)
        if tx.kind != TxKind.HANDOVER:
            return _refuse(session, "template is not a handover")
        session.template = tx
        expected = eng.ExpectedTerms(
            process_id=session.terms.process_id,
            task_id=session.terms.task_id,
            timestamp=session.terms.timestamp,
            sender_key_hash=session.peer_key_hash,
            receiver_key_hash=session.receive_key.key_hash,
            data_hash=received_hash,
        )
        self._charge("provider")
        try:
            verdict = eng.validate_template(tx, expected, self.model, self.chain_view)
        except (eng.UnresolvableAncestor, eng.BrokenLineage) as exc:
            return _refuse(session, f"history unresolvable: {exc}", status=2)
        if not verdict.accepted:
            check = verdict.failed_check
            return _refuse(session, f"check {check}: {verdict.reason}", verdict.reason, check=check)
        self._left[session.terms.process_id] = verdict.left
        signature = sign(signing_digest(tx), session.receive_key)
        session.data_key = data_key
        session.plaintext = plaintext
        session.data_hash = received_hash
        session.receiver_signature = signature
        session.advance(SessionState.RECEIVER_SIGNED)
        return make_frame(
            FrameType.RECEIVER_SIG, pack_fields(signature, session.receive_key.public_key)
        )


def _ack(status: int, detail: str, cert: bytes = b"", check: int = 0) -> bytes:
    return make_frame(
        FrameType.ACK, pack_fields(bytes([status]), bytes([check]), detail.encode(), cert)
    )


def _refuse(
    session: HandoverSession, reason: str, detail: str = "", check: int = 0, status: int = 1
) -> bytes:
    """Abort the receiver's session and answer with the refusal: ``detail``
    (the abort reason unless given) and the number of the failed check."""
    session.abort(reason, check or None)
    return _ack(status, detail or reason, check=check)
