"""Hashes, secp256k1 keys, and deterministic ECDSA signatures.

Signing is self-contained on purpose: signatures must be reproducible
bit-for-bit from a seeded RNG so that two runs with the same configuration
emit identical transaction bytes. Library signers inject fresh randomness
per call, which would break that, so signing uses the deterministic nonce
construction of RFC 6979 over SHA-256, in pure Python, as do key derivation
and key recovery. Signing and key derivation multiply G through a
precomputed comb; key recovery, which an audit needs only for a handover
whose token is still unspent, multiplies the recovered point in plain
binary double-and-add.

Signature bytes follow the Bitcoin convention: strict DER ``(r, s)`` with a
low ``s`` value, followed by a single hash-type byte (0x01). The nonce is
re-derived until the result is 71 or 72 bytes long, which keeps the two
legal signature lengths and nothing else. As in BIP 66, a DER integer must
be minimal and non-negative (no top bit set without a 0x00 pad), so one
(r, s) has exactly one encoding.

Verification parses strictly in Python (those signature rules, a 32-byte
digest and a 33-byte compressed key) and then leaves the curve arithmetic
to OpenSSL's secp256k1 through the ``cryptography`` package, which releases
the GIL while it checks. Broadcast verifies inline, one signature after
another; an audit hands each instance's signatures to :func:`verify_many`,
which verifies them on the calling thread and one helper thread side by
side.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import threading
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature

# --- secp256k1 domain parameters ---------------------------------------------

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

SIGHASH_ALL = 0x01

# Jacobian point: (X, Y, Z) with x = X/Z^2, y = Y/Z^3. Infinity is Z == 0.
_INF = (0, 1, 0)


class SignatureError(ValueError):
    """Malformed or non-verifying signature material."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    """Double SHA-256, the transaction-id and signing-digest hash."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash160(data: bytes) -> bytes:
    """SHA-256 followed by RIPEMD-160; used for key and script hashes."""
    return _RIPEMD160(sha256(data))


# --- RIPEMD-160 ---------------------------------------------------------------
# hashlib's RIPEMD-160 comes from OpenSSL, and OpenSSL 3 builds without the
# legacy provider lack it. The plain-Python implementation below (constants
# and rotations per the RIPEMD-160 reference definition) is the fallback;
# which one hash160 uses is decided once, at import.

_RMD_R1 = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
    3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
    1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
    4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
]
_RMD_R2 = [
    5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
    6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
    15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
    8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
    12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
]
_RMD_S1 = [
    11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
    7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
    11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
    11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
    9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
]
_RMD_S2 = [
    8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
    9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
    9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
    15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
    8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
]
_RMD_K1 = (0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E)
_RMD_K2 = (0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000)


def _rol(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF


def _rmd_f(j: int, x: int, y: int, z: int) -> int:
    if j < 16:
        return x ^ y ^ z
    if j < 32:
        return (x & y) | (~x & z)
    if j < 48:
        return (x | ~y) ^ z
    if j < 64:
        return (x & z) | (y & ~z)
    return x ^ (y | ~z)


def _ripemd160(data: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    padded = data + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += (8 * len(data)).to_bytes(8, "little")
    for off in range(0, len(padded), 64):
        w = [int.from_bytes(padded[off + 4 * i : off + 4 * i + 4], "little") for i in range(16)]
        a1, b1, c1, d1, e1 = h
        a2, b2, c2, d2, e2 = h
        for j in range(80):
            t = (a1 + _rmd_f(j, b1, c1, d1) + w[_RMD_R1[j]] + _RMD_K1[j // 16]) & 0xFFFFFFFF
            t = (_rol(t, _RMD_S1[j]) + e1) & 0xFFFFFFFF
            a1, e1, d1, c1, b1 = e1, d1, _rol(c1, 10), b1, t
            t = (a2 + _rmd_f(79 - j, b2, c2, d2) + w[_RMD_R2[j]] + _RMD_K2[j // 16]) & 0xFFFFFFFF
            t = (_rol(t, _RMD_S2[j]) + e2) & 0xFFFFFFFF
            a2, e2, d2, c2, b2 = e2, d2, _rol(c2, 10), b2, t
        h = [
            (h[1] + c1 + d2) & 0xFFFFFFFF,
            (h[2] + d1 + e2) & 0xFFFFFFFF,
            (h[3] + e1 + a2) & 0xFFFFFFFF,
            (h[4] + a1 + b2) & 0xFFFFFFFF,
            (h[0] + b1 + c2) & 0xFFFFFFFF,
        ]
    return b"".join(x.to_bytes(4, "little") for x in h)


def _openssl_ripemd160(data: bytes) -> bytes:
    return hashlib.new("ripemd160", data).digest()


try:
    hashlib.new("ripemd160")
except ValueError:
    _RIPEMD160 = _ripemd160
else:
    _RIPEMD160 = _openssl_ripemd160


# --- elliptic-curve arithmetic ---------------------------------------------------
# Signing and key derivation compute k*G; key recovery computes u2*R and adds
# u1*G. Every one of these products is a list of (position, affine addend)
# pairs, and one double-and-add loop, _double_and_add, sums 2^position *
# addend over the list, highest position first, over Jacobian points. It
# holds the only inlined doubling and mixed Jacobian-affine addition (Guide
# to Elliptic Curve Cryptography, algorithm 3.22, which skips every product
# with Z2 = 1).
#
# G has one table, a fixed-base comb (Lim & Lee, CRYPTO 1994; Guide,
# algorithm 3.44) of 12 teeth: a scalar's comb columns are 22 positions,
# 21..0, with at most one addend each. R is not known in advance and gets no
# table: u2*R reads u2 in binary (_binary), R once per set bit, about 256
# doublings and 128 additions. That is about twice the work of a GLV split
# over wNAF tables of R and lambda*R, and it is paid rarely: an audit checks
# a spent handover's receiver signature against the key its spender reveals
# (verify, in OpenSSL) and recovers a key only for a handover whose token is
# unspent, 0.0167 times per audit of a recorded model-4 dump (the
# audit_replay benchmark).


def _jac_double(p: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = p
    if not y or not z:
        return _INF
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 for secp256k1
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return nx, ny, nz


def _add_affine(p: tuple[int, int, int], x2: int, y2: int) -> tuple[int, int, int]:
    """Jacobian p plus the affine point (x2, y2)."""
    x, y, z = p
    if not z:
        return x2, y2, 1
    zz = z * z % P
    h = (x2 * zz - x) % P
    r = (y2 * zz * z - y) % P
    if not h:
        return _jac_double(p) if not r else _INF
    hh = h * h % P
    hhh = hh * h % P
    v = x * hh % P
    nx = (r * r - hhh - 2 * v) % P
    return nx, (r * (v - nx) - y * hhh) % P, z * h % P


def _to_affine(p: tuple[int, int, int]) -> tuple[int, int] | None:
    x, y, z = p
    if not z:
        return None
    zinv = pow(z, -1, P)
    zinv2 = zinv * zinv % P
    return x * zinv2 % P, y * zinv2 * zinv % P


def _from_affine(pt: tuple[int, int] | None) -> tuple[int, int, int]:
    if pt is None:
        return _INF
    return pt[0], pt[1], 1


def _batch_inverse(values: list[int]) -> list[int]:
    """The inverses mod P of nonzero values with one inversion (Montgomery's
    trick): invert the product of all, then peel one value off per inverse."""
    before = []  # before[i]: product of values[:i]
    acc = 1
    for v in values:
        before.append(acc)
        acc = acc * v % P
    inv = pow(acc, -1, P)  # inverse of the product of values[:i + 1], for i from the end
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * before[i] % P
        inv = inv * values[i] % P
    return out


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """_to_affine of every point (none at infinity) with one inversion."""
    out = []
    for (x, y, _), zinv in zip(points, _batch_inverse([z for _, _, z in points])):
        zinv2 = zinv * zinv % P
        out.append((x * zinv2 % P, y * zinv2 * zinv % P))
    return out


def _double_and_add(schedule: list[tuple[int, tuple[int, int]]]) -> tuple[int, int, int]:
    """The sum of 2^position * addend over (position, affine addend) pairs in
    descending position, as a Jacobian point.

    The running sum is doubled down from one position to the next and the
    addend added there; while it is at infinity the doublings are skipped.
    The doubling is _jac_double's and the addition _add_affine's, inlined
    because k*G runs them 21 and up to 22 times, and u2*R about 256 and 128.
    """
    x, y, z = _INF
    at = 0
    for pos, addend in (*schedule, (0, None)):  # (0, None): the doublings below the last addend
        for _ in range(at - pos if z else 0):  # double
            ysq = y * y % P
            s = 4 * x * ysq % P
            m = 3 * x * x % P
            z = 2 * y * z % P
            x = (m * m - 2 * s) % P
            y = (m * (s - x) - 8 * ysq * ysq) % P
        at = pos
        if addend is None:
            break
        x2, y2 = addend  # mixed add
        if not z:
            x, y, z = x2, y2, 1
            continue
        zz = z * z % P
        h = (x2 * zz - x) % P
        r = (y2 * zz * z - y) % P
        if not h:
            x, y, z = _jac_double((x, y, z)) if not r else _INF
            continue
        hh = h * h % P
        hhh = hh * h % P
        v = x * hh % P
        nx = (r * r - hhh - 2 * v) % P
        y = (r * (v - nx) - y * hhh) % P
        x = nx
        z = z * h % P
    return x, y, z


# The comb reads a scalar below 2^256 as 12 teeth spaced 22 bits apart
# (12 * 22 = 264 bits, the top 8 always zero): at column j, tooth i is bit
# j + 22*i. _G_COMB[u] is the sum of 2^(22*i)*G over the teeth i set in u, for
# u = 1..4095, so k*G takes 21 doublings and at most 22 mixed additions. The
# table is built one tooth at a time from the twelve bases 2^(22*i)*G: tooth i
# adds its base to each of the 2^i - 1 sums below it, in affine coordinates,
# with the slopes' denominators inverted together (one inversion per tooth).
# No such sum meets its base or the base's negation, since every sum below
# tooth i is a multiple of G in (0, 2^(22*i)).
_TEETH = 12
_SPACING = 22


def _build_g_comb() -> list[tuple[int, int] | None]:
    base = _from_affine((GX, GY))
    bases = [base]
    for _ in range(_TEETH - 1):
        for _ in range(_SPACING):
            base = _jac_double(base)
        bases.append(base)
    table: list[tuple[int, int] | None] = [None]
    for bx, by in _batch_to_affine(bases):  # 2^(22*i) * G
        below = table[1:]
        inverses = _batch_inverse([x - bx for x, _ in below])
        table.append((bx, by))
        for (x, y), inv in zip(below, inverses):
            m = (y - by) * inv % P
            nx = (m * m - bx - x) % P
            table.append((nx, (m * (bx - nx) - by) % P))
    return table


_G_COMB = _build_g_comb()


def _comb(k: int) -> list[tuple[int, tuple[int, int]]]:
    """k*G as a _double_and_add schedule: the nonzero comb columns, 21..0.
    bits[263 - p] is bit p of k, so bits[21 - j::22] spells column j's teeth,
    tooth 11 first."""
    bits = format(k % N, f"0{_TEETH * _SPACING}b")
    return [
        (j, addend)
        for j in range(_SPACING - 1, -1, -1)
        if (addend := _G_COMB[int(bits[_SPACING - 1 - j :: _SPACING], 2)])
    ]


def _mul_g(k: int) -> tuple[int, int] | None:
    """k*G, affine."""
    return _to_affine(_double_and_add(_comb(k)))


def _binary(k: int, pt: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """k*pt for k >= 0 as a _double_and_add schedule: pt at every set bit
    of k, highest first."""
    return [(i, pt) for i in range(k.bit_length() - 1, -1, -1) if k >> i & 1]


# --- key handling ---------------------------------------------------------------


def _lift_x(x: int, odd: bool) -> tuple[int, int] | None:
    if x >= P:
        return None
    ysq = (pow(x, 3, P) + 7) % P
    y = pow(ysq, (P + 1) // 4, P)
    if y * y % P != ysq:
        return None
    if (y & 1) != odd:
        y = P - y
    return x, y


def encode_pubkey(pt: tuple[int, int]) -> bytes:
    x, y = pt
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


@dataclass(frozen=True)
class Keypair:
    """A secp256k1 keypair; transaction keys are minted fresh per handover."""

    secret: int

    def __post_init__(self) -> None:
        if not 0 < self.secret < N:
            raise ValueError("secret scalar out of range")

    @classmethod
    def generate(cls, rng: random.Random) -> "Keypair":
        return cls(rng.randrange(1, N))

    # The keypair is frozen, so each derived value is computed once and kept
    # in the instance dict. The public names stay plain properties, and each
    # derivation reads the one before it through them, so a wrapper around
    # ``public_key`` still sees the point multiplication.
    @cached_property
    def _point(self) -> tuple[int, int]:
        pt = _mul_g(self.secret)
        if pt is None:
            raise SignatureError("secret scalar maps to the point at infinity")
        return pt

    @cached_property
    def _public_key(self) -> bytes:
        return encode_pubkey(self.point)

    @cached_property
    def _key_hash(self) -> bytes:
        return hash160(self.public_key)

    @property
    def point(self) -> tuple[int, int]:
        return self._point

    @property
    def public_key(self) -> bytes:
        return self._public_key

    @property
    def key_hash(self) -> bytes:
        return self._key_hash


# --- DER encode/decode ------------------------------------------------------------


def _der_int(v: int) -> bytes:
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    if raw[0] & 0x80:
        raw = b"\x00" + raw
    return b"\x02" + bytes([len(raw)]) + raw


def der_encode(r: int, s: int) -> bytes:
    body = _der_int(r) + _der_int(s)
    return b"\x30" + bytes([len(body)]) + body


def der_decode(sig: bytes) -> tuple[int, int]:
    if len(sig) < 8 or sig[0] != 0x30 or sig[1] != len(sig) - 2:
        raise SignatureError("bad DER envelope")
    i = 2

    def read_int(i: int) -> tuple[int, int]:
        if len(sig) < i + 2:
            raise SignatureError("truncated DER integer")
        if sig[i] != 0x02:
            raise SignatureError("expected DER integer")
        ln = sig[i + 1]
        raw = sig[i + 2 : i + 2 + ln]
        if len(raw) != ln or ln == 0:
            raise SignatureError("truncated DER integer")
        if raw[0] & 0x80:
            raise SignatureError("negative DER integer")
        if ln > 1 and raw[0] == 0 and not raw[1] & 0x80:
            raise SignatureError("non-minimal DER integer")
        return int.from_bytes(raw, "big"), i + 2 + ln

    r, i = read_int(i)
    s, i = read_int(i)
    if i != len(sig):
        raise SignatureError("trailing DER bytes")
    return r, s


# --- sign / verify / recover -------------------------------------------------------


def _rfc6979_nonces(digest: bytes, secret: int):
    """Yield an unbounded stream of deterministic nonce candidates."""
    x = secret.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.digest(k, v + b"\x00" + x + digest, "sha256")
    v = hmac.digest(k, v, "sha256")
    k = hmac.digest(k, v + b"\x01" + x + digest, "sha256")
    v = hmac.digest(k, v, "sha256")
    while True:
        v = hmac.digest(k, v, "sha256")
        candidate = int.from_bytes(v, "big")
        if 0 < candidate < N:
            yield candidate
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


def sign(digest: bytes, keypair: Keypair) -> bytes:
    """Deterministically sign a 32-byte digest.

    Returns DER(r, s) with low s plus the hash-type byte; the nonce stream
    advances until the encoding lands on 71 or 72 bytes, so callers can rely
    on exactly those two lengths.
    """
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    e = int.from_bytes(digest, "big") % N
    for k in _rfc6979_nonces(digest, keypair.secret):
        pt = _mul_g(k)
        if pt is None:
            continue
        r = pt[0] % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (e + r * keypair.secret) % N
        if s == 0:
            continue
        if s > N // 2:
            s = N - s
        sig = der_encode(r, s) + bytes([SIGHASH_ALL])
        if len(sig) in (71, 72):
            return sig
    raise AssertionError("unreachable")


def _split_sig(signature: bytes) -> tuple[int, int]:
    if not signature or signature[-1] != SIGHASH_ALL:
        raise SignatureError("missing or unknown hash-type byte")
    r, s = der_decode(signature[:-1])
    if not (0 < r < N and 0 < s <= N // 2):
        raise SignatureError("signature scalars out of range (low-s required)")
    return r, s


_SECP256K1 = ec.SECP256K1()
_ECDSA = ec.ECDSA(Prehashed(hashes.SHA256()))


def verify(digest: bytes, signature: bytes, public_key: bytes) -> bool:
    """Check a signature produced by :func:`sign` against a compressed key.

    Python refuses what OpenSSL might accept: anything :func:`_split_sig`
    refuses, a digest of other than 32 bytes, and a key other than 33 bytes
    with prefix 02 or 03 (OpenSSL also reads uncompressed keys). OpenSSL
    then decodes the key and checks the equation on (r, s) re-encoded; a key
    off the curve or a failed check is False, never an exception.
    """
    try:
        r, s = _split_sig(signature)
    except SignatureError:
        return False
    if len(digest) != 32 or len(public_key) != 33 or public_key[0] not in (2, 3):
        return False
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(_SECP256K1, bytes(public_key))
        key.verify(encode_dss_signature(r, s), digest, _ECDSA)
    except (ValueError, InvalidSignature):
        return False
    return True


# --- verifying a batch on two threads ---------------------------------------------
# OpenSSL's check, most of a verify, runs without the GIL, so two threads
# verify side by side. A batch is shared, not split: the caller and the one
# helper thread each take the next unverified check until none is left, so a
# helper that is slow to wake costs the caller at most the one check it
# holds, and one that has not started by then is cancelled.

_helper = None  # a one-worker ThreadPoolExecutor, started on the first batch of two or more
_helper_lock = threading.Lock()


def verify_many(checks) -> list[bool]:
    """``[verify(*check) for check in checks]`` for (digest, signature,
    public key) triples, with the calling thread and one helper thread
    taking the checks in turn. An exception from either thread is raised
    here."""
    global _helper
    checks = list(checks)
    results = [False] * len(checks)
    todo = iter(range(len(checks)))  # shared: next() on it is atomic under the GIL

    def drain() -> None:
        for i in todo:
            results[i] = verify(*checks[i])

    if len(checks) < 2:
        drain()
        return results
    with _helper_lock:
        if _helper is None:
            # imported here, as it brings logging along: a process that never
            # audits, such as one that only broadcasts, never loads it
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="chorchain-verify")
    helper = _helper.submit(drain)
    try:
        drain()
    finally:
        helper.cancel() or helper.result()
    return results


def recover_candidates(digest: bytes, signature: bytes) -> list[bytes]:
    """Every compressed public key that verifies the signature.

    For each curve point R with x(R) = r (x = r, then r + N; even y, then
    odd y) the candidate is Q = r^-1 (s*R - e*G) = u1*G + u2*R with
    u1 = -e*r^-1 and u2 = s*r^-1. The two R of one x are negatives of each
    other, so with B = u1*G (the comb, once, affine) and A = u2*R for the
    even R (one binary double-and-add per x, Jacobian), the candidates are
    B + A and then B - A, each one mixed addition of B and one inversion;
    when B is at infinity the candidate is A itself, and a candidate at
    infinity is skipped. Q satisfies the verification equation by
    construction, so no re-verification is needed; a caller comparing
    against a known key hash gets the usual 2^-160 bound. A malformed
    signature gives no key.
    """
    try:
        r, s = _split_sig(signature)
    except SignatureError:
        return []
    e = int.from_bytes(digest, "big") % N
    rinv = pow(r, -1, N)
    b = _mul_g(-e * rinv % N)
    u2 = s * rinv % N
    keys = []
    for x in (r, r + N):
        big_r = _lift_x(x, odd=False)
        if big_r is None:
            continue
        a = _double_and_add(_binary(u2, big_r))
        for addend in (a, (a[0], P - a[1], a[2])):  # u2*R, then u2*(-R)
            q = _to_affine(_add_affine(addend, *b) if b else addend)
            if q is not None:
                keys.append(encode_pubkey(q))
    return keys


def verify_with_key_hash(digest: bytes, signature: bytes, key_hash: bytes) -> bool:
    """Signature check when only hash160(pubkey) is known: true when one of
    the keys :func:`recover_candidates` finds hashes to ``key_hash``."""
    return any(hash160(pk) == key_hash for pk in recover_candidates(digest, signature))
