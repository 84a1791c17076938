"""Hashes, secp256k1 keys, and deterministic ECDSA signatures.

Everything here is self-contained on purpose: signatures must be
reproducible bit-for-bit from a seeded RNG so that two runs with the same
configuration emit identical transaction bytes. Library signers inject
fresh randomness per call, which would break that, so signing uses the
deterministic nonce construction of RFC 6979 over SHA-256.

Signature bytes follow the Bitcoin convention: strict DER ``(r, s)`` with a
low ``s`` value, followed by a single hash-type byte (0x01). The nonce is
re-derived until the result is 71 or 72 bytes long, which keeps the two
legal signature lengths and nothing else.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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


# --- elliptic-curve arithmetic (Jacobian coordinates) --------------------------


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


def _jac_add(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, int, int]:
    if not p[2]:
        return q
    if not q[2]:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1sq = z1 * z1 % P
    z2sq = z2 * z2 % P
    u1 = x1 * z2sq % P
    u2 = x2 * z1sq % P
    s1 = y1 * z2sq * z2 % P
    s2 = y2 * z1sq * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _INF
        return _jac_double(p)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = h * h % P
    hcu = hsq * h % P
    u1hsq = u1 * hsq % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    nz = h * z1 * z2 % P
    return nx, ny, nz


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


# Fixed-base window table for G: _G_WINDOW[j][i] = i * 16^j * G, as Jacobian
# points. A G-multiplication is then at most 64 additions and no doublings,
# which makes signing and the G half of verification much cheaper.
def _build_g_window() -> list[list[tuple[int, int, int]]]:
    table = []
    base = _from_affine((GX, GY))
    for _ in range(64):
        row = [_INF]
        for i in range(15):
            row.append(_jac_add(row[i], base))
        table.append(row)
        base = row[1]
        for _ in range(4):
            base = _jac_double(base)
    return table


_G_WINDOW = _build_g_window()


def _mul_g_jac(k: int) -> tuple[int, int, int]:
    """k*G (0 <= k < 2^256) from the window table, left in Jacobian form."""
    acc = _INF
    j = 0
    while k:
        nib = k & 0xF
        if nib:
            acc = _jac_add(acc, _G_WINDOW[j][nib])
        k >>= 4
        j += 1
    return acc


def _mul_g(k: int) -> tuple[int, int] | None:
    return _to_affine(_mul_g_jac(k % N))


def _wnaf(k: int) -> list[int]:
    """Width-5 non-adjacent form of k >= 0, least significant digit first.

    Every digit is 0 or odd in -15..15, and any nonzero digit is followed by
    at least four zeros, so a ladder over it adds about once per six bits.
    """
    digits = []
    while k:
        if k & 1:
            d = k & 31
            if d > 16:
                d -= 32
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _shamir(u1: int, u2: int, q: tuple[int, int]) -> tuple[int, int] | None:
    """u1*G + u2*Q, the verification and key-recovery hot path.

    u1*G is read from the fixed-base window table; u2*Q runs one
    double-and-add ladder over the width-5 NAF of u2 with the odd multiples
    Q, 3Q, ..., 15Q precomputed (Hankerson, Menezes & Vanstone, Guide to
    Elliptic Curve Cryptography, section 3.3).
    """
    qj = _from_affine(q)
    twice = _jac_double(qj)
    odd = [qj]
    for _ in range(7):
        odd.append(_jac_add(odd[-1], twice))
    neg = [(x, P - y, z) for x, y, z in odd]
    acc = _INF
    for d in reversed(_wnaf(u2 % N)):
        acc = _jac_double(acc)
        if d > 0:
            acc = _jac_add(acc, odd[d >> 1])
        elif d < 0:
            acc = _jac_add(acc, neg[-d >> 1])
    return _to_affine(_jac_add(acc, _mul_g_jac(u1 % N)))


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


def decode_pubkey(data: bytes) -> tuple[int, int]:
    """Parse a 33-byte compressed SEC1 public key."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise SignatureError("expected 33-byte compressed public key")
    pt = _lift_x(int.from_bytes(data[1:], "big"), odd=data[0] == 3)
    if pt is None:
        raise SignatureError("public key x-coordinate not on curve")
    return pt


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

    @classmethod
    def from_seed(cls, seed: bytes) -> "Keypair":
        return cls(int.from_bytes(sha256(seed), "big") % (N - 1) + 1)

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
        if sig[i] != 0x02:
            raise SignatureError("expected DER integer")
        ln = sig[i + 1]
        raw = sig[i + 2 : i + 2 + ln]
        if len(raw) != ln or ln == 0:
            raise SignatureError("truncated DER integer")
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
    k = hmac.new(k, v + b"\x00" + x + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 0 < candidate < N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


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


def verify(digest: bytes, signature: bytes, public_key: bytes) -> bool:
    """Check a signature produced by :func:`sign` against a compressed key."""
    try:
        r, s = _split_sig(signature)
        q = decode_pubkey(public_key)
    except SignatureError:
        return False
    e = int.from_bytes(digest, "big") % N
    sinv = pow(s, -1, N)
    pt = _shamir(e * sinv % N, r * sinv % N, q)
    return pt is not None and pt[0] % N == r


def recovered_keys(digest: bytes, signature: bytes) -> Iterator[bytes]:
    """Lazily yield every compressed public key that verifies the signature.

    For each curve point R with x(R) = r (x = r, then r + N; even y, then
    odd y) the candidate is Q = r^-1 (s*R - e*G) = (-e*r^-1)*G + (s*r^-1)*R,
    computed in one joint multiplication. Q satisfies the verification
    equation by construction, so no re-verification is needed; a caller
    comparing against a known key hash gets the usual 2^-160 bound. A
    malformed signature yields nothing.
    """
    try:
        r, s = _split_sig(signature)
    except SignatureError:
        return
    e = int.from_bytes(digest, "big") % N
    rinv = pow(r, -1, N)
    u1 = -e * rinv % N
    u2 = s * rinv % N
    for x in (r, r + N):
        for odd in (False, True):
            big_r = _lift_x(x, odd)
            if big_r is None:
                continue
            q = _shamir(u1, u2, big_r)
            if q is not None:
                yield encode_pubkey(q)


def recover_candidates(digest: bytes, signature: bytes) -> list[bytes]:
    """All keys of :func:`recovered_keys`, in the same order."""
    return list(recovered_keys(digest, signature))


def verify_with_key_hash(digest: bytes, signature: bytes, key_hash: bytes) -> bool:
    """Signature check when only hash160(pubkey) is known (key recovery);
    stops at the first candidate key that hashes to ``key_hash``."""
    return any(hash160(pk) == key_hash for pk in recovered_keys(digest, signature))
