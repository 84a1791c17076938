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
from functools import cached_property, lru_cache
from operator import itemgetter
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


# --- elliptic-curve arithmetic ---------------------------------------------------
# Verification computes u1*G + u2*Q; signing and key derivation compute k*G.
# Key recovery computes both: u2*R on the ladder below, with no G half, and
# u1*G on the fixed-base comb. Its two candidates per x(R) are then u1*G
# plus and minus u2*R, so recovering both costs about one verification, not
# one per candidate. Everything runs over Jacobian points with affine addends.
#
# secp256k1 has the endomorphism lambda*(x, y) = (beta*x, y), with beta a
# cube root of unity mod P and lambda the matching one mod N. Each scalar splits as
# k = k1 + k2*lambda (mod N) with |k1| and |k2| near 2^128 (Gallant, Lambert
# & Vanstone, CRYPTO 2001; Hankerson, Menezes & Vanstone, Guide to Elliptic
# Curve Cryptography, section 3.5), so u1*G + u2*Q is a sum of four
# half-length products that one interleaved wNAF ladder computes with about
# 129 doublings instead of 256 (Guide, algorithm 3.51). Each half's wNAF is
# kept sparse, as (position, digit) pairs for the nonzero digits only, and
# the ladder merges the four lists into one schedule of about 70 additions,
# in descending position, with the doublings counted off between them.
#
# Every point the ladder adds is affine (Z = 1): the odd multiples of G and
# lambda*G are tabled once at import, those of Q are normalised with one
# shared inversion (Montgomery's trick, Guide section 2.2.5), and lambda*Q's
# cost one multiplication by beta each. Each ladder addition is therefore
# the mixed Jacobian-affine one (Guide, algorithm 3.22), which skips every
# product with Z2. Q's two tables depend on the key alone, so verify keeps
# those of the last few keys (_key_tables): an audit checks the receiver's
# signature and then the spend of the same token under one key. Only the
# tables are kept, never a verdict.
#
# verify never makes the ladder's result affine. x(R) = X/Z^2 reduces to r
# mod N exactly when x(R) is r or r + N (the latter only below P), so it
# compares X with r*Z^2 and (r + N)*Z^2 mod P, which saves the inversion.

_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# a short basis (a1, b1), (a2, b2) of the lattice {(a, b): a + b*lambda = 0 mod N}
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

# wNAF widths of the G and Q tables: 2^(w-2) odd multiples each
_G_WIDTH = 8
_Q_WIDTH = 5


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


def _add_affine(p: tuple[int, int, int], x2: int, y2: int) -> tuple[int, int, int]:
    """Jacobian p plus the affine point (x2, y2): _jac_add with Z2 = 1."""
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


def _batch_to_affine(points: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """_to_affine of every point (none at infinity) with one inversion:
    invert the product of all Z, then peel one Z off per point."""
    before = []  # before[i]: product of the Z of points[:i]
    acc = 1
    for _, _, z in points:
        before.append(acc)
        acc = acc * z % P
    inv = pow(acc, -1, P)  # inverse of the product of points[:i + 1], for i from the end
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zinv = inv * before[i] % P
        inv = inv * z % P
        zinv2 = zinv * zinv % P
        out[i] = (x * zinv2 % P, y * zinv2 * zinv % P)
    return out


def _odd_multiples(pt: tuple[int, int], width: int) -> list[tuple[int, int]]:
    """pt, 3*pt, ..., (2^(width-1) - 1)*pt, affine."""
    p = _from_affine(pt)
    twice = _jac_double(p)
    out = [p]
    for _ in range((1 << (width - 2)) - 1):
        out.append(_jac_add(out[-1], twice))
    return _batch_to_affine(out)


def _signed_table(odd: list[tuple[int, int]]) -> list[tuple[int, int] | None]:
    """Ladder lookup by a signed odd wNAF digit d: table[d] = d*pt for d > 0,
    and table[d] = |d|*(-pt) through negative indexing for d < 0."""
    size = 4 * len(odd)  # 2^width
    table: list[tuple[int, int] | None] = [None] * size
    for i, (x, y) in enumerate(odd):
        table[2 * i + 1] = x, y
        table[size - 2 * i - 1] = x, P - y
    return table


def _endo(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """lambda*pt for each affine pt: (beta*x, y)."""
    return [(_BETA * x % P, y) for x, y in points]


def _glv_split(k: int) -> tuple[int, int]:
    """Signed (k1, k2) with k1 + k2*lambda = k (mod N) and both below about
    2^128 in size, by rounding k onto the short lattice basis (Guide,
    algorithm 3.74)."""
    c1 = (_B2 * k + N // 2) // N
    c2 = (-_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int, width: int) -> list[tuple[int, int]]:
    """The nonzero digits of the width-w non-adjacent form of a signed k, as
    (position, digit) pairs, least significant first.

    Every digit is odd with |d| < 2^(w-1), and nonzero digits sit at least w
    positions apart. A negative k gives the negated digits of -k, so a
    negative GLV half needs no separate negation.
    """
    digits: list[tuple[int, int]] = []
    full = 1 << width
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1  # also right for negative k
        k >>= zeros
        pos += zeros
        d = k & (full - 1)
        if d > full >> 1:
            d -= full
        digits.append((pos, d))
        k = (k - d) >> width  # k - d is a multiple of 2^w
        pos += width
    return digits


_G_ODD = _odd_multiples((GX, GY), _G_WIDTH)
_G_TABLE = _signed_table(_G_ODD)
_G_LAMBDA_TABLE = _signed_table(_endo(_G_ODD))


def _q_tables(q: tuple[int, int]) -> tuple[list, list]:
    """The signed width-5 tables of Q and lambda*Q."""
    odd = _odd_multiples(q, _Q_WIDTH)
    return _signed_table(odd), _signed_table(_endo(odd))


@lru_cache(maxsize=16)
def _key_tables(public_key: bytes) -> tuple[list, list] | None:
    """_q_tables of a compressed key, None when the bytes do not decode."""
    try:
        return _q_tables(decode_pubkey(public_key))
    except SignatureError:
        return None


def _ladder(u1: int, u2: int, q_table: list, q_lambda_table: list) -> tuple[int, int, int]:
    """u1*G + u2*Q as a Jacobian point, given Q's signed tables.

    u1 and u2 are split into GLV halves, and the four products
    a*G + b*(lambda*G) + c*Q + d*(lambda*Q) share one double-and-add ladder
    over the halves' width-8 (G) and width-5 (Q) NAFs, adding affine odd
    multiples (Guide, algorithm 3.51). The schedule holds one (position,
    addend) per nonzero digit, highest position first; the running sum sits
    at position ``at`` and is doubled down to each addend's position. The
    doubling is _jac_double's and the addition _add_affine's (Guide,
    algorithm 3.22), inlined because they run about 129 and 70 times per call.
    """
    a, b = _glv_split(u1 % N)
    c, d = _glv_split(u2 % N)
    schedule: list[tuple[int, tuple[int, int] | None]] = []
    for k, table, width in (
        (a, _G_TABLE, _G_WIDTH),
        (b, _G_LAMBDA_TABLE, _G_WIDTH),
        (c, q_table, _Q_WIDTH),
        (d, q_lambda_table, _Q_WIDTH),
    ):
        schedule += [(pos, table[digit]) for pos, digit in _wnaf(k, width)]
    schedule.sort(key=itemgetter(0), reverse=True)
    schedule.append((0, None))  # the doublings left below the last addend
    x, y, z = _INF
    at = schedule[0][0]
    for pos, addend in schedule:
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


def _shamir(u1: int, u2: int, q: tuple[int, int]) -> tuple[int, int] | None:
    """u1*G + u2*Q, affine, with Q's tables built for this call; key
    recovery calls it with u1 = 0, which leaves the G halves' digits empty."""
    return _to_affine(_ladder(u1, u2, *_q_tables(q)))


# Fixed-base comb for G (Lim & Lee; Guide, algorithms 3.44 and 3.45). A
# scalar below 2^256 is read as a comb of 8 teeth spaced 32 bits apart: at
# column j, tooth i is bit j + 32*i. _G_COMB[0][u] is the sum of 2^(32*i)*G
# over the teeth i set in u, for u = 1..255, and _G_COMB[1][u] is
# 2^16 * _G_COMB[0][u], so one pass over columns 15..0 reads column j from
# the first table and column j + 16 from the second: 15 doublings and at most
# 32 mixed additions. The 2 x 255 points are built from the sixteen bases
# 2^(16*m)*G with mixed additions and normalised with one batch inversion.
def _build_g_comb() -> tuple[list[tuple[int, int] | None], list[tuple[int, int] | None]]:
    base = _from_affine((GX, GY))
    bases = [base]
    for _ in range(15):
        for _ in range(16):
            base = _jac_double(base)
        bases.append(base)
    bases = _batch_to_affine(bases)  # bases[m] = 2^(16*m) * G
    points = []
    for teeth in (bases[0::2], bases[1::2]):  # 2^(32*i) * G, then 2^(32*i + 16) * G
        table = [_INF]
        for u in range(1, 256):
            top = u.bit_length() - 1
            rest = u ^ (1 << top)
            table.append(_add_affine(table[rest], *teeth[top]))
        points += table[1:]
    flat = _batch_to_affine(points)
    return [None] + flat[:255], [None] + flat[255:]


_G_COMB = _build_g_comb()


def _mul_g(k: int) -> tuple[int, int] | None:
    """k*G over the comb. bits[255 - p] is bit p of k, so bits[31 - j::32]
    spells column j's teeth, tooth 7 first. The doubling and the mixed
    addition are _shamir's, inlined."""
    bits = format(k % N, "0256b")
    low, high = _G_COMB
    x, y, z = _INF
    for j in range(15, -1, -1):
        if z:  # double
            ysq = y * y % P
            s = 4 * x * ysq % P
            m = 3 * x * x % P
            z = 2 * y * z % P
            x = (m * m - 2 * s) % P
            y = (m * (s - x) - 8 * ysq * ysq) % P
        for addend in (low[int(bits[31 - j :: 32], 2)], high[int(bits[15 - j :: 32], 2)]):
            if addend is None:
                continue
            x2, y2 = addend
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
    return _to_affine((x, y, z))


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
    """Check a signature produced by :func:`sign` against a compressed key.

    The key's ladder tables come from :func:`_key_tables`, and x(R) is
    compared with r in Jacobian coordinates: X = r*Z^2, or (r + N)*Z^2 when
    r + N < P, since x(R) mod N = r allows exactly those two values.
    """
    try:
        r, s = _split_sig(signature)
    except SignatureError:
        return False
    tables = _key_tables(bytes(public_key))
    if tables is None:
        return False
    e = int.from_bytes(digest, "big") % N
    sinv = pow(s, -1, N)
    x, _, z = _ladder(e * sinv % N, r * sinv % N, *tables)
    if not z:
        return False
    zz = z * z % P
    return x == r * zz % P or (r + N < P and x == (r + N) * zz % P)


def recovered_keys(digest: bytes, signature: bytes) -> Iterator[bytes]:
    """Lazily yield every compressed public key that verifies the signature.

    For each curve point R with x(R) = r (x = r, then r + N; even y, then
    odd y) the candidate is Q = r^-1 (s*R - e*G) = u1*G + u2*R with
    u1 = -e*r^-1 and u2 = s*r^-1. The two R of one x are negatives of each
    other, so with B = u1*G (the comb, once) and A = u2*R for the even R
    (one ladder per x), the candidates are B + A and then B - A; a candidate
    at infinity is skipped. Q satisfies the verification equation by
    construction, so no re-verification is needed; a caller comparing
    against a known key hash gets the usual 2^-160 bound. A malformed
    signature yields nothing.
    """
    try:
        r, s = _split_sig(signature)
    except SignatureError:
        return
    e = int.from_bytes(digest, "big") % N
    rinv = pow(r, -1, N)
    b = _from_affine(_mul_g(-e * rinv % N))
    u2 = s * rinv % N
    for x in (r, r + N):
        big_r = _lift_x(x, odd=False)
        if big_r is None:
            continue
        a = _from_affine(_shamir(0, u2, big_r))
        for addend in (a, (a[0], P - a[1], a[2])):  # u2*R, then u2*(-R)
            q = _to_affine(_jac_add(b, addend))
            if q is not None:
                yield encode_pubkey(q)


def recover_candidates(digest: bytes, signature: bytes) -> list[bytes]:
    """All keys of :func:`recovered_keys`, in the same order."""
    return list(recovered_keys(digest, signature))


def verify_with_key_hash(digest: bytes, signature: bytes, key_hash: bytes) -> bool:
    """Signature check when only hash160(pubkey) is known (key recovery);
    stops at the first candidate key that hashes to ``key_hash``."""
    return any(hash160(pk) == key_hash for pk in recovered_keys(digest, signature))
