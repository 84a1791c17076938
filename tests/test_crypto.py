import functools
import hashlib
import os
import random
import sys
import threading
from itertools import islice

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorchain import crypto

from conftest import DER_EDITS, keypair_from_seed, tamper_der


def test_ripemd160_known_vectors():
    cases = {
        b"": "9c1185a5c5e9fc54612808977ee8f548b2258d31",
        b"abc": "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc",
        b"message digest": "5d0689ef49d2fae572b881b123a85ffa21595f36",
        b"abcdefghijklmnopqrstuvwxyz": "f71c27109c692c1b56bbdceb5b9d2865b3708dbc",
    }
    for data, want in cases.items():
        assert crypto._ripemd160(data).hex() == want


def test_hash160_is_sha256_then_ripemd():
    data = b"token"
    assert crypto.hash160(data) == crypto._ripemd160(crypto.sha256(data))


def test_sign_is_deterministic():
    kp = keypair_from_seed(b"alpha")
    digest = crypto.sha256(b"payload")
    assert crypto.sign(digest, kp) == crypto.sign(digest, kp)


def test_sign_verify_roundtrip():
    rng = random.Random(1)
    kp = crypto.Keypair.generate(rng)
    digest = crypto.sha256(b"message")
    sig = crypto.sign(digest, kp)
    assert crypto.verify(digest, sig, kp.public_key)
    assert not crypto.verify(crypto.sha256(b"other"), sig, kp.public_key)


def test_rfc6979_nonce_stream_is_pinned():
    # the first candidates of one (digest, secret) pair, as the stream gave
    # them before it used one-shot HMAC
    digest = crypto.sha256(b"rfc6979 nonce pin")
    assert [hex(k) for k in islice(crypto._rfc6979_nonces(digest, 0xC0FFEE), 3)] == [
        "0x628b733955e23592ce11df570a769ed4736710be2e5817aa194d556fa1c38513",
        "0xf05333f055f4fd8d7d0cc5bf5e4419ba08bf0120e0b3e08383471665e7070bb5",
        "0x2194d12d62b1c986148e36ab6b48cf7f16ed8894148ec6af3bb98dad83b258af",
    ]


def test_signature_lengths_are_71_or_72():
    rng = random.Random(2)
    seen = set()
    for _ in range(300):
        kp = crypto.Keypair.generate(rng)
        digest = rng.getrandbits(256).to_bytes(32, "big")
        seen.add(len(crypto.sign(digest, kp)))
    assert seen == {71, 72}


def test_tampered_signature_rejected():
    kp = keypair_from_seed(b"beta")
    digest = crypto.sha256(b"m")
    sig = bytearray(crypto.sign(digest, kp))
    sig[9] ^= 0x01
    assert not crypto.verify(digest, bytes(sig), kp.public_key)


def test_missing_sighash_byte_rejected():
    kp = keypair_from_seed(b"gamma")
    digest = crypto.sha256(b"m")
    sig = crypto.sign(digest, kp)
    assert not crypto.verify(digest, sig[:-1], kp.public_key)


def test_high_s_rejected():
    kp = keypair_from_seed(b"delta")
    digest = crypto.sha256(b"m")
    sig = crypto.sign(digest, kp)
    r, s = crypto.der_decode(sig[:-1])
    high = crypto.der_encode(r, crypto.N - s) + bytes([crypto.SIGHASH_ALL])
    assert not crypto.verify(digest, high, kp.public_key)


def test_recovery_finds_signer():
    rng = random.Random(3)
    kp = crypto.Keypair.generate(rng)
    digest = crypto.sha256(b"recover me")
    sig = crypto.sign(digest, kp)
    assert kp.public_key in crypto.recover_candidates(digest, sig)
    assert crypto.verify_with_key_hash(digest, sig, kp.key_hash)
    assert not crypto.verify_with_key_hash(digest, sig, b"\x00" * 20)


def test_der_strictness():
    with pytest.raises(crypto.SignatureError):
        crypto.der_decode(b"\x30\x00")
    kp = keypair_from_seed(b"zeta")
    sig = crypto.sign(crypto.sha256(b"x"), kp)[:-1]
    r, s = crypto.der_decode(sig)
    padded = b"\x30" + bytes([len(sig)]) + b"\x02" + bytes([34]) + b"\x00\x00" + sig[4:36]
    with pytest.raises(crypto.SignatureError):
        crypto.der_decode(padded)
    with pytest.raises(crypto.SignatureError, match="negative"):
        crypto.der_decode(bytes.fromhex("3006020180020101"))  # r = 0x80, top bit set


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.integers(min_value=1, max_value=crypto.N - 1))
def test_sign_verify_property(digest, secret):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    assert len(sig) in (71, 72)
    assert crypto.verify(digest, sig, kp.public_key)


def test_keypair_range_check():
    with pytest.raises(ValueError):
        crypto.Keypair(0)
    with pytest.raises(ValueError):
        crypto.Keypair(crypto.N)


# --- reference arithmetic: plain double-and-add over general Jacobian
# additions, independent of the kernel's tables and its mixed addition


G = (crypto.GX, crypto.GY)
NEG_G = (crypto.GX, crypto.P - crypto.GY)


def _jac_add(p, q):
    """Jacobian p plus Jacobian q, the general formula with no Z = 1 shortcut."""
    P = crypto.P
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
        return crypto._jac_double(p) if s1 == s2 else crypto._INF
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = h * h % P
    hcu = hsq * h % P
    u1hsq = u1 * hsq % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    return nx, ny, h * z1 * z2 % P


def _ref_add(p, q):
    return crypto._to_affine(_jac_add(crypto._from_affine(p), crypto._from_affine(q)))


def _ref_mul(k, pt):
    acc, add = crypto._INF, crypto._from_affine(pt)
    k %= crypto.N
    while k:
        if k & 1:
            acc = _jac_add(acc, add)
        add = crypto._jac_double(add)
        k >>= 1
    return crypto._to_affine(acc)


def _ref_recover(digest, signature):
    """Textbook r^-1 (s*R - e*G) for each R with x(R) = r, in recovery order."""
    r, s = crypto.der_decode(signature[:-1])
    e = int.from_bytes(digest, "big") % crypto.N
    out = []
    for x in (r, r + crypto.N):
        for odd in (False, True):
            big_r = crypto._lift_x(x, odd)
            if big_r is None:
                continue
            inner = _ref_add(_ref_mul(s, big_r), _ref_mul(crypto.N - e, G))
            if inner is None:
                continue
            q = _ref_mul(pow(r, -1, crypto.N), inner)
            if q is not None:
                out.append(crypto.encode_pubkey(q))
    return out


secrets = st.integers(min_value=1, max_value=crypto.N - 1)
scalars = st.one_of(st.just(0), st.just(1), st.just(crypto.N - 1), secrets)
digests = st.binary(min_size=32, max_size=32)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_hash160_matches_pure_python_ripemd(data):
    assert crypto.hash160(data) == crypto._ripemd160(crypto.sha256(data))


def test_hash160_uses_hashlib_when_offered():
    try:
        hashlib.new("ripemd160")
    except ValueError:
        assert crypto._RIPEMD160 is crypto._ripemd160
    else:
        assert crypto._RIPEMD160 is crypto._openssl_ripemd160


@settings(max_examples=25, deadline=None)
@given(digests, secrets)
@example(bytes(32), 1)  # e = 0: u1*G is at infinity, so each candidate is u2*R alone
def test_recovered_keys_match_textbook_recovery(digest, secret):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    keys = crypto.recover_candidates(digest, sig)
    assert keys == _ref_recover(digest, sig)
    assert kp.public_key in keys
    assert crypto.verify_with_key_hash(digest, sig, kp.key_hash)


@settings(max_examples=25, deadline=None)
@given(digests, secrets, st.binary(min_size=20, max_size=20))
def test_verify_with_key_hash_rejects_wrong_hash(digest, secret, other):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    if other != kp.key_hash:
        assert not crypto.verify_with_key_hash(digest, sig, other)


@settings(max_examples=25, deadline=None)
# cut stops below 71, the shorter signature length, so sig[:cut] is truncated
@given(digests, secrets, st.integers(min_value=0, max_value=70), st.binary(max_size=80))
def test_verify_with_key_hash_rejects_malformed_signature(digest, secret, cut, junk):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    r, s = crypto.der_decode(sig[:-1])
    high_s = crypto.der_encode(r, crypto.N - s) + bytes([crypto.SIGHASH_ALL])
    for bad in (sig[:cut], sig[:-1] + b"\x02", high_s):
        assert not crypto.verify_with_key_hash(digest, bad, kp.key_hash)
        assert crypto.recover_candidates(digest, bad) == []
    if junk != sig:
        assert not crypto.verify_with_key_hash(digest, junk, kp.key_hash)


def _shamir(u1, u2, q):
    """u1*G + u2*Q as key recovery forms it: the binary schedule's u2*Q plus
    the comb's u1*G in one mixed addition, affine."""
    a = crypto._double_and_add(crypto._binary(u2, q))
    b = crypto._mul_g(u1)
    return crypto._to_affine(crypto._add_affine(a, *b) if b else a)


@settings(max_examples=40, deadline=None)
@given(scalars, scalars, st.one_of(st.just(G), st.just(NEG_G), secrets))
def test_windowed_shamir_matches_separate_multiplications(u1, u2, q):
    if isinstance(q, int):
        q = _ref_mul(q, G)
    assert _shamir(u1, u2, q) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, q))


def test_windowed_shamir_edge_cases():
    q = keypair_from_seed(b"edge").point
    u = 0x1234567890ABCDEF << 100
    for u1, u2, pt in [
        (0, 0, q), (0, u, q), (u, 0, q), (u, u, G), (u, crypto.N - u, G),
        (u, u, NEG_G), (crypto.N - 1, 1, G), (u, crypto.N - u, NEG_G),
    ]:
        assert _shamir(u1, u2, pt) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, pt))
    assert _shamir(0, 0, q) is None
    assert _shamir(1, crypto.N - 1, G) is None


@settings(max_examples=25, deadline=None)
@given(secrets)
def test_keypair_cache_matches_fresh_derivation(secret):
    kp = crypto.Keypair(secret)
    fresh = crypto.Keypair(secret)
    point = _ref_mul(secret, G)
    public_key = crypto.encode_pubkey(point)
    for _ in range(2):
        assert kp.point == point
        assert kp.public_key == public_key
        assert kp.key_hash == crypto._ripemd160(hashlib.sha256(public_key).digest())
    assert kp == fresh and hash(kp) == hash(fresh) == hash(crypto.Keypair(secret))
    assert repr(kp) == repr(fresh) == f"Keypair(secret={secret})"
    assert len({kp, fresh}) == 1
    other = crypto.Keypair(secret % (crypto.N - 1) + 1)
    assert other != kp


# --- kernel: batch normalisation, the binary schedule and its branches


# lambda, a cube root of unity mod N; lambda*G shares its y with G
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
LAMBDA_G = _ref_mul(LAMBDA, G)
kernel_scalars = st.one_of(
    st.sampled_from([0, 1, crypto.N - 1, LAMBDA, crypto.N - LAMBDA]), secrets
)
# small signed (k1, k2), combined as k1 + k2*lambda below
halves = st.integers(min_value=-(2**126), max_value=2**126)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(secrets, st.integers(min_value=1, max_value=crypto.P - 1)),
                min_size=1, max_size=10))
def test_batch_to_affine_matches_to_affine(draws):
    points = []
    for secret, z in draws:
        x, y = _ref_mul(secret, G)
        points.append((x * z * z % crypto.P, y * z * z * z % crypto.P, z))
    assert crypto._batch_to_affine(points) == [crypto._to_affine(p) for p in points]


@settings(max_examples=60, deadline=None)
@given(kernel_scalars, kernel_scalars,
       st.one_of(st.sampled_from([G, NEG_G, LAMBDA_G]), secrets))
def test_glv_shamir_matches_separate_multiplications(u1, u2, q):
    if isinstance(q, int):
        q = _ref_mul(q, G)
    assert _shamir(u1, u2, q) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, q))


@settings(max_examples=40, deadline=None)
@given(halves, halves, halves, halves, st.one_of(st.sampled_from([G, NEG_G, LAMBDA_G]), secrets))
def test_glv_shamir_with_negative_halves(a1, b1, a2, b2, q):
    if isinstance(q, int):
        q = _ref_mul(q, G)
    u1 = (a1 + b1 * LAMBDA) % crypto.N
    u2 = (a2 + b2 * LAMBDA) % crypto.N
    assert _shamir(u1, u2, q) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, q))


def test_glv_shamir_doubling_and_infinity_branches():
    lam, n = LAMBDA, crypto.N
    # the binary schedule's u2*Q meets the comb's u1*G: the mixed addition
    # that joins them doubles (equal points) or lands at infinity (negated
    # points)
    u = 0x1D3F_55A1_9B07_C2E4 << 70 | 1
    hi, lo = 2**15, 2**3
    for u1, u2, q in [
        (1, 1, G), (1, n - 1, G), (1, 1, NEG_G), (lam, 1, LAMBDA_G), (lam, n - 1, LAMBDA_G),
        (1, lam, G), (3, 3, G), (u, u, G), (u, n - u, G), (u, u, NEG_G), (u * lam % n, u, LAMBDA_G),
        (hi, hi, G), (hi + lo, (lo - hi) % n, G), (hi + lo, (hi - lo) % n, NEG_G),
    ]:
        want = _ref_add(_ref_mul(u1, G), _ref_mul(u2, q))
        assert _shamir(u1, u2, q) == want, (u1, u2, q)
    assert _shamir(1, 1, G) == _ref_mul(2, G)
    assert _shamir(hi, hi, G) == _ref_mul(2 * hi, G)
    assert _shamir(hi + lo, (lo - hi) % n, G) == _ref_mul(2 * lo, G)
    assert _shamir(lam, n - 1, LAMBDA_G) is None


@pytest.mark.parametrize("k", [1, 2, 2**255, crypto.N - 1])
def test_binary_schedule_at_its_edges(k):
    q = keypair_from_seed(b"binary").point
    for pt in (G, NEG_G, q):
        schedule = crypto._binary(k, pt)
        assert [pos for pos, _ in schedule] == [i for i in range(255, -1, -1) if k >> i & 1]
        assert crypto._to_affine(crypto._double_and_add(schedule)) == _ref_mul(k, pt)


def test_import_time_tables_keep_their_size():
    # import time counts in the benchmark's setup_s and the table in its
    # peak_rss_mb, so a larger table has to be a deliberate change
    table = crypto._G_COMB
    assert len(table) == 4096 and table[0] is None
    assert sum(entry is not None for entry in table) == 4095


# --- fixed-base comb and key recovery


@pytest.mark.parametrize("u", [1, 2, 3, 0b10100101, 128, 255, 2048, 0b101001011010, 4095])
def test_comb_tables_hold_the_teeth_sums(u):
    teeth = sum(1 << (22 * i) for i in range(12) if u >> i & 1)
    assert crypto._G_COMB[u] == _ref_mul(teeth, G)


# 2^j and 2^j - 1 at the comb's column (22), tooth (22*i) and scalar (256)
# edges
COMB_EDGES = [0, 1, crypto.N - 1] + [
    k for j in (21, 22, 43, 44, 241, 242, 255) for k in (2**j, 2**j - 1)
]


def test_comb_mul_g_at_column_and_tooth_boundaries():
    for k in COMB_EDGES:
        assert crypto._mul_g(k) == _ref_mul(k, G), k


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(COMB_EDGES), secrets, st.integers(0, 2**256 - 1)))
def test_comb_mul_g_matches_reference(k):
    assert crypto._mul_g(k) == _ref_mul(k, G)


def _raw_signature(r, s):
    return crypto.der_encode(r, s) + bytes([crypto.SIGHASH_ALL])


# r below P - N also has the candidates of x = r + N
sig_r = st.one_of(
    st.integers(min_value=1, max_value=crypto.P - crypto.N - 1),
    st.integers(min_value=1, max_value=crypto.N - 1),
)
sig_s = st.integers(min_value=1, max_value=crypto.N // 2)
recovery_digests = st.one_of(st.just(bytes(32)), st.just(crypto.N.to_bytes(32, "big")), digests)


@settings(max_examples=40, deadline=None)
@given(recovery_digests, sig_r, sig_s)
def test_recovered_keys_match_textbook_recovery_for_any_scalars(digest, r, s):
    signature = _raw_signature(r, s)
    assert crypto.recover_candidates(digest, signature) == _ref_recover(digest, signature)


def _lifts(r):
    return sum(
        crypto._lift_x(x, odd) is not None for x in (r, r + crypto.N) for odd in (False, True)
    )


def test_recovered_keys_of_an_x_above_n_come_in_fours():
    r = next(r for r in range(1, crypto.P - crypto.N) if _lifts(r) == 4)
    signature = _raw_signature(r, 12345)
    for digest in (bytes(32), crypto.sha256(b"m")):
        keys = crypto.recover_candidates(digest, signature)
        assert len(keys) == 4 and keys == _ref_recover(digest, signature)


@settings(max_examples=25, deadline=None)
@given(secrets, sig_s)
@example(1, 1)  # R = G, even y: B + A is infinity
@example(crypto.N - 1, 1)  # R = -G, odd y: B - A is infinity
def test_recovered_keys_skip_the_candidate_at_infinity(k, s):
    """With e = s*k, the candidate of R = k*G is r^-1 (s*R - e*G) = infinity."""
    r = _ref_mul(k, G)[0] % crypto.N
    digest = (s * k % crypto.N).to_bytes(32, "big")
    signature = _raw_signature(r, s)
    keys = crypto.recover_candidates(digest, signature)
    assert keys == _ref_recover(digest, signature)
    assert len(keys) == _lifts(r) - 1


# --- verify against the textbook check


def _ref_verify(digest, signature, public_key):
    """Textbook check: x(e/s*G + r/s*Q) mod N == r, over plain double-and-add."""
    try:
        r, s = crypto._split_sig(signature)
    except crypto.SignatureError:
        return False
    if len(public_key) != 33 or public_key[0] not in (2, 3):
        return False
    q = crypto._lift_x(int.from_bytes(public_key[1:], "big"), odd=public_key[0] == 3)
    if q is None:
        return False
    w = pow(s, -1, crypto.N)
    e = int.from_bytes(digest, "big") % crypto.N
    pt = _ref_add(_ref_mul(e * w, G), _ref_mul(r * w, q))
    return pt is not None and pt[0] % crypto.N == r


def _flip_s(signature):
    """The signature with the lowest bit of s flipped: still strict DER."""
    return signature[:-2] + bytes([signature[-2] ^ 1]) + signature[-1:]


@pytest.mark.parametrize("flipped_first", [False, True])
def test_verify_keeps_tables_not_verdicts(flipped_first):
    kp = keypair_from_seed(b"memo")
    digest = crypto.sha256(b"memo")
    genuine = crypto.sign(digest, kp)
    flipped = _flip_s(genuine)
    order = [(flipped, False), (genuine, True)] if flipped_first else [(genuine, True), (flipped, False)]
    for key in (kp.public_key, bytearray(kp.public_key)):
        for sig, valid in order:
            assert _ref_verify(digest, sig, bytes(key)) is valid
            assert crypto.verify(digest, sig, key) is valid


def _off_curve_x():
    return next(x for x in range(1, 100) if crypto._lift_x(x, False) is None)


@pytest.mark.parametrize(
    "key",
    [
        b"\x04" + bytes(32),
        b"\x05" + keypair_from_seed(b"prefix").public_key[1:],
        b"\x02" + _off_curve_x().to_bytes(32, "big"),
        b"\x03" + crypto.P.to_bytes(32, "big"),
        keypair_from_seed(b"short").public_key[:-1],
        b"",
    ],
)
def test_verify_refuses_undecodable_keys_every_time(key):
    kp = keypair_from_seed(b"prefix")
    digest = crypto.sha256(b"undecodable")
    sig = crypto.sign(digest, kp)
    for _ in range(2):
        assert not _ref_verify(digest, sig, key)
        assert crypto.verify(digest, sig, key) is False
    assert crypto.verify(digest, sig, kp.public_key)


def _key_for_x_above_n(digest, r, s):
    """Q = u2^-1 (R - u1*G) for the even R with x(R) = r + N, so that the
    ladder's point for (r, s) over Q is R itself."""
    w = pow(s, -1, crypto.N)
    u1 = int.from_bytes(digest, "big") * w % crypto.N
    u2 = r * w % crypto.N
    big_r = crypto._lift_x(r + crypto.N, False)
    q = _ref_mul(pow(u2, -1, crypto.N), _ref_add(big_r, _ref_mul(crypto.N - u1, G)))
    return crypto.encode_pubkey(q)


def test_verify_accepts_an_x_above_n():
    r = next(r for r in range(1, crypto.P - crypto.N) if crypto._lift_x(r + crypto.N, False))
    digest = crypto.sha256(b"above n")
    for s in (1, 12345, crypto.N // 2):
        key = _key_for_x_above_n(digest, r, s)
        sig = _raw_signature(r, s)
        assert _ref_verify(digest, sig, key) and crypto.verify(digest, sig, key)
        other = crypto.sha256(b"other")
        assert not _ref_verify(other, sig, key) and not crypto.verify(other, sig, key)


@pytest.mark.parametrize("r", [1, 12345, crypto.N - 1])
def test_verify_refuses_a_sum_at_infinity(r):
    """With Q = -(e/r)*G the ladder's point e/s*G + r/s*Q is infinity,
    whose Jacobian X = 0 equals r*Z^2 = 0."""
    digest = crypto.sha256(b"infinity")
    e = int.from_bytes(digest, "big") % crypto.N
    key = crypto.encode_pubkey(_ref_mul(-e * pow(r, -1, crypto.N), G))
    sig = _raw_signature(r, 777)
    assert not _ref_verify(digest, sig, key)
    assert crypto.verify(digest, sig, key) is False


@settings(max_examples=40, deadline=None)
@given(digests, secrets, st.booleans())
def test_verify_matches_textbook_reference(digest, secret, flip):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    if flip:
        sig = _flip_s(sig)
    assert crypto.verify(digest, sig, kp.public_key) is _ref_verify(digest, sig, kp.public_key)


def _flip_r(signature):
    """The signature with the lowest bit of r flipped: still strict DER."""
    end = 4 + signature[3]  # r's bytes are signature[4:end]
    return signature[: end - 1] + bytes([signature[end - 1] ^ 1]) + signature[end:]


@settings(max_examples=60, deadline=None)
@given(digests, secrets, secrets,
       st.sampled_from(["none", "r", "s", "digest", "other key", "negated key"]))
def test_verify_agrees_with_textbook_verify_under_single_edits(digest, secret, other, edit):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    key = kp.public_key
    if edit == "r":
        sig = _flip_r(sig)
    elif edit == "s":
        sig = _flip_s(sig)
    elif edit == "digest":
        digest = bytes([digest[0] ^ 1]) + digest[1:]
    elif edit == "other key":
        key = crypto.Keypair(other).public_key
    elif edit == "negated key":  # the prefix names the other y: -Q
        key = bytes([key[0] ^ 1]) + key[1:]
    valid = edit == "none" or (edit == "other key" and other == secret)
    assert _ref_verify(digest, sig, key) is valid
    assert crypto.verify(digest, sig, key) is valid


def test_verify_refuses_encodings_beyond_the_strict_rules():
    """Each case holds the genuine (r, s), key point and digest value, so the
    equation holds; only Python's length and encoding rules refuse it."""
    kp = keypair_from_seed(b"strict")
    digest = b"\x00" + crypto.sha256(b"strict")[1:]  # e also fits 31 bytes
    sig = crypto.sign(digest, kp)
    r, s = crypto._split_sig(sig)
    assert crypto.verify(digest, sig, kp.public_key)

    x, y = kp.point
    uncompressed = b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    openssl_key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), uncompressed)
    openssl_key.verify(encode_dss_signature(r, s), digest, ec.ECDSA(Prehashed(hashes.SHA256())))
    hybrid = bytes([6 + (y & 1)]) + uncompressed[1:]
    for key in (uncompressed, hybrid):
        assert crypto.verify(digest, sig, key) is False

    for other in (digest[1:], b"\x00" + digest):  # 31 and 33 bytes, the same e
        assert _ref_verify(other, sig, kp.public_key)
        assert crypto.verify(other, sig, kp.public_key) is False

    r_der = crypto._der_int(r)  # r with one more leading zero byte
    body = b"\x02" + bytes([r_der[1] + 1]) + b"\x00" + r_der[2:] + crypto._der_int(s)
    non_minimal = b"\x30" + bytes([len(body)]) + body + bytes([crypto.SIGHASH_ALL])
    with pytest.raises(crypto.SignatureError, match="non-minimal"):
        crypto.der_decode(non_minimal[:-1])
    assert crypto.verify(digest, non_minimal, kp.public_key) is False


# --- tampered DER lengths


@settings(max_examples=150, deadline=None)
@given(digests, secrets, st.sampled_from(DER_EDITS), st.integers(0, 255))
@example(bytes(32), 1, "r", 0)  # r's length covers s
@example(bytes(32), 1, "cut body", 38)  # ends on the tag of s
@example(bytes(32), 1, "negative r", 0)  # r's pad dropped: the same (r, s), 71 bytes
@example(bytes(32), 2, "negative r", 0)  # r has no pad: its top bit set
def test_tampered_der_lengths_are_refused_as_signature_errors(digest, secret, edit, value):
    kp = crypto.Keypair(secret)
    signature = crypto.sign(digest, kp)
    bad = tamper_der(signature, edit, value)
    if bad == signature:
        return
    try:
        r, s = crypto.der_decode(bad[:-1])
    except crypto.SignatureError:
        assert crypto.recover_candidates(digest, bad) == []
    else:  # the edit happens to spell another strict encoding
        assert crypto.der_encode(r, s) == bad[:-1]
    assert crypto.verify(digest, bad, kp.public_key) is False


def test_der_integer_running_past_the_end_is_refused():
    with pytest.raises(crypto.SignatureError, match="truncated"):
        crypto.der_decode(bytes.fromhex("3006020401010101"))
    signature = bytes.fromhex("300602040101010101")
    assert crypto.verify(bytes(32), signature, keypair_from_seed(b"der").public_key) is False
    assert crypto.recover_candidates(bytes(32), signature) == []


# --- verify_many: the calling thread and one helper thread


MANY_KEYS = [keypair_from_seed(b"verify_many %d" % i) for i in range(3)]
OTHER_KEY = keypair_from_seed(b"verify_many other").public_key
CHECK_EDITS = (None, "r", "s", "digest", "key", "key prefix")


@functools.lru_cache(maxsize=None)
def _genuine_check(i):
    digest = crypto.sha256(b"check %d" % i)
    key = MANY_KEYS[i % len(MANY_KEYS)]
    return digest, crypto.sign(digest, key), key.public_key


def _edited_check(i, edit):
    """The genuine check i, or that check with r, s, the digest, the key or
    the key's prefix byte changed."""
    digest, signature, key = _genuine_check(i)
    r, s = crypto.der_decode(signature[:-1])
    if edit in ("r", "s"):
        r, s = (r ^ 1, s) if edit == "r" else (r, s ^ 1)
        signature = crypto.der_encode(r, s) + signature[-1:]
    elif edit == "digest":
        digest = bytes([digest[0] ^ 1]) + digest[1:]
    elif edit == "key":
        key = OTHER_KEY
    elif edit == "key prefix":
        key = bytes([key[0] ^ 1]) + key[1:]  # 02 <-> 03: the negated point
    return digest, signature, key


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(CHECK_EDITS)), max_size=24))
@example([])
@example([(0, None)])
@example([(0, None), (1, "s")])
@example([(i, None) for i in range(8)] * 2)
def test_verify_many_is_verify_of_each(draws):
    checks = [_edited_check(i, edit) for i, edit in draws]
    assert crypto.verify_many(checks) == [crypto.verify(*check) for check in checks]
    assert crypto.verify_many(iter(checks)) == [edit is None for _, edit in draws]


def test_an_exception_in_the_helper_thread_reaches_the_caller(monkeypatch):
    """The caller holds the first check until the helper has taken the
    second, which raises. The caller runs on a thread of its own, so that a
    batch that never finishes fails the test instead of hanging it."""
    helper_took_one = threading.Event()
    verify = crypto.verify
    raised = []

    def verify_or_fail(*check):
        if threading.current_thread() is caller:
            helper_took_one.wait(10)
            return verify(*check)
        helper_took_one.set()
        raise RuntimeError("helper failed")

    def call():
        try:
            crypto.verify_many([_genuine_check(0), _genuine_check(1)])
        except RuntimeError as exc:
            raised.append(exc)

    monkeypatch.setattr(crypto, "verify", verify_or_fail)
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert helper_took_one.is_set()
    assert [str(exc) for exc in raised] == ["helper failed"]


def test_repeated_batches_share_one_helper_thread(monkeypatch):
    before = threading.active_count()
    threads = set()
    verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *check: threads.add(threading.current_thread()) or verify(*check))
    checks = [_genuine_check(i) for i in range(8)]
    for _ in range(20):
        assert crypto.verify_many(checks) == [True] * 8
    assert threading.active_count() <= before + 1
    assert len(threads) <= 2
    assert sum(t.name.startswith("chorchain-verify") for t in threading.enumerate()) == 1


def test_verify_many_needs_no_cpu_affinity_query(monkeypatch):
    """verify_many asks nothing of the host: where the os module has no
    sched_getaffinity, as on macOS and Windows, a batch still verifies."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    checks = [_edited_check(i, CHECK_EDITS[i % 2]) for i in range(4)]
    assert crypto.verify_many(checks) == [crypto.verify(*check) for check in checks]


def test_concurrent_callers_each_get_their_own_results():
    """Four calling threads share the one helper, with the interpreter
    switching threads as often as it can; every batch still gets exactly
    its own verdicts."""
    draws = [(i, CHECK_EDITS[i % len(CHECK_EDITS)]) for i in range(8)]
    checks = [_edited_check(i, edit) for i, edit in draws]
    expected = [edit is None for _, edit in draws]
    wrong = []

    def caller(offset):
        for k in range(10):
            order = [(offset + k + j) % len(checks) for j in range(len(checks))]
            if crypto.verify_many([checks[j] for j in order]) != [expected[j] for j in order]:
                wrong.append((offset, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
