import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorchain import crypto


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
    kp = crypto.Keypair.from_seed(b"alpha")
    digest = crypto.sha256(b"payload")
    assert crypto.sign(digest, kp) == crypto.sign(digest, kp)


def test_sign_verify_roundtrip():
    rng = random.Random(1)
    kp = crypto.Keypair.generate(rng)
    digest = crypto.sha256(b"message")
    sig = crypto.sign(digest, kp)
    assert crypto.verify(digest, sig, kp.public_key)
    assert not crypto.verify(crypto.sha256(b"other"), sig, kp.public_key)


def test_signature_lengths_are_71_or_72():
    rng = random.Random(2)
    seen = set()
    for _ in range(300):
        kp = crypto.Keypair.generate(rng)
        digest = rng.getrandbits(256).to_bytes(32, "big")
        seen.add(len(crypto.sign(digest, kp)))
    assert seen == {71, 72}


def test_tampered_signature_rejected():
    kp = crypto.Keypair.from_seed(b"beta")
    digest = crypto.sha256(b"m")
    sig = bytearray(crypto.sign(digest, kp))
    sig[9] ^= 0x01
    assert not crypto.verify(digest, bytes(sig), kp.public_key)


def test_missing_sighash_byte_rejected():
    kp = crypto.Keypair.from_seed(b"gamma")
    digest = crypto.sha256(b"m")
    sig = crypto.sign(digest, kp)
    assert not crypto.verify(digest, sig[:-1], kp.public_key)


def test_high_s_rejected():
    kp = crypto.Keypair.from_seed(b"delta")
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


def test_pubkey_roundtrip():
    kp = crypto.Keypair.from_seed(b"epsilon")
    assert crypto.encode_pubkey(crypto.decode_pubkey(kp.public_key)) == kp.public_key


def test_bad_pubkey_rejected():
    with pytest.raises(crypto.SignatureError):
        crypto.decode_pubkey(b"\x04" + b"\x01" * 32)
    with pytest.raises(crypto.SignatureError):
        crypto.decode_pubkey(b"\x02" + b"\xff" * 32)


def test_der_strictness():
    with pytest.raises(crypto.SignatureError):
        crypto.der_decode(b"\x30\x00")
    kp = crypto.Keypair.from_seed(b"zeta")
    sig = crypto.sign(crypto.sha256(b"x"), kp)[:-1]
    r, s = crypto.der_decode(sig)
    padded = b"\x30" + bytes([len(sig)]) + b"\x02" + bytes([34]) + b"\x00\x00" + sig[4:36]
    with pytest.raises(crypto.SignatureError):
        crypto.der_decode(padded)


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


# --- reference arithmetic: plain double-and-add, independent of the window table


G = (crypto.GX, crypto.GY)
NEG_G = (crypto.GX, crypto.P - crypto.GY)


def _ref_add(p, q):
    return crypto._to_affine(crypto._jac_add(crypto._from_affine(p), crypto._from_affine(q)))


def _ref_mul(k, pt):
    acc, add = crypto._INF, crypto._from_affine(pt)
    k %= crypto.N
    while k:
        if k & 1:
            acc = crypto._jac_add(acc, add)
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
def test_recovered_keys_match_textbook_recovery(digest, secret):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    keys = crypto.recover_candidates(digest, sig)
    assert keys == list(crypto.recovered_keys(digest, sig)) == _ref_recover(digest, sig)
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
@given(digests, secrets, st.integers(min_value=0, max_value=71), st.binary(max_size=80))
def test_verify_with_key_hash_rejects_malformed_signature(digest, secret, cut, junk):
    kp = crypto.Keypair(secret)
    sig = crypto.sign(digest, kp)
    r, s = crypto.der_decode(sig[:-1])
    high_s = crypto.der_encode(r, crypto.N - s) + bytes([crypto.SIGHASH_ALL])
    for bad in (sig[:cut], sig[:-1] + b"\x02", high_s):
        assert not crypto.verify_with_key_hash(digest, bad, kp.key_hash)
        assert next(crypto.recovered_keys(digest, bad), None) is None
    if junk != sig:
        assert not crypto.verify_with_key_hash(digest, junk, kp.key_hash)


@settings(max_examples=40, deadline=None)
@given(scalars, scalars, st.one_of(st.just(G), st.just(NEG_G), secrets))
def test_windowed_shamir_matches_separate_multiplications(u1, u2, q):
    if isinstance(q, int):
        q = _ref_mul(q, G)
    assert crypto._shamir(u1, u2, q) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, q))


def test_windowed_shamir_edge_cases():
    q = crypto.Keypair.from_seed(b"edge").point
    u = 0x1234567890ABCDEF << 100
    for u1, u2, pt in [
        (0, 0, q), (0, u, q), (u, 0, q), (u, u, G), (u, crypto.N - u, G),
        (u, u, NEG_G), (crypto.N - 1, 1, G), (u, crypto.N - u, NEG_G),
    ]:
        assert crypto._shamir(u1, u2, pt) == _ref_add(_ref_mul(u1, G), _ref_mul(u2, pt))
    assert crypto._shamir(0, 0, q) is None
    assert crypto._shamir(1, crypto.N - 1, G) is None


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
