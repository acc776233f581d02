import random

import pytest
from hypothesis import given, settings, strategies as st

from cloudvault.homomorphic import (
    Ciphertext,
    KeyMismatch,
    KeyPair,
    PublicKey,
    decrypt,
    decrypt_bytes,
    encrypt,
    encrypt_bytes,
    he_add,
    he_scale,
    he_sub,
    keygen,
    parse_ciphertext,
    serialize_ciphertext,
)


class _FixedNonce:
    """rng stub whose randrange always lands on a preset blinding value."""

    def __init__(self, r):
        self._r = r

    def randrange(self, *a):
        return self._r

    def getrandbits(self, n):  # keygen compatibility, unused here
        raise AssertionError("unexpected call")


def test_known_ciphertext_small_modulus():
    # p=11, q=13, m=42, r=7: (1 + 42*143) * 7^143 mod 143^2 = 19021,
    # worked out by hand with plain integer arithmetic.
    keypair = KeyPair(public=PublicKey(n=143), p=11, q=13)
    ct = encrypt(keypair.public, 42, _FixedNonce(7))
    assert ct.value == 19021
    assert decrypt(keypair, ct) == 42


def test_keygen_deterministic_and_exact_bits():
    a = keygen(128, random.Random(51))
    b = keygen(128, random.Random(51))
    c = keygen(128, random.Random(52))
    assert a.public.n == b.public.n
    assert a.public.n != c.public.n
    assert a.public.n.bit_length() == 128
    assert a.p != a.q


def test_round_trip_random_plaintexts():
    kp = keygen(128, random.Random(54))
    rng = random.Random(55)
    for _ in range(50):
        m = rng.randrange(kp.public.n)
        assert decrypt(kp, encrypt(kp.public, m, rng)) == m


def test_additive_homomorphism():
    kp = keygen(128, random.Random(56))
    rng = random.Random(57)
    n = kp.public.n
    for _ in range(50):
        m1, m2, s = rng.randrange(n), rng.randrange(n), rng.randrange(1000)
        c1, c2 = encrypt(kp.public, m1, rng), encrypt(kp.public, m2, rng)
        assert decrypt(kp, he_add(c1, c2)) == (m1 + m2) % n
        assert decrypt(kp, he_sub(c1, c2)) == (m1 - m2) % n
        assert decrypt(kp, he_scale(c1, s)) == (m1 * s) % n


def test_fresh_randomness_changes_ciphertext_not_plaintext():
    kp = keygen(128, random.Random(58))
    rng = random.Random(59)
    c1 = encrypt(kp.public, 7, rng)
    c2 = encrypt(kp.public, 7, rng)
    assert c1.value != c2.value
    assert decrypt(kp, c1) == decrypt(kp, c2) == 7


def test_key_mismatch_refused():
    kp1 = keygen(128, random.Random(64))
    kp2 = keygen(128, random.Random(65))
    rng = random.Random(66)
    c1 = encrypt(kp1.public, 1, rng)
    c2 = encrypt(kp2.public, 2, rng)
    with pytest.raises(KeyMismatch):
        he_add(c1, c2)
    with pytest.raises(KeyMismatch):
        decrypt(kp2, c1)


def test_ciphertext_wire_round_trip():
    kp = keygen(128, random.Random(67))
    rng = random.Random(68)
    ct = encrypt(kp.public, 424242, rng)
    wire = serialize_ciphertext(ct)
    assert parse_ciphertext(wire, kp.public) == ct


def test_parse_rejects_foreign_key_and_garbage():
    kp1 = keygen(128, random.Random(69))
    kp2 = keygen(128, random.Random(70))
    wire = serialize_ciphertext(encrypt(kp1.public, 5, random.Random(71)))
    with pytest.raises(KeyMismatch):
        parse_ciphertext(wire, kp2.public)
    with pytest.raises(ValueError):
        parse_ciphertext(b"????" + bytes(10), kp1.public)


def test_ciphertext_value_must_fit_modulus_square():
    kp = keygen(128, random.Random(72))
    bad = Ciphertext(value=kp.public.nsquare + 1, public=kp.public)
    with pytest.raises(ValueError):
        parse_ciphertext(serialize_ciphertext(bad), kp.public)


def test_byte_strings_round_trip_and_every_truncation_is_refused():
    kp = keygen(64, random.Random(73))
    data = bytes([0, 1, 127, 255])
    blob = encrypt_bytes(kp.public, data, random.Random(74))
    # One length-framed ciphertext per byte, drawn in the order encrypt draws.
    rng = random.Random(74)
    assert blob == b"".join(
        len(w).to_bytes(4, "little") + w
        for w in (serialize_ciphertext(encrypt(kp.public, b, rng)) for b in data)
    )
    assert decrypt_bytes(kp, blob, len(data)) == data
    for cut in range(len(blob)):
        # A cut inside a fingerprint leaves a prefix of it: another key's.
        with pytest.raises((ValueError, KeyMismatch)):
            decrypt_bytes(kp, blob[:cut], len(data))
    with pytest.raises(KeyMismatch):
        decrypt_bytes(keygen(64, random.Random(75)), blob, len(data))


def _textbook_decrypt(keypair, c):
    """L(c^lambda mod n^2) * mu mod n, with lambda = (p - 1)(q - 1) and
    mu = lambda^-1 mod n: Paillier's decryption without CRT."""
    n = keypair.public.n
    lam = (keypair.p - 1) * (keypair.q - 1)
    return (pow(c.value, lam, n * n) - 1) // n * pow(lam, -1, n) % n


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(bits=st.integers(16, 512), seed=st.integers(0, 2**32), data=st.data())
def test_crt_decryption_equals_the_textbook_formula(bits, seed, data):
    kp = keygen(bits, random.Random(seed))
    n = kp.public.n
    plain = st.integers(0, n - 1)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m1, m2, scalar = data.draw(plain), data.draw(plain), data.draw(plain)
    c1, c2 = encrypt(kp.public, m1, rng), encrypt(kp.public, m2, rng)
    for c, want in (
        (c1, m1),
        (c2, m2),
        (he_add(c1, c2), (m1 + m2) % n),
        (he_scale(c1, scalar), m1 * scalar % n),
    ):
        assert decrypt(kp, c) == _textbook_decrypt(kp, c) == want


def test_a_ciphertext_sharing_a_factor_with_the_modulus_is_refused():
    kp = keygen(64, random.Random(76))
    nsq = kp.public.nsquare
    for value in (0, kp.p, kp.q, kp.p * 12345 % nsq, kp.q * kp.q, kp.public.n):
        with pytest.raises(ValueError, match="factor"):
            decrypt(kp, Ciphertext(value=value, public=kp.public))
