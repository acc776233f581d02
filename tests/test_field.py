import random

import pytest

from cloudvault.field import (
    BinaryField,
    PrimeField,
    ZeroInverse,
    decode_elements,
    encode_elements,
    field_tag,
    read_field_tag,
)


def _peasant_mul(a: int, b: int) -> int:
    # Independent bit-by-bit route, reduction polynomial x^8+x^4+x^3+x+1.
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return p


def test_binary_mul_matches_peasant_oracle_everywhere():
    f = BinaryField()
    for a in range(256):
        for b in range(256):
            assert f.mul(a, b) == _peasant_mul(a, b)


def test_binary_known_products():
    f = BinaryField()
    assert f.mul(0x57, 0x83) == 0xC1
    assert f.mul(3, 3) == 5
    assert f.mul(5, 3) == 15


def test_binary_add_is_xor_and_self_inverse():
    f = BinaryField()
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randrange(256), rng.randrange(256)
        assert f.add(a, b) == a ^ b
        assert f.sub(a, b) == f.add(a, b)
        assert f.add(f.add(a, b), b) == a


def test_binary_inverse_everywhere():
    f = BinaryField()
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)


def test_binary_pow_matches_repeated_mul():
    f = BinaryField()
    rng = random.Random(2)
    for _ in range(100):
        a, e = rng.randrange(1, 256), rng.randrange(0, 20)
        acc = 1
        for _ in range(e):
            acc = f.mul(acc, a)
        assert f.pow(a, e) == acc


def test_prime_field_matches_int_arithmetic():
    f = PrimeField(251)
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randrange(251), rng.randrange(251)
        assert f.add(a, b) == (a + b) % 251
        assert f.sub(a, b) == (a - b) % 251
        assert f.mul(a, b) == (a * b) % 251
        assert f.neg(a) == (-a) % 251
    for a in range(1, 251):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(65537)  # does not fit the u16 wire slot


def test_element_bounds_checked():
    f = PrimeField(13)
    with pytest.raises(ValueError):
        f.check(13)
    with pytest.raises(ValueError):
        f.check(-1)
    f.check(12)


def test_field_tag_round_trip():
    for f in (BinaryField(), PrimeField(13), PrimeField(251)):
        data = field_tag(f)
        parsed, consumed = read_field_tag(data, 0)
        assert consumed == len(data)
        assert parsed == f


def test_encode_decode_round_trip():
    rng = random.Random(4)
    for f in (BinaryField(), PrimeField(251)):
        values = [rng.randrange(f.order) for _ in range(64)]
        blob = encode_elements(values, f)
        assert len(blob) == 64 * f.element_size
        assert list(decode_elements(blob, f)) == values


def test_decode_rejects_out_of_field():
    f = PrimeField(13)
    blob = (300).to_bytes(2, "little")
    with pytest.raises(ValueError):
        decode_elements(blob, f)
