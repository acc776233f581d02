import random

import pytest

from cloudvault.field import BinaryField, PrimeField, ZeroInverse


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


def test_prime_field_matches_int_arithmetic():
    f = PrimeField(251)
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randrange(251), rng.randrange(251)
        assert f.add(a, b) == (a + b) % 251
        assert f.sub(a, b) == (a - b) % 251
        assert f.mul(a, b) == (a * b) % 251
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
        PrimeField(257)  # prime, but its elements no longer fit in a byte


def test_element_bounds_checked():
    f = PrimeField(13)
    with pytest.raises(ValueError):
        f.check(13)
    with pytest.raises(ValueError):
        f.check(-1)
    f.check(12)


@pytest.mark.parametrize("f", [BinaryField(), PrimeField(13), PrimeField(251)])
def test_rows_match_scalar_ops(f):
    elements = bytes(range(f.order))
    for c in range(f.order):
        row = f.mul_row(c)
        assert len(row) == 256
        assert elements.translate(row) == bytes(f.mul(c, b) for b in elements)
        assert f.add_bytes(bytes([c]) * f.order, elements) == bytes(
            f.add(c, b) for b in elements
        )
