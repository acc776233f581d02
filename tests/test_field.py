import random

import pytest

from cloudvault import field
from cloudvault.field import ZeroInverse


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
    for a in range(256):
        for b in range(256):
            assert field.mul(a, b) == _peasant_mul(a, b)


def test_binary_known_products():
    assert field.mul(0x57, 0x83) == 0xC1
    assert field.mul(3, 3) == 5
    assert field.mul(5, 3) == 15


def test_binary_add_is_xor_and_self_inverse():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randbytes(16), rng.randbytes(16)
        total = field.add_bytes(a, b)
        assert total == bytes(x ^ y for x, y in zip(a, b))
        assert field.add_bytes(total, b) == a


def test_binary_inverse_everywhere():
    for a in range(1, 256):
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        field.inv(0)


def test_rows_match_scalar_ops():
    elements = bytes(range(256))
    for c in range(256):
        row = field.mul_row(c)
        assert len(row) == 256
        assert elements.translate(row) == bytes(_peasant_mul(c, b) for b in elements)
