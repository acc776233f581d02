import itertools
import random

import pytest

from cloudvault.shamir import (
    DuplicatePoint,
    InsufficientShares,
    InvalidScheme,
    MixedScheme,
    Share,
    ShareScheme,
    reconstruct,
    split,
)


def _bitwise_mul(a, b):
    """GF(2^8) product under 0x11b, one bit at a time, independent of
    the library's tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return out


class _FixedCoefficients:
    """Stands in for random.Random when the polynomial must be pinned."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, _bound):
        return self._values.pop(0)


def test_known_linear_polynomial_over_gf256():
    # q(x) = 5 + 3x, with + as XOR and 3x = 3, 6, 5, evaluates to 6, 3, 0
    # at x = 1, 2, 3.
    assert [5 ^ _bitwise_mul(3, x) for x in (1, 2, 3)] == [6, 3, 0]
    scheme = ShareScheme(threshold=2, share_count=3)
    shares = split(bytes([5]), scheme, _FixedCoefficients([3]))
    assert [(s.x, s.payload[0]) for s in shares] == [(1, 6), (2, 3), (3, 0)]
    for pair in itertools.combinations(shares, 2):
        assert reconstruct(list(pair)) == bytes([5])


def test_single_share_is_uniform_over_gf256():
    """One share of a k=2 scheme fits every candidate secret equally often."""
    scheme = ShareScheme(threshold=2, share_count=3)
    fixed = Share(x=2, payload=bytes([3]), scheme=scheme)
    consistent = {s: 0 for s in range(256)}
    for secret in range(256):
        for a1 in range(256):
            if secret ^ _bitwise_mul(a1, fixed.x) == fixed.payload[0]:
                consistent[secret] += 1
    assert all(count == 1 for count in consistent.values())


def test_round_trip_all_k_subsets():
    rng = random.Random(11)
    secret = rng.randbytes(32)
    scheme = ShareScheme(threshold=3, share_count=6)
    shares = split(secret, scheme, rng)
    for subset in itertools.combinations(shares, 3):
        assert reconstruct(list(subset)) == secret


def test_below_threshold_raises():
    rng = random.Random(12)
    scheme = ShareScheme(threshold=4, share_count=5)
    shares = split(b"payload", scheme, rng)
    with pytest.raises(InsufficientShares):
        reconstruct(shares[:3])
    with pytest.raises(InsufficientShares):
        reconstruct([])


def test_scheme_validation():
    with pytest.raises(InvalidScheme):
        ShareScheme(threshold=0, share_count=3)
    with pytest.raises(InvalidScheme):
        ShareScheme(threshold=4, share_count=3)
    with pytest.raises(InvalidScheme):
        # x points 1..n must be distinct nonzero bytes.
        ShareScheme(threshold=2, share_count=256)
    assert ShareScheme(threshold=2, share_count=255).share_count == 255


def test_mixed_shares_refused():
    rng = random.Random(13)
    a = split(b"aa", ShareScheme(2, 3), rng, object_id="a")
    b = split(b"aa", ShareScheme(2, 3), rng, object_id="b")
    with pytest.raises(MixedScheme):
        reconstruct([a[0], b[1]])
    c = split(b"aa", ShareScheme(2, 4), rng, object_id="a")
    with pytest.raises(MixedScheme):
        reconstruct([a[0], c[1]])
    d = split(b"a", ShareScheme(2, 3), rng, object_id="a")
    with pytest.raises(MixedScheme):
        reconstruct([a[0], d[1]])


def test_duplicate_x_refused():
    rng = random.Random(14)
    shares = split(b"zz", ShareScheme(2, 3), rng)
    with pytest.raises(DuplicatePoint):
        reconstruct([shares[0], shares[0], shares[1]])


def test_split_rejects_bad_input():
    rng = random.Random(15)
    with pytest.raises(ValueError):
        split(b"", ShareScheme(2, 3), rng)


def test_reconstruct_uses_any_k_not_just_first_n():
    rng = random.Random(17)
    secret = rng.randbytes(8)
    shares = split(secret, ShareScheme(2, 5), rng)
    assert reconstruct([shares[4], shares[1]]) == secret


def test_split_matches_scalar_horner():
    """Shares equal per-byte Horner evaluation with a bitwise multiply,
    drawing the coefficients byte-major from the same generator."""
    secret = random.Random(18).randbytes(200)
    scheme = ShareScheme(threshold=3, share_count=5)
    shares = split(secret, scheme, random.Random(19))
    replay = random.Random(19)
    polys = [[b, replay.randrange(256), replay.randrange(256)] for b in secret]
    for share in shares:
        want = []
        for coeffs in polys:
            acc = 0
            for c in reversed(coeffs):
                acc = _bitwise_mul(acc, share.x) ^ c
            want.append(acc)
        assert share.payload == bytes(want)
    assert reconstruct(shares[2:]) == secret
