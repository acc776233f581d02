import itertools
import random

import pytest

from cloudvault.field import BinaryField, PrimeField
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


class _FixedCoefficients:
    """Stands in for random.Random when the polynomial must be pinned."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, _bound):
        return self._values.pop(0)


def test_known_linear_polynomial_over_gf13():
    # q(x) = 5 + 3x mod 13 evaluates to 8, 11, 1 at x = 1, 2, 3.
    scheme = ShareScheme(threshold=2, share_count=3, field=PrimeField(13))
    shares = split(bytes([5]), scheme, _FixedCoefficients([3]))
    assert [(s.x, s.payload[0]) for s in shares] == [(1, 8), (2, 11), (3, 1)]
    for pair in itertools.combinations(shares, 2):
        assert reconstruct(list(pair)) == bytes([5])


def test_single_share_is_uniform_over_gf13():
    """One share of a k=2 scheme fits every candidate secret equally often."""
    scheme = ShareScheme(threshold=2, share_count=3, field=PrimeField(13))
    fixed = Share(x=1, payload=bytes([8]), scheme=scheme)
    consistent = {s: 0 for s in range(13)}
    for secret in range(13):
        for a1 in range(13):
            if (secret + a1 * fixed.x) % 13 == fixed.payload[0]:
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
        # x points 1..n must stay inside the field.
        ShareScheme(threshold=2, share_count=13, field=PrimeField(13))


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
    with pytest.raises(ValueError):
        split(bytes([200]), ShareScheme(2, 3, field=PrimeField(13)), rng)


def test_reconstruct_uses_any_k_not_just_first_n():
    rng = random.Random(17)
    secret = rng.randbytes(8)
    shares = split(secret, ShareScheme(2, 5), rng)
    assert reconstruct([shares[4], shares[1]]) == secret


@pytest.mark.parametrize("f", [BinaryField(), PrimeField(251)])
def test_split_matches_scalar_horner(f):
    """Shares equal per-byte Horner evaluation with scalar field ops, drawing
    the coefficients byte-major from the same generator."""
    secret = bytes(b % f.order for b in random.Random(18).randbytes(200))
    scheme = ShareScheme(threshold=3, share_count=5, field=f)
    shares = split(secret, scheme, random.Random(19))
    replay = random.Random(19)
    polys = [[b, replay.randrange(f.order), replay.randrange(f.order)] for b in secret]
    for share in shares:
        want = []
        for coeffs in polys:
            acc = 0
            for c in reversed(coeffs):
                acc = f.add(f.mul(acc, share.x), c)
            want.append(acc)
        assert share.payload == bytes(want)
    assert reconstruct(shares[2:]) == secret
