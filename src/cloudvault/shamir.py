"""Threshold secret sharing over GF(2^8), one field element per secret byte.

Every secret byte D becomes the constant term of its own random polynomial

    q(x) = D + a_1 x + ... + a_{threshold-1} x^(threshold-1)

with the remaining coefficients drawn fresh from the supplied generator, all
of a split's coefficients in one ``randbytes`` call. Share i carries q(i)
for each byte position, evaluated at x = 1..n. Any ``threshold`` shares
recover the secret exactly by Lagrange interpolation at x = 0; one share
fewer is consistent with every candidate secret equally often and therefore
says nothing about it.

A share's payload is bytes, one field element per secret byte, and is what
a provider stores as is; the scheme, the evaluation point and the object id
stay in the local manifest. Both directions work on all byte positions at
once: each step multiplies a whole byte string by one field constant
(``translate`` through ``field.mul_row``) and adds two strings with
``field.add_bytes``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import field


class ShamirError(Exception):
    """Base class for sharing failures."""


class InvalidScheme(ShamirError):
    """Scheme parameters violate 1 <= threshold <= share_count < 256."""


class InsufficientShares(ShamirError):
    """Fewer shares supplied than the scheme's threshold."""


class MixedScheme(ShamirError):
    """Shares from different schemes or objects were combined."""


class DuplicatePoint(ShamirError):
    """Two shares claim the same evaluation point."""


@dataclass(frozen=True)
class ShareScheme:
    """Parameters of one sharing: recover with ``threshold`` of ``share_count``."""

    threshold: int
    share_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= self.share_count:
            raise InvalidScheme(
                f"threshold {self.threshold} not in [1, {self.share_count}]"
            )
        if self.share_count >= 256:
            # Evaluation points 1..n must be distinct nonzero field elements.
            raise InvalidScheme(f"share count {self.share_count} too large for GF(2^8)")


@dataclass(frozen=True)
class Share:
    """One evaluation of the per-byte polynomials at point ``x``."""

    x: int
    payload: bytes
    scheme: ShareScheme
    object_id: str = ""


def split(
    secret: bytes,
    scheme: ShareScheme,
    rng: random.Random,
    object_id: str = "",
) -> list[Share]:
    """Split ``secret`` into ``scheme.share_count`` shares.

    All ``len(secret) * (threshold - 1)`` coefficients come from one
    ``rng.randbytes`` call, laid out byte-major: all of byte 0's
    coefficients, lowest degree first, then byte 1's, and so on. The same
    seeded generator therefore reproduces an identical sharing, which the
    dispatcher relies on for deterministic replay under a fixed seed, and a
    caller pins the coefficients by supplying those bytes.

    Args:
        secret: nonempty byte string.
        scheme: sharing parameters.
        rng: source of coefficient randomness; only ``randbytes`` is called.
        object_id: opaque identifier stamped into each share so shares of
            different objects refuse to combine.

    Raises:
        ValueError: empty secret.
    """
    if not secret:
        raise ValueError("cannot split an empty secret")
    degree = scheme.threshold - 1
    coeffs = rng.randbytes(len(secret) * degree)
    # terms[j] holds the x^j coefficient of every byte's polynomial.
    terms = [secret, *(coeffs[j::degree] for j in range(degree))]
    shares = []
    for x in range(1, scheme.share_count + 1):
        # Horner over every byte at once, highest coefficient first.
        row = field.mul_row(x)
        acc = terms[-1]
        for term in reversed(terms[:-1]):
            acc = field.add_bytes(acc.translate(row), term)
        shares.append(Share(x=x, payload=acc, scheme=scheme, object_id=object_id))
    return shares


def reconstruct(shares: Sequence[Share]) -> bytes:
    """Recover the secret from at least ``threshold`` consistent shares.

    Extra shares beyond the threshold are accepted; the first ``threshold``
    in the given order are interpolated. All supplied shares must agree on
    scheme, object id and payload length, and claim distinct points.

    Raises:
        InsufficientShares: fewer shares than the threshold (or none).
        MixedScheme: shares disagree on scheme, object or length.
        DuplicatePoint: repeated evaluation point.
    """
    if not shares:
        raise InsufficientShares("no shares provided")
    first = shares[0]
    scheme = first.scheme
    for s in shares[1:]:
        if s.scheme != scheme or s.object_id != first.object_id:
            raise MixedScheme("shares come from different sharings")
        if len(s.payload) != len(first.payload):
            raise MixedScheme("share payload lengths differ")
    seen: set[int] = set()
    for s in shares:
        if s.x in seen:
            raise DuplicatePoint(f"point x={s.x} appears twice")
        seen.add(s.x)
    if len(shares) < scheme.threshold:
        raise InsufficientShares(
            f"{len(shares)} shares given, {scheme.threshold} required"
        )

    use = shares[: scheme.threshold]
    xs = [s.x for s in use]
    # Lagrange basis at x = 0: w_i = prod_{j != i} x_j / (x_j - x_i), where
    # subtraction is XOR.
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = field.mul(num, xj)
            den = field.mul(den, xj ^ xi)
        weights.append(field.mul(num, field.inv(den)))

    acc = bytes(len(first.payload))
    for w, s in zip(weights, use):
        acc = field.add_bytes(acc, s.payload.translate(field.mul_row(w)))
    return acc
