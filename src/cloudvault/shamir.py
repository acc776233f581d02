"""Threshold secret sharing over small finite fields.

Every secret byte D becomes the constant term of its own random polynomial

    q(x) = D + a_1 x + ... + a_{threshold-1} x^(threshold-1)

with the remaining coefficients drawn fresh from the supplied generator.
Share i carries q(i) for each byte position, evaluated at x = 1..n. Any
``threshold`` shares recover the secret exactly by Lagrange interpolation at
x = 0; one share fewer is consistent with every candidate secret equally
often and therefore says nothing about it.

Shares are immutable values. A provider stores only a share's payload; the
scheme, the evaluation point and the object id stay in the local manifest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .field import BinaryField, FieldSpec


class ShamirError(Exception):
    """Base class for sharing failures."""


class InvalidScheme(ShamirError):
    """Scheme parameters violate 1 <= threshold <= share_count < field order."""


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
    field: FieldSpec = BinaryField()

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= self.share_count:
            raise InvalidScheme(
                f"threshold {self.threshold} not in [1, {self.share_count}]"
            )
        if self.share_count >= self.field.order:
            # Evaluation points 1..n must be distinct nonzero field elements.
            raise InvalidScheme(
                f"share count {self.share_count} too large for field order "
                f"{self.field.order}"
            )

    def corruption_tolerance(self) -> int:
        """Shares that may be lost or damaged while recovery stays possible."""
        return self.share_count - self.threshold


@dataclass(frozen=True)
class Share:
    """One evaluation of the per-byte polynomials at point ``x``."""

    x: int
    payload: tuple[int, ...]
    scheme: ShareScheme
    object_id: str = ""


def _eval_poly(coeffs: Sequence[int], x: int, f: FieldSpec) -> int:
    # Horner, highest coefficient first.
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def split(
    secret: bytes,
    scheme: ShareScheme,
    rng: random.Random,
    object_id: str = "",
) -> list[Share]:
    """Split ``secret`` into ``scheme.share_count`` shares.

    Coefficients are drawn byte-major: all of byte 0's coefficients, then
    byte 1's, and so on. The same seeded generator therefore reproduces an
    identical sharing, which the dispatcher relies on for deterministic
    replay under a fixed seed.

    Args:
        secret: nonempty byte string; every byte must be a valid field
            element (always true for the default binary field).
        scheme: sharing parameters.
        rng: source of coefficient randomness.
        object_id: opaque identifier stamped into each share so shares of
            different objects refuse to combine.

    Raises:
        ValueError: empty secret, or a byte outside the field.
    """
    if not secret:
        raise ValueError("cannot split an empty secret")
    f = scheme.field
    for b in secret:
        f.check(b)
    order = f.order
    polys = []
    for b in secret:
        coeffs = [b] + [rng.randrange(order) for _ in range(scheme.threshold - 1)]
        polys.append(coeffs)
    shares = []
    for x in range(1, scheme.share_count + 1):
        payload = tuple(_eval_poly(coeffs, x, f) for coeffs in polys)
        shares.append(Share(x=x, payload=payload, scheme=scheme, object_id=object_id))
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

    f = scheme.field
    use = shares[: scheme.threshold]
    xs = [s.x for s in use]
    # Lagrange basis at x = 0: w_i = prod_{j != i} x_j / (x_j - x_i).
    weights = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = f.mul(num, xj)
            den = f.mul(den, f.sub(xj, xi))
        weights.append(f.mul(num, f.inv(den)))

    out = []
    for pos in range(len(first.payload)):
        acc = 0
        for w, s in zip(weights, use):
            acc = f.add(acc, f.mul(w, s.payload[pos]))
        out.append(acc)
    return bytes(out)
