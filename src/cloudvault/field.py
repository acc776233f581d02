"""Finite field arithmetic for byte-granular sharing and audit tokens.

Two field families cover everything the higher layers need:

* ``BinaryField()`` is GF(2^8) with the fixed irreducible reduction
  polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). Payload bytes map one to one
  onto elements, which is why it is the default everywhere.
* ``PrimeField(p)`` for primes below 2**16. Kept because tiny prime fields
  are hand-checkable, so tests can pin exact expected values.

Elements are plain ints in ``[0, order)``. Field objects are immutable and
the operations are pure, so a single instance may be shared freely. None of
this is constant-time; it protects simulated data at desk scale.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

GF256_POLY = 0x11B
GF256_GENERATOR = 3


class ZeroInverse(ArithmeticError):
    """The zero element has no multiplicative inverse."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _gf256_mul_slow(a: int, b: int) -> int:
    """Carryless multiply reduced by the fixed polynomial. Table-free."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= GF256_POLY
        b >>= 1
    return out


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf256_mul_slow(x, GF256_GENERATOR)
    if x != 1:
        # The generator must have multiplicative order exactly 255, otherwise
        # the log table has holes and inversion silently breaks.
        raise AssertionError("generator does not span the multiplicative group")
    return exp, log


_EXP, _LOG = _build_tables()
_INV = [0] + [_EXP[(255 - _LOG[a]) % 255] for a in range(1, 256)]


@dataclass(frozen=True)
class PrimeField:
    """Integers mod p under the usual arithmetic.

    p must be prime (checked here, not trusted) and small enough that two
    bytes carry any element on the wire.
    """

    p: int

    def __post_init__(self) -> None:
        if not 2 <= self.p < (1 << 16):
            raise ValueError(f"prime field modulus out of range: {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p

    @property
    def element_size(self) -> int:
        """Bytes per element in serialized form."""
        return 2

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        return pow(a, e, self.p)

    def check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise ValueError(f"{a} is not an element of GF({self.p})")
        return a


@dataclass(frozen=True)
class BinaryField:
    """GF(2^8) under the fixed 0x11b reduction polynomial.

    The width is pinned to 8: this field exists to treat raw bytes as
    elements, nothing else. Inversion uses a precomputed 256-entry table
    whose values equal exponentiation to order - 2.
    """

    width: int = 8

    def __post_init__(self) -> None:
        if self.width != 8:
            raise ValueError("binary field width is fixed at 8")

    @property
    def order(self) -> int:
        return 256

    @property
    def element_size(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[(_LOG[a] + _LOG[b]) % 255]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return _INV[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return 1 if e == 0 else 0
        return _EXP[(_LOG[a] * e) % 255]

    def check(self, a: int) -> int:
        if not 0 <= a < 256:
            raise ValueError(f"{a} is not a byte value")
        return a


FieldSpec = PrimeField | BinaryField


def field_tag(f: FieldSpec) -> bytes:
    """Wire tag: 0x00 for GF(2^8), 0x01 plus u16le modulus for primes."""
    if isinstance(f, BinaryField):
        return b"\x00"
    return b"\x01" + struct.pack("<H", f.p)


def read_field_tag(data: bytes, offset: int) -> tuple[FieldSpec, int]:
    """Parse a field tag at ``offset``; returns the field and the new offset."""
    if offset >= len(data):
        raise ValueError("truncated field tag")
    kind = data[offset]
    if kind == 0:
        return BinaryField(), offset + 1
    if kind == 1:
        if offset + 3 > len(data):
            raise ValueError("truncated field tag")
        (p,) = struct.unpack_from("<H", data, offset + 1)
        return PrimeField(p), offset + 3
    raise ValueError(f"unknown field tag {kind}")


def encode_elements(values, f: FieldSpec) -> bytes:
    if f.element_size == 1:
        return bytes(values)
    return struct.pack(f"<{len(values)}H", *values)


def decode_elements(data: bytes, f: FieldSpec) -> tuple[int, ...]:
    if f.element_size == 1:
        return tuple(data)
    if len(data) % 2:
        raise ValueError("odd byte count for two-byte elements")
    values = struct.unpack(f"<{len(data) // 2}H", data)
    for v in values:
        if v >= f.order:
            raise ValueError(f"element {v} outside field of order {f.order}")
    return values
