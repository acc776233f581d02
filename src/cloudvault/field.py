"""Finite field arithmetic for byte-granular sharing and audit tokens.

Two field families, and every element of either fits in one byte:

* ``BinaryField()`` is GF(2^8) with the fixed irreducible reduction
  polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). Payload bytes map one to one
  onto elements, so sharing, the audit columns and the challenge wire
  format all use it.
* ``PrimeField(p)`` for primes p <= 256. Kept because tiny prime fields are
  hand-checkable, so tests can pin exact expected values.

Elements are plain ints in ``[0, order)``. The scalar methods serve
per-point work such as Lagrange weights. Per-byte work goes through one
kernel: each field exposes 256x256 uint8 ``add_table`` and ``mul_table``
arrays, where entry [a, b] is a + b (a * b), indexed with whole numpy byte
arrays at once. Rows and columns at or above a prime field's order are not
elements; callers check their inputs first. Field objects and their tables
are immutable, so a single instance may be shared freely. None of this is
constant-time; it protects simulated data at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def _readonly(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


_EXP, _LOG = _build_tables()
_INV = [0] + [_EXP[(255 - _LOG[a]) % 255] for a in range(1, 256)]

_BYTES = np.arange(256, dtype=np.uint8)
_GF256_ADD = _readonly(np.bitwise_xor.outer(_BYTES, _BYTES))
# log a + log b stays below 2 * 255, so a doubled exp table needs no modulo.
_GF256_MUL = np.array(_EXP * 2, dtype=np.uint8)[
    np.add.outer(np.array(_LOG), np.array(_LOG))
]
_GF256_MUL[0, :] = 0
_GF256_MUL[:, 0] = 0
_readonly(_GF256_MUL)


@dataclass(frozen=True)
class PrimeField:
    """Integers mod p under the usual arithmetic.

    p must be prime (checked here, not trusted) and at most 256, so every
    element is a byte and the tables stay 256x256. The tables are built on
    first use.
    """

    p: int

    def __post_init__(self) -> None:
        if not 2 <= self.p <= 256:
            raise ValueError(f"prime field modulus out of range: {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p

    @cached_property
    def add_table(self) -> np.ndarray:
        wide = np.arange(256)
        return _readonly((np.add.outer(wide, wide) % self.p).astype(np.uint8))

    @cached_property
    def mul_table(self) -> np.ndarray:
        wide = np.arange(256)
        return _readonly((np.multiply.outer(wide, wide) % self.p).astype(np.uint8))

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise ValueError(f"{a} is not an element of GF({self.p})")
        return a


@dataclass(frozen=True)
class BinaryField:
    """GF(2^8) under the fixed 0x11b reduction polynomial.

    This field exists to treat raw bytes as elements, nothing else.
    Inversion uses a precomputed 256-entry table whose values equal
    exponentiation to order - 2.
    """

    @property
    def order(self) -> int:
        return 256

    @property
    def add_table(self) -> np.ndarray:
        return _GF256_ADD

    @property
    def mul_table(self) -> np.ndarray:
        return _GF256_MUL

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[(_LOG[a] + _LOG[b]) % 255]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return _INV[a]

    def check(self, a: int) -> int:
        if not 0 <= a < 256:
            raise ValueError(f"{a} is not a byte value")
        return a


FieldSpec = PrimeField | BinaryField
