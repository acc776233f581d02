"""Finite field arithmetic for byte-granular sharing and audit tokens.

Two field families, and every element of either fits in one byte:

* ``BinaryField()`` is GF(2^8) with the fixed irreducible reduction
  polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). Payload bytes map one to one
  onto elements, so sharing, the audit columns and the challenge wire
  format all use it.
* ``PrimeField(p)`` for primes p <= 256. Kept because tiny prime fields are
  hand-checkable, so tests can pin exact expected values.

Elements are plain ints in ``[0, order)``. The scalar methods serve
per-point work such as Lagrange weights. Per-byte work runs on whole byte
strings through two operations: ``mul_row(c)`` is the 256-byte table whose
entry b is c * b, so ``data.translate(f.mul_row(c))`` multiplies every byte
of ``data`` by the constant c in one C loop; ``add_bytes(a, b)`` adds two
equal-length strings bytewise. Entries at or above a prime field's order
are not elements; callers check their inputs first. Field objects are
immutable and their rows are cached per constant, so a single instance may
be shared freely. None of this is constant-time; it protects simulated data
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


# Rows are cached under int keys: hashing a dataclass instance would cost
# more than the lookup it keys.
@cache
def _gf256_row(c: int) -> bytes:
    return bytes(BinaryField().mul(c, b) for b in range(256))


@cache
def _prime_row(p: int, c: int) -> bytes:
    return bytes(c * b % p for b in range(256))


@dataclass(frozen=True)
class PrimeField:
    """Integers mod p under the usual arithmetic.

    p must be prime (checked here, not trusted) and at most 256, so every
    element is a byte.
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

    def mul_row(self, c: int) -> bytes:
        """Translate table for multiplying by c: entry b is c * b mod p."""
        return _prime_row(self.p, c)

    def add_bytes(self, a: bytes, b: bytes) -> bytes:
        """Bytewise sum mod p of two equal-length strings."""
        return bytes((x + y) % self.p for x, y in zip(a, b))

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

    def mul_row(self, c: int) -> bytes:
        """Translate table for multiplying by c: entry b is c * b."""
        return _gf256_row(c)

    def add_bytes(self, a: bytes, b: bytes) -> bytes:
        """Bytewise XOR of two equal-length strings."""
        return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
            len(a), "little"
        )

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
