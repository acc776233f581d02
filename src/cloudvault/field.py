"""GF(2^8) arithmetic for byte-granular sharing and audit tokens.

The field is GF(2^8) under the fixed irreducible reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11b). Payload bytes map one to one onto its
elements, so sharing, the audit columns and the challenge wire format all
use it, and it is the only field.

Elements are plain ints in ``[0, 256)``; addition and subtraction are both
XOR. ``mul`` and ``inv`` serve per-point work such as Lagrange weights.
Per-byte work runs on whole byte strings through two functions:
``mul_row(c)`` is the 256-byte table whose entry b is c * b, so
``data.translate(mul_row(c))`` multiplies every byte of ``data`` by the
constant c in one C loop; ``add_bytes(a, b)`` adds two equal-length strings
bytewise. Rows are cached per constant. None of this is constant-time; it
protects simulated data at desk scale.
"""

from __future__ import annotations

from functools import cache

GF256_POLY = 0x11B
GF256_GENERATOR = 3


class ZeroInverse(ArithmeticError):
    """The zero element has no multiplicative inverse."""


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


def mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[(_LOG[a] + _LOG[b]) % 255]


def inv(a: int) -> int:
    """Table lookup; the values equal exponentiation to 254."""
    if a == 0:
        raise ZeroInverse("0 has no inverse")
    return _INV[a]


@cache
def mul_row(c: int) -> bytes:
    """Translate table for multiplying by c: entry b is c * b."""
    return bytes(mul(c, b) for b in range(256))


def add_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )
