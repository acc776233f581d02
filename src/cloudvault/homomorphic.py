"""Additively homomorphic public-key encryption (Paillier, g = n + 1).

Ciphertexts live in Z_{n^2}; multiplying two of them adds the underlying
plaintexts mod n, and raising one to a plaintext power scales it. Those two
facts give the full supported surface: he_add, he_sub and he_scale.
Plaintext division has no realization in this scheme, so none is offered.

Encryption is probabilistic (a fresh nonce every call), decryption strips
it. Key generation is deterministic under a seeded generator so tests and
the dispatcher can replay byte-identical state. Moduli far below 2048 bits
keep the exhaustive tests fast but are toy material and must never protect
real data.

Decryption works modulo p^2 and q^2 and joins the two halves by the Chinese
remainder theorem (Paillier, Eurocrypt 1999, section 7): two
exponentiations with half-size exponents and moduli in place of one by
lambda modulo n^2. What it needs beyond the ciphertext (p^2, q^2, h_p, h_q
and p^-1 mod q) is computed once per key pair and kept on it, as the
public key keeps n^2 and its fingerprint.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import struct
from dataclasses import dataclass

MIN_KEY_BITS = 16

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


class HomomorphicError(Exception):
    pass


class KeyMismatch(HomomorphicError):
    """Ciphertexts under different keys never combine."""


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Fixed witnesses are a proven test below 3.3e24; larger candidates get
    # extra rounds drawn from the caller's generator (still deterministic
    # under a fixed seed).
    witnesses = list(_SMALL_PRIMES)
    if n.bit_length() > 64:
        witnesses += [rng.randrange(2, n - 1) for _ in range(16)]
    for a in witnesses:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    if bits < 2:
        raise ValueError("prime size too small")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        while candidate.bit_length() == bits:
            if _is_probable_prime(candidate, rng):
                return candidate
            candidate += 2


@dataclass(frozen=True)
class PublicKey:
    """Everything needed to encrypt and to combine ciphertexts."""

    n: int

    @functools.cached_property
    def nsquare(self) -> int:
        return self.n * self.n

    @functools.cached_property
    def fingerprint(self) -> str:
        raw = self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")
        return hashlib.blake2b(raw, digest_size=16).hexdigest()


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    p: int
    q: int

    @functools.cached_property
    def _crt(self) -> tuple[int, int, int, int, int]:
        """(p^2, q^2, h_p, h_q, p^-1 mod q) for CRT decryption, where
        h_p = L_p(g^(p-1) mod p^2)^-1 mod p with L_p(x) = (x - 1) / p, and
        h_q likewise."""
        p, q, g = self.p, self.q, self.public.n + 1
        psq, qsq = p * p, q * q
        hp = pow((pow(g, p - 1, psq) - 1) // p, -1, p)
        hq = pow((pow(g, q - 1, qsq) - 1) // q, -1, q)
        return psq, qsq, hp, hq, pow(p, -1, q)


@dataclass(frozen=True)
class Ciphertext:
    """Immutable ciphertext bound to its key by fingerprint."""

    value: int
    public: PublicKey

    @property
    def fingerprint(self) -> str:
        return self.public.fingerprint


def keygen(bits: int, rng: random.Random) -> KeyPair:
    """Generate a keypair with an exactly ``bits``-long modulus.

    Deterministic for a given seeded generator. Keys below 2048 bits are
    toy material.

    Raises:
        ValueError: bits below the scheme minimum of 16.
    """
    if bits < MIN_KEY_BITS:
        raise ValueError(f"modulus must be at least {MIN_KEY_BITS} bits")
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() == bits and math.gcd(n, (p - 1) * (q - 1)) == 1:
            return KeyPair(public=PublicKey(n=n), p=p, q=q)


def encrypt(key: PublicKey, plaintext: int, rng: random.Random) -> Ciphertext:
    """Encrypt a value in [0, n) under a fresh nonce.

    Two calls on the same plaintext give different ciphertexts that decrypt
    identically; equality of ciphertexts therefore reveals nothing.
    """
    n = key.n
    if not 0 <= plaintext < n:
        raise ValueError(f"plaintext {plaintext} outside [0, {n})")
    while True:
        r = rng.randrange(1, n)
        if math.gcd(r, n) == 1:
            break
    nsq = key.nsquare
    # (n + 1)^m = 1 + m*n (mod n^2), so the generator power needs no pow().
    gm = (1 + plaintext * n) % nsq
    return Ciphertext(value=(gm * pow(r, n, nsq)) % nsq, public=key)


def decrypt(keypair: KeyPair, c: Ciphertext) -> int:
    """Recover the plaintext in [0, n): m_p = L_p(c^(p-1) mod p^2) * h_p
    mod p, m_q likewise, joined by CRT.

    Raises:
        KeyMismatch: ciphertext was produced under a different key.
        ValueError: the ciphertext shares a factor with n, which no
            encryption makes.
    """
    if c.fingerprint != keypair.public.fingerprint:
        raise KeyMismatch("ciphertext is bound to a different key")
    p, q = keypair.p, keypair.q
    psq, qsq, hp, hq, p_inv = keypair._crt
    cp, cq = c.value % psq, c.value % qsq
    if not (cp % p and cq % q):
        raise ValueError("ciphertext shares a factor with the modulus")
    mp = (pow(cp, p - 1, psq) - 1) // p * hp % p
    mq = (pow(cq, q - 1, qsq) - 1) // q * hq % q
    return mp + (mq - mp) * p_inv % q * p


def _require_same_key(a: Ciphertext, b: Ciphertext) -> None:
    if a.fingerprint != b.fingerprint:
        raise KeyMismatch("ciphertexts under different keys")


def he_add(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Ciphertext of the sum (mod n) of the two plaintexts."""
    _require_same_key(a, b)
    nsq = a.public.nsquare
    return Ciphertext(value=(a.value * b.value) % nsq, public=a.public)


def he_sub(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Ciphertext of the difference (mod n) of the two plaintexts."""
    _require_same_key(a, b)
    nsq = a.public.nsquare
    return Ciphertext(value=(a.value * pow(b.value, -1, nsq)) % nsq, public=a.public)


def he_scale(c: Ciphertext, scalar: int) -> Ciphertext:
    """Ciphertext of scalar * plaintext (mod n); the scalar stays plain."""
    nsq = c.public.nsquare
    return Ciphertext(value=pow(c.value, scalar % c.public.n, nsq), public=c.public)


CIPHERTEXT_MAGIC = b"CHE1"


def serialize_ciphertext(c: Ciphertext) -> bytes:
    """Wire form: "CHE1", u8 fingerprint length, fingerprint (ascii hex),
    then the ciphertext magnitude big-endian."""
    fp = c.fingerprint.encode("ascii")
    size = max(1, (c.value.bit_length() + 7) // 8)
    return CIPHERTEXT_MAGIC + struct.pack("<B", len(fp)) + fp + c.value.to_bytes(size, "big")


def parse_ciphertext(data: bytes, key: PublicKey) -> Ciphertext:
    """Rebind serialized bytes to ``key``; refuses other keys' ciphertexts.

    Raises:
        ValueError: malformed bytes.
        KeyMismatch: fingerprint does not match ``key``.
    """
    if len(data) < 5 or data[:4] != CIPHERTEXT_MAGIC:
        raise ValueError("bad ciphertext magic")
    fp_len = data[4]
    fp = data[5 : 5 + fp_len].decode("ascii")
    if fp != key.fingerprint:
        raise KeyMismatch("serialized ciphertext belongs to a different key")
    value = int.from_bytes(data[5 + fp_len :], "big")
    if value >= key.nsquare:
        raise ValueError("ciphertext value outside the key's range")
    return Ciphertext(value=value, public=key)


def encrypt_bytes(key: PublicKey, data: bytes, rng: random.Random) -> bytes:
    """The stored form of a byte string: one ciphertext per byte, each as
    u32le(length) || ``serialize_ciphertext``."""
    out = bytearray()
    for b in data:
        wire = serialize_ciphertext(encrypt(key, b, rng))
        out += len(wire).to_bytes(4, "little") + wire
    return bytes(out)


def decrypt_bytes(keypair: KeyPair, blob: bytes, count: int) -> bytes:
    """The ``count`` bytes ``encrypt_bytes`` stored in ``blob``.

    Raises:
        ValueError: a frame or ciphertext is malformed, or decrypts above 255.
        KeyMismatch: a ciphertext belongs to another key.
    """
    out = bytearray()
    off = 0
    for _ in range(count):
        ln = int.from_bytes(blob[off : off + 4], "little")
        off += 4
        out.append(decrypt(keypair, parse_ciphertext(blob[off : off + ln], keypair.public)))
        off += ln
    return bytes(out)
