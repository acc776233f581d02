"""Remote-integrity auditing with precomputed tokens over stored columns.

A payload is reshaped column-major into ``columns`` equal-length byte
strings, one per holder; every byte is an element of GF(2^8), the only field
this module speaks. The router feeds it the concatenated Shamir shares of a
chunk, so each column is exactly one share's bytes: the threshold scheme
already tolerates share_count - threshold lost or damaged columns, and no
separate redundancy is stored.

Verification never ships the file anywhere. For each audit round a keyed
generator derives a handful of row indices and nonzero coefficients; the
expected linear combination of every column's sampled rows is computed once,
up front, and only those tokens are kept (column_count * rounds of them).
Later the row indices and coefficients are sent to the holder of a column,
which answers with the combination over whatever bytes it actually stores.
A mismatch pins the corruption to that column. Sampling ``sample_size`` of
``column_length`` rows detects a single corrupted block with probability
exactly sample_size / column_length per round; sampling every row makes the
check deterministic.

Derivation schedule (fixed; the cross-check oracle in the tests walks the
same steps independently):

* keys longer than 64 bytes are first replaced by their BLAKE2b-512 digest;
* stream block i for context label L = BLAKE2b-256(key=key, data=L || u64le(i)),
  blocks concatenated on demand;
* uniform draws take u32le words from the stream, rejection-sampled to the
  bound;
* the seed of audit round i is BLAKE2b-256(key=master_key,
  data=b"round-seed" || u64le(i)); the round's stream uses label
  b"challenge" under that seed and draws the distinct row indices first
  (duplicates skipped, result sorted ascending), then one nonzero
  coefficient per row in row order.

A token is the GF(2^8) sum of coefficient * row byte over the sampled rows:
one gather of those rows from every column and one ``mul_table`` lookup.

A token table is immutable and ``challenge``/``verify`` are pure. Each round
may be challenged only once; which rounds are spent is the caller's record
(the router keeps one counter per object), not the table's.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .field import BinaryField

CHALLENGE_MAGIC = b"CIT1"
# The byte after the magic names the field; GF(2^8), tag 0x00, is the only one.
_GF256_TAG = b"\x00"
_MUL = BinaryField().mul_table


class IntegrityError(Exception):
    pass


class InvalidShape(IntegrityError):
    """Column geometry is impossible for the payload."""


class InvalidChallenge(IntegrityError):
    """Sample size or round count outside the valid range, or a malformed
    challenge or response on the wire."""


class RoundExhausted(IntegrityError):
    """An audit asks for more rounds than are left unspent; rounds are one-shot."""


class OutOfRange(IntegrityError):
    """Round, column or row index outside the table or column."""


def _stream_key(key: bytes) -> bytes:
    return key if len(key) <= 64 else hashlib.blake2b(key).digest()


class KeyedStream:
    """Deterministic byte stream: BLAKE2b-256(key, label || u64le(counter))."""

    def __init__(self, key: bytes, label: bytes) -> None:
        self._key = _stream_key(key)
        self._label = label
        self._counter = 0
        self._buf = b""

    def take(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.blake2b(
                self._label + struct.pack("<Q", self._counter),
                key=self._key,
                digest_size=32,
            ).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def uniform(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be positive")
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            (v,) = struct.unpack("<I", self.take(4))
            if v < limit:
                return v % bound

    def distinct_indices(self, count: int, bound: int) -> tuple[int, ...]:
        if count > bound:
            raise ValueError("cannot draw more distinct indices than the bound")
        seen: set[int] = set()
        while len(seen) < count:
            seen.add(self.uniform(bound))
        return tuple(sorted(seen))


@dataclass(frozen=True)
class EncodedFile:
    """Stored column view: the payload cut column-major into equal columns.

    Each column is the bytes one holder stores.
    """

    columns: tuple[bytes, ...]
    column_length: int


def encode(payload: bytes, columns: int) -> EncodedFile:
    """Reshape ``payload`` into ``columns`` stored columns.

    The payload is zero-padded to a multiple of ``columns`` bytes and filled
    column-major: the first column_length bytes are column 0 and so on.

    Raises:
        InvalidShape: empty payload or columns < 1.
    """
    if not payload:
        raise InvalidShape("empty payload")
    if columns < 1:
        raise InvalidShape("need at least one column")
    col_len = -(-len(payload) // columns)
    padded = payload + bytes(columns * col_len - len(payload))
    return EncodedFile(
        columns=tuple(padded[i * col_len : (i + 1) * col_len] for i in range(columns)),
        column_length=col_len,
    )


def round_seed(master_key: bytes, round_index: int) -> bytes:
    return hashlib.blake2b(
        b"round-seed" + struct.pack("<Q", round_index),
        key=_stream_key(master_key),
        digest_size=32,
    ).digest()


def derive_challenge(
    master_key: bytes,
    round_index: int,
    column_length: int,
    sample_size: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row indices and coefficients for one audit round.

    Depends on the master key and round only, never on the column, so one
    derivation covers every column of the round. Rows come out sorted and
    distinct; coefficients are uniform nonzero bytes, one per row.
    """
    stream = KeyedStream(round_seed(master_key, round_index), b"challenge")
    rows = stream.distinct_indices(sample_size, column_length)
    coeffs = tuple(1 + stream.uniform(255) for _ in rows)
    return rows, coeffs


def _tokens(
    columns: np.ndarray, rows: Sequence[int], coeffs: Sequence[int]
) -> np.ndarray:
    """One round's token for every stored column; ``columns`` is a uint8
    array holding one stored column per array row."""
    gathered = columns[:, np.asarray(rows, dtype=np.intp)]
    products = _MUL[np.asarray(coeffs, dtype=np.uint8), gathered]
    return np.bitwise_xor.reduce(products, axis=1)


def column_token(column: bytes, rows: Sequence[int], coeffs: Sequence[int]) -> int:
    """Linear combination of the sampled rows: the audit's expected answer."""
    for r in rows:
        if not 0 <= r < len(column):
            raise OutOfRange(f"row {r} outside column of length {len(column)}")
    stacked = np.frombuffer(column, dtype=np.uint8)[None, :]
    return int(_tokens(stacked, rows, coeffs)[0])


@dataclass(frozen=True)
class TokenTable:
    """Audit tokens for one encoded file: tokens[column][round] is the
    expected response to that round's challenge of that column."""

    tokens: tuple[tuple[int, ...], ...]
    sample_size: int
    rounds: int
    column_length: int
    master_key: bytes

    @property
    def column_count(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ChallengeMessage:
    """What the column holder receives: where to look and how to combine."""

    round_index: int
    column: int
    rows: tuple[int, ...]
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class CheckResult:
    intact: bool
    column: int


def precompute_tokens(
    enc: EncodedFile,
    rounds: int,
    sample_size: int,
    master_key: bytes,
) -> TokenTable:
    """Compute every audit token before the columns leave the machine.

    Exactly column_count * rounds tokens are stored; afterwards the file is
    not needed for verification.

    Raises:
        InvalidChallenge: rounds < 1, or sample size outside
            [1, column_length].
    """
    if rounds < 1:
        raise InvalidChallenge("need at least one round")
    if not 1 <= sample_size <= enc.column_length:
        raise InvalidChallenge(
            f"sample size {sample_size} outside [1, {enc.column_length}]"
        )
    columns = np.frombuffer(b"".join(enc.columns), dtype=np.uint8).reshape(
        len(enc.columns), enc.column_length
    )
    per_round = np.stack(
        [
            _tokens(columns, *derive_challenge(master_key, i, enc.column_length, sample_size))
            for i in range(rounds)
        ],
        axis=1,
    )
    return TokenTable(
        tokens=tuple(tuple(col) for col in per_round.tolist()),
        sample_size=sample_size,
        rounds=rounds,
        column_length=enc.column_length,
        master_key=master_key,
    )


def _check_range(table: TokenTable, round_index: int, column: int) -> None:
    if not 0 <= column < table.column_count:
        raise OutOfRange(f"no column {column}")
    if not 0 <= round_index < table.rounds:
        raise OutOfRange(f"no round {round_index}")


def challenge(table: TokenTable, round_index: int, column: int) -> ChallengeMessage:
    """The challenge for (round, column). Pure: the caller must send each
    round at most once.

    Raises:
        OutOfRange: unknown round or column.
    """
    _check_range(table, round_index, column)
    rows, coeffs = derive_challenge(
        table.master_key, round_index, table.column_length, table.sample_size
    )
    return ChallengeMessage(
        round_index=round_index,
        column=column,
        rows=rows,
        coefficients=coeffs,
    )


def verify(table: TokenTable, round_index: int, column: int, response: int) -> CheckResult:
    """Check a holder's response against the precomputed token.

    Raises:
        OutOfRange: unknown round or column.
    """
    _check_range(table, round_index, column)
    return CheckResult(intact=response == table.tokens[column][round_index], column=column)


def respond(stored: bytes, message: ChallengeMessage) -> int:
    """The column holder's side: combine the sampled rows of its own bytes.

    Runs on whatever the holder actually stores, so corruption shows up as
    a token mismatch at verify time.
    """
    return column_token(stored, message.rows, message.coefficients)


def serialize_challenge(msg: ChallengeMessage) -> bytes:
    """Wire form: "CIT1", the GF(2^8) tag 0x00, u32 round, u32 column,
    u32 count, count u32le rows, count coefficient bytes. Little-endian
    throughout.

    Carries everything the holder needs and nothing it must not see: no
    master key, no token.
    """
    out = CHALLENGE_MAGIC + _GF256_TAG
    out += struct.pack("<III", msg.round_index, msg.column, len(msg.rows))
    out += struct.pack(f"<{len(msg.rows)}I", *msg.rows)
    out += bytes(msg.coefficients)
    return out


def parse_challenge(data: bytes) -> ChallengeMessage:
    if data[:4] != CHALLENGE_MAGIC:
        raise InvalidChallenge("bad challenge magic")
    if data[4:5] != _GF256_TAG:
        raise InvalidChallenge("challenge is not over GF(2^8)")
    if len(data) < 17:
        raise InvalidChallenge("truncated challenge header")
    round_index, column, count = struct.unpack_from("<III", data, 5)
    end_rows = 17 + 4 * count
    if end_rows > len(data):
        raise InvalidChallenge("truncated row list")
    rows = struct.unpack_from(f"<{count}I", data, 17)
    coeffs = tuple(data[end_rows:])
    if len(coeffs) != count:
        raise InvalidChallenge("coefficient count does not match row count")
    return ChallengeMessage(
        round_index=round_index, column=column, rows=rows, coefficients=coeffs
    )


def encode_response(value: int) -> bytes:
    return bytes([value])


def parse_response(data: bytes) -> int:
    if len(data) != 1:
        raise InvalidChallenge("response must be a single byte")
    return data[0]


def token_table_to_payload(table: TokenTable) -> dict:
    """JSON-safe form for the keystore."""
    return {
        "tokens": [list(col) for col in table.tokens],
        "sample_size": table.sample_size,
        "rounds": table.rounds,
        "column_length": table.column_length,
        "master_key": table.master_key.hex(),
    }


def token_table_from_payload(payload: Mapping) -> TokenTable:
    """Inverse of ``token_table_to_payload``. Ignores the keys that earlier
    releases wrote: ``"field"`` always named GF(2^8), and ``"issued"`` and
    ``"pending"`` held round state that the router now keeps."""
    return TokenTable(
        tokens=tuple(tuple(col) for col in payload["tokens"]),
        sample_size=payload["sample_size"],
        rounds=payload["rounds"],
        column_length=payload["column_length"],
        master_key=bytes.fromhex(payload["master_key"]),
    )
