import hashlib
import random
import struct

import pytest

from cloudvault.field import BinaryField
from cloudvault.integrity import (
    InvalidChallenge,
    InvalidShape,
    OutOfRange,
    challenge,
    column_token,
    derive_challenge,
    encode,
    encode_response,
    parse_challenge,
    parse_response,
    precompute_tokens,
    respond,
    serialize_challenge,
    token_table_from_payload,
    token_table_to_payload,
    verify,
)

def _oracle_rows_coeffs(master_key: bytes, round_index: int, length: int, count: int):
    """Walks the documented derivation chain with nothing shared with the
    implementation beyond hashlib itself."""
    if len(master_key) > 64:
        master_key = hashlib.blake2b(master_key, digest_size=64).digest()
    seed = hashlib.blake2b(
        b"round-seed" + struct.pack("<Q", round_index), key=master_key, digest_size=32
    ).digest()

    buf = b""
    counter = 0

    def take(n):
        nonlocal buf, counter
        while len(buf) < n:
            buf += hashlib.blake2b(
                b"challenge" + struct.pack("<Q", counter), key=seed, digest_size=32
            ).digest()
            counter += 1
        out, rest = buf[:n], buf[n:]
        buf = rest
        return out

    def uniform(bound):
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            (v,) = struct.unpack("<I", take(4))
            if v < limit:
                return v % bound

    seen = set()
    while len(seen) < count:
        seen.add(uniform(length))
    rows = tuple(sorted(seen))
    coeffs = tuple(1 + uniform(255) for _ in rows)
    return rows, coeffs


def test_challenge_derivation_matches_independent_walk():
    rng = random.Random(31)
    for _ in range(10):
        key = rng.randbytes(rng.choice([16, 32, 100]))
        rnd = rng.randrange(50)
        length = rng.randrange(8, 200)
        count = rng.randrange(1, min(length, 32) + 1)
        assert derive_challenge(key, rnd, length, count) == _oracle_rows_coeffs(
            key, rnd, length, count
        )


def test_rows_sorted_distinct_coeffs_nonzero():
    rows, coeffs = derive_challenge(b"k" * 32, 0, 64, 16)
    assert list(rows) == sorted(set(rows))
    assert len(rows) == len(coeffs) == 16
    assert all(0 <= r < 64 for r in rows)
    assert all(1 <= c < 256 for c in coeffs)


def test_same_round_same_challenge_for_all_columns():
    # Derivation depends on (key, round) only; tokens may differ per column
    # but the sampled rows and coefficients cannot.
    a = derive_challenge(b"key" * 11, 7, 100, 10)
    b = derive_challenge(b"key" * 11, 7, 100, 10)
    assert a == b


def test_encode_decode_round_trip():
    # The stored columns put back side by side are the payload plus the
    # zero padding up to a whole number of columns.
    rng = random.Random(32)
    for _ in range(20):
        payload = rng.randbytes(rng.randrange(1, 300))
        m = rng.randrange(1, 7)
        enc = encode(payload, m)
        assert len(enc.columns) == m
        joined = b"".join(enc.columns)
        assert len(joined) == m * enc.column_length
        assert joined[: len(payload)] == payload
        assert joined[len(payload) :] == bytes(len(joined) - len(payload))


def test_encode_pads_to_column_length():
    enc = encode(b"abcdefg", 3)
    assert enc.column_length == 3
    assert enc.columns == (b"abc", b"def", b"g\x00\x00")


def test_column_major_layout():
    # Bytes fill columns top to bottom, columns left to right.
    enc = encode(bytes(range(6)), 2)
    assert enc.columns[0] == bytes([0, 1, 2])
    assert enc.columns[1] == bytes([3, 4, 5])


def test_encode_shape_validation():
    with pytest.raises(InvalidShape):
        encode(b"", 2)
    with pytest.raises(InvalidShape):
        encode(b"data", 0)


def test_token_count_is_columns_times_rounds():
    rng = random.Random(35)
    enc = encode(rng.randbytes(192), 6)
    table = precompute_tokens(enc, 9, 8, rng.randbytes(32))
    assert sum(len(col) for col in table.tokens) == 6 * 9


def test_honest_response_verifies():
    rng = random.Random(36)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(200), 5)
    table = precompute_tokens(enc, 4, 8, key)
    for col in range(len(enc.columns)):
        stored = enc.columns[col]
        for rnd in range(table.rounds):
            msg = challenge(table, rnd, col)
            assert verify(table, rnd, col, respond(stored, msg)).intact


def test_corrupted_response_fails_when_row_sampled():
    rng = random.Random(37)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(64), 3)
    table = precompute_tokens(enc, 1, enc.column_length, key)  # sample all rows
    stored = bytearray(enc.columns[0])
    stored[5] ^= 0x41
    msg = challenge(table, 0, 0)
    assert not verify(table, 0, 0, respond(bytes(stored), msg)).intact


def test_detection_rate_is_sample_fraction():
    """One corrupted block is caught exactly when its row is sampled, so
    across all corruption positions the hit count equals the sample size."""
    rng = random.Random(38)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(64), 1)
    assert enc.column_length == 64
    column = enc.columns[0]
    for r in (8, 16, 32):
        rows, coeffs = derive_challenge(key, 0, 64, r)
        expected = column_token(column, rows, coeffs)
        detected = 0
        for pos in range(64):
            tampered = bytearray(column)
            tampered[pos] ^= 0x7
            if column_token(tampered, rows, coeffs) != expected:
                detected += 1
        assert detected == r


def test_challenge_and_verify_are_pure():
    # Which rounds are spent is the router's record; the table never changes.
    rng = random.Random(39)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(40), 2)
    table = precompute_tokens(enc, 2, 4, key)
    snapshot = token_table_to_payload(table)
    msg = challenge(table, 0, 0)
    assert challenge(table, 0, 0) == msg
    value = respond(enc.columns[0], msg)
    assert verify(table, 0, 0, value).intact
    assert verify(table, 0, 0, value).intact
    assert not verify(table, 0, 0, value ^ 1).intact
    assert token_table_to_payload(table) == snapshot


def test_challenge_wire_round_trip_and_no_secrets():
    rng = random.Random(41)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(100), 3)
    table = precompute_tokens(enc, 3, 5, key)
    msg = challenge(table, 0, 1)
    wire = serialize_challenge(msg)
    assert parse_challenge(wire) == msg
    # The holder must not learn the master key from its challenge.
    assert key not in wire
    assert len(wire) == 4 + 1 + 12 + 5 * 4 + 5


def test_response_wire_round_trip():
    for value in (0, 200, 255):
        assert parse_response(encode_response(value)) == value
    with pytest.raises(InvalidChallenge):
        parse_response(b"\x01\x02")


def _table():
    rng = random.Random(47)
    return precompute_tokens(encode(rng.randbytes(60), 3), 2, 4, rng.randbytes(32))


def test_parse_challenge_rejects_garbage():
    with pytest.raises(InvalidChallenge):
        parse_challenge(b"AAAA" + bytes(20))
    wire = serialize_challenge(challenge(_table(), 0, 0))
    # Any field tag other than GF(2^8)'s 0x00, e.g. an old prime-field one.
    for tag in (b"\x01", b"\xff"):
        with pytest.raises(InvalidChallenge):
            parse_challenge(wire[:4] + tag + wire[5:])
    with pytest.raises(InvalidChallenge):
        parse_challenge(wire[:10])


def test_token_table_payload_round_trip_preserves_state():
    rng = random.Random(45)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(80), 3)
    table = precompute_tokens(enc, 3, 4, key)

    payload = token_table_to_payload(table)
    assert set(payload) == {"tokens", "sample_size", "rounds", "column_length", "master_key"}
    back = token_table_from_payload(payload)
    assert back == table
    # Payloads written by earlier releases also carry "field": "00" and the
    # round state that the router now keeps.
    old = {**payload, "field": "00", "issued": [[0, 0], [0, 1]], "pending": [[0, 1]]}
    assert token_table_from_payload(old) == back


def test_out_of_range_guards():
    rng = random.Random(46)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(40), 2)
    table = precompute_tokens(enc, 2, 4, key)
    with pytest.raises(OutOfRange):
        challenge(table, 0, 9)
    with pytest.raises(OutOfRange):
        challenge(table, 9, 0)
    with pytest.raises(OutOfRange):
        verify(table, 2, 0, 0)
    with pytest.raises(OutOfRange):
        verify(table, 0, -1, 0)
    with pytest.raises(OutOfRange):
        column_token(bytes([1, 2]), (5,), (1,))


def test_tokens_match_scalar_field_sums():
    gf = BinaryField()
    rng = random.Random(48)
    key = rng.randbytes(32)
    enc = encode(rng.randbytes(300), 5)
    table = precompute_tokens(enc, 6, 9, key)
    for rnd in range(6):
        rows, coeffs = derive_challenge(key, rnd, enc.column_length, 9)
        for col, column in enumerate(enc.columns):
            acc = 0
            for r, c in zip(rows, coeffs):
                acc = gf.add(acc, gf.mul(c, column[r]))
            assert table.tokens[col][rnd] == acc
