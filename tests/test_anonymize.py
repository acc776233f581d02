import random

import pytest

from cloudvault import anonymize
from cloudvault.anonymize import (
    DigestCollision,
    DuplicateIdentifier,
    GroupData,
    MissingGroup,
    UnknownDigest,
    anonymize_table,
    parse_group,
    partition_columns,
    rejoin,
    row_digest,
    serialize_group,
)
from cloudvault.persistence import scan_for_bytes

_ROWS = [
    {"name": "ada", "card": 4111, "diagnosis": "flu", "age": 30, "city": "riga"},
    {"name": "bob", "card": 4222, "diagnosis": "none", "age": 41, "city": "oslo"},
    {"name": "eve", "card": 4333, "diagnosis": "burn", "age": 52, "city": "bern"},
]
_IDS = ("name", "card")
_GROUPS = [["diagnosis"], ["age", "city"]]


def test_partition_columns_deals_round_robin():
    assert partition_columns(_ROWS, _IDS, 2) == [["diagnosis", "city"], ["age"]]
    # Never more groups than columns, never fewer than one.
    assert partition_columns(_ROWS, _IDS, 5) == [["diagnosis"], ["age"], ["city"]]
    assert partition_columns(_ROWS, _IDS, 0) == [["diagnosis", "age", "city"]]
    with pytest.raises(ValueError, match="every column is an identifier"):
        partition_columns(_ROWS, tuple(_ROWS[0]), 2)


def test_truncated_group_raises_value_error():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"s" * 16)
    wire = serialize_group(table.groups[1])
    for end in range(len(wire)):
        with pytest.raises(ValueError):
            parse_group(wire[:end])


def test_round_trip():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"s" * 16)
    fetched = {g.index: g for g in table.groups}
    assert rejoin(table, fetched) == _ROWS


def test_round_trip_with_shuffled_groups():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"s" * 16, shuffle_rows=True)
    fetched = {g.index: g for g in table.groups}
    assert rejoin(table, fetched) == _ROWS


def test_identifiers_absent_from_group_payloads():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"t" * 16)
    for g in table.groups:
        wire = serialize_group(g)
        for row in _ROWS:
            assert not scan_for_bytes(wire, str(row["name"]).encode())
            assert not scan_for_bytes(wire, str(row["card"]).encode())


def test_digest_is_salted_and_deterministic():
    a = row_digest(b"salt-a" * 3, ("ada", 4111))
    b = row_digest(b"salt-a" * 3, ("ada", 4111))
    c = row_digest(b"salt-b" * 3, ("ada", 4111))
    assert a == b
    assert a != c


def test_digest_separates_value_boundaries():
    # ("ab", "c") and ("a", "bc") must not collide: lengths are encoded.
    salt = b"x" * 16
    assert row_digest(salt, ("ab", "c")) != row_digest(salt, ("a", "bc"))
    # 1 (int) and "1" (str) must not collide: types are encoded.
    assert row_digest(salt, (1,)) != row_digest(salt, ("1",))


def test_duplicate_identifier_rejected():
    rows = [dict(_ROWS[0]), dict(_ROWS[0])]
    with pytest.raises(DuplicateIdentifier):
        anonymize_table(rows, _IDS, _GROUPS, salt=b"d" * 16)


def test_digest_collision_detected(monkeypatch):
    # One-byte digests collide fast; the failure must be loud, never silent.
    monkeypatch.setattr(anonymize, "DEFAULT_DIGEST_SIZE", 1)
    rng = random.Random(81)
    rows = [
        {"id": f"user-{i}-{rng.randrange(10**6)}", "v": i} for i in range(200)
    ]
    with pytest.raises(DigestCollision):
        anonymize_table(rows, ("id",), [["v"]], salt=b"c" * 16)


def test_groups_must_partition_payload_columns():
    with pytest.raises(ValueError):
        anonymize_table(_ROWS, _IDS, [["diagnosis"]], salt=b"p" * 16)
    with pytest.raises(ValueError):
        anonymize_table(
            _ROWS, _IDS, [["diagnosis", "age", "city", "name"]], salt=b"p" * 16
        )


def test_missing_group_and_unknown_digest():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"m" * 16)
    fetched = {g.index: g for g in table.groups}
    with pytest.raises(MissingGroup):
        rejoin(table, {0: fetched[0]})
    stray = GroupData(
        index=1,
        columns=fetched[1].columns,
        digests=(b"\x00" * 16,) + fetched[1].digests[1:],
        rows=fetched[1].rows,
    )
    with pytest.raises(UnknownDigest):
        rejoin(table, {0: fetched[0], 1: stray})


def test_group_wire_round_trip():
    table = anonymize_table(_ROWS, _IDS, _GROUPS, salt=b"w" * 16)
    for g in table.groups:
        assert parse_group(serialize_group(g)) == g


def test_groups_hold_no_more_than_the_wire_form_counts():
    """The group index and a group's column count are u16 on the wire, so
    anonymize refuses what serialize_group could not write."""
    cols = [f"c{i}" for i in range(0x10001)]
    rows = [{"id": "a", **dict.fromkeys(cols, 0)}]
    table = anonymize_table(rows, ("id",), [cols[:0xFFFF], cols[0xFFFF:]], salt=b"u" * 16)
    assert list(parse_group(serialize_group(table.groups[0])).columns) == cols[:0xFFFF]
    with pytest.raises(ValueError, match="group 0 has 65536 columns"):
        anonymize_table(rows, ("id",), [cols[:0x10000], cols[0x10000:]], salt=b"u" * 16)
    with pytest.raises(ValueError, match="65537 groups"):
        anonymize_table(rows, ("id",), [[c] for c in cols], salt=b"u" * 16)


def test_bool_cells_rejected():
    rows = [{"id": "a", "flag": True}]
    with pytest.raises(ValueError):
        anonymize_table(rows, ("id",), [["flag"]], salt=b"b" * 16)
