"""Identifier hashing and vertical table partitioning across providers.

Every row's unique identifiers are collapsed into a salted keyed digest; the
digest travels with the data, the identifiers never do. The remaining
columns are cut vertically into groups, one group per provider, so no single
provider sees both halves of anything interesting. The digest-to-identifier
mapping stays local and is the only way back to the original rows;
``local_record`` and ``from_local_record`` are its one stored form.

Digest collisions and duplicate identifier tuples are both hard failures:
merging distinct people under one digest is the exact harm this layer exists
to prevent, so the table is rejected instead.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

Cell = str | int
Record = dict[str, Cell]

GROUP_MAGIC = b"CAN1"
DEFAULT_DIGEST_SIZE = 16
# The group wire form packs the group index, the column count and each
# column name's length as u16.
_U16_MAX = 0xFFFF


class AnonymizeError(Exception):
    pass


class DuplicateIdentifier(AnonymizeError):
    """Two rows carry the same identifier tuple."""


class DigestCollision(AnonymizeError):
    """Distinct identifier tuples hashed to the same digest."""


class MissingGroup(AnonymizeError):
    """A group expected by the table was not supplied at rejoin time."""


class UnknownDigest(AnonymizeError):
    """A fetched row's digest has no local identifier mapping."""


@dataclass(frozen=True)
class GroupData:
    """One provider's vertical slice: digests plus its columns' cells."""

    index: int
    columns: tuple[str, ...]
    digests: tuple[bytes, ...]
    rows: tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class AnonymizedTable:
    """The local view: group slices and the way back. ``local_mapping``
    maps each row digest to its identifier cells, in table row order."""

    groups: tuple[GroupData, ...]
    id_columns: tuple[str, ...]
    column_order: tuple[str, ...]
    local_mapping: dict[bytes, tuple[Cell, ...]]


def _check_cell(value: Cell) -> Cell:
    # bool is an int subclass; rejecting it keeps round trips type-exact.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"cell values must be str or int, got {type(value).__name__}")
    return value


def _encode_identifier(values: Sequence[Cell]) -> bytes:
    """Unambiguous tuple encoding: type byte and length prefix per value."""
    out = bytearray()
    for v in values:
        raw = str(v).encode("utf-8")
        out += struct.pack("<BI", 1 if isinstance(v, int) else 0, len(raw))
        out += raw
    return bytes(out)


def row_digest(salt: bytes, values: Sequence[Cell]) -> bytes:
    """Salted keyed digest of an identifier tuple."""
    key = salt if len(salt) <= 64 else hashlib.blake2b(salt).digest()
    return hashlib.blake2b(
        _encode_identifier(values), key=key, digest_size=DEFAULT_DIGEST_SIZE
    ).digest()


def partition_columns(
    rows: Sequence[Record], id_columns: Sequence[str], group_count: int
) -> list[list[str]]:
    """Deal the non-identifier columns of ``rows`` round-robin into groups.

    Makes ``group_count`` groups, or fewer when there are fewer columns.

    Raises:
        ValueError: every column is an identifier.
    """
    payload_cols = [c for c in rows[0] if c not in id_columns]
    if not payload_cols:
        raise ValueError("nothing to split: every column is an identifier")
    count = max(1, min(group_count, len(payload_cols)))
    groups: list[list[str]] = [[] for _ in range(count)]
    for i, col in enumerate(payload_cols):
        groups[i % count].append(col)
    return groups


def anonymize_table(
    rows: Sequence[Record],
    id_columns: Sequence[str],
    groups: Sequence[Sequence[str]],
    salt: bytes,
    shuffle_rows: bool = False,
) -> AnonymizedTable:
    """Strip identifiers, digest them, and slice the rest into groups.

    ``groups`` must partition the non-identifier columns exactly: every
    column in exactly one group, no identifier column in any. Group row
    order matches the input unless ``shuffle_rows`` asks for a per-group
    salt-keyed shuffle (rejoin realigns by digest either way).

    Raises:
        ValueError: no rows, no identifier columns, a column missing from a
            row, a non-partition grouping, a bad cell type, or more groups,
            more columns in one group or a longer grouped column name than
            the wire form holds.
        DuplicateIdentifier: repeated identifier tuple.
        DigestCollision: distinct tuples, same digest.
    """
    if not rows:
        raise ValueError("empty table")
    if not id_columns:
        raise ValueError("need at least one identifier column")
    id_cols = tuple(id_columns)
    column_order = tuple(rows[0].keys())
    expect = set(column_order)
    for i, row in enumerate(rows):
        if set(row.keys()) != expect:
            raise ValueError(f"row {i} has different columns than row 0")
        for v in row.values():
            _check_cell(v)
    for c in id_cols:
        if c not in expect:
            raise ValueError(f"identifier column {c!r} not in the table")

    payload_cols = [c for c in column_order if c not in id_cols]
    claimed: list[str] = [c for g in groups for c in g]
    if sorted(claimed) != sorted(payload_cols):
        raise ValueError(
            "groups must partition the non-identifier columns exactly; "
            f"got {claimed!r}, need {payload_cols!r}"
        )
    if len(groups) > _U16_MAX + 1:
        raise ValueError(f"{len(groups)} groups; a table holds at most {_U16_MAX + 1}")
    for i, g in enumerate(groups):
        if len(g) > _U16_MAX:
            raise ValueError(
                f"group {i} has {len(g)} columns; a group holds at most {_U16_MAX}"
            )
    for c in payload_cols:
        size = len(c.encode("utf-8"))
        if size > _U16_MAX:
            raise ValueError(
                f"column {c[:32]!r}... is {size} UTF-8 bytes; "
                f"a group holds names of at most {_U16_MAX}"
            )

    mapping: dict[bytes, tuple[Cell, ...]] = {}
    seen_ids: set[tuple[Cell, ...]] = set()
    for row in rows:
        ident = tuple(row[c] for c in id_cols)
        if ident in seen_ids:
            raise DuplicateIdentifier(f"identifier tuple {ident!r} appears twice")
        seen_ids.add(ident)
        d = row_digest(salt, ident)
        if d in mapping:
            raise DigestCollision(
                f"digest collision at size {len(d)}; refusing to merge rows"
            )
        mapping[d] = ident

    digests = list(mapping)
    group_data = []
    for gi, gcols in enumerate(groups):
        gcols = tuple(gcols)
        order = list(range(len(rows)))
        if shuffle_rows:
            seed = hashlib.blake2b(
                b"group-shuffle" + struct.pack("<I", gi), key=salt[:64], digest_size=8
            ).digest()
            random.Random(int.from_bytes(seed, "little")).shuffle(order)
        group_data.append(
            GroupData(
                index=gi,
                columns=gcols,
                digests=tuple(digests[i] for i in order),
                rows=tuple(tuple(rows[i][c] for c in gcols) for i in order),
            )
        )
    return AnonymizedTable(
        groups=tuple(group_data),
        id_columns=id_cols,
        column_order=column_order,
        local_mapping=mapping,
    )


def local_record(table: AnonymizedTable) -> dict[str, Any]:
    """The table's local secret as a JSON-ready dict: ``id_columns``,
    ``column_order`` and ``rows``, one ``[digest hex, identifier cells...]``
    list per row in table row order. JSON keeps each cell's str or int type."""
    return {
        "id_columns": list(table.id_columns),
        "column_order": list(table.column_order),
        "rows": [[d.hex(), *ident] for d, ident in table.local_mapping.items()],
    }


def from_local_record(
    record: Mapping[str, Any], groups: Mapping[int, GroupData]
) -> AnonymizedTable:
    """The ``AnonymizedTable`` that ``rejoin`` takes, from a ``local_record``
    and the fetched groups. Also reads an earlier release's record, which
    kept a write-only ``salt``, the row order as a ``digests`` list and the
    identifiers in a ``mapping`` of type-tagged ``["i"|"s", text]`` cells."""
    if "rows" in record:
        mapping = {bytes.fromhex(d): tuple(ident) for d, *ident in record["rows"]}
    else:
        tagged = record["mapping"]
        mapping = {
            bytes.fromhex(d): tuple(int(v) if kind == "i" else v for kind, v in tagged[d])
            for d in record["digests"]
        }
    return AnonymizedTable(
        groups=tuple(groups.values()),
        id_columns=tuple(record["id_columns"]),
        column_order=tuple(record["column_order"]),
        local_mapping=mapping,
    )


def rejoin(table: AnonymizedTable, fetched: Mapping[int, GroupData]) -> list[Record]:
    """Reassemble the original records from fetched group slices.

    Rows align by digest, so shuffled groups come back in the right order.
    The output reproduces the input table exactly, identifier columns
    included, in the original column order.

    Raises:
        MissingGroup: a group index the table expects is absent.
        UnknownDigest: a fetched digest with no local mapping.
    """
    per_digest: dict[bytes, dict[str, Cell]] = {d: {} for d in table.local_mapping}
    for expected in table.groups:
        got = fetched.get(expected.index)
        if got is None:
            raise MissingGroup(f"group {expected.index} not supplied")
        for d, cells in zip(got.digests, got.rows):
            slot = per_digest.get(d)
            if slot is None:
                raise UnknownDigest(f"digest {d.hex()} has no local identity")
            for c, v in zip(got.columns, cells):
                slot[c] = v

    out: list[Record] = []
    for d, ident in table.local_mapping.items():
        cells = per_digest[d]
        record: Record = {}
        for c in table.column_order:
            if c in table.id_columns:
                record[c] = ident[table.id_columns.index(c)]
            else:
                record[c] = cells[c]
        out.append(record)
    return out


def serialize_group(group: GroupData) -> bytes:
    """Wire form: "CAN1", u16 group index, u16 column count, the column
    names (u16 length prefix each), u32 row count, then per row the digest
    first (u16 length prefix) followed by each cell as type byte (0 str,
    1 int) plus u32 length plus utf-8 text. Little-endian throughout."""
    out = bytearray(GROUP_MAGIC)
    out += struct.pack("<HH", group.index, len(group.columns))
    for c in group.columns:
        raw = c.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
    out += struct.pack("<I", len(group.rows))
    for d, cells in zip(group.digests, group.rows):
        out += struct.pack("<H", len(d)) + d
        for v in cells:
            raw = str(v).encode("utf-8")
            out += struct.pack("<BI", 1 if isinstance(v, int) else 0, len(raw)) + raw
    return bytes(out)


def parse_group(data: bytes) -> GroupData:
    """Inverse of ``serialize_group``. Raises ValueError on malformed input."""
    if data[:4] != GROUP_MAGIC:
        raise ValueError("bad group magic")
    try:
        index, ncols = struct.unpack_from("<HH", data, 4)
        off = 8
        columns = []
        for _ in range(ncols):
            (ln,) = struct.unpack_from("<H", data, off)
            off += 2
            columns.append(data[off : off + ln].decode("utf-8"))
            off += ln
        (nrows,) = struct.unpack_from("<I", data, off)
        off += 4
        digests = []
        rows = []
        for _ in range(nrows):
            (dlen,) = struct.unpack_from("<H", data, off)
            off += 2
            digests.append(data[off : off + dlen])
            off += dlen
            cells: list[Cell] = []
            for _ in range(ncols):
                kind, ln = struct.unpack_from("<BI", data, off)
                off += 5
                text = data[off : off + ln].decode("utf-8")
                off += ln
                cells.append(int(text) if kind == 1 else text)
            rows.append(tuple(cells))
    except struct.error as e:
        raise ValueError(f"truncated group payload: {e}") from None
    if off != len(data):
        raise ValueError("trailing bytes after group payload")
    return GroupData(
        index=index, columns=tuple(columns), digests=tuple(digests), rows=tuple(rows)
    )
