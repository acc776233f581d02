"""Append-only local manifest and keystore with checksummed records.

File layout: the 4-byte magic "CMF1", then zero or more records of

    u32le(payload length) || payload || u32le(crc32(payload))

Payloads are canonical JSON (sorted keys, compact separators), so equal
records are byte-identical. A record exists only if its length, body and
checksum are all present and consistent; anything else at the tail is a
torn write. Loading therefore either sees a record completely or not at
all, which is the whole crash-safety argument: commit flushes and fsyncs
before returning, and a crash mid-append costs at most the record being
appended, never an earlier one.

Corruption is never silent. Open checks every frame's checksum: a bad one
inside the file fails the open loudly, as does a file that does not start
with the magic. A torn tail (a last frame or the magic cut short, or
zeros) is an append a crash interrupted before its fsync, so it was never
committed: open serves the complete prefix and cuts the torn bytes off the
file, so later appends extend a clean file. A frame that runs past the end
with a whole record after it is damage, not a tear, and fails the open
like a bad checksum; so is a last frame that runs past the end although
the bytes from its body to four bytes before the end checksum to the last
four, a whole record under a damaged length (a tear matches by chance
with probability 2^-32). Open decodes no record, though: a record is parsed
when it is first read, so a frame whose checksum holds but whose body is
not JSON raises CorruptStore at that read, not at open.

Records are immutable once committed: an update appends a new record under
the same id, and the last record per id wins. The manifest and the keystore
are separate files with the same container format, so placement metadata
can be shared for debugging without handing over a single secret. Both
index their records by id in memory, in one shared class: open maps each
id to its newest frame, reading the id straight from the canonical bytes,
and a lookup decodes only the record it returns. A command therefore
parses the one or two records it reads, not the whole log.

Every open takes an exclusive advisory lock on the file for the store's
lifetime; a second open fails fast with StoreBusy instead of interleaving
appends. Every write here and in the provider pack reaches the disk through
``fsync_file`` and, when it creates or renames a name, ``fsync_dir``.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from dataclasses import dataclass, field as dc_field, replace
from json.decoder import scanstring
from pathlib import Path

STORE_MAGIC = b"CMF1"
_U32 = struct.Struct("<I")


class PersistenceError(Exception):
    pass


class NotFound(PersistenceError):
    """No record under that id."""


class CorruptStore(PersistenceError):
    """A bad checksum, a bad magic or an unreadable record."""


class StoreBusy(PersistenceError):
    """Another writer holds the store's lock."""


def fsync_file(f, *chunks: bytes) -> None:
    """Write ``chunks`` to the open binary file ``f`` and return only once
    they, and any truncation before them, are on disk."""
    f.writelines(chunks)
    f.flush()
    os.fsync(f.fileno())


def fsync_dir(path: str | Path) -> None:
    """Make a create, rename or unlink in directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _holds_a_record(data: bytes, start: int) -> bool:
    """Whether a whole, checksummed frame of a JSON object starts in ``data``
    at or after ``start``. Bytes a crash left mid-append hold none."""
    body = data.find(b"{", start)
    while body >= 0:
        (length,) = _U32.unpack_from(data, body - 4)
        end = body + length
        if end + 4 <= len(data) and zlib.crc32(data[body:end]) == _U32.unpack_from(data, end)[0]:
            return True
        body = data.find(b"{", body + 1)
    return False


def _ends_in_a_record(data: bytes, off: int) -> bool:
    """Whether the bytes after the length at ``off`` up to the last four
    bytes of ``data`` are a JSON object that checksums to them: a whole last
    record whose length alone is wrong."""
    crc_at = len(data) - 4
    return (
        data[off + 4 : off + 5] == b"{"
        and off + 4 < crc_at
        and zlib.crc32(data[off + 4 : crc_at]) == _U32.unpack_from(data, crc_at)[0]
    )


class RecordLog:
    """The shared container: an append-only log of JSON records.

    Open locks the file, reads it once and checks every frame's checksum,
    keeping the bytes and each body's (offset, length); it decodes nothing.
    A missing file is created holding just the magic. A torn tail is cut
    off the file before open returns, and ``tail_torn`` says so. ``records()``
    decodes on each call, ``decode`` decodes one frame, and ``ids`` reads one
    string field of every frame from the bytes. Records appended since open
    are kept as the payloads the caller passed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.tail_torn = False
        self._data = b""
        self._frames: list[tuple[int, int]] = []
        self._appended: list[dict] = []
        fresh = not self.path.exists()
        self._fh = open(self.path, "a+b")
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise StoreBusy(f"{self.path} is locked by another writer")
        try:
            self._load(fresh)
        except BaseException:
            # A failed open must not keep the file, or the writer's lock.
            self.close()
            raise

    def _load(self, fresh: bool) -> None:
        self._fh.seek(0)
        data = self._fh.read()
        if len(data) < 4 and STORE_MAGIC.startswith(data):
            # A new file, or one whose magic a crash cut short: an empty store.
            self.tail_torn = not fresh
            fsync_file(self._fh, STORE_MAGIC[len(data) :])
            fsync_dir(self.path.parent)
            return
        if data[:4] != STORE_MAGIC:
            raise CorruptStore(f"{self.path} does not start with the store magic")
        off = 4
        size = len(data)
        unpack = _U32.unpack_from
        frames: list[tuple[int, int]] = []
        while off + 4 <= size:
            (length,) = unpack(data, off)
            body = off + 4
            end = body + length
            if end + 4 > size or not length:
                # Cut short, or zeros: every record holds at least "{}".
                break
            if zlib.crc32(data[body:end]) != unpack(data, end)[0]:
                # A complete frame with a bad checksum is damage, not a torn
                # append; refuse to guess.
                raise CorruptStore(f"checksum mismatch at offset {off} in {self.path}")
            frames.append((body, length))
            off = end + 4
        if off < size:
            # The last append never finished, so it was never committed; but
            # a whole record after it, or in it, means a length is damaged.
            if _holds_a_record(data, off + 4) or _ends_in_a_record(data, off):
                raise CorruptStore(f"damaged record length at offset {off} in {self.path}")
            self.tail_torn = True
            self._fh.truncate(off)
            fsync_file(self._fh)
        self._data = data
        self._frames = frames

    def _damaged(self, what: str, index: int) -> CorruptStore:
        return CorruptStore(f"{what} at offset {self._frames[index][0] - 4} in {self.path}")

    def decode(self, index: int) -> dict:
        """Parse the ``index``-th frame read at open.

        Raises:
            CorruptStore: the body is not UTF-8 JSON.
        """
        off, length = self._frames[index]
        try:
            return json.loads(self._data[off : off + length].decode("utf-8"))
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            raise self._damaged("undecodable record", index)

    def ids(self, key: str) -> list[str]:
        """The string each frame read at open holds under the top-level
        ``key``, read from the bytes without decoding the record.

        Records are canonical JSON with sorted keys, and every top-level key
        of the stores' records that sorts after their id key holds a scalar.
        So the value is the string after the last ``"<key>":"`` in the body:
        inside a JSON string every quote is escaped, and a nested key of the
        same name comes earlier.

        Raises:
            CorruptStore: a frame with no such string.
        """
        needle = f'"{key}":"'.encode()
        unreadable = f"record without a readable {key}"
        data = self._data
        out = []
        for index, (off, length) in enumerate(self._frames):
            end = off + length
            start = data.rfind(needle, off, end) + len(needle)
            stop = data.find(b'"', start, end) if start > off else -1
            if stop < 0:
                raise self._damaged(unreadable, index)
            raw = data[start:stop]
            try:
                if b"\\" in raw:
                    # An escape comes before the first quote: let the JSON
                    # scanner find where the string really ends.
                    out.append(scanstring(data[start:end].decode("utf-8"), 0)[0])
                else:
                    out.append(raw.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError or JSONDecodeError
                raise self._damaged(unreadable, index)
        return out

    def append(self, payload: dict) -> None:
        """Durably add one record; returns only after flush and fsync."""
        body = _canonical(payload)
        fsync_file(self._fh, _U32.pack(len(body)) + body + _U32.pack(zlib.crc32(body)))
        self._appended.append(payload)

    def records(self) -> list[dict]:
        """Every record in log order, the ones read at open decoded now."""
        return [self.decode(i) for i in range(len(self._frames))] + self._appended

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class ManifestRecord:
    """One committed placement: everything get and audit need, no secrets.

    ``details`` carries the pipeline-specific payload (the sequence
    permutation, share locations with their evaluation points, per-chunk
    digests, keystore reference ids). Secrets themselves never appear
    here; the manifest can be shared for debugging. ``version`` counts the
    object's records; ``put`` prints it.
    """

    object_id: str
    pipeline: str
    version: int = 0
    secret_level: str = ""
    operation_class: str = ""
    object_digest: str = ""
    details: dict = dc_field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "object_id": self.object_id,
            "pipeline": self.pipeline,
            "version": self.version,
            "secret_level": self.secret_level,
            "operation_class": self.operation_class,
            "object_digest": self.object_digest,
            "details": self.details,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ManifestRecord":
        return cls(**payload)


class _IndexedLog:
    """A RecordLog indexed by the id each record holds under ``_id_key``.

    Open maps each id to the position of its newest frame, reading the id
    from the bytes (``RecordLog.ids``) without decoding any record; a frame
    with no readable id fails the open with CorruptStore. A lookup decodes
    the newest frame on first use and keeps the dict; records appended since
    open are indexed as the payloads passed in. A body that is not JSON, or
    whose id differs from the indexed one, raises CorruptStore at that
    lookup.
    """

    _id_key: str

    def __init__(self, path: str | Path):
        self.log = RecordLog(path)
        try:
            ids = self.log.ids(self._id_key)
        except CorruptStore:
            self.log.close()
            raise
        self._latest: dict[str, dict | int] = dict(zip(ids, range(len(ids))))

    @property
    def tail_torn(self) -> bool:
        return self.log.tail_torn

    def _append(self, payload: dict) -> None:
        self.log.append(payload)
        self._latest[payload[self._id_key]] = payload

    def _find(self, record_id: str) -> dict | None:
        """The newest record under ``record_id``, decoded once, or None."""
        newest = self._latest.get(record_id)
        if newest is None or isinstance(newest, dict):
            return newest
        payload = self.log.decode(newest)
        if not isinstance(payload, dict) or payload.get(self._id_key) != record_id:
            raise self.log._damaged(f"record not indexed under {record_id!r}", newest)
        self._latest[record_id] = payload
        return payload

    def _newest(self, record_id: str, what: str) -> dict:
        newest = self._find(record_id)
        if newest is None:
            raise NotFound(f"no {what} record for {record_id!r}")
        return newest

    def close(self) -> None:
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ManifestStore(_IndexedLog):
    """Versioned object placements over a RecordLog, indexed by object id."""

    _id_key = "object_id"

    def commit(self, record: ManifestRecord) -> ManifestRecord:
        """Append the next version of this object's record and return it."""
        newest = self._find(record.object_id)
        version = newest["version"] + 1 if newest is not None else 1
        stamped = replace(record, version=version)
        self._append(stamped.to_payload())
        return stamped

    def lookup(self, object_id: str) -> ManifestRecord:
        return ManifestRecord.from_payload(self._newest(object_id, "manifest"))


class KeyStore(_IndexedLog):
    """Secret material over the same container format, in its own file,
    indexed by key id. A record is ``{"key_id", "data"}``: for ``anon:<id>``
    a table's ``anonymize.local_record`` (earlier releases wrote a salt and a
    type-tagged digest mapping), for ``hekey:<id>`` the private primes,
    for ``itok:<id>`` the token tables and their master key (written once,
    at put), for ``iround:<id>`` the object's count of spent audit rounds
    (one small record per audit). Earlier releases also wrote ``kind`` and
    ``version``; nothing reads them, and the last record per id wins."""

    _id_key = "key_id"

    def put(self, key_id: str, data: dict) -> None:
        self._append({"key_id": key_id, "data": data})

    def get(self, key_id: str) -> dict:
        return self._newest(key_id, "key")["data"]


def scan_for_bytes(haystack: bytes, needle: bytes) -> bool:
    """True if ``needle`` occurs in ``haystack``. Tiny helper for the
    leakage scans that assert secrets never reach provider payloads."""
    return bool(needle) and needle in haystack
