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

Corruption is never silent. A bad checksum inside the file fails the load
loudly; a truncated tail is reported as CorruptStore unless the caller opts
into recovery, in which case the complete prefix is served and the torn
bytes are dropped from view (and from the file, if writable).

Records are immutable once committed: an update appends a new version under
the same id and readers take the highest version. The manifest and the
keystore are separate files with the same container format, so placement
metadata can be shared for debugging without handing over a single secret.
Both index their records by id in memory, built once at open and extended
on every append, so a lookup costs the same however long the log grows.

Writers take an exclusive advisory lock on the file for their lifetime;
a second writer fails fast instead of interleaving appends.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from dataclasses import dataclass, field as dc_field
from pathlib import Path

STORE_MAGIC = b"CMF1"


class PersistenceError(Exception):
    pass


class NotFound(PersistenceError):
    """No record under that id."""


class CorruptStore(PersistenceError):
    """Checksum mismatch or torn tail detected on load."""

    def __init__(self, message: str, offset: int = -1, records_recovered: int = 0):
        super().__init__(message)
        self.offset = offset
        self.records_recovered = records_recovered


class StoreBusy(PersistenceError):
    """Another writer holds the store's lock."""


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class RecordLog:
    """The shared container: an append-only log of JSON records.

    ``recover=True`` tolerates a torn tail by serving the complete prefix
    and, when writable, truncating the torn bytes so later appends extend a
    clean file. Interior corruption (a record whose checksum fails but whose
    frame is complete) is never recovered from automatically.
    """

    def __init__(self, path: str | Path, writable: bool = True, recover: bool = False):
        self.path = Path(path)
        self.writable = writable
        self.tail_torn = False
        self._records: list[dict] = []
        self._fh = None

        fresh = not self.path.exists()
        mode = ("a+b" if writable else "rb")
        if fresh and not writable:
            raise NotFound(f"no store at {self.path}")
        self._fh = open(self.path, mode)
        if writable:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._fh.close()
                self._fh = None
                raise StoreBusy(f"{self.path} is locked by another writer")
        if fresh:
            self._fh.write(STORE_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._load(recover)

    def _load(self, recover: bool) -> None:
        self._fh.seek(0)
        data = self._fh.read()
        if data[:4] != STORE_MAGIC:
            if len(data) < 4 and recover:
                # Even the magic was torn; an empty store is the only safe view.
                self.tail_torn = True
                self._records = []
                self._valid_end = 4
                if self.writable:
                    self._rewrite_clean(b"")
                return
            raise CorruptStore(
                f"{self.path} does not start with the store magic", offset=0
            )
        off = 4
        records: list[dict] = []
        while off < len(data):
            frame_start = off
            if off + 4 > len(data):
                self._torn(recover, frame_start, records, "torn length prefix")
                break
            (length,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + length + 4 > len(data):
                self._torn(recover, frame_start, records, "torn record body")
                break
            body = data[off : off + length]
            off += length
            (crc,) = struct.unpack_from("<I", data, off)
            off += 4
            if zlib.crc32(body) != crc:
                # A complete frame with a bad checksum is damage, not a torn
                # append; refuse to guess, even in recovery mode.
                raise CorruptStore(
                    f"checksum mismatch at offset {frame_start} in {self.path}",
                    offset=frame_start,
                    records_recovered=len(records),
                )
            try:
                records.append(json.loads(body.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise CorruptStore(
                    f"undecodable record at offset {frame_start} in {self.path}",
                    offset=frame_start,
                    records_recovered=len(records),
                )
        else:
            self._valid_end = off
        self._records = records

    def _torn(self, recover: bool, offset: int, records: list[dict], what: str) -> None:
        if not recover:
            raise CorruptStore(
                f"{what} at offset {offset} in {self.path}",
                offset=offset,
                records_recovered=len(records),
            )
        self.tail_torn = True
        self._valid_end = offset
        if self.writable:
            self._fh.truncate(offset)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _rewrite_clean(self, body: bytes) -> None:
        self._fh.seek(0)
        self._fh.truncate(0)
        self._fh.write(STORE_MAGIC + body)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, payload: dict) -> None:
        """Durably add one record; returns only after flush and fsync."""
        if not self.writable:
            raise PersistenceError("store opened read-only")
        body = _canonical(payload)
        frame = struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(frame)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._records.append(payload)

    def records(self) -> list[dict]:
        return list(self._records)

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

    ``details`` carries the pipeline-specific payload (cut points, the
    sequence permutation, share locations with their evaluation points,
    per-chunk digests, keystore reference ids). Secrets themselves
    never appear here; the manifest can be shared for debugging.
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


class ManifestStore:
    """Versioned object placements over a RecordLog, indexed by object id."""

    def __init__(self, path: str | Path, writable: bool = True, recover: bool = False):
        self.log = RecordLog(path, writable=writable, recover=recover)
        # object id -> newest record payload.
        self._latest: dict[str, dict] = {}
        for r in self.log.records():
            self._latest[r["object_id"]] = r

    @property
    def tail_torn(self) -> bool:
        return self.log.tail_torn

    def commit(self, record: ManifestRecord) -> ManifestRecord:
        """Append the next version of this object's record and return it."""
        newest = self._latest.get(record.object_id)
        version = newest["version"] + 1 if newest is not None else 1
        stamped = ManifestRecord(
            object_id=record.object_id,
            pipeline=record.pipeline,
            version=version,
            secret_level=record.secret_level,
            operation_class=record.operation_class,
            object_digest=record.object_digest,
            details=record.details,
        )
        payload = stamped.to_payload()
        self.log.append(payload)
        self._latest[record.object_id] = payload
        return stamped

    def lookup(self, object_id: str) -> ManifestRecord:
        newest = self._latest.get(object_id)
        if newest is None:
            raise NotFound(f"no manifest record for {object_id!r}")
        return ManifestRecord.from_payload(newest)

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "ManifestStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class KeyStore:
    """Versioned secret material over the same container format, in its own
    file, indexed by key id: salts and digest mappings (``anon:<id>``),
    private keys (``hekey:<id>``), token tables with their master key
    (``itok:<id>``, written once at put) and each object's count of spent
    audit rounds (``iround:<id>``, one small record per audit)."""

    def __init__(self, path: str | Path, writable: bool = True, recover: bool = False):
        self.log = RecordLog(path, writable=writable, recover=recover)
        # key id -> newest record.
        self._latest: dict[str, dict] = {}
        for r in self.log.records():
            self._latest[r["key_id"]] = r

    @property
    def tail_torn(self) -> bool:
        return self.log.tail_torn

    def put(self, key_id: str, kind: str, data: dict) -> int:
        newest = self._latest.get(key_id)
        version = newest["version"] + 1 if newest is not None else 1
        record = {"key_id": key_id, "kind": kind, "version": version, "data": data}
        self.log.append(record)
        self._latest[key_id] = record
        return version

    def get(self, key_id: str) -> dict:
        newest = self._latest.get(key_id)
        if newest is None:
            raise NotFound(f"no key record for {key_id!r}")
        return newest["data"]

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "KeyStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_for_bytes(haystack: bytes, needle: bytes) -> bool:
    """True if ``needle`` occurs in ``haystack``. Tiny helper for the
    leakage scans that assert secrets never reach provider payloads."""
    return bool(needle) and needle in haystack
