import struct
import zlib

import pytest

from cloudvault.persistence import (
    STORE_MAGIC,
    CorruptStore,
    KeyStore,
    ManifestRecord,
    ManifestStore,
    NotFound,
    RecordLog,
    StoreBusy,
    scan_for_bytes,
)


def _new_store(tmp_path, name="m.cmf"):
    return ManifestStore(str(tmp_path / name))


def _record(oid, pipeline="LocalOnly", **details):
    return ManifestRecord(
        object_id=oid, pipeline=pipeline, secret_level="secret",
        operation_class="none", object_digest="d" * 64, details=details,
    )


def test_commit_and_lookup(tmp_path):
    store = _new_store(tmp_path)
    store.commit(_record("a", note="first"))
    got = store.lookup("a")
    assert got.object_id == "a"
    assert got.version == 1
    assert got.details == {"note": "first"}


def test_versions_increment_and_history_kept(tmp_path):
    store = _new_store(tmp_path)
    store.commit(_record("a", rev="one"))
    store.commit(_record("a", rev="two"))
    assert store.lookup("a").details == {"rev": "two"}
    assert store.lookup("a").version == 2
    # Both versions stay in the log, and the newest wins after a reopen too.
    assert [(r["version"], r["details"]["rev"]) for r in store.log.records()] == [
        (1, "one"),
        (2, "two"),
    ]
    store.close()
    reopened = ManifestStore(str(tmp_path / "m.cmf"), writable=False)
    assert reopened.lookup("a").version == 2
    assert reopened.lookup("a").details == {"rev": "two"}


def test_lookup_unknown_raises(tmp_path):
    with pytest.raises(NotFound):
        _new_store(tmp_path).lookup("ghost")


def test_survives_reopen(tmp_path):
    path = str(tmp_path / "m.cmf")
    ManifestStore(path).commit(_record("a"))
    store = ManifestStore(path, writable=False)
    assert store.lookup("a").object_id == "a"


def test_torn_tail_raises_without_recover(tmp_path):
    path = tmp_path / "m.cmf"
    store = ManifestStore(str(path))
    store.commit(_record("a"))
    store.commit(_record("b"))
    store.log.close()
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(CorruptStore):
        ManifestStore(str(path), writable=False)


def test_torn_tail_recovery_serves_prefix_and_truncates(tmp_path):
    path = tmp_path / "m.cmf"
    store = ManifestStore(str(path))
    store.commit(_record("a"))
    store.commit(_record("b"))
    store.log.close()
    intact_after_one = None
    raw = path.read_bytes()
    # Find the boundary after record "a" by rebuilding a single-record file.
    solo = tmp_path / "solo.cmf"
    s = ManifestStore(str(solo))
    s.commit(_record("a"))
    s.log.close()
    intact_after_one = solo.stat().st_size

    path.write_bytes(raw[: intact_after_one + 5])  # 5 bytes into record "b"
    store = ManifestStore(str(path), recover=True)
    assert store.tail_torn
    assert store.lookup("a").object_id == "a"
    with pytest.raises(NotFound):
        store.lookup("b")
    # Writable recovery truncates the torn frame so appends go to a clean end.
    store.commit(_record("c"))
    store.log.close()
    reopened = ManifestStore(str(path), writable=False)
    assert reopened.lookup("c").object_id == "c"
    assert not reopened.tail_torn


def test_interior_corruption_always_fatal(tmp_path):
    path = tmp_path / "m.cmf"
    store = ManifestStore(str(path))
    store.commit(_record("a"))
    store.commit(_record("b"))
    store.log.close()
    raw = bytearray(path.read_bytes())
    raw[len(STORE_MAGIC) + 6] ^= 0xFF  # inside record "a" body
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStore):
        ManifestStore(str(path), writable=False, recover=True)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.cmf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(CorruptStore):
        ManifestStore(str(path), writable=False)


def test_checksum_frame_layout(tmp_path):
    # u32le length, payload, u32le crc32 of the payload.
    path = tmp_path / "m.cmf"
    log = RecordLog(str(path))
    log.append({"k": 1})
    log.close()
    raw = path.read_bytes()
    body = raw[len(STORE_MAGIC):]
    (length,) = struct.unpack_from("<I", body, 0)
    payload = body[4 : 4 + length]
    (crc,) = struct.unpack_from("<I", body, 4 + length)
    assert crc == zlib.crc32(payload)
    assert payload == b'{"k":1}'  # canonical: sorted keys, no spaces


def test_writer_lock_excludes_second_writer(tmp_path):
    path = str(tmp_path / "m.cmf")
    first = ManifestStore(path)
    with pytest.raises(StoreBusy):
        ManifestStore(path)
    first.log.close()
    second = ManifestStore(path)  # released lock can be retaken
    second.log.close()


def test_readers_bypass_lock(tmp_path):
    path = str(tmp_path / "m.cmf")
    writer = ManifestStore(path)
    writer.commit(_record("a"))
    reader = ManifestStore(path, writable=False)
    assert reader.lookup("a").object_id == "a"
    writer.log.close()


def test_keystore_versions_latest_wins(tmp_path):
    ks = KeyStore(str(tmp_path / "k.cmf"))
    assert ks.put("master", "key", {"hex": "aa"}) == 1
    assert ks.put("master", "key", {"hex": "bb"}) == 2
    assert ks.get("master") == {"hex": "bb"}
    assert [(r["key_id"], r["version"]) for r in ks.log.records()] == [
        ("master", 1),
        ("master", 2),
    ]
    with pytest.raises(NotFound):
        ks.get("other")


def test_scan_for_bytes():
    assert scan_for_bytes(b"abcdef", b"cde")
    assert not scan_for_bytes(b"abcdef", b"xyz")
    assert not scan_for_bytes(b"", b"a")
    assert not scan_for_bytes(b"a", b"")  # an empty secret cannot leak
