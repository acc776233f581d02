import json
import os
import stat
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


def _write_frames(path, bodies):
    """A store file holding ``bodies`` as checksummed frames, written
    directly (no fsync per record)."""
    out = bytearray(STORE_MAGIC)
    for body in bodies:
        out += struct.pack("<I", len(body)) + body + struct.pack("<I", zlib.crc32(body))
    path.write_bytes(bytes(out))


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def test_commit_and_lookup(tmp_path):
    with _new_store(tmp_path) as store:
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
    with ManifestStore(str(tmp_path / "m.cmf")) as reopened:
        assert reopened.lookup("a").version == 2
        assert reopened.lookup("a").details == {"rev": "two"}


def test_lookup_unknown_raises(tmp_path):
    with _new_store(tmp_path) as store, pytest.raises(NotFound):
        store.lookup("ghost")


def test_survives_reopen(tmp_path):
    path = str(tmp_path / "m.cmf")
    with ManifestStore(path) as store:
        store.commit(_record("a"))
    with ManifestStore(path) as store:
        assert store.lookup("a").object_id == "a"


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
    store = ManifestStore(str(path))
    assert store.tail_torn
    assert store.lookup("a").object_id == "a"
    with pytest.raises(NotFound):
        store.lookup("b")
    # Open cut the torn frame off, so appends go to a clean end.
    store.commit(_record("c"))
    store.log.close()
    with ManifestStore(str(path)) as reopened:
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
        ManifestStore(str(path))


def test_a_zero_filled_tail_is_cut(tmp_path):
    # A crash can leave the file longer than what was written, padded with zeros.
    path = tmp_path / "m.cmf"
    with ManifestStore(str(path)) as store:
        store.commit(_record("a"))
    clean = path.read_bytes()
    path.write_bytes(clean + bytes(100))
    with ManifestStore(str(path)) as store:
        assert store.tail_torn
        assert store.lookup("a").version == 1
    assert path.read_bytes() == clean


def test_a_damaged_length_before_whole_records_is_not_cut(tmp_path):
    # A record whose length runs past the end reads as torn, unless whole
    # records follow it: then the length is damaged and nothing is cut.
    path = tmp_path / "m.cmf"
    with ManifestStore(str(path)) as store:
        for oid in "abc":
            store.commit(_record(oid))
    raw = bytearray(path.read_bytes())
    (first,) = struct.unpack_from("<I", raw, len(STORE_MAGIC))
    raw[len(STORE_MAGIC) + 8 + first + 2] ^= 0x01  # the length of record "b"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStore):
        ManifestStore(str(path))
    assert path.read_bytes() == raw


def test_a_damaged_length_in_the_last_record_is_not_cut(tmp_path):
    # A last record whose length is wrong, while its body still checksums to
    # the file's last four bytes, is whole: damage, not a torn append.
    path = tmp_path / "m.cmf"
    with ManifestStore(str(path)) as store:
        for oid in "abc":
            store.commit(_record(oid))
    clean = path.read_bytes()
    last = at = len(STORE_MAGIC)
    while at < len(clean):
        last, at = at, at + 8 + struct.unpack_from("<I", clean, at)[0]
    for bit in range(32):
        raw = bytearray(clean)
        raw[last + bit // 8] ^= 1 << bit % 8
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptStore):
            ManifestStore(str(path))
        assert path.read_bytes() == raw


@pytest.mark.parametrize("damage", ["bad checksum", "frame without id"])
def test_failed_open_releases_the_writer_lock(tmp_path, damage):
    path = tmp_path / "m.cmf"
    with ManifestStore(str(path)) as store:
        store.commit(_record("a"))
    if damage == "bad checksum":
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
    else:
        _write_frames(path, [b'{"k":1}'])
    with pytest.raises(CorruptStore) as failed:
        ManifestStore(str(path))
    # ``failed`` keeps the traceback alive, and with it the half-built store.
    assert failed.traceback
    path.write_bytes(STORE_MAGIC)
    with ManifestStore(str(path)) as store:
        assert store.commit(_record("b")).version == 1


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.cmf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(CorruptStore):
        ManifestStore(str(path))


@pytest.mark.parametrize("raw, torn", [(b"CM", True), (b"", True), (b"XY", False)])
def test_a_short_file_is_an_empty_store_only_if_it_starts_the_magic(tmp_path, raw, torn):
    path = tmp_path / "m.cmf"
    path.write_bytes(raw)
    if not torn:
        with pytest.raises(CorruptStore):
            ManifestStore(str(path))
        assert path.read_bytes() == raw
        return
    with ManifestStore(str(path)) as store:
        assert store.tail_torn
        assert store.log.records() == []
        assert path.read_bytes() == STORE_MAGIC
        store.commit(_record("a"))
    with ManifestStore(str(path)) as reopened:
        assert not reopened.tail_torn
        assert reopened.lookup("a").version == 1


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


def test_keystore_versions_latest_wins(tmp_path):
    ks = KeyStore(str(tmp_path / "k.cmf"))
    ks.put("master", {"hex": "aa"})
    ks.put("master", {"hex": "bb"})
    assert ks.get("master") == {"hex": "bb"}
    assert ks.log.records() == [
        {"key_id": "master", "data": {"hex": "aa"}},
        {"key_id": "master", "data": {"hex": "bb"}},
    ]
    with pytest.raises(NotFound):
        ks.get("other")
    ks.close()
    with KeyStore(str(tmp_path / "k.cmf")) as reopened:
        assert reopened.get("master") == {"hex": "bb"}


def test_scan_for_bytes():
    assert scan_for_bytes(b"abcdef", b"cde")
    assert not scan_for_bytes(b"abcdef", b"xyz")
    assert not scan_for_bytes(b"", b"a")
    assert not scan_for_bytes(b"a", b"")  # an empty secret cannot leak


def test_lookup_decodes_only_the_record_it_returns(tmp_path, monkeypatch):
    path = tmp_path / "m.cmf"
    _write_frames(
        path,
        [_canonical(_record(f"o{i}", n=i).to_payload() | {"version": 1}) for i in range(1000)],
    )
    decoded = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(1) or real_loads(*a, **k))
    store = ManifestStore(str(path))
    assert store.lookup("o417").details == {"n": 417}
    assert len(decoded) <= 1
    store.lookup("o417")  # the decoded record is kept
    assert len(decoded) <= 1
    store.close()


@pytest.mark.parametrize(
    "oid",
    [
        'quote"and\\backslash',
        "non-ascii ü中\U0001f600",
        'text "object_id":"decoy" inside',
        '\\"object_id\\":\\"',
    ],
)
def test_ids_with_escapes_look_up_after_a_reopen(tmp_path, oid):
    path = str(tmp_path / "m.cmf")
    with ManifestStore(path) as store:
        store.commit(_record(oid, note="wanted"))
        store.commit(_record("decoy", note="other"))
    with ManifestStore(path) as reopened:
        assert reopened.lookup(oid).details == {"note": "wanted"}
        assert reopened.lookup("decoy").details == {"note": "other"}


def test_nested_id_keys_do_not_shadow_the_record_id(tmp_path):
    path = str(tmp_path / "m.cmf")
    details = {"object_id": "inner", "deeper": {"object_id": "innermost"}}
    with ManifestStore(path) as store:
        store.commit(_record("outer", **details))
    with ManifestStore(path) as reopened:
        assert reopened.lookup("outer").details == details
        for nested in ("inner", "innermost"):
            with pytest.raises(NotFound):
                reopened.lookup(nested)


def test_legacy_keystore_records_with_kind_and_version(tmp_path):
    path = tmp_path / "k.cmf"
    _write_frames(
        path,
        [
            _canonical({"key_id": "itok:a", "kind": "itok", "version": 1, "data": {"v": 1}}),
            _canonical({"key_id": "iround:a", "kind": "iround", "version": 1, "data": {"n": 1}}),
            _canonical({"key_id": "iround:a", "kind": "iround", "version": 2, "data": {"n": 2}}),
            _canonical({"key_id": "iround:a", "data": {"n": 3}}),
        ],
    )
    with KeyStore(str(path)) as ks:
        assert ks.get("itok:a") == {"v": 1}
        assert ks.get("iround:a") == {"n": 3}


def test_undecodable_body_fails_when_read(tmp_path):
    # The checksum holds, so open accepts the frame; reading it fails.
    path = tmp_path / "m.cmf"
    good = _canonical(_record("a").to_payload() | {"version": 1})
    _write_frames(path, [good, b'{"details":{},"object_id":"b",', b'\xff{"object_id":"c"}'])
    store = ManifestStore(str(path))
    assert store.lookup("a").object_id == "a"
    for oid in ("b", "c"):
        with pytest.raises(CorruptStore):
            store.lookup(oid)
    with pytest.raises(CorruptStore):
        store.log.records()
    store.close()


def test_record_not_matching_its_indexed_id_fails_when_read(tmp_path):
    # Not canonical: a nested id after the top-level one.
    path = tmp_path / "m.cmf"
    _write_frames(path, [b'{"object_id":"a","pipeline":{"object_id":"b"}}'])
    with ManifestStore(str(path)) as store:
        with pytest.raises(CorruptStore):
            store.lookup("b")


@pytest.mark.parametrize(
    "body", [b'{"k":1}', b'{"object_id":1}', b'{"object_id":"unterminated', b'not json']
)
def test_frame_without_a_readable_id_fails_at_open(tmp_path, body):
    path = tmp_path / "m.cmf"
    _write_frames(path, [_canonical(_record("a").to_payload()), body])
    with pytest.raises(CorruptStore):
        ManifestStore(str(path))


def test_writable_reopen_continues_the_version_count(tmp_path):
    path = str(tmp_path / "m.cmf")
    with ManifestStore(path) as store:
        store.commit(_record("a", rev="one"))
        store.commit(_record("a", rev="two"))
        store.commit(_record("b", rev="one"))
    with ManifestStore(path) as store:
        assert store.commit(_record("a", rev="three")).version == 3
        assert store.lookup("a").details == {"rev": "three"}
        assert store.commit(_record("a", rev="four")).version == 4
        assert [(r["object_id"], r["version"]) for r in store.log.records()] == [
            ("a", 1), ("a", 2), ("b", 1), ("a", 3), ("a", 4),
        ]
    with ManifestStore(path) as reopened:
        assert reopened.lookup("a").version == 4
        assert reopened.lookup("b").version == 1


def test_a_new_log_fsyncs_its_directory(tmp_path, monkeypatch):
    seen = []
    fsync = os.fsync

    def recording(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            seen.append(sorted(f.name for f in tmp_path.iterdir()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    with RecordLog(tmp_path / "m.cmf"):
        pass
    assert seen == [["m.cmf"]]
    with RecordLog(tmp_path / "m.cmf") as log:
        log.append({"id": "a"})
    assert seen == [["m.cmf"]]
