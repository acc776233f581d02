import base64
import itertools
import json
import os
import random
import shutil
import stat
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cloudvault import integrity
from cloudvault.cli import main
from cloudvault.simcloud import (
    AuthFailed,
    CorruptBlob,
    InsiderDump,
    NodeUnavailable,
    SimCloud,
    SimProvider,
    SnapshotCorrupt,
    Unavailable,
    UnknownBlob,
    UnknownTarget,
)

_TOPOLOGY = {"alpha": {"n0": 0, "n1": 1}, "beta": {"n0": 0}}


def test_store_and_fetch():
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "b1", b"hello")
    assert p.fetch_blob("n0", "b1") == b"hello"


def test_unknown_targets():
    cloud = SimCloud.build(_TOPOLOGY)
    with pytest.raises(UnknownTarget):
        cloud.provider("nope")
    with pytest.raises(UnknownTarget):
        cloud.provider("alpha").store_blob("n9", "b", b"x")
    with pytest.raises(UnknownBlob):
        cloud.provider("alpha").fetch_blob("n0", "missing")


def test_credential_checked():
    cloud = SimCloud.build(_TOPOLOGY, credential="sesame")
    p = cloud.provider("alpha")
    p.store_blob("n0", "b", b"x", credential="sesame")
    with pytest.raises(AuthFailed):
        p.fetch_blob("n0", "b", credential="wrong")
    assert p.fetch_blob("n0", "b", credential="sesame") == b"x"


def test_node_unavailable_blocks_only_that_node(tmp_path):
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "b0", b"zero")
    p.store_blob("n1", "b1", b"one")
    cloud.inject(NodeUnavailable(provider="alpha", node="n0"))
    with pytest.raises(Unavailable):
        p.fetch_blob("n0", "b0")
    assert p.fetch_blob("n1", "b1") == b"one"
    cloud.save(tmp_path)  # the outage is not saved
    assert SimCloud.load(tmp_path).provider("alpha").fetch_blob("n0", "b0") == b"zero"


def test_corruption_is_a_fetch_time_overlay(tmp_path):
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "b", bytes(8))
    fault = CorruptBlob(provider="alpha", node="n0", blob_id="b", offset=3, mask=0x55)
    cloud.inject(fault)
    cloud.inject(fault)  # idempotent
    got = p.fetch_blob("n0", "b")
    assert got[3] == 0x55 and got[:3] == bytes(3)
    cloud.save(tmp_path)
    # The stored bytes were never touched, and the overlay is not saved.
    assert SimCloud.load(tmp_path).provider("alpha").fetch_blob("n0", "b") == bytes(8)


def test_corrupt_blob_validation():
    cloud = SimCloud.build(_TOPOLOGY)
    cloud.provider("alpha").store_blob("n0", "b", b"x")
    with pytest.raises(ValueError):
        cloud.inject(CorruptBlob("alpha", "n0", "b", offset=0, mask=0))
    with pytest.raises(UnknownBlob):
        cloud.inject(CorruptBlob("alpha", "n0", "nope", offset=0, mask=1))


@pytest.mark.parametrize("offset", [-1, 3, 7])
def test_corrupt_offset_must_fall_inside_the_blob(offset):
    cloud = SimCloud.build(_TOPOLOGY)
    cloud.provider("alpha").store_blob("n0", "b", b"xyz")
    with pytest.raises(ValueError, match="offset"):
        cloud.inject(CorruptBlob("alpha", "n0", "b", offset=offset, mask=1))
    assert cloud.provider("alpha").fetch_blob("n0", "b") == b"xyz"


def test_fault_on_a_blob_restored_shorter_stays_inert():
    cloud = SimCloud.build(_TOPOLOGY)
    alpha = cloud.provider("alpha")
    alpha.store_blob("n0", "b", b"xyz")
    cloud.inject(CorruptBlob("alpha", "n0", "b", offset=2, mask=1))
    alpha.store_blob("n0", "b", b"x")
    assert alpha.fetch_blob("n0", "b") == b"x"
    assert [e.data for e in alpha.insider_dump()] == [b"x"]
    alpha.store_blob("n0", "b", b"xyz")
    assert alpha.fetch_blob("n0", "b") == b"xy{"


def test_challenge_endpoint_matches_local_compute():
    rng = random.Random(101)
    key = rng.randbytes(32)
    enc = integrity.encode(rng.randbytes(96), 3)
    table = integrity.precompute_tokens(enc, 2, 6, key)
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "col0", enc.columns[0])
    msg = integrity.challenge(table, 0, 0)
    reply = p.respond_challenge("n0", "col0", integrity.serialize_challenge(msg))
    value = integrity.parse_response(reply)
    assert value == integrity.respond(enc.columns[0], msg)
    assert integrity.verify(table, 0, 0, value).intact


def test_challenge_sees_injected_corruption():
    rng = random.Random(102)
    key = rng.randbytes(32)
    enc = integrity.encode(rng.randbytes(32), 1)
    table = integrity.precompute_tokens(enc, 1, enc.column_length, key)
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("beta")
    p.store_blob("n0", "col", enc.columns[0])
    cloud.inject(CorruptBlob("beta", "n0", "col", offset=0, mask=0x10))
    msg = integrity.challenge(table, 0, 0)
    reply = p.respond_challenge("n0", "col", integrity.serialize_challenge(msg))
    assert not integrity.verify(
        table, 0, 0, integrity.parse_response(reply)
    ).intact


def test_insider_dump_lists_everything_sorted():
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n1", "z", b"3")
    p.store_blob("n0", "b", b"2")
    p.store_blob("n0", "a", b"1")
    cloud.inject(InsiderDump(provider="alpha"))
    assert p.compromised
    dump = cloud.insider_dump("alpha")
    assert [(e.node, e.blob_id, e.data) for e in dump] == [
        ("n0", "a", b"1"), ("n0", "b", b"2"), ("n1", "z", b"3"),
    ]
    assert all(e.depth == _TOPOLOGY["alpha"][e.node] for e in dump)


def test_duplicate_provider_ids_refused():
    with pytest.raises(ValueError):
        SimCloud([SimProvider("a", {"n0": 0}), SimProvider("a", {"n0": 0})])


def _sample_fleet(faults=True, more=()):
    """Unsorted provider ids, an empty blob, a non-ASCII blob id, a provider
    with no blobs, and one fault of each kind unless ``faults`` is false;
    then each (provider, node, blob id, data) in ``more`` is stored."""
    cloud = SimCloud.build(
        {"gamma": {"n0": 0, "deep": 3}, "alpha": {"n0": 0, "n1": 1}, "beta": {"n0": 0}},
        credential="c",
    )
    alpha, gamma = cloud.provider("alpha"), cloud.provider("gamma")
    alpha.store_blob("n0", "b", b"payload", credential="c")
    alpha.store_blob("n1", "empty", b"", credential="c")
    gamma.store_blob("deep", "blob-\u00e9\u6f22", bytes(range(256)), credential="c")
    gamma.store_blob("n0", "a", b"\x00" * 40, credential="c")
    if faults:
        cloud.inject(NodeUnavailable(provider="beta", node="n0"))
        cloud.inject(CorruptBlob("alpha", "n0", "b", offset=2, mask=0x0F))
        cloud.inject(InsiderDump(provider="gamma"))
    for pid, node, blob_id, data in more:
        cloud.provider(pid).store_blob(node, blob_id, data, credential="c")
    return cloud


def _dump(provider):
    """A provider's blobs as its insider reads them, overlays applied."""
    return {(e.node, e.blob_id): e.data for e in provider.insider_dump()}


def _fleet_state(cloud):
    return [(pid, p.nodes, p.credential, _dump(p)) for pid, p in cloud.providers.items()]


def test_save_load_round_trip(tmp_path):
    cloud = _sample_fleet()
    cloud.save(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simcloud.pack"]

    back = SimCloud.load(tmp_path)
    assert list(back.providers) == ["alpha", "beta", "gamma"]
    assert _fleet_state(back) == sorted(_fleet_state(_sample_fleet(faults=False)))
    assert back.provider("gamma").nodes == {"n0": 0, "deep": 3}
    assert back.provider("alpha").fetch_blob("n1", "empty", credential="c") == b""
    assert back.provider("alpha").fetch_blob("n0", "b", credential="c") == b"payload"
    assert not any(p._faults for p in back.providers.values())

    # Saving is deterministic, also for a fleet that was itself loaded.
    first = (tmp_path / "simcloud.pack").read_bytes()
    cloud.save(tmp_path)
    assert (tmp_path / "simcloud.pack").read_bytes() == first
    back.save(tmp_path / "again")
    assert (tmp_path / "again" / "simcloud.pack").read_bytes() == first


def test_faults_are_neither_saved_nor_loaded(tmp_path):
    _sample_fleet().save(tmp_path / "faulty")
    clean = _sample_fleet(faults=False)
    clean.save(tmp_path / "clean")
    raw = (tmp_path / "clean" / "simcloud.pack").read_bytes()
    assert (tmp_path / "faulty" / "simcloud.pack").read_bytes() == raw
    assert not any(p._faults for p in SimCloud.load(tmp_path / "faulty").providers.values())

    # A pack whose frames carry a fault list, as earlier releases wrote it.
    end = 8 + struct.unpack(">I", raw[4:8])[0]
    header = json.loads(raw[8:end])
    header["faults"] = [
        {"kind": "CorruptBlob", "provider": "alpha", "node": "n0", "blob_id": "b",
         "offset": 2, "mask": 15},
        {"kind": "NodeUnavailable", "provider": "beta", "node": "n0"},
        {"kind": "InsiderDump", "provider": "gamma"},
    ]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "simcloud.pack").write_bytes(
        raw[:4] + struct.pack(">I", len(head)) + head + raw[end:]
    )
    old = SimCloud.load(tmp_path / "old")
    assert _fleet_state(old) == sorted(_fleet_state(clean))
    assert not any(p._faults for p in old.providers.values())
    assert old.provider("alpha").fetch_blob("n0", "b", credential="c") == b"payload"


def test_load_without_a_snapshot_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        SimCloud.load(tmp_path)
    with pytest.raises(FileNotFoundError):
        SimCloud.load(tmp_path / "missing")


def test_legacy_json_snapshot_loads_and_is_replaced_by_the_pack(tmp_path):
    legacy = Path(__file__).parent / "data" / "compat" / "state" / "simcloud.json"
    state = json.loads(legacy.read_text())
    shutil.copy(legacy, tmp_path / "simcloud.json")

    cloud = SimCloud.load(tmp_path)
    assert list(cloud.providers) == sorted(state["providers"])
    for pid, pdata in state["providers"].items():
        p = cloud.provider(pid)
        assert p.nodes == pdata["nodes"] and p.credential == pdata["credential"]
        assert _dump(p) == {
            (b["node"], b["blob_id"]): base64.b64decode(b["data"]) for b in pdata["blobs"]
        }

    cloud.save(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simcloud.pack"]
    assert _fleet_state(SimCloud.load(tmp_path)) == _fleet_state(cloud)


def test_damaged_pack_raises_snapshot_corrupt(tmp_path):
    _sample_fleet().save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    raw = pack.read_bytes()
    end = 8 + struct.unpack(">I", raw[4:8])[0]
    header = json.loads(raw[8:end])
    blob_ends = list(
        itertools.accumulate(
            (size for p in header["providers"].values() for _, _, size in p["blobs"]),
            initial=end,
        )
    )
    sample = random.Random(5).sample(range(len(raw)), 40)
    cuts = {0, 1, 3, 4, 7, 8, end - 1, end, *blob_ends, *sample}
    # Every cut leaves blob sizes that sum past the remaining bytes.
    damaged = [raw[:cut] for cut in sorted(cuts) if cut < len(raw)]
    damaged += [
        b"XXXX" + raw[4:],  # wrong magic
        raw[:4] + struct.pack(">I", len(raw)) + raw[8:],  # header past the end
        raw[:4] + struct.pack(">I", end - 9) + raw[8:],  # header cut short
        raw + b"\x00",  # trailing bytes after the last blob
    ]
    for data in damaged:
        pack.write_bytes(data)
        with pytest.raises(SnapshotCorrupt):
            SimCloud.load(tmp_path)


def _replace(pack):
    copy = pack.with_name("copy")
    copy.write_bytes(pack.read_bytes())
    os.replace(copy, pack)


@pytest.mark.parametrize(
    "damage",
    [_replace, lambda pack: os.truncate(pack, pack.stat().st_size - 1), os.unlink],
    ids=["replaced", "truncated", "removed"],
)
def test_a_body_is_read_only_from_the_pack_that_was_loaded(tmp_path, damage):
    _sample_fleet().save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    cloud = SimCloud.load(tmp_path)
    alpha, gamma = cloud.provider("alpha"), cloud.provider("gamma")
    assert alpha.fetch_blob("n0", "b", credential="c") == b"payload"
    damage(pack)
    files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    assert alpha.fetch_blob("n0", "b", credential="c") == b"payload"  # read before
    with pytest.raises(SnapshotCorrupt):
        gamma.fetch_blob("n0", "a", credential="c")
    msg = integrity.serialize_challenge(integrity.ChallengeMessage(0, 0, (0,), (1,)))
    with pytest.raises(SnapshotCorrupt):
        gamma.respond_challenge("n0", "a", msg, credential="c")
    with pytest.raises(SnapshotCorrupt):
        cloud.insider_dump("gamma")
    alpha.store_blob("n1", "new", b"n", credential="c")
    with pytest.raises(SnapshotCorrupt):
        cloud.save(tmp_path)  # a rewrite needs every body
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == files


def test_a_pack_grown_by_another_writer_still_serves_the_loaded_bodies(tmp_path):
    _sample_fleet().save(tmp_path)
    cloud = SimCloud.load(tmp_path)
    other = SimCloud.load(tmp_path)
    other.provider("gamma").store_blob("n0", "a", b"theirs", credential="c")
    other.save(tmp_path)
    assert cloud.provider("gamma").fetch_blob("n0", "a", credential="c") == b"\x00" * 40


def test_a_rewrite_reads_every_body_then_tracks_the_file_it_wrote(tmp_path):
    _sample_fleet().save(tmp_path / "first")
    cloud = SimCloud.load(tmp_path / "first")
    cloud.save(tmp_path / "second")
    (tmp_path / "first" / "simcloud.pack").unlink()
    want = sorted(_fleet_state(_sample_fleet(faults=False)))
    assert _fleet_state(cloud) == want

    second = tmp_path / "second" / "simcloud.pack"
    before = second.read_bytes()
    cloud.provider("alpha").store_blob("n1", "new", b"n", credential="c")
    cloud.save(tmp_path / "second")  # an append to the file it wrote
    after = second.read_bytes()
    assert after[: len(before)] == before and len(_frames(after)) == 2
    assert _fleet_state(SimCloud.load(tmp_path / "second")) == sorted(
        _fleet_state(_sample_fleet(faults=False, more=[("alpha", "n1", "new", b"n")]))
    )


@pytest.mark.parametrize("size", [2.0, 1.5, -1, "2", None])
def test_a_blob_size_that_is_not_a_count_is_refused_at_load(tmp_path, size):
    # Bodies are read after the load, so the load alone checks the sizes.
    header = {"providers": {"a": {"nodes": {"n0": 0}, "credential": "",
                                  "blobs": [["n0", "b", size]]}}}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    (tmp_path / "simcloud.pack").write_bytes(b"CVS1" + struct.pack(">I", len(head)) + head + b"xy")
    with pytest.raises(SnapshotCorrupt):
        SimCloud.load(tmp_path)


def test_interrupted_save_leaves_the_previous_snapshot(tmp_path, monkeypatch):
    before = _sample_fleet()
    before.save(tmp_path)
    (tmp_path / "unrelated.txt").write_text("keep")
    files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    new = [("alpha", "n1", "new", b"x" * 500)]
    after = _sample_fleet(more=new)

    def fail_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fail_fsync)
    with pytest.raises(OSError):
        after.save(tmp_path)
    monkeypatch.undo()

    left = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert "simcloud.pack.tmp" in left
    del left["simcloud.pack.tmp"]
    assert left == files
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(
        _fleet_state(_sample_fleet(faults=False))
    )

    after.save(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simcloud.pack", "unrelated.txt"]
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(
        _fleet_state(_sample_fleet(faults=False, more=new))
    )


def _frames(raw):
    """(start, header) of every whole frame in a pack."""
    out, at = [], 0
    while at < len(raw):
        body = at + 8 + struct.unpack(">I", raw[at + 4 : at + 8])[0]
        header = json.loads(raw[at + 8 : body])
        out.append((at, header))
        at = body + sum(size for p in header["providers"].values() for *_, size in p["blobs"])
    return out


def test_a_one_frame_pack_is_written_as_the_earlier_release_wrote_it(tmp_path):
    fixture = Path(__file__).parent / "data" / "compat-audited" / "state" / "simcloud.pack"
    raw = fixture.read_bytes()
    end = 8 + struct.unpack(">I", raw[4:8])[0]
    header = json.loads(raw[8:end])
    assert json.dumps(header, sort_keys=True).encode("utf-8") == raw[8:end]
    # The same frame, less the fault list the earlier release wrote.
    assert header.pop("faults") == []
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    SimCloud.load(fixture.parent).save(tmp_path)
    assert (tmp_path / "simcloud.pack").read_bytes() == (
        raw[:4] + struct.pack(">I", len(head)) + head + raw[end:]
    )


def test_a_save_appends_only_what_changed(tmp_path):
    cloud = _sample_fleet()
    cloud.save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    before = pack.read_bytes()
    cloud.save(tmp_path)  # nothing changed: nothing written
    assert pack.read_bytes() == before

    stores = [("gamma", "n0", "a", b"replaced"), ("gamma", "n0", "z", b"new")]
    for pid, node, blob_id, data in stores:
        cloud.provider(pid).store_blob(node, blob_id, data, credential="c")
    cloud.save(tmp_path)
    after = pack.read_bytes()
    assert after[: len(before)] == before
    (_, _), (at, header) = _frames(after)
    assert at == len(before)
    assert header["providers"]["gamma"]["blobs"] == [["n0", "a", 8], ["n0", "z", 3]]
    assert list(header) == ["providers"] and list(header["providers"]) == ["gamma"]
    assert after.endswith(b"replacednew")
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(
        _fleet_state(_sample_fleet(faults=False, more=stores))
    )

    cloud.inject(CorruptBlob("gamma", "n0", "z", offset=0, mask=1))
    cloud.save(tmp_path)  # a fault alone writes nothing
    assert pack.read_bytes() == after


def test_every_cut_inside_an_appended_frame_serves_the_fleet_before_it(tmp_path):
    _sample_fleet().save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    before = pack.read_bytes()
    want = _fleet_state(SimCloud.load(tmp_path))
    cloud = SimCloud.load(tmp_path)
    cloud.provider("alpha").store_blob("n1", "new", b"x" * 50, credential="c")
    cloud.provider("alpha").store_blob("n0", "b", b"other", credential="c")
    cloud.save(tmp_path)
    after = pack.read_bytes()
    assert len(_frames(after)) == 2

    for cut in range(len(before) + 1, len(after)):
        pack.write_bytes(after[:cut])
        torn = SimCloud.load(tmp_path)
        assert _fleet_state(torn) == want
        torn.save(tmp_path)
        assert pack.read_bytes() == before

    # Bytes after the last frame that are not a frame's start are damage.
    pack.write_bytes(after + b"CVX")
    with pytest.raises(SnapshotCorrupt):
        SimCloud.load(tmp_path)


def test_appends_then_a_compaction_equal_a_freshly_written_pack(tmp_path):
    cloud = SimCloud.build(_TOPOLOGY)
    alpha = cloud.provider("alpha")
    for i in range(20):
        alpha.store_blob("n0", f"base{i}", bytes([i]) * 10)
    cloud.save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    counts = []
    for i in range(3):
        alpha.store_blob("n1", f"new{i}", b"n" * i)
        cloud.save(tmp_path)
        counts.append(len(_frames(pack.read_bytes())))
    alpha.store_blob("n0", "base0", b"overwritten")
    cloud.save(tmp_path)
    counts.append(len(_frames(pack.read_bytes())))
    assert counts == [2, 3, 4, 5]
    assert _fleet_state(SimCloud.load(tmp_path)) == _fleet_state(cloud)

    # Appended headers soon hold more JSON than the first one: rewrite.
    saves = 0
    while len(_frames(pack.read_bytes())) > 1:
        cloud.provider("beta").store_blob("n0", f"more{saves}", b"m")
        cloud.save(tmp_path)
        saves += 1
        assert saves < 50
    cloud.save(tmp_path / "fresh")
    assert pack.read_bytes() == (tmp_path / "fresh" / "simcloud.pack").read_bytes()
    assert _fleet_state(SimCloud.load(tmp_path)) == _fleet_state(cloud)


def test_superseded_bytes_outweighing_live_ones_rewrite_the_pack(tmp_path):
    cloud = SimCloud.build(_TOPOLOGY)
    beta = cloud.provider("beta")
    beta.store_blob("n0", "big", bytes(1000))
    for i in range(20):
        beta.store_blob("n0", f"s{i}", b"s")
    cloud.save(tmp_path)
    pack = tmp_path / "simcloud.pack"
    beta.store_blob("n0", "big", b"\x01" * 1000)
    cloud.save(tmp_path)  # 1000 dead against 1020 live
    assert len(_frames(pack.read_bytes())) == 2
    beta.store_blob("n0", "big", b"\x02" * 1000)
    cloud.save(tmp_path)  # 2000 dead against 1020 live
    raw = pack.read_bytes()
    assert len(_frames(raw)) == 1
    assert raw.endswith(b"\x02" * 1000 + b"s" * 20)


def test_a_pack_this_cloud_did_not_write_is_rewritten(tmp_path):
    cloud = _sample_fleet()
    cloud.save(tmp_path)
    other = SimCloud.load(tmp_path)
    other.provider("alpha").store_blob("n1", "theirs", b"t", credential="c")
    other.save(tmp_path)
    mine = [("alpha", "n1", "mine", b"m")]
    cloud.provider("alpha").store_blob("n1", "mine", b"m", credential="c")
    cloud.save(tmp_path)  # the pack is longer than the one it wrote
    raw = (tmp_path / "simcloud.pack").read_bytes()
    assert len(_frames(raw)) == 1
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(
        _fleet_state(_sample_fleet(faults=False, more=mine))
    )


def test_a_rewrite_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    (tmp_path / "simcloud.json").write_text("{}")
    seen = []
    fsync = os.fsync

    def recording(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            seen.append(sorted(f.name for f in tmp_path.iterdir()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    cloud = _sample_fleet()
    cloud.save(tmp_path)
    assert seen == [["simcloud.pack"]]
    cloud.provider("alpha").store_blob("n1", "new", b"x", credential="c")
    cloud.save(tmp_path)  # an append creates no name
    assert seen == [["simcloud.pack"]]


def _cli_put(tmp_path, name, level, size):
    src = tmp_path / name
    src.write_bytes(random.Random(name).randbytes(size))
    paths = [
        "--manifest", str(tmp_path / "manifest.cmf"),
        "--keystore", str(tmp_path / "keystore.cmf"),
        "--state-dir", str(tmp_path / "state"),
    ]
    assert main([*paths, "put", str(src), "--level", level, "--object-id", name]) == 0


def _blob_sizes(tmp_path):
    cloud = SimCloud.load(tmp_path / "state")
    return {
        (pid, key): len(data) for pid, p in cloud.providers.items() for key, data in _dump(p).items()
    }


def test_a_cli_put_appends_its_own_blobs_and_one_header(tmp_path, capsys):
    for i in range(3):
        _cli_put(tmp_path, f"first{i}", "secret", 3000)
        _cli_put(tmp_path, f"plain{i}", "unclassified", 500)
    # One frame holding the fleet, so the next append is not a compaction.
    SimCloud.load(tmp_path / "state").save(tmp_path / "fresh")
    pack = tmp_path / "state" / "simcloud.pack"
    os.replace(tmp_path / "fresh" / "simcloud.pack", pack)
    before, old = pack.read_bytes(), _blob_sizes(tmp_path)

    _cli_put(tmp_path, "second", "secret", 3000)
    after, new = pack.read_bytes(), _blob_sizes(tmp_path)
    added = {k: v for k, v in new.items() if k not in old}
    assert added and {k: new[k] for k in old} == old
    assert after[: len(before)] == before
    head = struct.unpack(">I", after[len(before) + 4 : len(before) + 8])[0]
    assert len(after) - len(before) == 8 + head + sum(added.values())


def test_a_local_put_leaves_the_pack_untouched(tmp_path, capsys):
    _cli_put(tmp_path, "first", "secret", 3000)
    pack = tmp_path / "state" / "simcloud.pack"
    before, st = pack.read_bytes(), pack.stat()
    _cli_put(tmp_path, "local", "top-secret", 3000)
    assert pack.read_bytes() == before
    assert (pack.stat().st_ino, pack.stat().st_mtime_ns) == (st.st_ino, st.st_mtime_ns)


_KEYS = [(pid, node, b) for pid, nodes in _TOPOLOGY.items() for node in nodes for b in "abc"]


def _blobs(cloud):
    return {
        (pid, *key): data for pid, p in cloud.providers.items() for key, data in _dump(p).items()
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_random_stores_saves_faults_and_tears_load_as_the_last_saved_fleet(data):
    with tempfile.TemporaryDirectory() as state:
        pack = Path(state) / "simcloud.pack"
        cloud = SimCloud.build(_TOPOLOGY)
        live: dict = {}  # the fleet in memory
        saved: dict = {}  # the fleet as last saved
        prefixes: dict = {}  # the fleet each whole-frame prefix of the pack holds

        def store():
            pid, node, blob_id = key = data.draw(st.sampled_from(_KEYS))
            blob = data.draw(st.binary(max_size=64))
            holder = cloud.provider(pid)
            if NodeUnavailable(pid, node) in holder._faults:
                with pytest.raises(Unavailable):
                    holder.store_blob(node, blob_id, blob)
            else:
                holder.store_blob(node, blob_id, blob)
                live[key] = blob

        def save():
            cloud.save(state)
            saved.clear()
            saved.update(live)
            raw = pack.read_bytes()
            if len(_frames(raw)) == 1:
                prefixes.clear()
            prefixes[len(raw)] = dict(live)

        def reload(want):
            nonlocal cloud, live
            cloud = SimCloud.load(state)
            assert _blobs(cloud) == want
            assert not any(p._faults for p in cloud.providers.values())
            live = dict(want)
            save()
            assert _blobs(SimCloud.load(state)) == want

        # A larger first frame leaves room for more appends before a compaction.
        for _ in range(data.draw(st.integers(0, len(_KEYS)))):
            store()
        save()
        for _ in range(data.draw(st.integers(1, 20))):
            step = data.draw(st.sampled_from(["store", "save", "reload", "fault", "tear"]))
            if step == "store":
                store()
            elif step == "save":
                save()
            elif step == "reload":
                reload(saved)
            elif step == "fault":
                pid, node, blob_id = data.draw(st.sampled_from(_KEYS))
                kind = data.draw(st.sampled_from(["down", "corrupt", "insider"]))
                if kind == "down":
                    cloud.inject(NodeUnavailable(pid, node))
                elif kind == "insider":
                    cloud.inject(InsiderDump(pid))
                elif live.get((pid, node, blob_id)):
                    offset = data.draw(st.integers(0, len(live[pid, node, blob_id]) - 1))
                    mask = data.draw(st.integers(1, 255))
                    cloud.inject(CorruptBlob(pid, node, blob_id, offset, mask))
            else:
                raw = pack.read_bytes()
                frames = _frames(raw)
                if len(frames) > 1:
                    start = frames[-1][0]
                    pack.write_bytes(raw[: data.draw(st.integers(start + 1, len(raw) - 1))])
                    reload(prefixes[start])
