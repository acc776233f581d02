import base64
import itertools
import json
import os
import random
import shutil
import struct
from pathlib import Path

import pytest

from cloudvault import integrity
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


def test_node_unavailable_blocks_only_that_node():
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "b0", b"zero")
    p.store_blob("n1", "b1", b"one")
    cloud.inject(NodeUnavailable(provider="alpha", node="n0"))
    with pytest.raises(Unavailable):
        p.fetch_blob("n0", "b0")
    assert p.fetch_blob("n1", "b1") == b"one"
    cloud.clear(NodeUnavailable(provider="alpha", node="n0"))
    assert p.fetch_blob("n0", "b0") == b"zero"


def test_corruption_is_a_fetch_time_overlay():
    cloud = SimCloud.build(_TOPOLOGY)
    p = cloud.provider("alpha")
    p.store_blob("n0", "b", bytes(8))
    fault = CorruptBlob(provider="alpha", node="n0", blob_id="b", offset=3, mask=0x55)
    cloud.inject(fault)
    cloud.inject(fault)  # idempotent
    got = p.fetch_blob("n0", "b")
    assert got[3] == 0x55 and got[:3] == bytes(3)
    cloud.clear(fault)
    assert p.fetch_blob("n0", "b") == bytes(8)  # stored bytes were never touched


def test_corrupt_blob_validation():
    cloud = SimCloud.build(_TOPOLOGY)
    cloud.provider("alpha").store_blob("n0", "b", b"x")
    with pytest.raises(ValueError):
        cloud.inject(CorruptBlob("alpha", "n0", "b", offset=0, mask=0))
    with pytest.raises(UnknownBlob):
        cloud.inject(CorruptBlob("alpha", "n0", "nope", offset=0, mask=1))


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


def _sample_fleet():
    """Unsorted provider ids, an empty blob, a non-ASCII blob id, a provider
    with no blobs, and one fault of each kind."""
    cloud = SimCloud.build(
        {"gamma": {"n0": 0, "deep": 3}, "alpha": {"n0": 0, "n1": 1}, "beta": {"n0": 0}},
        credential="c",
    )
    alpha, gamma = cloud.provider("alpha"), cloud.provider("gamma")
    alpha.store_blob("n0", "b", b"payload", credential="c")
    alpha.store_blob("n1", "empty", b"", credential="c")
    gamma.store_blob("deep", "blob-\u00e9\u6f22", bytes(range(256)), credential="c")
    gamma.store_blob("n0", "a", b"\x00" * 40, credential="c")
    cloud.inject(NodeUnavailable(provider="beta", node="n0"))
    cloud.inject(CorruptBlob("alpha", "n0", "b", offset=2, mask=0x0F))
    cloud.inject(InsiderDump(provider="gamma"))
    return cloud


def _fleet_state(cloud):
    return [
        (pid, p.nodes, p.credential, dict(p._blobs), p._faults)
        for pid, p in cloud.providers.items()
    ]


def test_save_load_round_trip(tmp_path):
    cloud = _sample_fleet()
    cloud.save(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simcloud.pack"]

    back = SimCloud.load(tmp_path)
    assert list(back.providers) == ["alpha", "beta", "gamma"]
    assert _fleet_state(back) == sorted(_fleet_state(cloud))
    assert back.provider("gamma").nodes == {"n0": 0, "deep": 3}
    assert back.provider("alpha").fetch_blob("n1", "empty", credential="c") == b""
    assert back.provider("alpha").fetch_blob("n0", "b", credential="c") == b"pavload"
    assert back.provider("gamma").compromised
    with pytest.raises(Unavailable):
        back.provider("beta").fetch_blob("n0", "x", credential="c")

    # Saving is deterministic, also for a fleet that was itself loaded.
    first = (tmp_path / "simcloud.pack").read_bytes()
    cloud.save(tmp_path)
    assert (tmp_path / "simcloud.pack").read_bytes() == first
    back.save(tmp_path / "again")
    assert (tmp_path / "again" / "simcloud.pack").read_bytes() == first


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
        assert p._blobs == {
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


def test_interrupted_save_leaves_the_previous_snapshot(tmp_path, monkeypatch):
    before = _sample_fleet()
    before.save(tmp_path)
    (tmp_path / "unrelated.txt").write_text("keep")
    files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    after = _sample_fleet()
    after.provider("alpha").store_blob("n1", "new", b"x" * 500, credential="c")

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
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(_fleet_state(before))

    after.save(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simcloud.pack", "unrelated.txt"]
    assert _fleet_state(SimCloud.load(tmp_path)) == sorted(_fleet_state(after))
