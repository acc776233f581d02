import random

import pytest

from cloudvault import integrity
from cloudvault.simcloud import (
    AuthFailed,
    CorruptBlob,
    InsiderDump,
    NodeUnavailable,
    SimCloud,
    SimProvider,
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


def test_save_load_round_trip(tmp_path):
    cloud = SimCloud.build(_TOPOLOGY, credential="c")
    p = cloud.provider("alpha")
    p.store_blob("n0", "b", b"payload", credential="c")
    cloud.inject(NodeUnavailable(provider="beta", node="n0"))
    cloud.save(tmp_path)

    back = SimCloud.load(tmp_path)
    assert back.provider("alpha").fetch_blob("n0", "b", credential="c") == b"payload"
    with pytest.raises(Unavailable):
        back.provider("beta").fetch_blob("n0", "x", credential="c")
