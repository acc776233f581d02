import itertools
import random
import re

import pytest

from cloudvault import homomorphic
from cloudvault.config import default_settings
from cloudvault.persistence import KeyStore, ManifestStore, scan_for_bytes
from cloudvault.router import (
    AuditReport,
    DataObject,
    DispersalPolicy,
    DuplicateObject,
    IntegrityViolation,
    NoProviders,
    OperationClass,
    Pipeline,
    PlacementError,
    ReconstructionFailed,
    RouteRejected,
    Router,
    RoutingDecision,
    SecretLevel,
)
from cloudvault.simcloud import CorruptBlob, NodeUnavailable, SimCloud, SimProvider


def _router(tmp_path, seed=1, **policy_kw):
    s = default_settings()
    cloud = SimCloud.build(s.topology, credential=s.credential)
    return Router(
        cloud=cloud,
        manifest=ManifestStore(str(tmp_path / "m.cmf")),
        keystore=KeyStore(str(tmp_path / "k.cmf")),
        policy=DispersalPolicy(weights=s.policy.weights, **policy_kw),
        profiles=s.profiles,
        rng=random.Random(seed),
    )


def _reopen(router, tmp_path):
    """A fresh Router over the same fleet and the same store files."""
    router.manifest.close()
    router.keystore.close()
    return Router(
        cloud=router.cloud,
        manifest=ManifestStore(str(tmp_path / "m.cmf")),
        keystore=KeyStore(str(tmp_path / "k.cmf")),
        policy=router.policy,
        profiles=router.profiles,
        rng=random.Random(0),
    )


def _obj(oid, payload, level, ops, **kw):
    return DataObject(
        object_id=oid, payload=payload, secret_level=level,
        operation_class=ops, **kw,
    )


# The full policy surface: every (level, operations) pair and its pipeline.
_GOLDEN = {
    (SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS): Pipeline.LOCAL_ONLY,
    (SecretLevel.TOP_SECRET, OperationClass.BASIC_OPERATIONS): Pipeline.LOCAL_ONLY,
    (SecretLevel.TOP_SECRET, OperationClass.ADVANCED_ANALYTICS): Pipeline.LOCAL_ONLY,
    (SecretLevel.SECRET, OperationClass.NO_OPERATIONS): Pipeline.SPLIT_SHARE_DISPERSE,
    (SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS): Pipeline.HOMOMORPHIC_STORE,
    (SecretLevel.SECRET, OperationClass.ADVANCED_ANALYTICS): Pipeline.REJECTED,
    (SecretLevel.UNCLASSIFIED, OperationClass.NO_OPERATIONS): Pipeline.PLAIN_SINGLE_CLOUD,
    (SecretLevel.UNCLASSIFIED, OperationClass.BASIC_OPERATIONS): Pipeline.PLAIN_SINGLE_CLOUD,
    (SecretLevel.UNCLASSIFIED, OperationClass.ADVANCED_ANALYTICS): Pipeline.PLAIN_SINGLE_CLOUD,
}


def test_routing_golden_table(tmp_path):
    router = _router(tmp_path)
    for (level, ops), want in _GOLDEN.items():
        decision = router.route(_obj("x", b"data", level, ops))
        assert decision.pipeline is want, (level, ops)
        if want is Pipeline.REJECTED:
            assert decision.reason


def test_route_defaults_for_five_providers(tmp_path):
    router = _router(tmp_path)
    d = router.route(
        _obj("x", b"d", SecretLevel.SECRET, OperationClass.NO_OPERATIONS)
    )
    assert d.share_count == 5
    assert d.threshold == 3
    assert d.chunk_count == 5
    assert d.providers and len(d.providers) == 5


def test_no_providers_refused(tmp_path):
    router = _router(tmp_path)
    router.cloud = SimCloud([])
    with pytest.raises(NoProviders):
        router.route(_obj("x", b"d", SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    # Local storage still works with an empty fleet.
    d = router.route(_obj("x", b"d", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))
    assert d.pipeline is Pipeline.LOCAL_ONLY


def test_placement_error_when_one_provider_reaches_threshold(tmp_path):
    router = _router(tmp_path, threshold=2, share_count=6)
    router.cloud = SimCloud.build({"solo": {"n0": 0}, "duo": {"n0": 0}})
    with pytest.raises(PlacementError):
        router.route(_obj("x", b"d", SecretLevel.SECRET, OperationClass.NO_OPERATIONS))


def test_dispersed_round_trip(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(2).randbytes(30000)
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    assert rec.pipeline == "SplitShareDisperse"
    assert rec.version == 1
    assert rec.details["corruption_tolerance"] == 2
    assert router.get("o") == payload


def test_dispersed_tolerates_two_lost_providers(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(3).randbytes(9000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    pids = sorted(router.cloud.providers)
    for lost in itertools.combinations(pids, 2):
        for pid in lost:
            for node in router.cloud.provider(pid).nodes:
                router.cloud.inject(NodeUnavailable(provider=pid, node=node))
        assert router.get("o") == payload
        for pid in lost:
            router.cloud.provider(pid).clear_all()


def test_dispersed_fails_beyond_tolerance(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(4).randbytes(5000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    for pid in sorted(router.cloud.providers)[:3]:
        for node in router.cloud.provider(pid).nodes:
            router.cloud.inject(NodeUnavailable(provider=pid, node=node))
    with pytest.raises(ReconstructionFailed):
        router.get("o")


def test_get_rides_through_silently_corrupted_shares(tmp_path):
    # Damage within tolerance (share_count - threshold = 2) must not even be
    # visible to the caller: the digest steers reconstruction to clean shares.
    router = _router(tmp_path)
    payload = random.Random(5).randbytes(4000)
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    for loc in rec.details["slots"][0]["shares"][:2]:
        router.cloud.inject(
            CorruptBlob(
                provider=loc["provider"], node=loc["node"], blob_id=loc["blob_id"],
                offset=0, mask=0x80,
            )
        )
    assert router.get("o") == payload


def test_silent_corruption_beyond_tolerance_caught_at_get(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(5).randbytes(4000)
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    # Three of five shares poisoned: every threshold-sized subset is tainted.
    for loc in rec.details["slots"][0]["shares"][:3]:
        router.cloud.inject(
            CorruptBlob(
                provider=loc["provider"], node=loc["node"], blob_id=loc["blob_id"],
                offset=0, mask=0x80,
            )
        )
    with pytest.raises(IntegrityViolation):
        router.get("o")


def test_audit_clean_then_attributes_corruption(tmp_path):
    # audit_rows beyond the column length samples every row: detection is
    # then guaranteed, not probabilistic.
    router = _router(tmp_path, audit_rows=1 << 20, block_size=512)
    payload = random.Random(6).randbytes(6000)
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    report = router.audit("o")
    assert isinstance(report, AuditReport)
    assert report.intact
    n = rec.details["scheme"]["share_count"]
    chunk_count = rec.details["chunk_count"]
    assert len(report.entries) == chunk_count * n

    # Every slot stores exactly its n share blobs and nothing else.
    per_slot = {slot: 0 for slot in range(chunk_count)}
    for pid in router.cloud.providers:
        for entry in router.cloud.insider_dump(pid):
            match = re.fullmatch(r"o\.s(\d+)\.c(\d+)", entry.blob_id)
            assert match, entry.blob_id
            per_slot[int(match[1])] += 1
    assert per_slot == {slot: n for slot in range(chunk_count)}

    loc = rec.details["slots"][1]["shares"][2]
    router.cloud.inject(
        CorruptBlob(
            provider=loc["provider"], node=loc["node"], blob_id=loc["blob_id"],
            offset=3, mask=0x01,
        )
    )
    report2 = router.audit("o")
    assert not report2.intact
    flagged = {(e.provider, e.slot, e.column) for e in report2.corrupted}
    assert flagged == {(loc["provider"], 1, 2)}


def test_audit_consumes_rounds_and_persists(tmp_path):
    router = _router(tmp_path, token_rounds=2)
    payload = random.Random(7).randbytes(1000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    router.audit("o")
    router.audit("o")
    from cloudvault.integrity import RoundExhausted
    with pytest.raises(RoundExhausted):
        router.audit("o")
    # Consumption survives a fresh router over the same keystore.
    fresh = _reopen(router, tmp_path)
    with pytest.raises(RoundExhausted):
        fresh.audit("o")
    assert fresh.keystore.get("iround:o") == {"spent": 2}


def test_no_round_is_issued_twice_across_audits_and_reopens(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(7).randbytes(1000)
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    columns = {
        (slot, column)
        for slot, info in enumerate(rec.details["slots"])
        for column in range(len(info["shares"]))
    }
    issued = []
    for rounds in (1, 3, 2, 4):
        report = router.audit("o", rounds=rounds)
        per_column = {}
        for e in report.entries:
            per_column.setdefault((e.slot, e.column), []).append(e.round_index)
        # Every column of every slot gets the same rounds, in order.
        assert set(per_column) == columns
        assert len({tuple(r) for r in per_column.values()}) == 1
        issued.extend(per_column[(0, 0)])
        router = _reopen(router, tmp_path)
    assert issued == list(range(10))


def test_a_killed_audit_never_replays_its_rounds(tmp_path, monkeypatch):
    router = _router(tmp_path)
    payload = random.Random(7).randbytes(1000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    respond = SimProvider.respond_challenge
    sent = []

    def killed_at_the_third(self, *args, **kwargs):
        sent.append(args)
        if len(sent) == 3:
            raise RuntimeError("process killed mid-audit")
        return respond(self, *args, **kwargs)

    monkeypatch.setattr(SimProvider, "respond_challenge", killed_at_the_third)
    with pytest.raises(RuntimeError):
        router.audit("o", rounds=2)
    monkeypatch.setattr(SimProvider, "respond_challenge", respond)

    report = _reopen(router, tmp_path).audit("o", rounds=2)
    assert report.intact
    assert {e.round_index for e in report.entries} == {2, 3}


def test_an_audit_appends_one_small_record_and_no_token_table(tmp_path):
    oid = "0123456789abcdef"  # as long as the CLI's default ids
    router = _router(tmp_path)
    payload = random.Random(7).randbytes(4096)
    router.put(_obj(oid, payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    path = tmp_path / "k.cmf"
    for spent in range(1, router.policy.token_rounds + 1):
        size, count = path.stat().st_size, len(router.keystore.log.records())
        assert router.audit(oid).intact
        records = router.keystore.log.records()
        assert len(records) == count + 1
        assert records[-1]["key_id"] == f"iround:{oid}"
        assert records[-1]["data"] == {"spent": spent}
        assert path.stat().st_size - size <= 100


def test_audit_beyond_the_round_budget_sends_nothing(tmp_path, monkeypatch):
    router = _router(tmp_path, token_rounds=16)
    payload = random.Random(7).randbytes(1000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    assert router.audit("o", rounds=10).intact
    before = len(router.keystore.log.records())
    sent = []
    respond = SimProvider.respond_challenge

    def counting(self, *args, **kwargs):
        sent.append(args)
        return respond(self, *args, **kwargs)

    monkeypatch.setattr(SimProvider, "respond_challenge", counting)
    from cloudvault.integrity import RoundExhausted
    with pytest.raises(RoundExhausted):
        router.audit("o", rounds=7)
    assert sent == []
    assert len(router.keystore.log.records()) == before
    # The six rounds left are still there, starting at round 10.
    report = router.audit("o", rounds=6)
    assert report.intact
    assert sorted({e.round_index for e in report.entries}) == list(range(10, 16))


@pytest.mark.parametrize("rounds", [0, -3])
def test_audit_refuses_fewer_than_one_round(tmp_path, rounds):
    router = _router(tmp_path)
    payload = random.Random(7).randbytes(1000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    before = len(router.keystore.log.records())
    with pytest.raises(ValueError):
        router.audit("o", rounds=rounds)
    assert len(router.keystore.log.records()) == before


def test_audit_marks_unreachable(tmp_path):
    router = _router(tmp_path)
    payload = random.Random(8).randbytes(1000)
    router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    pid = sorted(router.cloud.providers)[0]
    for node in router.cloud.provider(pid).nodes:
        router.cloud.inject(NodeUnavailable(provider=pid, node=node))
    report = router.audit("o")
    assert not report.intact
    assert {e.provider for e in report.entries if e.verdict == "unreachable"} == {pid}


def test_local_only_round_trip(tmp_path):
    router = _router(tmp_path)
    rec = router.put(_obj("o", b"eyes only", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))
    assert rec.pipeline == "LocalOnly"
    assert router.get("o") == b"eyes only"
    # Nothing reached any provider.
    assert all(not p._blobs for p in router.cloud.providers.values())


def test_plain_round_trip_stores_cleartext(tmp_path):
    router = _router(tmp_path)
    rec = router.put(_obj("o", b"public notice", SecretLevel.UNCLASSIFIED, OperationClass.NO_OPERATIONS))
    assert rec.pipeline == "PlainSingleCloud"
    loc = rec.details["location"]
    stored = router.cloud.provider(loc["provider"]).fetch_blob(loc["node"], loc["blob_id"])
    assert stored == b"public notice"
    assert router.get("o") == b"public notice"


def test_homomorphic_round_trip_hides_plaintext(tmp_path):
    router = _router(tmp_path, he_bits=128)
    payload = b"account balance: 1234"
    rec = router.put(_obj("o", payload, SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS))
    assert rec.pipeline == "HomomorphicStore"
    loc = rec.details["location"]
    stored = router.cloud.provider(loc["provider"]).fetch_blob(loc["node"], loc["blob_id"])
    assert not scan_for_bytes(stored, payload)
    assert router.get("o") == payload
    # The private key never leaves the keystore.
    assert router.keystore.get("hekey:o")["p"]


def test_rejected_put_raises_and_stores_nothing(tmp_path):
    router = _router(tmp_path)
    with pytest.raises(RouteRejected):
        router.put(_obj("o", b"x", SecretLevel.SECRET, OperationClass.ADVANCED_ANALYTICS))
    assert not router.manifest.log.records()


def test_duplicate_object_id_refused(tmp_path):
    router = _router(tmp_path)
    router.put(_obj("o", b"x", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))
    with pytest.raises(DuplicateObject):
        router.put(_obj("o", b"y", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))


def test_empty_payload_refused(tmp_path):
    router = _router(tmp_path)
    with pytest.raises(ValueError):
        router.put(_obj("o", b"", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))


def test_table_dispersal_round_trip(tmp_path):
    router = _router(tmp_path)
    rows = [
        {"patient": "ada", "insurance": 901, "dose": 5, "ward": "a"},
        {"patient": "bob", "insurance": 902, "dose": 10, "ward": "b"},
    ]
    rec = router.put(
        _obj("t", rows, SecretLevel.SECRET, OperationClass.NO_OPERATIONS,
             id_columns=("patient", "insurance"))
    )
    assert rec.pipeline == "SplitShareDisperse"
    assert rec.details["kind"] == "table"
    assert router.get("t") == rows
    # Identifier values appear in no stored group payload.
    for p in router.cloud.providers.values():
        for blob in p._blobs.values():
            assert not scan_for_bytes(blob, b"ada")
            assert not scan_for_bytes(blob, b"901")


def test_table_requires_id_columns(tmp_path):
    router = _router(tmp_path)
    with pytest.raises(ValueError):
        router.put(_obj("t", [{"a": 1, "b": 2}], SecretLevel.SECRET, OperationClass.NO_OPERATIONS))


def test_table_without_rows_refused(tmp_path):
    router = _router(tmp_path)
    with pytest.raises(ValueError):
        router.put(
            _obj("t", [], SecretLevel.SECRET, OperationClass.NO_OPERATIONS, id_columns=("a",))
        )
    assert not router.manifest.log.records()


def test_table_at_homomorphic_tier_rejected(tmp_path):
    router = _router(tmp_path)
    d = router.route(
        _obj("t", [{"a": 1}], SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS,
             id_columns=("a",))
    )
    assert d.pipeline is Pipeline.REJECTED


def test_small_payload_clamps_chunking(tmp_path):
    router = _router(tmp_path)
    rec = router.put(_obj("o", b"tiny", SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    assert rec.details["chunk_count"] == 1
    assert router.get("o") == b"tiny"


def test_table_local_and_plain_round_trip(tmp_path):
    router = _router(tmp_path)
    rows = [{"k": "v", "n": 1}]
    router.put(_obj("t1", rows, SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))
    assert router.get("t1") == rows
    router.put(_obj("t2", rows, SecretLevel.UNCLASSIFIED, OperationClass.NO_OPERATIONS))
    assert router.get("t2") == rows


def test_decision_is_pure_no_side_effects(tmp_path):
    router = _router(tmp_path)
    d1 = router.route(_obj("x", b"d", SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    d2 = router.route(_obj("x", b"d", SecretLevel.SECRET, OperationClass.NO_OPERATIONS))
    assert isinstance(d1, RoutingDecision)
    assert d1 == d2
    assert not router.manifest.log.records()
    assert all(not p._blobs for p in router.cloud.providers.values())


def test_audit_of_a_plain_blob_checks_its_bytes(tmp_path):
    router = _router(tmp_path)
    rec = router.put(_obj("o", b"single holder", SecretLevel.UNCLASSIFIED,
                          OperationClass.NO_OPERATIONS))
    loc = rec.details["location"]
    assert router.audit("o").intact

    router.cloud.inject(
        CorruptBlob(
            provider=loc["provider"], node=loc["node"], blob_id=loc["blob_id"],
            offset=7, mask=0x01,
        )
    )
    with pytest.raises(IntegrityViolation):
        router.get("o")
    report = router.audit("o")
    assert [(e.provider, e.node, e.verdict) for e in report.entries] == [
        (loc["provider"], loc["node"], "corrupted")
    ]


def test_audit_of_a_homomorphic_blob_fetches_without_decrypting(tmp_path, monkeypatch):
    router = _router(tmp_path, he_bits=64)
    rec = router.put(_obj("h", b"sum me", SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS))
    loc = rec.details["location"]

    def no_decrypt(*args):
        raise AssertionError("audit decrypted the blob")

    monkeypatch.setattr(homomorphic, "decrypt", no_decrypt)
    assert [(e.provider, e.verdict) for e in router.audit("h").entries] == [
        (loc["provider"], "intact")
    ]
    router.cloud.inject(NodeUnavailable(provider=loc["provider"], node=loc["node"]))
    assert [e.verdict for e in router.audit("h").entries] == ["unreachable"]


def test_audit_of_local_and_table_objects(tmp_path):
    router = _router(tmp_path)
    router.put(_obj("l", b"eyes only", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS))
    assert router.audit("l").entries == ()

    rows = [{"id": "a", "x": 1, "y": 2}]
    rec = router.put(
        _obj("t", rows, SecretLevel.SECRET, OperationClass.NO_OPERATIONS, id_columns=("id",))
    )
    assert router.audit("t").intact
    first, second = rec.details["groups"]
    router.cloud.inject(
        CorruptBlob(
            provider=first["provider"], node=first["node"], blob_id=first["blob_id"],
            offset=0, mask=0x01,
        )
    )
    assert [e.verdict for e in router.audit("t").entries] == ["corrupted", "intact"]
    router.cloud.inject(NodeUnavailable(provider=second["provider"], node=second["node"]))
    assert [e.verdict for e in router.audit("t").entries] == ["corrupted", "unreachable"]


def test_locations_list_every_stored_blob(tmp_path):
    router = _router(tmp_path, he_bits=64)
    rows = [{"id": "a", "x": 1, "y": 2, "z": 3}]
    objects = [
        _obj("l", b"local", SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS),
        _obj("p", b"plain", SecretLevel.UNCLASSIFIED, OperationClass.NO_OPERATIONS),
        _obj("h", b"he", SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS),
        _obj("d", random.Random(9).randbytes(3000), SecretLevel.SECRET,
             OperationClass.NO_OPERATIONS),
        _obj("t", rows, SecretLevel.SECRET, OperationClass.NO_OPERATIONS, id_columns=("id",)),
    ]
    listed = set()
    for obj in objects:
        rec = router.put(obj)
        listed |= {
            (loc["provider"], loc["node"], loc["blob_id"]) for loc in router.locations(rec)
        }
    stored = {
        (pid, entry.node, entry.blob_id)
        for pid in router.cloud.providers
        for entry in router.cloud.insider_dump(pid)
    }
    assert listed == stored
    assert router.locations(router.manifest.lookup("l")) == []


def _flip_every_stored_byte(router, oid, payload):
    """With one byte of one stored blob flipped, get returns the payload or
    raises IntegrityViolation; every blob, offset and mask is tried."""
    for loc in router.locations(router.manifest.lookup(oid)):
        holder = router.cloud.provider(loc["provider"])
        for offset in range(len(holder.fetch_blob(loc["node"], loc["blob_id"]))):
            for mask in (0x80, 0x01):
                fault = CorruptBlob(
                    provider=loc["provider"], node=loc["node"], blob_id=loc["blob_id"],
                    offset=offset, mask=mask,
                )
                router.cloud.inject(fault)
                try:
                    assert router.get(oid) == payload
                except IntegrityViolation:
                    pass
                router.cloud.clear(fault)


def test_damaged_table_group_is_an_integrity_violation(tmp_path):
    router = _router(tmp_path)
    rows = [
        {"patient": f"p{i}", "dose": 10 * i, "site": ("north", "south")[i % 2]}
        for i in range(3)
    ]
    router.put(
        _obj("t", rows, SecretLevel.SECRET, OperationClass.NO_OPERATIONS,
             id_columns=("patient",))
    )
    _flip_every_stored_byte(router, "t", rows)


def test_damaged_homomorphic_blob_is_an_integrity_violation(tmp_path):
    router = _router(tmp_path, he_bits=64)
    router.put(_obj("h", b"abc", SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS))
    _flip_every_stored_byte(router, "h", b"abc")


def test_damaged_local_key_is_not_blamed_on_the_provider(tmp_path):
    router = _router(tmp_path, he_bits=64)
    rec = router.put(_obj("h", b"abc", SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS))
    ref = rec.details["key_ref"]
    router.keystore.put(ref, "homomorphic-private", {**router.keystore.get(ref), "p": "zz"})
    with pytest.raises(ValueError):
        router.get("h")


def test_table_of_identifiers_only_refused(tmp_path):
    router = _router(tmp_path)
    with pytest.raises(ValueError, match="every column is an identifier"):
        router.put(
            _obj("t", [{"a": 1, "b": 2}], SecretLevel.SECRET, OperationClass.NO_OPERATIONS,
                 id_columns=("a", "b"))
        )
    assert not router.manifest.log.records()
