"""Byte-level pins on what crosses the provider boundary.

The golden test puts secret objects through a seeded router and audits them,
then hashes every provider's holdings, the manifest file, every challenge on
the wire and the keystore file, which holds the token tables and the
spent-round counters. Any change to share arithmetic, column layout,
challenge encoding or manifest contents shows up here. A second golden test
does the same for one object of every other pipeline: local, plain,
homomorphic, and tables at every level.

The compatibility tests read stores written by an earlier release, whose
token tables carry a ``"field": "00"`` key and mark spent rounds inside
themselves, whose table records keep a salt, a digest list and type-tagged
identifiers, and whose records carry fields no read uses, through the CLI,
and add new records beside them.
"""

import hashlib
import json
import random
import shutil
from pathlib import Path

from cloudvault import simcloud
from cloudvault.cli import main
from cloudvault.config import default_settings
from cloudvault.integrity import parse_challenge
from cloudvault.persistence import KeyStore, ManifestStore
from cloudvault.router import DataObject, DispersalPolicy, OperationClass, Router, SecretLevel

_SIZES = (1, 100, 4096, 22000, 70000)

_PROVIDER_DIGESTS = {
    "alpha": "4302ed6f0385af666a5cd50048fe9f565a252b387526a303a0cae138db55ed8f",
    "beta": "b09533804e1aeff8582fd6e5727c979eb51e5d3996662d992acfb1e4b5bd9289",
    "delta": "a95feb769811f4420112e8fe73550783bca9c6cc1e0bdc4b1384ad5785cc649f",
    "epsilon": "d12cb5c8f6b6494918428e6d7e7a3451968ef7e3fbdde34fad2024c734f3078f",
    "gamma": "64cff5f8cf8784c23fa8ecb52fcf2ed66a6f358296ff0e194c453b8086ce754f",
}
_MANIFEST_DIGEST = "52ce08627d9e64ff33efec8155ca64b6afe83b34b5e470cdd89c7f1e18a05d54"
_CHALLENGE_DIGEST = "9e5fd9f50313b31d6e994fdbb2f387ebaf2f6eccb36163011264d59d3190ca0a"
_TOKEN_STATE_DIGEST = "7860283941ed32422042de73374c97e9bee5b4155c5ee1f5aed66c65791ad15f"


def _framed(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _provider_digests(cloud) -> dict[str, str]:
    return {
        pid: _framed(
            part
            for entry in cloud.insider_dump(pid)
            for part in (entry.node.encode(), entry.blob_id.encode(), entry.data)
        )
        for pid in sorted(cloud.providers)
    }


def test_golden_bytes(tmp_path, monkeypatch):
    wire = []
    respond = simcloud.SimProvider.respond_challenge

    def recording(self, node, blob_id, message, credential=""):
        wire.append(message)
        return respond(self, node, blob_id, message, credential=credential)

    monkeypatch.setattr(simcloud.SimProvider, "respond_challenge", recording)

    settings = default_settings()
    manifest_path = tmp_path / "m.cmf"
    keystore_path = tmp_path / "k.cmf"
    with Router(
        cloud=simcloud.SimCloud.build(settings.topology),
        manifest=ManifestStore(manifest_path),
        keystore=KeyStore(keystore_path),
        policy=DispersalPolicy(),
        profiles=settings.profiles,
        rng=random.Random(7),
    ) as router:
        for size in _SIZES:
            oid = f"golden-{size}"
            payload = random.Random(f"golden:{size}").randbytes(size)
            router.put(
                DataObject(oid, payload, SecretLevel.SECRET, OperationClass.NO_OPERATIONS)
            )
            assert router.audit(oid, rounds=2).intact
            assert router.get(oid) == payload

        providers = _provider_digests(router.cloud)
        # The keystore holds only token state here: one token-table record per
        # object, then one spent-rounds counter record per audit.
        assert [r["key_id"].split(":")[0] for r in router.keystore.log.records()] == [
            "itok",
            "iround",
        ] * len(_SIZES)

    assert len(wire) == 2 * 5 * (1 + 1 + 1 + 5 + 5)
    assert providers == _PROVIDER_DIGESTS
    assert hashlib.sha256(manifest_path.read_bytes()).hexdigest() == _MANIFEST_DIGEST
    assert _framed(wire) == _CHALLENGE_DIGEST
    assert hashlib.sha256(keystore_path.read_bytes()).hexdigest() == _TOKEN_STATE_DIGEST


_ROWS = [
    {"patient": f"p{i}", "dose": 10 * i + 5, "site": ("north", "south")[i % 2], "ward": i}
    for i in range(3)
]

# (object id, payload, level, operations, identifier columns)
_EVERY_PIPELINE = (
    ("local", random.Random("golden:local").randbytes(300), "top-secret", "none", ()),
    ("plain", random.Random("golden:plain").randbytes(300), "unclassified", "none", ()),
    ("he", random.Random("golden:he").randbytes(24), "secret", "basic", ()),
    ("t-secret", _ROWS, "secret", "none", ("patient",)),
    ("t-top", _ROWS, "top-secret", "none", ("patient",)),
    ("t-open", _ROWS, "unclassified", "none", ("patient",)),
)

_PIPELINE_PROVIDER_DIGESTS = {
    "alpha": "cb701b7f7b504850fbae0c88c5c8df1624c7efac4a0b193a98c0b60458ed1145",
    "beta": "64ae4ae5e32aa45299c97595b3a678b648b3272328a452fe1a6aed8e684a4ce9",
    "delta": "6e15c1e6267b4f76adb5905ad6a3b2a185363c23b69b73ee2815df3dd328b534",
    "epsilon": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "gamma": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
_PIPELINE_MANIFEST_DIGEST = "2fec861f3011271fd943e4c7a06585b7902cba3c47a1bf5f278629b42e3e92e5"
_PIPELINE_KEYSTORE_DIGEST = "80cb143d0742c9f11e55d74202cb4d0854591879fb1b4e23d84bae2254374a77"


def test_golden_bytes_of_every_other_pipeline(tmp_path):
    settings = default_settings()
    manifest_path = tmp_path / "m.cmf"
    keystore_path = tmp_path / "k.cmf"
    with Router(
        cloud=simcloud.SimCloud.build(settings.topology),
        manifest=ManifestStore(manifest_path),
        keystore=KeyStore(keystore_path),
        policy=DispersalPolicy(he_bits=64),
        profiles=settings.profiles,
        rng=random.Random(11),
    ) as router:
        for oid, payload, level, ops, id_columns in _EVERY_PIPELINE:
            router.put(
                DataObject(oid, payload, SecretLevel(level), OperationClass(ops), id_columns)
            )
            assert router.get(oid) == payload
            assert router.audit(oid).intact

    assert _provider_digests(router.cloud) == _PIPELINE_PROVIDER_DIGESTS
    assert hashlib.sha256(manifest_path.read_bytes()).hexdigest() == _PIPELINE_MANIFEST_DIGEST
    assert hashlib.sha256(keystore_path.read_bytes()).hexdigest() == _PIPELINE_KEYSTORE_DIGEST


_COMPAT = Path(__file__).parent / "data" / "compat"


def test_stores_from_an_earlier_release_still_get_and_audit(tmp_path, capsys):
    # Written by the CLI of the earlier release with block = 256: object
    # "compat" is random.Random("compat").randbytes(1200) in 4 chunks.
    root = tmp_path / "compat"
    shutil.copytree(_COMPAT, root)
    with KeyStore(root / "keystore.cmf") as ks:
        assert {t["field"] for t in ks.get("itok:compat")["tables"]} == {"00"}
    paths = [
        "--manifest", str(root / "manifest.cmf"),
        "--keystore", str(root / "keystore.cmf"),
        "--state-dir", str(root / "state"),
    ]

    out = tmp_path / "compat.bin"
    assert main([*paths, "get", "compat", "--out", str(out)]) == 0
    assert out.read_bytes() == random.Random("compat").randbytes(1200)

    capsys.readouterr()
    assert main([*paths, "audit", "compat", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "checks=40" in lines
    assert "intact=true" in lines


_COMPAT_AUDITED = Path(__file__).parent / "data" / "compat-audited"


def test_audited_store_from_an_earlier_release_never_replays_a_round(
    tmp_path, capsys, monkeypatch
):
    # Written by the CLI of the earlier release with block = 256: object
    # "audited" is random.Random("compat-audited").randbytes(1000) in 3
    # chunks of 5 shares, then audited with --rounds 3. That release marked
    # rounds 0-2 of every column as issued inside the token tables.
    root = tmp_path / "compat-audited"
    shutil.copytree(_COMPAT_AUDITED, root)
    with KeyStore(root / "keystore.cmf") as ks:
        tables = ks.get("itok:audited")["tables"]
        assert {r for t in tables for r, _ in t["issued"]} == {0, 1, 2}
        assert {t["rounds"] for t in tables} == {16}
    paths = [
        "--manifest", str(root / "manifest.cmf"),
        "--keystore", str(root / "keystore.cmf"),
        "--state-dir", str(root / "state"),
    ]
    wire = []
    respond = simcloud.SimProvider.respond_challenge

    def recording(self, node, blob_id, message, credential=""):
        wire.append(message)
        return respond(self, node, blob_id, message, credential=credential)

    monkeypatch.setattr(simcloud.SimProvider, "respond_challenge", recording)

    assert main([*paths, "audit", "audited", "--rounds", "14"]) == 1
    assert "error=RoundExhausted" in capsys.readouterr().err.splitlines()
    assert wire == []

    assert main([*paths, "audit", "audited", "--rounds", "13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "checks=195" in lines
    assert "intact=true" in lines
    assert sorted({parse_challenge(m).round_index for m in wire}) == list(range(3, 16))

    wire.clear()
    assert main([*paths, "audit", "audited"]) == 1
    assert "error=RoundExhausted" in capsys.readouterr().err.splitlines()
    assert wire == []

    out = tmp_path / "audited.bin"
    assert main([*paths, "get", "audited", "--out", str(out)]) == 0
    assert out.read_bytes() == random.Random("compat-audited").randbytes(1000)


_DROPPED_DETAILS = {"split_objective_nats", "cut_points", "corruption_tolerance", "fingerprint"}


def test_new_records_join_a_store_from_an_earlier_release(tmp_path, capsys):
    # The earlier release wrote keystore records with "kind" and "version"
    # and manifest details nothing reads; new records carry none of them,
    # and old and new objects read back side by side from one store.
    root = tmp_path / "compat-audited"
    shutil.copytree(_COMPAT_AUDITED, root)
    with KeyStore(root / "keystore.cmf") as ks:
        old_keys = len(ks.log.records())
    paths = [
        "--manifest", str(root / "manifest.cmf"),
        "--keystore", str(root / "keystore.cmf"),
        "--state-dir", str(root / "state"),
    ]
    payloads = {
        "audited": random.Random("compat-audited").randbytes(1000),
        "fresh": random.Random("fresh").randbytes(3000),
        "he-fresh": random.Random("he-fresh").randbytes(16),
    }
    for oid, ops in (("fresh", "none"), ("he-fresh", "basic")):
        src = tmp_path / f"{oid}.in"
        src.write_bytes(payloads[oid])
        assert main([*paths, "put", str(src), "--level", "secret", "--ops", ops,
                     "--object-id", oid]) == 0
    for oid, payload in payloads.items():
        out = tmp_path / f"{oid}.out"
        assert main([*paths, "get", oid, "--out", str(out)]) == 0
        assert out.read_bytes() == payload
        capsys.readouterr()
        assert main([*paths, "audit", oid]) == 0
        assert "intact=true" in capsys.readouterr().out.splitlines()

    with ManifestStore(root / "manifest.cmf") as manifest:
        assert _DROPPED_DETAILS & set(manifest.lookup("audited").details)
        for oid in ("fresh", "he-fresh"):
            assert not _DROPPED_DETAILS & set(manifest.lookup(oid).details)
    with KeyStore(root / "keystore.cmf") as ks:
        records = ks.log.records()
    assert {"kind", "version"} <= set(records[0])
    new = records[old_keys:]
    assert [r["key_id"] for r in new] == [
        "itok:fresh", "hekey:he-fresh", "iround:audited", "iround:fresh",
    ]
    assert all(set(r) == {"key_id", "data"} for r in new)
    assert set(new[1]["data"]) == {"p", "q"}


_COMPAT_TABLE = Path(__file__).parent / "data" / "compat-table"

# Identifier cells mix ints, a bigint and digit-only strings, so only the
# stored types tell 1001 from "1001".
_COMPAT_TABLE_ROWS = [
    {"mrn": 1001, "code": "0042", "dose": 5, "site": "north"},
    {"mrn": "1001", "code": "42", "dose": 15, "site": "south"},
    {"mrn": -7, "code": "-0", "dose": 25, "site": "north"},
    {"mrn": 2**64 + 3, "code": "", "dose": -35, "site": "öst"},
    {"mrn": "000", "code": "7", "dose": 45, "site": "south"},
]


def test_table_from_an_earlier_release_gets_audits_and_takes_new_tables(tmp_path, capsys):
    # Written by the CLI of the earlier release with the default config:
    # `put t.json --table --id-columns mrn,code --level secret --object-id
    # table`, where t.json holds _COMPAT_TABLE_ROWS.
    root = tmp_path / "compat-table"
    shutil.copytree(_COMPAT_TABLE, root)
    with KeyStore(root / "keystore.cmf") as ks:
        assert set(ks.get("anon:table")) == {
            "salt", "id_columns", "column_order", "digests", "mapping",
        }
    paths = [
        "--manifest", str(root / "manifest.cmf"),
        "--keystore", str(root / "keystore.cmf"),
        "--state-dir", str(root / "state"),
    ]

    def gets_and_audits(oid, rows):
        out = tmp_path / f"{oid}.out"
        assert main([*paths, "get", oid, "--out", str(out)]) == 0
        assert out.read_bytes() == json.dumps(rows, sort_keys=True, indent=1).encode("utf-8")
        capsys.readouterr()
        assert main([*paths, "audit", oid]) == 0
        assert "intact=true" in capsys.readouterr().out.splitlines()

    gets_and_audits("table", _COMPAT_TABLE_ROWS)
    fresh = list(reversed(_COMPAT_TABLE_ROWS))
    src = tmp_path / "fresh.json"
    src.write_text(json.dumps(fresh))
    assert main([*paths, "put", str(src), "--table", "--id-columns", "mrn,code",
                 "--level", "secret", "--object-id", "fresh"]) == 0
    gets_and_audits("table", _COMPAT_TABLE_ROWS)
    gets_and_audits("fresh", fresh)
    with KeyStore(root / "keystore.cmf") as ks:
        record = ks.get("anon:fresh")
    assert set(record) == {"id_columns", "column_order", "rows"}
    assert [row[1:] for row in record["rows"]] == [[r["mrn"], r["code"]] for r in fresh]
