import gc
import hashlib
import json
import os
import random
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import pytest

from cloudvault import persistence, simcloud
from cloudvault.anonymize import parse_group
from cloudvault.cli import main


def _paths(tmp_path, seed=7):
    return [
        "--manifest",
        str(tmp_path / "manifest.cmf"),
        "--keystore",
        str(tmp_path / "keystore.cmf"),
        "--state-dir",
        str(tmp_path / "state"),
        "--seed",
        str(seed),
    ]


def _kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def test_put_reports_decision_and_get_round_trips(tmp_path, capsys):
    payload = random.Random(11).randbytes(3000)
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)

    rc = main([*_paths(tmp_path), "put", str(src), "--level", "secret"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["pipeline"] == "SplitShareDisperse"
    assert kv["digest"] == hashlib.sha256(payload).hexdigest()
    assert int(kv["threshold"]) == 3
    assert int(kv["share_count"]) == 5
    assert int(kv["chunk_count"]) >= 1

    out = tmp_path / "rebuilt.bin"
    rc = main([*_paths(tmp_path), "get", kv["object_id"], "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == payload


def test_get_streams_raw_bytes_to_stdout(tmp_path, capsysbinary):
    payload = random.Random(12).randbytes(500)
    src = tmp_path / "p.bin"
    src.write_bytes(payload)
    main([*_paths(tmp_path), "put", str(src), "--level", "unclassified"])
    object_id = hashlib.sha256(payload).hexdigest()[:16]
    capsysbinary.readouterr()

    rc = main([*_paths(tmp_path), "get", object_id])
    assert rc == 0
    assert capsysbinary.readouterr().out == payload


def test_object_id_defaults_to_payload_digest(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(b"stable contents")
    main([*_paths(tmp_path), "put", str(src), "--level", "unclassified"])
    kv = _kv(capsys.readouterr().out)
    assert kv["object_id"] == hashlib.sha256(b"stable contents").hexdigest()[:16]


def test_duplicate_put_exits_one_with_error_line(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(b"once only")
    assert main([*_paths(tmp_path), "put", str(src), "--level", "secret"]) == 0
    rc = main([*_paths(tmp_path), "put", str(src), "--level", "secret"])
    assert rc == 1
    err = _kv(capsys.readouterr().err)
    assert err["error"] == "DuplicateObject"
    assert "message" in err


def test_audit_reports_clean_holders(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(random.Random(13).randbytes(2000))
    main([*_paths(tmp_path), "put", str(src), "--level", "secret"])
    kv = _kv(capsys.readouterr().out)

    rc = main([*_paths(tmp_path), "audit", kv["object_id"]])
    out = capsys.readouterr().out
    assert rc == 0
    audit = _kv(out)
    assert audit["intact"] == "true"
    assert int(audit["checks"]) > 0
    assert "finding" not in audit


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_audit_refuses_fewer_than_one_round(tmp_path, capsys, rounds):
    src = tmp_path / "p.bin"
    src.write_bytes(random.Random(13).randbytes(2000))
    main([*_paths(tmp_path), "put", str(src), "--level", "secret"])
    kv = _kv(capsys.readouterr().out)

    rc = main([*_paths(tmp_path), "audit", kv["object_id"], "--rounds", rounds])
    captured = capsys.readouterr()
    assert rc == 1
    assert "intact=" not in captured.out
    assert _kv(captured.err)["error"] == "ValueError"


def test_audit_pinpoints_corrupted_blob(tmp_path, capsys):
    # Sampling every row makes detection certain rather than probabilistic.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("audit_rows = 100000\n")
    args = ["--config", str(cfg), *_paths(tmp_path)]

    src = tmp_path / "p.bin"
    src.write_bytes(random.Random(14).randbytes(600))
    main([*args, "put", str(src), "--level", "secret"])
    kv = _kv(capsys.readouterr().out)

    state = str(tmp_path / "state")
    cloud = simcloud.SimCloud.load(state)
    target = None
    for pid in sorted(cloud.providers):
        for node, blob_id in sorted(cloud.providers[pid]._blobs):
            if blob_id.startswith(kv["object_id"]) and ".c" in blob_id:
                target = (pid, node, blob_id)
                break
        if target:
            break
    assert target is not None
    cloud.inject(
        simcloud.CorruptBlob(
            provider=target[0], node=target[1], blob_id=target[2], offset=0, mask=0xFF
        )
    )
    cloud.save(state)

    rc = main([*args, "audit", kv["object_id"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "intact=false" in out
    findings = [line for line in out.splitlines() if line.startswith("finding=")]
    assert findings and all("corrupted" in f for f in findings)
    assert any(f"provider={target[0]}" in f for f in findings)


def test_rank_orders_by_the_only_nonzero_weight(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        """
        weights = 0, 0, 1, 0
        providers = pa, pb, pc
        provider.pa.security = 0.2
        provider.pb.security = 0.9
        provider.pc.security = 0.5
        """
    )
    rc = main(["--config", str(cfg), "rank"])
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert [kv["rank.1"], kv["rank.2"], kv["rank.3"]] == ["pb", "pc", "pa"]
    assert float(kv["score.1"]) == pytest.approx(0.9)


def test_rank_covers_the_default_fleet(capsys):
    assert main(["rank"]) == 0
    kv = _kv(capsys.readouterr().out)
    ranks = [k for k in kv if k.startswith("rank.")]
    assert len(ranks) == 5
    scores = [float(kv[f"score.{i}"]) for i in range(1, 6)]
    assert scores == sorted(scores, reverse=True)


def test_anonymize_writes_groups_and_local_mapping(tmp_path, capsys):
    rows = [
        {"name": "ann", "age": 34, "city": "kyiv", "plan": "gold"},
        {"name": "bob", "age": 41, "city": "lviv", "plan": "base"},
    ]
    src = tmp_path / "table.json"
    src.write_text(json.dumps(rows))

    rc = main(
        [
            *_paths(tmp_path),
            "anonymize",
            str(src),
            "--id-columns",
            "name",
            "--groups",
            "2",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["rows"] == "2"
    assert kv["groups"] == "2"

    seen_cols = []
    for i in range(2):
        blob = (tmp_path / f"table.g{i}").read_bytes()
        assert b"ann" not in blob and b"bob" not in blob
        group = parse_group(blob)
        seen_cols.extend(group.columns)
        assert len(group.rows) == 2
    assert sorted(seen_cols) == ["age", "city", "plan"]

    mapping = json.loads((tmp_path / "table.mapping.json").read_text())
    assert mapping["id_columns"] == ["name"]
    assert sorted(tuple(v) for v in mapping["mapping"].values()) == [
        ("ann",),
        ("bob",),
    ]


def test_table_round_trip_through_the_dispatcher(tmp_path, capsys):
    rows = [
        {"patient": "p1", "dose": 20, "site": "north"},
        {"patient": "p2", "dose": 35, "site": "south"},
        {"patient": "p3", "dose": 35, "site": "north"},
    ]
    src = tmp_path / "t.json"
    src.write_text(json.dumps(rows))
    rc = main(
        [
            *_paths(tmp_path),
            "put",
            str(src),
            "--level",
            "secret",
            "--table",
            "--id-columns",
            "patient",
            "--object-id",
            "trial",
        ]
    )
    assert rc == 0
    capsys.readouterr()

    rc = main([*_paths(tmp_path), "get", "trial"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == rows


def test_simulate_exit_code_follows_expectations(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("payload_bytes = 256\nexpect = get_ok audit_clean\n")
    assert main([*_paths(tmp_path), "simulate", str(good)]) == 0
    assert "scenario=pass" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text(
        "payload_bytes = 256\n"
        "inject = unavailable:alpha:n0 unavailable:beta:n0 unavailable:gamma:n0\n"
        "expect = get_ok\n"
    )
    assert main([*_paths(tmp_path), "simulate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "expect.get_ok=fail" in out
    assert "scenario=fail" in out


def test_commands_close_the_stores_they_open(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(random.Random(13).randbytes(600))
    object_id = hashlib.sha256(src.read_bytes()).hexdigest()[:16]
    scenario = tmp_path / "s.txt"
    scenario.write_text("payload_bytes = 256\nexpect = get_ok audit_clean\n")
    commands = [
        ["put", str(src), "--level", "secret"],
        ["get", object_id, "--out", str(tmp_path / "out.bin")],
        ["audit", object_id],
        ["get", "ghost"],  # a failing command closes its stores too
        ["simulate", str(scenario)],
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            main([*_paths(tmp_path), *command])
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, (command, [str(w.message) for w in leaked])
    capsys.readouterr()


def test_insider_safe_needs_the_provider_marked_insider(tmp_path, capsys):
    scenario = tmp_path / "insider.txt"
    scenario.write_text("payload_bytes = 256\nexpect = insider_safe:alpha\n")
    assert main([*_paths(tmp_path), "simulate", str(scenario)]) == 1
    assert _kv(capsys.readouterr().err)["error"] == "ValueError"

    scenario.write_text(
        "payload_bytes = 256\ninject = insider:alpha\nexpect = insider_safe:alpha\n"
    )
    assert main([*_paths(tmp_path), "simulate", str(scenario)]) == 0
    assert "expect.insider_safe:alpha=pass" in capsys.readouterr().out


def test_readme_scenario_passes(tmp_path, capsys):
    cfg = tmp_path / "fleet.cfg"
    # Five providers hold the five shares; sampling every row makes the
    # audit's detection certain rather than probabilistic.
    cfg.write_text("providers = arctic, boreal, cirrus, dune, ember\naudit_rows = 100000\n")
    scenario = tmp_path / "outage.scn"
    scenario.write_text(
        "payload_bytes = 4096\nlevel = secret\n"
        "inject = corrupt:arctic insider:boreal unavailable:cirrus:n0\n"
        "expect = get_ok audit_detects:arctic insider_safe:boreal\n"
    )
    assert main(["--config", str(cfg), *_paths(tmp_path), "simulate", str(scenario)]) == 0
    assert "scenario=pass" in capsys.readouterr().out


def test_get_on_a_truncated_snapshot_exits_one(tmp_path, capsys):
    src = tmp_path / "p.bin"
    src.write_bytes(random.Random(15).randbytes(400))
    assert main([*_paths(tmp_path), "put", str(src), "--level", "unclassified",
                 "--object-id", "o"]) == 0
    pack = tmp_path / "state" / "simcloud.pack"
    pack.write_bytes(pack.read_bytes()[:-10])
    capsys.readouterr()

    assert main([*_paths(tmp_path), "get", "o"]) == 1
    assert _kv(capsys.readouterr().err)["error"] == "SnapshotCorrupt"


def _whole_frames(raw, at):
    """The store frames in ``raw`` from offset ``at``, which must be whole
    and checksummed up to the end."""
    bodies = []
    while at < len(raw):
        (length,) = struct.unpack_from("<I", raw, at)
        body = raw[at + 4 : at + 4 + length]
        (crc,) = struct.unpack_from("<I", raw, at + 4 + length)
        assert crc == zlib.crc32(body)
        bodies.append(body)
        at += 8 + length
    assert at == len(raw)
    return bodies


def test_commands_after_a_crash_mid_append_cut_the_torn_tail(tmp_path, capsys):
    payloads = {"s": random.Random(16).randbytes(2000), "p": random.Random(17).randbytes(400)}
    for oid, level in (("s", "secret"), ("p", "unclassified")):
        (tmp_path / f"{oid}.in").write_bytes(payloads[oid])
        assert main([*_paths(tmp_path), "put", str(tmp_path / f"{oid}.in"), "--level", level,
                     "--object-id", oid]) == 0
    clean = {}
    for name in ("manifest.cmf", "keystore.cmf"):
        log = tmp_path / name
        clean[name] = log.read_bytes()
        # Half of a real frame, as a crash mid-append leaves it.
        (length,) = struct.unpack_from("<I", clean[name], 4)
        log.write_bytes(clean[name] + clean[name][4 : 4 + length // 2])

    for oid, payload in payloads.items():
        out = tmp_path / f"{oid}.out"
        assert main([*_paths(tmp_path), "get", oid, "--out", str(out)]) == 0
        assert out.read_bytes() == payload
    capsys.readouterr()
    assert main([*_paths(tmp_path), "audit", "s"]) == 0
    assert "intact=true" in capsys.readouterr().out.splitlines()
    (tmp_path / "n.in").write_bytes(random.Random(18).randbytes(900))
    assert main([*_paths(tmp_path), "put", str(tmp_path / "n.in"), "--level", "secret",
                 "--object-id", "n"]) == 0

    for name, before in clean.items():
        raw = (tmp_path / name).read_bytes()
        assert raw[: len(before)] == before
        assert _whole_frames(raw, len(before))


def test_a_put_loads_the_fleet_only_under_the_stores_lock(tmp_path, monkeypatch):
    payloads = {"a": random.Random(19).randbytes(600), "b": random.Random(20).randbytes(600)}
    for oid, payload in payloads.items():
        (tmp_path / f"{oid}.in").write_bytes(payload)

    def put(oid):
        return main([*_paths(tmp_path), "put", str(tmp_path / f"{oid}.in"), "--level",
                     "secret", "--object-id", oid])

    # Put "b" while put "a" waits to open its manifest.
    opened, nested = [], []
    real_init = persistence.ManifestStore.__init__

    def init(self, path):
        opened.append(path)
        if len(opened) == 1:
            nested.append(put("b"))
        real_init(self, path)

    monkeypatch.setattr(persistence.ManifestStore, "__init__", init)
    assert put("a") == 0
    assert nested == [0]
    monkeypatch.undo()

    for oid, payload in payloads.items():
        out = tmp_path / f"{oid}.out"
        assert main([*_paths(tmp_path), "get", oid, "--out", str(out)]) == 0
        assert out.read_bytes() == payload


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        main([*_paths(tmp_path), "put", "x.bin"])  # --level missing
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, text",
    [
        ("put", "[]"),
        ("put", "[1,2]"),
        ("put", '{"a":1}'),
        ("anonymize", "[1,2]"),
    ],
)
def test_malformed_table_exits_one(tmp_path, capsys, command, text):
    src = tmp_path / "table.json"
    src.write_text(text)
    args = {
        "put": ["put", str(src), "--table", "--id-columns", "name", "--level", "secret"],
        "anonymize": ["anonymize", str(src), "--id-columns", "name", "--out-dir", str(tmp_path)],
    }[command]
    assert main([*_paths(tmp_path), *args]) == 1
    assert _kv(capsys.readouterr().err)["error"] == "ValueError"


def test_missing_payload_file_exits_one(tmp_path, capsys):
    rc = main([*_paths(tmp_path), "put", str(tmp_path / "nope.bin"), "--level", "secret"])
    assert rc == 1
    assert "error=FileNotFoundError" in capsys.readouterr().err


def test_config_comes_from_environment_when_flag_absent(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("providers = solo\nprovider.solo.nodes = n0:0\n")
    monkeypatch.setenv("CLOUDVAULT_CONFIG", str(cfg))
    assert main(["rank"]) == 0
    kv = _kv(capsys.readouterr().out)
    assert kv["rank.1"] == "solo"
    assert "rank.2" not in kv

    # The parser is built once per process; the variable is read per call.
    other = tmp_path / "other.txt"
    other.write_text("providers = duo\nprovider.duo.nodes = n0:0\n")
    monkeypatch.setenv("CLOUDVAULT_CONFIG", str(other))
    assert main(["rank"]) == 0
    assert _kv(capsys.readouterr().out)["rank.1"] == "duo"


@pytest.mark.parametrize(
    "scenario",
    [
        # A damaged plain blob: get refuses it, and so does the audit.
        "payload_bytes = 64\nlevel = unclassified\ninject = corrupt:alpha\n"
        "expect = get_fails audit_detects:alpha\n",
        # A damaged homomorphic blob: get reports it instead of crashing.
        "payload_bytes = 16\nlevel = secret\nops = basic\ninject = corrupt:alpha\n"
        "expect = get_fails\n",
    ],
    ids=["plain", "homomorphic"],
)
def test_simulate_damaged_single_blob(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.txt"
    path.write_text(scenario)
    assert main([*_paths(tmp_path), "simulate", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    for expect in scenario.split("expect = ")[1].split():
        assert f"expect.{expect}=pass" in out
    assert "scenario=pass" in out


def test_get_of_a_damaged_table_group_exits_one(tmp_path, capsys):
    rows = [
        {"patient": "p1", "dose": 20, "site": "north"},
        {"patient": "p2", "dose": 35, "site": "south"},
        {"patient": "p3", "dose": 35, "site": "north"},
    ]
    src = tmp_path / "t.json"
    src.write_text(json.dumps(rows))
    put = ["put", str(src), "--level", "secret", "--table", "--id-columns", "patient"]
    assert main([*_paths(tmp_path), *put, "--object-id", "t"]) == 0

    state = str(tmp_path / "state")
    cloud = simcloud.SimCloud.load(state)
    ((pid, node),) = {
        (pid, entry.node)
        for pid in cloud.providers
        for entry in cloud.insider_dump(pid)
        if entry.blob_id == "t.g0"
    }
    cloud.inject(simcloud.CorruptBlob(pid, node, "t.g0", offset=13, mask=0x80))
    cloud.save(state)
    capsys.readouterr()

    assert main([*_paths(tmp_path), "get", "t"]) == 1
    assert _kv(capsys.readouterr().err)["error"] == "IntegrityViolation"


@pytest.mark.parametrize("command", ["put", "anonymize"])
def test_table_of_identifiers_only_exits_one(tmp_path, capsys, command):
    src = tmp_path / "table.json"
    src.write_text(json.dumps([{"name": "ann", "card": 1}]))
    args = {
        "put": ["put", str(src), "--table", "--id-columns", "name,card", "--level", "secret"],
        "anonymize": ["anonymize", str(src), "--id-columns", "name,card",
                      "--out-dir", str(tmp_path)],
    }[command]
    assert main([*_paths(tmp_path), *args]) == 1
    err = _kv(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "every column is an identifier" in err["message"]
    assert not list(tmp_path.glob("table.g*"))


_LEGACY_BLOB_WITHOUT_DATA = json.dumps({
    "providers": {"alpha": {"nodes": {"n0": 0}, "credential": "",
                            "blobs": [{"node": "n0", "blob_id": "o.blob"}]}},
    "faults": [],
})


@pytest.mark.parametrize(
    "case, text, error",
    [
        pytest.param("inject", "unavailable:alpha", "ValueError", id="unavailable-no-node"),
        pytest.param("inject", "corrupt", "ValueError", id="corrupt-no-provider"),
        pytest.param("inject", "insider", "ValueError", id="insider-no-provider"),
        pytest.param("legacy", '{"providers": {}}', "SnapshotCorrupt", id="legacy-no-faults"),
        pytest.param("legacy", _LEGACY_BLOB_WITHOUT_DATA, "SnapshotCorrupt", id="legacy-no-data"),
        pytest.param("legacy", "not json", "SnapshotCorrupt", id="legacy-not-json"),
        pytest.param("legacy", "", "SnapshotCorrupt", id="legacy-empty"),
        pytest.param("config", "providers = a\nprovider.a.hier_access = x\n", "ConfigError",
                     id="config-hier-access"),
        pytest.param("config", "providers = a, b\nmetrics = raw\nprovider.a.time = -1\n",
                     "ConfigError", id="config-negative-raw-metric"),
        pytest.param("config", "providers = a\nprovider.a.nodes = n0:-1\n", "ConfigError",
                     id="config-negative-depth"),
        pytest.param("config", "block = 0\n", "ConfigError", id="config-block-zero"),
        pytest.param("config", "block = -4\n", "ConfigError", id="config-block-negative"),
        pytest.param("config", "providers = a, b\nshare_count = 300\n", "PlacementError",
                     id="config-share-count-above-field"),
    ],
)
def test_malformed_input_exits_one_with_a_named_error(tmp_path, capsys, case, text, error):
    src = tmp_path / "p.bin"
    src.write_bytes(b"payload")
    args = ["put", str(src), "--level", "secret"]
    if case == "inject":
        scenario = tmp_path / "s.scn"
        scenario.write_text(f"payload_bytes = 256\ninject = {text}\nexpect = get_ok\n")
        args = ["simulate", str(scenario)]
    elif case == "legacy":
        (tmp_path / "state").mkdir()
        (tmp_path / "state" / "simcloud.json").write_text(text)
    else:
        (tmp_path / "fleet.cfg").write_text(text)
        args = ["--config", str(tmp_path / "fleet.cfg"), *args]
    assert main([*_paths(tmp_path), *args]) == 1
    captured = capsys.readouterr()
    assert _kv(captured.err)["error"] == error
    assert "Traceback" not in captured.out + captured.err
    if case == "inject":
        assert text.split(":")[0] + ":<provider>" in _kv(captured.err)["message"]


_NUMPY_PROBE = """
import random, sys
from cloudvault.cli import main

def run(*args):
    assert main(["--manifest", "m.cmf", "--keystore", "k.cmf", "--state-dir", "state",
                 *args]) == 0

rng = random.Random(5)
for name, level in [("s.bin", "secret"), ("p.bin", "unclassified")]:
    open(name, "wb").write(rng.randbytes(4096))
    run("put", name, "--level", level, "--object-id", name)
    run("get", name, "--out", name + ".out")
    assert open(name + ".out", "rb").read() == open(name, "rb").read()
    run("audit", name)
print("numpy_after_small=" + str("numpy" in sys.modules))
open("big.bin", "wb").write(rng.randbytes(20 * 1024))
run("put", "big.bin", "--level", "secret")
print("numpy_after_big=" + str("numpy" in sys.modules))
"""


def test_small_object_commands_never_import_numpy(tmp_path):
    # A fresh interpreter, because this test process has long loaded numpy.
    env = {k: v for k, v in os.environ.items() if k != "CLOUDVAULT_CONFIG"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    kv = _kv(done.stdout)
    assert kv["numpy_after_small"] == "False"
    # Five chunks under the default 4 KiB block: only this plan needs numpy.
    assert kv["chunk_count"] == "5"
    assert kv["numpy_after_big"] == "True"
