"""The four workloads: seeded inputs, the ops they issue, and output checks.

Every workload is a closed loop: one client, one process, no threads, and
each op waits for its reply. The seed fixes the payloads, the op sequence and
the ``random.Random`` handed to ``Router`` (or ``--seed`` for the CLI); the
program only ever sees the generated inputs. All of them use the default
five-provider fleet and the default ``DispersalPolicy``.

An op fails if it raises, returns other bytes or rows than were put, or
returns a wrong audit verdict: an audit of a clean object must come back
intact, and an audit of a corrupted object may pass (16 sampled rows of a
4,096-row column catch a one-byte flip with probability 16/4096 per round)
but must never name a provider that holds no corrupted blob.

Audit rounds are precomputed tokens, each spent once (Wang et al., IWQoS
2009), so the generator never asks for a 17th round of one object: the 16
rounds per column of the default policy are the designed budget. No
secret/advanced put is issued, since policy refuses those rather than fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from cloudvault import cli, config, simcloud
from cloudvault.persistence import KeyStore, ManifestStore
from cloudvault.router import DataObject, DispersalPolicy, OperationClass, Router, SecretLevel

TOKEN_ROUNDS = DispersalPolicy().token_rounds

# (level, ops) -> pipeline tag; the tag doubles as the op's layer label.
PIPELINES = {
    ("top-secret", "none"): "local",
    ("unclassified", "none"): "plain",
    ("secret", "none"): "dispersed",
    ("secret", "basic"): "homomorphic",
}
PIPELINE_NAMES = {
    "local": "LocalOnly",
    "plain": "PlainSingleCloud",
    "dispersed": "SplitShareDisperse",
    "table": "SplitShareDisperse",
    "homomorphic": "HomomorphicStore",
}

_WORDS = (
    "cloud vault share chunk token audit provider manifest keystore parity "
    "column secret record policy entropy split block node blob fleet"
).split()


def mixed_bytes(rng: random.Random, size: int) -> bytes:
    """Random, text-like and zero-run segments, so planner cuts depend on
    the data. Segments are 1/32 to 1/8 of ``size``."""
    out = bytearray()
    lo, hi = max(1, size // 32), max(2, size // 8)
    while len(out) < size:
        n = rng.randint(lo, hi)
        kind = rng.randrange(3)
        if kind == 0:
            out += rng.randbytes(n)
        elif kind == 1:
            text = " ".join(rng.choices(_WORDS, k=n // 6 + 1)).encode()
            out += text[:n]
        else:
            out += bytes(n)
    return bytes(out[:size])


def table_rows(rng: random.Random, rows: int) -> list[dict]:
    """Records with two identifier columns (name, ssn) and four others."""
    ssns = rng.sample(range(100_000_000, 1_000_000_000), rows)
    return [
        {
            "name": f"person-{rng.randrange(10**6):06d}",
            "ssn": ssn,
            "age": rng.randint(18, 90),
            "city": rng.choice(_WORDS),
            "balance": rng.randint(0, 10**7),
            "dept": rng.choice(_WORDS),
        }
        for ssn in ssns
    ]


def canonical(payload: bytes | list) -> bytes:
    """Payload bytes as the router digests them (canonical JSON for tables)."""
    if isinstance(payload, list):
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return payload


def canonical_size(payload: bytes | list) -> int:
    return len(canonical(payload))


def digest(payload: bytes | list) -> bytes:
    """Identifies a payload exactly, tables and byte strings apart."""
    kind = b"rows" if isinstance(payload, list) else b"bytes"
    return hashlib.sha256(kind + b"\0" + canonical(payload)).digest()


@dataclass
class Op:
    kind: str  # put, get or audit
    pipeline: str  # tag from PIPELINES, or "table"
    nbytes: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    ends_cycle: bool = True


class Model:
    """What the client put, so every output can be checked exactly.

    It keeps a digest and the size of each payload, not the payload, so the
    benchmark's own memory stays small beside the program's."""

    def __init__(self) -> None:
        self.expected: dict[str, bytes] = {}
        self.size: dict[str, int] = {}
        self.pipeline: dict[str, str] = {}
        self.by_pipeline: dict[str, list[str]] = {}
        self.rounds_used: dict[str, int] = {}
        self.corrupt: dict[str, set[str]] = {}
        self.payload_bytes = 0

    def add(self, oid: str, payload: bytes | list, tag: str) -> None:
        self.expected[oid] = digest(payload)
        self.size[oid] = canonical_size(payload)
        self.pipeline[oid] = tag
        self.by_pipeline.setdefault(tag, []).append(oid)
        self.payload_bytes += self.size[oid]

    def auditable(self, oid: str) -> bool:
        return self.rounds_used.get(oid, 0) < TOKEN_ROUNDS

    def verdict_ok(self, oid: str, findings: list[tuple[str, str]]) -> bool:
        """``findings`` are (verdict, provider) pairs that were not intact."""
        bad = self.corrupt.get(oid, set())
        return all(v == "corrupted" and p in bad for v, p in findings)

    def spend_round(self, oid: str) -> None:
        if self.pipeline[oid] == "dispersed":
            self.rounds_used[oid] = self.rounds_used.get(oid, 0) + 1


def _tag(level: str, ops: str, payload: bytes | list) -> str:
    return "table" if isinstance(payload, list) else PIPELINES[(level, ops)]


class RouterClient:
    """Ops through ``Router.put/get/audit`` on one long-lived router."""

    def __init__(self, root: Path, seed: int) -> None:
        settings = config.default_settings()
        root.mkdir(parents=True)
        self.manifest_path = root / "manifest.cmf"
        self.keystore_path = root / "keystore.cmf"
        self.router = Router(
            cloud=simcloud.SimCloud.build(settings.topology, credential=settings.credential),
            manifest=ManifestStore(self.manifest_path),
            keystore=KeyStore(self.keystore_path),
            policy=DispersalPolicy(),
            profiles=settings.profiles,
            rng=random.Random(f"router:{seed}"),
        )
        self.model = Model()

    def close(self) -> None:
        self.router.manifest.close()
        self.router.keystore.close()

    def cloud(self) -> simcloud.SimCloud:
        return self.router.cloud

    def put(self, oid, payload, level="unclassified", ops="none", id_columns=(), ends_cycle=True):
        tag = _tag(level, ops, payload)
        obj = DataObject(oid, payload, SecretLevel(level), OperationClass(ops), tuple(id_columns))

        def check(record) -> bool:
            if record.object_id != oid or record.pipeline != PIPELINE_NAMES[tag]:
                return False
            self.model.add(oid, payload, tag)
            return True

        return Op("put", tag, canonical_size(payload), lambda: self.router.put(obj), check, ends_cycle)

    def get(self, oid, ends_cycle=True):
        want = self.model.expected[oid]
        return Op(
            "get",
            self.model.pipeline[oid],
            self.model.size[oid],
            lambda: self.router.get(oid),
            lambda got: digest(got) == want,
            ends_cycle,
        )

    def audit(self, oid, ends_cycle=True):
        self.model.spend_round(oid)

        def check(report) -> bool:
            findings = [(e.verdict, e.provider) for e in report.entries if e.verdict != "intact"]
            if self.model.pipeline[oid] == "dispersed" and not report.entries:
                return False
            return self.model.verdict_ok(oid, findings)

        return Op(
            "audit",
            self.model.pipeline[oid],
            0,
            lambda: self.router.audit(oid, rounds=1),
            check,
            ends_cycle,
        )

    def run_now(self, op: Op) -> None:
        """Execute an op during set-up; set-up fails loudly on a bad output."""
        if not op.check(op.call()):
            raise RuntimeError(f"set-up {op.kind} of a {op.pipeline} object gave a wrong result")

    def corrupt_one_share(self, oid: str, rng: random.Random, columns: int = 1) -> None:
        """Flip one byte in ``columns`` share blobs of every slot of ``oid``.

        Shares 0..2 form the first subset ``Router._get_dispersed`` tries, so
        a flip there sends the read through the subset search."""
        record = self.router.manifest.lookup(oid)
        for slot in record.details["slots"]:
            for loc in rng.sample(slot["shares"][:3], columns):
                size = slot["share_bytes"]
                self.router.cloud.inject(
                    simcloud.CorruptBlob(
                        provider=loc["provider"],
                        node=loc["node"],
                        blob_id=loc["blob_id"],
                        offset=rng.randrange(size),
                        mask=rng.randint(1, 255),
                    )
                )
                self.model.corrupt.setdefault(oid, set()).add(loc["provider"])


class CliClient:
    """Ops as in-process ``cli.main([...])`` calls on one state directory.

    Set-up preloads through a ``Router`` on the same paths, then saves the
    provider snapshot and closes the stores, as a finished command would."""

    def __init__(self, root: Path, seed: int) -> None:
        self.preload = RouterClient(root, seed)
        self.model = self.preload.model
        self.manifest_path = self.preload.manifest_path
        self.keystore_path = self.preload.keystore_path
        self.state_dir = root / "simstate"
        self.io_dir = root / "io"
        self.io_dir.mkdir()
        self.base = [
            "--manifest", str(self.manifest_path),
            "--keystore", str(self.keystore_path),
            "--state-dir", str(self.state_dir),
            "--seed", str(seed),
        ]

    def finish_preload(self) -> None:
        self.preload.router.cloud.save(self.state_dir)
        self.preload.close()

    def close(self) -> None:
        """Nothing stays open between commands."""

    def cloud(self) -> simcloud.SimCloud:
        return simcloud.SimCloud.load(self.state_dir)

    def _main(self, argv: list[str]) -> tuple[int, dict[str, str], list[str]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.base + argv)
        lines = out.getvalue().splitlines()
        kv = dict(line.split("=", 1) for line in lines if "=" in line and " " not in line)
        return rc, kv, lines

    def put(self, oid, payload, level="unclassified", ops="none"):
        tag = _tag(level, ops, payload)
        path = self.io_dir / f"{oid}.in"
        path.write_bytes(payload)

        def check(res) -> bool:
            rc, kv, _ = res
            if rc != 0 or kv.get("object_id") != oid or kv.get("pipeline") != PIPELINE_NAMES[tag]:
                return False
            self.model.add(oid, payload, tag)
            return True

        argv = ["put", str(path), "--level", level, "--ops", ops, "--object-id", oid]
        return Op("put", tag, len(payload), lambda: self._main(argv), check)

    def get(self, oid):
        want = self.model.expected[oid]
        path = self.io_dir / f"{oid}.out"

        def check(res) -> bool:
            rc, kv, _ = res
            return rc == 0 and kv.get("object_id") == oid and digest(path.read_bytes()) == want

        argv = ["get", oid, "--out", str(path)]
        return Op("get", self.model.pipeline[oid], self.model.size[oid], lambda: self._main(argv), check)

    def audit(self, oid):
        self.model.spend_round(oid)
        argv = ["audit", oid, "--rounds", "1"]

        def check(res) -> bool:
            rc, kv, lines = res
            if rc != 0 or kv.get("object_id") != oid:
                return False
            findings = []
            for line in lines:
                if line.startswith("finding="):
                    fields = dict(part.split("=", 1) for part in line.split())
                    findings.append((fields["finding"], fields["provider"]))
            if (kv.get("intact") == "true") != (not findings):
                return False
            return self.model.verdict_ok(oid, findings)

        return Op("audit", self.model.pipeline[oid], 0, lambda: self._main(argv), check)


# -- choosing targets --------------------------------------------------------


def recent(rng: random.Random, keys: list[str], usable=lambda k: True) -> str | None:
    """A key skewed toward the most recent: age = n * u^3 from the newest."""
    for _ in range(8):
        k = keys[-1 - int(len(keys) * rng.random() ** 3)]
        if usable(k):
            return k
    for k in reversed(keys):
        if usable(k):
            return k
    return None


def blocks(rng: random.Random, pattern: list[str]) -> Iterator[str]:
    """The pattern over and over, each pass shuffled: exact proportions
    over every whole pass, seeded order within it."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


# -- workloads ---------------------------------------------------------------


@dataclass
class Scale:
    object_bytes: int
    warmup_bytes: int
    small_bytes: int
    table_rows: int
    preload_plain: int
    preload_local: int
    preload_dispersed: int
    preload_tables: int
    preload_homomorphic: int = 0
    he_bytes: int = 64


@dataclass
class Workload:
    name: str
    setup: Callable[[Path, int, Scale], object]
    ops: Callable[[object, random.Random, Scale], Iterator[Op]]
    window: int  # ops whose counts must repeat exactly for a seed
    tail: float | None  # fixed tail percentile; None: too few samples, max
    full: Scale
    toy: Scale
    setup_repeats: int = 3  # set-ups per run; setup_s is their median


def _setup_pipeline(level: str, ops: str):
    def setup(root: Path, seed: int, scale: Scale) -> RouterClient:
        client = RouterClient(root, seed)
        rng = random.Random(f"warmup:{seed}")
        oid = "warmup"
        client.run_now(client.put(oid, mixed_bytes(rng, scale.warmup_bytes), level, ops))
        client.run_now(client.get(oid))
        client.run_now(client.audit(oid))
        return client

    return setup


AUDITS_PER_CYCLE = 4


def _cycles(level: str, ops: str, prefix: str):
    """put -> get -> AUDITS_PER_CYCLE one-round audits of a fresh object,
    over and over. Several audits per object give the audit median more
    samples; four rounds stay well inside the 16-round token budget."""

    def gen(client: RouterClient, rng: random.Random, scale: Scale) -> Iterator[Op]:
        i = 0
        while True:
            oid = f"{prefix}-{i:05d}"
            i += 1
            yield client.put(oid, mixed_bytes(rng, scale.object_bytes), level, ops, ends_cycle=False)
            if oid in client.model.expected:
                yield client.get(oid, ends_cycle=False)
                for j in range(AUDITS_PER_CYCLE):
                    yield client.audit(oid, ends_cycle=j == AUDITS_PER_CYCLE - 1)

    return gen


_LEVELS = {tag: level_ops for level_ops, tag in PIPELINES.items()}


def _small_put(client, rng: random.Random, scale: Scale, kind: str, oid: str) -> Op:
    if kind == "table":
        return client.put(oid, table_rows(rng, scale.table_rows), "secret", "none", ("name", "ssn"))
    level, ops = _LEVELS[kind]
    size = scale.he_bytes if kind == "homomorphic" else scale.small_bytes
    return client.put(oid, mixed_bytes(rng, size), level, ops)


def _preload(client: RouterClient, seed: int, scale: Scale) -> random.Random:
    """Put the scale's preload of small objects in seeded order."""
    rng = random.Random(f"preload:{seed}")
    kinds = (
        ["plain"] * scale.preload_plain
        + ["local"] * scale.preload_local
        + ["dispersed"] * scale.preload_dispersed
        + ["table"] * scale.preload_tables
        + ["homomorphic"] * scale.preload_homomorphic
    )
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        client.run_now(_small_put(client, rng, scale, kind, f"pre-{i:05d}"))
    return rng


def setup_mixed(root: Path, seed: int, scale: Scale) -> RouterClient:
    """Preload, then corrupt one share of a fixed quarter of the dispersed
    objects."""
    client = RouterClient(root, seed)
    rng = _preload(client, seed, scale)
    for oid in client.model.by_pipeline.get("dispersed", [])[::4]:
        client.corrupt_one_share(oid, rng)
    return client


def setup_cli(root: Path, seed: int, scale: Scale) -> CliClient:
    """Preload through a Router on the CLI's own paths, save the snapshot."""
    client = CliClient(root, seed)
    _preload(client.preload, seed, scale)
    client.finish_preload()
    return client


def _small_ops(ops: list[str], puts: list[str], gets: list[str], audits: list[str]):
    """Ops in the given proportions, each list shuffled per pass. Gets and
    audits pick a recent object of the next pipeline in turn; an audit falls
    back to a plain object once every candidate has spent its rounds."""

    def gen(client, rng: random.Random, scale: Scale) -> Iterator[Op]:
        kinds = blocks(rng, ops)
        put_kinds, get_kinds, audit_kinds = blocks(rng, puts), blocks(rng, gets), blocks(rng, audits)
        model = client.model
        i = 0
        while True:
            kind = next(kinds)
            if kind == "put":
                yield _small_put(client, rng, scale, next(put_kinds), f"run-{i:05d}")
                i += 1
            elif kind == "get":
                yield client.get(recent(rng, model.by_pipeline[next(get_kinds)]))
            else:
                oid = recent(rng, model.by_pipeline[next(audit_kinds)], model.auditable)
                yield client.audit(oid or recent(rng, model.by_pipeline["plain"]))

    return gen


# Per 20 ops: 14 gets, 4 puts, 2 audits. Per 40 puts: 28 plain, 7 local,
# 4 tables, 1 dispersed, so GF(256) share work stays in the put tail. Per 14
# gets, 2 are dispersed, so the p95 of gets lies inside the dispersed reads
# (degraded ones included) rather than between them and the table reads.
# Three audits in four are of dispersed objects: ~800 rounds in a 25 s run,
# well inside the 16-round budgets of the 200 preloaded dispersed objects.
ops_mixed = _small_ops(
    ["get"] * 14 + ["put"] * 4 + ["audit"] * 2,
    ["plain"] * 28 + ["local"] * 7 + ["table"] * 4 + ["dispersed"],
    ["plain"] * 9 + ["local"] * 2 + ["table"] + ["dispersed"] * 2,
    ["dispersed"] * 3 + ["plain"],
)

# Per 20 commands: 11 gets, 5 puts, 4 audits. Small secret/basic objects
# measure the homomorphic layer here. The fixed shares per pipeline keep the
# p90 of puts inside the dispersed and homomorphic puts, and the p90 of gets
# inside the dispersed and homomorphic gets, on every seed.
ops_cli = _small_ops(
    ["get"] * 11 + ["put"] * 5 + ["audit"] * 4,
    ["plain"] * 5 + ["local"] * 2 + ["dispersed"] * 2 + ["homomorphic"],
    ["plain"] * 14 + ["local"] * 3 + ["dispersed"] * 4 + ["homomorphic"],
    ["dispersed", "dispersed", "plain", "plain"],
)


_SMALL = dict(object_bytes=0, warmup_bytes=0, small_bytes=4096, table_rows=200)
_NO_PRELOAD = dict(preload_plain=0, preload_local=0, preload_dispersed=0, preload_tables=0)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "disperse-1m",
            _setup_pipeline("secret", "none"),
            _cycles("secret", "none", "d1m"),
            window=2 * (2 + AUDITS_PER_CYCLE),
            tail=None,
            full=Scale(1 << 20, 16 << 10, 4096, 200, **_NO_PRELOAD),
            toy=Scale(16 << 10, 4 << 10, 4096, 200, **_NO_PRELOAD),
        ),
        Workload(
            "homomorphic-2k",
            _setup_pipeline("secret", "basic"),
            _cycles("secret", "basic", "he2k"),
            window=2 * (2 + AUDITS_PER_CYCLE),
            tail=None,
            full=Scale(2 << 10, 256, 4096, 200, **_NO_PRELOAD),
            toy=Scale(32, 16, 4096, 200, **_NO_PRELOAD),
        ),
        Workload(
            "mixed-small",
            setup_mixed,
            ops_mixed,
            window=1000,
            tail=0.95,
            full=Scale(**_SMALL, preload_plain=1800, preload_local=500,
                       preload_dispersed=200, preload_tables=20),
            toy=Scale(0, 0, 4096, 20, preload_plain=40, preload_local=10,
                      preload_dispersed=4, preload_tables=2),
        ),
        Workload(
            "cli-session",
            setup_cli,
            ops_cli,
            window=400,
            tail=0.90,
            full=Scale(**_SMALL, preload_plain=400, preload_local=40,
                       preload_dispersed=12, preload_tables=0, preload_homomorphic=4),
            toy=Scale(0, 0, 4096, 20, preload_plain=20, preload_local=4,
                      preload_dispersed=4, preload_tables=0, preload_homomorphic=2, he_bytes=8),
            # Set-up takes ~1 s, short enough for a brief stall of the disk
            # to move a median of three; five steady it.
            setup_repeats=5,
        ),
    ]
}
