"""Command line front end over the dispatcher and the simulated fleet.

Subcommands:

* ``put``    store a file (or JSON table) under a policy level
* ``get``    rebuild a stored object
* ``audit``  run integrity challenge rounds against the holders
* ``rank``   show the weighted provider ordering
* ``anonymize`` split a JSON table into digest-keyed group files locally
* ``simulate`` run a fault scenario file and check its expectations

State between invocations lives in three places: the manifest log, the
keystore log, and a snapshot directory for the simulated providers. All
three paths come from the config file (``--config`` or $CLOUDVAULT_CONFIG)
and can be overridden per call.

Output is one ``key=value`` pair per line on stdout; failures print
``error=<ExceptionName>`` to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from . import anonymize, entropy_split, homomorphic, integrity, persistence, simcloud
from .config import ConfigError, Settings, load_settings, parse_kv
from .persistence import KeyStore, ManifestRecord, ManifestStore, scan_for_bytes
from .ranking import order_fleet, rank_score
from .router import DataObject, OperationClass, Router, RouterError, SecretLevel

_KNOWN_ERRORS = (
    RouterError,
    simcloud.SimCloudError,
    persistence.PersistenceError,
    integrity.IntegrityError,
    ConfigError,
    entropy_split.EntropySplitError,
    anonymize.AnonymizeError,
    homomorphic.HomomorphicError,
    ValueError,
    OSError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudvault",
        description="policy-routed dispatch of data across simulated cloud providers",
    )
    parser.add_argument(
        "--config",
        default=os.environ.get("CLOUDVAULT_CONFIG"),
        help="config file (default: $CLOUDVAULT_CONFIG, else built-in fleet)",
    )
    parser.add_argument("--manifest", help="override manifest log path")
    parser.add_argument("--keystore", help="override keystore log path")
    parser.add_argument("--state-dir", help="override provider snapshot directory")
    parser.add_argument("--seed", type=int, help="override the deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_put = sub.add_parser("put", help="store a payload under a policy level")
    p_put.add_argument("path", help="payload file, or - for stdin")
    p_put.add_argument(
        "--level",
        required=True,
        choices=[lv.value for lv in SecretLevel],
    )
    p_put.add_argument(
        "--ops",
        default=OperationClass.NO_OPERATIONS.value,
        choices=[op.value for op in OperationClass],
        help="operations still needed over the stored data",
    )
    p_put.add_argument("--object-id", help="default: first 16 hex chars of sha256")
    p_put.add_argument(
        "--table",
        action="store_true",
        help="treat the payload as a JSON list of records",
    )
    p_put.add_argument(
        "--id-columns",
        default="",
        help="comma separated identifier columns (tables only)",
    )

    p_get = sub.add_parser("get", help="rebuild a stored object")
    p_get.add_argument("object_id")
    p_get.add_argument("--out", help="write payload here instead of stdout")

    p_audit = sub.add_parser("audit", help="challenge the holders of an object")
    p_audit.add_argument("object_id")
    p_audit.add_argument("--rounds", type=int, default=1)

    sub.add_parser("rank", help="show the weighted provider ordering")

    p_anon = sub.add_parser(
        "anonymize", help="split a JSON table into group files, identifiers digested"
    )
    p_anon.add_argument("path", help="JSON list of records, or - for stdin")
    p_anon.add_argument("--id-columns", required=True, help="comma separated")
    p_anon.add_argument("--groups", type=int, default=2)
    p_anon.add_argument("--out-dir", default=".")
    p_anon.add_argument("--shuffle", action="store_true", help="shuffle rows per group")

    p_sim = sub.add_parser("simulate", help="run a fault scenario file")
    p_sim.add_argument("scenario", help="scenario file in key=value form")

    return parser


def _apply_overrides(settings: Settings, args: argparse.Namespace) -> Settings:
    if args.manifest:
        settings.manifest = args.manifest
    if args.keystore:
        settings.keystore = args.keystore
    if args.state_dir:
        settings.state_dir = args.state_dir
    if args.seed is not None:
        settings.seed = args.seed
    return settings


def _open_cloud(settings: Settings) -> simcloud.SimCloud:
    try:
        return simcloud.SimCloud.load(settings.state_dir)
    except FileNotFoundError:
        return simcloud.SimCloud.build(settings.topology, credential=settings.credential)


def _open_router(settings: Settings, rng: random.Random) -> Router:
    cloud = _open_cloud(settings)
    manifest = ManifestStore(settings.manifest)
    keystore = KeyStore(settings.keystore)
    return Router(
        cloud=cloud,
        manifest=manifest,
        keystore=keystore,
        policy=settings.policy,
        profiles=settings.profiles,
        rng=rng,
    )


def _read_payload(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _parse_table(raw: bytes) -> list[dict]:
    rows = json.loads(raw.decode("utf-8"))
    if not (isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows)):
        raise ValueError("expected a non-empty JSON list of records")
    return rows


def _cmd_put(settings: Settings, args: argparse.Namespace) -> int:
    raw = _read_payload(args.path)
    payload: bytes | list = raw
    id_columns: tuple[str, ...] = ()
    if args.table:
        payload = _parse_table(raw)
        id_columns = tuple(c for c in args.id_columns.split(",") if c)
    object_id = args.object_id or hashlib.sha256(raw).hexdigest()[:16]

    # Seed mixed with the object id so repeated puts under one config do not
    # reuse key material.
    rng = random.Random(f"{settings.seed}:{object_id}")
    router = _open_router(settings, rng)
    obj = DataObject(
        object_id=object_id,
        payload=payload,
        secret_level=SecretLevel(args.level),
        operation_class=OperationClass(args.ops),
        id_columns=id_columns,
    )
    record = router.put(obj)
    router.cloud.save(settings.state_dir)
    print(f"object_id={record.object_id}")
    print(f"pipeline={record.pipeline}")
    print(f"version={record.version}")
    print(f"digest={record.object_digest}")
    if "scheme" in record.details:
        scheme = record.details["scheme"]
        print(f"threshold={scheme['threshold']}")
        print(f"share_count={scheme['share_count']}")
        print(f"chunk_count={record.details['chunk_count']}")
    return 0


def _cmd_get(settings: Settings, args: argparse.Namespace) -> int:
    router = _open_router(settings, random.Random(settings.seed))
    payload = router.get(args.object_id)
    data = (
        json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        if isinstance(payload, list)
        else payload
    )
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"object_id={args.object_id}")
        print(f"bytes={len(data)}")
        print(f"out={args.out}")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cmd_audit(settings: Settings, args: argparse.Namespace) -> int:
    router = _open_router(settings, random.Random(settings.seed))
    report = router.audit(args.object_id, rounds=args.rounds)
    print(f"object_id={report.object_id}")
    print(f"pipeline={report.pipeline}")
    print(f"checks={len(report.entries)}")
    print(f"intact={'true' if report.intact else 'false'}")
    for e in report.entries:
        if e.verdict != "intact":
            print(
                f"finding={e.verdict} provider={e.provider} node={e.node} "
                f"slot={e.slot} column={e.column} round={e.round_index}"
            )
    return 0


def _cmd_rank(settings: Settings, args: argparse.Namespace) -> int:
    del args
    weights = settings.policy.weights
    ranked = order_fleet(settings.topology, settings.profiles, weights)
    for i, pid in enumerate(ranked, start=1):
        print(f"rank.{i}={pid}")
        profile = settings.profiles.get(pid)
        if profile is not None:
            print(f"score.{i}={rank_score(profile, weights):.6f}")
    return 0


def _cmd_anonymize(settings: Settings, args: argparse.Namespace) -> int:
    raw = _read_payload(args.path)
    rows = _parse_table(raw)
    id_columns = tuple(c for c in args.id_columns.split(",") if c)
    groups = anonymize.partition_columns(rows, id_columns, args.groups)

    rng = random.Random(f"{settings.seed}:{hashlib.sha256(raw).hexdigest()[:16]}")
    table = anonymize.anonymize_table(
        rows, id_columns, groups, salt=rng.randbytes(32), shuffle_rows=args.shuffle
    )

    out_dir = Path(args.out_dir)
    stem = "table" if args.path == "-" else Path(args.path).stem
    print(f"rows={len(table.digests)}")
    print(f"groups={len(table.groups)}")
    for g in table.groups:
        path = out_dir / f"{stem}.g{g.index}"
        path.write_bytes(anonymize.serialize_group(g))
        print(f"group.{g.index}={path}")
    mapping_path = out_dir / f"{stem}.mapping.json"
    mapping_path.write_text(
        json.dumps(
            {
                "id_columns": list(table.id_columns),
                "column_order": list(table.column_order),
                "mapping": {
                    d.hex(): list(cells) for d, cells in table.local_mapping.items()
                },
            },
            sort_keys=True,
            indent=1,
        )
    )
    print(f"mapping={mapping_path}")
    return 0


def _scenario_payload(scenario: dict[str, str], seed: int) -> bytes:
    size = int(scenario.get("payload_bytes", "4096"))
    return random.Random(f"payload:{seed}").randbytes(size)


def _inject_faults(router: Router, record: ManifestRecord, items: list[str]) -> None:
    """Apply scenario fault items."""
    cloud = router.cloud
    for item in items:
        parts = item.split(":")
        kind = parts[0]
        if kind == "unavailable":
            cloud.inject(simcloud.NodeUnavailable(provider=parts[1], node=parts[2]))
        elif kind == "corrupt":
            owned = [
                (loc["node"], loc["blob_id"])
                for loc in router.locations(record)
                if loc["provider"] == parts[1]
            ]
            if not owned:
                raise ValueError(f"no blobs for {record.object_id!r} at {parts[1]!r}")
            node, blob_id = min(owned)
            cloud.inject(
                simcloud.CorruptBlob(
                    provider=parts[1], node=node, blob_id=blob_id, offset=0, mask=0xFF
                )
            )
        elif kind == "insider":
            cloud.inject(simcloud.InsiderDump(provider=parts[1]))
        else:
            raise ValueError(f"unknown fault kind {kind!r}")


def _check_expectation(
    name: str, router: Router, object_id: str, payload: bytes
) -> bool:
    if name == "get_ok":
        try:
            return router.get(object_id) == payload
        except RouterError:
            return False
    if name == "get_fails":
        try:
            router.get(object_id)
        except RouterError:
            return True
        return False
    if name == "audit_clean":
        return router.audit(object_id).intact
    if name.startswith("audit_detects:"):
        provider = name.split(":", 1)[1]
        report = router.audit(object_id)
        return any(e.provider == provider for e in report.corrupted)
    if name.startswith("insider_safe:"):
        provider = name.split(":", 1)[1]
        if not router.cloud.provider(provider).compromised:
            raise ValueError(f"{name} needs insider:{provider} among the faults")
        dump = router.cloud.insider_dump(provider)
        blob = b"".join(entry.data for entry in dump)
        return not scan_for_bytes(blob, payload)
    raise ValueError(f"unknown expectation {name!r}")


def _cmd_simulate(settings: Settings, args: argparse.Namespace) -> int:
    scenario = parse_kv(Path(args.scenario).read_text())
    payload = _scenario_payload(scenario, settings.seed)
    object_id = scenario.get("object_id", "scenario-object")
    level = SecretLevel(scenario.get("level", "secret"))
    ops = OperationClass(scenario.get("ops", "none"))

    # Scenarios run on a throwaway fleet and stores; nothing persists.
    with tempfile.TemporaryDirectory() as tmp:
        cloud = simcloud.SimCloud.build(settings.topology, credential=settings.credential)
        router = Router(
            cloud=cloud,
            manifest=ManifestStore(str(Path(tmp) / "manifest.cmf")),
            keystore=KeyStore(str(Path(tmp) / "keystore.cmf")),
            policy=settings.policy,
            profiles=settings.profiles,
            rng=random.Random(f"{settings.seed}:{object_id}"),
        )
        obj = DataObject(
            object_id=object_id,
            payload=payload,
            secret_level=level,
            operation_class=ops,
        )
        record = router.put(obj)
        print(f"pipeline={record.pipeline}")

        inject_items = [v for v in scenario.get("inject", "").split() if v]
        _inject_faults(router, record, inject_items)

        expectations = [v for v in scenario.get("expect", "").split() if v]
        all_ok = True
        for name in expectations:
            ok = _check_expectation(name, router, object_id, payload)
            all_ok = all_ok and ok
            print(f"expect.{name}={'pass' if ok else 'fail'}")
        print(f"scenario={'pass' if all_ok else 'fail'}")
        return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _apply_overrides(load_settings(args.config), args)
        handler = {
            "put": _cmd_put,
            "get": _cmd_get,
            "audit": _cmd_audit,
            "rank": _cmd_rank,
            "anonymize": _cmd_anonymize,
            "simulate": _cmd_simulate,
        }[args.command]
        return handler(settings, args)
    except _KNOWN_ERRORS as e:
        print(f"error={type(e).__name__}", file=sys.stderr)
        print(f"message={e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
