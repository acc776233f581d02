"""The common dispatch API: one entry point, pipeline chosen by policy.

A data object arrives with a secret level and the class of operations its
owner still needs over it. Those two inputs alone pick the pipeline:

* top secret data never leaves the machine, whatever operations are asked;
* unclassified data goes to the single best-ranked provider as-is;
* secret data at rest is entropy-split, every chunk threshold-shared across
  providers, and every share covered by precomputed audit tokens;
* secret data still needing arithmetic is stored additively encrypted;
* the advanced analytics tier is refused outright rather than weakened.

``route`` is pure and total over all level/operations combinations: it
always returns a decision, possibly an explicit rejection. ``put`` executes
the decision, ``get`` inverts it, ``audit`` runs integrity challenges with
provider attribution. Placement state lands in the manifest, secrets in the
keystore, and nothing recoverable ever sits with a single provider.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from . import anonymize, entropy_split, homomorphic, integrity, shamir, simcloud
from .persistence import KeyStore, ManifestRecord, ManifestStore, NotFound
from .ranking import ProviderProfile, Weights, order_fleet


class RouterError(Exception):
    pass


class NoProviders(RouterError):
    """Non-local routing with an empty provider set."""


class DuplicateObject(RouterError):
    """The object id is already in the manifest."""


class RouteRejected(RouterError):
    """put() called on an object whose decision is an explicit rejection."""


class PlacementError(RouterError):
    """Share spreading cannot satisfy the no-provider-holds-a-threshold rule."""


class ReconstructionFailed(RouterError):
    """Too few live shares or groups to rebuild the object."""


class IntegrityViolation(RouterError):
    """Reconstructed data does not match its recorded digest."""


class SecretLevel(enum.Enum):
    TOP_SECRET = "top-secret"
    SECRET = "secret"
    UNCLASSIFIED = "unclassified"


class OperationClass(enum.Enum):
    NO_OPERATIONS = "none"
    BASIC_OPERATIONS = "basic"
    ADVANCED_ANALYTICS = "advanced"


class Pipeline(enum.Enum):
    LOCAL_ONLY = "LocalOnly"
    PLAIN_SINGLE_CLOUD = "PlainSingleCloud"
    SPLIT_SHARE_DISPERSE = "SplitShareDisperse"
    HOMOMORPHIC_STORE = "HomomorphicStore"
    REJECTED = "Rejected"


@dataclass(frozen=True)
class DataObject:
    """What callers hand to the dispatcher.

    ``payload`` is either raw bytes or, for tabular data, a list of
    column-named records with str/int cells; tabular objects must name
    their identifier columns.
    """

    object_id: str
    payload: bytes | list
    secret_level: SecretLevel
    operation_class: OperationClass
    id_columns: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "table" if isinstance(self.payload, list) else "bytes"


@dataclass(frozen=True)
class RoutingDecision:
    pipeline: Pipeline
    reason: str = ""
    threshold: int = 0
    share_count: int = 0
    chunk_count: int = 0
    providers: tuple[str, ...] = ()


@dataclass(frozen=True)
class AuditEntry:
    slot: int
    column: int
    provider: str
    node: str
    round_index: int
    verdict: str  # "intact", "corrupted", "unreachable"


@dataclass(frozen=True)
class AuditReport:
    object_id: str
    pipeline: str
    entries: tuple[AuditEntry, ...]

    @property
    def intact(self) -> bool:
        return all(e.verdict == "intact" for e in self.entries)

    @property
    def corrupted(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.verdict == "corrupted"]


@dataclass
class DispersalPolicy:
    """Tunables for the dispersal pipelines; None means derive a default."""

    threshold: int | None = None
    share_count: int | None = None
    chunk_count: int | None = None
    block_size: int = 4096
    token_rounds: int = 16
    audit_rows: int = 16
    he_bits: int = 256
    weights: Weights = dc_field(default_factory=lambda: Weights(1, 1, 1, 1))
    credential: str = ""

    MAX_DEFAULT_CHUNKS = 8

    def resolve(self, provider_count: int) -> tuple[int, int, int]:
        """(threshold, share_count, chunk_count) for this fleet size."""
        n = self.share_count if self.share_count is not None else provider_count
        k = self.threshold if self.threshold is not None else math.ceil((n + 1) / 2)
        c = (
            self.chunk_count
            if self.chunk_count is not None
            else min(self.MAX_DEFAULT_CHUNKS, provider_count)
        )
        return k, n, c


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_bytes(rows: list) -> bytes:
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _parse_group(details: dict, loc: dict, blob: bytes) -> anonymize.GroupData:
    """A fetched table group, or IntegrityViolation if it is malformed or
    carries other columns than the manifest records for it."""
    try:
        group = anonymize.parse_group(blob)
    except ValueError as e:
        raise IntegrityViolation(f"malformed group {loc['blob_id']}: {e}")
    if list(group.columns) != details["group_columns"][loc["group"]]:
        raise IntegrityViolation(f"group {loc['blob_id']} has other columns")
    return group


class Router:
    """Binds a provider fleet, local stores, profiles and policy together."""

    def __init__(
        self,
        cloud: simcloud.SimCloud,
        manifest: ManifestStore,
        keystore: KeyStore,
        policy: DispersalPolicy,
        profiles: Mapping[str, ProviderProfile] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.cloud = cloud
        self.manifest = manifest
        self.keystore = keystore
        self.policy = policy
        self.profiles = dict(profiles or {})
        self.rng = rng if rng is not None else random.Random()

    def close(self) -> None:
        """Close the manifest and the keystore; the fleet holds no files."""
        self.manifest.close()
        self.keystore.close()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- decision ---------------------------------------------------------

    def ranked_providers(self) -> list[str]:
        """Fleet ordered by weighted score; unprofiled providers rank last."""
        return order_fleet(self.cloud.providers, self.profiles, self.policy.weights)

    def route(self, obj: DataObject) -> RoutingDecision:
        """Pure decision for any (level, operations) pair.

        Raises:
            NoProviders: remote pipeline with an empty fleet.
            PlacementError: share spreading cannot keep every provider
                below the threshold.
        """
        level, ops = obj.secret_level, obj.operation_class
        if level is SecretLevel.TOP_SECRET:
            return RoutingDecision(pipeline=Pipeline.LOCAL_ONLY)

        providers = self.ranked_providers()
        if not providers:
            raise NoProviders("no storage providers configured")

        if level is SecretLevel.UNCLASSIFIED:
            return RoutingDecision(
                pipeline=Pipeline.PLAIN_SINGLE_CLOUD, providers=(providers[0],)
            )

        # Secret data; the operations tier picks the mechanism.
        if ops is OperationClass.NO_OPERATIONS:
            k, n, c = self.policy.resolve(len(providers))
            try:
                shamir.ShareScheme(threshold=k, share_count=n)
            except shamir.InvalidScheme as e:
                raise PlacementError(f"unusable scheme parameters k={k}, n={n}: {e}")
            per_provider = math.ceil(n / len(providers))
            if per_provider >= max(k, 2):
                raise PlacementError(
                    f"{n} shares over {len(providers)} providers would give one "
                    f"provider {per_provider} shares with threshold {k}"
                )
            return RoutingDecision(
                pipeline=Pipeline.SPLIT_SHARE_DISPERSE,
                threshold=k,
                share_count=n,
                chunk_count=c,
                providers=tuple(providers),
            )
        if ops is OperationClass.BASIC_OPERATIONS:
            if obj.kind == "table":
                return RoutingDecision(
                    pipeline=Pipeline.REJECTED,
                    reason="homomorphic tier stores byte payloads only",
                )
            return RoutingDecision(
                pipeline=Pipeline.HOMOMORPHIC_STORE, providers=(providers[0],)
            )
        return RoutingDecision(
            pipeline=Pipeline.REJECTED,
            reason="advanced analytics tier not implemented",
        )

    # -- put --------------------------------------------------------------

    def put(self, obj: DataObject) -> ManifestRecord:
        """Execute the routed pipeline and commit the placement record.

        Raises:
            DuplicateObject: the id already has a manifest record.
            RouteRejected: routing decided on explicit rejection.
            ValueError: an empty byte payload, or a table the pipeline
                cannot store.
        """
        try:
            self.manifest.lookup(obj.object_id)
        except NotFound:
            pass
        else:
            raise DuplicateObject(f"object {obj.object_id!r} already stored")

        decision = self.route(obj)
        if decision.pipeline is Pipeline.REJECTED:
            raise RouteRejected(decision.reason)
        if obj.kind == "bytes" and not obj.payload:
            raise ValueError("refusing to store an empty payload")

        if decision.pipeline is Pipeline.LOCAL_ONLY:
            record = self._put_local(obj)
        elif decision.pipeline is Pipeline.PLAIN_SINGLE_CLOUD:
            record = self._put_plain(obj, decision)
        elif decision.pipeline is Pipeline.HOMOMORPHIC_STORE:
            record = self._put_homomorphic(obj, decision)
        elif obj.kind == "table":
            record = self._put_anonymized(obj, decision)
        else:
            record = self._put_dispersed(obj, decision)
        return self.manifest.commit(record)

    def _payload_bytes(self, obj: DataObject) -> bytes:
        return _table_bytes(obj.payload) if obj.kind == "table" else obj.payload

    def _record(
        self, obj: DataObject, pipeline: Pipeline, digest: str, details: dict
    ) -> ManifestRecord:
        details = dict(details)
        details["kind"] = obj.kind
        return ManifestRecord(
            object_id=obj.object_id,
            pipeline=pipeline.value,
            secret_level=obj.secret_level.value,
            operation_class=obj.operation_class.value,
            object_digest=digest,
            details=details,
        )

    def _store(self, provider: str, slot: int, blob_id: str, data: bytes) -> dict:
        """Store one blob on ``provider``'s node for ``slot``; returns its location."""
        target = self.cloud.provider(provider)
        nodes = sorted(target.nodes)
        node = nodes[slot % len(nodes)]
        target.store_blob(node, blob_id, data, credential=self.policy.credential)
        return {"provider": provider, "node": node, "blob_id": blob_id}

    def _put_local(self, obj: DataObject) -> ManifestRecord:
        raw = self._payload_bytes(obj)
        details = {"local_payload": base64.b64encode(raw).decode("ascii")}
        return self._record(obj, Pipeline.LOCAL_ONLY, _sha256(raw), details)

    def _put_plain(self, obj: DataObject, decision: RoutingDecision) -> ManifestRecord:
        raw = self._payload_bytes(obj)
        location = self._store(decision.providers[0], 0, f"{obj.object_id}.blob", raw)
        details = {"location": location}
        return self._record(obj, Pipeline.PLAIN_SINGLE_CLOUD, _sha256(raw), details)

    def _put_homomorphic(self, obj: DataObject, decision: RoutingDecision) -> ManifestRecord:
        raw = obj.payload  # routing keeps tables out of this tier
        keypair = homomorphic.keygen(self.policy.he_bits, self.rng)
        blob = homomorphic.encrypt_bytes(keypair.public, raw, self.rng)
        location = self._store(decision.providers[0], 0, f"{obj.object_id}.he", blob)
        key_ref = f"hekey:{obj.object_id}"
        self.keystore.put(key_ref, {"p": hex(keypair.p), "q": hex(keypair.q)})
        details = {"location": location, "key_ref": key_ref, "count": len(raw)}
        return self._record(obj, Pipeline.HOMOMORPHIC_STORE, _sha256(raw), details)

    def _put_dispersed(self, obj: DataObject, decision: RoutingDecision) -> ManifestRecord:
        raw = obj.payload
        k, n = decision.threshold, decision.share_count
        ring = list(decision.providers)
        self.rng.shuffle(ring)

        # Small payloads cannot honor the configured granularity; shrink the
        # effective block and chunk count rather than refuse the put.
        block = max(1, min(self.policy.block_size, len(raw)))
        chunks_wanted = max(1, decision.chunk_count)
        chunk_count = max(1, min(chunks_wanted, len(raw) // block))
        plan = entropy_split.plan_split(raw, chunk_count, block)
        true_chunks = plan.chunks(raw)
        perm = entropy_split.draw_permutation(self.rng, chunk_count)
        slot_chunks = entropy_split.scatter(true_chunks, perm)

        master_key = self.rng.randbytes(32)
        scheme = shamir.ShareScheme(threshold=k, share_count=n)
        slots = []
        token_payloads = []
        for slot, chunk in enumerate(slot_chunks):
            shares = shamir.split(
                chunk, scheme, self.rng, object_id=f"{obj.object_id}/s{slot}"
            )
            enc = integrity.encode(b"".join(s.payload for s in shares), columns=n)
            locations = [
                {
                    **self._store(
                        ring[(slot + i) % len(ring)],
                        slot,
                        f"{obj.object_id}.s{slot}.c{i}",
                        enc.columns[i],
                    ),
                    "x": share.x,
                }
                for i, share in enumerate(shares)
            ]
            rows = min(self.policy.audit_rows, enc.column_length)
            table = integrity.precompute_tokens(
                enc, self.policy.token_rounds, rows, master_key
            )
            token_payloads.append(integrity.token_table_to_payload(table))
            slots.append({"shares": locations, "share_bytes": len(chunk)})

        integrity_ref = f"itok:{obj.object_id}"
        self.keystore.put(integrity_ref, {"tables": token_payloads})

        details = {
            "scheme": {"threshold": k, "share_count": n},
            "chunk_count": chunk_count,
            "sequence_permutation": list(perm),
            "chunk_digests": [_sha256(c) for c in true_chunks],
            "slots": slots,
            "integrity_ref": integrity_ref,
        }
        return self._record(obj, Pipeline.SPLIT_SHARE_DISPERSE, _sha256(raw), details)

    def _put_anonymized(self, obj: DataObject, decision: RoutingDecision) -> ManifestRecord:
        rows = obj.payload
        if not obj.id_columns:
            raise ValueError("tabular objects must name their identifier columns")
        if not rows:
            raise ValueError("tabular objects need at least one row")
        providers = decision.providers
        groups = anonymize.partition_columns(rows, obj.id_columns, len(providers))

        salt = self.rng.randbytes(32)
        table = anonymize.anonymize_table(rows, obj.id_columns, groups, salt)
        locations = [
            {
                **self._store(
                    providers[g.index % len(providers)],
                    g.index,
                    f"{obj.object_id}.g{g.index}",
                    anonymize.serialize_group(g),
                ),
                "group": g.index,
            }
            for g in table.groups
        ]

        anonymize_ref = f"anon:{obj.object_id}"
        self.keystore.put(
            anonymize_ref,
            {
                "salt": salt.hex(),
                "id_columns": list(table.id_columns),
                "column_order": list(table.column_order),
                "digests": [d.hex() for d in table.digests],
                "mapping": {
                    d.hex(): [["i" if isinstance(v, int) else "s", str(v)] for v in ident]
                    for d, ident in table.local_mapping.items()
                },
            },
        )
        details = {
            "groups": locations,
            "group_columns": [list(g.columns) for g in table.groups],
            "anonymize_ref": anonymize_ref,
        }
        raw = self._payload_bytes(obj)
        return self._record(obj, Pipeline.SPLIT_SHARE_DISPERSE, _sha256(raw), details)

    # -- get ----------------------------------------------------------------

    def get(self, object_id: str) -> bytes | list:
        """Rebuild an object from its manifest record.

        Dispersed reads tolerate up to share_count - threshold shares per
        chunk that are unreachable or silently damaged, in any mix.

        Raises:
            NotFound: unknown object id.
            ReconstructionFailed: too few reachable shares or groups.
            IntegrityViolation: a stored blob is malformed, or rebuilt data
                fails every digest check.
        """
        record = self.manifest.lookup(object_id)
        details = record.details
        pipeline = Pipeline(record.pipeline)
        kind = details.get("kind", "bytes")

        if pipeline is Pipeline.SPLIT_SHARE_DISPERSE:
            if kind == "table":
                return self._get_anonymized(record)
            return self._get_dispersed(record)
        if pipeline is Pipeline.LOCAL_ONLY:
            raw = base64.b64decode(details["local_payload"])
        else:
            raw = self._fetch_or_fail(details["location"])
            if pipeline is Pipeline.HOMOMORPHIC_STORE:
                raw = self._decrypt(details, raw)
        self._check_digest(raw, record.object_digest, "payload")
        return json.loads(raw.decode("utf-8")) if kind == "table" else raw

    def locations(self, record: ManifestRecord) -> list[dict]:
        """Every blob ``record`` placed with a provider, in placement order."""
        details = record.details
        if "location" in details:
            return [details["location"]]
        if "groups" in details:
            return details["groups"]
        return [loc for slot in details.get("slots", ()) for loc in slot["shares"]]

    def _check_digest(self, raw: bytes, digest: str, what: str) -> None:
        if _sha256(raw) != digest:
            raise IntegrityViolation(f"{what} does not match its recorded digest")

    def _fetch(self, location: dict) -> bytes:
        return self.cloud.provider(location["provider"]).fetch_blob(
            location["node"], location["blob_id"], credential=self.policy.credential
        )

    def _fetch_or_fail(self, location: dict) -> bytes:
        try:
            return self._fetch(location)
        except simcloud.SimCloudError as e:
            raise ReconstructionFailed(f"cannot fetch {location['blob_id']}: {e}")

    def _decrypt(self, details: dict, blob: bytes) -> bytes:
        key_data = self.keystore.get(details["key_ref"])
        p, q = int(key_data["p"], 16), int(key_data["q"], 16)
        keypair = homomorphic.KeyPair(public=homomorphic.PublicKey(n=p * q), p=p, q=q)
        try:
            return homomorphic.decrypt_bytes(keypair, blob, details["count"])
        except (ValueError, homomorphic.HomomorphicError) as e:
            raise IntegrityViolation(f"malformed homomorphic blob: {e!r}")

    def _get_dispersed(self, record: ManifestRecord) -> bytes:
        details = record.details
        scheme = shamir.ShareScheme(
            threshold=details["scheme"]["threshold"],
            share_count=details["scheme"]["share_count"],
        )
        perm = details["sequence_permutation"]
        digests = details["chunk_digests"]
        # Slot perm[i] holds original chunk i, so its digest is digests[i].
        slot_digest = {perm[i]: digests[i] for i in range(details["chunk_count"])}

        slot_chunks: list[bytes] = []
        for slot, slot_info in enumerate(details["slots"]):
            shares = []
            for loc in slot_info["shares"]:
                try:
                    payload = self._fetch(loc)
                except simcloud.SimCloudError:
                    continue
                shares.append(
                    shamir.Share(
                        x=loc["x"],
                        payload=payload,
                        scheme=scheme,
                        object_id=f"{record.object_id}/s{slot}",
                    )
                )
            if len(shares) < scheme.threshold:
                raise ReconstructionFailed(
                    f"slot {slot}: {len(shares)} live shares, "
                    f"{scheme.threshold} needed"
                )
            # A provider can answer with damaged bytes rather than an error.
            # The chunk digest tells a clean subset from a poisoned one, so
            # try threshold-sized subsets until one checks out; with at most
            # share_count - threshold corruptions some subset always does.
            chunk = None
            for combo in itertools.combinations(shares, scheme.threshold):
                candidate = shamir.reconstruct(combo)
                if _sha256(candidate) == slot_digest[slot]:
                    chunk = candidate
                    break
            if chunk is None:
                raise IntegrityViolation(
                    f"slot {slot}: no reconstruction matches its recorded digest"
                )
            slot_chunks.append(chunk)

        raw = entropy_split.reassemble(slot_chunks, perm)
        self._check_digest(raw, record.object_digest, "reassembled object")
        return raw

    def _get_anonymized(self, record: ManifestRecord) -> list:
        details = record.details
        key_data = self.keystore.get(details["anonymize_ref"])
        fetched = {
            loc["group"]: _parse_group(details, loc, self._fetch_or_fail(loc))
            for loc in details["groups"]
        }

        mapping = {
            bytes.fromhex(d): tuple(int(v) if kind == "i" else v for kind, v in ident)
            for d, ident in key_data["mapping"].items()
        }
        table = anonymize.AnonymizedTable(
            digests=tuple(bytes.fromhex(d) for d in key_data["digests"]),
            groups=tuple(
                anonymize.GroupData(
                    index=loc["group"],
                    columns=tuple(details["group_columns"][loc["group"]]),
                    digests=(),
                    rows=(),
                )
                for loc in details["groups"]
            ),
            id_columns=tuple(key_data["id_columns"]),
            column_order=tuple(key_data["column_order"]),
            local_mapping=mapping,
        )
        try:
            rows = anonymize.rejoin(table, fetched)
        except (KeyError, anonymize.AnonymizeError) as e:
            raise IntegrityViolation(f"fetched groups do not rejoin: {e!r}")
        self._check_digest(_table_bytes(rows), record.object_digest, "rejoined table")
        return rows

    # -- audit --------------------------------------------------------------

    def audit(self, object_id: str, rounds: int = 1) -> AuditReport:
        """Check what the holders store and attribute any mismatch.

        * Dispersed bytes: ``rounds`` fresh token rounds per stored share,
          through the holders' challenge endpoints. The object's count of
          spent rounds (keystore ``iround:<id>``) is raised and fsynced
          before the first challenge leaves, so no round is sent twice, even
          by an audit that is killed partway.
        * Plain: one fetch, checked as ``get`` checks it (SHA-256 against
          the recorded digest).
        * Homomorphic: one fetch, for reachability only. No digest of the
          ciphertext is recorded, so checking the bytes would mean
          decrypting the whole blob: one modular exponentiation per payload
          byte, as much as a ``get`` costs.
        * Table groups: one fetch each; a group must parse and carry the
          columns the manifest records for it. A group stores no digest of
          its own, so a damaged cell value is seen only by ``get``.
        * Local-only: no remote blob, so no entries.

        Raises:
            ValueError: rounds < 1.
            NotFound: unknown object id.
            integrity.RoundExhausted: fewer than ``rounds`` unspent rounds
                are left; nothing is challenged or written then.
        """
        if rounds < 1:
            raise ValueError(f"audit needs at least one round, got {rounds}")
        record = self.manifest.lookup(object_id)
        details = record.details
        pipeline = Pipeline(record.pipeline)

        if pipeline is Pipeline.SPLIT_SHARE_DISPERSE and "integrity_ref" in details:
            return self._audit_dispersed(record, rounds)

        entries = []
        for loc in self.locations(record):
            try:
                blob = self._fetch(loc)
            except simcloud.SimCloudError:
                verdict = "unreachable"
            else:
                verdict = "intact"
                try:
                    if pipeline is Pipeline.PLAIN_SINGLE_CLOUD:
                        self._check_digest(blob, record.object_digest, "payload")
                    elif pipeline is Pipeline.SPLIT_SHARE_DISPERSE:
                        _parse_group(details, loc, blob)
                except IntegrityViolation:
                    verdict = "corrupted"
            entries.append(
                AuditEntry(
                    slot=loc.get("group", 0),
                    column=0,
                    provider=loc["provider"],
                    node=loc["node"],
                    round_index=0,
                    verdict=verdict,
                )
            )
        return AuditReport(
            object_id=object_id, pipeline=record.pipeline, entries=tuple(entries)
        )

    def _audit_dispersed(self, record: ManifestRecord, rounds: int) -> AuditReport:
        details = record.details
        stored = self.keystore.get(details["integrity_ref"])
        tables = [integrity.token_table_from_payload(p) for p in stored["tables"]]
        # Every audit gives its rounds to every column of every slot in order
        # from round 0, so one count of spent rounds is the object's whole
        # audit state.
        counter = f"iround:{record.object_id}"
        try:
            spent = self.keystore.get(counter)["spent"]
        except NotFound:
            # Earlier releases marked spent rounds in the tables themselves.
            spent = 1 + max(
                (r for p in stored["tables"] for r, _ in p.get("issued", ())), default=-1
            )
        budget = min(t.rounds for t in tables)
        if spent + rounds > budget:
            raise integrity.RoundExhausted(
                f"{budget - spent} of {budget} rounds left, {rounds} asked"
            )
        # Write ahead: the rounds are spent before the first challenge leaves,
        # so an audit killed midway can never send them again.
        self.keystore.put(counter, {"spent": spent + rounds})

        entries = []
        for slot, slot_info in enumerate(details["slots"]):
            table = tables[slot]
            for column, loc in enumerate(slot_info["shares"]):
                for round_index in range(spent, spent + rounds):
                    msg = integrity.challenge(table, round_index, column)
                    wire = integrity.serialize_challenge(msg)
                    try:
                        reply = self.cloud.provider(loc["provider"]).respond_challenge(
                            loc["node"],
                            loc["blob_id"],
                            wire,
                            credential=self.policy.credential,
                        )
                    except simcloud.SimCloudError:
                        verdict = "unreachable"
                    else:
                        value = integrity.parse_response(reply)
                        result = integrity.verify(table, round_index, column, value)
                        verdict = "intact" if result.intact else "corrupted"
                    entries.append(
                        AuditEntry(
                            slot=slot,
                            column=column,
                            provider=loc["provider"],
                            node=loc["node"],
                            round_index=round_index,
                            verdict=verdict,
                        )
                    )
        return AuditReport(
            object_id=record.object_id, pipeline=record.pipeline, entries=tuple(entries)
        )
