"""In-process simulated storage providers with injectable fault behaviors.

Each provider is a plain object exposing exactly what a remote blob service
would: store, fetch, and a server-side audit computation that combines
sampled rows of a stored blob so integrity checks never pull the blob back.
Faults are values, not mutations: injecting one overlays the behavior
(a node goes dark, a fetch returns flipped bytes), clearing it restores the
original blob bit for bit. That keeps scenarios reversible and lets tests
tear down cleanly.

The insider view is first-class: ``insider_dump`` returns every blob a
provider holds, in deterministic (node, blob id) order, which is what the
confidentiality harnesses feed their attackers.

Authentication against real providers is out of scope; a static credential
string stands in for it here.

The fleet persists as ``simcloud.pack``, a sequence of frames. Each frame is
the magic ``CVS1``, a 4-byte big-endian header length, a JSON header
``{providers: {pid: {nodes, credential, blobs: [[node, id, size]]}},
faults}`` and then the blob bytes in header order. A full save writes one
frame holding everything; a later save appends one frame holding only the
blobs stored since, plus the whole fault list. Load merges the frames in
order: a later blob under the same (node, id) replaces the earlier one, and
the last frame's faults are the fault set.
"""

from __future__ import annotations

import base64
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import integrity
from .persistence import fsync_dir, fsync_file


class SimCloudError(Exception):
    pass


class Unavailable(SimCloudError):
    """The node is down (an availability fault is active)."""


class UnknownBlob(SimCloudError):
    """No blob under that id on that node."""


class UnknownTarget(SimCloudError):
    """Provider or node named by a call or fault does not exist."""


class AuthFailed(SimCloudError):
    """Credential mismatch; stands in for real provider authentication."""


class SnapshotCorrupt(SimCloudError):
    """The provider snapshot is truncated or malformed."""


@dataclass(frozen=True)
class NodeUnavailable:
    provider: str
    node: str


@dataclass(frozen=True)
class CorruptBlob:
    """Flip stored bytes: xor ``mask`` into the byte at ``offset``."""

    provider: str
    node: str
    blob_id: str
    offset: int
    mask: int


@dataclass(frozen=True)
class InsiderDump:
    """Marks the provider compromised for scenario reporting."""

    provider: str


Fault = NodeUnavailable | CorruptBlob | InsiderDump
_FAULT_KINDS = {k.__name__: k for k in (NodeUnavailable, CorruptBlob, InsiderDump)}

_PACK = "simcloud.pack"
_LEGACY = "simcloud.json"  # the snapshot older versions wrote
_MAGIC = b"CVS1"


@dataclass
class _Packed:
    """What the pack at ``path`` holds, as the cloud last read or wrote it:
    its clean length, the JSON bytes of the first frame's header and of all
    later ones together, live and superseded body bytes, each provider's
    blob objects, and the fault set."""

    path: Path
    length: int
    first_head: int
    later_heads: int
    live: int
    dead: int
    blobs: dict[str, dict[tuple[str, str], bytes]]
    faults: frozenset


@dataclass(frozen=True)
class DumpEntry:
    node: str
    depth: int
    blob_id: str
    data: bytes


class SimProvider:
    """One provider: named nodes at hierarchy depths, each holding blobs."""

    def __init__(
        self,
        provider_id: str,
        nodes: Mapping[str, int],
        credential: str = "",
    ) -> None:
        if not nodes:
            raise ValueError("a provider needs at least one node")
        for node, depth in nodes.items():
            if depth < 0:
                raise ValueError(f"node {node!r} has negative depth")
        self.provider_id = provider_id
        self.nodes = dict(nodes)
        self.credential = credential
        self._blobs: dict[tuple[str, str], bytes] = {}
        self._faults: set[Fault] = set()

    def _auth(self, credential: str) -> None:
        if credential != self.credential:
            raise AuthFailed(f"bad credential for provider {self.provider_id}")

    def _check_node(self, node: str) -> None:
        if node not in self.nodes:
            raise UnknownTarget(f"provider {self.provider_id} has no node {node!r}")
        if NodeUnavailable(self.provider_id, node) in self._faults:
            raise Unavailable(f"{self.provider_id}/{node} is down")

    def _served(self, node: str, blob_id: str) -> bytes:
        """The bytes this node would return right now, overlays applied."""
        data = self._blobs.get((node, blob_id))
        if data is None:
            raise UnknownBlob(f"no blob {blob_id!r} on {self.provider_id}/{node}")
        data = bytes(data)  # a loaded blob is a view into the pack's bytes
        for fault in self._faults:
            if (
                isinstance(fault, CorruptBlob)
                and fault.node == node
                and fault.blob_id == blob_id
                and fault.offset < len(data)
            ):
                mutated = bytearray(data)
                mutated[fault.offset] ^= fault.mask
                data = bytes(mutated)
        return data

    def store_blob(self, node: str, blob_id: str, data: bytes, credential: str = "") -> None:
        self._auth(credential)
        self._check_node(node)
        self._blobs[(node, blob_id)] = bytes(data)

    def fetch_blob(self, node: str, blob_id: str, credential: str = "") -> bytes:
        self._auth(credential)
        self._check_node(node)
        return self._served(node, blob_id)

    def respond_challenge(
        self, node: str, blob_id: str, message: bytes, credential: str = ""
    ) -> bytes:
        """Server-side audit computation over the blob as currently served."""
        self._auth(credential)
        self._check_node(node)
        msg = integrity.parse_challenge(message)
        value = integrity.respond(self._served(node, blob_id), msg)
        return integrity.encode_response(value)

    def inject(self, fault: Fault) -> None:
        """Activate a fault. Idempotent; injecting twice is one fault. A
        CorruptBlob's offset must fall inside the blob as stored now."""
        self._admit(fault)
        if isinstance(fault, CorruptBlob):
            size = len(self._blobs[fault.node, fault.blob_id])
            if fault.offset >= size:
                raise ValueError(f"offset {fault.offset} outside a {size}-byte blob")
        self._faults.add(fault)

    def _admit(self, fault: Fault) -> None:
        """Checks that hold for as long as the fault stays active; a
        snapshot's faults are restored through these alone, because a blob
        may have been re-stored shorter since its fault was injected."""
        if fault.provider != self.provider_id:
            raise UnknownTarget(f"fault addressed to {fault.provider}, not me")
        if isinstance(fault, (NodeUnavailable, CorruptBlob)) and fault.node not in self.nodes:
            raise UnknownTarget(f"provider {self.provider_id} has no node {fault.node!r}")
        if isinstance(fault, CorruptBlob):
            if (fault.node, fault.blob_id) not in self._blobs:
                raise UnknownBlob(f"no blob {fault.blob_id!r} to corrupt")
            if not 1 <= fault.mask <= 255:
                raise ValueError("corruption mask must flip at least one bit")
            if fault.offset < 0:
                raise ValueError(f"negative corruption offset {fault.offset}")

    def clear(self, fault: Fault) -> None:
        """Deactivate a fault; the original stored bytes were never touched."""
        self._faults.discard(fault)

    def clear_all(self) -> None:
        self._faults.clear()

    @property
    def compromised(self) -> bool:
        return any(isinstance(f, InsiderDump) for f in self._faults)

    def insider_dump(self) -> list[DumpEntry]:
        """Everything this provider holds, as the insider sees it.

        Needs no fault and no credential: the insider is already inside.
        Entries are sorted by (node, blob id) so dumps are reproducible.
        """
        out = []
        for (node, blob_id) in sorted(self._blobs):
            out.append(
                DumpEntry(
                    node=node,
                    depth=self.nodes[node],
                    blob_id=blob_id,
                    data=self._served(node, blob_id),
                )
            )
        return out


class SimCloud:
    """A fleet of providers addressed by id."""

    def __init__(self, providers: Iterable[SimProvider]) -> None:
        self.providers: dict[str, SimProvider] = {}
        self._packed: _Packed | None = None
        for p in providers:
            if p.provider_id in self.providers:
                raise ValueError(f"duplicate provider id {p.provider_id!r}")
            self.providers[p.provider_id] = p

    @classmethod
    def build(
        cls,
        topology: Mapping[str, Mapping[str, int]],
        credential: str = "",
    ) -> "SimCloud":
        """Construct a fleet from {provider: {node: depth}}."""
        return cls(
            SimProvider(pid, nodes, credential=credential)
            for pid, nodes in topology.items()
        )

    def provider(self, provider_id: str) -> SimProvider:
        p = self.providers.get(provider_id)
        if p is None:
            raise UnknownTarget(f"no provider {provider_id!r}")
        return p

    def inject(self, fault: Fault) -> None:
        self.provider(fault.provider).inject(fault)

    def clear(self, fault: Fault) -> None:
        self.provider(fault.provider).clear(fault)

    def insider_dump(self, provider_id: str) -> list[DumpEntry]:
        return self.provider(provider_id).insider_dump()

    def save(self, directory: str | Path) -> None:
        """Snapshot the fleet to ``simcloud.pack`` in ``directory``.

        When the pack there still has the clean length this cloud read or
        last wrote, save appends and fsyncs one frame with the blobs stored
        or replaced since then and the full fault list, or writes nothing if
        neither changed. Otherwise, and when a compaction is due, it writes
        the whole fleet as one frame under a temp name, fsyncs it, renames
        it over the old pack, removes a legacy JSON snapshot and fsyncs the
        directory, so a crash leaves the old snapshot or the new one.

        Compaction is due when the appended frames' headers would hold more
        JSON than the first frame's, or superseded blob bytes would outweigh
        live ones. A crash mid-append leaves a torn last frame, which load
        skips and the next save rewrites away."""
        pack = Path(directory).absolute() / _PACK
        if not self._append(pack):
            self._rewrite(pack)

    def _faults(self) -> frozenset:
        return frozenset(f for p in self.providers.values() for f in p._faults)

    def _frame(self, blobs: dict[str, list], faults: frozenset) -> tuple[bytes, list]:
        """The header and bodies of a frame holding ``blobs``, a sorted list
        of ((node, id), data) per provider, and ``faults``."""
        header = {
            "providers": {
                pid: {
                    "nodes": self.providers[pid].nodes,
                    "credential": self.providers[pid].credential,
                    "blobs": [[node, blob_id, len(data)] for (node, blob_id), data in items],
                }
                for pid, items in blobs.items()
            },
            "faults": [
                {"kind": type(f).__name__, **f.__dict__}
                for f in sorted(faults, key=lambda f: (f.provider, repr(f)))
            ],
        }
        # Id order, as sort_keys orders the header, so bytes match entries.
        bodies = [data for pid in sorted(blobs) for _, data in blobs[pid]]
        return json.dumps(header, sort_keys=True).encode("utf-8"), bodies

    def _append(self, pack: Path) -> bool:
        """Append what changed since the pack was read or written; False
        when the pack has to be rewritten instead. A fleet's providers and
        their nodes are fixed when it is built, and no call removes a blob,
        so the blobs stored or replaced and the faults are the whole change."""
        old = self._packed
        if old is None or old.path != pack:
            return False
        try:
            if os.stat(pack).st_size != old.length:
                return False
        except FileNotFoundError:
            return False
        changed: dict[str, list] = {}
        replaced = 0
        for pid, p in self.providers.items():
            held = old.blobs[pid]
            new = sorted(item for item in p._blobs.items() if held.get(item[0]) is not item[1])
            if new:
                changed[pid] = new
                replaced += sum(len(held[key]) for key, _ in new if key in held)
        faults = self._faults()
        if not changed and faults == old.faults:
            return True
        head, bodies = self._frame(changed, faults)
        added = sum(map(len, bodies))
        if (
            old.later_heads + len(head) > old.first_head
            or old.dead + replaced > old.live - replaced + added
        ):
            return False
        with open(pack, "ab") as f:
            fsync_file(f, _MAGIC + struct.pack(">I", len(head)) + head, *bodies)
        old.length += 8 + len(head) + added
        old.later_heads += len(head)
        old.live += added - replaced
        old.dead += replaced
        for pid, items in changed.items():
            old.blobs[pid].update(items)
        old.faults = faults
        return True

    def _rewrite(self, pack: Path) -> None:
        pack.parent.mkdir(parents=True, exist_ok=True)
        faults = self._faults()
        head, bodies = self._frame(
            {pid: sorted(p._blobs.items()) for pid, p in self.providers.items()}, faults
        )
        tmp = pack.with_name(_PACK + ".tmp")
        with open(tmp, "wb") as f:
            fsync_file(f, _MAGIC + struct.pack(">I", len(head)) + head, *bodies)
        os.replace(tmp, pack)
        (pack.parent / _LEGACY).unlink(missing_ok=True)
        fsync_dir(pack.parent)
        live = sum(map(len, bodies))
        self._packed = self._track(pack, 8 + len(head) + live, [len(head)], live, 0)

    def _track(self, pack: Path, length: int, heads: list[int], live: int, dead: int) -> _Packed:
        return _Packed(
            path=pack,
            length=length,
            first_head=heads[0],
            later_heads=sum(heads[1:]),
            live=live,
            dead=dead,
            blobs={pid: dict(p._blobs) for pid, p in self.providers.items()},
            faults=self._faults(),
        )

    @classmethod
    def load(cls, directory: str | Path) -> "SimCloud":
        """The fleet ``save`` wrote, providers in id order, read from the pack
        or else from a legacy ``simcloud.json``. Blobs stay views into the
        one read of the pack. Raises FileNotFoundError when there is neither
        and SnapshotCorrupt when the one found is damaged; a torn last frame
        that is not the first is a crash mid-append, and is skipped."""
        pack = Path(directory).absolute() / _PACK
        try:
            raw = pack.read_bytes()
            legacy = None
        except FileNotFoundError:
            legacy = (pack.parent / _LEGACY).read_bytes()
        try:
            return cls._load_pack(raw, pack) if legacy is None else cls._load_legacy(legacy)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise SnapshotCorrupt(f"unreadable snapshot: {e!r}") from None

    @classmethod
    def _load_pack(cls, raw: bytes, pack: Path) -> "SimCloud":
        view = memoryview(raw)
        fleet: dict[str, SimProvider] = {}
        heads: list[int] = []
        at = total = dead = 0
        faults: list[dict] = []
        while at < len(view):
            frame = _read_frame(view, at)
            if frame is None:
                if not heads:
                    raise SnapshotCorrupt("the first frame runs past the end of the snapshot")
                break
            header, body, end = frame
            heads.append(body - at - 8)
            total += end - body
            for pid, pdata in header["providers"].items():
                if pid not in fleet:
                    fleet[pid] = SimProvider(pid, pdata["nodes"], credential=pdata["credential"])
                blobs = fleet[pid]._blobs
                for node, blob_id, size in pdata["blobs"]:
                    dead += len(blobs.get((node, blob_id), b""))
                    blobs[node, blob_id] = view[body : body + size]
                    body += size
            faults = header["faults"]
            at = end
        if not heads:
            raise SnapshotCorrupt("not a provider snapshot")
        cloud = cls._restore([fleet[pid] for pid in sorted(fleet)], faults)
        cloud._packed = cloud._track(pack, at, heads, total - dead, dead)
        return cloud

    @classmethod
    def _load_legacy(cls, text: bytes) -> "SimCloud":
        state = json.loads(text)
        providers = []
        for pid, pdata in state["providers"].items():
            p = SimProvider(pid, pdata["nodes"], credential=pdata["credential"])
            for blob in pdata["blobs"]:
                p._blobs[(blob["node"], blob["blob_id"])] = base64.b64decode(blob["data"])
            providers.append(p)
        return cls._restore(providers, state["faults"])

    @classmethod
    def _restore(cls, providers: list[SimProvider], faults: list[dict]) -> "SimCloud":
        cloud = cls(providers)
        for entry in faults:
            fault = _FAULT_KINDS[entry.pop("kind")](**entry)
            holder = cloud.provider(fault.provider)
            holder._admit(fault)
            holder._faults.add(fault)
        return cloud


def _read_frame(view: memoryview, at: int) -> tuple[dict, int, int] | None:
    """The header, body start and end of the frame at ``at``, or None when
    the bytes from ``at`` are a proper prefix of a frame."""
    if view[at : at + 4] != _MAGIC[: len(view) - at]:
        raise SnapshotCorrupt(f"no frame at offset {at} of the snapshot")
    if len(view) - at < 8:
        return None
    body = at + 8 + struct.unpack_from(">I", view, at + 4)[0]
    if body > len(view):
        return None
    header = json.loads(bytes(view[at + 8 : body]))
    sizes = [size for p in header["providers"].values() for _, _, size in p["blobs"]]
    if min(sizes, default=0) < 0:
        raise SnapshotCorrupt(f"a negative blob size in the frame at offset {at}")
    end = body + sum(sizes)
    if end > len(view):
        return None
    return header, body, end
