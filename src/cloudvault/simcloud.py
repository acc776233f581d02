"""In-process simulated storage providers with injectable fault behaviors.

Each provider is a plain object exposing exactly what a remote blob service
would: store, fetch, and a server-side audit computation that combines
sampled rows of a stored blob so integrity checks never pull the blob back.
Faults are values, not mutations: injecting one overlays the behavior
(a node goes dark, a fetch returns flipped bytes) and never touches the
stored bytes. Faults live in memory only, for the process that injected
them: a save never writes them and a load starts with none.

The insider view is first-class: ``insider_dump`` returns every blob a
provider holds, in deterministic (node, blob id) order, which is what the
confidentiality harnesses feed their attackers.

Authentication against real providers is out of scope; a static credential
string stands in for it here.

The fleet persists as ``simcloud.pack``, a sequence of frames. Each frame is
the magic ``CVS1``, a 4-byte big-endian header length, a JSON header
``{providers: {pid: {nodes, credential, blobs: [[node, id, size]]}}}`` and
then the blob bytes in header order. A full save writes one frame holding
everything; a later save appends one frame holding only the blobs that
``store_blob`` recorded since the last load or save. Load reads only the
frame headers and merges them in order, indexing each blob's offset and
size: a later blob under the same (node, id) replaces the earlier one. A
body is read from the pack the first time a fetch, a challenge, a dump or
a compaction needs it, so a command reads the headers and its own blobs,
not the fleet. Load ignores a ``faults`` key, which older packs and
``simcloud.json`` carry.
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

_PACK = "simcloud.pack"
_LEGACY = "simcloud.json"  # the snapshot older versions wrote
_MAGIC = b"CVS1"


@dataclass
class _Pack:
    """The pack at ``path`` as the cloud last read or wrote it: the file's
    (device, inode), its clean length, the JSON bytes of the first frame's
    header and of all later ones together, and live and superseded body
    bytes."""

    path: Path
    identity: tuple[int, int]
    length: int
    first_head: int = 0
    later_heads: int = 0
    live: int = 0
    dead: int = 0

    def read(self, offset: int, size: int) -> bytes:
        """The ``size`` body bytes at ``offset``.

        Raises:
            SnapshotCorrupt: the pack is no longer this file, or is shorter
                than the clean length.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            raise SnapshotCorrupt(f"{self.path} is gone since it was loaded") from None
        try:
            st = os.fstat(fd)
            if (st.st_dev, st.st_ino) != self.identity or st.st_size < self.length:
                raise SnapshotCorrupt(f"{self.path} was replaced or cut since it was loaded")
            return os.pread(fd, size, offset)
        finally:
            os.close(fd)


class _Unread:
    """A blob whose body is still in the pack: ``size`` bytes at ``offset``."""

    __slots__ = ("pack", "offset", "size")

    def __init__(self, pack: _Pack, offset: int, size: int) -> None:
        self.pack = pack
        self.offset = offset
        self.size = size

    def __len__(self) -> int:
        return self.size


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
        self._blobs: dict[tuple[str, str], bytes | _Unread] = {}
        # Blobs stored since the last load or save, each with the size of
        # the body the pack holds under its key (0 for none).
        self._unsaved: dict[tuple[str, str], int] = {}
        self._faults: set[Fault] = set()

    def _auth(self, credential: str) -> None:
        if credential != self.credential:
            raise AuthFailed(f"bad credential for provider {self.provider_id}")

    def _check_node(self, node: str) -> None:
        if node not in self.nodes:
            raise UnknownTarget(f"provider {self.provider_id} has no node {node!r}")
        if NodeUnavailable(self.provider_id, node) in self._faults:
            raise Unavailable(f"{self.provider_id}/{node} is down")

    def _body(self, node: str, blob_id: str) -> bytes:
        """The stored bytes, read from the pack on first use."""
        data = self._blobs.get((node, blob_id))
        if data is None:
            raise UnknownBlob(f"no blob {blob_id!r} on {self.provider_id}/{node}")
        if isinstance(data, _Unread):
            data = self._blobs[node, blob_id] = data.pack.read(data.offset, data.size)
        return data

    def _served(self, node: str, blob_id: str) -> bytes:
        """The bytes this node would return right now, overlays applied."""
        data = self._body(node, blob_id)
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
        key = (node, blob_id)
        if key not in self._unsaved:
            self._unsaved[key] = len(self._blobs.get(key, b""))
        self._blobs[key] = bytes(data)

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
        if fault.provider != self.provider_id:
            raise UnknownTarget(f"fault addressed to {fault.provider}, not me")
        if isinstance(fault, (NodeUnavailable, CorruptBlob)) and fault.node not in self.nodes:
            raise UnknownTarget(f"provider {self.provider_id} has no node {fault.node!r}")
        if isinstance(fault, CorruptBlob):
            blob = self._blobs.get((fault.node, fault.blob_id))
            if blob is None:
                raise UnknownBlob(f"no blob {fault.blob_id!r} to corrupt")
            if not 1 <= fault.mask <= 255:
                raise ValueError("corruption mask must flip at least one bit")
            if not 0 <= fault.offset < len(blob):
                raise ValueError(f"offset {fault.offset} outside a {len(blob)}-byte blob")
        self._faults.add(fault)

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
        self._pack: _Pack | None = None
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

    def insider_dump(self, provider_id: str) -> list[DumpEntry]:
        return self.provider(provider_id).insider_dump()

    def save(self, directory: str | Path) -> None:
        """Snapshot the fleet to ``simcloud.pack`` in ``directory``.

        When the pack there is still the file this cloud read or last
        wrote, at the clean length it left, save appends and fsyncs one
        frame with the blobs ``store_blob`` recorded since then, or writes
        nothing if there are none. Faults are never written. Otherwise, and
        when a compaction is due, it reads every body not yet read, writes
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

    def _frame(self, blobs: dict[str, list]) -> tuple[bytes, list]:
        """The header and bodies of a frame holding ``blobs``, a sorted list
        of ((node, id), data) per provider."""
        header = {
            "providers": {
                pid: {
                    "nodes": self.providers[pid].nodes,
                    "credential": self.providers[pid].credential,
                    "blobs": [[node, blob_id, len(data)] for (node, blob_id), data in items],
                }
                for pid, items in blobs.items()
            },
        }
        # Id order, as sort_keys orders the header, so bytes match entries.
        bodies = [data for pid in sorted(blobs) for _, data in blobs[pid]]
        return json.dumps(header, sort_keys=True).encode("utf-8"), bodies

    def _append(self, pack: Path) -> bool:
        """Append what ``store_blob`` recorded since the pack was read or
        written; False when the pack has to be rewritten instead. A fleet's
        providers and their nodes are fixed when it is built, and no call
        removes a blob, so the blobs stored are the whole change."""
        old = self._pack
        if old is None or old.path != pack:
            return False
        try:
            st = os.stat(pack)
        except FileNotFoundError:
            return False
        if (st.st_dev, st.st_ino) != old.identity or st.st_size != old.length:
            return False
        changed = {
            pid: [(key, p._blobs[key]) for key in sorted(p._unsaved)]
            for pid, p in self.providers.items()
            if p._unsaved
        }
        if not changed:
            return True
        replaced = sum(sum(p._unsaved.values()) for p in self.providers.values())
        head, bodies = self._frame(changed)
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
        for p in self.providers.values():
            p._unsaved.clear()
        return True

    def _rewrite(self, pack: Path) -> None:
        # Every body is read before the old pack is replaced.
        head, bodies = self._frame(
            {
                pid: [(key, p._body(*key)) for key in sorted(p._blobs)]
                for pid, p in self.providers.items()
            }
        )
        pack.parent.mkdir(parents=True, exist_ok=True)
        tmp = pack.with_name(_PACK + ".tmp")
        with open(tmp, "wb") as f:
            fsync_file(f, _MAGIC + struct.pack(">I", len(head)) + head, *bodies)
            st = os.fstat(f.fileno())
        os.replace(tmp, pack)
        (pack.parent / _LEGACY).unlink(missing_ok=True)
        fsync_dir(pack.parent)
        live = sum(map(len, bodies))
        self._pack = _Pack(
            pack, (st.st_dev, st.st_ino), 8 + len(head) + live, first_head=len(head), live=live
        )
        for p in self.providers.values():
            p._unsaved.clear()

    @classmethod
    def load(cls, directory: str | Path) -> "SimCloud":
        """The fleet ``save`` wrote, providers in id order and no fault
        active, read from the pack or else from a legacy ``simcloud.json``.
        Only the pack's frame headers are read here; each body is read when
        first needed, and fails with SnapshotCorrupt if the pack is by then
        another file or shorter. Raises FileNotFoundError when there is
        neither and SnapshotCorrupt when the one found is damaged; a torn
        last frame that is not the first is a crash mid-append, and is
        skipped."""
        pack = Path(directory).absolute() / _PACK
        try:
            fd = os.open(pack, os.O_RDONLY)
        except FileNotFoundError:
            fd = None
            legacy = (pack.parent / _LEGACY).read_bytes()
        try:
            return cls._load_legacy(legacy) if fd is None else cls._load_pack(fd, pack)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise SnapshotCorrupt(f"unreadable snapshot: {e!r}") from None
        finally:
            if fd is not None:
                os.close(fd)

    @classmethod
    def _load_pack(cls, fd: int, pack: Path) -> "SimCloud":
        st = os.fstat(fd)
        tracked = _Pack(pack, (st.st_dev, st.st_ino), 0)
        fleet: dict[str, SimProvider] = {}
        heads: list[int] = []
        at = total = dead = 0
        while at < st.st_size:
            frame = _read_frame(fd, at, st.st_size)
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
                    key = node, blob_id
                    if key in blobs:
                        dead += len(blobs[key])
                    blobs[key] = _Unread(tracked, body, size)
                    body += size
            at = end
        if not heads:
            raise SnapshotCorrupt("not a provider snapshot")
        tracked.length = at
        tracked.first_head = heads[0]
        tracked.later_heads = sum(heads[1:])
        tracked.live = total - dead
        tracked.dead = dead
        cloud = cls(fleet[pid] for pid in sorted(fleet))
        cloud._pack = tracked
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
        return cls(providers)


def _read_frame(fd: int, at: int, length: int) -> tuple[dict, int, int] | None:
    """The header, body start and end of the frame at ``at`` of the
    ``length``-byte pack open as ``fd``, reading its header only, or None
    when the bytes from ``at`` are a proper prefix of a frame."""
    lead = os.pread(fd, 8, at)
    if lead[:4] != _MAGIC[: len(lead)]:
        raise SnapshotCorrupt(f"no frame at offset {at} of the snapshot")
    if len(lead) < 8:
        return None
    body = at + 8 + struct.unpack_from(">I", lead, 4)[0]
    if body > length:
        return None
    header = json.loads(os.pread(fd, body - at - 8, at + 8))
    sizes = [size for p in header["providers"].values() for _, _, size in p["blobs"]]
    end = body + sum(sizes)
    # A size that is not a number fails the sum; a float one makes it a float.
    if min(sizes, default=0) < 0 or not isinstance(end, int):
        raise SnapshotCorrupt(f"a blob size that is not a count in the frame at offset {at}")
    if end > length:
        return None
    return header, body, end
