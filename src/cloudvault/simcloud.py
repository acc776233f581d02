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
        """Activate a fault. Idempotent; injecting twice is one fault."""
        if fault.provider != self.provider_id:
            raise UnknownTarget(f"fault addressed to {fault.provider}, not me")
        if isinstance(fault, (NodeUnavailable, CorruptBlob)) and fault.node not in self.nodes:
            raise UnknownTarget(f"provider {self.provider_id} has no node {fault.node!r}")
        if isinstance(fault, CorruptBlob):
            if (fault.node, fault.blob_id) not in self._blobs:
                raise UnknownBlob(f"no blob {fault.blob_id!r} to corrupt")
            if not 1 <= fault.mask <= 255:
                raise ValueError("corruption mask must flip at least one bit")
        self._faults.add(fault)

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
        """Snapshot the fleet to ``simcloud.pack``: a magic, a 4-byte big-endian
        header length, a JSON header, then the blob bytes in header order. It
        is fsynced under a temp name and renamed over the old pack, so a crash
        leaves the old snapshot or the new one; a legacy JSON one is removed."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        header: dict = {"providers": {}, "faults": []}
        blobs = []
        # Id order, as sort_keys orders the header, so bytes match entries.
        for pid, p in sorted(self.providers.items()):
            items = sorted(p._blobs.items())
            header["providers"][pid] = {
                "nodes": p.nodes,
                "credential": p.credential,
                "blobs": [[node, blob_id, len(data)] for (node, blob_id), data in items],
            }
            blobs += [data for _, data in items]
            for fault in sorted(p._faults, key=repr):
                header["faults"].append({"kind": type(fault).__name__, **fault.__dict__})
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        tmp = root / (_PACK + ".tmp")
        with open(tmp, "wb") as f:
            f.write(_MAGIC + struct.pack(">I", len(head)) + head)
            f.writelines(blobs)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, root / _PACK)
        (root / _LEGACY).unlink(missing_ok=True)

    @classmethod
    def load(cls, directory: str | Path) -> "SimCloud":
        """The fleet ``save`` wrote, providers in id order, read from the pack
        or else from a legacy ``simcloud.json``. Raises FileNotFoundError when
        there is neither and SnapshotCorrupt when the pack is damaged."""
        root = Path(directory)
        try:
            raw = memoryview((root / _PACK).read_bytes())
        except FileNotFoundError:
            return cls._load_legacy(root)
        if len(raw) < 8 or raw[:4] != _MAGIC:
            raise SnapshotCorrupt("not a provider snapshot")
        end = 8 + struct.unpack_from(">I", raw, 4)[0]
        if end > len(raw):
            raise SnapshotCorrupt("header runs past the end of the snapshot")
        try:
            header = json.loads(bytes(raw[8:end]))
            providers = []
            for pid, pdata in header["providers"].items():
                p = SimProvider(pid, pdata["nodes"], credential=pdata["credential"])
                for node, blob_id, size in pdata["blobs"]:
                    p._blobs[node, blob_id] = bytes(raw[end : end + size])
                    end += size
                providers.append(p)
            if end != len(raw):
                raise SnapshotCorrupt("blob sizes do not add up to the snapshot length")
            return cls._restore(providers, header["faults"])
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise SnapshotCorrupt(f"unreadable snapshot header: {e}") from None

    @classmethod
    def _load_legacy(cls, root: Path) -> "SimCloud":
        state = json.loads((root / _LEGACY).read_text())
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
            cloud.inject(_FAULT_KINDS[entry.pop("kind")](**entry))
        return cloud
