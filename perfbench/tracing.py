"""Spans around the calls into each cloudvault module, recorded from outside.

``Tracer.install`` replaces module attributes and class methods with timing
wrappers, so references that ``router`` and ``cli`` already hold are covered
(they call ``integrity.encode``, ``self.cloud.provider(p).store_blob`` and so
on through the module or the class). ``rank_providers`` is imported into
``router`` by name, so it is timed through ``Router.ranked_providers``.
``field`` gets no span: its per-element calls would cost more to wrap than
they cost to run, so GF(256) work shows inside the shamir and integrity spans.

Each span is ``[name, start, end, parent, op]`` and stays in memory until the
run ends. A span's self time is its duration minus its children's.
tracemalloc runs only around ``plan_split``, and only in a traced run.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from cloudvault import (
    anonymize,
    cli,
    entropy_split,
    homomorphic,
    integrity,
    persistence,
    router,
    shamir,
    simcloud,
)

# (owner, attribute, span name). Owners that are classes get their method
# replaced on the class, so existing instances see the wrapper too.
SPANS = [
    (entropy_split, "plan_split", "entropy_split.plan"),
    (shamir, "split", "shamir.split"),
    (shamir, "reconstruct", "shamir.reconstruct"),
    (integrity, "encode", "integrity.encode"),
    (integrity, "precompute_tokens", "integrity.tokens"),
    (integrity, "respond", "integrity.respond"),
    (integrity, "challenge", "integrity.challenge"),
    (integrity, "token_table_to_payload", "integrity.token_state"),
    (integrity, "token_table_from_payload", "integrity.token_state"),
    (homomorphic, "keygen", "homomorphic.keygen"),
    (homomorphic, "encrypt", "homomorphic.encrypt"),
    (homomorphic, "decrypt", "homomorphic.decrypt"),
    (anonymize, "anonymize_table", "anonymize.split"),
    (anonymize, "rejoin", "anonymize.rejoin"),
    (router.Router, "ranked_providers", "ranking.rank"),
    (router.Router, "route", "router.route"),
    (router.Router, "put", "router.put"),
    (router.Router, "get", "router.get"),
    (router.Router, "audit", "router.audit"),
    (simcloud.SimProvider, "store_blob", "simcloud.store"),
    (simcloud.SimProvider, "fetch_blob", "simcloud.fetch"),
    (simcloud.SimCloud, "save", "simcloud.save"),
    (simcloud.SimCloud, "load", "simcloud.load"),
    (persistence.RecordLog, "__init__", "persistence.open"),
    (persistence.RecordLog, "append", "persistence.append"),
    (persistence.ManifestStore, "lookup", "persistence.lookup"),
    (persistence.KeyStore, "get", "persistence.keystore_get"),
    (persistence.KeyStore, "put", "persistence.keystore_put"),
    (cli, "main", "cli.main"),
]

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
PER_LAYER = [
    ("entropy_split.plan_ms", "ms"),
    ("entropy_split.plan_peak_mb", "MB"),
    ("shamir.split_ms", "ms"),
    ("shamir.reconstruct_ms", "ms"),
    ("shamir.reconstruct_attempts_per_chunk", "count"),
    ("integrity.encode_ms", "ms"),
    ("integrity.tokens_ms", "ms"),
    ("integrity.respond_ms", "ms"),
    ("integrity.token_state_ms", "ms"),
    ("integrity.challenges_per_audit", "count"),
    ("homomorphic.keygen_ms", "ms"),
    ("homomorphic.encrypt_us_per_byte", "us/B"),
    ("homomorphic.decrypt_us_per_byte", "us/B"),
    ("homomorphic.wire_bytes_per_byte", "B/B"),
    ("anonymize.split_ms", "ms"),
    ("anonymize.rejoin_ms", "ms"),
    ("ranking.rank_us", "us"),
    ("router.route_us", "us"),
    ("router.put_self_ms", "ms"),
    ("router.get_self_ms", "ms"),
    ("router.audit_self_ms", "ms"),
    ("simcloud.store_ms", "ms"),
    ("simcloud.blobs_per_put", "count"),
    ("simcloud.stored_bytes_per_put", "B"),
    ("simcloud.fetch_ms", "ms"),
    ("simcloud.fetched_bytes_per_get", "B"),
    ("simcloud.save_ms", "ms"),
    ("simcloud.load_ms", "ms"),
    ("simcloud.snapshot_bytes", "B"),
    ("persistence.appends_per_op", "count"),
    ("persistence.append_ms", "ms"),
    ("persistence.lookup_ms", "ms"),
    ("persistence.records_scanned_per_lookup", "count"),
    ("persistence.keystore_get_ms", "ms"),
    ("persistence.keystore_bytes_per_audit", "B"),
    ("persistence.open_ms", "ms"),
    ("persistence.log_bytes_loaded", "B"),
    ("cli.self_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
]

# Counts that must repeat exactly for a seed; they are taken over the
# workload's count window, never over the time-bounded tail of the run.
PER_LAYER_COUNTS = {
    "shamir.reconstruct_attempts_per_chunk",
    "integrity.challenges_per_audit",
    "homomorphic.wire_bytes_per_byte",
    "simcloud.blobs_per_put",
    "simcloud.stored_bytes_per_put",
    "simcloud.fetched_bytes_per_get",
    "simcloud.snapshot_bytes",
    "persistence.appends_per_op",
    "persistence.records_scanned_per_lookup",
    "persistence.keystore_bytes_per_audit",
    "persistence.log_bytes_loaded",
}


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


class Tracer:
    """Spans and per-span counters for one run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        # span index -> {counter: amount}
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, idx: int, key: str, amount: float) -> None:
        c = self.counts[idx]
        c[key] = c.get(key, 0) + amount

    def _inside(self, *names: str) -> int | None:
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return idx
        return None

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            before = _BEFORE[name](tracer, idx, args) if name in _BEFORE else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "entropy_split.plan":
                    tracemalloc.stop()
                tracer._close(idx)
                raise
            if after is not None:
                after(tracer, idx, args, result, before)
            tracer._close(idx)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name in SPANS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
        original_records = persistence.RecordLog.records

        def records(log):
            out = original_records(log)
            idx = self._inside("persistence.lookup", "persistence.keystore_get")
            if idx is not None:
                self.count(idx, "records", len(out))
            return out

        self._restore.append((persistence.RecordLog, "records", original_records))
        persistence.RecordLog.records = records

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------

    def metrics(self, ops: list, window: int, ops_per_s: float) -> dict:
        """Per-layer metrics: times over every measured op, counts over the
        first ``window`` ops. ``ops[i]`` is op ``i`` with its ``kind``,
        ``pipeline`` and ``nbytes``. Layers a workload never calls read 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        by_kind: dict[tuple[str, str], float] = defaultdict(float)  # (op kind, counter)
        win: dict[str, float] = defaultdict(float)
        chunks: set[tuple[int, str]] = set()
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_total[name] += dur - child[idx]
            info = ops[op]
            if info.pipeline == "homomorphic" and name in (
                "homomorphic.encrypt",
                "homomorphic.decrypt",
            ):
                by_kind[(info.kind, name)] += dur
            if op >= window:
                continue
            win[name] += 1
            for key, amount in self.counts.get(idx, {}).items():
                if key == "chunk":
                    chunks.add((op, amount))
                else:
                    win[key] += amount
                    if key == "stored_bytes_in_put" and info.pipeline == "homomorphic":
                        win["he_stored_bytes"] += amount

        win_ops = ops[:window]
        n_puts = sum(1 for o in win_ops if o.kind == "put")
        n_gets = sum(1 for o in win_ops if o.kind == "get")
        n_audits = sum(1 for o in win_ops if o.kind == "audit")
        he_put_bytes = sum(o.nbytes for o in ops if o.kind == "put" and o.pipeline == "homomorphic")
        he_get_bytes = sum(o.nbytes for o in ops if o.kind == "get" and o.pipeline == "homomorphic")
        he_win_bytes = sum(
            o.nbytes for o in win_ops if o.kind == "put" and o.pipeline == "homomorphic"
        )
        n_lookups = win["persistence.lookup"] + win["persistence.keystore_get"]

        def per_call_ms(name: str) -> float:
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def self_ms(name: str) -> float:
            return 1e3 * self_total[name] / calls[name] if calls[name] else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m = {
            "entropy_split.plan_ms": per_call_ms("entropy_split.plan"),
            "entropy_split.plan_peak_mb": ratio(win["plan_peak_bytes"], win["entropy_split.plan"])
            / 2**20,
            "shamir.split_ms": per_call_ms("shamir.split"),
            "shamir.reconstruct_ms": per_call_ms("shamir.reconstruct"),
            "shamir.reconstruct_attempts_per_chunk": ratio(
                win["shamir.reconstruct_in_get"], len(chunks)
            ),
            "integrity.encode_ms": per_call_ms("integrity.encode"),
            "integrity.tokens_ms": per_call_ms("integrity.tokens"),
            "integrity.respond_ms": per_call_ms("integrity.respond"),
            "integrity.token_state_ms": per_call_ms("integrity.token_state"),
            "integrity.challenges_per_audit": ratio(win["integrity.challenge"], n_audits),
            "homomorphic.keygen_ms": per_call_ms("homomorphic.keygen"),
            "homomorphic.encrypt_us_per_byte": 1e6
            * ratio(by_kind[("put", "homomorphic.encrypt")], he_put_bytes),
            "homomorphic.decrypt_us_per_byte": 1e6
            * ratio(by_kind[("get", "homomorphic.decrypt")], he_get_bytes),
            "homomorphic.wire_bytes_per_byte": ratio(win["he_stored_bytes"], he_win_bytes),
            "anonymize.split_ms": per_call_ms("anonymize.split"),
            "anonymize.rejoin_ms": per_call_ms("anonymize.rejoin"),
            "ranking.rank_us": 1e3 * per_call_ms("ranking.rank"),
            "router.route_us": 1e3 * per_call_ms("router.route"),
            "router.put_self_ms": self_ms("router.put"),
            "router.get_self_ms": self_ms("router.get"),
            "router.audit_self_ms": self_ms("router.audit"),
            "simcloud.store_ms": per_call_ms("simcloud.store"),
            "simcloud.blobs_per_put": ratio(win["blobs_in_put"], n_puts),
            "simcloud.stored_bytes_per_put": ratio(win["stored_bytes_in_put"], n_puts),
            "simcloud.fetch_ms": per_call_ms("simcloud.fetch"),
            "simcloud.fetched_bytes_per_get": ratio(win["fetched_bytes_in_get"], n_gets),
            "simcloud.save_ms": per_call_ms("simcloud.save"),
            "simcloud.load_ms": per_call_ms("simcloud.load"),
            "simcloud.snapshot_bytes": ratio(win["snapshot_bytes"], win["simcloud.save"]),
            "persistence.appends_per_op": ratio(win["persistence.append"], len(win_ops)),
            "persistence.append_ms": per_call_ms("persistence.append"),
            "persistence.lookup_ms": per_call_ms("persistence.lookup"),
            "persistence.records_scanned_per_lookup": ratio(win["records"], n_lookups),
            "persistence.keystore_get_ms": per_call_ms("persistence.keystore_get"),
            "persistence.keystore_bytes_per_audit": ratio(win["keystore_bytes_in_audit"], n_audits),
            "persistence.open_ms": per_call_ms("persistence.open"),
            "persistence.log_bytes_loaded": ratio(win["log_bytes"], win["persistence.open"]),
            "cli.self_ms": self_ms("cli.main"),
            "trace.ops_per_s": ops_per_s,
        }
        return m


# -- counters taken at span boundaries --------------------------------------
#
# _BEFORE hooks run after the span opens and return a value handed to the
# matching _AFTER hook, which runs before the span closes.


def _op_kind(tracer: Tracer) -> str | None:
    for idx in tracer.stack:
        name = tracer.spans[idx][0]
        if name in ("router.put", "router.get", "router.audit"):
            return name[len("router.") :]
    return None


def _after_store(tracer, idx, args, result, before):
    if _op_kind(tracer) == "put":
        tracer.count(idx, "blobs_in_put", 1)
        tracer.count(idx, "stored_bytes_in_put", len(args[3]))


def _after_fetch(tracer, idx, args, result, before):
    if result is not None and _op_kind(tracer) == "get":
        tracer.count(idx, "fetched_bytes_in_get", len(result))


def _after_save(tracer, idx, args, result, before):
    tracer.count(idx, "snapshot_bytes", _file_size(Path(args[1]) / "simcloud.json"))


def _after_open(tracer, idx, args, result, before):
    tracer.count(idx, "log_bytes", _file_size(args[1]))


def _before_keystore_put(tracer, idx, args):
    return _file_size(args[0].log.path)


def _after_keystore_put(tracer, idx, args, result, before):
    if _op_kind(tracer) == "audit":
        tracer.count(idx, "keystore_bytes_in_audit", _file_size(args[0].log.path) - before)


def _after_reconstruct(tracer, idx, args, result, before):
    if _op_kind(tracer) == "get" and args[0]:
        tracer.count(idx, "shamir.reconstruct_in_get", 1)
        tracer.counts[idx]["chunk"] = args[0][0].object_id


def _before_plan(tracer, idx, args):
    tracemalloc.start()


def _after_plan(tracer, idx, args, result, before):
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracer.count(idx, "plan_peak_bytes", peak)


_BEFORE = {
    "entropy_split.plan": _before_plan,
    "persistence.keystore_put": _before_keystore_put,
}
_AFTER = {
    "entropy_split.plan": _after_plan,
    "simcloud.store": _after_store,
    "simcloud.fetch": _after_fetch,
    "simcloud.save": _after_save,
    "persistence.open": _after_open,
    "persistence.keystore_put": _after_keystore_put,
    "shamir.reconstruct": _after_reconstruct,
}
