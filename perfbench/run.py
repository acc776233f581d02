"""Run one cloudvault workload and print its metrics.

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 20 --trace 0

Workloads: disperse-1m, homomorphic-2k, mixed-small, cli-session (see
workloads.py). The program is imported from ``src/`` of the checkout this
file sits in; nothing is built or installed.

A run sets up its state ``workload.setup_repeats`` times from the seed,
reports the median as ``setup_s`` and checks that every set-up left identical
state. It then issues ops until ``--seconds`` have passed, finishing the current
put/get/audit cycle and at least the workload's count window. Every output is
checked. Times cover every op; counts (``expansion_ratio``,
``local_state_bytes_per_object``, the set-up state totals and the per-layer
counts) and ``peak_rss_mb`` cover only set-up and the count window, so they
do not depend on how many ops fit in the time. Counts are kept in
``.perfbench/counts/`` keyed by workload, seed and a hash of the sources, and
a later run of the same seed and sources that counts differently fails.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the calls
into each module (tracing.py) and reports the per-layer metrics, with
``trace.ops_per_s`` as the traced throughput; the tracing overhead is the
untraced ``ops_per_s`` against it. The last line of output is one JSON
object; the lines before it give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("put_p50_ms", "ms"),
    ("put_tail_ms", "ms"),
    ("get_p50_ms", "ms"),
    ("get_tail_ms", "ms"),
    ("audit_p50_ms", "ms"),
    ("put_mib_per_s", "MiB/s"),
    ("get_mib_per_s", "MiB/s"),
    ("expansion_ratio", "B/B"),
    ("local_state_bytes_per_object", "B"),
    ("peak_rss_mb", "MB"),
]


def tail(samples: list[float], q: float | None) -> tuple[float, str]:
    """The q-quantile by nearest rank, if at least ten samples lie beyond
    it; otherwise (or with q None) the maximum."""
    s = sorted(samples)
    if q is not None:
        idx = math.ceil(q * len(s)) - 1
        if len(s) - 1 - idx >= 10:
            return s[idx], f"p{q * 100:g}"
    return s[-1], "max"


def execute(op) -> tuple[bool, float, Exception | None]:
    """Run one op: (passed its check, seconds taken, what went wrong)."""
    t0 = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as e:  # an op that raises is a failed op
        out, err = None, e
    dt = time.perf_counter() - t0
    try:
        ok = err is None and op.check(out)
    except Exception as e:  # so is one whose output cannot be read
        ok, err = False, e
    return ok, dt, err


def fleet_bytes(cloud) -> int:
    return sum(len(e.data) for pid in cloud.providers for e in cloud.insider_dump(pid))


def local_state_bytes(client) -> int:
    return client.manifest_path.stat().st_size + client.keystore_path.stat().st_size


def source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(key: str, counts: dict[str, float]) -> list[str]:
    """Names of counts that differ from an earlier run under ``key``."""
    path = ROOT / ".perfbench" / "counts" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    old = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in counts.items() if k in old and old[k] != v]
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**old, **counts}, sort_keys=True))
    os.replace(tmp, path)
    return differ


def run(workload, seed: int, seconds: float, trace: bool, toy: bool, work: Path) -> dict:
    import tracing

    scale = workload.toy if toy else workload.full
    problems: list[str] = []

    setup_times, setup_state = [], []
    for i in range(workload.setup_repeats):
        client_root = work / f"setup{i}"
        t0 = time.perf_counter()
        client = workload.setup(client_root, seed, scale)
        setup_times.append(time.perf_counter() - t0)
        setup_state.append(
            (local_state_bytes(client), fleet_bytes(client.cloud()), client.model.payload_bytes)
        )
        if i < workload.setup_repeats - 1:
            # Drop this state before the next set-up builds its own, so that
            # peak_rss_mb never holds two of them.
            client.close()
            client = None
            gc.collect()
            shutil.rmtree(client_root, ignore_errors=True)
    if len(set(setup_state)) != 1:
        problems.append(f"set-ups of one seed left different state: {setup_state}")

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    ops = workload.ops(client, random.Random(f"ops:{seed}"), scale)
    state_before = local_state_bytes(client)
    samples: dict[str, list[float]] = {"put": [], "get": [], "audit": []}
    moved = {"put": 0, "get": 0}
    done: list = []
    counts: dict[str, float] = dict(
        zip(("setup.local_state_bytes", "setup.fleet_bytes", "setup.payload_bytes"), setup_state[0])
    )
    attempted = failed = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        op = next(ops)
        if tracer:
            tracer.op = attempted
        ok, dt, err = execute(op)
        if tracer:
            tracer.op = None
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"failed {op.kind} {op.pipeline}: {err!r}", file=sys.stderr)
        attempted += 1
        busy += dt
        samples[op.kind].append(dt)
        if op.kind in moved:
            moved[op.kind] += op.nbytes
        if tracer:
            done.append(op)
        if attempted == workload.window:
            counts["expansion_ratio"] = fleet_bytes(client.cloud()) / client.model.payload_bytes
            counts["local_state_bytes_per_object"] = (
                local_state_bytes(client) - state_before
            ) / len(client.model.expected)
            # Read here, the peak covers set-up and the same seeded ops on
            # every run of a seed, however many more ops fit in the time.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if op.ends_cycle and attempted >= workload.window and time.perf_counter() - start >= seconds:
            break
    if tracer:
        tracer.uninstall()
    client.close()

    ops_per_s = attempted / busy
    metrics = {"setup_s": (statistics.median(setup_times), len(setup_times), "")}
    metrics["ops_per_s"] = (ops_per_s, attempted, "")
    for kind in ("put", "get", "audit"):
        s = samples[kind]
        metrics[f"{kind}_p50_ms"] = (1e3 * statistics.median(s), len(s), "")
        if kind != "audit":
            value, label = tail(s, workload.tail)
            metrics[f"{kind}_tail_ms"] = (1e3 * value, len(s), label)
            metrics[f"{kind}_mib_per_s"] = (moved[kind] / 2**20 / sum(s), len(s), "")
    for name in ("expansion_ratio", "local_state_bytes_per_object"):
        metrics[name] = (counts[name], workload.window, "window")
    metrics["peak_rss_mb"] = (peak_rss_mb, 1, "window")

    print(
        f"workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"attempted={attempted} failed={failed} error_rate={failed / attempted:g} "
        f"window={workload.window} wall_s={time.perf_counter() - start:.1f}"
    )
    for name, unit in END_TO_END:
        value, n, note = metrics[name]
        print(f"{name}={value:.6g} {unit} samples={n}" + (f" {note}" if note else ""))

    ledger = dict(counts)
    if tracer:
        layer = tracer.metrics(done, workload.window, ops_per_s)
        for name, unit in tracing.PER_LAYER:
            print(f"{name}={layer[name]:.6g} {unit}")
        ledger.update({k: layer[k] for k in tracing.PER_LAYER_COUNTS})
        reported = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        reported = {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}
    key = f"{workload.name}-{'toy' if toy else 'full'}-{seed}-{source_hash()}"
    differ = check_ledger(key, ledger)
    if differ:
        problems.append(f"counts differ from an earlier run of seed {seed}: {differ}")
    for p in problems:
        print(p, file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke tests")
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as e:
        print(f"cannot import cloudvault from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    # The CLI falls back to this variable; the benchmark uses the defaults.
    os.environ.pop("CLOUDVAULT_CONFIG", None)
    work = ROOT / ".perfbench" / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            args.toy,
            work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
