"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads mixed-small,cli-session --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --traced 5 --json perfbench/baseline.json

For every metric it prints the median over the seeds, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median. ``--traced N`` also runs each of the first N seeds
traced, right after its untraced run, and prints the per-layer medians and
the tracing overhead: the median over those pairs of untraced ``ops_per_s``
over traced ``trace.ops_per_s``, minus one. Pairing keeps the machine's own
drift out of the ratio. Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def summarise(results: list[dict]) -> dict[str, dict]:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma separated; default: BENCHMARK.json's")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--traced", type=int, default=0, help="also run this many seeds traced")
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    report = {}
    for workload in names:
        plain, traced = [], []
        for i, s in enumerate(seeds):
            plain.append(one_run(workload, s, seconds, False))
            if i < args.traced:
                traced.append(one_run(workload, s, seconds, True))
        entry = {"seeds": seeds, "seconds": seconds, "end_to_end": summarise(plain)}
        print(f"== {workload} (seeds {args.seeds}, {seconds} s)")
        for name, m in entry["end_to_end"].items():
            print(f"{name:32s} {m['median']:12.6g} {m['unit']:6s} q1={m['q1']:.6g} "
                  f"q3={m['q3']:.6g} spread={m['spread']:.3f}")
        if traced:
            entry["per_layer"] = summarise(traced)
            entry["trace_overhead"] = statistics.median(
                p["metrics"]["ops_per_s"]["value"] / t["metrics"]["trace.ops_per_s"]["value"] - 1
                for p, t in zip(plain, traced)
            )
            for name, m in entry["per_layer"].items():
                print(f"{name:40s} {m['median']:12.6g} {m['unit']}")
            print(f"trace overhead: {100 * entry['trace_overhead']:.1f}% "
                  f"(median over {len(traced)} untraced/traced pairs of ops_per_s)")
        report[workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
