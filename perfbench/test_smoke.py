"""Smoke tests for the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--toy"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit_and_no_op_fails(workload):
    common = ["--workload", workload, "--seed", "7", "--seconds", "0.2"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result, lines = bench(*common, "--trace", trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert f"error_rate=0 " in lines[0]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for name, unit in want.items():
            assert any(line.startswith(f"{name}=") and f" {unit}" in line for line in lines)
    # The same seed again: the count ledger must find identical counts.
    again, _ = bench(*common, "--trace", "0")
    assert again["correct"]


@pytest.fixture
def client():
    root = ROOT / ".perfbench" / "test-checker"
    shutil.rmtree(root, ignore_errors=True)
    c = workloads.RouterClient(root, seed=5)
    yield c
    c.close()
    shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("corrupted, passes", [(2, True), (3, False)])
def test_get_beyond_the_corruption_tolerance_counts_as_failed(client, corrupted, passes):
    rng = random.Random(1)
    client.run_now(client.put("obj", workloads.mixed_bytes(rng, 8192), "secret", "none"))
    # n - k = 2 damaged shares per chunk are tolerated; a third is not.
    client.corrupt_one_share("obj", rng, columns=corrupted)
    ok, _, err = run.execute(client.get("obj"))
    assert ok is passes, err
