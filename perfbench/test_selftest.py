"""Self-test of the benchmark: seeds, determinism and failure modes.

    python3 -m pytest perfbench/test_selftest.py -q          # all workloads
    python3 -m pytest perfbench/test_selftest.py -q -k wide   # one workload

Each workload runs one unit per run: the same seed twice must give
bit-identical result values, and a second seed must pass every
correctness check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (gated and extra)

SEED_A, SEED_B = 11, 12


def run(workload, seed, out, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determinism_and_second_seed(workload, tmp_path):
    first, rec1 = run(workload, SEED_A, tmp_path / "a1.json")
    again, rec2 = run(workload, SEED_A, tmp_path / "a2.json")
    other, rec3 = run(workload, SEED_B, tmp_path / "b.json")
    for proc, rec, seed in ((first, rec1, SEED_A), (again, rec2, SEED_A), (other, rec3, SEED_B)):
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert rec["seed"] == seed
        assert rec["problems"] == []
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0
    # Same seed: identical result values.
    assert rec1["units"][0]["digest"] == rec2["units"][0]["digest"]
    assert rec1["units"][0]["values"] == rec2["units"][0]["values"]
    assert rec1["units"][0]["counts"] == rec2["units"][0]["counts"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-configs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
