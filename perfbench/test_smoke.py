"""Tests of the benchmark itself; run with `python -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_smoke_every_workload():
    # toy sizes: metric names and units match BENCHMARK.json, outputs match
    # the recorded toy references, and every output check passes
    out = _run(["--smoke"], ROOT)
    assert out.returncode == 0, out.stdout + out.stderr


def test_result_line_contract():
    out = _run(["--workload", "certify", "--scale", "toy", "--seed", "3",
                "--seconds", "0", "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_fails_without_the_library(tmp_path):
    # a tree holding only the benchmark must fail fast and print no result
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "certify", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
