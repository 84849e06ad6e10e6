"""Tests of the benchmark itself, at reduced size (a few minutes).

    python3 -m pytest -q bench/selftest.py

Each workload runs on three seeds with tracing off and once with tracing
on; every run must check out (error_rate 0) and emit exactly the metrics
BENCHMARK.json names, with their units.  Named so that the repository's
own test suite does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.3"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.1", "--trace", str(trace), "--scale", SCALE)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(out, spec):
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("seed", [101, 102, 103])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload, seed):
    out = result(workload, seed, 0)
    assert out["failed"] == 0 and out["correct"] and out["attempted"] >= 1
    assert_metrics(out, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer(workload):
    out = result(workload, 104, 1)
    assert out["failed"] == 0 and out["correct"]
    assert_metrics(out, SPEC["per_layer"])
    assert out["metrics"]["cli.import_s"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
