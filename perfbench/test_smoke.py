"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, root=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stderr
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = _result(_run(workload, 0))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    if workload != "scan_zeta_height":
        assert res["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # page faults depend on the allocator and the kernel; work counts must not
    counts = [k for k, v in first["metrics"].items()
              if v["unit"] == "count" and not k.endswith("minor_faults")]
    assert any(first["metrics"][k]["value"] > 0 for k in counts)
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("scan_log", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
