"""Smoke tests of the benchmark: each workload runs at a tiny size and
reports every metric BENCHMARK.json names, with its unit. Nothing about
timing is asserted."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import BOUNDARIES, Boundary, Tracer, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # as run.py does
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT):
    # no PYTHONPATH: the benchmark must find src/ on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--scale", "0.02"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_spec_names_the_tracer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == per_layer_names()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_attributes_and_lists_missing_sites():
    from acpcsim.cycling import TestBench
    original = vars(TestBench)["run_cycle"]
    gone = Boundary("cycling.gone", (("acpcsim.cycling", "TestBench.gone"),),
                    ())
    with Tracer(BOUNDARIES + (gone,)) as tr:
        assert vars(TestBench)["run_cycle"] is not original
    assert vars(TestBench)["run_cycle"] is original
    assert tr.missing == ["cycling.gone (acpcsim.cycling:TestBench.gone)"]
