"""Byte-identity guard for speed-ups of the stepping engines.

The digests were computed with the per-device trigger search and the
per-step constants of the averaged engine, before both were hoisted out of
the step. A speed-up must leave them unchanged; a change that alters
results on purpose must say so and pin new digests.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from acpcsim.cli import run
from acpcsim.core import BenchConfig, validate_scenario
from acpcsim.cycling import TestBench, default_settings

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_scenarios"

# r_est and tj_est of every window of AC-1's averaged run, first 0.1 s
STEADY_WINDOWS_SHA256 = \
    "c9a7f91ebb38f0bb989b4e0540d1b98a143172cfce3a2e2428012e28af992f1f"
# the junction-swing example campaign, first 3 cycles
CAMPAIGN_SHA256 = {
    "precursors.csv":
        "58b97f4d516c03bb1c515077c3f55fd0193a693867014cc84d65a89a273deb88",
    "trace_thermal.csv":
        "858d11458353bc46038d956d89798d90c2daaf45d0b144703311fcbfd9281244",
}


def test_averaged_steady_windows_unchanged():
    cfg = validate_scenario(BenchConfig())
    bench = TestBench(default_settings(cfg, budget_per_cycle=300))
    bench.run_steady(0.1)
    est = np.array([(w["r_est"], w["tj_est"]) for w in bench.windows],
                   dtype="<f8")
    assert len(est) == 58
    assert hashlib.sha256(est.tobytes()).hexdigest() == STEADY_WINDOWS_SHA256


def test_envelope_campaign_outputs_unchanged(tmp_path):
    out = tmp_path / "out"
    assert run(EXAMPLES / "junction_swing_campaign.txt", out, cycles=3) == 0
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    assert {k: files[k] for k in CAMPAIGN_SHA256} == CAMPAIGN_SHA256
