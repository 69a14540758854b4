"""Byte-identity guard for speed-ups of the stepping engines.

The first digests were computed with the per-device trigger search and
the per-step constants of the averaged engine, before both were hoisted
out of the step; the sampling-trace, fixed-times and frequent-start-up
digests with the envelope heat step before its run constants were hoisted
and its table inversion moved to sampler.invert_column. A speed-up must
leave them unchanged; a change that alters results on purpose must say so
and pin new digests.
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
    # the batched fill's last window
    "trace_sampling.csv":
        "a5456ba8f57acdf40cc0162bb07d4428d26ee7159f3d913d322e663fbfe6b382",
}
# fixed times at the default sampler (300 points, budget 5), first 3
# cycles: the partial-budget fill, whose first window completes in cycle 2
FIXED_TIMES_SHA256 = {
    "precursors.csv":
        "80a3c3e10a4e29d528e073457ffc3e7fb4cd263d81004a3005815c12b5791abb",
    "trace_sampling.csv":
        "aee9e7bdf1eebbbc5289969f01eaedf88f02d51eee4d8cd33fdf17b0f37eea85",
}
# the junction-swing example with start-up every 2 cycles and a package
# ramp steep enough (+30 % drift resistance by cycle 10) that each
# recalibration moves the tables the batched fill inverts, first 5 cycles
FREQUENT_STARTUP_SHA256 = {
    "precursors.csv":
        "36dd7621e7cd456fd44c4b02e1eae6a6399dbe3621d38b9a53a2f1bb91cb3903",
    "trace_sampling.csv":
        "5fa8e2c9444f6dacebba0fdb4d93dfb97c5c2a15f00017d51812b1141de91e94",
}
# the accelerated thermal scale and aging ramp of the campaign example
FAST_ENVELOPE = """\
bench.mode = envelope
thermal.stage_r = 0.0198, 0.0405, 0.0297
thermal.stage_tau = 0.001, 0.03, 0.3
thermal.boundary_r_on = 0.12
thermal.boundary_r_off = 2.0
thermal.boundary_c = 5.0
ntc.time_constant = 0.02
aging.delta_pkg = 0:0.0, 2000:0.2
"""


def _digests(scenario, out, cycles, names):
    assert run(scenario, out, cycles=cycles) == 0
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    return {k: files[k] for k in names}


def test_averaged_steady_windows_unchanged():
    cfg = validate_scenario(BenchConfig())
    bench = TestBench(default_settings(cfg, budget_per_cycle=300))
    bench.run_steady(0.1)
    est = np.array([(w["r_est"], w["tj_est"]) for w in bench.windows],
                   dtype="<f8")
    assert len(est) == 58
    assert hashlib.sha256(est.tobytes()).hexdigest() == STEADY_WINDOWS_SHA256


def test_envelope_campaign_outputs_unchanged(tmp_path):
    assert _digests(EXAMPLES / "junction_swing_campaign.txt",
                    tmp_path / "out", 3, CAMPAIGN_SHA256) == CAMPAIGN_SHA256


def test_fixed_times_partial_budget_outputs_unchanged(tmp_path):
    scn = tmp_path / "fixed.txt"
    scn.write_text("bench.technique = fixed_times\nbench.t_on = 0.5\n"
                   "bench.t_off = 0.5\nbench.rng_seed = 7\n"
                   "run.startup_every = 0\n" + FAST_ENVELOPE)
    assert _digests(scn, tmp_path / "out", 3, FIXED_TIMES_SHA256) \
        == FIXED_TIMES_SHA256


def test_recalibrated_tables_reach_the_batched_fill(tmp_path):
    scn = tmp_path / "swing.txt"
    scn.write_text((EXAMPLES / "junction_swing_campaign.txt").read_text()
                   .replace("run.startup_every = 25", "run.startup_every = 2")
                   .replace("2000:0.2", "10:0.3"))
    text = scn.read_text()
    assert "run.startup_every = 2\n" in text and "0:0.0, 10:0.3\n" in text
    assert _digests(scn, tmp_path / "out", 5, FREQUENT_STARTUP_SHA256) \
        == FREQUENT_STARTUP_SHA256
