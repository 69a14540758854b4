"""The benchmark's three workloads.

Each workload turns the workload seed into a sequence of scenarios, runs one
scenario per operation (closed loop: the next starts when the previous one
has ended and been checked), checks each operation's outputs, and reports
the monitoring-chain accuracy of its first operation(s).

An operation is one scenario run through `acpcsim.cli.main` on the envelope
workloads, and one `TestBench(...).run_steady(T)` on averaged_steady.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from acpcsim import cli
from acpcsim.core import BenchConfig, validate_scenario
from acpcsim.cycling import DEVICE_IDS, TestBench, default_settings, energy_audit
from hostspeed import Clock

POOL = 64          # distinct scenario seeds per workload
SEED_BASE = 1000   # scenario rng_seed = SEED_BASE + pool index

RON_TOL = 0.015         # AC-1 window accuracy limit
RON_OK_FRAC = 0.99      # AC-1 share of windows that must meet it
AUDIT_TOL = 1e-3        # AC-9 energy-audit residual limit
SWING_TOL_C = 2.0       # AC-8 junction-swing hold limit
WARMUP_S = 0.05         # simulated seconds of the untimed steady warm-up

# accelerated thermal scale and package-aging ramp shared by the envelope
# scenarios (the settings of examples_scenarios/junction_swing_campaign.txt)
_FAST_THERMAL = """\
bench.mode = envelope
thermal.stage_r = 0.0198, 0.0405, 0.0297
thermal.stage_tau = 0.001, 0.03, 0.3
thermal.boundary_r_on = 0.12
thermal.boundary_r_off = 2.0
thermal.boundary_c = 5.0
ntc.time_constant = 0.02
aging.delta_pkg = 0:0.0, 2000:0.2
"""

SWING_C = 60.0  # commanded swing of _CAMPAIGN: t_j_max - t_j_min
_CAMPAIGN = """\
bench.technique = junction_swing
bench.t_j_max = 120.0
bench.t_j_min = 60.0
bench.n_cycles = {n_cycles}
bench.rng_seed = {seed}
sampler.n_points = 60
sampler.budget_per_cycle = 300
run.startup_every = 25
""" + _FAST_THERMAL

_BUDGETED = """\
bench.technique = fixed_times
bench.t_on = 0.3
bench.t_off = 0.5
bench.n_cycles = {n_cycles}
bench.rng_seed = {seed}
run.startup_every = 0
""" + _FAST_THERMAL


def scenario_seeds(seed: int):
    """Endless scenario-seed sequence for a workload seed: a seeded walk
    through a fixed pool, so every scenario has a committed reference."""
    order = np.random.default_rng(seed).permutation(POOL)
    i = 0
    while True:
        yield SEED_BASE + int(order[i % POOL])
        i += 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One completed operation and what its checks found."""
    scenario_seed: int
    digest: str            # sha256 of the scenario the program received
    wall_s: float          # host seconds
    ref_s: float           # reference-host seconds (hostspeed.Clock)
    sim_s: float = 0.0
    cycles: float = 0.0
    output_sha: str = ""   # precursors.csv (envelope) or window estimates
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)   # reported per scenario
    accuracy: Optional["Accuracy"] = None     # steady runs keep their windows


@dataclass
class Accuracy:
    """Online monitoring errors over the acquisition windows."""
    ron_rel: np.ndarray    # |r_est - r_true| / r_true per window
    tj_abs: np.ndarray     # |tj_est - tj_true| per window, degC


def window_errors(windows) -> Accuracy:
    r_est = np.array([w["r_est"] for w in windows])
    r_true = np.array([w["r_true"] for w in windows])
    tj = np.array([w["tj_est"] - w["tj_true"] for w in windows])
    return Accuracy(np.abs(r_est - r_true) / r_true, np.abs(tj))


# ---------------------------------------------------------------------------
# Envelope workloads, run through the command line
# ---------------------------------------------------------------------------

class CliWorkload:
    """Scenario files of one shape, differing only in seed, run in-process
    through `acpcsim.cli.main`."""

    def __init__(self, name, template, n_cycles, accuracy_ops, check):
        self.name = name
        self.template = template
        self.n_cycles = n_cycles
        self.accuracy_ops = accuracy_ops
        self._check = check

    def scenario(self, seed: int) -> str:
        return self.template.format(n_cycles=self.n_cycles, seed=seed)

    def setup(self, seed: int, workdir: Path) -> float:
        """Wall time of scenario parse, settings build and bench
        construction: what `cli.run` does before the first step."""
        path = workdir / f"setup_{seed}.txt"
        path.write_text(self.scenario(seed))
        t0 = perf_counter()
        settings = cli.build_settings(cli.parse_scenario(path))
        settings.cfg = validate_scenario(settings.cfg)
        TestBench(settings)
        return perf_counter() - t0

    def run_op(self, seed: int, workdir: Path, clock: Clock) -> Op:
        text = self.scenario(seed)
        path = workdir / f"scenario_{seed}.txt"
        path.write_text(text)
        out = workdir / f"out_{seed}"
        code, wall, ref = clock.time(
            cli.main, ["run", str(path), "--out", str(out)])
        op = Op(seed, sha256(text.encode()), wall, ref)
        if code != 0:
            op.failures.append(f"exit code {code}")
            return op
        data = (out / "precursors.csv").read_bytes()
        op.output_sha = sha256(data)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        n = len(DEVICE_IDS)
        cycles = len(rows) // n
        if cycles != self.n_cycles or len(rows) % n:
            op.failures.append(f"{len(rows)} precursor rows for "
                               f"{self.n_cycles} cycles")
            return op
        last = rows[-1]
        op.cycles = cycles
        op.sim_s = (float(last["t_start_s"]) + float(last["t_on_s"])
                    + float(last["t_off_s"]))
        by_cycle = [rows[c * n:(c + 1) * n] for c in range(cycles)]
        self._check(op, by_cycle)
        for f in out.iterdir():
            f.unlink()
        out.rmdir()
        return op

    def warm_up(self, seed: int, workdir: Path) -> list:
        """One untimed operation; the failures of its checks."""
        return self.run_op(seed, workdir, Clock(probes=0)).failures

    def accuracy(self, ops, workdir: Path) -> tuple[Accuracy, list]:
        """Re-run the first scenarios through the library with the windows
        collected; the records must reproduce the command line's bytes."""
        windows, failures = [], []
        for op in ops[:self.accuracy_ops]:
            path = workdir / f"scenario_{op.scenario_seed}.txt"
            settings = cli.build_settings(cli.parse_scenario(path))
            settings.cfg = validate_scenario(settings.cfg)
            bench = TestBench(settings)
            result = bench.run_campaign(collect_windows=True)
            csv_path = workdir / f"library_{op.scenario_seed}.csv"
            cli.write_precursors(csv_path, result.records)
            if sha256(csv_path.read_bytes()) != op.output_sha:
                failures.append(f"scenario {op.digest[:12]}: library re-run "
                                "differs from the command-line precursors")
            windows += bench.windows
        return window_errors(windows), failures


def _check_swing(op: Op, by_cycle) -> None:
    """AC-8: the hottest test switch holds the commanded swing."""
    worst = 0.0
    for rows in by_cycle:
        test = [r for r in rows if r["device_id"].startswith("test_")]
        hot = max(test, key=lambda r: float(r["tj_max_c"]))
        worst = max(worst, abs(float(hot["delta_tj_c"]) - SWING_C))
    op.info["dtj_err_max_c"] = worst
    if worst > SWING_TOL_C:
        op.failures.append(f"swing error {worst:.3f} degC > {SWING_TOL_C}")


def _check_ramp(op: Op, by_cycle) -> None:
    """Fixed times under a package-aging ramp: test_a_hi's peak junction
    temperature rises every cycle."""
    tj_max = [float(r["tj_max_c"]) for rows in by_cycle for r in rows
              if r["device_id"] == DEVICE_IDS[0]]
    if not all(b > a for a, b in zip(tj_max, tj_max[1:])):
        op.failures.append("T_j,max of test_a_hi not strictly increasing")


# ---------------------------------------------------------------------------
# Averaged steady run, through the library
# ---------------------------------------------------------------------------

class SteadyWorkload:
    """AC-1's closed-loop averaged run: motor mode, full-window budget,
    windows collected, one fresh bench per operation. The run is advanced
    in chunks, each timed on its own, so that the host-speed probes stay
    close to the work they correct."""

    name = "averaged_steady"
    accuracy_ops = 2
    chunk_s = 0.05   # simulated seconds per timed chunk

    def __init__(self, duration_s):
        self.duration_s = duration_s

    @staticmethod
    def _settings(seed: int):
        cfg = validate_scenario(BenchConfig(rng_seed=seed))
        return default_settings(cfg, budget_per_cycle=300)

    def setup(self, seed: int, workdir: Path) -> float:
        t0 = perf_counter()
        TestBench(self._settings(seed))
        return perf_counter() - t0

    def warm_up(self, seed: int, workdir: Path) -> list:
        """A short untimed steady run; too short for the window checks."""
        TestBench(self._settings(seed)).run_steady(WARMUP_S)
        return []

    def run_op(self, seed: int, workdir: Path, clock: Clock) -> Op:
        bench, wall, ref = clock.time(TestBench, self._settings(seed))
        n = max(1, round(self.duration_s / self.chunk_s))
        for _ in range(n):
            tally, w, r = clock.time(bench.run_steady, self.duration_s / n)
            wall += w
            ref += r
        op = Op(seed, sha256(repr(bench.s.cfg).encode()), wall, ref,
                sim_s=bench.t, cycles=bench.t * bench.cfg.f_fund)
        op.output_sha = sha256(np.array([w["r_est"] for w in bench.windows])
                               .tobytes())
        acc = op.accuracy = window_errors(bench.windows)
        ok_frac = float((acc.ron_rel < RON_TOL).mean()) if len(acc.ron_rel) \
            else 0.0
        if ok_frac < RON_OK_FRAC:
            op.failures.append(f"{100 * ok_frac:.2f}% of windows under "
                               f"{100 * RON_TOL}% (need {100 * RON_OK_FRAC}%)")
        residual = energy_audit(tally).residual_frac
        if not residual < AUDIT_TOL:
            op.failures.append(f"energy residual {residual:.2e}")
        return op

    def accuracy(self, ops, workdir: Path) -> tuple[Accuracy, list]:
        accs = [op.accuracy for op in ops[:self.accuracy_ops]]
        return Accuracy(np.concatenate([a.ron_rel for a in accs]),
                        np.concatenate([a.tj_abs for a in accs])), []


def make(name: str, scale: float = 1.0):
    """The named workload; `scale` shrinks every operation (smoke tests)."""
    if name == "envelope_campaign":
        return CliWorkload(name, _CAMPAIGN, max(2, round(25 * scale)), 4,
                           _check_swing)
    if name == "envelope_budgeted":
        return CliWorkload(name, _BUDGETED, max(2, round(25 * scale)), 8,
                           _check_ramp)
    if name == "averaged_steady":
        return SteadyWorkload(2.0 * scale)
    raise KeyError(name)

