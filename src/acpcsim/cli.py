"""Scenario execution front end: config ingestion, run orchestration,
deterministic seeding, and CSV persistence.

Scenario file format
--------------------
Flat ``key = value`` text. Blank lines and lines starting with ``#`` are
ignored. Unknown keys are rejected under every prefix. All keys are
optional; an absent key keeps the default of the dataclass or function that
owns the field it sets (the ``SCHEMA`` table names that field). A float
key takes a finite number, refusing nan and +-inf, unless its line below
admits inf.

bench.*      v_dc, f_sw, f_fund, modulation_index, pf_mode (motor|generator|
             custom), pf_angle_deg, pf_angle_rad, i_ref_peak, link_inductance,
             link_resistance, technique (fixed_times|case_swing|
             junction_swing), t_on, t_off, t_case_max, t_case_min, t_j_max,
             t_j_min, n_cycles, rng_seed, mode (switched|averaged|envelope),
             ambient_c
device.*     profile (module_400a|vendor_a|vendor_b) plus any numeric field
             of the device parameter set as an override, e.g.
             device.e_on0 = 0.0025 or the gate drive device.gate_on_v
sense.*      i_desat, i_desat_vth, r_s, v_d_hv, noise_sigma (>= 0),
             vth_timeout; e_d (the bench draws it per device from the
             seed), r_a1, r_a2, rc_filter_tau, shift_gain, shift_offset,
             adc_bits, adc_fullscale and vth_blanking are unknown keys, as
             no bench path reads them
desat.*      threshold, blanking, compensated (bool), calibrated (bool),
             margin_v
thermal.*    stage_r / stage_tau (comma lists, the junction-to-case
             stages), boundary_r_on (> 0), boundary_r_off (above it),
             boundary_c (the case-to-reference stage of each plate's
             cooling), coolant_temp
             (default: the ambient), max_heat, reservoir_c (each may be
             inf: a plate rated for any heat, a loop that never warms)
ntc.*        bias, time_constant
sampler.*    n_points, window_deg, budget_per_cycle (at least 1), fir_taps
             (odd, at most 2 * n_points + 1), fir_cutoff, i_floor (at
             least 0; default: 5 % of the device's nominal current)
lut.*        t_axis / i_axis (comma lists of at least two points)
aging.*      delta_pkg / delta_vth / delta_vsd / r_th_factor (breakpoint
             lists "cycle:value, cycle:value, ..."; r_th_factor multiplies
             the first Foster stage's thermal resistance, each value at
             least 1), scope (test|all)
policy.*     r_on_rel_threshold, v_th_shift_threshold, v_sd_shift_threshold
             (each may be inf, a warning that never fires)
run.*        startup_every, i_cal, heat_cap_s, cool_cap_s, soft_start_cycles

Outputs
-------
precursors.csv       one row per cycle per device (stable schema)
waveforms.csv        decimated electrical waveforms (with --emit waveforms)
trace_thermal.csv    decimated junction temperatures
trace_sampling.csv   last completed acquisition window, raw and filtered
run_manifest.json    inputs, seed, emitted-file hashes, wall duration, and
                     the idles that ended at their cap before their rule:
                     cool_phases_capped (run.cool_cap_s) and
                     startup_idles_capped (the start-up's 900 s idle)

Exit codes: 0 completed, 1 a scenario failed with an unexpected error
(reported as ``<scenario>: <error>`` on stderr; the other scenarios of the
command still run), 2 configuration error (found before the output
directory is created), 3 run ended early by protection trip, thermal
runaway or a start-up measurement that failed. With several scenarios the
exit code is the highest of theirs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from . import device as dev_mod
from . import sampler as smp
from . import sense as sns
from . import thermal as th
from .core import (BenchConfig, ConfigError, Fidelity, PfMode, Technique,
                   validate_scenario)
from .cycling import (DEVICE_IDS, BenchSettings, TestBench, WarningPolicy)
from .device import AgingTrajectory


class UnknownKind(ValueError):
    pass


EXPORT_KINDS = ("thermal_cycle", "ron_trend", "vth_trend", "sampling_trace")

PRECURSOR_COLUMNS = ("cycle_index", "t_start_s", "device_id", "r_on_mohm",
                     "v_th_v", "v_sd_v", "tj_max_c", "tj_min_c", "delta_tj_c",
                     "t_on_s", "t_off_s", "warnings")


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------

def parse_scenario(path) -> dict:
    """Read a flat key = value scenario file into an ordered dict of strings."""
    raw: dict[str, str] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}", f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {ln}", "empty key or value")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        raw[key] = value
    return raw


def write_scenario(raw: dict, path) -> None:
    """Write a scenario dict back to disk; floats keep full precision."""
    lines = [f"{k} = {_fmt(v)}" for k, v in raw.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _float(key, v, unbounded: bool = False) -> float:
    """A finite number, or inf too where the key is unbounded."""
    try:
        x = float(v)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {v!r}") from None
    if math.isnan(x):  # a NaN passes the models' comparisons
        raise ConfigError(key, f"expected a number, got {v!r}")
    if math.isinf(x) and not (unbounded and x > 0):
        raise ConfigError(key, f"expected a finite number, got {v!r}")
    return x


def _unbounded(key, v) -> float:
    """A cooling capacity or a warning threshold, which may be inf: a
    plate rated for any heat (cooling_absorb never finds an excess), a
    coolant loop that no excess warms, or a warning that never fires."""
    return _float(key, v, unbounded=True)


def _int(key, v) -> int:
    try:
        return int(v)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {v!r}") from None


def _bool(key, v) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(key, f"expected true/false, got {v!r}")


def _degrees(key, v) -> float:
    return math.radians(_float(key, v))


def _list(key, v) -> tuple:
    return tuple(_float(key, x) for x in v.split(",") if x.strip())


def _breakpoints(key, v) -> tuple:
    pts = []
    for item in v.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(key, f"expected cycle:value pairs, got {item!r}")
        c, _, val = item.partition(":")
        pts.append((_float(key, c), _float(key, val)))
    return tuple(pts)


def _r_th_factor(key, v) -> tuple:
    """Breakpoints of the factor on the first Foster stage's thermal
    resistance, stored as the growth (factor - 1) that
    BenchSettings.r_th_aging holds (the bench refuses a negative one)."""
    return tuple((c, f - 1.0) for c, f in _breakpoints(key, v))


def _one_of(choices: dict):
    """Converter from a case-insensitive name to the value it stands for."""
    def convert(key, v):
        try:
            return choices[v.lower()]
        except KeyError:
            raise ConfigError(key, f"expected one of {'|'.join(choices)}, "
                                   f"got {v!r}") from None
    return convert


def _enum(kind):
    return _one_of({m.value: m for m in kind})


def _profile(key, v) -> dev_mod.DeviceParams:
    return _one_of(dev_mod.PROFILES)(key, v)()


def _numeric_rows(prefix: str, cls) -> list:
    """One row per int or float field of a parameter dataclass."""
    return [(f"{prefix}.{f.name}", _int if f.type == "int" else _float,
             f"{prefix}.{f.name}")
            for f in dataclasses.fields(cls) if f.type in ("float", "int")]


# One row per scenario key: the key, its converter, and the field the value
# sets, as "part.field". Part "cfg" is the BenchConfig, "settings" the
# BenchSettings; every other part is the object of that name that
# build_settings assembles. An absent key leaves the owner's default.
_ROWS = [
    ("bench.v_dc", _float, "cfg.v_dc"),
    ("bench.f_sw", _float, "cfg.f_sw"),
    ("bench.f_fund", _float, "cfg.f_fund"),
    ("bench.modulation_index", _float, "cfg.modulation_index"),
    ("bench.pf_mode", _enum(PfMode), "cfg.pf_mode"),
    ("bench.pf_angle_deg", _degrees, "cfg.pf_angle_rad"),
    ("bench.pf_angle_rad", _float, "cfg.pf_angle_rad"),
    ("bench.i_ref_peak", _float, "cfg.i_ref_peak"),
    ("bench.link_inductance", _float, "cfg.link_inductance"),
    ("bench.link_resistance", _float, "cfg.link_resistance"),
    ("bench.technique", _enum(Technique), "cfg.technique"),
    ("bench.t_on", _float, "cfg.t_on"),
    ("bench.t_off", _float, "cfg.t_off"),
    ("bench.t_case_max", _float, "cfg.t_case_max"),
    ("bench.t_case_min", _float, "cfg.t_case_min"),
    ("bench.t_j_max", _float, "cfg.t_j_max"),
    ("bench.t_j_min", _float, "cfg.t_j_min"),
    ("bench.n_cycles", _int, "cfg.n_cycles"),
    ("bench.rng_seed", _int, "cfg.rng_seed"),
    ("bench.mode", _enum(Fidelity), "cfg.fidelity"),
    ("bench.ambient_c", _float, "cfg.ambient_c"),
    ("device.profile", _profile, "settings.device_params"),
    *_numeric_rows("device", dev_mod.DeviceParams),
    *_numeric_rows("sense", sns.SenseCircuitParams),
    ("desat.threshold", _float, "desat.threshold"),
    ("desat.blanking", _float, "desat.blanking"),
    ("desat.compensated", _bool, "desat.compensated"),
    ("desat.calibrated", _bool, "settings.desat_calibrated"),
    ("desat.margin_v", _float, "settings.desat_margin_v"),
    ("thermal.stage_r", _list, "network.stage_r"),
    ("thermal.stage_tau", _list, "network.stage_tau"),
    ("thermal.boundary_r_on", _float, "cooling.r_boundary_on"),
    ("thermal.boundary_r_off", _float, "cooling.r_boundary_off"),
    ("thermal.boundary_c", _float, "cooling.boundary_c"),
    ("thermal.coolant_temp", _float, "cooling.coolant_temp"),
    ("thermal.max_heat", _unbounded, "cooling.max_heat"),
    ("thermal.reservoir_c", _unbounded, "cooling.reservoir_c"),
    ("ntc.bias", _float, "ntc.bias"),
    ("ntc.time_constant", _float, "ntc.time_constant"),
    ("sampler.n_points", _int, "settings.sampler_n"),
    ("sampler.window_deg", _degrees, "settings.sampler_window"),
    ("sampler.budget_per_cycle", _int, "settings.budget_per_cycle"),
    ("sampler.fir_taps", _int, "fir.n_taps"),
    ("sampler.fir_cutoff", _float, "fir.cutoff"),
    ("sampler.i_floor", _float, "settings.i_floor"),
    ("lut.t_axis", _list, "settings.lut_t_axis"),
    ("lut.i_axis", _list, "settings.lut_i_axis"),
    ("aging.delta_pkg", _breakpoints, "aging.delta_pkg"),
    ("aging.delta_vth", _breakpoints, "aging.delta_vth"),
    ("aging.delta_vsd", _breakpoints, "aging.delta_vsd"),
    ("aging.r_th_factor", _r_th_factor, "settings.r_th_aging"),
    ("aging.scope", _one_of({"test": "test", "all": "all"}),
     "settings.aging_scope"),
    ("policy.r_on_rel_threshold", _unbounded, "policy.r_on_rel_threshold"),
    ("policy.v_th_shift_threshold", _unbounded,
     "policy.v_th_shift_threshold"),
    ("policy.v_sd_shift_threshold", _unbounded,
     "policy.v_sd_shift_threshold"),
    ("run.startup_every", _int, "settings.startup_every"),
    ("run.i_cal", _float, "settings.i_cal"),
    ("run.heat_cap_s", _float, "settings.heat_cap_s"),
    ("run.cool_cap_s", _float, "settings.cool_cap_s"),
    ("run.soft_start_cycles", _float, "settings.soft_start_cycles"),
]
SCHEMA = {key: (convert, target) for key, convert, target in _ROWS}


def bench_section(cfg: BenchConfig) -> dict:
    """Scenario dict for a validated bench config (full float precision)."""
    out = {}
    for key, (convert, target) in SCHEMA.items():
        part, _, name = target.partition(".")
        # degree keys are input aliases: radians round-trip bit-exactly
        if part != "cfg" or convert is _degrees:
            continue
        value = getattr(cfg, name)
        if value is not None:
            out[key] = value.value if isinstance(value, Enum) else value
    return out


def _network(stage_r=None, stage_tau=None) -> th.FosterNetwork:
    """The stock network, or the scenario's junction-side stages."""
    if stage_r is None and stage_tau is None:
        return th.default_network()
    if (stage_r is None or stage_tau is None or not stage_r
            or len(stage_r) != len(stage_tau)
            or not all(x > 0 for x in stage_r + stage_tau)):  # NaN too
        raise ConfigError("thermal.stage_r", "give stage_r and stage_tau "
                          "together, as equal-length lists of positive values")
    return th.FosterNetwork(stages=[
        th.FosterStage(r, tau / r) for r, tau in zip(stage_r, stage_tau)])


def build_settings(raw: dict) -> BenchSettings:
    """Assemble full bench settings from a parsed scenario (strict keys).

    A model's own parameter check (a ValueError) is reported as a
    ConfigError naming the scenario keys that set that model."""
    parts = {p: {} for p in ("cfg", "settings", "device", "sense", "desat",
                             "network", "cooling", "ntc", "fir", "aging",
                             "policy")}
    keys = {p: [] for p in parts}
    for key, text in raw.items():
        if key not in SCHEMA:
            raise ConfigError(key, "unknown key")
        convert, target = SCHEMA[key]
        part, _, name = target.partition(".")
        parts[part][name] = convert(key, text)
        keys[part].append(key)

    def build(part, make):
        try:
            return make(**parts[part])
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(", ".join(keys[part]), str(e)) from None

    settings = BenchSettings(
        cfg=validate_scenario(BenchConfig(**parts["cfg"])),
        sense_params=build("sense", sns.SenseCircuitParams),
        desat=build("desat", sns.DesatConfig),
        network=build("network", _network),
        cooling=build("cooling", th.CoolingState),
        ntc=build("ntc", th.NtcModel),
        fir_taps=build("fir", smp.default_fir_taps),
        trajectory=build("aging", AgingTrajectory),
        policy=build("policy", WarningPolicy),
        **parts["settings"])
    if parts["device"]:
        settings.device_params = build(
            "device", lambda **kw: replace(settings.device_params, **kw))
    return settings


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _floats(values) -> str:
    """CSV cells of Python floats: each one's repr, and the empty cell for
    NaN ("nan" is the only float repr that contains that text)."""
    return ",".join(map(repr, values)).replace("nan", "")


def _write_lines(path: Path, header, lines) -> str:
    """Write the header and lines as one file of "\n"-ended lines; returns
    the SHA-256 of the bytes written, hashed from memory."""
    data = ("\n".join([",".join(header), *lines]) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_precursors(path: Path, records) -> str:
    lines = []
    for rec in records:
        # the cells every device's row of the record shares
        head = f"{rec.cycle_index},{_floats([float(rec.t_start)])},"
        tail = (f",{_floats([float(rec.t_on_actual), float(rec.t_off_actual)])}"
                f",{'|'.join(rec.warnings)}")
        cols = zip(DEVICE_IDS, (rec.r_on_est * 1e3).tolist(),
                   rec.v_th.tolist(), rec.v_sd.tolist(), rec.tj_max.tolist(),
                   rec.tj_min.tolist(), rec.delta_tj.tolist())
        lines.extend(f"{head}{dev_id},{_floats(values)}{tail}"
                     for dev_id, *values in cols)
    return _write_lines(path, PRECURSOR_COLUMNS, lines)


def write_thermal_trace(path: Path, bench: TestBench) -> str:
    header = ["t_s"] + [f"tj_{d}" for d in DEVICE_IDS] + ["t_case_test_a_hi"]
    return _write_lines(path, header, map(_floats, bench.thermal_trace))


def write_waveforms(path: Path, bench: TestBench) -> str:
    header = ["t_s", "theta_rad", "i_a", "i_b", "i_c"] \
        + [f"v_ds_{d}" for d in DEVICE_IDS]
    return _write_lines(path, header, map(_floats, bench.waveform_rows))


def write_sampling_trace(path: Path, bench: TestBench) -> str:
    header = ("slot_index", "angle_deg", "i_a", "v_on_v", "r_raw_mohm",
              "r_filt_mohm")
    if bench.last_window_trace is None:
        return _write_lines(path, header, [])
    angles, i_slots, v_slots = bench.last_window_trace
    raw = np.where(np.abs(i_slots) > 0, v_slots / np.where(i_slots == 0, 1.0,
                                                           i_slots), np.nan)
    filt = smp.fir_filter(np.nan_to_num(raw), bench.s.fir_taps)
    # np.degrees is math.degrees' one multiply, elementwise
    cols = zip(np.degrees(angles).tolist(), i_slots.tolist(),
               v_slots.tolist(), (raw * 1e3).tolist(), (filt * 1e3).tolist())
    return _write_lines(path, header, [f"{k},{_floats(values)}"
                                       for k, values in enumerate(cols)])


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

_EXIT_BY_STATUS = {"ok": 0, "protection_trip": 3, "thermal_runaway": 3,
                   "measurement_failed": 3}


def run(scenario_path, out_dir, seed: Optional[int] = None,
        cycles: Optional[int] = None, mode: Optional[str] = None,
        emit: str = "precursors") -> int:
    """Execute one scenario end to end; returns the process exit code."""
    t_wall = time.time()
    # everything that depends only on the configuration, so that a
    # configuration error exits 2 before the output directory exists
    try:
        if emit not in ("precursors", "waveforms", "both"):
            raise ConfigError("--emit", f"unknown emit selection {emit!r}")
        settings = build_settings(parse_scenario(scenario_path))
        cfg = settings.cfg
        if seed is not None:
            cfg = replace(cfg, rng_seed=int(seed))
        if cycles is not None:
            cfg = replace(cfg, n_cycles=int(cycles))
        if mode is not None:
            cfg = replace(cfg, fidelity=Fidelity(mode))
        settings.cfg = validate_scenario(cfg)
        bench = TestBench(settings)
        if settings.cfg.fidelity is Fidelity.ENVELOPE:
            bench._envelope_grid()  # cached for the run
    except ValueError as e:  # ConfigError and the model's parameter checks
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    bench.collect_waveforms = emit in ("waveforms", "both")
    result = bench.run_campaign()

    # each writer returns the hash of the bytes it wrote
    files = {
        "precursors.csv": write_precursors(out / "precursors.csv",
                                           result.records),
        "trace_thermal.csv": write_thermal_trace(out / "trace_thermal.csv",
                                                 bench),
        "trace_sampling.csv": write_sampling_trace(
            out / "trace_sampling.csv", bench),
    }
    if bench.collect_waveforms:
        files["waveforms.csv"] = write_waveforms(out / "waveforms.csv", bench)

    manifest = {
        "scenario": str(scenario_path),
        "out_dir": str(out),
        "seed": settings.cfg.rng_seed,
        "mode": settings.cfg.fidelity.value,
        "cycles_completed": result.cycles_completed,
        "cool_phases_capped": result.cool_phases_capped,
        "startup_idles_capped": result.startup_idles_capped,
        "status": result.status,
        "reason": result.reason,
        "files": files,
        "duration_s": time.time() - t_wall,
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if result.status != "ok":
        print(f"run ended early: {result.reason}", file=sys.stderr)
    return _EXIT_BY_STATUS[result.status]


# ---------------------------------------------------------------------------
# Plot-data exports
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def export_plotdata(run_dir, kind: str) -> Path:
    """Reshape run outputs into tidy long-form CSVs for plotting."""
    run_dir = Path(run_dir)
    if kind not in EXPORT_KINDS:
        raise UnknownKind(f"unknown export kind {kind!r}; "
                          f"expected one of {EXPORT_KINDS}")
    out = run_dir / f"{kind}.csv"

    if kind == "thermal_cycle":
        _, rows = _read_csv(run_dir / "trace_thermal.csv")
        header = ("time_s", "device_id", "tj_c")
        lines = [f"{row[0]},{dev},{row[1 + k]}"
                 for row in rows for k, dev in enumerate(DEVICE_IDS)]
    elif kind == "sampling_trace":
        _, rows = _read_csv(run_dir / "trace_sampling.csv")
        header = ("slot_index", "angle_deg", "series", "value")
        lines = [f"{row[0]},{row[1]},{series},{row[c]}" for row in rows
                 for series, c in (("r_raw_mohm", 4), ("r_filt_mohm", 5))]
    else:
        names, rows = _read_csv(run_dir / "precursors.csv")
        c, d = names.index("cycle_index"), names.index("device_id")
        v = names.index("r_on_mohm" if kind == "ron_trend" else "v_th_v")
        header = ("cycle_index", "device_id", names[v])
        lines = [f"{row[c]},{row[d]},{row[v]}" for row in rows if row[v]]
    _write_lines(out, header, lines)
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _run_one(args_tuple) -> int:
    """run() for one scenario of a command; an unexpected error ends only
    this scenario, with exit code 1."""
    try:
        return run(*args_tuple)
    except Exception as e:  # configuration errors already returned 2
        traceback.print_exc()
        print(f"{args_tuple[0]}: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="acpcsim",
        description="AC power-cycling bench simulator with online condition "
                    "monitoring")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute scenario file(s)")
    p_run.add_argument("scenarios", nargs="+")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--cycles", type=int, default=None)
    p_run.add_argument("--mode", choices=[f.value for f in Fidelity],
                       default=None)
    p_run.add_argument("--emit", choices=["precursors", "waveforms", "both"],
                       default="precursors")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel scenario processes (at most one per "
                            "scenario and per CPU)")

    p_exp = sub.add_parser("export", help="reshape run outputs for plotting")
    p_exp.add_argument("run_dir")
    p_exp.add_argument("--kind", required=True)

    args = parser.parse_args(argv)

    if args.command == "export":
        try:
            path = export_plotdata(args.run_dir, args.kind)
        except (UnknownKind, FileNotFoundError) as e:
            print(f"export error: {e}", file=sys.stderr)
            return 2
        print(path)
        return 0

    if args.jobs < 1:
        err = ConfigError("--jobs", f"{args.jobs} workers run no scenario; "
                                    f"use at least 1")
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    jobs = []
    for scenario in args.scenarios:
        out = args.out if len(args.scenarios) == 1 \
            else str(Path(args.out) / Path(scenario).stem)
        jobs.append((scenario, out, args.seed, args.cycles, args.mode,
                     args.emit))
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_run_one, jobs))
    else:
        codes = [_run_one(j) for j in jobs]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
