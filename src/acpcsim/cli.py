"""Scenario execution front end: config ingestion, run orchestration,
deterministic seeding, and CSV persistence.

Scenario file format
--------------------
Flat ``key = value`` text. Blank lines and lines starting with ``#`` are
ignored. Unknown keys are rejected. All keys are optional; defaults are
documented in the module they configure.

bench.*      v_dc, f_sw, f_fund, modulation_index, pf_mode (motor|generator|
             custom), pf_angle_deg, i_ref_peak, link_inductance,
             link_resistance, gate_on_v, gate_off_v, technique (fixed_times|
             case_swing|junction_swing), t_on, t_off, t_case_max, t_case_min,
             t_j_max, t_j_min, n_cycles, rng_seed, mode (switched|averaged|
             envelope), ambient_c
device.*     profile (module_400a|vendor_a|vendor_b) plus any numeric field
             of the device parameter set as an override, e.g.
             device.e_on0 = 0.0025
sense.*      any numeric field of the sense-circuit parameter set, e.g.
             sense.noise_sigma = 0.002 (sense.e_d fixes the diode mismatch
             instead of drawing it from the seeded per-device distribution)
desat.*      threshold, blanking, compensated (bool), calibrated (bool),
             margin_v
thermal.*    stage_r / stage_tau (comma lists, junction-side stages),
             boundary_r_on, boundary_r_off, boundary_c, coolant_temp,
             max_heat, reservoir_c
ntc.*        bias, time_constant
sampler.*    n_points, window_deg, budget_per_cycle, fir_taps, fir_cutoff,
             i_floor
lut.*        t_axis / i_axis (comma lists)
aging.*      delta_pkg / delta_vth / delta_vsd / r_th_factor as breakpoint
             lists "cycle:value, cycle:value, ..."; scope (test|all)
policy.*     r_on_rel_threshold, v_th_shift_threshold, v_sd_shift_threshold
run.*        startup_every, i_cal, heat_cap_s, cool_cap_s, soft_start_cycles,
             trace_stride_s, waveform_stride

Outputs
-------
precursors.csv       one row per cycle per device (stable schema)
waveforms.csv        decimated electrical waveforms (with --emit waveforms)
trace_thermal.csv    decimated junction temperatures
trace_sampling.csv   last completed acquisition window, raw and filtered
run_manifest.json    inputs, seed, emitted-file hashes, wall duration

Exit codes: 0 completed, 2 configuration error, 3 run ended early by
protection trip or thermal runaway.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
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


def _to_float(key, v) -> float:
    try:
        return float(v)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {v!r}") from None


def _to_int(key, v) -> int:
    try:
        return int(v)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {v!r}") from None


def _to_bool(key, v) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(key, f"expected true/false, got {v!r}")


def _to_list(key, v) -> list[float]:
    try:
        return [float(x) for x in v.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(key, f"expected a comma list, got {v!r}") from None


def _to_breakpoints(key, v) -> tuple:
    pts = []
    for item in v.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(key, f"expected cycle:value pairs, got {item!r}")
        c, _, val = item.partition(":")
        pts.append((_to_float(key, c), _to_float(key, val)))
    return tuple(pts)


_BENCH_FLOATS = {"v_dc", "f_sw", "f_fund", "modulation_index", "i_ref_peak",
                 "link_inductance", "link_resistance", "gate_on_v",
                 "gate_off_v", "t_on", "t_off", "t_case_max", "t_case_min",
                 "t_j_max", "t_j_min", "ambient_c"}


def _bench_config(raw: dict) -> BenchConfig:
    kw = {}
    for key, value in raw.items():
        if not key.startswith("bench."):
            continue
        name = key[6:]
        if name in _BENCH_FLOATS:
            kw[name] = _to_float(key, value)
        elif name == "pf_mode":
            try:
                kw["pf_mode"] = PfMode(value.lower())
            except ValueError:
                raise ConfigError(key, f"unknown pf mode {value!r}") from None
        elif name == "pf_angle_deg":
            kw["pf_angle_rad"] = math.radians(_to_float(key, value))
        elif name == "pf_angle_rad":
            kw["pf_angle_rad"] = _to_float(key, value)
        elif name == "technique":
            try:
                kw["technique"] = Technique(value.lower())
            except ValueError:
                raise ConfigError(key, f"unknown technique {value!r}") from None
        elif name == "mode":
            try:
                kw["fidelity"] = Fidelity(value.lower())
            except ValueError:
                raise ConfigError(key, f"unknown mode {value!r}") from None
        elif name == "n_cycles":
            kw["n_cycles"] = _to_int(key, value)
        elif name == "rng_seed":
            kw["rng_seed"] = _to_int(key, value)
        else:
            raise ConfigError(key, "unknown bench key")
    return validate_scenario(BenchConfig(**kw))


def bench_section(cfg: BenchConfig) -> dict:
    """Scenario dict for a validated bench config (full float precision)."""
    out = {
        "bench.v_dc": cfg.v_dc, "bench.f_sw": cfg.f_sw,
        "bench.f_fund": cfg.f_fund,
        "bench.modulation_index": cfg.modulation_index,
        "bench.pf_mode": cfg.pf_mode.value,
        "bench.i_ref_peak": cfg.i_ref_peak,
        "bench.link_inductance": cfg.link_inductance,
        "bench.link_resistance": cfg.link_resistance,
        "bench.gate_on_v": cfg.gate_on_v, "bench.gate_off_v": cfg.gate_off_v,
        "bench.technique": cfg.technique.value,
        "bench.n_cycles": cfg.n_cycles, "bench.rng_seed": cfg.rng_seed,
        "bench.mode": cfg.fidelity.value, "bench.ambient_c": cfg.ambient_c,
    }
    if cfg.pf_mode is PfMode.CUSTOM:
        # radians on output so numeric fields round-trip bit-exactly
        out["bench.pf_angle_rad"] = cfg.pf_angle_rad
    for name in ("t_on", "t_off", "t_case_max", "t_case_min", "t_j_max",
                 "t_j_min"):
        v = getattr(cfg, name)
        if v is not None:
            out[f"bench.{name}"] = v
    return out


def _numeric_fields(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)
            if f.type in ("float", "int")}


def build_settings(raw: dict) -> BenchSettings:
    """Assemble full bench settings from a parsed scenario (strict keys)."""
    cfg = _bench_config(raw)

    known_prefixes = ("bench.", "device.", "sense.", "desat.", "thermal.",
                      "ntc.", "sampler.", "lut.", "aging.", "policy.", "run.")
    for key in raw:
        if not key.startswith(known_prefixes):
            raise ConfigError(key, "unknown key")

    profile = raw.get("device.profile", "module_400a")
    if profile not in dev_mod.PROFILES:
        raise ConfigError("device.profile", f"unknown profile {profile!r}")
    device_params = dev_mod.PROFILES[profile]()
    dev_numeric = _numeric_fields(dev_mod.DeviceParams)
    dev_over = {}
    for key, value in raw.items():
        if key.startswith("device.") and key != "device.profile":
            name = key[7:]
            if name not in dev_numeric:
                raise ConfigError(key, "unknown device field")
            dev_over[name] = _to_float(key, value)
    if dev_over:
        device_params = replace(device_params, **dev_over)

    sense_numeric = _numeric_fields(sns.SenseCircuitParams)
    sense_over = {}
    for key, value in raw.items():
        if key.startswith("sense."):
            name = key[6:]
            if name not in sense_numeric:
                raise ConfigError(key, "unknown sense field")
            sense_over[name] = int(value) if name == "adc_bits" \
                else _to_float(key, value)
    sense_params = sns.SenseCircuitParams(**sense_over) if sense_over \
        else sns.SenseCircuitParams()

    desat = sns.DesatConfig(
        threshold=_to_float("desat.threshold", raw["desat.threshold"])
        if "desat.threshold" in raw else 9.0,
        blanking=_to_float("desat.blanking", raw["desat.blanking"])
        if "desat.blanking" in raw else 2e-6,
        compensated=_to_bool("desat.compensated", raw["desat.compensated"])
        if "desat.compensated" in raw else False,
    )
    desat_calibrated = _to_bool("desat.calibrated", raw["desat.calibrated"]) \
        if "desat.calibrated" in raw else False
    desat_margin = _to_float("desat.margin_v", raw["desat.margin_v"]) \
        if "desat.margin_v" in raw else 0.5

    stage_r = _to_list("thermal.stage_r", raw["thermal.stage_r"]) \
        if "thermal.stage_r" in raw else None
    stage_tau = _to_list("thermal.stage_tau", raw["thermal.stage_tau"]) \
        if "thermal.stage_tau" in raw else None
    b_r_on = _to_float("thermal.boundary_r_on", raw.get("thermal.boundary_r_on", "0.4"))
    b_r_off = _to_float("thermal.boundary_r_off", raw.get("thermal.boundary_r_off", "2.0"))
    b_c = _to_float("thermal.boundary_c", raw.get("thermal.boundary_c", "12.5"))
    if (stage_r is None) != (stage_tau is None):
        raise ConfigError("thermal.stage_r", "give stage_r and stage_tau together")
    if stage_r is not None:
        if len(stage_r) != len(stage_tau) or not stage_r:
            raise ConfigError("thermal.stage_r", "stage lists must match and be nonempty")
        stages = [th.FosterStage(r, tau / r) for r, tau in zip(stage_r, stage_tau)]
        stages.append(th.FosterStage(b_r_on, b_c))
        network = th.FosterNetwork(stages=stages)
    else:
        network = th.default_network(boundary_r=b_r_on, boundary_c=b_c)
    cooling = th.CoolingState(
        coolant_temp=_to_float("thermal.coolant_temp",
                               raw.get("thermal.coolant_temp", str(cfg.ambient_c))),
        r_boundary_on=b_r_on, r_boundary_off=b_r_off,
        max_heat=_to_float("thermal.max_heat", raw.get("thermal.max_heat", "1500.0")),
        reservoir_c=_to_float("thermal.reservoir_c",
                              raw.get("thermal.reservoir_c", "500.0")),
    )
    ntc = th.NtcModel(
        bias=_to_float("ntc.bias", raw.get("ntc.bias", "0.0")),
        time_constant=_to_float("ntc.time_constant",
                                raw.get("ntc.time_constant", "0.1")),
    )

    n_points = _to_int("sampler.n_points", raw.get("sampler.n_points", "300"))
    window = math.radians(_to_float("sampler.window_deg",
                                    raw.get("sampler.window_deg", "10.0")))
    budget = _to_int("sampler.budget_per_cycle",
                     raw.get("sampler.budget_per_cycle", "5"))
    n_taps = _to_int("sampler.fir_taps", raw.get("sampler.fir_taps", "31"))
    cutoff = _to_float("sampler.fir_cutoff", raw.get("sampler.fir_cutoff", "0.1"))
    i_floor = _to_float("sampler.i_floor",
                        raw.get("sampler.i_floor",
                                str(0.05 * device_params.i_nominal)))

    lut_t = _to_list("lut.t_axis", raw["lut.t_axis"]) if "lut.t_axis" in raw \
        else tuple(range(25, 176, 25))
    lut_i = _to_list("lut.i_axis", raw["lut.i_axis"]) if "lut.i_axis" in raw \
        else tuple(range(50, 401, 50))

    traj = AgingTrajectory(
        delta_pkg=_to_breakpoints("aging.delta_pkg", raw.get("aging.delta_pkg", "")),
        delta_vth=_to_breakpoints("aging.delta_vth", raw.get("aging.delta_vth", "")),
        delta_vsd=_to_breakpoints("aging.delta_vsd", raw.get("aging.delta_vsd", "")),
    )
    r_th_aging = _to_breakpoints("aging.r_th_factor", raw.get("aging.r_th_factor", ""))
    scope = raw.get("aging.scope", "test")
    if scope not in ("test", "all"):
        raise ConfigError("aging.scope", f"expected test or all, got {scope!r}")

    policy = WarningPolicy(
        r_on_rel_threshold=_to_float("policy.r_on_rel_threshold",
                                     raw.get("policy.r_on_rel_threshold", "0.05")),
        v_th_shift_threshold=_to_float("policy.v_th_shift_threshold",
                                       raw.get("policy.v_th_shift_threshold", "0.5")),
        v_sd_shift_threshold=_to_float("policy.v_sd_shift_threshold",
                                       raw.get("policy.v_sd_shift_threshold", "0.1")),
    )

    return BenchSettings(
        cfg=cfg, device_params=device_params, sense_params=sense_params,
        desat=desat, desat_calibrated=desat_calibrated,
        desat_margin_v=desat_margin, network=network, cooling_test=cooling,
        cooling_load=dataclasses.replace(cooling), ntc=ntc,
        sampler_n=n_points, sampler_window=window, budget_per_cycle=budget,
        fir_taps=smp.default_fir_taps(n_taps, cutoff), i_floor=i_floor,
        lut_t_axis=tuple(lut_t), lut_i_axis=tuple(lut_i), trajectory=traj,
        r_th_aging=r_th_aging, aging_scope=scope, policy=policy,
        startup_every=_to_int("run.startup_every",
                              raw.get("run.startup_every", "100")),
        i_cal=_to_float("run.i_cal", raw["run.i_cal"]) if "run.i_cal" in raw else None,
        heat_cap_s=_to_float("run.heat_cap_s", raw.get("run.heat_cap_s", "120.0")),
        cool_cap_s=_to_float("run.cool_cap_s", raw.get("run.cool_cap_s", "600.0")),
        soft_start_cycles=_to_float("run.soft_start_cycles",
                                    raw.get("run.soft_start_cycles", "2.0")),
    )


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_precursors(path: Path, records) -> None:
    rows = []
    for rec in records:
        warn = "|".join(rec.warnings)
        for k, dev_id in enumerate(DEVICE_IDS):
            rows.append((
                rec.cycle_index, float(rec.t_start), dev_id,
                float(rec.r_on_est[k] * 1e3), float(rec.v_th[k]),
                float(rec.v_sd[k]), float(rec.tj_max[k]), float(rec.tj_min[k]),
                float(rec.tj_max[k] - rec.tj_min[k]),
                float(rec.t_on_actual), float(rec.t_off_actual), warn,
            ))
    _write_csv(path, PRECURSOR_COLUMNS, rows)


def write_thermal_trace(path: Path, bench: TestBench) -> None:
    header = ["t_s"] + [f"tj_{d}" for d in DEVICE_IDS] + ["t_case_test_a_hi"]
    _write_csv(path, header, [tuple(float(x) for x in row)
                              for row in bench.thermal_trace])


def write_waveforms(path: Path, bench: TestBench) -> None:
    header = ["t_s", "theta_rad", "i_a", "i_b", "i_c"] \
        + [f"v_ds_{d}" for d in DEVICE_IDS]
    _write_csv(path, header, [tuple(float(x) for x in row)
                              for row in bench.waveform_rows])


def write_sampling_trace(path: Path, bench: TestBench) -> None:
    header = ("slot_index", "angle_deg", "i_a", "v_on_v", "r_raw_mohm",
              "r_filt_mohm")
    if bench.last_window_trace is None:
        _write_csv(path, header, [])
        return
    angles, i_slots, v_slots = bench.last_window_trace
    raw = np.where(np.abs(i_slots) > 0, v_slots / np.where(i_slots == 0, 1.0,
                                                           i_slots), np.nan)
    filt = smp.fir_filter(np.nan_to_num(raw), bench.s.fir_taps)
    rows = [(k, math.degrees(float(angles[k])), float(i_slots[k]),
             float(v_slots[k]), float(raw[k] * 1e3), float(filt[k] * 1e3))
            for k in range(len(angles))]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

_EXIT_BY_STATUS = {"ok": 0, "protection_trip": 3, "thermal_runaway": 3}


def run(scenario_path, out_dir, seed: Optional[int] = None,
        cycles: Optional[int] = None, mode: Optional[str] = None,
        emit: str = "precursors") -> int:
    """Execute one scenario end to end; returns the process exit code."""
    t_wall = time.time()
    try:
        raw = parse_scenario(scenario_path)
        settings = build_settings(raw)
        cfg = settings.cfg
        if seed is not None:
            cfg = replace(cfg, rng_seed=int(seed))
        if cycles is not None:
            cfg = replace(cfg, n_cycles=int(cycles))
        if mode is not None:
            cfg = replace(cfg, fidelity=Fidelity(mode))
        settings.cfg = validate_scenario(cfg)
        if emit not in ("precursors", "waveforms", "both"):
            raise ConfigError("--emit", f"unknown emit selection {emit!r}")
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    bench = TestBench(settings)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    bench.collect_waveforms = emit in ("waveforms", "both")
    result = bench.run_campaign()

    files = {}
    write_precursors(out / "precursors.csv", result.records)
    files["precursors.csv"] = _sha256(out / "precursors.csv")
    write_thermal_trace(out / "trace_thermal.csv", bench)
    files["trace_thermal.csv"] = _sha256(out / "trace_thermal.csv")
    write_sampling_trace(out / "trace_sampling.csv", bench)
    files["trace_sampling.csv"] = _sha256(out / "trace_sampling.csv")
    if bench.collect_waveforms:
        write_waveforms(out / "waveforms.csv", bench)
        files["waveforms.csv"] = _sha256(out / "waveforms.csv")

    manifest = {
        "scenario": str(scenario_path),
        "out_dir": str(out),
        "seed": settings.cfg.rng_seed,
        "mode": settings.cfg.fidelity.value,
        "cycles_completed": result.cycles_completed,
        "status": result.status,
        "reason": result.reason,
        "files": files,
        "duration_s": time.time() - t_wall,
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if result.status != "ok":
        print(f"run ended early: {result.reason}", file=sys.stderr)
    return _EXIT_BY_STATUS[result.status]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        header, rows = _read_csv(run_dir / "trace_thermal.csv")
        tidy = [("time_s", "device_id", "tj_c")]
        for row in rows:
            for k, dev in enumerate(DEVICE_IDS):
                tidy.append((row[0], dev, row[1 + k]))
        out.write_text("\n".join(",".join(map(str, r)) for r in tidy) + "\n")
        return out

    if kind == "sampling_trace":
        header, rows = _read_csv(run_dir / "trace_sampling.csv")
        tidy = [("slot_index", "angle_deg", "series", "value")]
        for row in rows:
            tidy.append((row[0], row[1], "r_raw_mohm", row[4]))
            tidy.append((row[0], row[1], "r_filt_mohm", row[5]))
        out.write_text("\n".join(",".join(map(str, r)) for r in tidy) + "\n")
        return out

    header, rows = _read_csv(run_dir / "precursors.csv")
    col = {name: i for i, name in enumerate(header)}
    value_col = "r_on_mohm" if kind == "ron_trend" else "v_th_v"
    tidy = [("cycle_index", "device_id", value_col)]
    for row in rows:
        v = row[col[value_col]]
        if v:
            tidy.append((row[col["cycle_index"]], row[col["device_id"]], v))
    out.write_text("\n".join(",".join(map(str, r)) for r in tidy) + "\n")
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _run_one(args_tuple) -> int:
    return run(*args_tuple)


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
                       help="parallel scenario processes")

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

    jobs = []
    for scenario in args.scenarios:
        out = args.out if len(args.scenarios) == 1 \
            else str(Path(args.out) / Path(scenario).stem)
        jobs.append((scenario, out, args.seed, args.cycles, args.mode,
                     args.emit))
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, jobs))
    else:
        codes = [_run_one(j) for j in jobs]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
