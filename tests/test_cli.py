import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from acpcsim import cli
from acpcsim.cli import (SCHEMA, UnknownKind, bench_section, build_settings,
                         export_plotdata, main, parse_scenario, run,
                         write_scenario)
from acpcsim.core import BenchConfig, ConfigError, Fidelity, PfMode, \
    Technique, validate_scenario
from acpcsim.cycling import TestBench, default_settings
from acpcsim.device import vendor_a
from acpcsim.thermal import cooling_step

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_scenarios"
FLOAT_KEYS = [k for k, (convert, _) in SCHEMA.items()
              if convert in (cli._float, cli._unbounded)]
# the float keys that take inf as no bound (cli._unbounded)
UNBOUNDED_KEYS = ["thermal.max_heat", "thermal.reservoir_c",
                  "policy.r_on_rel_threshold", "policy.v_th_shift_threshold",
                  "policy.v_sd_shift_threshold"]

FAST_SCENARIO = """
# three quick envelope cycles
bench.technique = fixed_times
bench.t_on = 0.2
bench.t_off = 0.3
bench.n_cycles = 3
bench.mode = envelope
bench.rng_seed = 5
thermal.boundary_c = 5.0
sampler.n_points = 60
sampler.budget_per_cycle = 300
run.startup_every = 0
"""


@pytest.fixture()
def scenario(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(FAST_SCENARIO)
    return path


class TestScenarioFormat:
    def test_parse_ignores_comments_and_blanks(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# hello\n\nbench.v_dc = 750.0\n")
        assert parse_scenario(p) == {"bench.v_dc": "750.0"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("bench.v_dc = 1\nbench.v_dc = 2\n")
        with pytest.raises(ConfigError):
            parse_scenario(p)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_settings({"bench.volts": "800"})
        with pytest.raises(ConfigError):
            build_settings({"mystery.key": "1"})

    def test_numeric_fields_round_trip_bit_exactly(self, tmp_path):
        cfg = validate_scenario(BenchConfig(
            v_dc=801.2345678901234, f_sw=21_987.654321, f_fund=49.991,
            modulation_index=0.87654321, pf_mode=PfMode.CUSTOM,
            pf_angle_rad=0.5235987755982988, i_ref_peak=399.999999,
            link_inductance=7.000000001e-4, link_resistance=5.0000001e-3,
            technique=Technique.JUNCTION_SWING, t_j_max=151.5, t_j_min=49.5))
        path = tmp_path / "rt.txt"
        write_scenario(bench_section(cfg), path)
        back = build_settings(parse_scenario(path)).cfg
        assert back == cfg

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("false", False), ("yes", True), ("no", False),
        ("1", True), ("0", False), ("True", True), ("NO", False)])
    def test_boolean_fields_round_trip(self, text, value, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text(f"desat.compensated = {text}\n"
                        f"desat.calibrated = {text}\n")
        s = build_settings(parse_scenario(path))
        assert s.desat.compensated is value
        assert s.desat_calibrated is value

    def test_docstring_lists_the_schema_keys(self):
        doc = cli.__doc__.split("Outputs\n")[0]
        blocks = re.findall(r"^(\w+)\.\*\s+(.*?)(?=^\w+\.\*|\Z)", doc,
                            re.M | re.S)
        prefixes = {p for p, _ in blocks}
        assert prefixes == {k.split(".")[0] for k in SCHEMA}
        for prefix, text in blocks:
            if prefix in ("device", "sense"):
                # "any numeric field": the rows come from the dataclasses
                continue
            names = re.sub(r"\([^)]*\)", "", text)
            listed = {f"{prefix}.{n.strip()}" for n in re.split(r"[,/]", names)}
            assert listed == {k for k in SCHEMA
                              if k.startswith(prefix + ".")}, prefix

    def test_bad_values_are_config_errors(self):
        with pytest.raises(ConfigError):
            build_settings({"bench.v_dc": "many"})
        with pytest.raises(ConfigError):
            build_settings({"bench.pf_mode": "sideways"})
        with pytest.raises(ConfigError):
            build_settings({"aging.delta_pkg": "0-0"})
        for key in ("desat.compensated", "desat.calibrated"):
            with pytest.raises(ConfigError, match=key):
                build_settings({key: "maybe"})


PREFIXES = sorted({k.split(".")[0] for k in SCHEMA})
KEY_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_."


@st.composite
def bench_configs(draw):
    f_fund = draw(st.floats(1.0, 400.0))
    t_j_min = draw(st.floats(30.0, 150.0))
    t_case_min = draw(st.floats(30.0, 150.0))
    return validate_scenario(BenchConfig(
        v_dc=draw(st.floats(1.0, 2000.0)),
        f_sw=draw(st.floats(10.001 * f_fund, 1e6)), f_fund=f_fund,
        modulation_index=draw(st.floats(0.0, 1.0)),
        pf_mode=draw(st.sampled_from(PfMode)),
        pf_angle_rad=draw(st.floats(-10.0, 10.0)),
        i_ref_peak=draw(st.floats(1e-3, 2000.0)),
        link_inductance=draw(st.floats(1e-7, 1e-1)),
        link_resistance=draw(st.floats(0.0, 1.0)),
        technique=draw(st.sampled_from(Technique)),
        t_on=draw(st.floats(1e-3, 100.0)), t_off=draw(st.floats(1e-3, 100.0)),
        t_case_min=t_case_min,
        t_case_max=t_case_min + draw(st.floats(0.01, 100.0)),
        t_j_min=t_j_min,
        t_j_max=t_j_min + draw(st.floats(0.01, 200.0 - t_j_min)),
        n_cycles=draw(st.integers(1, 10**9)),
        rng_seed=draw(st.integers(0, 2**63)),
        fidelity=draw(st.sampled_from(Fidelity)),
        ambient_c=draw(st.floats(-60.0, 25.0))))


class TestSchema:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=bench_configs())
    def test_bench_rows_round_trip(self, cfg, tmp_path):
        path = tmp_path / "rt.txt"
        write_scenario(bench_section(cfg), path)
        assert build_settings(parse_scenario(path)).cfg == cfg

    def test_bench_section_writes_every_bench_row(self):
        written = set()
        for technique in Technique:
            written |= set(bench_section(validate_scenario(BenchConfig(
                technique=technique, pf_mode=PfMode.CUSTOM,
                pf_angle_rad=0.5))))
        bench_keys = {k for k in SCHEMA if k.startswith("bench.")}
        # degrees are an input alias for the radians row
        assert written == bench_keys - {"bench.pf_angle_deg"}
        deg = build_settings({"bench.pf_mode": "custom",
                              "bench.pf_angle_deg": "30"}).cfg
        assert deg.pf_angle_rad == pytest.approx(0.5235987755982988, abs=0)

    @pytest.mark.parametrize("prefix", PREFIXES)
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_every_misspelled_key_is_rejected(self, prefix, data):
        key = data.draw(st.sampled_from(
            sorted(k for k in SCHEMA if k.startswith(prefix + "."))))
        edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
        cut = edit != "insert"   # characters of the key the edit removes
        pos = data.draw(st.integers(0, len(key) - cut))
        char = "" if edit == "delete" else data.draw(st.sampled_from(KEY_CHARS))
        typo = key[:pos] + char + key[pos + cut:]
        assume(typo not in SCHEMA)
        with pytest.raises(ConfigError) as e:
            build_settings({typo: "1"})
        assert e.value.field == typo

    def test_defaults_match_the_library(self):
        built = build_settings({"bench.ambient_c": "40",
                                "device.profile": "vendor_a"})
        ref = default_settings(built.cfg, device_params=vendor_a())

        def same(a, b):
            if isinstance(a, np.ndarray):
                return np.array_equal(a, b)
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(
                    same(getattr(a, f.name), getattr(b, f.name))
                    for f in dataclasses.fields(a))
            if isinstance(a, list):
                return len(a) == len(b) and all(map(same, a, b))
            return a == b

        for f in dataclasses.fields(built):
            assert same(getattr(built, f.name), getattr(ref, f.name)), f.name
        # the two derived defaults: 5 % of vendor_a's 20 A, coolant at 40 degC
        bench = TestBench(built)
        assert bench.i_floor == 1.0
        assert cooling_step(bench.cool_test, True, bench.ambient)[0] == 40.0


class TestRun:
    def test_run_writes_expected_rows(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, cycles=10) == 0
        lines = (out / "precursors.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 12
        header = lines[0].split(",")
        assert header == ["cycle_index", "t_start_s", "device_id",
                          "r_on_mohm", "v_th_v", "v_sd_v", "tj_max_c",
                          "tj_min_c", "delta_tj_c", "t_on_s", "t_off_s",
                          "warnings"]

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("bench.modulation_index = 1.3\n")
        out = tmp_path / "never"
        assert run(bad, out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("bench.mode = envelope\nthermal.bogus = 3\n", "thermal.bogus"),
        ("bench.mode = envelope\nbench.i_ref_peak = 15\n",
         "bench.i_ref_peak"),
        ("sampler.n_points = 12.5\n", "sampler.n_points"),
        ("thermal.stage_r = 0.1, 0.2\nthermal.stage_tau = 0.0, 0.3\n",
         "thermal.stage_r"),
        ("bench.gate_on_v = 18\n", "bench.gate_on_v"),
        ("bench.gate_off_v = -5\n", "bench.gate_off_v"),
        ("device.gate_off_v = -5\n", "device.gate_off_v"),
        ("sense.e_d = 0.0005\n", "sense.e_d"),
        ("sense.noise_sigma = -0.002\n", "sense.noise_sigma"),
        ("sense.r_a1 = 5\n", "sense.r_a1"),
        ("sense.r_a2 = 5\n", "sense.r_a2"),
        ("sense.rc_filter_tau = 0.5\n", "sense.rc_filter_tau"),
        ("sense.shift_gain = 3\n", "sense.shift_gain"),
        ("sense.shift_offset = 0.1\n", "sense.shift_offset"),
        ("sense.adc_bits = 8\n", "sense.adc_bits"),
        ("sense.adc_fullscale = 3.3\n", "sense.adc_fullscale"),
        ("sense.vth_blanking = 5.0\n", "sense.vth_blanking"),
        # the threshold reaches 16.7 V against a 15 V gate after cycle 4
        ("bench.mode = envelope\nbench.n_cycles = 8\n"
         "aging.delta_vth = 0:0, 2:0, 4:14\nrun.startup_every = 100\n",
         "aging.delta_vth"),
        ("bench.mode = envelope\nbench.n_cycles = 8\n"
         "aging.delta_vth = 0:0, 2:0, 4:14\nrun.startup_every = 4\n",
         "aging.delta_vth"),
        # a 14.9 V threshold at 25 degC reaches 15.4 V at the table's -50 degC
        ("bench.mode = envelope\nbench.n_cycles = 1\ndevice.v_th0 = 14.9\n"
         "lut.t_axis = -50, 25, 100\n", "lut.t_axis"),
        # the plates settle at the 40 degC supply, so the start-up at cycle 2
        # could not measure the threshold at the 25 degC ambient
        ((EXAMPLES / "junction_swing_campaign.txt").read_text()
         .replace("bench.n_cycles = 200", "bench.n_cycles = 3")
         .replace("run.startup_every = 25", "run.startup_every = 2")
         + "thermal.coolant_temp = 40\n", "thermal.coolant_temp"),
        # a 31-tap filter reaches 15 slots past a 10-point window's edge,
        # further than the window's one reflection
        ("bench.mode = envelope\nbench.n_cycles = 1\nsampler.n_points = 10\n"
         "sampler.fir_taps = 31\n", "sampler.fir_taps"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nsampler.fir_taps = 30\n",
         "sampler.fir_taps"),
        ("bench.mode = envelope\nbench.n_cycles = 1\n"
         "sampler.budget_per_cycle = 0\n", "sampler.budget_per_cycle"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nlut.t_axis = 25\n",
         "lut.t_axis"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nlut.i_axis = 100\n",
         "lut.i_axis"),
        ("bench.mode = envelope\nbench.n_cycles = 1\n"
         "aging.r_th_factor = 0:1.0, 5:0.9\n", "aging.r_th_factor"),
        ("sampler.i_floor = -1\n", "sampler.i_floor"),
        # a model's own parameter check names the keys that set the model
        ("device.gate_on_v = 2\n", "device.gate_on_v"),
        ("thermal.boundary_r_on = 3\n", "thermal.boundary_r_on"),
        ("thermal.boundary_r_on = 0\n", "thermal.boundary_r_on"),
        ("thermal.boundary_r_on = -0.1\n", "thermal.boundary_r_on"),
        # a NaN passes a "<= 0" check; the example would heat for the whole
        # heat-phase cap and exit 3
        ((EXAMPLES / "junction_swing_campaign.txt").read_text()
         .replace("bench.n_cycles = 200", "bench.n_cycles = 2")
         .replace("thermal.boundary_c = 5.0", "thermal.boundary_c = nan"),
         "thermal.boundary_c"),
        ("thermal.stage_r = 0.02, nan, 0.03\n"
         "thermal.stage_tau = 0.001, 0.03, 0.5\n", "thermal.stage_r"),
        # the threshold measurement's source current
        ("sense.i_desat_vth = 0\n", "sense.i_desat_vth"),
        # a NaN cutoff designed NaN taps that only the sampling trace's
        # writer refused, after two outputs were written
        ("sampler.fir_cutoff = nan\n", "sampler.fir_cutoff"),
        ("sampler.fir_cutoff = 1\n", "sampler.fir_cutoff"),
        # a NaN gate capacitance never ended the threshold settle loop; a
        # NaN drive, threshold or timeout would now end it as a timeout
        # (exit 1), so each is refused at configuration
        ("device.c_gs = nan\n", "device.c_gs"),
        ("device.gate_on_v = nan\n", "device.gate_on_v"),
        ("device.v_th0 = nan\n", "device.v_th0"),
        ("sense.vth_timeout = nan\n", "sense.vth_timeout"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nsampler.n_points = 0\n",
         "sampler.n_points"),
        # a cap is the one end of a phase whose own rule never holds: at
        # 100 A the junctions never reach 150 degC, and an infinite heat cap
        # heated for ever
        ((EXAMPLES / "junction_swing_campaign.txt").read_text()
         .replace("bench.n_cycles = 200", "bench.n_cycles = 1")
         .replace("bench.t_j_max = 120.0", "bench.t_j_max = 150")
         + "bench.i_ref_peak = 100\nrun.heat_cap_s = inf\n",
         "run.heat_cap_s"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.cool_cap_s = inf\n",
         "run.cool_cap_s"),
        # a cap of 0 s or less ended each phase at its first step: a heat
        # phase exited 3 with its outputs written, and every cool phase
        # counted as capped
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.heat_cap_s = 0\n",
         "run.heat_cap_s"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.heat_cap_s = -1\n",
         "run.heat_cap_s"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.cool_cap_s = 0\n",
         "run.cool_cap_s"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.cool_cap_s = -1\n",
         "run.cool_cap_s"),
        # each start-up divides its measured drop by the recalibration
        # current: 0 ran at the nominal current, a negative one failed the
        # ambient check (exit 1) and an infinite one heated to a runaway
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.i_cal = 0\n",
         "run.i_cal"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.i_cal = -5\n",
         "run.i_cal"),
        ("bench.mode = envelope\nbench.n_cycles = 1\nrun.i_cal = inf\n",
         "run.i_cal"),
        # a channel constant that outweighs the drift term's rise makes
        # R(T) fall, which the lookup table's inversion cannot take; the
        # message names the keys that set R(T)'s slope
        ("device.k_ch = 0.5\n", "device.k_ch"),
        # the coolant loop's capacity divides each overload step: 0 exited 1
        # with a ZeroDivisionError and an empty output directory, and a
        # negative capacity or rating ran to exit 0
        ("thermal.reservoir_c = 0\nthermal.max_heat = 1e-3\n",
         "thermal.reservoir_c"),
        ("thermal.reservoir_c = -20\n", "thermal.reservoir_c"),
        ("thermal.max_heat = -1\n", "thermal.max_heat"),
    ], ids=["unknown_key", "window_below_floor", "fractional_int",
            "zero_stage_tau", "bench_gate_on_v", "bench_gate_off_v",
            "device_gate_off_v",
            "sense_e_d", "negative_noise_sigma", "sense_r_a1", "sense_r_a2",
            "sense_rc_filter_tau", "sense_shift_gain", "sense_shift_offset",
            "sense_adc_bits", "sense_adc_fullscale", "sense_vth_blanking",
            "channel_closes", "channel_closes_at_startup",
            "channel_closes_on_lut_axis", "coolant_away_from_ambient",
            "fir_longer_than_window", "fir_taps_even", "budget_below_one",
            "lut_t_axis_one_point", "lut_i_axis_one_point",
            "r_th_factor_below_one", "negative_i_floor",
            "device_gate_on_v_below_threshold", "pump_on_boundary_above_off",
            "zero_pump_on_boundary", "negative_pump_on_boundary",
            "nan_boundary_c", "nan_stage_r", "zero_i_desat_vth",
            "fir_cutoff_nan", "fir_cutoff_one", "nan_c_gs", "nan_gate_on_v",
            "nan_v_th0", "nan_vth_timeout", "n_points_zero", "heat_cap_inf",
            "cool_cap_inf", "heat_cap_zero", "heat_cap_negative",
            "cool_cap_zero", "cool_cap_negative", "i_cal_zero",
            "i_cal_negative", "i_cal_inf", "r_t_falls_with_temperature",
            "reservoir_c_zero", "reservoir_c_negative", "max_heat_negative"])
    def test_config_error_exits_2_before_the_output_directory(
            self, text, key, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        out = tmp_path / "never"
        assert run(path, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        # the keys the message names, ahead of its reason
        named = err.removeprefix("configuration error: ").split(": ")[0]
        assert key in named.split(", ")
        assert not out.exists()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nan_float_exits_2_naming_its_key(self, key, tmp_path, capsys):
        # a NaN passes the models' comparisons, so the parser refuses it
        # for every float key
        path = tmp_path / "nan.txt"
        path.write_text(f"bench.mode = envelope\nbench.n_cycles = 1\n"
                        f"{key} = nan\n")
        out = tmp_path / "never"
        assert run(path, out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: expected a "
                              f"number, got 'nan'")
        assert not out.exists()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_inf_float_exits_2_unless_its_key_is_unbounded(
            self, key, tmp_path, capsys):
        # an infinity reached the models (device.r_drift0 = inf tripped
        # DESAT at t = 0 and exited 3 with its outputs written), so the
        # parser refuses +-inf for every float key but the unbounded ones,
        # which take inf as no bound: a cooling capacity or a warning
        # threshold
        assert (SCHEMA[key][0] is cli._unbounded) == (key in UNBOUNDED_KEYS)
        for value in ("inf", "-inf"):
            path = tmp_path / "inf.txt"
            path.write_text(f"bench.mode = envelope\nbench.n_cycles = 1\n"
                            f"{key} = {value}\n")
            out = tmp_path / "never"
            if value == "inf" and key in UNBOUNDED_KEYS:
                assert SCHEMA[key][0](key, value) == float("inf")
                continue
            assert run(path, out) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {key}: expected a "
                                  f"finite number, got '{value}'")
            assert not out.exists()

    @pytest.mark.parametrize("key", UNBOUNDED_KEYS)
    def test_unbounded_key_runs_at_inf(self, key, tmp_path):
        # two junction-swing cycles with no bound on the key run to the end
        path = tmp_path / "inf.txt"
        path.write_text((EXAMPLES / "junction_swing_campaign.txt").read_text()
                        .replace("bench.n_cycles = 200", "bench.n_cycles = 2")
                        + f"{key} = inf\n")
        assert run(path, tmp_path / "out") == 0

    def test_r_th_factor_multiplies_the_thermal_resistance(self, scenario,
                                                            tmp_path):
        # a factor of 1 is the fresh device, to the byte, and a factor of
        # 1.5 heats the aged test-bridge devices and no other
        def tj_max(extra, name):
            path = tmp_path / f"{name}.txt"
            path.write_text(scenario.read_text() + extra)
            assert run(path, tmp_path / name) == 0
            rows = [r.split(",") for r in (tmp_path / name / "precursors.csv")
                    .read_text().splitlines()]
            col = rows[0].index("tj_max_c")
            return [(r[2], r[col]) for r in rows[1:]]

        fresh = tj_max("", "fresh")
        assert tj_max("aging.r_th_factor = 0:1.0\n", "one") == fresh
        for (dev, tj), (_, tj_fresh) in zip(
                tj_max("aging.r_th_factor = 0:1.5\n", "grown"), fresh):
            assert (float(tj) > float(tj_fresh)) == dev.startswith("test_")

    def test_same_seed_byte_identical(self, scenario, tmp_path):
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b")
        a = (tmp_path / "a" / "precursors.csv").read_bytes()
        b = (tmp_path / "b" / "precursors.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_noise(self, scenario, tmp_path):
        run(scenario, tmp_path / "a")
        run(scenario, tmp_path / "b", seed=123)
        a = (tmp_path / "a" / "precursors.csv").read_bytes()
        b = (tmp_path / "b" / "precursors.csv").read_bytes()
        assert a != b

    def test_manifest_hashes_match_files(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["cycles_completed"] == 3
        assert manifest["cool_phases_capped"] == 0
        assert manifest["startup_idles_capped"] == 0
        for name, digest in manifest["files"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_manifest_counts_the_capped_cool_phases(self, tmp_path):
        # a 0.1 s cap ends each 0.3 s fixed-times cool phase early
        path = tmp_path / "capped.txt"
        path.write_text(FAST_SCENARIO + "run.cool_cap_s = 0.1\n")
        out = tmp_path / "out"
        assert run(path, out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["cool_phases_capped"] == 3
        assert manifest["startup_idles_capped"] == 0
        t_off = {float(row.split(",")[10]) for row in
                 (out / "precursors.csv").read_text().splitlines()[1:]}
        assert max(t_off) < 0.15

    def test_cycles_override(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out, cycles=2)
        lines = (out / "precursors.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 12

    def test_early_abort_exits_3(self, tmp_path):
        p = tmp_path / "runaway.txt"
        p.write_text(
            "bench.technique = fixed_times\nbench.t_on = 50.0\n"
            "bench.t_off = 0.3\nbench.n_cycles = 2\nbench.mode = envelope\n"
            "thermal.stage_r = 0.1, 0.2, 0.2\n"
            "thermal.stage_tau = 0.001, 0.03, 0.3\n"
            "thermal.boundary_r_on = 1.0\nthermal.boundary_r_off = 3.0\n"
            "thermal.boundary_c = 2.0\nsampler.n_points = 60\n"
            "sampler.budget_per_cycle = 300\nrun.startup_every = 0\n")
        out = tmp_path / "out"
        assert run(p, out) == 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "thermal_runaway"

    # a fixed-times envelope campaign that runs a start-up before each cycle
    _STARTUP_EACH_CYCLE = (
        "bench.technique = fixed_times\nbench.t_off = 0.3\n"
        "bench.mode = envelope\nthermal.stage_r = 0.0198, 0.0405, 0.0297\n"
        "thermal.stage_tau = 0.001, 0.03, 0.3\nsampler.n_points = 60\n"
        "sampler.budget_per_cycle = 300\nrun.startup_every = 1\n")

    @pytest.mark.parametrize("error, text, cycles", [
        # the ambient on-resistance reads below the fresh table
        ("AmbientMismatch", "sense.noise_sigma = 7\n", 0),
        # the threshold bias never turns the channel on
        ("VthMeasureTimeout", "sense.i_desat_vth = 1e9\n", 0),
        # a plate that the start-up's 900 s idle leaves 1.8 degC warm
        ("NotAtAmbient", _STARTUP_EACH_CYCLE + "bench.t_on = 20\n"
         "thermal.boundary_r_on = 1.0\nthermal.boundary_c = 1000\n", 1),
        # a threshold shift that leaves 0.5 V of overdrive at cycle 1
        ("OverdriveCollapse", _STARTUP_EACH_CYCLE + "bench.t_on = 0.5\n"
         "desat.compensated = true\naging.delta_vth = 0:0.0, 1:11.8\n", 1),
    ], ids=["AmbientMismatch", "VthMeasureTimeout", "NotAtAmbient",
            "OverdriveCollapse"])
    def test_failed_start_up_measurement_exits_3(self, tmp_path, error, text,
                                                 cycles):
        # the run ends with the completed cycles' files and the reason in
        # the manifest, as a trip does
        p = tmp_path / "s.txt"
        base = "" if cycles else \
            (EXAMPLES / "junction_swing_campaign.txt").read_text()
        p.write_text(base + text)
        out = tmp_path / "out"
        assert run(p, out, cycles=2) == 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "measurement_failed"
        assert manifest["reason"].startswith(f"{error}: ")
        assert manifest["cycles_completed"] == cycles
        assert set(manifest["files"]) == {
            "precursors.csv", "trace_thermal.csv", "trace_sampling.csv"}
        rows = (out / "precursors.csv").read_text().splitlines()
        assert len(rows) == 1 + 12 * cycles

    def test_waveforms_emitted_on_request(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("bench.t_on = 0.05\nbench.t_off = 0.05\n"
                     "bench.n_cycles = 1\nrun.startup_every = 0\n"
                     "sampler.budget_per_cycle = 300\n")
        out = tmp_path / "out"
        assert run(p, out, emit="both") == 0
        wf = (out / "waveforms.csv").read_text().splitlines()
        assert wf[0].startswith("t_s,theta_rad,i_a,i_b,i_c,v_ds_test_a_hi")
        assert len(wf) > 10


class TestExports:
    def test_all_kinds(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out)
        for kind in ("thermal_cycle", "ron_trend", "vth_trend",
                     "sampling_trace"):
            path = export_plotdata(out, kind)
            assert path.exists()
            assert len(path.read_text().splitlines()) >= 1

    def test_thermal_cycle_shape_is_sawtooth(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out)
        path = export_plotdata(out, "thermal_cycle")
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        tj = [float(r[2]) for r in rows if r[1] == "test_a_hi"]
        # heating and cooling segments alternate: both signs of slope appear
        diffs = [b - a for a, b in zip(tj, tj[1:])]
        assert any(d > 0.1 for d in diffs) and any(d < -0.1 for d in diffs)

    def test_ron_trend_monotone_under_aging(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(FAST_SCENARIO +
                     "aging.delta_pkg = 0:0, 100:0.5\nbench.n_cycles = 6\n")
        # the scenario writer refuses duplicate keys, so rewrite n_cycles
        text = p.read_text().replace("bench.n_cycles = 3\n", "")
        p.write_text(text)
        out = tmp_path / "out"
        assert run(p, out) == 0
        path = export_plotdata(out, "ron_trend")
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        series = [float(r[2]) for r in rows if r[1] == "test_a_hi"]
        assert all(b > a for a, b in zip(series, series[1:]))

    def test_sampling_trace_has_full_window(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out)
        path = export_plotdata(out, "sampling_trace")
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 2 * 60  # raw + filtered per slot

    def test_unknown_kind_raises(self, scenario, tmp_path):
        out = tmp_path / "out"
        run(scenario, out)
        with pytest.raises(UnknownKind):
            export_plotdata(out, "spectrogram")


class TestMain:
    def test_import_loads_no_scipy(self):
        # a fresh interpreter: this one has scipy loaded by the FIR oracle
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = ("import acpcsim.cli, sys; print(sorted(m for m in sys.modules"
                " if m.partition('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_run_and_export_commands(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        assert main(["export", str(out), "--kind", "ron_trend"]) == 0
        assert main(["export", str(out), "--kind", "nope"]) == 2

    def test_multiple_scenarios_get_subdirs(self, scenario, tmp_path):
        s2 = tmp_path / "second.txt"
        s2.write_text(FAST_SCENARIO)
        out = tmp_path / "multi"
        assert main(["run", str(scenario), str(s2), "--out", str(out),
                     "--jobs", "2"]) == 0
        assert (out / "scenario" / "precursors.csv").exists()
        assert (out / "second" / "precursors.csv").exists()

    def test_unexpected_error_fails_only_its_scenario(self, monkeypatch,
                                                       capsys):
        ran = []

        def fake_run(scenario, *rest):
            ran.append(scenario)
            if scenario == "bad.txt":
                raise RuntimeError("boom")
            return 0

        monkeypatch.setattr(cli, "run", fake_run)
        assert main(["run", "bad.txt", "good.txt", "--out", "unused"]) == 1
        assert ran == ["bad.txt", "good.txt"]
        assert "bad.txt: boom" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_before_the_output_directory(
            self, scenario, tmp_path, capsys, jobs):
        out = tmp_path / "never"
        assert main(["run", str(scenario), "--out", str(out), "--jobs",
                     jobs]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: --jobs: ")
        assert not out.exists()

    @pytest.mark.parametrize("jobs,n_scenarios,cpus,workers", [
        (64, 2, 8, 2), (64, 5, 3, 3), (2, 5, 8, 2), (1, 5, 8, None),
        (8, 1, 8, None)])
    def test_jobs_clamped_to_scenarios_and_cpus(self, monkeypatch, jobs,
                                                n_scenarios, cpus, workers):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return [0 for _ in args]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_run_one", lambda args: 0)
        names = [f"s{k}.txt" for k in range(n_scenarios)]
        assert main(["run", *names, "--out", "unused", "--jobs",
                     str(jobs)]) == 0
        assert pools == ([] if workers is None else [workers])
