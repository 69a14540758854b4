"""Byte-identity guard for speed-ups of the stepping engines.

The first digests were computed with the per-device trigger search and
the per-step constants of the averaged engine, before both were hoisted
out of the step; the sampling-trace, fixed-times and frequent-start-up
digests with the envelope heat step before its run constants were hoisted
and its table inversion moved to sampler.invert_column; the run-state,
operating-point and averaged-campaign digests with the averaged engine's
three-phase quantities held in numpy arrays, before they became Python
float triples; the lookup-table digest with build_ron_lut evaluating each
grid node through a threshold-checking wrapper of on_resistance. A speed-up
must leave them unchanged; a change that alters results on purpose must say
so and pin new digests. The averaged law later moved to per-device arrays
of the law's constants that DeviceBank bound once, with masked copies in
place of nested np.where, and build_ron_lut to one on_resistance call per
temperature over the whole current axis, and every digest held. So did
they when the CSV writers went from a per-cell conversion to joined float
reprs and the envelope grid's slot currents to one phase's cosine and sine
per trigger angle (inverse_park_phase), and when the averaged and switched
steps moved their per-device rows to Python floats, evaluated by the row
form of the conduction law (device.conduction_rows), with the budget-5 run
state pinned just before that change. They held again when DeviceBank
came to evaluate the temperature half once per step in the row form
(device.temperature_rows) for every engine, the envelope's grids included,
and the bound constants were deleted, and when the gate drive came to be
set on the device parameters alone and both plates took one cooling
setting. They held when converter-off phases came to run as blocks of
steps (TestBench._idle_block), with the case-swing and overloaded-plate
cool phases pinned just before that change, and when envelope heat phases
came to run as blocks of steps too (TestBench._step_envelope), the table
inversion of a block's windows to one np.interp per device, with the
whole run state of heat phases that end in every way pinned just before.

Digests were re-pinned on purpose twice. First the fixed-times
precursors.csv, when the envelope engine's partial-budget windows moved
from a per-device loop into the batched fill. The stored slots stayed bit
for bit (the run's trace_sampling.csv digest held), and the old r_on_mohm
cells were the renormalized filter sum on those slots exactly; the batched
FIR product moves 11 of the 36 cells, all r_on_mohm of cycle 2, by at most
6 ulp.

Then the averaged and switched engines' window digests (the steady
windows, the five run states and the averaged campaign's precursors.csv),
when their windows moved to the envelope's window finish: the FIR product
of the slot ratios in place of the renormalized filter sum, whose weights
all count since every stored slot is above the capture floor. Every
window's r_est and r_true moved by at most 8 ulp and its tj_est by at most
85 ulp (a steep R(T) column amplifies a few ulp of R); its time, device,
center current, junction truth and cycle count, the tallies, thermal
trace, waveform rows, link currents, integrators, current filter and
trace_sampling.csv stayed bit for bit, as did the campaign's
trace_thermal.csv and waveforms.csv. 23 of its 24 r_on_mohm cells moved,
by at most 3 ulp.
"""

import functools
import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from acpcsim.cli import (PRECURSOR_COLUMNS, build_settings, parse_scenario,
                         run, write_precursors, write_sampling_trace,
                         write_thermal_trace, write_waveforms)
from acpcsim import thermal as th
from acpcsim.core import (BenchConfig, Fidelity, PfMode, Technique,
                          validate_scenario)
from acpcsim.cycling import (DEVICE_IDS, N_DEVICES, CycleRecord, EnergyTally,
                             TestBench, default_settings)
from acpcsim.device import PROFILES, AgingTrajectory, on_resistance
from acpcsim.sampler import build_ron_lut, fir_filter

EXAMPLES = Path(__file__).resolve().parents[1] / "examples_scenarios"

# r_est and tj_est of every window of AC-1's averaged run, first 0.1 s;
# re-pinned with the run states below when the window finish became one
STEADY_WINDOWS_SHA256 = \
    "6e24d4e6ac5374c83acb81ff7bd7135ef18970c653035224886c81393cd72700"
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
# the junction-swing example at an 18 V gate drive (device.gate_on_v),
# first 3 cycles: the bytes the bench key bench.gate_on_v = 18 wrote
# before the device parameters became the drive's one owner
GATE_18V_PRECURSORS_SHA256 = \
    "b770bb8dcc60603120a951a79aa31a8005e9e08cffc28403b8efb94efce60737"
# fixed times at the default sampler (300 points, budget 5), first 3
# cycles: the partial-budget fill, whose first window completes in cycle 2.
# precursors.csv was re-pinned when that window's estimate moved from
# center_filtered_value's renormalized sum to the batched fill's FIR
# product (last-bit r_on_mohm of cycle 2); trace_sampling.csv held.
FIXED_TIMES_SHA256 = {
    "precursors.csv":
        "e30d24a58b3b31a3b2a60fb91062a605ac94d97114d5c32a11525ea337c55ab8",
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
# the averaged and switched engines' whole run state: every window's r_est,
# tj_est and r_true, every EnergyTally field, the thermal trace, the
# waveform rows, the final link currents, both PI integrators and the
# current filter's state; re-pinned when the windows moved from the
# renormalized filter sum to the FIR product (last-ulp r_est and r_true,
# tj_est as a steep column amplifies them; all else bit for bit)
RUN_STATE_SHA256 = {
    "ac1":
        "4b571e391c28596b22ce153f61326daf52b053558e2582c92f91e3928f90a6d3",
    "generator":
        "a3b6a1832d0c24f829106ef638024403fa33d50bd9f14e42fa74484b621a1297",
    "saturated":
        "39e37598594d455971c7cf2e38179f3ca743809f87dab1627a74ada6389bf755",
    "lossless_link":
        "54309c7ffcde39eca8107fc8c368589463640918942c297bd64d542c690bdb0a",
    "switched":
        "20aaf84ff0b4a0a20bd1319acee296a81439123fedd514156700dc9a287fefa9",
    # pinned before the averaged step moved to Python-float device rows
    "budget_5":
        "6f97d831e9c6c802e8b0d1a6c4a4fe5baeeafb1703a82bce73cf7ae47b867a91",
}
# (scenario, simulated seconds, capture budget per cycle)
RUN_STATE_CASES = {
    # AC-1's run, first 0.1 s
    "ac1": (BenchConfig(), 0.1, 300),
    "generator": (BenchConfig(pf_mode=PfMode.GENERATOR), 0.05, 300),
    # about a tenth of the SVPWM calls are radially clamped
    "saturated": (BenchConfig(modulation_index=1.0, i_ref_peak=600.0,
                              rng_seed=5), 0.05, 300),
    # the plant's r == 0 branch
    "lossless_link": (BenchConfig(link_resistance=0.0), 0.05, 300),
    "switched": (BenchConfig(fidelity=Fidelity.SWITCHED), 0.01, 300),
    # the default budget of 5 binds, with noise on: a sweep crosses most of
    # a window per step at 600 Hz, so the budget stops devices, the store
    # keeps only part of a crossed range, and each of the twelve windows
    # completes once, 60 fundamental cycles after its first slot
    "budget_5": (BenchConfig(f_fund=600.0, rng_seed=11), 0.1, 5),
}
# measure_operating_point() after 0.02 s of the default averaged run
OPERATING_POINT_SHA256 = \
    "5307151020bc6aa4e0754a94839f43b8c77beee248662133c315c4ea645318dc"
# an averaged fixed-times campaign through the command line, heat -> idle
# -> heat, with waveforms. precursors.csv was re-pinned with the run states
# above (last-ulp r_on_mohm); trace_thermal.csv and waveforms.csv held.
AVERAGED_CAMPAIGN_SHA256 = {
    "precursors.csv":
        "5c2f76f98cf83c29cfc16945d0842e318c1900e7fc75c8a954c403ae6231bf52",
    "trace_thermal.csv":
        "040a07a02b857207e72951c19af6e716d2cfdce32e64faa997aedbdd270f90cd",
    "waveforms.csv":
        "f73802d5e50ddc4359660b0dff37d81f4846f9c81eb61b0d3908bf80a6fe6556",
}
# build_ron_lut's grid, then its drift profile, of every stock profile in
# name order, at the default axes and gate
RON_LUT_SHA256 = \
    "35f5957e0eb109add415f699aab406e82d1f5504d0db6ad73a691e9d8a765fbb"
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


def _digests(scenario, out, cycles, names, emit="precursors"):
    assert run(scenario, out, cycles=cycles, emit=emit) == 0
    files = json.loads((out / "run_manifest.json").read_text())["files"]
    return {k: files[k] for k in names}


@functools.cache
def _steady_run(case: str) -> TestBench:
    """The named run of RUN_STATE_CASES, with waveforms collected; the
    waveform rows are only appended, so no other result depends on them."""
    cfg, duration, budget = RUN_STATE_CASES[case]
    bench = TestBench(default_settings(validate_scenario(cfg),
                                       budget_per_cycle=budget))
    bench.collect_waveforms = True
    bench.run_steady(duration)
    return bench


def test_averaged_steady_windows_unchanged():
    bench = _steady_run("ac1")
    est = np.array([(w["r_est"], w["tj_est"]) for w in bench.windows],
                   dtype="<f8")
    assert len(est) == 58
    assert hashlib.sha256(est.tobytes()).hexdigest() == STEADY_WINDOWS_SHA256


def test_envelope_campaign_outputs_unchanged(tmp_path):
    assert _digests(EXAMPLES / "junction_swing_campaign.txt",
                    tmp_path / "out", 3, CAMPAIGN_SHA256) == CAMPAIGN_SHA256


def test_device_gate_drive_outputs_unchanged(tmp_path):
    scn = tmp_path / "gate_18v.txt"
    scn.write_text((EXAMPLES / "junction_swing_campaign.txt").read_text()
                   + "device.gate_on_v = 18\n")
    assert _digests(scn, tmp_path / "out", 3, ["precursors.csv"]) \
        == {"precursors.csv": GATE_18V_PRECURSORS_SHA256}


# fixed times at the default sampler (300 points, budget 5)
FIXED_TIMES_SCENARIO = ("bench.technique = fixed_times\nbench.t_on = 0.5\n"
                        "bench.t_off = 0.5\nbench.rng_seed = 7\n"
                        "run.startup_every = 0\n" + FAST_ENVELOPE)


def test_fixed_times_partial_budget_outputs_unchanged(tmp_path):
    scn = tmp_path / "fixed.txt"
    scn.write_text(FIXED_TIMES_SCENARIO)
    assert _digests(scn, tmp_path / "out", 3, FIXED_TIMES_SHA256) \
        == FIXED_TIMES_SHA256


# the two cool-phase rules the campaigns above leave out, first 3 cycles:
# a case swing, whose cool phases end on the case sensors, and fixed times
# on plates rated 150 W with a 20 J/K coolant loop, whose overload ramps
# the reference through every idle step
CASE_SWING_SCENARIO = ("bench.technique = case_swing\nbench.t_case_max = 45\n"
                       "bench.t_case_min = 35\nbench.rng_seed = 7\n"
                       "run.startup_every = 0\n" + FAST_ENVELOPE)
OVERLOADED_SCENARIO = (FIXED_TIMES_SCENARIO + "thermal.max_heat = 150\n"
                       "thermal.reservoir_c = 20\n")
COOL_PHASE_SHA256 = {
    "case_swing": {
        "precursors.csv":
            "a028da49f259c182afb8bb7f241c28d950f14b4a13db7aa1f83aa1cf8233acae",
        "trace_thermal.csv":
            "2facc2883bad018f9fc3077ace8c30d545f0e759dac81fad0844b3a1d0715be6",
    },
    "overloaded": {
        "precursors.csv":
            "c3b7a9a2509edfd1d4ddf6c9f724a9dff15f6438c882b276f878aa7ba8430ed9",
        "trace_thermal.csv":
            "901f54a23562e22a31c28f38d3f3a788aa8f919c1b2b3387d6340b4742be5776",
    },
}


@pytest.mark.parametrize("case, text", [("case_swing", CASE_SWING_SCENARIO),
                                        ("overloaded", OVERLOADED_SCENARIO)])
def test_cool_phase_outputs_unchanged(case, text, tmp_path):
    scn = tmp_path / f"{case}.txt"
    scn.write_text(text)
    assert _digests(scn, tmp_path / "out", 3, COOL_PHASE_SHA256[case]) \
        == COOL_PHASE_SHA256[case]


@pytest.mark.parametrize("case", ["junction_swing", "fixed_times"])
def test_collected_windows_keep_the_bytes_and_their_slot_truths(
        case, tmp_path, monkeypatch):
    # the envelope fill stores its slot truths only while windows are
    # collected: a library run that collects them writes the command
    # line's precursors.csv bytes, and each window's r_true is the FIR
    # product of on_resistance at its slots, at the junction temperatures
    # and aging of the steps that filled them
    scn = tmp_path / "scenario.txt"
    scn.write_text((EXAMPLES / "junction_swing_campaign.txt").read_text()
                   if case == "junction_swing" else FIXED_TIMES_SCENARIO)
    assert run(scn, tmp_path / "cli", cycles=3) == 0
    settings = build_settings(parse_scenario(scn))
    settings.cfg = validate_scenario(replace(settings.cfg, n_cycles=3))
    bench = TestBench(settings)
    p, n, taps = bench.bank.params, settings.sampler_n, settings.fir_taps
    rows = np.arange(N_DEVICES)[:, None]
    truth = np.empty((N_DEVICES, n))
    expected = []
    filled = [0]
    step = bench._step_envelope

    def recorded_step(*args):
        # the truths of each committed step's slots, at the junction
        # temperatures the step started from
        bank = bench.bank
        starts = [bank.t_j.copy()]
        blk, stop, capped = step(*args)
        m = len(blk.t) if stop is None else stop + 1
        slot_i = bench._envelope_grid().slot_i
        for t_j in starts + list(blk.t_j[:m - 1]):
            f = filled[0]
            sl = slice(f, min(f + settings.budget_per_cycle, n))
            truth[:, sl] = on_resistance(
                p, t_j[:, None], slot_i[:, sl], p.gate_on_v,
                bank.delta_pkg[:, None], bank.delta_vth[:, None])
            if sl.stop == n:
                expected.extend((truth[rows, bench._win_idx] @ taps).tolist())
            filled[0] = sl.stop % n
        return blk, stop, capped

    monkeypatch.setattr(bench, "_step_envelope", recorded_step)
    result = bench.run_campaign(collect_windows=True)
    write_precursors(tmp_path / "library.csv", result.records)
    assert (tmp_path / "library.csv").read_bytes() == \
        (tmp_path / "cli" / "precursors.csv").read_bytes()
    assert len(expected) >= N_DEVICES
    assert [w["r_true"] for w in bench.windows] == expected


def test_recalibrated_tables_reach_the_batched_fill(tmp_path):
    scn = tmp_path / "swing.txt"
    scn.write_text((EXAMPLES / "junction_swing_campaign.txt").read_text()
                   .replace("run.startup_every = 25", "run.startup_every = 2")
                   .replace("2000:0.2", "10:0.3"))
    text = scn.read_text()
    assert "run.startup_every = 2\n" in text and "0:0.0, 10:0.3\n" in text
    assert _digests(scn, tmp_path / "out", 5, FREQUENT_STARTUP_SHA256) \
        == FREQUENT_STARTUP_SHA256


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for values in parts:
        a = np.asarray(values, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _run_state_digest(bench) -> str:
    ctl = bench.ctl
    return _sha([(w["r_est"], w["tj_est"], w["r_true"])
                 for w in bench.windows],
                [getattr(bench.tally, f.name) for f in fields(EnergyTally)],
                bench.thermal_trace, bench.waveform_rows, bench.plant.i_abc,
                [ctl.pi_d.integrator, ctl.pi_q.integrator],
                ctl.current_filter.y)


@pytest.mark.parametrize("case", list(RUN_STATE_CASES))
def test_run_state_unchanged(case):
    assert _run_state_digest(_steady_run(case)) == RUN_STATE_SHA256[case]


def test_budget_windows_count_the_cycles_that_stored_slots():
    # cycles_used counts the fundamental cycles in which a window stored a
    # slot, as the envelope fill counts its fill cycles: each budget-5
    # window of 300 slots takes ceil(300 / 5) = 60, the first one too
    bench = _steady_run("budget_5")
    assert [w["cycles_used"] for w in bench.windows] == [60] * N_DEVICES


def test_operating_point_unchanged():
    bench = TestBench(default_settings(validate_scenario(BenchConfig()),
                                       budget_per_cycle=300))
    bench.run_steady(0.02)
    op = bench.measure_operating_point(n_cycles=1)
    assert _sha(op["v_dq"], op["i_dq"], op["i_mag"],
                op["theta_v_minus_i_deg"]) == OPERATING_POINT_SHA256


def test_averaged_campaign_outputs_unchanged(tmp_path):
    scn = tmp_path / "averaged.txt"
    scn.write_text((EXAMPLES / "motor_mode_baseline.txt").read_text()
                   .replace("bench.t_on = 2.0", "bench.t_on = 0.1")
                   .replace("bench.t_off = 3.0", "bench.t_off = 0.1")
                   .replace("bench.rng_seed = 1", "bench.rng_seed = 3"))
    text = scn.read_text()
    assert "t_on = 0.1\n" in text and "t_off = 0.1\n" in text \
        and "rng_seed = 3\n" in text and "mode = averaged\n" in text
    assert _digests(scn, tmp_path / "out", 2, AVERAGED_CAMPAIGN_SHA256,
                    emit="both") == AVERAGED_CAMPAIGN_SHA256


def test_ron_lut_bytes_unchanged():
    h = hashlib.sha256()
    for name in sorted(PROFILES):
        lut = build_ron_lut(PROFILES[name]())
        h.update(lut.grid.tobytes())
        h.update(lut.drift_profile.tobytes())
    assert h.hexdigest() == RON_LUT_SHA256


# -- the CSV writers against the per-cell rule ------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
               -1e300, 5e-324, 0.1, -2.5, 123456.789]


def _cell(x) -> str:
    """The per-cell rule the writers implement: a float's repr, the empty
    cell for NaN, str of anything else."""
    if isinstance(x, float):
        return "" if math.isnan(x) else repr(x)
    return str(x)


def _csv(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _edge_rows(width: int, n: int) -> list:
    """n rows of Python floats that cycle through EDGE_FLOATS."""
    m = len(EDGE_FLOATS)
    return [tuple(EDGE_FLOATS[(j * width + c) % m] for c in range(width))
            for j in range(n)]


def _edge_array(offset: int) -> np.ndarray:
    return np.array([EDGE_FLOATS[(offset + k) % len(EDGE_FLOATS)]
                     for k in range(N_DEVICES)])


def test_precursors_follow_the_cell_rule(tmp_path):
    records = [CycleRecord(
        cycle_index=c, t_start=EDGE_FLOATS[c], r_on_est=_edge_array(c),
        tj_max=_edge_array(c + 1), tj_min=_edge_array(c + 5),
        v_th=_edge_array(c + 2), v_sd=_edge_array(c + 3),
        t_on_actual=EDGE_FLOATS[-1 - c], t_off_actual=EDGE_FLOATS[c + 1],
        warnings=(("package", "body_diode"), (), ("gate_oxide",))[c % 3])
        for c in range(len(EDGE_FLOATS) - 1)]
    rows = [(rec.cycle_index, float(rec.t_start), dev_id,
             float(rec.r_on_est[k] * 1e3), float(rec.v_th[k]),
             float(rec.v_sd[k]), float(rec.tj_max[k]), float(rec.tj_min[k]),
             float(rec.delta_tj[k]), float(rec.t_on_actual),
             float(rec.t_off_actual), "|".join(rec.warnings))
            for rec in records for k, dev_id in enumerate(DEVICE_IDS)]
    write_precursors(tmp_path / "p.csv", records)
    assert (tmp_path / "p.csv").read_bytes() == _csv(PRECURSOR_COLUMNS, rows)


def test_traces_follow_the_cell_rule(tmp_path):
    bench = TestBench(default_settings(validate_scenario(BenchConfig())))
    bench.thermal_trace = _edge_rows(2 + N_DEVICES, 7)
    bench.waveform_rows = _edge_rows(5 + N_DEVICES, 7)
    write_thermal_trace(tmp_path / "t.csv", bench)
    write_waveforms(tmp_path / "w.csv", bench)
    assert (tmp_path / "t.csv").read_bytes() == _csv(
        ["t_s", *(f"tj_{d}" for d in DEVICE_IDS), "t_case_test_a_hi"],
        bench.thermal_trace)
    assert (tmp_path / "w.csv").read_bytes() == _csv(
        ["t_s", "theta_rad", "i_a", "i_b", "i_c",
         *(f"v_ds_{d}" for d in DEVICE_IDS)], bench.waveform_rows)


def test_sampling_trace_follows_the_cell_rule(tmp_path):
    header = ("slot_index", "angle_deg", "i_a", "v_on_v", "r_raw_mohm",
              "r_filt_mohm")
    bench = TestBench(default_settings(validate_scenario(BenchConfig())))
    write_sampling_trace(tmp_path / "empty.csv", bench)
    assert (tmp_path / "empty.csv").read_bytes() == _csv(header, [])

    # a window with a zero-current slot, whose raw ratio is NaN, a
    # negative zero current and edge readings; device 0's window crosses
    # 0 rad, so its angles run from near 2 pi to near 0
    angles = bench.samplers[0].triggers.angles
    n = len(angles)
    rng = np.random.default_rng(4)
    i_slots = rng.uniform(50.0, 400.0, n)
    i_slots[[3, 7]] = 0.0, -0.0
    i_slots[11] = -120.0
    v_slots = rng.uniform(0.1, 2.0, n)
    v_slots[:len(EDGE_FLOATS)] = EDGE_FLOATS
    bench.last_window_trace = (angles, i_slots, v_slots)
    with np.errstate(over="ignore", invalid="ignore"):  # the edge readings
        raw = np.where(np.abs(i_slots) > 0,
                       v_slots / np.where(i_slots == 0, 1.0, i_slots), np.nan)
        filt = fir_filter(np.nan_to_num(raw), bench.s.fir_taps)
        rows = [(k, math.degrees(float(angles[k])), float(i_slots[k]),
                 float(v_slots[k]), float(raw[k] * 1e3), float(filt[k] * 1e3))
                for k in range(n)]
        write_sampling_trace(tmp_path / "s.csv", bench)
    assert math.isnan(raw[3]) and math.isnan(raw[7])
    assert (tmp_path / "s.csv").read_bytes() == _csv(header, rows)


# -- envelope heat phases, whole run state ----------------------------------

# envelope runs whose heat phases the stop tests end in every way: a
# junction swing at budget 5, windows collected, whose stop test reads
# estimates that change only every 12 steps and whose windows span many
# steps; and runs that end inside a heat phase by a DESAT trip (a device
# that reads shorted once a junction passes 90 degC in the second cycle), by
# thermal runaway and by run.heat_cap_s. Each digest covers the whole run
# state: the time, the thermal trace, the last window, every window, the
# estimates, the tally, the outputs (status, reason and precursors.csv) and
# the noise generator's state. Pinned before the heat phases came to run
# in blocks.
HEAT_RUN_STATE_SHA256 = {
    "junction_swing_budget_5":
        "b6a6cb77553835c8438d8f1f4328d262e78c048139f6057de2b015c1a7bce26b",
    "desat_trip":
        "3beb1df5e0e2a1fa0b312f99bd96aecc0e03e02633cbfcdae0a1d5d430dadbcb",
    "thermal_runaway":
        "32f4d83f7cb6c69158a8935a837636a6a033448070dbd45915ec7efc5670b613",
    "heat_cap":
        "94c1de52029c218b71685eb8b7b8978063a0ab88bcb6344ed8334ee2c431e61f",
}


def _example_settings(**overrides):
    settings = build_settings(parse_scenario(
        EXAMPLES / "junction_swing_campaign.txt"))
    return replace(settings, **overrides)


def _heat_run(case: str):
    """The named run of HEAT_RUN_STATE_SHA256: (bench, result)."""
    def fast(**kw):
        return default_settings(validate_scenario(BenchConfig(
            fidelity=Fidelity.ENVELOPE, **kw)), budget_per_cycle=300,
            sampler_n=60, startup_every=0,
            network=th.default_network(total_r_jc=0.09),
            cooling=th.CoolingState(r_boundary_on=0.12, r_boundary_off=2.0,
                                    boundary_c=5.0),
            ntc=th.NtcModel(bias=0.0, time_constant=0.02))

    collect = case in ("junction_swing_budget_5", "desat_trip")
    if case == "junction_swing_budget_5":
        settings = _example_settings(budget_per_cycle=5)
        settings.cfg = validate_scenario(replace(settings.cfg, n_cycles=4))
    elif case == "desat_trip":
        settings = _example_settings()
        settings.cfg = validate_scenario(replace(settings.cfg, n_cycles=3))
    elif case == "thermal_runaway":
        # the setup of test_cycling.py's test_thermal_runaway_detected
        settings = default_settings(
            validate_scenario(BenchConfig(
                fidelity=Fidelity.ENVELOPE, technique=Technique.FIXED_TIMES,
                t_on=50.0, t_off=0.3, n_cycles=1)),
            budget_per_cycle=300, sampler_n=60, startup_every=0,
            network=th.default_network(total_r_jc=0.5),
            cooling=th.CoolingState(r_boundary_on=1.0, r_boundary_off=3.0,
                                    boundary_c=2.0))
    else:
        # the setup of test_cycling.py's test_heat_cap_ends_an_unreachable_
        # target
        settings = fast(technique=Technique.JUNCTION_SWING, t_j_max=150.0,
                        t_j_min=60.0, n_cycles=2, i_ref_peak=100.0)
        settings.heat_cap_s = 2.0
    bench = TestBench(settings)
    if case == "desat_trip":
        bank = bench.bank
        conduction = bank.conduction

        def failing(cur, out=None):
            # device 3 reads shorted at the steps that start with a junction
            # above 90 degC in a heat phase after the first, whose package
            # has begun to age
            bank.shorted[3] = bank.delta_pkg[0] > 0.0 and bank.t_j.max() > 90.0
            return conduction(cur, out)

        bank.conduction = failing
    return bench, bench.run_campaign(collect_windows=collect)


_WINDOW_KEYS = ("t", "device", "r_est", "i_pk", "r_true", "tj_est",
                "tj_true", "cycles_used")


def _whole_run_digest(bench, result, tmp_path) -> str:
    write_precursors(tmp_path / "p.csv", result.records)
    h = hashlib.sha256(_sha(
        [bench.t], bench.thermal_trace, *(bench.last_window_trace or ()),
        [[w[k] for k in _WINDOW_KEYS] for w in bench.windows],
        bench.tj_est, bench.r_on_last,
        [getattr(bench.tally, f.name) for f in fields(EnergyTally)]).encode())
    h.update((tmp_path / "p.csv").read_bytes())
    h.update(json.dumps([result.status, result.reason,
                         result.cycles_completed,
                         bench.rng.bit_generator.state],
                        sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(HEAT_RUN_STATE_SHA256))
def test_heat_run_state_unchanged(case, tmp_path):
    bench, result = _heat_run(case)
    status = {"junction_swing_budget_5": "ok",
              "desat_trip": "protection_trip",
              "thermal_runaway": "thermal_runaway",
              "heat_cap": "thermal_runaway"}[case]
    assert result.status == status
    assert _whole_run_digest(bench, result, tmp_path) \
        == HEAT_RUN_STATE_SHA256[case]


# -- averaged heat phases, whole run state ----------------------------------

# averaged campaigns whose heat phases end in every way, on a thermal scale
# about 30 times faster than the campaign example's so that each run takes a
# fraction of a second: a junction swing at budget 300 and a case swing,
# with windows collected; fixed times at budget 5, whose budget stops
# devices; two short heat phases of the switched engine; and runs that end
# inside a heat phase by a DESAT trip (device 3 reads shorted once a
# junction passes 70 degC in a heat phase whose package has begun to age),
# by thermal runaway and by run.heat_cap_s. Each digest covers the envelope
# runs' whole run state above, and the state only the averaged engine keeps:
# the waveform rows, the link currents, both PI integrators, the current
# filter, every sampler's slots and counters, the last sweep angle, the
# fundamental cycle, the DESAT run counters, and the thermal state with both
# plates. Pinned before the averaged heat phases came to run in blocks.
AVERAGED_HEAT_RUN_STATE_SHA256 = {
    "junction_swing":
        "e05ddf36e25e3e059a13d13fd6805ea57b90ea8e24dd484cc28cf62e2d68bea3",
    "case_swing":
        "9cbf196e7cf67695bf611ab56cc8b2eaa79c8541129855e437f52c9d8be1e85e",
    "fixed_times":
        "7f9e3602278024d2bb3c3526249956658e64e1beb5f82b0146b3cb8752145dbb",
    "desat_trip":
        "1c177d58b3f9caa3eac903720f6ee69cd98cecbb21cabe2cb8544503d2df163b",
    "thermal_runaway":
        "7b03234fe1fc5d85d39ce21a3256ce29abcae005c1eb0249913f9ec64916795d",
    "switched":
        "c5458531744532f512a68cc4b35776e860575d92eac780d8dc9db648d6f70acf",
    "heat_cap":
        "736bf32f5014a780cdabbddc2a6183483427a9addcca067420b904ffcababee9",
}


def _quick_thermal(r_jc=(0.0198, 0.0405, 0.0297), r_on=0.12, r_off=2.0,
                   boundary_c=0.25) -> dict:
    """Foster stages of the given resistances with taus of 0.2, 2 and
    10 ms, and plates whose boundary stage holds boundary_c."""
    return dict(network=th.FosterNetwork([
        th.FosterStage(r, tau / r)
        for r, tau in zip(r_jc, (2e-4, 2e-3, 1e-2))]),
        cooling=th.CoolingState(r_boundary_on=r_on, r_boundary_off=r_off,
                                boundary_c=boundary_c),
        ntc=th.NtcModel(bias=0.0, time_constant=0.002))


AVERAGED_HEAT_CASES = {
    # (scenario, settings overrides, windows collected)
    "junction_swing": (dict(technique=Technique.JUNCTION_SWING, t_j_max=95.0,
                            t_j_min=45.0, n_cycles=3, rng_seed=5),
                       dict(budget_per_cycle=300, sampler_n=60), True),
    "case_swing": (dict(technique=Technique.CASE_SWING, t_case_max=45.0,
                        t_case_min=35.0, n_cycles=3, rng_seed=6),
                   dict(budget_per_cycle=300, sampler_n=60), True),
    "fixed_times": (dict(technique=Technique.FIXED_TIMES, t_on=0.06,
                         t_off=0.03, n_cycles=5, rng_seed=7),
                    dict(budget_per_cycle=5, sampler_n=60), True),
    "desat_trip": (dict(technique=Technique.FIXED_TIMES, t_on=0.04,
                        t_off=0.03, n_cycles=3, rng_seed=10),
                   dict(budget_per_cycle=300, sampler_n=60,
                        trajectory=AgingTrajectory(
                            delta_pkg=((0.0, 0.0), (2.0, 0.1)))), True),
    "thermal_runaway": (dict(technique=Technique.FIXED_TIMES, t_on=5.0,
                             t_off=0.03, n_cycles=1, rng_seed=8),
                        dict(budget_per_cycle=300, sampler_n=60,
                             **_quick_thermal((0.1, 0.2, 0.2), 1.0, 3.0,
                                              0.02)), False),
    # the switched engine's sub-PWM plant, two short heat phases
    "switched": (dict(technique=Technique.FIXED_TIMES, t_on=0.01, t_off=0.03,
                      n_cycles=2, rng_seed=4, fidelity=Fidelity.SWITCHED),
                 dict(budget_per_cycle=300, sampler_n=60), True),
    "heat_cap": (dict(technique=Technique.JUNCTION_SWING, t_j_max=150.0,
                      t_j_min=60.0, n_cycles=2, rng_seed=9, i_ref_peak=100.0),
                 dict(budget_per_cycle=300, sampler_n=60, heat_cap_s=0.05),
                 False),
}


def _averaged_heat_run(case: str):
    """The named run of AVERAGED_HEAT_RUN_STATE_SHA256: (bench, result)."""
    cfg, overrides, collect = AVERAGED_HEAT_CASES[case]
    overrides = {**_quick_thermal(), **overrides}
    bench = TestBench(default_settings(validate_scenario(BenchConfig(**cfg)),
                                       startup_every=0, **overrides))
    bench.collect_waveforms = True
    if case == "desat_trip":
        bank = bench.bank
        conduction = bank.conduction

        def failing(cur, out=None):
            bank.shorted[3] = bank.delta_pkg[0] > 0.0 and bank.t_j.max() > 70.0
            return conduction(cur, out)

        bank.conduction = failing
    return bench, bench.run_campaign(collect_windows=collect)


def _averaged_run_digest(bench, result, tmp_path) -> str:
    ctl = bench.ctl
    samplers = [(s.v_on, s.i, s.truth, s.filled_mask,
                 [s.filled, s.cycles_elapsed, s.budget_used])
                for s in bench.samplers]
    h = hashlib.sha256(_whole_run_digest(bench, result, tmp_path).encode())
    h.update(_sha(
        bench.waveform_rows, bench.plant.i_abc,
        [ctl.pi_d.integrator, ctl.pi_q.integrator], ctl.current_filter.y,
        *[a for row in samplers for a in row],
        [bench.theta_prev, bench._fund_cycle, bench._wave_count],
        bench._desat_run, bench._stage_temps, bench.bank.t_j, bench._t_case,
        bench.ntc_readings, bench._ntc_prev,
        [[c.overload_rise, c.capacity_exceeded, c.pump_on]
         for c in (bench.cool_test, bench.cool_load)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(AVERAGED_HEAT_RUN_STATE_SHA256))
def test_averaged_heat_run_state_unchanged(case, tmp_path):
    bench, result = _averaged_heat_run(case)
    status = {"desat_trip": "protection_trip",
              "thermal_runaway": "thermal_runaway",
              "heat_cap": "thermal_runaway"}.get(case, "ok")
    assert result.status == status
    assert _averaged_run_digest(bench, result, tmp_path) \
        == AVERAGED_HEAT_RUN_STATE_SHA256[case]
