"""Acceptance suite: every release criterion at its stated tolerance, one
test and one printed verdict line per criterion. Run with `pytest -s
tests/test_acceptance.py` to see the verdict lines on the console.
"""

import math
import time

import numpy as np
import pytest

from acpcsim import thermal as th
from acpcsim.core import (TWO_PI, BenchConfig, Fidelity, PfMode, Technique,
                          validate_scenario)
from acpcsim.cycling import (ProtectionTrip, TestBench, default_settings,
                             energy_audit)
from acpcsim.device import (AgingTrajectory, delta_vth_for_vds_shift,
                            conduction_voltage, module_400a, on_resistance,
                            v_sd, vgs_at_channel_current)
from acpcsim.electrical import inverse_park, park, svpwm_duties
from acpcsim.sampler import (SamplerState, build_trigger_set,
                             invert_column, sampler_update_interval)
from acpcsim.sense import (DesatConfig, SenseCircuitParams, desat_voltage,
                           measure_vth)


def _verdict(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def fast_thermal():
    return dict(network=th.default_network(total_r_jc=0.09),
                cooling=th.CoolingState(r_boundary_on=0.12,
                                        r_boundary_off=2.0, boundary_c=5.0),
                ntc=th.NtcModel(bias=0.0, time_constant=0.02))


def test_ac1_online_ron_accuracy_within_1p5_percent():
    # closed-loop averaged run, 100 fundamental cycles, seeded 2 mV noise
    t0 = time.time()
    cfg = validate_scenario(BenchConfig(f_fund=50.0, i_ref_peak=400.0))
    bench = TestBench(default_settings(cfg, budget_per_cycle=300))
    assert bench.s.sense_params.noise_sigma == pytest.approx(2e-3)
    bench.run_steady(100 / cfg.f_fund)
    wall = time.time() - t0

    errs = np.array([abs(w["r_est"] - w["r_true"]) / w["r_true"]
                     for w in bench.windows])
    assert len(errs) > 500  # all twelve switches monitored over 100 cycles
    frac_ok = float((errs < 0.015).mean())
    _verdict("AC-1", frac_ok >= 0.99 and wall < 60.0,
             f"{100 * frac_ok:.2f}% of {len(errs)} windows under 1.5% "
             f"(worst {100 * errs.max():.3f}%), wall {wall:.1f}s")


def test_ac2_tj_estimation_closure_within_3c():
    worst = 0.0
    for delta_pkg in (0.0, 0.10):
        cfg = validate_scenario(BenchConfig())
        bench = TestBench(default_settings(cfg, budget_per_cycle=300))
        bench.bank.delta_pkg[:] = delta_pkg
        bench.startup_measurements()
        bank = bench.bank
        lut = bench.luts[0]
        t_axis = lut.t_axis.tolist()
        for t_j in np.arange(30.0, 150.1, 10.0):
            for i_d in np.arange(100.0, 400.1, 50.0):
                r_true = on_resistance(
                    bank.params, float(t_j), float(i_d),
                    bank.params.gate_on_v,
                    float(bank.delta_pkg[0]), float(bank.delta_vth[0]))
                # the inversion the bench's window finish runs
                est = invert_column(float(r_true),
                                    lut.column(float(i_d)).tolist(), t_axis)
                worst = max(worst, abs(est - t_j))
    _verdict("AC-2", worst <= 3.0,
             f"max |estimated - true| = {worst:.3f} degC over "
             f"[30,150] degC x [100,400] A, fresh and +10% package aging")


def test_ac3_vth_measurement_within_0p1v():
    p = SenseCircuitParams()  # 2 mV noise, 2 mA threshold-mode bias
    rng = np.random.default_rng(42)
    worst = 0.0
    for ambient in (-20.0, 0.0, 25.0, 75.0, 125.0, 150.0):
        for dvth in (0.0, 0.25, 0.5, 1.0):
            dev = module_400a()
            measured = measure_vth(dev, ambient, ambient, p, dvth, rng=rng)
            model = vgs_at_channel_current(dev, p.i_desat_vth, ambient, dvth)
            worst = max(worst, abs(measured - model))
    _verdict("AC-3", worst < 0.1,
             f"max |measured - model at 2 mA| = {1000 * worst:.1f} mV over "
             f"ambient [-20,150] degC x shift [0,1] V")


def test_ac4_sense_path_fidelity():
    # the bench's capture without noise: every stored v_on is the true drop
    # plus its device's diode mismatch e_d. One FIR tap makes a window's
    # estimate its center slot's v_on / i, so every window is judged, and
    # so are the slots of the open windows: the samplers' in the averaged
    # engine, the envelope fill's buffers in the envelope engine.
    quiet = SenseCircuitParams(noise_sigma=0.0)
    branches = {"averaged": (Fidelity.AVERAGED, 300, 0.05),
                "batched envelope": (Fidelity.ENVELOPE, 300, 0.1),
                "partial-budget envelope": (Fidelity.ENVELOPE, 5, 0.3)}
    worst = 0.0
    counts = {}
    for name, (fidelity, budget, duration) in branches.items():
        cfg = validate_scenario(BenchConfig(fidelity=fidelity))
        bench = TestBench(default_settings(
            cfg, sense_params=quiet, budget_per_cycle=budget, sampler_n=60,
            fir_taps=np.array([1.0])))
        bench.run_steady(duration)
        e_d = bench.e_d
        for w in bench.windows:
            bias = (w["r_est"] - w["r_true"]) * w["i_pk"]
            worst = max(worst, abs(bias - e_d[w["device"]]))
        if fidelity is Fidelity.ENVELOPE:
            f = bench._env_filled
            stored = zip(bench._env_v[:, :f],
                         bench._envelope_grid().slot_i[:, :f],
                         bench._env_truth[:, :f])
        else:
            stored = ((s.v_on[s.filled_mask], s.i[s.filled_mask],
                       s.truth[s.filled_mask]) for s in bench.samplers)
        slots = 0
        for k, (v, i, r) in enumerate(stored):
            slots += len(v)
            worst = max(worst, float(np.abs(v - i * r - e_d[k]).max(
                initial=0.0)))
        assert len(bench.windows) >= 12 and np.ptp(e_d) > 0
        counts[name] = f"{len(bench.windows)} windows, {slots} open slots"

    # the body-diode probe: v_sd at nominal current plus e_d, aged and hot
    bank = bench.bank
    bank.delta_vsd[:] = np.linspace(0.0, 0.7, 12)
    bank.t_j = np.linspace(30.0, 140.0, 12)
    i_nom = bank.params.i_nominal
    probe = bench._probe_vsd()
    expected = [v_sd(bank.params, i_nom, float(bank.t_j[k]),
                     float(bank.delta_vsd[k])) + bench.e_d[k]
                for k in range(12)]
    probe_err = float(np.abs(probe - expected).max())
    _verdict("AC-4", worst <= 1e-9 and probe_err <= 1e-9,
             f"captured v_on - true drop - e_d within {worst:.2e} V "
             f"({'; '.join(f'{k}: {v}' for k, v in counts.items())}); "
             f"body-diode probe - (v_sd + e_d) within {probe_err:.2e} V")


def test_ac5_sampling_efficiency():
    def cycles_to_complete(budget):
        ts = build_trigger_set(math.pi / 2, 300, math.radians(10))
        s = SamplerState(ts, budget_per_cycle=budget)
        # each sweep ends on the next trigger, so it crosses that one alone,
        # in slot order: at budget 1 that is the sequential baseline
        edges = [float(ts.angles[0]) - 1e-6, *ts.angles.tolist()]
        cycles = 0
        while not s.complete:
            s.start_cycle()
            cycles += 1
            for a, b in zip(edges, edges[1:]):
                sampler_update_interval(s, a, b, 1.0, 100.0)
        return cycles

    got = {b: cycles_to_complete(b) for b in (1, 5, 30, 300)}
    ok = all(got[b] == math.ceil(300 / b) for b in got)
    seq = cycles_to_complete(1)
    _verdict("AC-5", ok and seq == 300,
             f"out-of-order cycles {got} (= ceil(300/B)); sequential "
             f"baseline {seq} cycles")


def test_ac6_desat_aging_scenario():
    # the bench's own chain: the trip level calibrated from the fresh drop,
    # start-up compensation from the measured threshold shift, and the
    # blanked comparator in TestBench._protection on every PWM step
    params = module_400a()
    d_eol = delta_vth_for_vds_shift(params, 2.6 - 1.58)

    def aged_bench(recompensate):
        bench = TestBench(default_settings(
            desat=DesatConfig(compensated=True), desat_calibrated=True))
        bench.startup_measurements()  # fresh devices freeze the baselines
        bench.bank.delta_vth[:] = d_eol
        if recompensate:
            bench.startup_measurements()
        return bench

    def time_to_trip(bench, duration_s):
        t0 = bench.t
        try:
            bench.run_steady(duration_s)
        except ProtectionTrip as trip:
            return trip.t - t0
        return None

    stale = aged_bench(recompensate=False)
    t_spurious = time_to_trip(stale, 0.2)
    bench = aged_bench(recompensate=True)
    t_ride = time_to_trip(bench, 0.2)
    tj_end = float(bench.bank.t_j.max())
    bench.bank.shorted[0] = True
    t_short = time_to_trip(bench, 0.02)

    v_aged = conduction_voltage(params, params.i_nominal, 25.0, 15.0,
                                delta_vth=d_eol)

    def ms(t):
        return "never" if t is None else f"after {1e3 * t:.2f} ms"

    _verdict("AC-6",
             t_spurious is not None and t_ride is None and t_short is not None,
             f"fresh threshold {stale.desat_thr[0]:.2f} V trips on aged "
             f"devices ({desat_voltage(bench.s.sense_params, v_aged):.2f} V at "
             f"pin at nominal current) {ms(t_spurious)}; compensated "
             f"threshold {bench.desat_thr[0]:.2f} V rides through 0.2 s "
             f"(T_j {tj_end:.1f} degC at its end) yet trips on a short "
             f"{ms(t_short)}")


def test_ac7_control_fidelity():
    results = {}
    for mode in (PfMode.MOTOR, PfMode.GENERATOR):
        cfg = validate_scenario(BenchConfig(pf_mode=mode))
        bench = TestBench(default_settings(cfg, budget_per_cycle=300))
        bench.run_steady(0.4)
        op = bench.measure_operating_point()
        err = math.hypot(op["i_dq"][0] - bench.i_ref_dq[0],
                         op["i_dq"][1] - bench.i_ref_dq[1]) / cfg.i_ref_peak
        ang = op["theta_v_minus_i_deg"]
        ang_err = abs(ang) if mode is PfMode.MOTOR else abs(180.0 - abs(ang))
        results[mode.value] = (err, ang_err)
    ok = all(err < 0.01 and ang < 2.0 for err, ang in results.values())
    _verdict("AC-7", ok,
             "; ".join(f"{m}: dq error {100 * e:.3f}%, angle error {a:.2f} deg"
                       for m, (e, a) in results.items()))


def test_ac8_cycling_techniques_under_aging():
    ramp = AgingTrajectory(delta_pkg=((0.0, 0.0), (2000.0, 0.2)))

    cfg1 = validate_scenario(BenchConfig(
        technique=Technique.FIXED_TIMES, t_on=0.3, t_off=0.5, n_cycles=2000,
        fidelity=Fidelity.ENVELOPE))
    b1 = TestBench(default_settings(cfg1, budget_per_cycle=300, sampler_n=60,
                                    startup_every=0, trajectory=ramp,
                                    **fast_thermal()))
    r1 = b1.run_campaign()
    tjmax = np.array([rec.tj_max[0] for rec in r1.records])
    increasing = bool((np.diff(tjmax) > 0).all())

    cfg3 = validate_scenario(BenchConfig(
        technique=Technique.JUNCTION_SWING, t_j_max=120.0, t_j_min=60.0,
        n_cycles=2000, fidelity=Fidelity.ENVELOPE))
    b3 = TestBench(default_settings(cfg3, budget_per_cycle=300, sampler_n=60,
                                    startup_every=25, trajectory=ramp,
                                    **fast_thermal()))
    r3 = b3.run_campaign()
    target = cfg3.t_j_max - cfg3.t_j_min
    devs = np.array([abs(rec.delta_tj[int(np.argmax(rec.tj_max[:6]))] - target)
                     for rec in r3.records])
    _verdict("AC-8",
             r1.status == "ok" and r3.status == "ok" and increasing
             and len(r1.records) == 2000 and len(r3.records) == 2000
             and bool((devs <= 2.0).all()),
             f"technique 1 T_j,max strictly increasing over 2000 cycles "
             f"({tjmax[0]:.1f} -> {tjmax[-1]:.1f} degC); technique 3 "
             f"max|dT_j - {target:.0f}| = {devs.max():.2f} degC")


def test_ac9_conservation_and_oracles():
    notes = []

    # energy audit on a nominal averaged run
    cfg = validate_scenario(BenchConfig())
    bench = TestBench(default_settings(cfg, budget_per_cycle=300))
    bench.run_steady(0.2)
    audit = energy_audit(bench.tally)
    ok = audit.residual_frac < 1e-3
    notes.append(f"energy residual {audit.residual_frac:.2e}")

    # transform roundtrip
    rng = np.random.default_rng(77)
    worst_rt = 0.0
    for _ in range(1000):
        x = rng.uniform(-500, 500, size=2)
        theta = rng.uniform(0, TWO_PI)
        d, q = park(*inverse_park(x[0], x[1], theta), theta)
        worst_rt = max(worst_rt,
                       abs(d - x[0]) / max(1, abs(x[0])),
                       abs(q - x[1]) / max(1, abs(x[1])))
    ok &= worst_rt <= 1e-12
    notes.append(f"park roundtrip {worst_rt:.1e}")

    # duty synthesis volt-second fidelity over a fundamental
    v_dc = 800.0
    mag = 0.95 * v_dc / math.sqrt(3)
    errs = []
    for theta in np.linspace(0, TWO_PI, 440, endpoint=False):
        d = np.array(svpwm_duties(mag, 0.0, theta, v_dc)[:3])
        realized = (d - d.mean()) * v_dc
        errs.append(np.abs(realized - inverse_park(mag, 0.0, theta)).mean())
    ok &= float(np.mean(errs)) < 0.005 * v_dc
    notes.append(f"volt-second error {float(np.mean(errs)) / v_dc:.2e} of v_dc")

    # the trigger search the energy run's capture used equals a linear
    # scan of its twelve trigger sets: random sweeps, short and long, some
    # starting or ending exactly on a trigger, many wrapping through 0 rad
    index = bench._trigger_index
    angles = np.stack([st.triggers.angles for st in bench.samplers])
    n = 100_000
    t0 = rng.uniform(-TWO_PI, 2 * TWO_PI, n)
    t1 = t0 + np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.05, n),
                       rng.uniform(0.0, TWO_PI, n))
    for t in (t0, t1):
        on = rng.random(n) < 0.2
        t[on] = rng.choice(angles.ravel(), int(on.sum()))
    w0 = t0 % TWO_PI
    w1 = t1 % TWO_PI
    same = True
    for lo in range(0, n, 5000):
        a0 = w0[lo:lo + 5000, None, None]
        a1 = w1[lo:lo + 5000, None, None]
        hit = np.where(a1 > a0, (angles > a0) & (angles <= a1),
                       (a1 < a0) & ((angles > a0) | (angles <= a1)))
        want = hit.any(axis=2)
        for j in range(len(want)):
            got = index.crossed(float(t0[lo + j]), float(t1[lo + j]))
            same &= got == np.flatnonzero(want[j]).tolist()
    ok &= same
    notes.append(f"binary search == linear scan on 1e5 sweeps "
                 f"({int((w1 < w0).sum())} wrapped)")

    # the bench's exact Foster update against the closed form: 1 s at
    # 100 W per device from rest, pump on, plates below max_heat
    heated = TestBench(default_settings())
    for _ in range(5000):
        heated._thermal_step(np.full(12, 100.0), 2e-4, pump_test=True)
    cool = heated.s.cooling
    stages = [(st.r_th, st.c_th) for st in heated.s.network.stages] \
        + [(cool.r_boundary_on, cool.boundary_c)]
    analytic = heated.ambient + sum(100.0 * r * (1 - math.exp(-1.0 / (r * c)))
                                   for r, c in stages)
    foster_err = float(np.abs(heated.bank.t_j - analytic).max()) / analytic
    ok &= foster_err < 1e-6
    notes.append(f"bench Foster step vs analytic {foster_err:.1e}")

    _verdict("AC-9", ok, "; ".join(notes))


def test_ac10_byte_identical_outputs(tmp_path):
    from acpcsim.cli import run
    scenario = tmp_path / "s.txt"
    scenario.write_text(
        "bench.technique = fixed_times\nbench.t_on = 0.2\n"
        "bench.t_off = 0.3\nbench.n_cycles = 3\nbench.mode = envelope\n"
        "bench.rng_seed = 11\nthermal.boundary_c = 5.0\n"
        "sampler.n_points = 60\nsampler.budget_per_cycle = 300\n"
        "run.startup_every = 0\n")
    assert run(scenario, tmp_path / "a") == 0
    assert run(scenario, tmp_path / "b") == 0
    a = (tmp_path / "a" / "precursors.csv").read_bytes()
    b = (tmp_path / "b" / "precursors.csv").read_bytes()
    _verdict("AC-10", a == b and len(a) > 0,
             f"precursors.csv byte-identical across reruns ({len(a)} bytes)")
