import math
from dataclasses import replace

import numpy as np
import pytest

from acpcsim.core import BenchConfig, Fidelity, validate_scenario
from acpcsim.cycling import (_PHASE, _SIGN, DeviceBank, EnergyTally,
                             TestBench, default_settings)
from acpcsim.core import ConfigError
from acpcsim.device import (AgingTrajectory, DeviceParams,
                            calibrated_params, conduction_current,
                            conduction_voltage, current_slope,
                            delta_vth_for_vds_shift,
                            drift_resistance, gate_oxide_trajectory,
                            module_400a, on_resistance, switching_loss,
                            temperature_half, threshold_voltage, v_sd,
                            vendor_a, vendor_b, vgs_at_channel_current)
from acpcsim.sampler import build_ron_lut


class TestVth:
    def test_reference_point(self):
        assert threshold_voltage(module_400a(), 25.0) == pytest.approx(2.7)

    def test_linear_temperature_shift(self):
        # -6.4 mV/degC over 100 degC from the 25 degC anchor
        assert threshold_voltage(module_400a(), 125.0) == \
            pytest.approx(2.06, abs=1e-12)

    def test_additive_aging_shift(self):
        assert threshold_voltage(module_400a(), 25.0, 0.5) == \
            pytest.approx(3.2)


class TestRon:
    def test_calibration_anchor(self):
        # module profile anchored to 3.95 mohm at (25 degC, nominal current)
        assert on_resistance(module_400a(), 25.0, 400.0, 15.0) == \
            pytest.approx(3.95e-3, rel=1e-12)

    def test_channel_off_raises(self):
        # the law itself has no check; the table that characterizes it
        # refuses a drive that does not exceed the threshold on its axis:
        # a 3 V gate closes the channel below about -22 degC
        with pytest.raises(ConfigError) as e:
            build_ron_lut(replace(module_400a(), gate_on_v=3.0),
                          t_axis=(-50.0, 25.0))
        assert e.value.field == "lut.t_axis"

    def test_law_broadcasts_like_scalar_calls(self):
        # a (T, 1) column against an (I,) row gives the (T, I) table of
        # scalar evaluations; the drift helper is the zero-aging drift term
        p = module_400a()
        t = np.array([[25.0], [77.0], [160.0]])
        i = np.array([0.0, 120.0, 400.0, 450.0])
        table = on_resistance(p, t, i, 15.0, 0.07, 0.3)
        assert table.shape == (3, 4)
        for a in range(3):
            for b in range(4):
                assert table[a, b] == pytest.approx(on_resistance(
                    p, float(t[a, 0]), float(i[b]), 15.0, 0.07, 0.3),
                    rel=1e-14)
        assert drift_resistance(p, 25.0) == p.r_drift0
        assert on_resistance(p, 25.0, p.i_nominal, p.gate_on_v) == \
            pytest.approx(3.95e-3, rel=1e-12)

    def test_halved_overdrive_doubles_channel_term(self):
        p = calibrated_params(r_total_t0=4e-3, channel_fraction=0.999999,
                              v_th0=2.7, rho_vth=-6.4e-3, v_gs_on=15.0,
                              alpha_drift=1.3, v_j0=2.8, rho_sd_lo=-2.65e-3,
                              rho_sd_hi=-4.8e-3, r_diode=4e-3, e_on0=0.0,
                              e_off0=0.0, v_ref=800.0, i_ref=400.0,
                              i_nominal=400.0)
        p = DeviceParams(**{**p.__dict__, "r_drift0": 0.0})
        base = on_resistance(p, 25.0, 400.0, 15.0)
        halved = on_resistance(p, 25.0, 400.0, 15.0,
                               delta_vth=(15.0 - 2.7) / 2)
        assert halved == pytest.approx(2 * base, rel=1e-12)

    @pytest.mark.parametrize("profile,slope", [(vendor_a, 2.4e-3),
                                               (vendor_b, 1.6e-3)])
    def test_net_sensitivity_matches_profile(self, profile, slope):
        p = profile()
        i = p.i_nominal
        dr_dt = (on_resistance(p, 26.0, i, 15.0)
                 - on_resistance(p, 24.0, i, 15.0)) / 2.0
        assert dr_dt == pytest.approx(slope, rel=0.10)

    def test_module_sensitivity_by_finite_difference(self):
        p = module_400a()
        dr_dt = (on_resistance(p, 26.0, 400.0, 15.0)
                 - on_resistance(p, 24.0, 400.0, 15.0)) / 2
        analytic = p.r_drift0 * p.alpha_drift / (25.0 + 273.15) \
            + p.k_ch * p.rho_vth / (15.0 - 2.7) ** 2
        assert dr_dt == pytest.approx(analytic, rel=0.10)

    def test_monotone_in_package_and_oxide_aging(self):
        rng = np.random.default_rng(2)
        p = module_400a()
        prev_pkg, prev_vth = -1.0, -1.0
        for pkg, dvth in zip(np.sort(rng.uniform(0, 1, 20)),
                             np.sort(rng.uniform(0, 5, 20))):
            r1 = on_resistance(p, 80.0, 300.0, 15.0, delta_pkg=float(pkg))
            r2 = on_resistance(p, 80.0, 300.0, 15.0, delta_vth=float(dvth))
            assert r1 > prev_pkg and r2 > prev_vth
            prev_pkg, prev_vth = r1, r2

    def test_channel_only_negative_tc_drift_only_positive_tc(self):
        base = module_400a().__dict__.copy()
        ch_only = DeviceParams(**{**base, "r_drift0": 0.0})
        assert on_resistance(ch_only, 150.0, 400.0, 15.0) < \
            on_resistance(ch_only, 25.0, 400.0, 15.0)
        dr_only = DeviceParams(**{**base, "k_ch": 0.0})
        assert on_resistance(dr_only, 150.0, 400.0, 15.0) > \
            on_resistance(dr_only, 25.0, 400.0, 15.0)


class TestConduction:
    def test_first_quadrant_ohmic(self):
        p = calibrated_params(r_total_t0=4e-3, channel_fraction=0.45,
                              v_th0=2.7, rho_vth=-6.4e-3, v_gs_on=15.0,
                              alpha_drift=1.3, v_j0=2.8, rho_sd_lo=-2.65e-3,
                              rho_sd_hi=-4.8e-3, r_diode=4e-3, e_on0=0.0,
                              e_off0=0.0, v_ref=800.0, i_ref=400.0,
                              i_nominal=400.0)
        # r_i_slope defaults to zero here, so R is exactly 4 mohm at 25 degC
        assert conduction_voltage(p, 100.0, 25.0, 15.0) == \
            pytest.approx(0.40, rel=1e-12)

    def test_zero_current(self):
        assert conduction_voltage(module_400a(), 0.0, 25.0, 15.0) == 0.0
        # +0.0 even where the current slope takes the channel resistance
        # below zero (a steep r_i_slope), on scalars, rows and grids alike
        p = module_400a()
        p.r_i_slope = 1e-4
        assert on_resistance(p, 25.0, 0.0, p.gate_on_v) < 0.0
        for i in (0.0, -0.0, np.array([0.0, -0.0, 100.0]),
                  np.array([[0.0, 50.0], [-0.0, -50.0]])):
            v = np.asarray(conduction_voltage(p, i, 25.0, p.gate_on_v))
            zero = np.asarray(i) == 0.0
            assert (v[zero] == 0.0).all()
            assert not np.signbit(v[zero]).any()

    def test_third_quadrant_channel_on_below_knee_is_ohmic(self):
        p = module_400a()
        v = conduction_voltage(p, -50.0, 25.0, 15.0)
        assert v == pytest.approx(-50.0 * on_resistance(p, 25.0, 50.0, 15.0),
                                  rel=1e-12)

    def test_third_quadrant_above_knee_is_channel_parallel_diode(self):
        # a hot device with a shifted threshold: the channel alone would
        # drop more than the knee, so the body diode shares the current
        p = module_400a()
        mag, t = 450.0, 150.0
        r_ch = on_resistance(p, t, mag, 15.0, delta_vth=6.0)
        knee = p.v_j0 + p.rho_sd_lo * (t - p.t0) + 0.1
        assert mag * r_ch > knee
        # channel r_ch in parallel with a knee-plus-r_diode branch
        v_hand = (mag * r_ch * p.r_diode + knee * r_ch) / (r_ch + p.r_diode)
        v = conduction_voltage(p, -mag, t, 15.0, delta_vth=6.0, delta_vsd=0.1)
        assert v == pytest.approx(-v_hand, rel=1e-12)
        i_channel, i_diode = -v / r_ch, (-v - knee) / p.r_diode
        assert i_diode > 0.0
        assert i_channel + i_diode == pytest.approx(mag, rel=1e-12)

    def test_per_device_deltas_with_a_scalar_temperature_are_bitwise(self):
        # start-up computes all twelve drops in one call at the ambient;
        # each element equals the call with that device's deltas alone
        rng = np.random.default_rng(4)
        for make in (module_400a, vendor_a, vendor_b):
            p = make()
            pkg, vth, vsd = (rng.uniform(0, 0.3, 12), rng.uniform(0, 4.0, 12),
                             rng.uniform(0, 0.5, 12))
            for i in (p.i_nominal, -p.i_nominal, 0.0):
                t = float(rng.uniform(-20, 60))
                row = conduction_voltage(p, i, t, p.gate_on_v, pkg, vth, vsd)
                assert row.shape == (12,)
                for k in range(12):
                    assert row[k] == conduction_voltage(
                        p, i, t, p.gate_on_v, pkg[k], vth[k], vsd[k])

    def test_period_grid_is_the_law_bit_for_bit(self):
        # the envelope's hoisted evaluation (DeviceBank.conduction on a
        # current half bound once) is conduction_voltage on the grid, to
        # the bit: both quadrants, the parallel-diode branch and a zero
        # current, at random per-device temperatures and aging; its
        # temperature half plus current_slope is on_resistance
        rng = np.random.default_rng(9)
        p = module_400a()
        bank = DeviceBank(p, ambient=77.0)
        bank.delta_pkg[:] = rng.uniform(0, 0.2, bank.n)
        bank.delta_vth[:] = rng.uniform(0, 6.0, bank.n)
        bank.delta_vsd[:] = rng.uniform(0, 0.4, bank.n)
        bank.t_j = rng.uniform(-20, 170, bank.n)
        i = rng.uniform(-450, 450, size=(bank.n, 17))
        i[0, 0] = 0.0
        t = bank.t_j[:, None]
        pkg, vth, vsd = (bank.delta_pkg[:, None], bank.delta_vth[:, None],
                         bank.delta_vsd[:, None])
        vec, r_t = bank.conduction(conduction_current(p, i))
        assert vec.shape == i.shape and r_t.shape == (bank.n, 1)
        assert vec[0, 0] == 0.0
        assert np.array_equal(
            vec, conduction_voltage(p, i, t, p.gate_on_v, pkg, vth, vsd))
        # and each element is the scalar call but for the drift power's
        # rounding
        for (k, j), cur in np.ndenumerate(i):
            assert vec[k, j] == pytest.approx(conduction_voltage(
                p, float(cur), float(bank.t_j[k]), p.gate_on_v,
                bank.delta_pkg[k], bank.delta_vth[k], bank.delta_vsd[k]),
                abs=1e-15)
        mag = np.abs(i)
        assert np.array_equal(
            r_t + current_slope(p, mag),
            on_resistance(p, t, mag, p.gate_on_v, pkg, vth))
        # the draws reach both quadrants and the parallel-diode branch
        v_lin = mag * on_resistance(p, t, mag, p.gate_on_v, pkg, vth)
        assert np.any(i > 0)
        knee = temperature_half(p, t, p.gate_on_v, pkg, vth, vsd)[1]
        assert np.any((i < 0) & (v_lin <= knee))
        assert np.any((i < 0) & (v_lin > knee))


class TestVsd:
    def test_knee_anchor(self):
        assert v_sd(module_400a(), 1e-9, 25.0) == pytest.approx(2.8, abs=1e-6)

    def test_low_current_sensitivity(self):
        p = module_400a()
        i = 1e-3
        dv_dt = (v_sd(p, i, 26.0) - v_sd(p, i, 24.0)) / 2.0
        assert dv_dt == pytest.approx(-2.65e-3, rel=0.05)

    def test_high_current_sensitivity(self):
        p = module_400a()
        i = p.i_nominal
        dv_dt = (v_sd(p, i, 26.0) - v_sd(p, i, 24.0)) / 2.0
        assert dv_dt == pytest.approx(-4.8e-3, rel=0.05)

    def test_aging_shift_is_exact(self):
        p = module_400a()
        assert v_sd(p, 200.0, 60.0, 0.7) - v_sd(p, 200.0, 60.0) == \
            pytest.approx(0.7, rel=1e-12)

    def test_monotone_in_shift(self):
        p = module_400a()
        vals = [v_sd(p, 150.0, 40.0, d) for d in (0.0, 0.1, 0.3, 0.7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_requires_positive_current(self):
        with pytest.raises(ValueError):
            v_sd(module_400a(), -5.0, 25.0)


class TestLosses:
    def test_zero_current_no_events(self):
        p = module_400a()
        assert switching_loss(p, 22e3, 800.0, 0.0) == 0.0
        assert switching_loss(p, 0.0, 800.0, 100.0) == 0.0

    def test_switching_scales_linearly_with_event_rate(self):
        p = module_400a()
        p1 = switching_loss(p, 22e3, 800.0, 100.0)
        p2 = switching_loss(p, 44e3, 800.0, 100.0)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)
        # the reference energies at the reference bus voltage and current
        assert switching_loss(p, 1.0, p.v_ref, p.i_ref) == \
            pytest.approx(p.e_on0 + p.e_off0, rel=1e-12)

    def test_bench_books_the_switching_loss_law(self):
        # one envelope step and one averaged PWM step each book
        # switching_loss of their device currents as e_sw
        cfg = validate_scenario(BenchConfig(fidelity=Fidelity.ENVELOPE))
        bench = TestBench(default_settings(cfg))
        i_dev = bench._envelope_grid().i_dev
        bench._step_envelope(1, bench.t, math.inf)
        p_sw = switching_loss(bench.bank.params, cfg.f_sw, cfg.v_dc,
                              np.abs(i_dev).mean(axis=1))
        assert bench.tally.e_sw == float(p_sw.sum()) * (1.0 / cfg.f_fund)

        cfg = validate_scenario(BenchConfig())
        bench = TestBench(default_settings(cfg))
        for _ in range(50):
            bench._step_conducting()
        bench.tally = EnergyTally()
        i_mean = bench._step_conducting()[0].rows.i_mean
        p_sw = switching_loss(bench.bank.params, cfg.f_sw, cfg.v_dc,
                              np.abs(np.asarray(i_mean)[_PHASE] * _SIGN))
        assert np.all(p_sw > 0.0)
        assert bench.tally.e_sw == float(np.add.reduce(p_sw)) * (1.0 / cfg.f_sw)

    def test_third_quadrant_books_the_conduction_law(self):
        # every device conducts -100 A at 25 degC for half of each cycle:
        # the bench books duty * |v_cond| * 100 with the conduction law's
        # drop (the channel, below the knee), under the body diode's alone
        cfg = validate_scenario(BenchConfig(fidelity=Fidelity.ENVELOPE))
        bench = TestBench(default_settings(cfg))
        slot_i = bench._envelope_grid().slot_i
        n = slot_i.shape[0]
        # bound through the builder, so the step's switching and link losses
        # and its conducting mask belong to the injected currents
        bench._envelope_cache = bench._bind_envelope_grid(
            np.full((n, 32), -100.0), np.full((n, 32), 0.5), slot_i)
        assert not bench._envelope_grid().conducting.any()
        bench._step_envelope(1, bench.t, math.inf)
        p = bench.bank.params
        v = float(conduction_voltage(p, -100.0, 25.0, p.gate_on_v))
        assert -v == pytest.approx(0.38, abs=0.01)
        assert -v < v_sd(p, 100.0, 25.0)
        assert bench.tally.e_cond / (1.0 / cfg.f_fund) == \
            pytest.approx(n * 0.5 * -v * 100.0, rel=1e-12)


def aged_bank(trajectory, *cycles, mask=None):
    """A fresh DeviceBank advanced through the given cycle counts by
    DeviceBank.apply_trajectories, on every device unless masked."""
    bank = DeviceBank(module_400a(), ambient=25.0)
    mask = np.ones(bank.n, dtype=bool) if mask is None else mask
    for c in cycles:
        bank.apply_trajectories(trajectory, (), c, mask)
    return bank


class TestAging:
    def test_null_trajectory_is_identity(self):
        bank = DeviceBank(module_400a(), ambient=25.0)
        bank.delta_pkg[:], bank.delta_vth[:], bank.delta_vsd[:] = \
            0.1, 0.2, 0.05
        bank.apply_trajectories(AgingTrajectory(), (), 100,
                                np.ones(bank.n, dtype=bool))
        assert (bank.delta_pkg == 0.1).all() and (bank.delta_vth == 0.2).all()
        assert (bank.delta_vsd == 0.05).all()
        assert (bank.r_th_factor == 1.0).all()

    def test_step_event_fires_at_exact_cycle(self):
        traj = AgingTrajectory(delta_pkg=((0.0, 0.0), (10_000.0, 0.0),
                                          (10_000.0, 0.05), (20_000.0, 0.05)))
        before = aged_bank(traj, 9_999)
        at = aged_bank(traj, 10_000)
        assert before.delta_pkg == pytest.approx(np.zeros(12), abs=1e-6)
        assert at.delta_pkg == pytest.approx(np.full(12, 0.05))

    def test_linear_ramp_interpolates(self):
        traj = AgingTrajectory(delta_vsd=((0.0, 0.0), (1000.0, 0.7)))
        mask = np.arange(12) < 6  # the test bridge only
        bank = aged_bank(traj, 500, mask=mask)
        assert bank.delta_vsd[mask] == pytest.approx(np.full(6, 0.35))
        assert (bank.delta_vsd[~mask] == 0.0).all()

    def test_monotone_and_no_backwards_cycles(self):
        # a cycle count that runs backwards never undoes aging
        traj = AgingTrajectory(delta_vth=((0.0, 0.0), (100.0, 1.0)))
        bank = aged_bank(traj, 50, 10)
        assert bank.delta_vth == pytest.approx(np.full(12, 0.5))

    def test_nonmonotone_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            AgingTrajectory(delta_pkg=((0.0, 0.5), (10.0, 0.1)))

    def test_default_oxide_trajectory_hits_reported_drop(self):
        # end of life moves the nominal-current drop from 1.58 V to 2.6 V
        p = module_400a()
        traj = gate_oxide_trajectory(p, cycles_eol=10_000)
        d_eol = aged_bank(traj, 10_000).delta_vth[0]
        v_aged = conduction_voltage(p, p.i_nominal, 25.0, p.gate_on_v,
                                    delta_vth=d_eol)
        assert v_aged == pytest.approx(2.6, abs=1e-9)
        v_fresh = conduction_voltage(p, p.i_nominal, 25.0, p.gate_on_v)
        assert v_fresh == pytest.approx(1.58, abs=1e-9)

    def test_delta_vth_for_vds_shift_closed_form(self):
        p = module_400a()
        d = delta_vth_for_vds_shift(p, 1.02)
        ov = p.gate_on_v - p.v_th0
        shift = p.i_nominal * p.k_ch * (1 / (ov - d) - 1 / ov)
        assert shift == pytest.approx(1.02, rel=1e-12)


def test_vgs_at_channel_current_square_law():
    v = vgs_at_channel_current(module_400a(), 2e-3, 25.0, 0.0)
    assert v == pytest.approx(2.7 + math.sqrt(2 * 2e-3 / 20.0), rel=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(r_drift0=-1.0, k_ch=1.0, v_th0=2.7, rho_vth=-1e-3,
                     v_j0=2.8, rho_sd_lo=-1e-3, rho_sd_hi=-2e-3, r_diode=1e-3,
                     e_on0=0.0, e_off0=0.0, v_ref=800.0, i_ref=400.0)
    with pytest.raises(ValueError):
        DeviceParams(r_drift0=1e-3, k_ch=1.0, v_th0=2.7, rho_vth=+1e-3,
                     v_j0=2.8, rho_sd_lo=-1e-3, rho_sd_hi=-2e-3, r_diode=1e-3,
                     e_on0=0.0, e_off0=0.0, v_ref=800.0, i_ref=400.0)
