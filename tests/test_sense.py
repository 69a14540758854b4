import math

import numpy as np
import pytest

from acpcsim.core import TWO_PI, BenchConfig, validate_scenario
from acpcsim.cycling import (N_DEVICES, ProtectionTrip, TestBench,
                             default_settings)
from acpcsim.device import (delta_vth_for_vds_shift, module_400a,
                            vgs_at_channel_current)
from acpcsim.sense import (DesatConfig, MovBenchParams, MovRating,
                           NotAtAmbient, OverdriveCollapse,
                           SenseCircuitParams, VthMeasureTimeout,
                           compensate_desat_threshold, desat_voltage,
                           measure_vth, mov_check)


def quiet_bench():
    """A bench whose sense path adds no noise, so a capture is exact."""
    return TestBench(default_settings(
        sense_params=SenseCircuitParams(noise_sigma=0.0)))


def capture_whole_turn(bench, v_cond, duty=0.5, i_dev=100.0):
    """One TestBench._capture step whose sweep, a whole turn started
    between two trigger windows, crosses every device's triggers. Opens a
    new fundamental cycle first, so every budget is fresh."""
    bench.t = (bench._fund_cycle + 1) / bench.cfg.f_fund
    bench.theta_prev = math.radians(30.0)
    full = np.ones(N_DEVICES)
    bench._capture(bench.theta_prev + TWO_PI - 1e-6, i_dev * full,
                   v_cond * full, duty * full)


def captured(bench, k):
    """The values device k stored, in slot order."""
    s = bench.samplers[k]
    return s.v_on[s.filled_mask]


def protection_trip_time(threshold, t, v, dt=0.5e-6, blanking=2e-6):
    """Feed the bench's DESAT comparator (TestBench._protection) one pin
    sample per step of dt on every device; the trip time, or None."""
    bench = TestBench(default_settings(
        desat=DesatConfig(threshold=threshold, blanking=blanking)))
    bias = desat_voltage(bench.s.sense_params, 0.0)
    conducting = np.ones(N_DEVICES)
    for t_k, v_k in zip(t, v):
        bench.t = float(t_k)
        try:
            bench._protection(np.full(N_DEVICES, v_k - bias), conducting, dt)
        except ProtectionTrip as trip:
            return trip.t
    return None


class TestSenseVds:
    def test_mismatch_bias_adds(self):
        bench = quiet_bench()
        capture_whole_turn(bench, 1.58)
        for k in range(N_DEVICES):
            assert captured(bench, k) == pytest.approx(
                np.full(5, 1.58 + bench.e_d[k]), abs=1e-9)

    def test_matched_dividers_exact(self):
        # no lag: each capture reads the present drop, not the last one
        bench = quiet_bench()
        for v in (0.734, 2.6, 0.734):
            for st_k in bench.samplers:
                st_k.reset_window()
            capture_whole_turn(bench, v)
            for k in range(N_DEVICES):
                assert captured(bench, k) - bench.e_d[k] == pytest.approx(
                    np.full(5, v), abs=1e-9)

    def test_switch_off_blocks_reading(self):
        # a device switched off (duty below 2 %) stores nothing and draws
        # no noise; one just above stores its budget
        bench = TestBench(default_settings())
        duty = np.array([0.0, 0.0199, 0.02, 1.0] * 3)
        ref = np.random.default_rng()
        ref.bit_generator.state = bench.rng.bit_generator.state
        ref.normal(0.0, bench.s.sense_params.noise_sigma, 6)
        capture_whole_turn(bench, 1.58, duty=duty)
        filled = [st_k.filled for st_k in bench.samplers]
        assert filled == [0, 0, 5, 5] * 3
        assert bench.rng.bit_generator.state == ref.bit_generator.state


class TestSenseVsd:
    def test_knee_anchor_plus_bias(self):
        # at the reference temperature the probe reads the knee plus the
        # ohmic drop at nominal current plus the device's mismatch
        bench = quiet_bench()
        p = bench.bank.params
        assert bench.bank.t_j == pytest.approx(np.full(N_DEVICES, p.t0))
        out = bench._probe_vsd()
        assert out == pytest.approx(
            p.v_j0 + p.r_diode * p.i_nominal + bench.e_d, abs=1e-12)

    def test_aged_shift_passes_through(self):
        bench = quiet_bench()
        bench.bank.t_j = np.full(N_DEVICES, 40.0)
        fresh = bench._probe_vsd()
        bench.bank.delta_vsd[:] = 0.7
        aged = bench._probe_vsd()
        assert aged - fresh == pytest.approx(np.full(N_DEVICES, 0.7),
                                             rel=1e-12)


class TestMeasureVth:
    def p(self):
        return SenseCircuitParams(noise_sigma=0.0)

    def test_fresh_at_room_temperature(self):
        v = measure_vth(module_400a(), 25.0, 25.0, self.p(), 0.0)
        assert abs(v - 2.7) < 0.1

    def test_hot_chamber_tracks_tempco(self):
        v = measure_vth(module_400a(), 125.0, 125.0, self.p(), 0.0)
        assert abs(v - 2.06) < 0.1

    def test_aged_shift_visible(self):
        v = measure_vth(module_400a(), 25.0, 25.0, self.p(), 0.5)
        assert abs(v - 3.2) < 0.1

    def test_matches_square_law_balance_point(self):
        p = module_400a()
        v = measure_vth(p, 25.0, 25.0, self.p(), 0.0)
        assert v == pytest.approx(vgs_at_channel_current(p, 2e-3, 25.0, 0.0),
                                  abs=2e-3)

    def test_gate_fault_times_out(self):
        p = module_400a()
        broken = type(p)(**{**p.__dict__, "k_sat": 0.0})
        with pytest.raises(VthMeasureTimeout):
            measure_vth(broken, 25.0, 25.0, self.p(), 0.0)
        slow = type(p)(**{**p.__dict__, "c_gs": 1e-3})
        with pytest.raises(VthMeasureTimeout):
            measure_vth(slow, 25.0, 25.0, self.p(), 0.0)

    def test_nan_gate_capacitance_times_out(self):
        # DeviceParams refuses it; a NaN set after construction must still
        # end the settle loop, whose comparisons with NaN are all false
        p = module_400a()
        p.c_gs = float("nan")
        with pytest.raises(VthMeasureTimeout):
            measure_vth(p, 25.0, 25.0, self.p(), 0.0)

    def test_requires_device_at_ambient(self):
        with pytest.raises(NotAtAmbient):
            measure_vth(module_400a(), 90.0, 25.0, self.p(), 0.0)


class TestDesat:
    def test_pin_voltage_formula(self):
        p = SenseCircuitParams(i_desat=1e-3, r_s=1000.0, v_d_hv=0.7)
        assert desat_voltage(p, 1.58) == pytest.approx(3.98, rel=1e-12)
        assert desat_voltage(p, 2.6) == pytest.approx(5.00, rel=1e-12)
        assert desat_voltage(p, 0.0) == pytest.approx(2.40, rel=1e-12)

    def test_affine_slope_one_in_vds(self):
        p = SenseCircuitParams()
        for v in np.linspace(0, 10, 7):
            assert desat_voltage(p, v + 1.0) - desat_voltage(p, v) == \
                pytest.approx(1.0, rel=1e-12)

    def test_short_excursion_does_not_trip(self):
        t = np.arange(0, 10e-6, 0.5e-6)
        v = np.where((t >= 2e-6) & (t < 3.5e-6), 12.0, 1.0)
        assert protection_trip_time(9.0, t, v) is None

    def test_sustained_exceedance_trips_at_blanking(self):
        t = np.arange(0, 10e-6, 0.5e-6)
        v = np.where(t >= 3e-6, 12.0, 1.0)
        trip = protection_trip_time(9.0, t, v)
        assert trip is not None
        assert trip == pytest.approx(5e-6, abs=1e-12)

    def test_reset_on_dip(self):
        t = np.arange(0, 10e-6, 0.5e-6)
        v = np.full_like(t, 12.0)
        v[t == 1.5e-6] = 1.0
        trip = protection_trip_time(9.0, t, v)
        assert trip == pytest.approx(2e-6 + 2e-6, abs=1e-12)

    def test_translation_invariance_and_threshold_monotonicity(self):
        rng = np.random.default_rng(8)
        t = np.arange(0, 50e-6, 0.5e-6)
        v = 5.0 + np.cumsum(rng.normal(0, 0.4, size=t.size))
        out_lo = protection_trip_time(6.0, t, v)
        out_hi = protection_trip_time(8.0, t, v)
        if out_hi is not None:
            assert out_lo is not None and out_lo <= out_hi
        shift = protection_trip_time(6.0, t + 1e-3, v)
        if out_lo is not None:
            assert shift == pytest.approx(out_lo + 1e-3)
        else:
            assert shift is None


class TestCompensation:
    def test_zero_shift_unchanged(self):
        cfg = DesatConfig(threshold=4.48, blanking=2e-6)
        out = compensate_desat_threshold(cfg, 0.0, module_400a())
        assert out.threshold == cfg.threshold
        assert out.compensated

    def test_end_of_life_shift_raises_by_reported_drop(self):
        # the threshold grows by exactly the modeled on-state drop increase
        p = module_400a()
        d_eol = delta_vth_for_vds_shift(p, 2.6 - 1.58)
        cfg = DesatConfig(threshold=4.48, blanking=2e-6)
        out = compensate_desat_threshold(cfg, d_eol, p)
        assert out.threshold - cfg.threshold == pytest.approx(1.02, abs=1e-9)

    def test_overdrive_collapse_guard(self):
        with pytest.raises(OverdriveCollapse):
            compensate_desat_threshold(DesatConfig(), 11.5, module_400a())


class TestMov:
    def test_inductive_energy_rule(self):
        mov = MovRating(v_steady=850.0, v_clamp=1100.0, e_rating=200.0)
        bench = MovBenchParams(v_dc=800.0, v_module_max=1200.0,
                               inductance_per_phase=700e-6, i_peak=400.0,
                               c_dc=0.0)
        out = mov_check(mov, bench)
        assert out.energy_required == pytest.approx(168.0, rel=1e-12)
        assert out.energy_ok and out.passed

    def test_clamp_above_module_rating_fails(self):
        mov = MovRating(v_steady=850.0, v_clamp=1300.0, e_rating=500.0)
        bench = MovBenchParams(v_dc=800.0, v_module_max=1200.0,
                               inductance_per_phase=700e-6, i_peak=400.0)
        out = mov_check(mov, bench)
        assert not out.clamp_ok and not out.passed

    def test_all_rules_pass(self):
        mov = MovRating(v_steady=850.0, v_clamp=1100.0, e_rating=200.0)
        bench = MovBenchParams(v_dc=800.0, v_module_max=1200.0,
                               inductance_per_phase=700e-6, i_peak=400.0,
                               c_dc=0.0)
        out = mov_check(mov, bench)
        assert out.steady_ok and out.clamp_ok and out.energy_ok

    def test_capacitor_swing_term(self):
        mov = MovRating(v_steady=850.0, v_clamp=1100.0, e_rating=400.0)
        bench = MovBenchParams(v_dc=800.0, v_module_max=1200.0,
                               inductance_per_phase=700e-6, i_peak=400.0,
                               c_dc=560e-6)
        out = mov_check(mov, bench)
        expected = 168.0 + 0.5 * 560e-6 * (1100.0 ** 2 - 800.0 ** 2)
        assert out.energy_required == pytest.approx(expected, rel=1e-12)


def test_e_d_draw_stays_in_measured_range():
    for seed in range(100):
        cfg = validate_scenario(BenchConfig(rng_seed=seed))
        e_d = TestBench(default_settings(cfg)).e_d
        assert e_d.shape == (N_DEVICES,)
        assert ((0.3e-3 <= e_d) & (e_d <= 1.6e-3)).all()
