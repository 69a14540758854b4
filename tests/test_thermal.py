import math
from dataclasses import replace

import numpy as np
import pytest

from acpcsim.cycling import _NO_LOSS, N_DEVICES, TestBench, default_settings
from acpcsim.thermal import (CoolingState, FosterNetwork, FosterStage,
                             NtcModel, StepTooLarge, cooling_absorb,
                             cooling_step, default_network, foster_step)


def single_stage(r=0.1, c=10.0):
    return FosterNetwork(stages=[FosterStage(r, c)])


def bench(**overrides) -> TestBench:
    """A bench whose thermal state is driven directly through _thermal_step."""
    return TestBench(default_settings(**overrides))


class TestFosterStep:
    def test_steady_state_is_p_times_r(self):
        net = single_stage()
        t_j = None
        for _ in range(200_000):
            t_j, _ = foster_step(net, 100.0, 25.0, 1e-4)
        assert t_j == pytest.approx(35.0, abs=1e-6)

    def test_matches_analytic_exponential(self):
        # tau = 1 s; at t = 1 s the rise is P*R*(1 - exp(-1))
        net = single_stage()
        dt = 1e-4
        for _ in range(10_000):
            t_j, _ = foster_step(net, 100.0, 25.0, dt)
        expected = 25.0 + 10.0 * (1.0 - math.exp(-1.0))
        assert t_j == pytest.approx(expected, abs=1e-9)

    def test_zero_loss_holds_reference(self):
        net = single_stage()
        for _ in range(100):
            t_j, t_case = foster_step(net, 0.0, 25.0, 1e-4)
        assert t_j == 25.0 and t_case == 25.0

    def test_step_too_large(self):
        net = single_stage(r=0.1, c=10.0)  # tau = 1 s
        with pytest.raises(StepTooLarge):
            foster_step(net, 10.0, 25.0, 0.3)
        with pytest.raises(StepTooLarge):
            foster_step(net, 10.0, 25.0, -1.0)

    def test_energy_balance_per_step_is_analytic(self):
        # P*dt == C*dT + (1/R) * integral(T dt), with the exact-step integral
        r, c = 0.05, 40.0
        net = single_stage(r, c)
        tau = r * c
        rng = np.random.default_rng(4)
        t_prev = 0.0
        for _ in range(200):
            p = float(rng.uniform(0, 500))
            dt = float(rng.uniform(1e-4, tau / 5))
            foster_step(net, p, 0.0, dt)
            t_now = float(net.stage_temps[0])
            integral = tau * (t_prev - t_now) + p * r * dt
            balance = p * dt - (c * (t_now - t_prev) + integral / r)
            assert abs(balance) <= 1e-3 * max(p * dt, 1e-9)  # 0.1 %
            t_prev = t_now

    def test_junction_above_case_above_reference(self):
        net = default_network()
        for _ in range(5000):
            t_j, t_case = foster_step(net, 300.0, 25.0, 2e-4)
        assert t_j >= t_case >= 25.0

    def test_die_attach_aging_raises_junction_to_case_gap(self):
        # the bench's step cache is keyed on aging_version, so one fresh
        # bench per die-attach factor
        gaps = []
        p = np.zeros(N_DEVICES)
        p[0] = 300.0
        for factor in (1.0, 1.2, 1.5):
            b = bench()
            b.bank.r_th_factor[:] = factor
            for _ in range(4000):
                b._thermal_step(p, 1e-2, pump_test=True)
            gaps.append(b.bank.t_j[0] - b._t_case[0])
        assert gaps[0] < gaps[1] < gaps[2]


class TestCooling:
    def test_pump_state_selects_boundary(self):
        c = CoolingState(coolant_temp=20.0, r_boundary_on=0.1,
                         r_boundary_off=2.0)
        assert cooling_step(c, True, 30.0) == (20.0, 0.1)
        assert cooling_step(c, False, 30.0) == (30.0, 2.0)

    def test_pump_off_cools_slower(self):
        def cool_for(pump_on, seconds):
            net = default_network()
            # preload the boundary stage to 125 K over reference
            net.stage_temps[-1] = 125.0
            c = CoolingState()
            t_ref, r_b = cooling_step(c, pump_on, 25.0)
            net.stages[-1] = FosterStage(r_b, net.stages[-1].c_th)
            t_j = None
            for _ in range(int(seconds / 2e-4)):
                t_j, _ = foster_step(net, 0.0, t_ref, 2e-4)
            return t_j

        assert cool_for(True, 5.0) < cool_for(False, 5.0)

    def test_sustained_overload_ramps_without_bound_and_flags(self):
        c = CoolingState(max_heat=1500.0, reservoir_c=100.0)
        cooling_step(c, True, 25.0)
        rises = []
        for _ in range(3):
            for _ in range(1000):
                cooling_absorb(c, 2000.0, 1e-2)
            rises.append(c.overload_rise)
        assert c.capacity_exceeded
        # linear ramp: equal increments per equal interval, strictly positive
        d1, d2 = rises[1] - rises[0], rises[2] - rises[1]
        assert d1 > 0 and d2 == pytest.approx(d1, rel=1e-9)

    def test_overload_recovers_when_load_drops(self):
        c = CoolingState(max_heat=1500.0, reservoir_c=100.0)
        cooling_step(c, True, 25.0)
        for _ in range(100):
            cooling_absorb(c, 2500.0, 1e-2)
        peak = c.overload_rise
        for _ in range(10_000):
            cooling_absorb(c, 100.0, 1e-2)
        assert c.overload_rise == 0.0 and peak > 0.0
        assert c.capacity_exceeded  # flag latches


class TestNtc:
    """The case sensors as the bench runs them (TestBench.ntc_readings)."""

    def test_ideal_sensor_is_exact(self):
        b = bench(ntc=NtcModel(bias=0.0, time_constant=0.0))
        b._stage_temps[:, -1] = 52.3
        b._thermal_step(np.zeros(N_DEVICES), 0.1, pump_test=True)
        assert (b.ntc_readings == b._t_case).all()
        assert b.ntc_readings[0] > 70.0

    def test_bias_adds_in_steady_state(self):
        b = bench(ntc=NtcModel(bias=3.0, time_constant=0.5))
        p = np.full(N_DEVICES, 200.0)
        for _ in range(10_000):
            b._thermal_step(p, 1e-2, pump_test=True)
        assert b._t_case[0] == pytest.approx(25.0 + 200.0 * 0.4, abs=1e-3)
        assert b.ntc_readings == pytest.approx(b._t_case + 3.0, abs=1e-3)

    @pytest.mark.parametrize("bias", [0.0, 3.0, -1.5])
    def test_idle_step_moves_toward_case_plus_bias(self, bias):
        # one idle step of the lagging sensor: a zero bias is left out of
        # the target, a nonzero one still counts
        b = bench(ntc=NtcModel(bias=bias, time_constant=0.5))
        for _ in range(50):
            b._thermal_step(np.full(N_DEVICES, 300.0), 1e-2, pump_test=True)
        prev = b.ntc_readings.copy()
        b._thermal_step(_NO_LOSS, 1e-2, pump_test=True)
        gain = 1.0 - math.exp(-1e-2 / 0.5)
        assert (b.ntc_readings == prev + gain * (b._t_case + bias - prev)).all()
        assert b.ntc_readings[0] != prev[0]

    def test_ideal_sensor_reads_the_case_plus_bias(self):
        # the reading is a copy: the next step updates the case in place
        b = bench(ntc=NtcModel(bias=3.0, time_constant=0.0))
        b._thermal_step(np.full(N_DEVICES, 300.0), 1e-2, pump_test=True)
        assert (b.ntc_readings == b._t_case + 3.0).all()
        held = b.ntc_readings.copy()
        b._thermal_step(_NO_LOSS, 1e-2, pump_test=True)
        assert (held != b.ntc_readings).any()
        assert (b.ntc_readings == b._t_case + 3.0).all()

    def test_first_order_step_response(self):
        # a boundary stage too slow to move holds the case 100 K over
        # ambient while the sensor, reading ambient, follows its lag
        b = bench(network=default_network(boundary_c=1e9),
                  ntc=NtcModel(bias=0.0, time_constant=2.0))
        b._stage_temps[:6, -1] = 100.0
        for _ in range(2000):
            b._thermal_step(np.zeros(N_DEVICES), 1e-3, pump_test=False)
        assert b._t_case[:6] == pytest.approx(125.0, abs=1e-5)
        assert b.ntc_readings[:6] == pytest.approx(
            25.0 + 100.0 * (1 - math.exp(-1.0)), rel=1e-3)


def test_thermal_bank_matches_foster_step():
    # TestBench._thermal_step against the scalar reference: the test bridge
    # with the pump off (boundary to still air, ambient reference), the load
    # bridge on the coolant
    b = bench()
    refs = []
    for pump_on, p_k in ((False, 200.0), (True, 150.0)):
        t_ref, r_b = cooling_step(replace(b.cool_test), pump_on, b.ambient)
        net = default_network()
        net.stages[-1] = FosterStage(r_b, net.stages[-1].c_th)
        refs.append((net, t_ref, p_k))
    p = np.repeat([200.0, 150.0], 6)
    for _ in range(500):
        b._thermal_step(p, 1e-4, pump_test=False)
        expect = [foster_step(net, p_k, t_ref, 1e-4) for net, t_ref, p_k in refs]
    for k in range(N_DEVICES):
        tj_r, tc_r = expect[k // 6]
        assert b.bank.t_j[k] == pytest.approx(tj_r, rel=1e-12)
        assert b._t_case[k] == pytest.approx(tc_r, rel=1e-12)


def test_zero_loss_step_only_decays_the_stages():
    # the idle step skips the heat product: its stages are temps * a bit
    # for bit, and the whole thermal state is that of an explicit zero loss
    idle, ref = bench(), bench()
    for b in (idle, ref):
        for _ in range(20):
            b._thermal_step(np.full(N_DEVICES, 250.0), 1e-2, pump_test=True)
    for _ in range(30):
        temps = idle._stage_temps.copy()
        idle._thermal_step(_NO_LOSS, 1e-2, pump_test=True)
        ref._thermal_step(np.zeros(N_DEVICES), 1e-2, pump_test=True)
        (a, *_), = idle._thermal_cache.values()
        assert idle._stage_temps.tobytes() == (temps * a).tobytes()
        for name in ("_stage_temps", "_t_case", "ntc_readings"):
            assert getattr(idle, name).tobytes() == getattr(ref, name).tobytes()
        assert idle.bank.t_j.tobytes() == ref.bank.t_j.tobytes()
    assert (idle._stage_temps > 0).all()


def test_invalid_stage_rejected():
    with pytest.raises(ValueError):
        FosterStage(-0.1, 1.0)
    with pytest.raises(ValueError):
        FosterNetwork(stages=[])
