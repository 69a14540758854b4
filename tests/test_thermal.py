import copy
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from acpcsim.cycling import N_DEVICES, TestBench, default_settings
from acpcsim.thermal import (CoolingState, FosterNetwork, FosterStage,
                             NtcModel, cooling_absorb, cooling_step)


def bench(**overrides) -> TestBench:
    """A bench whose thermal state is driven directly through _thermal_step."""
    return TestBench(default_settings(**overrides))


def stages(b: TestBench, pump_on: bool) -> tuple[np.ndarray, np.ndarray]:
    """(r, c) of a fresh device's stages as the settings give them: the
    network's junction-side stages, then its plate's boundary stage."""
    cool = b.s.cooling
    r_b = cool.r_boundary_on if pump_on else cool.r_boundary_off
    r = [st.r_th for st in b.s.network.stages] + [r_b]
    c = [st.c_th for st in b.s.network.stages] + [cool.boundary_c]
    return np.array(r), np.array(c)


def step_response(p: float, r: np.ndarray, c: np.ndarray, t: float
                  ) -> np.ndarray:
    """Closed-form rise of each stage from rest under a constant loss p."""
    return p * r * (1.0 - np.exp(-t / (r * c)))


class TestFosterStep:
    """The bench's Foster update, TestBench._thermal_step, against the
    closed form of the series of single-pole stages."""

    def test_steady_state_is_p_times_r(self):
        # the test bridge's plate with the pump off (still air), the load
        # bridge's on the coolant; 600 W per plate is below max_heat
        b = bench()
        for _ in range(1000):
            b._thermal_step(np.full(N_DEVICES, 100.0), 1.0, pump_test=False)
        for pump_on, rows in ((False, slice(0, 6)), (True, slice(6, 12))):
            r, _ = stages(b, pump_on)
            assert b.bank.t_j[rows] == pytest.approx(25.0 + 100.0 * r.sum(),
                                                     rel=1e-12)
            assert b._t_case[rows] == pytest.approx(25.0 + 100.0 * r[-1],
                                                    rel=1e-12)

    def test_matches_analytic_exponential(self):
        # at t = 1 s each stage's rise is P*R*(1 - exp(-t/tau)), with the
        # pump on and the plate below max_heat
        b = bench()
        for _ in range(10_000):
            b._thermal_step(np.full(N_DEVICES, 100.0), 1e-4, pump_test=True)
        rise = step_response(100.0, *stages(b, True), 1.0)
        assert not b.cool_test.capacity_exceeded
        assert b.bank.t_j == pytest.approx(25.0 + rise.sum(), rel=1e-12)
        assert b._t_case == pytest.approx(25.0 + rise[-1], rel=1e-12)

    def test_zero_loss_holds_reference(self):
        b = bench()
        for pump_test in (True, False):
            for _ in range(100):
                b._thermal_step(np.zeros(N_DEVICES), 1e-4, pump_test=pump_test)
            assert (b.bank.t_j == 25.0).all()
            assert (b._t_case == 25.0).all()
            assert (b.ntc_readings == 25.0).all()

    def test_exact_at_steps_above_the_fastest_tau(self):
        # the update is exact for any dt under constant loss: a step of the
        # fastest tau (1 ms), an envelope step of one 50 Hz period, and the
        # 0.3 s step a quarter-tau guard once refused all land on the
        # closed form at t = 0.6 s
        for dt in (1e-3, 2e-2, 0.3):
            b = bench()
            r, c = stages(b, True)
            assert dt >= (r * c).min()
            for _ in range(round(0.6 / dt)):
                b._thermal_step(np.full(N_DEVICES, 100.0), dt, pump_test=True)
            rise = step_response(100.0, r, c, 0.6)
            assert b.bank.t_j == pytest.approx(25.0 + rise.sum(), rel=1e-12)
            assert b._t_case == pytest.approx(25.0 + rise[-1], rel=1e-12)

    def test_energy_balance_per_step_is_analytic(self):
        # per stage and step, P*dt == C*dT + (1/R) * integral(T dt), the
        # integral taken along the exact trajectory from the step's start,
        # so a stage that leaves that trajectory breaks the balance; steps
        # run from well below the fastest tau to well above it
        b = bench()
        r, c = stages(b, True)
        tau = r * c
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.uniform(0.0, 200.0, N_DEVICES)
            dt = float(rng.uniform(1e-4, 1.0))
            t0 = b._stage_temps.copy()
            b._thermal_step(p, dt, pump_test=True)
            t1 = b._stage_temps
            pr = p[:, None] * r
            integral = pr * dt + (t0 - pr) * tau * -np.expm1(-dt / tau)
            balance = p[:, None] * dt - (c * (t1 - t0) + integral / r)
            scale = p[:, None] * dt + c * (np.abs(t0) + np.abs(t1))
            assert (np.abs(balance) <= 1e-12 * scale).all()

    def test_junction_above_case_above_reference(self):
        # 1800 W per plate overloads the pumped load bridge's coolant, which
        # lifts its reference; the test bridge cools in still air
        b = bench()
        for _ in range(5000):
            # each plate's reference for the step: the ambient in still air,
            # the coolant supply plus its overload rise under the pump
            ref = np.repeat([b.ambient, b.ambient + b.cool_load.overload_rise],
                            6)
            b._thermal_step(np.full(N_DEVICES, 300.0), 2e-3, pump_test=False)
            assert (b.bank.t_j >= b._t_case).all()
            assert (b._t_case >= ref).all()
        assert b.cool_load.capacity_exceeded and ref[6] > 25.0

    def test_die_attach_aging_raises_junction_to_case_gap(self):
        # the bench's step cache is keyed on r_th_version, so one fresh
        # bench per die-attach factor; the settled gap is P times the
        # junction-side resistance, the first stage's scaled by the factor
        gaps = []
        p = np.zeros(N_DEVICES)
        p[0] = 300.0
        for factor in (1.0, 1.2, 1.5):
            b = bench()
            b.bank.r_th_factor[:] = factor
            for _ in range(4000):
                b._thermal_step(p, 1e-2, pump_test=True)
            gaps.append(b.bank.t_j[0] - b._t_case[0])
            r, _ = stages(b, True)
            assert gaps[-1] == pytest.approx(
                300.0 * (factor * r[0] + r[1:-1].sum()), rel=1e-9)
        assert gaps[0] < gaps[1] < gaps[2]


class TestCooling:
    def test_pump_state_selects_boundary(self):
        c = CoolingState(coolant_temp=20.0, r_boundary_on=0.1,
                         r_boundary_off=2.0)
        assert cooling_step(c, True, 30.0) == (20.0, 0.1)
        assert cooling_step(c, False, 30.0) == (30.0, 2.0)

    def test_pump_off_cools_slower(self):
        # boundary stages preloaded to 125 K over reference relax along
        # their own tau: 25 s in still air on the test bridge, 5 s on the
        # pumped load bridge
        b = bench()
        b._stage_temps[:, -1] = 125.0
        for _ in range(500):
            b._thermal_step(np.zeros(N_DEVICES), 1e-2, pump_test=False)
        for pump_on, rows in ((False, slice(0, 6)), (True, slice(6, 12))):
            r, c = stages(b, pump_on)
            assert b._t_case[rows] == pytest.approx(
                25.0 + 125.0 * math.exp(-5.0 / (r[-1] * c[-1])), rel=1e-12)
        assert (b.bank.t_j[6:] < b.bank.t_j[:6]).all()

    def test_cooling_owns_the_boundary(self):
        # the plate's cooling state sets the case-to-reference stage: 100 W
        # per device settles the case 100 * 0.12 K over the coolant
        b = bench(cooling=CoolingState(r_boundary_on=0.12))
        assert len(b.s.network.stages) == 3
        for _ in range(1000):
            b._thermal_step(np.full(N_DEVICES, 100.0), 0.1, pump_test=True)
        assert b._t_case == pytest.approx(25.0 + 100.0 * 0.12, rel=1e-12)
        assert b.bank.t_j == pytest.approx(25.0 + 100.0 * (0.09 + 0.12),
                                           rel=1e-12)

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
        b._thermal_step(np.zeros(N_DEVICES), 1e-2, pump_test=True)
        gain = 1.0 - math.exp(-1e-2 / 0.5)
        assert (b.ntc_readings == prev + gain * (b._t_case + bias - prev)).all()
        assert b.ntc_readings[0] != prev[0]

    def test_ideal_sensor_reads_the_case_plus_bias(self):
        # the reading is a copy: the next step updates the case in place
        b = bench(ntc=NtcModel(bias=3.0, time_constant=0.0))
        b._thermal_step(np.full(N_DEVICES, 300.0), 1e-2, pump_test=True)
        assert (b.ntc_readings == b._t_case + 3.0).all()
        held = b.ntc_readings.copy()
        b._thermal_step(np.zeros(N_DEVICES), 1e-2, pump_test=True)
        assert (held != b.ntc_readings).any()
        assert (b.ntc_readings == b._t_case + 3.0).all()

    def test_first_order_step_response(self):
        # a boundary stage too slow to move holds the case 100 K over
        # ambient while the sensor, reading ambient, follows its lag
        b = bench(cooling=CoolingState(boundary_c=1e9),
                  ntc=NtcModel(bias=0.0, time_constant=2.0))
        b._stage_temps[:6, -1] = 100.0
        for _ in range(2000):
            b._thermal_step(np.zeros(N_DEVICES), 1e-3, pump_test=False)
        assert b._t_case[:6] == pytest.approx(125.0, abs=1e-5)
        assert b.ntc_readings[:6] == pytest.approx(
            25.0 + 100.0 * (1 - math.exp(-1.0)), rel=1e-3)


def test_zero_loss_step_only_decays_the_stages():
    # a zero loss adds nothing to the decay (no stage reads -0.0, so
    # x + 0.0 is x): the stages are temps * a bit for bit
    b = bench()
    for _ in range(20):
        b._thermal_step(np.full(N_DEVICES, 250.0), 1e-2, pump_test=True)
    for _ in range(30):
        temps = b._stage_temps.copy()
        b._thermal_step(np.zeros(N_DEVICES), 1e-2, pump_test=True)
        (a, *_), = b._thermal_cache.values()
        assert b._stage_temps.tobytes() == (temps * a).tobytes()
    assert (b._stage_temps > 0).all()


def clock(b: TestBench, dt: float):
    """Advance the bench's time by dt and append a trace row when one is
    due, as a clocked step does."""
    b.t += dt
    if b.t + 1e-12 >= b._trace_next_t:
        b._trace_append((b.t, *b.bank.t_j.tolist(), float(b._t_case[0])))


class TestIdleBlock:
    """Converter-off steps as one block (TestBench._step_idle) against as
    many zero-loss _thermal_step calls with both pumps on, each followed by
    clock (t += dt and a due trace row), bit for bit."""

    THERMAL_FIELDS = ("_stage_temps", "_t_case", "ntc_readings", "_ntc_prev")

    @settings(deadline=None, max_examples=150,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_block_is_the_zero_loss_steps(self, data):
        draw = data.draw
        n_stages = draw(st.integers(1, 9), label="stages")
        r = draw(st.lists(st.floats(1e-3, 0.1), min_size=n_stages,
                          max_size=n_stages), label="r")
        tau = draw(st.lists(st.floats(1e-4, 2.0), min_size=n_stages,
                            max_size=n_stages), label="tau")
        # a plate rated far below the heat it takes overloads, and one
        # that starts with a risen coolant loop recovers
        cooling = CoolingState(
            r_boundary_on=draw(st.floats(0.05, 1.0)), r_boundary_off=2.0,
            boundary_c=draw(st.floats(0.5, 50.0)),
            max_heat=draw(st.sampled_from([1500.0, 100.0, 5.0])),
            reservoir_c=draw(st.floats(1.0, 500.0)))
        ntc = NtcModel(bias=draw(st.sampled_from([0.0, 3.0, -1.5])),
                       time_constant=draw(st.sampled_from([0.0, 0.02, 0.5])))
        b = bench(network=FosterNetwork(
            [FosterStage(ri, ti / ri) for ri, ti in zip(r, tau)]),
                  cooling=cooling, ntc=ntc)
        dt = 1.0 / b.cfg.f_fund
        b._trace_cap = draw(st.integers(1, 12), label="trace cap")
        rng = np.random.default_rng(draw(st.integers(0, 2**32), label="seed"))
        for _ in range(draw(st.integers(1, 30), label="heat steps")):
            b._thermal_step(rng.uniform(0.0, 400.0, N_DEVICES), dt,
                            pump_test=bool(rng.integers(2)))
            clock(b, dt)
        for cool in (b.cool_test, b.cool_load):
            cool.overload_rise = draw(st.sampled_from([0.0, 0.0, 2.5]))
        n = draw(st.integers(1, 60), label="n")
        cut = draw(st.none() | st.integers(0, n - 1), label="cut")

        ref = copy.deepcopy(b)
        blk, stop, capped = b._step_idle(n, b.t, math.inf,
                                         rule=lambda blk: cut)
        assert stop == cut and not capped and len(blk.t) == n
        for _ in range(n if cut is None else cut + 1):
            ref._thermal_step(np.zeros(N_DEVICES), dt, pump_test=True)
            clock(ref, dt)

        for name in self.THERMAL_FIELDS:
            assert getattr(b, name).tobytes() == getattr(ref, name).tobytes()
        assert b.bank.t_j.tobytes() == ref.bank.t_j.tobytes()
        for cool in ("cool_test", "cool_load"):
            assert repr(astuple(getattr(b, cool))) == \
                repr(astuple(getattr(ref, cool)))
        for name in ("t", "_ntc_dt", "_trace_next_t", "trace_stride_s",
                     "thermal_trace"):
            assert repr(getattr(b, name)) == repr(getattr(ref, name))


def test_invalid_stage_rejected():
    for r, c in ((-0.1, 1.0), (0.1, 0.0), (math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(ValueError):
            FosterStage(r, c)
    with pytest.raises(ValueError):
        FosterNetwork(stages=[])
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            CoolingState(boundary_c=c)
    for r in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            CoolingState(r_boundary_on=r)
    # the coolant loop's capacity divides each overload step, and a plate
    # rated below 0 W has no meaning; inf is a loop or a plate without bound
    for c in (0.0, -20.0, math.nan):
        with pytest.raises(ValueError, match="reservoir_c"):
            CoolingState(reservoir_c=c)
    for q in (-1.0, math.nan):
        with pytest.raises(ValueError, match="max_heat"):
            CoolingState(max_heat=q)
    CoolingState(reservoir_c=math.inf, max_heat=math.inf)
    CoolingState(max_heat=0.0)
