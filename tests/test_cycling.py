import copy
import functools
import itertools
import math
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from acpcsim import device as dev_mod
from acpcsim import sampler as smp
from acpcsim import sense as sns
from acpcsim import thermal as th
from acpcsim.cli import build_settings, parse_scenario
from acpcsim.cli import run as cli_run
from acpcsim.core import (BenchConfig, ConfigError, Fidelity, PfMode,
                          Technique, validate_scenario)
from acpcsim.cycling import (BODY_DIODE_WARNING, COOL_TO_AMBIENT_CAP_S,
                             DEVICE_IDS, GATE_OXIDE_WARNING, PACKAGE_WARNING,
                             CycleRecord, DeviceBank, EnergyTally, N_DEVICES,
                             ProtectionTrip, TestBench,
                             ThermalRunaway, WarningPolicy, WarningTracker,
                             _PHASE, _SIGN, _CrossingPredictor,
                             blanking_angles, blanking_runs, default_settings,
                             energy_audit)
from acpcsim.device import (AgingTrajectory, conduction_current,
                            conduction_voltage, current_slope,
                            delta_vth_for_vds_shift, module_400a,
                            on_resistance, temperature_half)
from acpcsim.electrical import inverse_park


def fast_thermal():
    return dict(network=th.default_network(total_r_jc=0.09),
                cooling=th.CoolingState(r_boundary_on=0.12,
                                        r_boundary_off=2.0, boundary_c=5.0),
                ntc=th.NtcModel(bias=0.0, time_constant=0.02))


def envelope_cfg(**kw):
    return validate_scenario(BenchConfig(fidelity=Fidelity.ENVELOPE, **kw))


class TestBankConsistency:
    def test_bank_conduction_matches_scalar_ops(self):
        # DeviceBank.conduction at one current per device (the row form the
        # averaged step calls, on a list of Python floats) is
        # conduction_voltage on the bank's (12,) arrays, to the bit, and its
        # temperature half plus current_slope is on_resistance; row k is the
        # law called with device k's deltas and temperature, but for the
        # drift power's rounding, one ulp at most
        p = module_400a()
        bank = DeviceBank(p, ambient=40.0)
        rng = np.random.default_rng(12)
        bank.delta_pkg[:] = rng.uniform(0, 0.2, bank.n)
        bank.delta_vth[:] = rng.uniform(0, 6.0, bank.n)
        bank.delta_vsd[:] = rng.uniform(0, 0.4, bank.n)
        bank.t_j = rng.uniform(30, 160, bank.n)
        i = rng.uniform(-450, 450, bank.n)
        i[3] = 0.0

        v_row, r_row = bank.conduction(i.tolist())
        assert all(type(x) is float for x in v_row + r_row)
        vec, r_t = np.array(v_row), np.array(r_row)
        assert vec.shape == (bank.n,) and r_t.shape == (bank.n,)
        assert vec[3] == 0.0
        assert np.array_equal(vec, conduction_voltage(
            p, i, bank.t_j, p.gate_on_v, bank.delta_pkg, bank.delta_vth,
            bank.delta_vsd))
        mag = np.abs(i)
        assert np.array_equal(
            r_t + current_slope(p, mag),
            on_resistance(p, bank.t_j, mag, p.gate_on_v, bank.delta_pkg,
                          bank.delta_vth))
        for k in range(bank.n):
            np.testing.assert_allclose(
                vec[k], conduction_voltage(p, i[k], float(bank.t_j[k]),
                                           p.gate_on_v, bank.delta_pkg[k],
                                           bank.delta_vth[k],
                                           bank.delta_vsd[k]),
                rtol=1e-15, atol=0)
        # an injected short reads the desaturated drop in its row only
        bank.shorted[5] = True
        shorted = np.array(bank.conduction(i.tolist())[0])
        assert shorted[5] == bank.desat_fault_v
        others = np.arange(bank.n) != 5
        assert np.array_equal(shorted[others], vec[others])

    def test_envelope_step_evaluates_the_law_bit_for_bit(self):
        # the envelope heat step evaluates the law from the current half its
        # grid bound once and the temperature half on t_j[:, None]; its
        # drops are conduction_voltage's and the fill's slot truths are
        # on_resistance's, to the bit, at random temperatures and aging
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.3)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, **fast_thermal()))
        bank, p = b.bank, b.bank.params
        rng = np.random.default_rng(31)
        bank.delta_pkg[:] = rng.uniform(0, 0.2, bank.n)
        bank.delta_vth[:] = rng.uniform(0, 6.0, bank.n)
        bank.delta_vsd[:] = rng.uniform(0, 0.4, bank.n)
        bank.t_j = rng.uniform(30, 160, bank.n)
        grid = b._envelope_grid()
        t = bank.t_j[:, None]
        pkg, vth, vsd = (bank.delta_pkg[:, None], bank.delta_vth[:, None],
                         bank.delta_vsd[:, None])
        law = conduction_voltage(p, grid.i_dev, t, p.gate_on_v, pkg, vth,
                                 vsd)
        v, _ = bank.conduction(grid.cur)
        assert np.array_equal(v, law)
        # an injected short reads the desaturated drop in its row only
        bank.shorted[5] = True
        shorted, _ = bank.conduction(grid.cur)
        assert np.all(shorted[5] == bank.desat_fault_v)
        others = np.arange(bank.n) != 5
        assert np.array_equal(shorted[others], law[others])
        bank.shorted[5] = False
        # the step's fill stores on_resistance at the slot currents, at the
        # temperatures the step started from
        truth = on_resistance(p, t, grid.slot_i, p.gate_on_v, pkg, vth)
        b._step_envelope(1, b.t, math.inf)
        assert np.array_equal(b._env_truth, truth)

    def test_trajectory_application_is_monotone(self):
        bank = DeviceBank(module_400a(), ambient=25.0)
        traj = AgingTrajectory(delta_pkg=((0.0, 0.0), (100.0, 0.1)))
        mask = np.zeros(N_DEVICES, dtype=bool)
        mask[:6] = True
        bank.apply_trajectories(traj, (), 50, mask)
        assert bank.delta_pkg[0] == pytest.approx(0.05)
        assert bank.delta_pkg[6] == 0.0
        bank.apply_trajectories(traj, (), 40, mask)  # never regresses
        assert bank.delta_pkg[0] == pytest.approx(0.05)

    def test_negative_r_th_growth_is_refused(self):
        # the bench stores R_th aging as growth, factor - 1; apply_trajectories
        # keeps the larger of the old and new factor, so a factor below 1
        # would be ignored, not applied
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.3)
        with pytest.raises(ConfigError, match="aging.r_th_factor"):
            TestBench(default_settings(cfg, r_th_aging=((0.0, 0.0),
                                                        (10.0, -0.1))))
        TestBench(default_settings(cfg, r_th_aging=((0.0, 0.0),)))

    # no shrink phase: shrinking a failing example of up to 48 currents
    # took minutes and over a gigabyte, and the drawn example already
    # names the rows that drifted
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        t_j=st.lists(st.floats(-20.0, 170.0), min_size=12, max_size=12),
        deltas=st.lists(st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 6.0),
                                  st.floats(0.0, 0.4)),
                        min_size=12, max_size=12),
        currents=st.lists(st.one_of(
            st.just(0.0), st.just(-0.0), st.floats(-1e-3, 0.0),
            st.floats(-2500.0, -1000.0), st.floats(-450.0, 450.0),
            st.just(math.nan)),
            min_size=12, max_size=48),
        short=st.one_of(st.none(), st.integers(0, N_DEVICES - 1)))
    def test_bank_conduction_is_the_law_bit_for_bit(self, t_j, deltas,
                                                    currents, short):
        # DeviceBank.conduction equals conduction_voltage on DeviceParams
        # bit for bit, on one current per device (the row form the averaged
        # and switched steps call, on a list of Python floats) and on a
        # (12, g) grid (the envelope's current half, bound on the params):
        # both signs, zero and NaN currents, reverse currents below the knee
        # (a few mA) and above it (over 1 kA through a hot, aged channel),
        # and an injected short
        p = module_400a()
        bank = DeviceBank(p, ambient=25.0)
        bank.t_j = np.array(t_j)
        pkg, vth, vsd = np.array(deltas).T
        bank.delta_pkg[:], bank.delta_vth[:], bank.delta_vsd[:] = pkg, vth, vsd
        if short is not None:
            bank.shorted[short] = True
        g = len(currents) // N_DEVICES
        grid = np.resize(np.array(currents), (N_DEVICES, g))
        cases = [(grid[:, 0].tolist(), grid[:, 0],
                  (bank.t_j, pkg, vth, vsd)),
                 (conduction_current(p, grid), grid,
                  (bank.t_j[:, None], pkg[:, None], vth[:, None],
                   vsd[:, None]))]
        for cur, i, (t, d_pkg, d_vth, d_vsd) in cases:
            law = conduction_voltage(p, i, t, p.gate_on_v, d_pkg, d_vth,
                                     d_vsd)
            if short is not None:
                law[short] = bank.desat_fault_v
            v, r_t = bank.conduction(cur)
            if type(cur) is list:
                assert all(type(x) is float for x in v + r_t)
            v, r_t = np.asarray(v), np.asarray(r_t)
            assert v.shape == i.shape
            assert v.tobytes() == law.tobytes()
            mag = np.abs(i)
            r_ch = on_resistance(p, t, mag, p.gate_on_v, d_pkg, d_vth)
            # a NaN current's slope is NaN on both sides
            assert np.array_equal(r_t + current_slope(p, mag), r_ch,
                                  equal_nan=True)
            assert not np.isnan(r_t).any()
            # the physics, row by row off the short: a zero or NaN current
            # reads 0, the channel alone carries forward current and reverse
            # current below the knee, and above it the channel and the diode
            # share the reverse current at one drop (Kirchhoff's current law)
            knee = temperature_half(p, t, p.gate_on_v, d_pkg, d_vth,
                                    d_vsd)[1] + 0.0 * i
            live = np.ones(i.shape, dtype=bool)
            if short is not None:
                live[short] = False
            alone = live & ((i > 0.0) | ((i < 0.0) & (mag * r_ch <= knee)))
            shared = live & (i < 0.0) & (mag * r_ch > knee)
            assert (v[live & ~(mag > 0.0)] == 0.0).all()
            assert np.allclose(v[alone], (np.sign(i) * mag * r_ch)[alone],
                               rtol=1e-14, atol=0.0)
            u = -v[shared]
            assert (u > knee[shared]).all()
            assert np.allclose(u / r_ch[shared]
                               + (u - knee[shared]) / p.r_diode,
                               mag[shared], rtol=1e-12, atol=0.0)

    def test_in_place_aging_and_shorts_reach_both_shapes(self):
        # the bank reads its aging rows and shorted at each call; writes
        # into those arrays after the first call take effect, for both
        # shapes
        p = module_400a()
        bank = DeviceBank(p, ambient=60.0)
        rng = np.random.default_rng(3)
        i = rng.uniform(-2000, 450, size=(N_DEVICES, 9))
        cur_row = i[:, 0].tolist()
        cur_grid = conduction_current(p, i)
        before = [np.asarray(bank.conduction(c)[0])
                  for c in (cur_row, cur_grid)]
        bank.delta_pkg[:] = rng.uniform(0.05, 0.2, N_DEVICES)
        bank.delta_vth[:] = rng.uniform(1.0, 6.0, N_DEVICES)
        bank.delta_vsd[:] = rng.uniform(0.1, 0.4, N_DEVICES)
        bank.apply_trajectories(AgingTrajectory(delta_pkg=((0.0, 0.3),)),
                                (), 0, np.arange(N_DEVICES) < 3)
        bank.shorted[7] = True
        t, pkg, vth, vsd = (bank.t_j, bank.delta_pkg, bank.delta_vth,
                            bank.delta_vsd)
        for cur, x, cols, old in zip(
                (cur_row, cur_grid), (i[:, 0], i), (False, True), before):
            args = [a[:, None] if cols else a for a in (t, pkg, vth, vsd)]
            law = conduction_voltage(p, x, args[0], p.gate_on_v, *args[1:])
            law[7] = bank.desat_fault_v
            v, _ = bank.conduction(cur)
            assert np.array_equal(v, law)
            assert not np.array_equal(v, old)
        bank.shorted[7] = False
        v, _ = bank.conduction(cur_grid)
        assert (v[7] != bank.desat_fault_v).all()

    def test_each_shape_has_one_path(self):
        # one current per device takes the row form only: a current half of
        # twelve currents would broadcast against the (12, 1) columns
        bank = DeviceBank(module_400a(), ambient=25.0)
        row = [100.0] * N_DEVICES
        with pytest.raises(ValueError, match="list of floats"):
            bank.conduction(conduction_current(bank.params, np.array(row)))
        v, _ = bank.conduction(row)
        grid, _ = bank.conduction(conduction_current(
            bank.params, np.array(row)[:, None]))
        assert grid.shape == (N_DEVICES, 1) and grid[:, 0].tolist() == v

    @staticmethod
    def grid_drops(monkeypatch, bank, cur, i) -> tuple:
        """bank.conduction(cur) on the grid of currents i: whether it took
        the masked law (device.conduction_from_halves), and whether its
        drops are conduction_voltage's bits; given an output array, it
        writes the same drops there."""
        p = bank.params
        cols = [a[:, None] for a in (bank.t_j, bank.delta_pkg,
                                     bank.delta_vth, bank.delta_vsd)]
        law = conduction_voltage(p, i, cols[0], p.gate_on_v, *cols[1:])
        calls = []

        def spy(*args):
            calls.append(args)
            return from_halves(*args)

        from_halves = dev_mod.conduction_from_halves
        monkeypatch.setattr(dev_mod, "conduction_from_halves", spy)
        v, _ = bank.conduction(cur)
        out = np.empty_like(v)
        assert bank.conduction(cur, out)[0] is out
        monkeypatch.undo()
        assert out.tobytes() == v.tobytes()
        return bool(calls), v.tobytes() == law.tobytes()

    def test_example_grid_takes_the_channel_alone_path(self, monkeypatch):
        # the junction-swing example's grid at the end of its package-aging
        # ramp (delta_pkg 0.2 on every device): no reverse drop reaches the
        # knee at any whole degree from 25 to 170 degC, so the drops are
        # i * (r_t + slope) without the masked law, and they are the law's
        # bits. At 200 degC the aged channel's 2.55 V passes the 2.34 V
        # knee, the diode shares the current, and the masked law runs
        scenario = Path(__file__).resolve().parents[1] / "examples_scenarios" \
            / "junction_swing_campaign.txt"
        b = TestBench(build_settings(parse_scenario(scenario)))
        grid = b._envelope_grid()
        bank = b.bank
        bank.delta_pkg[:] = 0.2
        for t in range(25, 171):
            bank.t_j = np.full(N_DEVICES, float(t))
            assert self.grid_drops(monkeypatch, bank, grid.cur,
                                   grid.i_dev) == (False, True), t
        bank.t_j = np.full(N_DEVICES, 200.0)
        assert self.grid_drops(monkeypatch, bank, grid.cur,
                               grid.i_dev) == (True, True)

    def test_reverse_current_over_the_knee_takes_the_masked_law(
            self, monkeypatch):
        # one 2 kA reverse current takes its row through the diode's
        # parallel branch, so the grid takes the masked law, to its bits
        p = module_400a()
        bank = DeviceBank(p, ambient=25.0)
        i = np.resize(np.array([300.0, -250.0, 120.0, -40.0]), (N_DEVICES, 8))
        assert self.grid_drops(monkeypatch, bank, conduction_current(p, i),
                               i) == (False, True)
        i[4, 5] = -2000.0
        assert self.grid_drops(monkeypatch, bank, conduction_current(p, i),
                               i) == (True, True)


class TestHeatBlock:
    """Envelope heat phases advanced in blocks of any sizes
    (TestBench._step_envelope) against blocks of one step, bit for bit."""

    LIMITS = {Technique.FIXED_TIMES: dict(t_on=0.5, t_off=0.3),
              Technique.CASE_SWING: dict(t_case_max=45.0, t_case_min=35.0),
              Technique.JUNCTION_SWING: dict(t_j_max=120.0, t_j_min=60.0)}

    @classmethod
    def run(cls, technique, budget, sizes, short_at, collect, heat_cap_s):
        """Three cycles whose heat phases take blocks of the given sizes in
        turn; device 3 reads shorted at the steps that start with a junction
        above short_at (a flag set at a step a block runs past its stop
        would outlive it, which a step taken alone never does)."""
        cfg = envelope_cfg(technique=technique, n_cycles=3, rng_seed=7,
                           **cls.LIMITS[technique])
        b = TestBench(default_settings(
            cfg, budget_per_cycle=budget, sampler_n=60, startup_every=2,
            heat_cap_s=heat_cap_s, **fast_thermal()))
        blocks = itertools.cycle(sizes)
        step = b._step_envelope

        def sized(n, *args):
            # the phase driver's blocks, each of the next drawn size
            return step(next(blocks), *args)

        b._step_envelope = sized
        if short_at is not None:
            bank, conduction = b.bank, b.bank.conduction

            def failing(cur, out=None):
                bank.shorted[3] = bank.t_j.max() > short_at
                return conduction(cur, out)

            bank.conduction = failing
        return b, b.run_campaign(collect_windows=collect)

    @staticmethod
    def state(b, res) -> list:
        """The run's outcome and every state a later step reads."""
        return [
            res.status, res.reason, res.cycles_completed,
            [repr(astuple(rec)) for rec in res.records],
            repr(b.t), repr(b.thermal_trace),
            repr([tuple(w.values()) for w in b.windows]),
            repr(b.last_window_trace), b.tj_est.tobytes(),
            b.r_on_last.tobytes(), repr(astuple(b.tally)),
            repr(b.rng.bit_generator.state), b._stage_temps.tobytes(),
            b.bank.t_j.tobytes(), b._t_case.tobytes(),
            b.ntc_readings.tobytes(), b._ntc_prev.tobytes(),
            repr(astuple(b.cool_test)), repr(astuple(b.cool_load)),
            # the reading buffer: the window in progress over the last
            # complete one (NaN before the first), and their truths
            b._env_filled, b._env_v.tobytes(),
            b._env_truth.tobytes() if b.collect_windows else None]

    @settings(deadline=None, max_examples=60,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(technique=st.sampled_from(list(LIMITS)),
           budget=st.sampled_from([5, 300]),
           sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           short_at=st.none() | st.floats(40.0, 110.0),
           collect=st.booleans(), heat_cap_s=st.sampled_from([120.0, 0.3]))
    # a trip inside a 40-step block, at budgets 5 and 300
    @example(Technique.JUNCTION_SWING, 5, [40], 70.0, True, 120.0)
    @example(Technique.FIXED_TIMES, 300, [40], 60.0, False, 120.0)
    # the heat cap inside a block, and a case swing's sensor stop
    @example(Technique.JUNCTION_SWING, 300, [13], None, False, 0.3)
    @example(Technique.CASE_SWING, 5, [7, 3], None, True, 120.0)
    def test_blocks_of_any_size_leave_the_bits_of_blocks_of_one(
            self, technique, budget, sizes, short_at, collect, heat_cap_s):
        args = technique, budget, short_at, collect, heat_cap_s
        blocks = self.state(*self.run(technique, budget, sizes, *args[2:]))
        ones = self.state(*self.run(technique, budget, [1], *args[2:]))
        assert blocks == ones


def quick_thermal(r_jc=(0.0198, 0.0405, 0.0297), r_on=0.12, r_off=2.0,
                  boundary_c=0.25) -> dict:
    """Foster stages of the given resistances with taus of 0.2, 2 and
    10 ms, plates whose boundary stage holds boundary_c and a 2 ms sensor:
    a thermal scale on which an averaged heat phase takes tens of ms."""
    return dict(network=th.FosterNetwork([
        th.FosterStage(r, tau / r)
        for r, tau in zip(r_jc, (2e-4, 2e-3, 1e-2))]),
        cooling=th.CoolingState(r_boundary_on=r_on, r_boundary_off=r_off,
                                boundary_c=boundary_c),
        ntc=th.NtcModel(bias=0.0, time_constant=0.002))


class TestConductingBlock:
    """Averaged and switched heat phases advanced in blocks of any sizes
    (TestBench._step_conducting) against blocks of one step, bit for bit."""

    LIMITS = {Technique.FIXED_TIMES: dict(t_on=0.02, t_off=0.03),
              Technique.CASE_SWING: dict(t_case_max=42.0, t_case_min=38.0),
              Technique.JUNCTION_SWING: dict(t_j_max=80.0, t_j_min=45.0)}

    @classmethod
    def run(cls, sizes, technique, budget, short_at, collect, heat_cap_s,
            runaway, fidelity):
        """Two cycles whose heat phases take blocks of the given sizes in
        turn; device 3 reads shorted at the steps that start with a junction
        above short_at, and with runaway the plates' weak cooling takes a
        junction past the simulation envelope in the first heat phase."""
        cfg = validate_scenario(BenchConfig(
            technique=technique, n_cycles=2, rng_seed=7, fidelity=fidelity,
            **cls.LIMITS[technique]))
        thermal = quick_thermal((0.1, 0.2, 0.2), 1.0, 3.0, 0.02) if runaway \
            else quick_thermal()
        b = TestBench(default_settings(
            cfg, budget_per_cycle=budget, sampler_n=60, startup_every=1,
            heat_cap_s=heat_cap_s, **thermal))
        b.collect_waveforms = True
        blocks = itertools.cycle(sizes)
        step = b._step_conducting

        def sized(n, *args):
            # the phase driver's blocks, each of the next drawn size
            return step(next(blocks), *args)

        b._step_conducting = sized
        if short_at is not None:
            bank, conduction = b.bank, b.bank.conduction

            def failing(cur, out=None):
                bank.shorted[3] = bank.t_j.max() > short_at
                return conduction(cur, out)

            bank.conduction = failing
        return b, b.run_campaign(collect_windows=collect)

    @classmethod
    @functools.cache
    def state_of_ones(cls, *args) -> list:
        return cls.state(*cls.run([1], *args))

    @staticmethod
    def state(b, res) -> list:
        """TestHeatBlock's state, and the state only the averaged and
        switched engines keep."""
        ctl = b.ctl
        return TestHeatBlock.state(b, res) + [
            repr(b.waveform_rows), b._wave_count, repr(b.plant.i_abc),
            repr((ctl.current_filter.y, ctl.pi_d.integrator,
                  ctl.pi_q.integrator)),
            repr(b.theta_prev), b._fund_cycle, b._desat_run.tobytes(),
            repr([(s.v_on.tobytes(), s.i.tobytes(), s.truth.tobytes(),
                   s.filled_mask.tobytes(), s.filled, s.cycles_elapsed,
                   s.budget_used) for s in b.samplers])]

    @settings(deadline=None, max_examples=12,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
           technique=st.sampled_from(list(LIMITS)),
           budget=st.sampled_from([5, 300]),
           short_at=st.none() | st.floats(40.0, 70.0),
           collect=st.booleans(), heat_cap_s=st.sampled_from([120.0, 0.01]),
           runaway=st.booleans())
    # a trip inside a block, and the stops of each technique inside blocks
    @example([97], Technique.FIXED_TIMES, 300, 45.0, True, 120.0, False)
    @example([40, 7], Technique.JUNCTION_SWING, 300, None, True, 120.0,
             False)
    @example([13], Technique.CASE_SWING, 5, None, False, 120.0, False)
    # the heat cap and a runaway inside a block
    @example([150], Technique.JUNCTION_SWING, 300, None, False, 0.01, False)
    @example([64, 3], Technique.FIXED_TIMES, 300, None, True, 120.0, True)
    def test_blocks_of_any_size_leave_the_bits_of_blocks_of_one(
            self, sizes, technique, budget, short_at, collect, heat_cap_s,
            runaway):
        args = (technique, budget, short_at, collect, heat_cap_s, runaway,
                Fidelity.AVERAGED)
        assert self.state(*self.run(sizes, *args)) == self.state_of_ones(*args)

    def test_switched_blocks_leave_the_bits_of_blocks_of_one(self):
        args = (Technique.FIXED_TIMES, 300, None, True, 120.0, False,
                Fidelity.SWITCHED)
        assert self.state(*self.run([37, 5], *args)) \
            == self.state_of_ones(*args)


def full_fill(b, grid, r_t, t_start, tj_start) -> SimpleNamespace:
    """The envelope fill as it was before it computed only the slots an
    output reads: every slot's reading and truth of the windows the block
    fills, as (12, windows * N) arrays, with the noise added step run by
    step run. The oracle of TestEnvelopeFill."""
    n_slots = b.s.sampler_n
    q, f0 = b._env_q, b._env_filled
    last = (f0 // b._env_b + np.arange(r_t.shape[1])) % q == q - 1
    per_step = np.where(last, n_slots - b._env_b * (q - 1), b._env_b)
    slots = np.cumsum(per_step).tolist()
    done = np.flatnonzero(last).tolist()
    total = slots[-1]
    n_win = -(-(f0 + total) // n_slots)
    r_true = np.zeros((N_DEVICES, n_win * n_slots))
    r_true[:, f0:f0 + total] = np.repeat(r_t, per_step, axis=1)
    r_win = r_true.reshape(N_DEVICES, n_win, n_slots)
    r_win += grid.slot_slope[:, None, :]
    v = (grid.slot_i[:, None, :] * r_win).reshape(N_DEVICES, -1)
    v[:, :f0] = b._env_v[:, :f0]
    new = v[:, f0:f0 + total]
    new += b.e_d[:, None]
    sigma = b.s.sense_params.noise_sigma
    rng_state = None
    if sigma > 0:
        rng_state = b.rng.bit_generator.state
        z = b.rng.standard_normal(N_DEVICES * total)
        z *= sigma
        p = 0
        for m, run in itertools.groupby(per_step.tolist()):
            k = len(list(run))
            seg = new[:, p:p + k * m].reshape(N_DEVICES, k, m)
            np.add(seg, z[N_DEVICES * p:N_DEVICES * (p + k * m)].reshape(
                k, N_DEVICES, m).transpose(1, 0, 2), out=seg)
            p += k * m
    truth = None
    if b.collect_windows:
        truth = r_true
        truth[:, :f0] = b._env_truth[:, :f0]
    before = (b.r_on_last.copy(), b.tj_est.copy(), len(b.windows))
    est, tj = None, []
    if done:
        if b._env_tj_cols is None:
            b._env_tj_cols = [b.luts[k].column(grid.i_pk[k]).tolist()
                              for k in range(N_DEVICES)]
        idx = (n_slots * np.arange(len(done)))[:, None, None] \
            + b._win_idx + v.shape[1] * np.arange(N_DEVICES)[:, None]
        est, tj = b._finish_window(
            0, v.take(idx), grid.i_win,
            truth.take(idx) if truth is not None else None,
            b._env_tj_cols, [q] * len(done), [t_start[j] for j in done],
            tj_start[done])
    return SimpleNamespace(v=v, truth=truth, slots=slots, done=done, est=est,
                           tj=tj, before=before, rng_state=rng_state)


def full_commit(b, grid, fill: SimpleNamespace, m: int, n: int):
    """The commit of full_fill's block at its step m: the readings and
    truths of the last complete window and of the window in progress go to
    the reading buffer from the full arrays."""
    w = int(np.searchsorted(fill.done, m))
    if w < len(fill.done):
        r_on, tj_est, count = fill.before
        k = len(fill.tj[0])
        b.r_on_last[:] = fill.est[w - 1] if w else r_on
        b.tj_est[:k] = fill.tj[w - 1] if w else tj_est[:k]
        del b.windows[count + N_DEVICES * w:]
    if m < n and fill.rng_state is not None:
        b.rng.bit_generator.state = fill.rng_state
        b.rng.standard_normal(N_DEVICES * fill.slots[m - 1])
    n_slots = b.s.sampler_n
    f0 = b._env_filled
    end = f0 + fill.slots[m - 1]

    def put(u: int, stop: int):
        start = max(n_slots * u, f0)
        sl = slice(start - n_slots * u, stop - n_slots * u)
        b._env_v[:, sl] = fill.v[:, start:stop]
        if fill.truth is not None:
            b._env_truth[:, sl] = fill.truth[:, start:stop]

    if w:
        put(w - 1, n_slots * w)
        b.last_window_trace = (b.samplers[0].triggers.angles,
                               grid.slot_i[0], b._env_v[0].copy())
    if end > n_slots * w:
        put(w, end)
    b._env_filled = (f0 // b._env_b + m) % b._env_q * b._env_b


class TestEnvelopeFill:
    """The envelope fill, which computes readings only at the slots an
    output reads (TestBench._envelope_fill_batched, _fill_slots and
    _commit_fill), against the full-array fill and commit (full_fill,
    full_commit) on the same block inputs, bit for bit."""

    @staticmethod
    def state(b, fill_est, fill_tj) -> list:
        """The fill's results and every state its commit leaves."""
        return [None if fill_est is None else fill_est.tobytes(),
                repr(fill_tj), repr([tuple(w.values()) for w in b.windows]),
                b.r_on_last.tobytes(), b.tj_est.tobytes(),
                repr(b.rng.bit_generator.state), b._env_filled,
                b._env_v.tobytes(), b._env_truth.tobytes(),
                repr(b.last_window_trace)]

    @settings(deadline=None, max_examples=40,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(budget=st.sampled_from([5, 7, 60, 300]), n=st.integers(1, 40),
           noisy=st.booleans(), collect=st.booleans(),
           place=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    # a block that starts mid-window and completes two windows, and one
    # whose only window completes at its first step
    @example(7, 25, True, True, 0.5, 1)
    @example(5, 1, True, False, 0.99, 2)
    @example(300, 40, True, True, 0.0, 3)
    def test_fill_and_commit_at_every_step_match_the_full_arrays(
            self, budget, n, noisy, collect, place, seed):
        sense = sns.SenseCircuitParams() if noisy \
            else sns.SenseCircuitParams(noise_sigma=0.0)
        b = TestBench(default_settings(
            envelope_cfg(), budget_per_cycle=budget, sampler_n=60,
            sense_params=sense, **fast_thermal()))
        grid = b._envelope_grid()
        b.collect_windows = collect
        rng = np.random.default_rng(seed)
        # a start mid-window, with earlier windows' readings and estimates
        b._env_filled = int(place * b._env_q) * b._env_b
        b._env_v[:] = rng.uniform(0.5, 1.5, b._env_v.shape)
        b._env_truth[:] = rng.uniform(3e-3, 6e-3, b._env_truth.shape)
        b.r_on_last[:] = rng.uniform(3e-3, 6e-3, N_DEVICES)
        b.tj_est[:] = rng.uniform(40.0, 120.0, N_DEVICES)
        b.rng.standard_normal(int(rng.integers(0, 50)))
        # the block's inputs: the temperature half of R at 25 to 150 degC
        r_t = rng.uniform(2.5e-3, 5.5e-3, (N_DEVICES, n))
        t_start = np.cumsum(rng.uniform(0.01, 0.03, n)).tolist()
        tj_start = rng.uniform(25.0, 150.0, (n, N_DEVICES))
        saved = copy.deepcopy({k: getattr(b, k) for k in (
            "_env_filled", "_env_v", "_env_truth", "r_on_last", "tj_est",
            "windows", "rng", "last_window_trace")})
        for m in range(1, n + 1):
            runs = []
            for fill_at, commit in ((b._envelope_fill_batched, b._commit_fill),
                                    (functools.partial(full_fill, b),
                                     functools.partial(full_commit, b))):
                for k, value in copy.deepcopy(saved).items():
                    setattr(b, k, value)
                fill = fill_at(grid, r_t, t_start, tj_start)
                commit(grid, fill, m, n)
                runs.append(self.state(b, fill.est, fill.tj))
            assert runs[0] == runs[1], m


def example_block_counts(tmp_path, monkeypatch, cycles) -> dict:
    """How many blocks each phase entry runs, and how many steps they
    compute, committed or not, in the junction-swing example (seed 1003,
    start-up every 25 cycles) run for the given cycles."""
    counts = {}
    for name in ("_step_envelope", "_step_idle"):
        def counted(self, *args, _name=name, _step=getattr(TestBench, name),
                    **kw):
            out = _step(self, *args, **kw)
            calls, steps = counts.get(_name, (0, 0))
            counts[_name] = (calls + 1, steps + len(out[0].t))
            return out

        monkeypatch.setattr(TestBench, name, counted)
    scenario = Path(__file__).resolve().parents[1] / "examples_scenarios" \
        / "junction_swing_campaign.txt"
    assert cli_run(scenario, tmp_path / "out", seed=1003, cycles=cycles) == 0
    return counts


def test_block_sizes_of_the_junction_swing_example(tmp_path, monkeypatch):
    # the block-size policy of both phase kinds over 25 cycles. Of the 1436
    # heat steps computed, 1427 are committed: the first two phases, which
    # have no comparable last length, size their blocks from the estimate's
    # rise, and their last blocks end at their stops
    assert example_block_counts(tmp_path, monkeypatch, 25) == {
        "_step_envelope": (45, 1436), "_step_idle": (26, 1059)}


def test_block_sizes_across_a_start_up(tmp_path, monkeypatch):
    # 27 cycles pass the start-up at cycle 25: its cool-to-ambient makes
    # the next heat phase begin at the ambient, which neither reads the
    # length of the phase before nor sets that of the phase after, so both
    # size their blocks from the estimate's rise (1555 steps committed)
    assert example_block_counts(tmp_path, monkeypatch, 27) == {
        "_step_envelope": (53, 1565), "_step_idle": (34, 1653)}


class TestTechniques:
    def test_fixed_times_reaches_periodic_steady_state(self):
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.7, n_cycles=25)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       **fast_thermal()))
        res = b.run_campaign()
        assert res.status == "ok"
        swings = [float(r.delta_tj[0]) for r in res.records[-4:]]
        assert max(swings) - min(swings) < 0.5

    def test_fixed_times_tjmax_strictly_increases_under_aging(self):
        traj = AgingTrajectory(delta_pkg=((0.0, 0.0), (200.0, 0.2)))
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.5, n_cycles=60)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       trajectory=traj, **fast_thermal()))
        res = b.run_campaign()
        tjmax = np.array([r.tj_max[0] for r in res.records])
        assert (np.diff(tjmax) > 0).all()

    def test_case_swing_regulates_ntc_band(self):
        cfg = envelope_cfg(technique=Technique.CASE_SWING, t_case_max=80.0,
                           t_case_min=45.0, n_cycles=6)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       **fast_thermal()))
        res = b.run_campaign()
        assert res.status == "ok"
        # the regulated quantity is the case reading, not the junction
        for rec in res.records[1:]:
            assert rec.tj_max[0] > 80.0

    def test_junction_swing_holds_target_under_aging(self):
        traj = AgingTrajectory(delta_pkg=((0.0, 0.0), (2000.0, 0.2)))
        cfg = envelope_cfg(technique=Technique.JUNCTION_SWING, t_j_max=120.0,
                           t_j_min=60.0, n_cycles=40)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=25,
                                       trajectory=traj, **fast_thermal()))
        res = b.run_campaign()
        assert res.status == "ok"
        for rec in res.records:
            k = int(np.argmax(rec.tj_max[:6]))
            assert abs(float(rec.delta_tj[k]) - 60.0) <= 2.0

    @pytest.mark.parametrize("technique, limits", [
        (Technique.FIXED_TIMES, dict(t_on=0.3, t_off=0.3)),
        (Technique.CASE_SWING, dict(t_case_max=80.0, t_case_min=45.0)),
        (Technique.JUNCTION_SWING, dict(t_j_max=120.0, t_j_min=60.0))])
    def test_only_the_junction_swing_builds_the_cool_observer(
            self, technique, limits, monkeypatch):
        cfg = envelope_cfg(technique=technique, n_cycles=2, **limits)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       **fast_thermal()))
        built = []
        make = b._make_observer
        monkeypatch.setattr(b, "_make_observer",
                            lambda: built.append(1) or make())
        assert b.run_campaign().status == "ok"
        assert len(built) == (2 if technique is Technique.JUNCTION_SWING
                              else 0)

    def test_heat_done_reads_the_hottest_finite_estimate(self):
        cfg = envelope_cfg(technique=Technique.JUNCTION_SWING, t_j_max=120.0,
                           t_j_min=60.0)
        b = TestBench(default_settings(cfg))
        nan = math.nan

        def heat_done(pred) -> bool:
            # the stop test on one step's estimates
            rule, done = b._heat_rule(0.0, pred)
            assert done is None
            return rule(b.ntc_readings[None], b.tj_est[None]) is not None

        # no estimate yet: not done, and the predictor is not fed
        pred = _CrossingPredictor()
        b.tj_est[:] = nan
        assert not heat_done(pred)
        assert pred.prev is None
        # the hottest of the finite estimates, the NaN ones skipped
        for est, done in (([nan, 100.0, nan, 125.0, nan, 90.0], True),
                          ([nan, 100.0, nan, 115.0, nan, 90.0], False),
                          ([110.0, 100.0, 119.5, 80.0, 95.0, 90.0], False),
                          ([110.0, 100.0, 121.0, 80.0, 95.0, 90.0], True)):
            pred = _CrossingPredictor()
            b.tj_est[:6] = est
            b.tj_est[6:] = 200.0  # the load bridge does not count
            assert heat_done(pred) is done
            assert pred.prev == np.nanmax(est)

    def test_cycle_record_swing_invariant(self):
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.2,
                           t_off=0.4, n_cycles=3)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       **fast_thermal()))
        res = b.run_campaign()
        for rec in res.records:
            assert (rec.tj_max >= rec.tj_min).all()
            assert rec.delta_tj == pytest.approx(rec.tj_max - rec.tj_min)


class TestStartup:
    def settings(self, **kw):
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.2,
                           t_off=0.3, n_cycles=2)
        return default_settings(cfg, budget_per_cycle=300, sampler_n=60,
                                startup_every=0, desat_calibrated=True,
                                **fast_thermal(), **kw)

    def test_fresh_devices_give_zero_offsets(self):
        b = TestBench(self.settings())
        out = b.startup_measurements()
        assert np.abs(out.lut_offsets).max() < 1.5e-5
        assert np.allclose(out.delta_vth_hat, 0.0)
        base = b.desat_base.threshold
        assert b.desat_thr.shape == (N_DEVICES,)
        assert all(abs(thr - base) < 1e-12 for thr in b.desat_thr)

    def test_closed_channel_refused_at_the_coldest_plate(self):
        # a 12 V final shift leaves the 15 V gate 0.3 V of overdrive at the
        # 25 degC ambient but closes the channel at a -40 degC coolant supply
        traj = AgingTrajectory(delta_vth=((0.0, 0.0), (10.0, 12.0)))
        TestBench(self.settings(trajectory=traj))
        cold = th.CoolingState(r_boundary_on=0.12, r_boundary_off=2.0,
                               coolant_temp=-40.0)
        s = self.settings(trajectory=traj)
        s.cooling = cold
        with pytest.raises(ConfigError) as e:
            TestBench(s)
        assert e.value.field == "aging.delta_vth"

    def test_package_shift_lands_in_lut_not_desat(self):
        b = TestBench(self.settings())
        b.startup_measurements()  # freeze the threshold baselines
        # +2 mohm of drift resistance at ambient via package aging
        delta = 2e-3 / b.bank.params.r_drift0
        b.bank.delta_pkg[:6] = delta
        out = b.startup_measurements()
        assert out.lut_offsets[0] == pytest.approx(2e-3, rel=0.02)
        assert out.lut_offsets_pkg[0] == pytest.approx(2e-3, rel=0.02)
        base = b.desat_base.threshold
        assert abs(b.desat_thr[0] - base) < 5e-3

    def test_oxide_shift_compensates_desat_not_package(self):
        b = TestBench(self.settings())
        b.startup_measurements()
        b.bank.delta_vth[:6] = 0.5
        out = b.startup_measurements()
        assert out.delta_vth_hat[0] == pytest.approx(0.5, abs=0.02)
        assert abs(out.lut_offsets_pkg[0]) < 5e-6
        p = b.bank.params
        ov = p.gate_on_v - p.v_th0
        predicted_rise = p.i_nominal * p.k_ch * (1 / (ov - 0.5) - 1 / ov)
        assert b.desat_thr[0] - b.desat_base.threshold == \
            pytest.approx(predicted_rise, rel=0.10)

    def test_vth_column_appears_on_startup_cycles(self):
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.2,
                           t_off=0.3, n_cycles=4)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=2,
                                       **fast_thermal()))
        res = b.run_campaign()
        finite = [np.isfinite(r.v_th).all() for r in res.records]
        assert finite == [True, False, True, False]

    def test_cool_to_ambient_stops_at_its_cap(self):
        # a 26 degC coolant supply passes the start-up's 1.5 degC refusal
        # but holds the junctions 1 degC above the 25 degC ambient, outside
        # cool_to_ambient's 0.75 degC, so the idle before cycle 2's start-up
        # runs to its cap; at the ambient supply it ends well before
        cfg = envelope_cfg(technique=Technique.JUNCTION_SWING, t_j_max=120.0,
                           t_j_min=60.0, n_cycles=3)
        dt = 1.0 / cfg.f_fund
        idles = []
        for supply in (None, 26.0):
            kw = fast_thermal()
            kw["cooling"] = replace(kw["cooling"], coolant_temp=supply)
            b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                           sampler_n=60, startup_every=2,
                                           **kw))
            res = b.run_campaign()
            assert res.status == "ok" and res.cycles_completed == 3
            # the run counts the start-up idle that its cap ended
            assert res.startup_idles_capped == (supply is not None)
            assert res.cool_phases_capped == 0
            prev, rec = res.records[1:]
            idles.append(rec.t_start - prev.t_start - prev.t_on_actual
                         - prev.t_off_actual)
        assert idles[0] < 0.1 * COOL_TO_AMBIENT_CAP_S
        assert COOL_TO_AMBIENT_CAP_S < idles[1] \
            <= COOL_TO_AMBIENT_CAP_S + dt + 1e-6

    def test_scenario_gate_drive_reaches_the_devices(self):
        # the bank, the lookup table and the start-up measurement all see
        # the device's 18 V drive, so the estimate closes within AC-2's
        # 3 degC (a bank left at the profile's 15 V reads ~33 degC hot)
        b = TestBench(default_settings(
            envelope_cfg(), budget_per_cycle=300, sampler_n=60,
            device_params=replace(module_400a(), gate_on_v=18.0)))
        assert b.bank.params.gate_on_v == 18.0
        assert b._base_lut.channel.gate_on_v == 18.0
        b.startup_measurements()
        b.bank.t_j[:] = 100.0
        v, _ = b.bank.conduction([400.0] * N_DEVICES)
        r = v[0] / 400.0
        assert smp.estimate_tj(r, 400.0, b.luts[0]).t_j == \
            pytest.approx(100.0, abs=3.0)
        b.run_steady(0.2)
        err = [w["tj_est"] - w["tj_true"] for w in b.windows]
        assert len(err) == 10 * N_DEVICES and np.abs(err).max() < 3.0


class TestEnvelopeCapture:
    def test_partial_budget_windows(self):
        # 60 slots at 5 per fundamental cycle: the fill stores a few slots
        # per cycle, and a window completes every 12 cycles
        cfg = envelope_cfg()
        b = TestBench(default_settings(cfg, budget_per_cycle=5, sampler_n=60,
                                       **fast_thermal()))
        b.run_steady(0.5)
        assert len(b.windows) == 2 * N_DEVICES
        for w in b.windows:
            assert w["cycles_used"] == 12
            assert w["r_est"] == pytest.approx(w["r_true"], rel=0.015)

    @pytest.mark.parametrize("budget, n_slots", [(7, 60), (13, 40),
                                                 (59, 60), (1, 16)])
    def test_fill_schedule_is_the_per_step_budget(self, budget, n_slots):
        # the fill's schedule, worked out from b = min(budget, N), against
        # the per-step rule: each step stores min(budget, slots left), so a
        # window takes ceil(N / budget) steps; in every block, across
        # blocks and across two runs
        cfg = envelope_cfg()
        b = TestBench(default_settings(cfg, budget_per_cycle=budget,
                                       sampler_n=n_slots, **fast_thermal()))
        fills, batched = [], b._envelope_fill_batched

        def recorded(grid, r_t, *args):
            fill = batched(grid, r_t, *args)
            fills.append((b._env_filled, r_t.shape[1], fill.slots, fill.done))
            return fill

        b._envelope_fill_batched = recorded
        b.run_steady(0.23)
        b.run_steady(0.27)

        def per_step(f, n):
            slots, done = [0], []
            for j in range(n):
                m = min(budget, n_slots - f)
                slots.append(slots[-1] + m)
                f += m
                if f == n_slots:
                    f = 0
                    done.append(j)
            return f, slots[1:], done

        for f0, n, *schedule in fills:
            assert per_step(f0, n)[1:] == tuple(schedule)
        f, _, done = per_step(0, round(b.t * cfg.f_fund))
        assert b._env_filled == f
        assert len(b.windows) == N_DEVICES * len(done) > 0
        assert {w["cycles_used"] for w in b.windows} == \
            {math.ceil(n_slots / budget)}

    @pytest.mark.parametrize("pf_angle", [None, 0.02, -0.3, 1.9, 3.1, -2.0])
    def test_slot_currents_are_inverse_park_bit_for_bit(self, pf_angle):
        # motor mode (None) centers test_a_hi's window on 0 rad, and 0.02,
        # 3.1 and -2.0 rad put a window across 0 rad too
        cfg = envelope_cfg() if pf_angle is None else envelope_cfg(
            pf_mode=PfMode.CUSTOM, pf_angle_rad=pf_angle)
        b = TestBench(default_settings(cfg, **fast_thermal()))
        i_d, i_q = b.i_ref_dq
        wraps = 0
        for k, sstate in enumerate(b.samplers):
            angles = sstate.triggers.angles
            wraps += bool((np.diff(angles) > 1.0).any())
            want = np.array([_SIGN[k] * inverse_park(i_d, i_q, a)[_PHASE[k]]
                             for a in angles.tolist()])
            assert b._envelope_grid().slot_i[k].tobytes() == want.tobytes()
        assert bool(wraps) == (pf_angle not in (-0.3, 1.9))

    @pytest.mark.parametrize("fidelity, budget", [
        pytest.param(Fidelity.ENVELOPE, 5, id="5"),
        pytest.param(Fidelity.ENVELOPE, 60, id="60"),
        pytest.param(Fidelity.AVERAGED, 60, id="averaged")])
    def test_windows_match_the_reference_estimators(self, fidelity, budget):
        # fir_filter, the convolution that smooths the CLI's sampling trace,
        # is the window finish's oracle: at the center of the slots a window
        # stored, it gives the window's filtered resistances but for the
        # rounding of the convolution, and the window's temperature is the
        # table inverse of its own estimate (a few ulp of R move T by more
        # ulp on a steep column)
        cfg = validate_scenario(BenchConfig(fidelity=fidelity))
        b = TestBench(default_settings(cfg, budget_per_cycle=budget,
                                       sampler_n=60, **fast_thermal()))
        b.startup_measurements()  # a table of its own for each device
        n, taps = b.s.sampler_n, b.s.fir_taps
        # the window slots are those fir_filter's padding reads, edges too
        padded = np.pad(np.arange(n), len(taps) // 2, mode="symmetric")
        for c in (0, n - 1):
            assert smp.fir_window(c, n, len(taps)).tolist() == \
                padded[c:c + len(taps)].tolist()

        def ulps(x, ref):
            return abs(x - ref) / np.spacing(abs(ref))

        def stored(k):
            # the slots of device k's window, which has just completed
            if fidelity is Fidelity.ENVELOPE:
                return (b._env_v[k], b._envelope_grid().slot_i[k],
                        b._env_truth[k])
            s = b.samplers[k]
            return s.v_on, s.i, s.truth

        worst = checked = 0
        while checked < 2 * N_DEVICES:
            seen = len(b.windows)
            if fidelity is Fidelity.ENVELOPE:
                b._step_envelope(1, b.t, math.inf)
            else:
                b._step_conducting()
            for w in b.windows[seen:]:
                k = w["device"]
                v, i, truth = stored(k)
                c = b.samplers[k].triggers.center_index
                assert w["i_pk"] == i[c]
                assert w["tj_est"] == smp.estimate_tj(
                    w["r_est"], w["i_pk"], b.luts[k]).t_j
                worst = max(worst,
                            ulps(w["r_est"], smp.fir_filter(v / i, taps)[c]),
                            ulps(w["r_true"], smp.fir_filter(truth, taps)[c]))
                checked += 1
        assert worst <= 8


class TestWarnings:
    def make_record(self, idx, r_on=4e-3, vth=2.7, vsd=4.3):
        return CycleRecord(
            cycle_index=idx, t_start=float(idx),
            r_on_est=np.full(N_DEVICES, r_on),
            tj_max=np.full(N_DEVICES, 120.0),
            tj_min=np.full(N_DEVICES, 50.0),
            v_th=np.full(N_DEVICES, vth),
            v_sd=np.full(N_DEVICES, vsd),
            t_on_actual=1.0, t_off_actual=1.0)

    @staticmethod
    def tracked_flags(history, policy):
        # the bench's run_campaign feeds each record to one tracker
        tracker = WarningTracker(policy)
        for rec in history:
            tracker.update(rec)
        return tracker.flags

    def test_flat_history_is_clean(self):
        recs = [self.make_record(k) for k in range(5)]
        assert self.tracked_flags(recs, WarningPolicy()) == set()

    def test_package_drift_flags(self):
        recs = [self.make_record(0), self.make_record(1, r_on=4e-3 * 1.06)]
        assert self.tracked_flags(recs, WarningPolicy()) == \
            {PACKAGE_WARNING}

    def test_body_diode_flags_well_before_end_of_life(self):
        recs = [self.make_record(0), self.make_record(1, vsd=4.3 + 0.12)]
        assert self.tracked_flags(recs, WarningPolicy()) == \
            {BODY_DIODE_WARNING}

    def test_gate_oxide_flags(self):
        recs = [self.make_record(0), self.make_record(1, vth=2.7 + 0.6)]
        assert self.tracked_flags(recs, WarningPolicy()) == \
            {GATE_OXIDE_WARNING}


class TestEnergyAudit:
    def test_nominal_run_balances(self):
        cfg = validate_scenario(BenchConfig())
        b = TestBench(default_settings(cfg, budget_per_cycle=300))
        b.run_steady(0.2)
        audit = energy_audit(b.tally)
        assert audit.residual_frac < 1e-3
        assert audit.apparent_va > 10.0 * audit.p_supply

    def test_lossless_devices_draw_nothing(self):
        # nanoohm-scale residual resistance keeps the characterization grid
        # well formed while the dissipation is sub-milliwatt
        p = module_400a()
        lossless = type(p)(**{**p.__dict__, "r_drift0": 1e-9, "k_ch": 0.0,
                              "r_i_slope": 0.0, "e_on0": 0.0, "e_off0": 0.0})
        cfg = validate_scenario(BenchConfig(link_resistance=0.0))
        b = TestBench(default_settings(cfg, device_params=lossless,
                                       budget_per_cycle=300))
        b.run_steady(0.2)       # reach steady state
        b.tally = EnergyTally()
        b.run_steady(0.2)       # audit over whole cycles in steady state
        audit = energy_audit(b.tally)
        assert abs(audit.p_supply) < 1.0

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError):
            energy_audit(EnergyTally())


class TestDeterminismAndProtection:
    def test_identical_seed_reproduces_records(self):
        def run_once():
            cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.2,
                               t_off=0.3, n_cycles=4, rng_seed=99)
            b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                           sampler_n=60, startup_every=0,
                                           **fast_thermal()))
            return b.run_campaign()

        a, b = run_once(), run_once()
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.r_on_est == rb.r_on_est).all()
            assert (ra.tj_max == rb.tj_max).all()
            assert (ra.v_sd == rb.v_sd).all()

    def test_injected_short_trips_within_one_period(self):
        cfg = validate_scenario(BenchConfig())
        b = TestBench(default_settings(cfg, budget_per_cycle=300))
        b.run_steady(0.1)
        t_inject = b.t
        b.bank.shorted[0] = True
        from acpcsim.cycling import ProtectionTrip
        with pytest.raises(ProtectionTrip) as e:
            b.run_steady(0.1)
        # trips as soon as the faulted device conducts for the blanking time
        assert e.value.t - t_inject < 1.5 / cfg.f_fund
        assert e.value.device_id == "test_a_hi"

    def test_desat_run_restarts_after_the_pin_drops_back(self):
        # a device over threshold for the longest run that does not trip,
        # back under for one step, then over again: its run restarts from
        # zero, so the steps that would have completed the first run do not
        # trip, and the run trips only once it is complete again
        cfg = validate_scenario(BenchConfig())
        b = TestBench(default_settings(cfg))
        dt = 1.0 / cfg.f_sw
        b.desat_base = replace(b.desat_base, blanking=3.5 * dt)
        n = blanking_runs(dt, b.desat_base.blanking)
        assert n == 4
        k = 3
        i_dev = np.where(np.arange(N_DEVICES) % 2 == 0, 200.0, -200.0)
        i_dev[k] = 150.0
        healthy = np.full(N_DEVICES, 1.5)
        over = healthy.copy()
        over[k] = b.desat_thr[k] - b._desat_bias + 0.25
        b._protection(healthy, i_dev, dt)
        assert (b._desat_run == -1).all()
        for dropped in (healthy, None):
            for j in range(n):
                b._protection(over, i_dev, dt)
                assert b._desat_run[k] == j
            if dropped is not None:
                b._protection(dropped, i_dev, dt)
                assert (b._desat_run == -1).all()
        with pytest.raises(ProtectionTrip) as e:
            b._protection(over, i_dev, dt)
        assert e.value.device_id == DEVICE_IDS[k]
        # a pin over threshold on a device carrying reverse current is not
        # over, and ends the run
        b._protection(over, -i_dev, dt)
        assert (b._desat_run == -1).all()

    @settings(deadline=None, max_examples=300)
    @given(dt=st.floats(1e-9, 1e-2), steps=st.integers(0, 2000),
           frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           ulps=st.integers(-2, 2))
    def test_blanking_count_is_the_trip_condition(self, dt, steps, frac,
                                                   ulps):
        # blanking times on, between and a few ulps around whole steps
        blanking = (steps + frac) * dt
        for _ in range(abs(ulps)):
            blanking = math.nextafter(blanking, math.copysign(math.inf, ulps))
        if blanking <= 0.0:
            return
        n = blanking_runs(dt, blanking)
        runs = np.arange(-1, 2 * n + 3)
        assert ((runs >= n) == ((runs * dt >= blanking) & (runs >= 1))).all()

    def test_envelope_trip_on_the_blanking_boundary(self):
        # a shorted device is over threshold wherever it conducts: one
        # envelope step trips once that share of the period reaches the
        # blanking time, so at a blanking equal to it or one ulp under it,
        # and not at one ulp over it
        k = 4
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.3)
        dt = 1.0 / cfg.f_fund

        def step(blanking):
            b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                           sampler_n=60, **fast_thermal()))
            grid = b._envelope_grid()
            healthy, _ = b.bank.conduction(grid.cur)
            b.bank.desat_fault_v = 8.0  # a short the thermal step survives
            assert healthy.max() < 5.0
            b.desat_thr[:] = b._desat_bias + 5.0
            b.desat_base = replace(b.desat_base, blanking=blanking)
            b.bank.shorted[k] = True
            b._step_envelope(1, b.t, math.inf)

        share = int((TestBench(default_settings(cfg))._envelope_grid()
                     .i_dev[k] > 0).sum())
        assert 0 < share < 32
        edge = share / 32 * dt
        for blanking in (edge, math.nextafter(edge, 0.0)):
            with pytest.raises(ProtectionTrip) as e:
                step(blanking)
            assert e.value.device_id == DEVICE_IDS[k]
        step(math.nextafter(edge, math.inf))

    def test_envelope_trip_follows_recalibrated_thresholds(self):
        # the envelope step keeps its threshold column between steps, and a
        # start-up that rewrites the thresholds reaches the next step: aged
        # devices trip at the fresh thresholds and ride through once the
        # start-up has compensated them for the measured shift
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.3)

        def aged_step(recompensate):
            b = TestBench(default_settings(
                cfg, budget_per_cycle=300, sampler_n=60,
                desat=sns.DesatConfig(compensated=True),
                desat_calibrated=True, **fast_thermal()))
            b.startup_measurements()  # fresh devices freeze the baselines
            # the column at the fresh thresholds
            b._step_envelope(1, b.t, math.inf)
            b.bank.delta_vth[:] = delta_vth_for_vds_shift(b.bank.params, 1.0)
            b.cool_to_ambient()
            if recompensate:
                b.startup_measurements()
            b._step_envelope(1, b.t, math.inf)

        with pytest.raises(ProtectionTrip):
            aged_step(recompensate=False)
        aged_step(recompensate=True)

    @settings(deadline=None, max_examples=200)
    @given(dt=st.floats(1e-9, 1.0), g=st.sampled_from([32, 7, 1]))
    def test_blanking_angles_is_the_envelope_trip_condition(self, dt, g):
        # the count an envelope step compares against trips exactly where
        # the share of the period, count / g * dt, reaches the blanking
        # time: on each share, one ulp either side of it, and past both ends
        counts = np.arange(g + 1)
        shares = counts / g * dt
        blankings = [-1.0, 2 * dt, math.inf, math.nan]
        for share in shares.tolist():
            blankings += [share, math.nextafter(share, -math.inf),
                          math.nextafter(share, math.inf)]
        for blanking in blankings:
            n = blanking_angles(dt, blanking, g)
            assert ((counts >= n) == (shares >= blanking)).all()

    def test_unreachable_blanking_never_trips(self):
        assert blanking_runs(1 / 22e3, math.inf) == math.inf

    def test_campaign_reports_trip_status(self):
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=0.3,
                           t_off=0.3, n_cycles=5)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       **fast_thermal()))
        b.bank.shorted[3] = True
        res = b.run_campaign()
        assert res.status == "protection_trip"
        assert "test_b_lo" in res.reason

    def test_thermal_runaway_detected(self):
        # tiny cooling capacity and relentless heating blow the envelope
        cfg = envelope_cfg(technique=Technique.FIXED_TIMES, t_on=50.0,
                           t_off=0.3, n_cycles=1)
        b = TestBench(default_settings(
            cfg, budget_per_cycle=300, sampler_n=60, startup_every=0,
            network=th.default_network(total_r_jc=0.5),
            cooling=th.CoolingState(r_boundary_on=1.0, r_boundary_off=3.0,
                                    boundary_c=2.0)))
        res = b.run_campaign()
        assert res.status == "thermal_runaway"

    def test_heat_cap_ends_an_unreachable_target(self):
        # at 100 A the junctions settle near 36 degC, far below a 150 degC
        # target and the simulation envelope, so the heat-phase cap ends
        # the run at the first step past it
        cfg = envelope_cfg(technique=Technique.JUNCTION_SWING, t_j_max=150.0,
                           t_j_min=60.0, n_cycles=2, i_ref_peak=100.0)
        b = TestBench(default_settings(cfg, budget_per_cycle=300,
                                       sampler_n=60, startup_every=0,
                                       heat_cap_s=2.0, **fast_thermal()))
        res = b.run_campaign()
        assert res.status == "thermal_runaway" and res.cycles_completed == 0
        assert res.reason == \
            "heat phase exceeded 2.0 s without reaching its target"
        assert 2.0 < b.t <= 2.0 + 1.0 / cfg.f_fund + 1e-9
        assert b.bank.t_j.max() < 50.0 and np.nanmax(b.tj_est[:6]) < 50.0

    def test_averaged_thermal_runaway_detected(self):
        # a junction pushed past the simulation envelope ends the next
        # averaged step after its DESAT check, with the message the
        # envelope engine gives
        b = TestBench(default_settings(validate_scenario(BenchConfig())))
        b._stage_temps[2, 0] += 250.0
        b.bank.t_j[2] += 250.0
        with pytest.raises(ThermalRunaway,
                           match=r"^test_b_hi reached 275\.0 degC at t=0\.000 s$"):
            b.run_steady(1.0 / b.cfg.f_sw)
        assert b.t == 0.0


class TestOperatingModes:
    def test_generator_mode_reverses_current(self):
        from acpcsim.core import PfMode
        cfg = validate_scenario(BenchConfig(pf_mode=PfMode.GENERATOR))
        b = TestBench(default_settings(cfg, budget_per_cycle=300))
        b.run_steady(0.3)
        op = b.measure_operating_point()
        assert op["i_dq"][0] == pytest.approx(-400.0, abs=4.0)

    def test_switched_mode_matches_averaged_volt_seconds(self):
        # identical per-period current advance when R = 0 (exact volt-seconds)
        def endpoint(fidelity):
            cfg = validate_scenario(BenchConfig(fidelity=fidelity,
                                                link_resistance=0.0))
            b = TestBench(default_settings(cfg, budget_per_cycle=300))
            for _ in range(40):
                b._step_conducting()
            return b.plant.i_abc

        i_avg = endpoint(Fidelity.AVERAGED)
        i_sw = endpoint(Fidelity.SWITCHED)
        assert i_sw == pytest.approx(i_avg, abs=1e-6)
