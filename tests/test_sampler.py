import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from acpcsim.core import TWO_PI, BenchConfig, ConfigError, validate_scenario
from acpcsim.cycling import N_DEVICES, TestBench, default_settings
from acpcsim.device import PROFILES, module_400a, on_resistance
from acpcsim.sampler import (AmbientMismatch, RonLut, SamplerState,
                             build_ron_lut, build_trigger_set,
                             default_fir_taps, estimate_ron, estimate_tj,
                             fir_filter, fir_window, invert_column,
                             recalibrate_lut, sampler_update_interval,
                             store_events, sweep_slots, triggers_in_interval)


def capture_at(s, k, v, i):
    """Store (v, i) through a sweep that ends on trigger k and crosses no
    other trigger; returns the number of slots stored."""
    a = float(s.triggers.angles[k])
    return sampler_update_interval(s, a - 1e-6, a, v, i)


def crossed_by_scan(ts, t0, t1):
    """Whether each sweep (t0, t1], wrapped to [0, 2pi), crosses a trigger
    of ts, by a linear scan of its angles."""
    a0 = (t0 % TWO_PI)[:, None]
    a1 = (t1 % TWO_PI)[:, None]
    a = ts.angles[None, :]
    hit = np.where(a1 > a0, (a > a0) & (a <= a1),
                   (a1 < a0) & ((a > a0) | (a <= a1)))
    return hit.any(axis=1)


class TestTriggerSet:
    def test_three_point_window(self):
        ts = build_trigger_set(math.radians(90), 3, math.radians(1))
        assert np.degrees(ts.angles) == pytest.approx([89.0, 90.0, 91.0])
        assert ts.center_index == 1

    def test_default_spacing(self):
        ts = build_trigger_set(math.pi / 2, 300, math.radians(10))
        spacing = np.diff(np.degrees(ts.angles))
        assert spacing == pytest.approx(np.full(299, 20.0 / 299))

    def test_single_point(self):
        ts = build_trigger_set(1.0, 1, 0.3)
        assert ts.angles == pytest.approx([1.0])

    def test_wrapping_window(self):
        ts = build_trigger_set(0.0, 11, math.radians(10))
        assert (np.diff(ts.angles) > 0).all()
        a = float(ts.angles[ts.center_index])
        assert min(a, TWO_PI - a) <= math.radians(1.0) + 1e-12  # half a step


class TestMatchTrigger:
    def test_exact_hit(self):
        # a sweep that ends on trigger k stores slot k alone
        ts = build_trigger_set(1.0, 101, 0.2)
        for k in (0, 17, 50, 100):
            s = SamplerState(ts, budget_per_cycle=101)
            assert capture_at(s, k, 1.0, 10.0) == 1
            assert np.flatnonzero(s.filled_mask).tolist() == [k]
            a = float(ts.angles[k])
            (lo,), (end,) = sweep_slots([ts], np.array([a - 1e-6, a,
                                                       a + 1e-6]))
            assert (end > lo).tolist() == [True, False]
            assert (lo[0], end[0]) == (k, k + 1)

    def test_equivalent_to_linear_scan(self):
        # the documented oracle: a linear scan of the trigger angles, over
        # short and whole-circle sweeps, wrapping ones and exact hits
        rng = np.random.default_rng(21)
        for center in (0.0, math.pi / 2, 6.2):
            ts = build_trigger_set(center, 300, math.radians(10))
            t0 = rng.uniform(-TWO_PI, 2 * TWO_PI, size=100_000)
            t1 = t0 + np.where(rng.random(len(t0)) < 0.5,
                               rng.uniform(0.0, 0.05, len(t0)),
                               rng.uniform(0.0, TWO_PI, len(t0)))
            t1[::7] = rng.choice(ts.angles, len(t1[::7]))
            want = crossed_by_scan(ts, t0, t1)
            # one sweep from each t0 to its t1, and one back to the next t0
            (lo,), (end,) = sweep_slots([ts], np.stack([t0, t1], 1).ravel())
            assert ((end[::2] > lo[::2]) == want).all()
            for a, b, w in zip(t0[:2000], t1[:2000], want[:2000]):
                assert bool(len(triggers_in_interval(ts, a, b))) == w

    def test_interval_indices_are_the_linear_scan(self):
        # the crossed slots themselves, ascending from the sweep's start:
        # a range, or the slots past the start and then those from 0 rad
        rng = np.random.default_rng(5)
        for center in (0.0, math.pi / 2, 6.2):
            ts = build_trigger_set(center, 60, math.radians(10))
            t0 = rng.uniform(-TWO_PI, 2 * TWO_PI, size=3000)
            t1 = t0 + rng.uniform(0.0, TWO_PI, len(t0))
            t1[::5] = rng.choice(ts.angles, len(t1[::5]))
            a0, a1 = t0 % TWO_PI, t1 % TWO_PI
            for x0, x1, b0, b1 in zip(t0, t1, a0, a1):
                got = triggers_in_interval(ts, x0, x1)
                after = np.flatnonzero(ts.angles > b0)
                upto = np.flatnonzero(ts.angles <= b1)
                want = (np.intersect1d(after, upto) if b1 > b0 else
                        np.concatenate([after, upto]) if b1 < b0 else [])
                assert list(got) == list(want)
                assert isinstance(got, range) or b1 < b0

    def test_interval_crossing_wrap(self):
        ts = build_trigger_set(0.0, 11, math.radians(10))
        idx = triggers_in_interval(ts, TWO_PI - math.radians(11),
                                   math.radians(11))
        assert len(idx) == 11

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_search_finds_the_slots_a_sweep_crossed(self, data):
        # windows anywhere on the circle (wrapping ones too); sweeps that are
        # empty, wrap through 0 rad, or start or end exactly on a trigger:
        # each set's runs hold triggers_in_interval's slots, in its order
        sets = [build_trigger_set(data.draw(st.floats(-10.0, 10.0)),
                                  data.draw(st.integers(1, 40)),
                                  data.draw(st.floats(1e-3, math.pi / 2)))
                for _ in range(data.draw(st.integers(1, 12)))]
        on_trigger = st.sampled_from(
            np.concatenate([s.angles for s in sets]).tolist())
        angle = st.one_of(st.floats(-20.0, 20.0), on_trigger,
                          on_trigger.map(lambda a: a + TWO_PI))
        t0 = data.draw(angle)
        t1 = data.draw(st.one_of(angle, st.just(t0)))
        lo, end = sweep_slots(sets, np.array([t0, t1]))
        for s, (a,), (b,) in zip(sets, lo, end):
            want = list(triggers_in_interval(s, t0, t1))
            assert [k % s.n for k in range(a, b)] == want
            assert (b > a) == bool(want)


class TestSamplerBudget:
    def run_cycles(self, n, budget, max_cycles=10_000):
        # the slots arrive in slot order, so budget 1 is the sequential
        # baseline
        ts = build_trigger_set(math.pi / 2, n, math.radians(10))
        s = SamplerState(ts, budget_per_cycle=budget)
        cycles = 0
        while not s.complete and cycles < max_cycles:
            s.start_cycle()
            cycles += 1
            for k in range(n):
                capture_at(s, k, 1.0, 100.0)
        return cycles

    def test_unconstrained_capture_completes_in_one_cycle(self):
        assert self.run_cycles(300, 300) == 1

    def test_budget_five_takes_sixty_cycles(self):
        assert self.run_cycles(300, 5) == 60

    def test_sequential_baseline_takes_n_cycles(self):
        assert self.run_cycles(300, 1) == 300

    def test_out_of_order_strictly_faster_for_any_larger_budget(self):
        base = self.run_cycles(300, 1)
        for b in (2, 5, 30, 300):
            assert self.run_cycles(300, b) < base

    def test_invalid_reading_ignored(self):
        # the bench's capture gates: a device whose current is at or below
        # the floor, or whose cycle budget is spent, stores nothing and draws
        # no noise; each device that passes every gate stores a budget's
        # worth of slots and draws once
        for blocked in ([1, 2, 3, 4], range(N_DEVICES)):
            bench = TestBench(default_settings(
                validate_scenario(BenchConfig())))
            budget = bench.samplers[0].budget_per_cycle
            i_dev = np.full(N_DEVICES, 100.0)
            for j, k in enumerate(blocked):
                if j % 4 == 3:
                    bench.samplers[k].budget_used = budget
                else:
                    i_dev[k] = (bench.i_floor, 0.0, -100.0)[j % 4]
            passing = [k for k in range(N_DEVICES) if k not in blocked]
            ref = np.random.default_rng()
            ref.bit_generator.state = bench.rng.bit_generator.state
            ref.normal(0.0, bench.s.sense_params.noise_sigma, len(passing))
            # a whole turn from between two windows crosses every trigger
            bench.theta_prev = math.radians(30.0)
            bench._capture(bench.theta_prev + TWO_PI - 1e-6, i_dev,
                           1e-2 * i_dev, np.full(N_DEVICES, 0.5))
            filled = [st_k.filled for st_k in bench.samplers]
            assert filled == [0 if k in blocked else budget
                              for k in range(N_DEVICES)]
            assert bench.rng.bit_generator.state == ref.bit_generator.state

    def test_interval_store_matches_one_slot_at_a_time(self):
        # sampler_update_interval against the per-slot rule: skip filled
        # slots, stop when the budget is spent; the window wraps through
        # 0 rad, so sweeps cross the wrap too
        ts = build_trigger_set(0.1, 40, 0.3)
        rng = np.random.default_rng(8)
        for budget in (1, 3, 7, 40):
            got = SamplerState(ts, budget_per_cycle=budget)
            ref = SamplerState(ts, budget_per_cycle=budget)
            stored = windows = 0
            for _ in range(100):  # fundamental cycles sweeping the window
                got.start_cycle()
                ref.start_cycle()
                theta = -0.35
                while theta < 0.45:
                    nxt = theta + float(rng.uniform(0.0, 0.1))
                    v = float(rng.normal())
                    n = sampler_update_interval(got, theta, nxt, v, 50.0)
                    want = 0
                    for k in triggers_in_interval(ts, theta, nxt):
                        if (ref.budget_used < budget
                                and not ref.filled_mask[k]):
                            ref.v_on[k] = v
                            ref.filled_mask[k] = True
                            ref.filled += 1
                            ref.budget_used += 1
                            want += 1
                    assert n == want
                    assert (got.filled_mask == ref.filled_mask).all()
                    assert (got.v_on == ref.v_on).all()
                    assert got.budget_used == ref.budget_used
                    stored += n
                    if got.complete:
                        got.reset_window()
                        ref.reset_window()
                        windows += 1
                    theta = nxt
            assert windows >= 1 and stored >= 100

    @staticmethod
    def per_slot_events(s, lo, end, at_cycle, cycle, end_cycle) -> tuple:
        """store_events by the per-slot rule on the sampler's own arrays:
        each event's crossed slots in turn, a filled one skipped, until the
        budget is spent; a completed window reset at the device's next
        event. Returns (skipped, each window's (slot, event) stores,
        done)."""
        n, budget = s.triggers.n, s.budget_per_cycle
        skipped, windows, done = [], [[]], []
        for j, (a, b, ep) in enumerate(zip(lo, end, at_cycle)):
            if s.complete:
                s.reset_window()
                windows.append([])
            if ep != cycle:
                cycle = ep
                s.start_cycle()
            if s.budget_used >= budget:
                skipped.append(j)
                continue
            stored = 0
            for k in range(a, b):
                if s.budget_used < budget and not s.filled_mask[k % n]:
                    s.filled_mask[k % n] = True
                    s.filled += 1
                    s.budget_used += 1
                    stored += 1
                    windows[-1].append((k % n, j))
            if stored and s.budget_used == stored:
                s.cycles_elapsed += 1
            if s.complete:
                done.append((j, s.cycles_elapsed))
        if end_cycle != cycle:
            s.start_cycle()
        return skipped, windows, done

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_store_events_is_the_per_slot_rule(self, data):
        # one device's events from a window in progress: runs that wrap
        # past the last slot, cycles that refill the budget, windows that
        # complete mid-call, events the budget or the filled slots stop
        n = data.draw(st.integers(1, 40))
        budget = data.draw(st.integers(1, n + 2))
        ts = build_trigger_set(1.0, n, 0.2)
        got, ref = (SamplerState(ts, budget_per_cycle=budget)
                    for _ in range(2))
        filled = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        assume(not all(filled))
        used = data.draw(st.integers(0, budget))
        for s in (got, ref):
            s.filled_mask[:] = filled
            s.filled, s.budget_used = sum(filled), used
            s.cycles_elapsed = int(any(filled))
        cycle = data.draw(st.integers(0, 3))
        lo, end, at_cycle = [], [], []
        c = cycle
        for _ in range(data.draw(st.integers(0, 30))):
            a = data.draw(st.integers(0, n))
            lo.append(a)
            end.append(a + data.draw(st.integers(1, n)))
            c += data.draw(st.sampled_from([0, 0, 0, 1, 2]))
            at_cycle.append(c)
        end_cycle = c + data.draw(st.integers(0, 1))
        skipped, runs, ends, done = store_events(got, lo, end, at_cycle,
                                                 cycle, end_cycle)
        stores = [(k, j) for a, m, j in zip(runs[::3], runs[1::3],
                                            runs[2::3])
                  for k in range(a, a + m)]
        windows = [stores[i:k] for i, k in zip([0, *ends], ends)]
        assert (skipped, windows, done) == self.per_slot_events(
            ref, lo, end, at_cycle, cycle, end_cycle)
        assert got.filled_mask.tobytes() == ref.filled_mask.tobytes()
        assert (got.filled, got.cycles_elapsed, got.budget_used) == \
            (ref.filled, ref.cycles_elapsed, ref.budget_used)

    def test_order_independence(self):
        # any arrival order reconstructs the same slot array
        n = 64
        ts = build_trigger_set(math.pi / 2, n, math.radians(10))
        wave = {k: (math.sin(k / 7.0), 100.0 + k) for k in range(n)}

        def fill(order):
            s = SamplerState(ts, budget_per_cycle=7)
            while not s.complete:
                s.start_cycle()
                for k in order:
                    capture_at(s, k, wave[k][0], wave[k][1])
            return s.v_on.copy(), s.i.copy()

        rng = np.random.default_rng(31)
        ref_v, ref_i = fill(list(range(n)))
        for _ in range(5):
            order = rng.permutation(n)
            v, i = fill(list(order))
            assert (v == ref_v).all() and (i == ref_i).all()


class TestFir:
    @given(n_taps=st.integers(1, 201),
           cutoff=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(n_taps=31, cutoff=0.1)
    @settings(max_examples=300, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_design_is_firwin_bit_for_bit(self, n_taps, cutoff):
        # scipy is a test dependency only: the oracle of the numpy design
        from scipy.signal import firwin
        # a subnormal cutoff underflows a short even design to NaN taps in
        # both
        with np.errstate(invalid="ignore"):
            ref = firwin(n_taps, cutoff)
            assert np.array_equal(default_fir_taps(n_taps, cutoff),
                                  ref / ref.sum(), equal_nan=True)

    @pytest.mark.parametrize("n_taps, cutoff", [
        (0, 0.1), (-3, 0.1), (31, 0.0), (31, 1.0), (31, -0.2),
        (31, float("nan"))])
    def test_design_refuses_what_firwin_refuses_and_nan(self, n_taps,
                                                        cutoff):
        with pytest.raises(ValueError):
            default_fir_taps(n_taps, cutoff)

    def test_taps_normalized(self):
        taps = default_fir_taps()
        assert len(taps) == 31
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(taps, taps[::-1], atol=1e-15)

    def test_constant_passes_unchanged(self):
        taps = default_fir_taps()
        out = fir_filter(np.full(300, 3.3), taps)
        assert out == pytest.approx(np.full(300, 3.3), abs=1e-12)

    def test_impulse_response_is_taps(self):
        taps = default_fir_taps()
        x = np.zeros(301)
        x[150] = 1.0
        out = fir_filter(x, taps)
        assert out[135:166] == pytest.approx(taps, abs=1e-12)

    def test_noise_gain_matches_formula(self):
        taps = default_fir_taps()
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 1.0, size=20_000)
        out = fir_filter(x, taps)
        predicted = math.sqrt(float((taps ** 2).sum()))
        measured = out[100:-100].std()
        assert measured == pytest.approx(predicted, rel=0.20)

    def test_linearity(self):
        taps = default_fir_taps()
        rng = np.random.default_rng(19)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        lhs = fir_filter(2.5 * x - 1.5 * y, taps)
        rhs = 2.5 * fir_filter(x, taps) - 1.5 * fir_filter(y, taps)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_bad_taps(self):
        with pytest.raises(ValueError):
            fir_filter([1.0, 2.0], [0.5, 0.5])       # even length
        with pytest.raises(ValueError):
            fir_filter([1.0], [0.4, 0.4, 0.4])       # sum != 1
        with pytest.raises(ValueError):
            fir_filter([1.0], [0.2, 0.3, 0.5])       # asymmetric

    def test_window_reflects_as_far_as_the_whole_array(self):
        # fir_window reflects an index once, which reaches the symmetric
        # padding's slots for every center up to 2 * n + 1 taps, the
        # longest filter the bench accepts
        n = 10
        n_taps = 2 * n + 1
        padded = np.pad(np.arange(n), n_taps // 2, mode="symmetric")
        idx = fir_window(np.arange(n), n, n_taps)
        for c in range(n):
            assert idx[c].tolist() == padded[c:c + n_taps].tolist()


def filled_state(n=300, v=0.16, i=100.0):
    ts = build_trigger_set(math.pi / 2, n, math.radians(10))
    s = SamplerState(ts, budget_per_cycle=n)
    s.start_cycle()
    for k in range(n):
        capture_at(s, k, v, i)
    return s


def center_estimate(s, taps):
    """estimate_ron over the filter window around s's center slot."""
    idx = fir_window(s.triggers.center_index, s.triggers.n, len(taps))
    return float(estimate_ron(s.v_on[idx], s.i[idx], taps))


class TestEstimateRon:
    def test_uniform_window_returns_ratio(self):
        s = filled_state(v=0.16, i=100.0)
        assert center_estimate(s, default_fir_taps()) == \
            pytest.approx(1.6e-3, rel=1e-12)

    def test_noise_rejection_meets_accuracy_budget(self):
        rng = np.random.default_rng(23)
        n = 300
        ts = build_trigger_set(math.pi / 2, n, math.radians(10))
        worst = 0.0
        for _ in range(40):
            s = SamplerState(ts, budget_per_cycle=n)
            s.start_cycle()
            for k in range(n):
                v = 0.4 + rng.normal(0.0, 2e-3)
                capture_at(s, k, v, 100.0)
            r = center_estimate(s, default_fir_taps())
            worst = max(worst, abs(r - 4e-3) / 4e-3)
        assert worst < 0.015


class TestLut:
    def linear_lut(self, slope=2.4e-3, r0=80e-3):
        t = np.array([25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0])
        i = np.array([10.0, 20.0, 30.0])
        grid = np.tile(r0 + slope * (t - 25.0), (3, 1)).T
        # all of R is drift; the channel only serves recalibration
        return RonLut(t_axis=t, i_axis=i, grid=grid,
                      drift_profile=grid[:, 0], channel=module_400a())

    def test_exact_node_inversion(self):
        lut = self.linear_lut()
        out = estimate_tj(float(lut.grid[2, 1]), 20.0, lut)
        assert out.t_j == pytest.approx(75.0, abs=1e-9)
        assert not out.out_of_grid

    def test_midpoint_inversion(self):
        lut = self.linear_lut()
        r_mid = 0.5 * (lut.grid[1, 0] + lut.grid[2, 0])
        assert estimate_tj(float(r_mid), 10.0, lut).t_j == \
            pytest.approx(62.5, abs=1e-9)

    def test_sensitivity_profile_inversion(self):
        # 2.4 mohm/degC profile: +120 mohm above the 25 degC value reads 75 degC
        lut = self.linear_lut(slope=2.4e-3)
        r = float(lut.grid[0, 0]) + 120e-3
        assert estimate_tj(r, 10.0, lut).t_j == pytest.approx(75.0, abs=1e-9)

    def test_out_of_grid_clamped_and_flagged(self):
        lut = self.linear_lut()
        out = estimate_tj(float(lut.grid[-1, 0]) + 1.0, 10.0, lut)
        assert out.out_of_grid and out.t_j == 175.0
        out = estimate_tj(1e-6, 10.0, lut)
        assert out.out_of_grid and out.t_j == 25.0

    def test_nonmonotone_grid_rejected(self):
        t = np.array([25.0, 50.0])
        i = np.array([10.0, 20.0])
        with pytest.raises(ValueError, match="increase"):
            RonLut(t_axis=t, i_axis=i,
                   grid=np.array([[2.0, 2.0], [1.0, 1.0]]),
                   drift_profile=np.array([2.0, 1.0]), channel=module_400a())

    def test_one_point_axis_rejected(self):
        # a column interpolates between two current points, and the
        # inversion between two temperature points
        for axes, key in ((dict(t_axis=(25.0,)), "lut.t_axis"),
                          (dict(i_axis=(100.0,)), "lut.i_axis")):
            with pytest.raises(ConfigError) as e:
                build_ron_lut(module_400a(), **axes)
            assert e.value.field == key

    def test_device_lut_matches_model(self):
        p = module_400a()
        lut = build_ron_lut(p)
        assert lut.value(75.0, 200.0) == pytest.approx(
            on_resistance(p, 75.0, 200.0, p.gate_on_v), rel=1e-12)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def table_columns():
    """R(T) columns the bench inverts: fresh and recalibrated tables of every
    device profile at both gate drives, at currents on, between and beyond
    the current axis."""
    cols = []
    for make in PROFILES.values():
        for v_gs in (15.0, 18.0):
            lut = build_ron_lut(replace(make(), gate_on_v=v_gs))
            r_amb = lut.value(25.0, 400.0)
            luts = [lut,
                    recalibrate_lut(lut, r_amb + 2e-3, 25.0, 400.0, 0.0),
                    recalibrate_lut(lut, r_amb + 1e-3, 25.0, 400.0, 0.5),
                    recalibrate_lut(lut, r_amb, 25.0, 400.0, 1.5)]
            for tab in luts:
                for i_d in (10.0, 50.0, 123.4, 275.0, 400.0, 512.0):
                    cols.append((tab.column(i_d), tab.t_axis))
    return cols


class TestInvertColumn:
    """invert_column is np.interp for one point, bit for bit."""

    def test_table_columns_on_below_above_and_between_knots(self):
        cols = table_columns()
        assert len(cols) == 3 * 2 * 4 * 6
        for col, t_axis in cols:
            assert (np.diff(col) > 0).all()
            xs = [math.nan, -math.inf, math.inf, 0.0,
                  col[0] - 1e-3, col[-1] + 1e-3]
            for c in col:
                xs += [c, math.nextafter(c, -math.inf),
                       math.nextafter(c, math.inf)]
            xs += list(0.5 * (col[1:] + col[:-1]))
            xs += list(col[:-1] + 0.25 * np.diff(col))
            cl, tl = col.tolist(), t_axis.tolist()
            for x in map(float, xs):
                assert bits(invert_column(x, cl, tl)) == \
                    bits(np.interp(x, col, t_axis)), (x, cl)

    @settings(max_examples=300, deadline=None)
    @given(col=st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=7,
                        unique=True).map(sorted),
           t_axis=st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=7),
           data=st.data())
    def test_random_increasing_columns(self, col, t_axis, data):
        col = np.array(col)
        assume((np.diff(col) > 0).all())
        t_axis = np.array(t_axis)
        knots = st.sampled_from(col.tolist())
        xs = data.draw(st.lists(st.one_of(
            st.floats(-2e3, 2e3), knots,
            knots.map(lambda c: math.nextafter(c, math.inf)),
            knots.map(lambda c: math.nextafter(c, -math.inf)),
            st.just(math.nan)), min_size=1, max_size=20))
        cl, tl = col.tolist(), t_axis.tolist()
        for x in xs:
            assert bits(invert_column(x, cl, tl)) == \
                bits(np.interp(x, col, t_axis)), (x, cl, tl)

    def test_estimate_tj_inverts_through_it(self):
        lut = build_ron_lut(module_400a())
        col = lut.column(300.0)
        for r in (0.5 * (col[2] + col[3]), col[4], col[0] - 1e-4):
            assert bits(estimate_tj(float(r), 300.0, lut).t_j) == \
                bits(np.interp(r, col, lut.t_axis))


class TestRecalibration:
    def test_fresh_measurement_gives_zero_offset(self):
        p = module_400a()
        lut = build_ron_lut(p)
        r_meas = lut.value(25.0, 400.0)
        out = recalibrate_lut(lut, r_meas, 25.0, 400.0, 0.0)
        assert out.offset == pytest.approx(0.0, abs=1e-15)

    def test_package_shift_recorded_as_package(self):
        p = module_400a()
        lut = build_ron_lut(p)
        r_meas = lut.value(25.0, 400.0) + 2e-3
        out = recalibrate_lut(lut, r_meas, 25.0, 400.0, 0.0)
        assert out.offset == pytest.approx(2e-3, rel=1e-9)
        assert out.offset_pkg == pytest.approx(2e-3, rel=1e-9)

    def test_closure_at_ambient(self):
        p = module_400a()
        lut = build_ron_lut(p)
        r_meas = lut.value(25.0, 400.0) + 1.5e-3
        out = recalibrate_lut(lut, r_meas, 25.0, 400.0, 0.0)
        est = estimate_tj(r_meas, 400.0, out)
        assert abs(est.t_j - 25.0) <= 1.0

    def test_oxide_shift_decoupled_from_package(self):
        p = module_400a()
        lut = build_ron_lut(p)
        dvth = 0.5
        r_meas = on_resistance(p, 25.0, 400.0, p.gate_on_v, delta_vth=dvth)
        out = recalibrate_lut(lut, r_meas, 25.0, 400.0, dvth)
        assert abs(out.offset_pkg) < 5e-6  # all attributed to the oxide
        assert out.delta_vth_hat == dvth

    def test_package_correction_scales_with_temperature(self):
        # a pure package shift recalibrated at ambient stays accurate hot
        p = module_400a()
        lut = build_ron_lut(p)
        r_amb = on_resistance(p, 25.0, 400.0, p.gate_on_v, delta_pkg=0.10)
        out = recalibrate_lut(lut, r_amb, 25.0, 400.0, 0.0)
        r_hot = on_resistance(p, 150.0, 300.0, p.gate_on_v, delta_pkg=0.10)
        assert out.value(150.0, 300.0) == pytest.approx(r_hot, rel=1e-6)

    def test_ambient_mismatch_guard(self):
        p = module_400a()
        lut = build_ron_lut(p)
        with pytest.raises(AmbientMismatch):
            recalibrate_lut(lut, 0.9 * lut.value(25.0, 400.0), 25.0, 400.0,
                            0.0)

