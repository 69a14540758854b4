import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acpcsim.core import BenchConfig, validate_scenario
from acpcsim.electrical import (FirstOrderFilter, PiState, PlantState,
                                control_step, inverse_park, inverse_park_phase,
                                make_controller, park, pi_step, plant_step,
                                svpwm_duties)

TWO_PI = 2 * math.pi


def park_matrix_oracle(i_abc, theta):
    """Independent evaluation of the amplitude-invariant transform matrix."""
    k = 2.0 / 3.0
    a = np.array([theta, theta - TWO_PI / 3, theta + TWO_PI / 3])
    m = np.vstack([k * np.cos(a), -k * np.sin(a)])
    return m @ np.asarray(i_abc)


class TestPark:
    def test_zero_input(self):
        assert park(0, 0, 0, 1.234) == (0.0, 0.0)

    def test_aligned_balanced_set(self):
        d, q = park(100.0, -50.0, -50.0, 0.0)
        assert d == pytest.approx(100.0, abs=1e-12)
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_rotated_set_matches_matrix_oracle(self):
        # inputs quoted to two decimals, so the nominal (100, 0) holds to 1e-2
        i_abc = (0.0, 86.60, -86.60)
        d, q = park(*i_abc, math.pi / 2)
        od, oq = park_matrix_oracle(i_abc, math.pi / 2)
        assert d == pytest.approx(od, abs=1e-12)
        assert q == pytest.approx(oq, abs=1e-12)
        assert d == pytest.approx(100.0, abs=1e-2)
        assert q == pytest.approx(0.0, abs=1e-9)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.uniform(-500, 500, size=2)
            theta = rng.uniform(0, TWO_PI)
            d, q = park(*inverse_park(x[0], x[1], theta), theta)
            assert abs(d - x[0]) <= 1e-12 * max(1.0, abs(x[0]))
            assert abs(q - x[1]) <= 1e-12 * max(1.0, abs(x[1]))

    def test_amplitude_invariance_with_phase_offset(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            amp = rng.uniform(1, 400)
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(0, TWO_PI)
            i_abc = [amp * math.cos(theta - phi - k * TWO_PI / 3)
                     for k in range(3)]
            d, q = park(*i_abc, theta)
            assert d == pytest.approx(amp * math.cos(phi), abs=1e-9)
            assert q == pytest.approx(-amp * math.sin(phi), abs=1e-9)

    @settings(max_examples=200)
    @given(v_d=st.floats(-1e4, 1e4), v_q=st.floats(-1e4, 1e4),
           thetas=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
           phase=st.integers(0, 2))
    @example(v_d=0.0, v_q=-0.0, thetas=[0.0, -0.0, TWO_PI], phase=0)
    def test_one_phase_is_inverse_park_bit_for_bit(self, v_d, v_q, thetas,
                                                   phase):
        got = inverse_park_phase(v_d, v_q, thetas, phase)
        want = [inverse_park(v_d, v_q, t)[phase] for t in thetas]
        assert np.array(want).tobytes() == got.tobytes()

    def test_instantaneous_power_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v_dq = rng.uniform(-400, 400, size=2)
            i_dq = rng.uniform(-400, 400, size=2)
            theta = rng.uniform(0, TWO_PI)
            v = inverse_park(*v_dq, theta)
            i = inverse_park(*i_dq, theta)
            p_abc = sum(vk * ik for vk, ik in zip(v, i))
            p_dq = 1.5 * (v_dq[0] * i_dq[0] + v_dq[1] * i_dq[1])
            assert p_dq == pytest.approx(p_abc, rel=1e-6, abs=1e-9)


class TestPi:
    def test_pure_proportional(self):
        st = PiState(kp=1.0, ki=0.0, out_min=-10, out_max=10)
        assert pi_step(st, 2.0, 0.1) == pytest.approx(2.0)

    def test_integral_accumulation(self):
        st = PiState(kp=0.0, ki=10.0, out_min=-10, out_max=10)
        assert pi_step(st, 1.0, 0.1) == pytest.approx(1.0)
        assert pi_step(st, 1.0, 0.1) == pytest.approx(2.0)

    def test_anti_windup_freezes_integrator(self):
        st = PiState(kp=0.0, ki=10.0, out_min=-5, out_max=5)
        for _ in range(50):
            out = pi_step(st, 2.0, 0.1)
        assert out == 5.0
        frozen = st.integrator
        for _ in range(10):
            pi_step(st, 2.0, 0.1)
        assert st.integrator == frozen
        # integrator unwinds once the error reverses far enough
        for _ in range(100):
            pi_step(st, -2.0, 0.1)
        assert st.integrator < frozen

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            PiState(kp=1.0, ki=1.0, out_min=1.0, out_max=-1.0)


class TestSvpwm:
    def test_null_vector_centers_duties(self):
        d = svpwm_duties(0.0, 0.0, 0.7, 800.0)
        assert d[:3] == (0.5, 0.5, 0.5)
        assert d[3] is False

    def test_linear_boundary_at_sector_bisector(self):
        v_dc = 800.0
        d_a, d_b, d_c, sat = svpwm_duties(v_dc / math.sqrt(3), 0.0,
                                          math.radians(30.0), v_dc)
        assert d_a == pytest.approx(1.0, abs=1e-9)
        assert d_b == pytest.approx(0.5, abs=1e-9)
        assert d_c == pytest.approx(0.0, abs=1e-9)
        assert not sat

    def test_overmodulation_clamped_and_flagged(self):
        v_dc = 800.0
        lim = v_dc / math.sqrt(3)
        d_a, d_b, d_c, sat = svpwm_duties(1.2 * lim, 0.0, math.radians(30.0),
                                          v_dc)
        assert sat
        # radial clamp lands on the boundary solution
        ref = svpwm_duties(lim, 0.0, math.radians(30.0), v_dc)
        assert (d_a, d_b, d_c) == pytest.approx(ref[:3], abs=1e-9)

    def test_duties_bounded_and_volt_seconds_exact(self):
        rng = np.random.default_rng(3)
        v_dc = 800.0
        lim = v_dc / math.sqrt(3)
        for _ in range(300):
            mag = rng.uniform(0, lim)
            ang = rng.uniform(0, TWO_PI)
            theta = rng.uniform(0, TWO_PI)
            v_d, v_q = mag * math.cos(ang), mag * math.sin(ang)
            d = np.array(svpwm_duties(v_d, v_q, theta, v_dc)[:3])
            assert ((0.0 <= d) & (d <= 1.0)).all()
            realized = (d - d.mean()) * v_dc
            ref = np.array(inverse_park(v_d, v_q, theta))
            assert np.abs(realized - ref).max() < 1e-9 * v_dc

    def test_volt_second_error_over_fundamental(self):
        # mean absolute synthesis error across one electrical period
        v_dc = 800.0
        mag = 0.9 * v_dc / math.sqrt(3)
        errs = []
        for theta in np.linspace(0, TWO_PI, 440, endpoint=False):
            d = np.array(svpwm_duties(mag, 0.0, theta, v_dc)[:3])
            realized = (d - d.mean()) * v_dc
            ref = np.array(inverse_park(mag, 0.0, theta))
            errs.append(np.abs(realized - ref).mean())
        assert np.mean(errs) < 0.005 * v_dc


class TestPlant:
    def test_constant_voltage_current_ramp(self):
        st = PlantState()
        plant_step(st, np.array([70.0, -35.0, -35.0]), np.zeros(3),
                   r=0.0, l=700e-6, dt=10e-6)
        assert st.i_abc[0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_drive_decay_time_constant(self):
        r, l = 5e-3, 700e-6
        st = PlantState(i_abc=np.array([10.0, -5.0, -5.0]))
        tau = l / r
        dt = tau / 1000
        for _ in range(1000):
            plant_step(st, np.zeros(3), np.zeros(3), r, l, dt)
        assert st.i_abc[0] == pytest.approx(10.0 * math.exp(-1.0), rel=1e-9)

    def test_zero_sequence_removed(self):
        rng = np.random.default_rng(5)
        st = PlantState(i_abc=np.array([3.0, -1.0, -2.0]))
        for _ in range(100):
            v_t = rng.uniform(-400, 400, size=3)
            v_l = rng.uniform(-400, 400, size=3)
            plant_step(st, v_t, v_l, 5e-3, 700e-6, 45e-6)
            assert abs(sum(st.i_abc)) < 1e-9

    def test_energy_identity_per_step(self):
        # v*mean(i)*dt == dE_L + R*mean(i^2)*dt with the analytic means
        r, l, dt = 5e-3, 700e-6, 45e-6
        st = PlantState(i_abc=np.array([100.0, -40.0, -60.0]))
        v_t = np.array([50.0, -20.0, -30.0])
        e0 = 0.5 * l * (np.asarray(st.i_abc) ** 2).sum()
        res = plant_step(st, v_t, np.zeros(3), r, l, dt)
        e1 = 0.5 * l * (np.asarray(st.i_abc) ** 2).sum()
        v = v_t - v_t.mean()
        lhs = float((v * res.i_mean).sum()) * dt
        rhs = (e1 - e0) + r * float(np.sum(res.i_sq_mean)) * dt
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestControl:
    def test_zero_error_zero_integrator_centers_load_duties(self):
        cfg = validate_scenario(BenchConfig())
        ctl = make_controller(cfg)
        duties_test, duties_load = control_step(
            ctl, np.zeros(3), 0.3, 1.0 / cfg.f_sw,
            (0.9 * cfg.v_dc / math.sqrt(3), 0.0), (0.0, 0.0), cfg.v_dc)
        assert duties_load[:3] == (0.5, 0.5, 0.5)

    def test_step_reference_settles_within_20_cycles(self):
        cfg = validate_scenario(BenchConfig())
        ctl = make_controller(cfg)
        plant = PlantState()
        dt = 1.0 / cfg.f_sw
        v_dc = cfg.v_dc
        v_test = (0.9 * v_dc / math.sqrt(3), 0.0)
        i_ref = (0.0, 200.0)
        steps = int(20 * cfg.f_sw / cfg.f_fund)
        for n in range(steps):
            theta = (TWO_PI * cfg.f_fund * n * dt) % TWO_PI
            d_t, d_l = control_step(ctl, plant.i_abc, theta, dt, v_test,
                                    i_ref, v_dc)
            v_t = np.array(d_t[:3]) * v_dc
            v_l = np.array(d_l[:3]) * v_dc
            plant_step(plant, v_t, v_l, cfg.link_resistance,
                       cfg.link_inductance, dt)
        # average the true dq over the final fundamental cycle
        acc = np.zeros(2)
        n_cycle = int(cfg.f_sw / cfg.f_fund)
        for n in range(steps, steps + n_cycle):
            theta = (TWO_PI * cfg.f_fund * n * dt) % TWO_PI
            acc += park(*plant.i_abc, theta)
            d_t, d_l = control_step(ctl, plant.i_abc, theta, dt, v_test,
                                    i_ref, v_dc)
            plant_step(plant, np.array(d_t[:3]) * v_dc,
                       np.array(d_l[:3]) * v_dc, cfg.link_resistance,
                       cfg.link_inductance, dt)
        acc /= n_cycle
        err = math.hypot(acc[0] - i_ref[0], acc[1] - i_ref[1])
        assert err < 0.01 * 200.0


_AMPS = st.floats(-900.0, 900.0)
_VOLTS = st.floats(-700.0, 700.0)
# the bench's angles lie in [0, 2 pi); these sit on and next to both ends
_EDGE_THETAS = st.sampled_from([0.0, 5e-324, 1e-12, TWO_PI - 1e-12,
                                math.nextafter(TWO_PI, 0.0)])


@settings(max_examples=300, deadline=None)
@given(i_abc=st.tuples(_AMPS, _AMPS, _AMPS), y0=st.tuples(_AMPS, _AMPS, _AMPS),
       theta=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), _EDGE_THETAS),
       v_test=st.tuples(_VOLTS, _VOLTS), i_ref=st.tuples(_AMPS, _AMPS),
       integrators=st.tuples(_VOLTS, _VOLTS))
# a test command beyond the linear region, and a load command the PI
# clamp and decoupling push beyond it
@example(i_abc=(0.0, 0.0, 0.0), y0=(0.0, 0.0, 0.0), theta=0.0,
         v_test=(600.0, 300.0), i_ref=(900.0, -900.0), integrators=(0.0, 0.0))
@example(i_abc=(500.0, -250.0, -250.0), y0=(800.0, -100.0, -700.0),
         theta=math.nextafter(TWO_PI, 0.0), v_test=(-700.0, 0.0),
         i_ref=(-900.0, 900.0), integrators=(-450.0, 450.0))
def test_control_step_is_the_standalone_transforms(i_abc, y0, theta, v_test,
                                                    i_ref, integrators):
    # control_step evaluates the trig of theta once for the Park transform
    # and both syntheses: its duties and saturation flags are park's and
    # svpwm_duties' bit for bit
    cfg = validate_scenario(BenchConfig())
    dt = 1.0 / cfg.f_sw
    ctl, ref = make_controller(cfg), make_controller(cfg)
    for c in (ctl, ref):
        c.current_filter.y = y0
        c.pi_d.integrator, c.pi_q.integrator = integrators
    duties_test, duties_load = control_step(ctl, i_abc, theta, dt, v_test,
                                            i_ref, cfg.v_dc)

    i_d, i_q = park(*ref.current_filter.step(i_abc, dt), theta)
    i_dq = complex(i_d, i_q) * ref.filter_comp
    w_l = ref.omega_e * ref.link_inductance
    u_d = pi_step(ref.pi_d, i_ref[0] - i_dq.real, dt) - w_l * i_dq.imag
    u_q = pi_step(ref.pi_q, i_ref[1] - i_dq.imag, dt) + w_l * i_dq.real
    assert duties_test == svpwm_duties(v_test[0], v_test[1], theta, cfg.v_dc)
    assert duties_load == svpwm_duties(-u_d, -u_q, theta, cfg.v_dc)
    assert ctl.current_filter.y == ref.current_filter.y
    assert (ctl.pi_d.integrator, ctl.pi_q.integrator) \
        == (ref.pi_d.integrator, ref.pi_q.integrator)


def test_first_order_filter_dc_gain():
    f = FirstOrderFilter(cutoff_hz=2000.0)
    for _ in range(2000):
        y = f.step(np.array([1.0, 2.0, 3.0]), 45e-6)
    assert y == pytest.approx([1.0, 2.0, 3.0], rel=1e-6)
