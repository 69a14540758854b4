"""Reference-frame transforms, PI current control, SVPWM duty synthesis, and
the circulating-power plant: two three-phase bridges joined by per-phase RL
links.

Transform convention: amplitude-invariant (2/3 factor), q axis leading d by
90 degrees, theta is the phase-a axis angle. A balanced three-phase set of
amplitude I lagging the d axis by phi maps to (I*cos(phi), -I*sin(phi)).

Three-phase quantities (link currents, pole voltages, filter state and the
plant's per-step means) are (a, b, c) triples of Python floats: numpy call
overhead on 3-element arrays would cost more than their arithmetic. Each
expression keeps the order of operations of the array form it replaced, so
results are bit-identical to it: a 3-element np.add.reduce is
(a + b) + c, and np.square(x) is x * x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import TWO_PI

_SQRT3 = math.sqrt(3.0)
_B = TWO_PI / 3.0  # 120 degrees


def _phase_trig(theta: float) -> tuple:
    """cos and sin of theta, theta - 120 deg and theta + 120 deg: the six
    values every transform at angle theta needs."""
    return (math.cos(theta), math.cos(theta - _B), math.cos(theta + _B),
            math.sin(theta), math.sin(theta - _B), math.sin(theta + _B))


def _park(i_a: float, i_b: float, i_c: float, trig: tuple
          ) -> tuple[float, float]:
    ca, cb, cc, sa, sb, sc = trig
    d = (2.0 / 3.0) * (i_a * ca + i_b * cb + i_c * cc)
    q = -(2.0 / 3.0) * (i_a * sa + i_b * sb + i_c * sc)
    return d, q


def _inverse_park(v_d: float, v_q: float, trig: tuple
                  ) -> tuple[float, float, float]:
    ca, cb, cc, sa, sb, sc = trig
    return (v_d * ca - v_q * sa,
            v_d * cb - v_q * sb,
            v_d * cc - v_q * sc)


def inverse_park_phase(v_d: float, v_q: float, thetas: list, phase: int
                       ) -> np.ndarray:
    """inverse_park(v_d, v_q, theta)[phase] at each of thetas, bit for bit,
    from only that phase's cosine and sine (phase 0, 1, 2 is a, b, c).

    The axis angle is _phase_trig's; _inverse_park rotates array entries
    elementwise, and every phase slot of the tuple it gets holds this
    phase's values."""
    axes = ([t - _B for t in thetas] if phase == 1
            else [t + _B for t in thetas] if phase == 2 else thetas)
    c = np.array([math.cos(x) for x in axes])
    s = np.array([math.sin(x) for x in axes])
    return _inverse_park(v_d, v_q, (c, c, c, s, s, s))[0]


def park(i_a: float, i_b: float, i_c: float, theta: float) -> tuple[float, float]:
    """Project a three-phase set onto the rotating dq frame at angle theta."""
    return _park(i_a, i_b, i_c, _phase_trig(theta))


def inverse_park(v_d: float, v_q: float, theta: float) -> tuple[float, float, float]:
    """Rotate a dq pair back into three phase quantities."""
    return _inverse_park(v_d, v_q, _phase_trig(theta))


@dataclass
class PiState:
    """PI controller with output clamping and conditional-integration anti-windup.

    The integrator is frozen whenever committing the update would push the
    output beyond its clamp, so it can never wind up past the saturation
    boundary.
    """

    kp: float
    ki: float
    out_min: float
    out_max: float
    integrator: float = 0.0

    def __post_init__(self):
        if not self.out_min < self.out_max:
            raise ValueError("out_min must be below out_max")


def pi_step(state: PiState, error: float, dt: float) -> float:
    """Advance one control period and return the clamped output."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    candidate = state.integrator + state.ki * error * dt
    unsat = state.kp * error + candidate
    if unsat > state.out_max:
        return state.out_max
    if unsat < state.out_min:
        return state.out_min
    state.integrator = candidate
    return unsat


def svpwm_duties(v_d: float, v_q: float, theta: float, v_dc: float
                 ) -> tuple[float, float, float, bool]:
    """Space-vector duty synthesis via symmetric min-max injection.

    Returns (d_a, d_b, d_c, saturated). In the linear region
    (|v| <= v_dc/sqrt(3)) the volt-second average of each phase voltage,
    (d_k - mean(d)) * v_dc, reproduces the commanded phase voltage exactly.
    References beyond the linear region are radially clamped and flagged.
    """
    return _svpwm(v_d, v_q, _phase_trig(theta), v_dc)


def _svpwm(v_d: float, v_q: float, trig: tuple, v_dc: float
           ) -> tuple[float, float, float, bool]:
    if v_dc <= 0:
        raise ValueError("v_dc must be positive")
    limit = v_dc / _SQRT3
    mag = math.hypot(v_d, v_q)
    saturated = mag > limit * (1.0 + 1e-12)
    if saturated:
        scale = limit / mag
        v_d *= scale
        v_q *= scale
    v_a, v_b, v_c = _inverse_park(v_d, v_q, trig)
    offset = -0.5 * (max(v_a, v_b, v_c) + min(v_a, v_b, v_c))
    d_a = 0.5 + (v_a + offset) / v_dc
    d_b = 0.5 + (v_b + offset) / v_dc
    d_c = 0.5 + (v_c + offset) / v_dc
    # fp guard only; min-max injection keeps duties inside [0, 1]
    # analytically. Each line is min(1.0, max(0.0, d)), NaN to 0.0 included.
    d_a = 0.0 if not d_a > 0.0 else d_a if d_a < 1.0 else 1.0
    d_b = 0.0 if not d_b > 0.0 else d_b if d_b < 1.0 else 1.0
    d_c = 0.0 if not d_c > 0.0 else d_c if d_c < 1.0 else 1.0
    return d_a, d_b, d_c, saturated


@dataclass
class PlantState:
    """Per-phase link currents."""

    i_abc: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # plant_step's exponential-update terms for the last (r, l, dt)
    step_terms: Optional[tuple] = field(default=None, repr=False,
                                        compare=False)


@dataclass
class PlantStepResult:
    """Per-step integrals needed for exact energy bookkeeping."""

    i_mean: tuple    # time-average of each phase current over the step
    i_sq_mean: tuple  # time-average of each squared phase current


def plant_step(state: PlantState, v_test_abc, v_load_abc,
               r: float, l: float, dt: float) -> PlantStepResult:
    """Advance the three RL links one step with the applied pole voltages.

    The zero-sequence component of the applied voltage difference is removed
    (no neutral path exists), the per-phase ODE di/dt = (v - R i)/L is
    integrated with the exact exponential update, and the returned means make
    the discrete energy balance v*mean(i)*dt = dE_L + R*mean(i^2)*dt exact.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_a, t_b, t_c = v_test_abc
    l_a, l_b, l_c = v_load_abc
    v_a, v_b, v_c = t_a - l_a, t_b - l_b, t_c - l_c
    v0 = (v_a + v_b + v_c) / 3
    v = (v_a - v0, v_b - v0, v_c - v0)

    i1, i_mean, i_sq_mean = [], [], []
    if r > 0:
        terms = state.step_terms
        if terms is None or terms[0] != (r, l, dt):
            tau = l / r
            a = math.exp(-dt / tau)
            terms = state.step_terms = (
                (r, l, dt), a, tau * (1.0 - a) / dt,
                tau * (1.0 - a * a) / (2.0 * dt))
        _, a, g, g_sq = terms
        for v_k, i0_k in zip(v, state.i_abc):
            i_ss = v_k / r
            delta = i0_k - i_ss
            i1.append(i_ss + delta * a)
            i_mean.append(i_ss + delta * g)
            i_sq_mean.append(i_ss * i_ss + 2.0 * i_ss * delta * g
                             + delta * delta * g_sq)
    else:
        for v_k, i0_k in zip(v, state.i_abc):
            slope = v_k / l
            step = slope * dt
            i1.append(i0_k + step)
            i_mean.append(i0_k + 0.5 * slope * dt)
            i_sq_mean.append(i0_k * i0_k + i0_k * slope * dt
                             + step * step / 3.0)

    # kill numerical zero-sequence drift
    i1_a, i1_b, i1_c = i1
    i0 = (i1_a + i1_b + i1_c) / 3
    state.i_abc = (i1_a - i0, i1_b - i0, i1_c - i0)
    return PlantStepResult(i_mean=tuple(i_mean), i_sq_mean=tuple(i_sq_mean))


class FirstOrderFilter:
    """Per-phase first-order low pass used on the measured link currents."""

    def __init__(self, cutoff_hz: float):
        self.cutoff_hz = cutoff_hz
        self.y = (0.0, 0.0, 0.0)
        self._alpha_key = None  # (cutoff_hz, dt) of the cached alpha
        self._alpha = 0.0

    def step(self, x, dt: float) -> tuple[float, float, float]:
        if self._alpha_key != (self.cutoff_hz, dt):
            self._alpha_key = (self.cutoff_hz, dt)
            self._alpha = 1.0 - math.exp(-TWO_PI * self.cutoff_hz * dt)
        alpha = self._alpha
        y_a, y_b, y_c = self.y
        x_a, x_b, x_c = x
        self.y = (y_a + alpha * (x_a - y_a), y_b + alpha * (x_b - y_b),
                  y_c + alpha * (x_c - y_c))
        return self.y


def default_pi_gains(l: float, r: float, f_sw: float) -> tuple[float, float]:
    """Pole placement on the RL link at a bandwidth of f_sw/20.

    kp cancels the inductive dynamics at the target bandwidth; ki places the
    closed-loop pair critically damped at half the bandwidth.
    """
    omega_c = TWO_PI * f_sw / 20.0
    kp = max(omega_c * l - r, 0.1 * omega_c * l)
    ki = omega_c ** 2 * l / 4.0
    return kp, ki


@dataclass
class ControllerState:
    """Open-loop test-inverter command plus the closed current loops of the
    load inverter (decoupling feedforward, no test-voltage feedforward).

    filter_comp removes the measurement filter's known gain and phase at the
    fundamental from the parked currents, so the regulated dq values track
    the true fundamental component instead of its lagged image.
    """

    pi_d: PiState
    pi_q: PiState
    current_filter: FirstOrderFilter
    omega_e: float            # electrical angular frequency, rad/s
    link_inductance: float
    filter_comp: complex = 1.0 + 0.0j


def _filter_response(cutoff_hz: float, f_signal: float, dt: float) -> complex:
    """Exact response of the discretized first-order filter at f_signal."""
    alpha = 1.0 - math.exp(-TWO_PI * cutoff_hz * dt)
    z = complex(math.cos(TWO_PI * f_signal * dt), math.sin(TWO_PI * f_signal * dt))
    return alpha / (1.0 - (1.0 - alpha) / z)


def make_controller(cfg) -> ControllerState:
    kp, ki = default_pi_gains(cfg.link_inductance, cfg.link_resistance, cfg.f_sw)
    vmax = cfg.v_dc / _SQRT3
    cutoff = 2000.0
    dt = 1.0 / cfg.f_sw
    return ControllerState(
        pi_d=PiState(kp, ki, -vmax, vmax),
        pi_q=PiState(kp, ki, -vmax, vmax),
        current_filter=FirstOrderFilter(cutoff_hz=cutoff),
        omega_e=TWO_PI * cfg.f_fund,
        link_inductance=cfg.link_inductance,
        filter_comp=1.0 / _filter_response(cutoff, cfg.f_fund, dt),
    )


def control_step(ctl: ControllerState, i_abc, theta: float, dt: float,
                 v_test_dq: tuple[float, float], i_ref_dq: tuple[float, float],
                 v_dc: float):
    """One control period: filter, transform, regulate, synthesize duties.

    The test inverter runs open loop at the commanded dq voltage. The load
    inverter closes the current loops: the PI output is the voltage demanded
    across the link, so the load command is its negative (plus rotational
    decoupling), which leaves centered duties at zero error and zero
    integrator state.
    """
    trig = _phase_trig(theta)
    i_d, i_q = _park(*ctl.current_filter.step(i_abc, dt), trig)
    c = complex(i_d, i_q) * ctl.filter_comp
    i_d, i_q = c.real, c.imag

    u_d = pi_step(ctl.pi_d, i_ref_dq[0] - i_d, dt) - ctl.omega_e * ctl.link_inductance * i_q
    u_q = pi_step(ctl.pi_q, i_ref_dq[1] - i_q, dt) + ctl.omega_e * ctl.link_inductance * i_d

    duties_test = _svpwm(v_test_dq[0], v_test_dq[1], trig, v_dc)
    duties_load = _svpwm(-u_d, -u_q, trig, v_dc)
    return duties_test, duties_load


def dq_phase_deg(x_d: float, x_q: float) -> float:
    """Waveform phase of a dq phasor in degrees: x_a(t) = X cos(theta + delta)."""
    return math.degrees(math.atan2(x_q, x_d))
