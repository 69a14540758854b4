"""Per-switch SiC MOSFET model: threshold voltage, on-resistance, the
conduction law for both quadrants, the switching-loss law, the body diode,
and cycle-driven degradation trajectories.

On-resistance decomposes into a drift/package term with positive temperature
coefficient (scaled by package aging) and a channel term inversely
proportional to the gate overdrive (shifted by gate-oxide aging):

    R(T, i) = r_drift0 * (1 + delta_pkg) * ((T + 273.15)/(T0 + 273.15))**alpha
              + k_ch / (v_gs - V_th(T))
              + r_i_slope * (i - i_nominal)

Reverse current flows through the channel in parallel with the body diode
once the channel drop reaches the diode knee. The body diode adds a
stacking-fault voltage shift on top of a knee with current-dependent
temperature coefficient. switching_loss is the only form of the
switching-loss law; it takes scalars or arrays.

The conduction law splits into a temperature half (the first two lines of
R above, and the diode knee) and a current half (the last line of R,
current_slope, and the signs and magnitudes of conduction_current). It
has two forms. The array form, conduction_voltage,
takes scalars or broadcasting arrays: temperature_half and
conduction_current give its halves and conduction_from_halves combines
them. The row form works on lists of Python floats, one value per device:
temperature_rows gives the temperature half and conduction_rows combines
it with one current per device. Both keep the same order of operations, so
each value is the array form's to the bit (tests/test_cycling.py
TestBankConsistency pins the two together). The bench evaluates the
temperature half once per step in the row form, then the drops in the row
form for the averaged and switched engines' one current per device, or in
the array form for the envelope engine's (12, g) grids, whose current half
it binds once per run. A grid whose channel conducts alone in every row
needs no masks: its drops are i * (r_t + slope), to the same bits
(DeviceBank.conduction).

There is no per-device state object: every law takes DeviceParams plus the
junction temperature and aging values (delta_pkg, delta_vth, delta_vsd) as
scalars or arrays, and the bench passes the twelve values of its
DeviceBank, which holds them and is the bench's one entry to the law.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

KELVIN = 273.15
N_DEVICES = 12  # the bench's switches: two three-phase bridges


@dataclass
class DeviceParams:
    r_drift0: float               # drift/package resistance at t0, ohm
    k_ch: float                   # channel constant, V*ohm
    v_th0: float                  # threshold voltage at t0, V
    rho_vth: float                # threshold tempco, V/degC (negative)
    v_j0: float                   # body-diode knee at t0, V
    rho_sd_lo: float              # diode tempco near zero current, V/degC
    rho_sd_hi: float              # diode tempco at nominal current, V/degC
    r_diode: float                # diode series resistance, ohm
    e_on0: float                  # turn-on energy at (v_ref, i_ref), J
    e_off0: float                 # turn-off energy at (v_ref, i_ref), J
    v_ref: float                  # switching-energy voltage reference, V
    i_ref: float                  # switching-energy current reference, A
    alpha_drift: float = 1.3      # drift-term temperature exponent
    t0: float = 25.0              # reference temperature, degC
    i_nominal: float = 400.0      # rated/nominal drain current, A
    gate_on_v: float = 15.0       # gate drive of the conducting channel, V
    r_i_slope: float = 0.0        # ohm per ampere away from i_nominal
    k_sat: float = 20.0           # saturation transconductance, A/V^2
    c_gs: float = 10e-9           # gate-source capacitance, F

    def __post_init__(self):
        if self.r_drift0 < 0 or self.k_ch < 0:
            raise ValueError("resistance terms must be nonnegative")
        # each test below fails on NaN; k_sat = 0 is the gate-fault model
        if not self.rho_vth < 0:
            raise ValueError("rho_vth must be negative")
        if not self.gate_on_v > self.v_th0:
            raise ValueError("gate_on_v must exceed v_th0")
        if not self.c_gs > 0:
            raise ValueError("c_gs must be positive")
        if not self.k_sat >= 0:
            raise ValueError("k_sat must be nonnegative")


def threshold_voltage(p: DeviceParams, t_j, delta_vth=0.0):
    """Threshold at t_j, shifted by gate-oxide aging (array-safe)."""
    return p.v_th0 + p.rho_vth * (t_j - p.t0) + delta_vth


def drift_resistance(p: DeviceParams, t_j, delta_pkg=0.0):
    """Drift/package term of R(T, i), scaled by package aging."""
    return p.r_drift0 * (1.0 + delta_pkg) * \
        ((t_j + KELVIN) / (p.t0 + KELVIN)) ** p.alpha_drift


def _temperature_resistance(p: DeviceParams, t_j, v_gs, delta_pkg,
                            delta_vth):
    """Temperature half of on_resistance: the drift term plus the channel
    term at the gate drive v_gs, with aging deltas (array-safe)."""
    overdrive = v_gs - threshold_voltage(p, t_j, delta_vth)
    return drift_resistance(p, t_j, delta_pkg) + p.k_ch / overdrive


def temperature_half(p: DeviceParams, t_j, v_gs, delta_pkg=0.0,
                     delta_vth=0.0, delta_vsd=0.0) -> tuple:
    """The temperature half of conduction_voltage, (r_t, knee): r_t is the
    temperature half of on_resistance (the drift and channel terms) and
    knee the body-diode turn-on voltage (the zero-current limit of v_sd),
    shifted by body-diode aging (array-safe)."""
    return (_temperature_resistance(p, t_j, v_gs, delta_pkg, delta_vth),
            p.v_j0 + p.rho_sd_lo * (t_j - p.t0) + delta_vsd)


def current_slope(p: DeviceParams, i_d):
    """Current half of on_resistance: the change of R away from the
    nominal current (array-safe)."""
    return p.r_i_slope * (i_d - p.i_nominal)


def on_resistance(p: DeviceParams, t_j, i_d, v_gs, delta_pkg=0.0, delta_vth=0.0):
    """R(T, i) with aging deltas, the one implementation of the law: its
    temperature half plus its current half.

    Operators only, so scalars and broadcasting arrays both work; no check
    that the channel is on (sampler.build_ron_lut and the bench refuse a
    closed channel when they are configured).
    """
    return _temperature_resistance(p, t_j, v_gs, delta_pkg,
                                   delta_vth) + current_slope(p, i_d)


def channel_shift(p: DeviceParams, t_j, v_gs, delta_vth):
    """Growth of the channel term of on_resistance when the threshold
    shifts by delta_vth (array-safe)."""
    overdrive = v_gs - threshold_voltage(p, t_j)
    return p.k_ch / (overdrive - delta_vth) - p.k_ch / overdrive


def v_sd(p: DeviceParams, i, t_j, delta_vsd=0.0):
    """Body-diode forward voltage at reverse current magnitude i > 0,
    shifted by body-diode aging (array-safe).

    The temperature coefficient interpolates from the low-current to the
    high-current value as the current approaches the nominal rating.
    """
    if np.any(np.asarray(i) <= 0.0):
        raise ValueError("v_sd requires a positive current magnitude")
    w = np.clip(i / p.i_nominal, 0.0, 1.0)
    rho = p.rho_sd_lo + (p.rho_sd_hi - p.rho_sd_lo) * w
    return p.v_j0 + rho * (t_j - p.t0) + p.r_diode * i + delta_vsd


class ConductionCurrent(NamedTuple):
    """Current half of conduction_voltage: the terms that depend on the
    signed current i alone."""

    mag: np.ndarray       # |i|, A
    sign: np.ndarray      # sign of i
    forward: np.ndarray   # i >= 0: first quadrant
    zero: Optional[np.ndarray]  # not |i| > 0; None when no current is zero
    slope: np.ndarray     # current_slope at mag, ohm
    i: np.ndarray         # the signed current, A
    # of a (rows, g) current, each row's largest reverse magnitude and
    # largest slope over its reverse currents (0.0 for a row with none), as
    # lists of Python floats; None for any other shape
    rev_mag: Optional[list]
    rev_slope: Optional[list]


def conduction_current(p: DeviceParams, i) -> ConductionCurrent:
    """The current half of conduction_voltage at signed current i."""
    i = np.array(i, dtype=float)
    mag = np.abs(i)
    nonzero = mag > 0.0
    zero = None if np.count_nonzero(nonzero) == nonzero.size else ~nonzero
    slope = current_slope(p, mag)
    rev_mag = rev_slope = None
    if i.ndim == 2:
        rev = i < 0.0
        rev_mag = np.max(mag, axis=1, where=rev, initial=0.0).tolist()
        rev_slope = np.where(rev.any(axis=1), np.max(
            slope, axis=1, where=rev, initial=-np.inf), 0.0).tolist()
    return ConductionCurrent(mag, np.sign(i), i >= 0.0, zero, slope, i,
                             rev_mag, rev_slope)


def conduction_from_halves(p: DeviceParams, cur: ConductionCurrent, r_t,
                           knee):
    """conduction_voltage from its current half cur and its temperature
    half (r_t, knee) = temperature_half(...).

    The channel conducts alone in the first quadrant and below the knee,
    in parallel with the body diode elsewhere; the parallel branch is
    evaluated only when some current takes it. A zero current reads 0.
    """
    r_ch = r_t + cur.slope
    v = np.asarray(cur.mag * r_ch)
    alone = np.logical_or(v <= knee, cur.forward)
    # the parallel branch, when some current takes it or a knee wider than
    # the channel drop widens the result
    if np.count_nonzero(alone) < alone.size or v.shape != alone.shape:
        v_par = np.asarray((cur.mag + knee / p.r_diode)
                           / (np.reciprocal(r_ch) + 1.0 / p.r_diode))
        np.copyto(v_par, v, where=alone)
        v = v_par
    np.multiply(v, cur.sign, v)
    if cur.zero is not None:
        np.copyto(v, 0.0, where=cur.zero)
    return v


def temperature_rows(p: DeviceParams, t_j, delta_pkg, delta_vth,
                     delta_vsd) -> tuple:
    """The row form of temperature_half, one value per device, with the
    channel held on at p.gate_on_v: (r_t, knee), lists of Python floats,
    from the junction temperatures t_j, an array, and sequences of Python
    floats.

    Every expression keeps the array form's order of operations, so each
    value is the array form's to the bit: the drift power is one numpy
    power over all the rows, which rounds as the array form's does (a
    Python float power need not).
    """
    t0, v_gs, t0_kelvin = p.t0, p.gate_on_v, p.t0 + KELVIN
    growth = (((t_j + KELVIN) / t0_kelvin) ** p.alpha_drift).tolist()
    t_j = t_j.tolist()
    r_drift0, k_ch, v_th0, rho_vth = p.r_drift0, p.k_ch, p.v_th0, p.rho_vth
    v_j0, rho_sd_lo = p.v_j0, p.rho_sd_lo
    r_t, knee = [], []
    for t, g, pkg, vth, vsd in zip(t_j, growth, delta_pkg, delta_vth,
                                   delta_vsd):
        rise = t - t0
        r_t.append(r_drift0 * (1.0 + pkg) * g
                   + k_ch / (v_gs - (v_th0 + rho_vth * rise + vth)))
        knee.append(v_j0 + rho_sd_lo * rise + vsd)
    return r_t, knee


def conduction_rows(p: DeviceParams, i, r_t, knee) -> list:
    """The row form of conduction_from_halves, one current per device: v,
    a list of Python floats, where v[k] is the drop at device k's signed
    current i[k] and its temperature half (r_t[k], knee[k]) =
    temperature_rows(...).

    The arguments are sequences of Python floats. Every expression keeps
    the array form's order of operations, so each drop is the array form's
    to the bit: a reverse current's magnitude and the sign are applied by
    negation, which is exact; a zero or NaN current reads 0.0. The parallel
    branch is evaluated only for a reverse current above the knee.
    """
    r_i_slope, i_nominal = p.r_i_slope, p.i_nominal
    r_diode = p.r_diode
    g_diode = 1.0 / r_diode
    v = []
    for i_k, r_k, knee_k in zip(i, r_t, knee):
        if i_k > 0.0:
            v.append(i_k * (r_k + r_i_slope * (i_k - i_nominal)))
        elif i_k < 0.0:
            mag = -i_k
            r_ch = r_k + r_i_slope * (mag - i_nominal)
            drop = mag * r_ch
            if not drop <= knee_k:
                drop = (mag + knee_k / r_diode) / (1.0 / r_ch + g_diode)
            v.append(-drop)
        else:
            v.append(0.0)
    return v


def conduction_voltage(p: DeviceParams, i, t_j, v_gs, delta_pkg=0.0,
                       delta_vth=0.0, delta_vsd=0.0):
    """Signed drain-source voltage while conducting signed current i with the
    channel on, the array form of the law (temperature_rows and
    conduction_rows are its row form).

    First quadrant: ohmic drop through on_resistance. Third quadrant: the
    channel alone below the diode knee, the channel in parallel with the
    body diode above it. Operators and masked copies only, so scalars and
    broadcasting arrays both work; no check that the channel is on (a
    closed channel is refused when the bench is configured). The law is
    its current half (conduction_current) combined with its temperature
    half (temperature_half) by conduction_from_halves, so a caller whose
    currents are fixed can bind that half once.
    """
    return conduction_from_halves(
        p, conduction_current(p, i),
        *temperature_half(p, t_j, v_gs, delta_pkg, delta_vth, delta_vsd))


def switching_loss(p: DeviceParams, f_sw, v_dc, i_abs):
    """Switching dissipation in watts: the reference energies scaled
    bilinearly with bus voltage and current magnitude (array-safe)."""
    return f_sw * (p.e_on0 + p.e_off0) * (v_dc / p.v_ref) * i_abs / p.i_ref


# ---------------------------------------------------------------------------
# Aging trajectories
# ---------------------------------------------------------------------------

Breakpoints = Sequence[tuple[float, float]]


@dataclass
class AgingTrajectory:
    """Piecewise-linear degradation schedules keyed by cycle count.

    Each mechanism is a breakpoint list [(cycle, value), ...] with
    nondecreasing cycles and values. A repeated cycle encodes a step event;
    beyond the last breakpoint the value holds. An empty list means no aging.
    """

    delta_pkg: Breakpoints = ()
    delta_vth: Breakpoints = ()
    delta_vsd: Breakpoints = ()

    def __post_init__(self):
        for name in ("delta_pkg", "delta_vth", "delta_vsd"):
            pts = list(getattr(self, name))
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x1 < x0:
                    raise ValueError(f"{name}: breakpoint cycles must be nondecreasing")
                if y1 < y0:
                    raise ValueError(f"{name}: values must be nondecreasing")
            if pts and pts[0][1] < 0:
                raise ValueError(f"{name}: values must be nonnegative")
            setattr(self, name, tuple((float(x), float(y)) for x, y in pts))


def _piecewise(points: Breakpoints, x: float) -> float:
    if not points:
        return 0.0
    xs = [p[0] for p in points]
    k = bisect_right(xs, x)
    if k == 0:
        return points[0][1]
    if k == len(points):
        return points[-1][1]
    x0, y0 = points[k - 1]
    x1, y1 = points[k]
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# ---------------------------------------------------------------------------
# Vectorized device bank
# ---------------------------------------------------------------------------

class DeviceBank:
    """All twelve switches evaluated together with per-device aging state.

    Conduction drops come from the conduction law with each device's
    temperature and aging deltas; conduction is the bench's one entry to
    it. It evaluates the law's temperature half once per device in the row
    form, then the drops with one path per shape: the row form for one
    current per device, the array form for a (12, g) grid.
    """

    def __init__(self, params: DeviceParams, ambient: float):
        self.params = params
        self.n = N_DEVICES
        # the aging deltas are the rows of one array, which the law reads
        # with one tolist
        self._deltas = np.zeros((3, self.n))
        self.delta_pkg, self.delta_vth, self.delta_vsd = self._deltas
        self.t_j = np.full(self.n, ambient)
        self.r_th_factor = np.ones(self.n)
        self.shorted = np.zeros(self.n, dtype=bool)
        self.desat_fault_v = 40.0  # desaturated drop used for injected shorts, V
        # counts the changes of r_th_factor, which key the thermal step's
        # coefficients
        self.r_th_version = 0

    def conduction(self, cur, out: Optional[np.ndarray] = None) -> tuple:
        """Signed conduction drops, with the channel held on (synchronous
        rectification across both bridges); an injected short reads the
        desaturated drop in its row.

        cur is one current per device, a list of twelve Python floats, or
        the current half of a (12, g) grid (conduction_current).
        Returns (v, r_t): the drops and the temperature half of R evaluated
        once per device, so that the on-resistance of row k at current i is
        r_t[k] + current_slope(i). For one current per device both are
        lists of Python floats (conduction_rows); for a grid, v is
        (12, g), written to out when one is given, and r_t (12, 1).

        A grid with no zero current whose every row's channel conducts
        alone, checked in the row form against the row's largest reverse
        magnitude and slope that the grid binds, takes the channel-alone
        path, i * (r_t + slope); any other grid takes the masked law
        (conduction_from_halves). Both give the law's bits.
        """
        grid = isinstance(cur, ConductionCurrent)
        if grid and cur.mag.ndim != 2:
            raise ValueError("the array path takes a (12, g) grid; pass one "
                             "current per device as a list of floats")
        p = self.params
        r_t, knee = temperature_rows(p, self.t_j, *self._deltas.tolist())
        if grid:
            # a row's channel conducts alone when its largest reverse
            # magnitude times the resistance at its largest reverse slope
            # is at most a knee of at least 0: rounding is monotone, so no
            # reverse drop of the row passes the knee. The drops are then
            # i * (r_t + slope), the masked law's bits, as rounding is
            # sign-symmetric and the law's multiply by +-1 exact
            alone = cur.zero is None and all(
                m * (r + s) <= k and k >= 0.0 for m, s, r, k in zip(
                    cur.rev_mag, cur.rev_slope, r_t, knee))
            # reshape, not [:, None], whose zero stride slows the
            # broadcasts that read these columns
            r_t = np.array(r_t).reshape(-1, 1)
            if alone:
                v = np.multiply(cur.i, np.add(r_t, cur.slope, out), out)
            else:
                v = conduction_from_halves(
                    p, cur, r_t, np.array(knee).reshape(-1, 1))
                if out is not None:
                    out[...], v = v, out
            if np.count_nonzero(self.shorted):
                np.copyto(v, self.desat_fault_v, where=self.shorted[:, None])
            return v, r_t
        v = conduction_rows(p, cur, r_t, knee)
        if np.count_nonzero(self.shorted):
            fault = float(self.desat_fault_v)
            for k in np.flatnonzero(self.shorted).tolist():
                v[k] = fault
        return v, r_t

    def apply_trajectories(self, trajectory: AgingTrajectory, r_th_points,
                           cycle: int, device_mask: np.ndarray):
        pkg = _piecewise(trajectory.delta_pkg, cycle)
        vth = _piecewise(trajectory.delta_vth, cycle)
        vsd = _piecewise(trajectory.delta_vsd, cycle)
        rth = 1.0 + _piecewise(tuple(r_th_points), cycle)
        m = device_mask
        self.delta_pkg[m] = np.maximum(self.delta_pkg[m], pkg)
        self.delta_vth[m] = np.maximum(self.delta_vth[m], vth)
        self.delta_vsd[m] = np.maximum(self.delta_vsd[m], vsd)
        r_th = np.maximum(self.r_th_factor[m], rth)
        if (r_th != self.r_th_factor[m]).any():
            self.r_th_factor[m] = r_th
            self.r_th_version += 1


# ---------------------------------------------------------------------------
# Calibration helpers and stock profiles
# ---------------------------------------------------------------------------

def calibrated_params(*, r_total_t0: float, channel_fraction: float,
                      v_th0: float, rho_vth: float, v_gs_on: float,
                      alpha_drift: Optional[float] = None,
                      sensitivity_t0: Optional[float] = None,
                      **kwargs) -> DeviceParams:
    """Build device parameters anchored at a total resistance at t0, the
    DeviceParams reference temperature.

    channel_fraction sets the share of r_total_t0 carried by the channel
    term. Give either alpha_drift directly or a net dR/dT target at t0
    (sensitivity_t0), from which the drift exponent is solved.
    """
    if not 0.0 < channel_fraction < 1.0:
        raise ValueError("channel_fraction must lie in (0, 1)")
    if (alpha_drift is None) == (sensitivity_t0 is None):
        raise ValueError("give exactly one of alpha_drift or sensitivity_t0")
    overdrive0 = v_gs_on - v_th0
    if overdrive0 <= 0:
        raise ValueError("gate drive must exceed the threshold")
    k_ch = channel_fraction * r_total_t0 * overdrive0
    r_drift0 = (1.0 - channel_fraction) * r_total_t0
    if alpha_drift is None:
        channel_slope = k_ch * rho_vth / overdrive0 ** 2  # negative
        alpha_drift = (sensitivity_t0 - channel_slope) \
            * (DeviceParams.t0 + KELVIN) / r_drift0
        if alpha_drift <= 0:
            raise ValueError("requested sensitivity is unreachable with this split")
    return DeviceParams(r_drift0=r_drift0, k_ch=k_ch, v_th0=v_th0,
                        rho_vth=rho_vth, alpha_drift=alpha_drift,
                        gate_on_v=v_gs_on, **kwargs)


def module_400a() -> DeviceParams:
    """Default 400 A half-bridge module profile.

    Anchored so the fresh on-state drop at nominal current and 25 degC is
    1.58 V (3.95 mohm at 400 A) with a 15 V gate.
    """
    return calibrated_params(
        r_total_t0=3.95e-3, channel_fraction=0.45,
        v_th0=2.7, rho_vth=-6.4e-3, v_gs_on=15.0, alpha_drift=1.3,
        v_j0=2.8, rho_sd_lo=-2.65e-3, rho_sd_hi=-4.8e-3, r_diode=4.0e-3,
        e_on0=2.5e-3, e_off0=2.0e-3, v_ref=800.0, i_ref=400.0,
        i_nominal=400.0, r_i_slope=5e-7,
    )


def vendor_a() -> DeviceParams:
    """Discrete-device profile with a 2.4 mohm/degC net sensitivity at 25 degC."""
    return calibrated_params(
        r_total_t0=250e-3, channel_fraction=0.3,
        v_th0=2.7, rho_vth=-6.4e-3, v_gs_on=15.0, sensitivity_t0=2.4e-3,
        v_j0=3.0, rho_sd_lo=-2.65e-3, rho_sd_hi=-4.8e-3, r_diode=40e-3,
        e_on0=150e-6, e_off0=100e-6, v_ref=800.0, i_ref=20.0,
        i_nominal=20.0,
    )


def vendor_b() -> DeviceParams:
    """Discrete-device profile with a 1.6 mohm/degC net sensitivity at 25 degC."""
    return calibrated_params(
        r_total_t0=160e-3, channel_fraction=0.3,
        v_th0=2.9, rho_vth=-3.1e-3, v_gs_on=15.0, sensitivity_t0=1.6e-3,
        v_j0=3.0, rho_sd_lo=-2.65e-3, rho_sd_hi=-4.8e-3, r_diode=40e-3,
        e_on0=150e-6, e_off0=100e-6, v_ref=800.0, i_ref=20.0,
        i_nominal=20.0,
    )


PROFILES = {"module_400a": module_400a, "vendor_a": vendor_a, "vendor_b": vendor_b}


def delta_vth_for_vds_shift(params: DeviceParams, dv_ds: float) -> float:
    """Threshold shift that raises the on-state drop at nominal current by
    dv_ds, at the gate drive and the reference temperature.

    Inverts the channel law in closed form:
      delta = ov^2 * dR / (k_ch + ov * dR),  dR = dv_ds / i_nominal,
    with ov = gate_on_v - v_th0.
    """
    ov = params.gate_on_v - params.v_th0
    d_r = dv_ds / params.i_nominal
    if params.k_ch <= 0:
        raise ValueError("profile has no channel term to shift")
    return ov * ov * d_r / (params.k_ch + ov * d_r)


def gate_oxide_trajectory(params: DeviceParams, cycles_eol: float
                          ) -> AgingTrajectory:
    """Default oxide schedule: gradual drift with a late knee, calibrated so
    the on-state drop at nominal current moves from the paper's fresh
    1.58 V to its aged 2.6 V at end of life."""
    d_eol = delta_vth_for_vds_shift(params, 2.6 - 1.58)
    return AgingTrajectory(delta_vth=(
        (0.0, 0.0),
        (0.7 * cycles_eol, 0.3 * d_eol),
        (cycles_eol, d_eol),
    ))


def vgs_at_channel_current(p: DeviceParams, i: float, t_j: float,
                           delta_vth: float) -> float:
    """Gate voltage sustaining drain current i in a diode-connected device
    whose threshold has shifted by delta_vth.

    Square-law saturation: i = k_sat/2 * (v_gs - v_th)^2.
    """
    if i <= 0:
        raise ValueError("current must be positive")
    return threshold_voltage(p, t_j, delta_vth) + math.sqrt(2.0 * i / p.k_sat)
