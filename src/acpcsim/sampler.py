"""Out-of-order equivalent-time sampling of on-state voltage and current,
FIR smoothing, online on-resistance estimation, and lookup-table junction
temperature inversion with start-of-test recalibration.

A trigger set pins N electrical angles around the current peak. Samples
arriving in any order land in their angle slot; a per-fundamental-cycle
capture budget models the low-priority acquisition task, so a window
completes in ceil(N / budget) cycles. A slot stores only a current above
the capture floor, so a completed window's estimate is the FIR product of
its slot ratios v/i over the filter window around its center slot
(estimate_ron, fir_window), which invert_column turns into a junction
temperature on the R(T, I) table's column at the center current.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import device as dev_mod
from .core import TWO_PI, ConfigError, wrap_angle


class AmbientMismatch(RuntimeError):
    """Recalibration measurement fell below the fresh table."""


# ---------------------------------------------------------------------------
# Trigger angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriggerSet:
    """Sorted target angles (radians, wrapped to [0, 2pi)) and the index of
    the slot nearest the window center."""

    angles: np.ndarray
    center_index: int

    @property
    def n(self) -> int:
        return len(self.angles)

    @cached_property
    def angle_list(self) -> list:
        """angles as a list of Python floats, for bisect."""
        return self.angles.tolist()


def build_trigger_set(theta_peak: float, n: int, window: float) -> TriggerSet:
    """n uniformly spaced trigger angles spanning [peak - window, peak + window]."""
    if n < 1:
        raise ValueError("need at least one trigger")
    if not 0.0 < window <= math.pi / 2:
        raise ValueError("window must lie in (0, pi/2]")
    if n == 1:
        raw = np.array([theta_peak])
    else:
        raw = np.linspace(theta_peak - window, theta_peak + window, n)
    angles = np.sort(raw % TWO_PI)
    center = wrap_angle(theta_peak)
    dists = np.abs(angles - center)
    dists = np.minimum(dists, TWO_PI - dists)
    return TriggerSet(angles=angles, center_index=int(dists.argmin()))


def triggers_in_interval(tset: TriggerSet, theta_from: float, theta_to: float
                         ) -> Sequence[int]:
    """Indices of all triggers crossed while the angle swept (from, to]:
    a range, or a list when the sweep wraps through 0 rad.

    Used by the stepped simulation where the control-rate angle grid is far
    coarser than the trigger spacing, so a capture fires whenever the
    accumulated angle passes a trigger. bisect_right splits the angles where
    np.searchsorted(side="right") does.
    """
    a = tset.angle_list
    t0 = wrap_angle(theta_from)
    t1 = wrap_angle(theta_to)
    if t1 == t0:
        return range(0)
    lo = bisect_right(a, t0)
    hi = bisect_right(a, t1)
    if t1 > t0:
        return range(lo, hi)
    # wrapped sweep: (t0, 2pi) then [0, t1]
    return [*range(lo, len(a)), *range(hi)]


class TriggerIndex:
    """The angles of several trigger sets merged into one sorted list, so a
    single search finds every set that a sweep crossed."""

    def __init__(self, sets: Sequence[TriggerSet]):
        angles = np.concatenate([s.angles for s in sets])
        owner = np.repeat(np.arange(len(sets)), [s.n for s in sets])
        order = np.argsort(angles, kind="stable")
        self.angle_array = angles[order]
        self.angles = self.angle_array.tolist()
        self.owner = owner[order].tolist()

    def crossed(self, theta_from: float, theta_to: float) -> list[int]:
        """Ascending indices of the sets for which triggers_in_interval over
        the same sweep is non-empty.

        bisect_right splits the list where searchsorted(side="right") does,
        so the predicate, the wrapped case and an empty sweep included, is
        triggers_in_interval's.
        """
        t0 = wrap_angle(theta_from)
        t1 = wrap_angle(theta_to)
        if t1 == t0:
            return []
        lo = bisect_right(self.angles, t0)
        hi = bisect_right(self.angles, t1)
        if t1 > t0:
            hit = self.owner[lo:hi]
        else:
            hit = self.owner[lo:] + self.owner[:hi]
        return sorted(set(hit))


# ---------------------------------------------------------------------------
# Capture state
# ---------------------------------------------------------------------------

@dataclass
class SamplerState:
    """Slot array for one device, filled out of order under a cycle budget:
    any empty slot a sweep crosses is stored, in arrival order, until the
    cycle's budget is spent."""

    triggers: TriggerSet
    budget_per_cycle: int = 5
    v_on: np.ndarray = field(init=False)
    i: np.ndarray = field(init=False)
    truth: np.ndarray = field(init=False)
    filled_mask: np.ndarray = field(init=False)
    filled: int = 0
    cycles_elapsed: int = 0  # cycles in which this window stored a slot
    budget_used: int = 0

    def __post_init__(self):
        n = self.triggers.n
        self.v_on = np.zeros(n)
        self.i = np.zeros(n)
        self.truth = np.full(n, np.nan)
        self.filled_mask = np.zeros(n, dtype=bool)

    @property
    def complete(self) -> bool:
        return self.filled == self.triggers.n

    def start_cycle(self):
        self.budget_used = 0

    def reset_window(self):
        self.filled_mask[:] = False
        self.filled = 0
        self.cycles_elapsed = 0
        self.budget_used = 0


def store_slots(s: SamplerState, idx, v_on: float, i_meas: float,
                truth: float) -> int:
    """Store one reading into the distinct slots idx, taken in arrival order.

    Filled slots are skipped, and the rest of the cycle budget caps the
    count. Returns the number of slots stored.
    """
    room = s.budget_per_cycle - s.budget_used
    if (type(idx) is range and idx.step == 1 and len(idx) <= room
            and not any(s.filled_mask[idx.start:idx.stop].tolist())):
        # a contiguous run of empty slots that fits the budget: all stored
        n = len(idx)
        idx = slice(idx.start, idx.stop)
    else:
        idx = np.asarray(idx, dtype=int)
        if len(idx) > room or s.filled_mask[idx].nonzero()[0].size:
            # drop what may not be stored
            idx = idx[~s.filled_mask[idx]][:max(room, 0)]
        n = len(idx)
    s.v_on[idx] = v_on
    s.i[idx] = i_meas
    s.truth[idx] = truth
    s.filled_mask[idx] = True
    s.filled += n
    if n and not s.budget_used:  # the window's first store in this cycle
        s.cycles_elapsed += 1
    s.budget_used += n
    return n


def sampler_update_interval(s: SamplerState, theta_prev: float,
                            theta_now: float, v_on: float, i_meas: float,
                            truth: float = math.nan) -> int:
    """Capture for every trigger crossed during the last angle step.

    All crossed slots receive the same synchronized (v_on, i_meas) pair,
    which keeps their ratio an on-resistance sample taken at a single
    instant. Returns the number of slots stored.
    """
    return store_slots(s, triggers_in_interval(s.triggers, theta_prev, theta_now),
                       v_on, i_meas, truth)


# ---------------------------------------------------------------------------
# FIR filtering
# ---------------------------------------------------------------------------

def default_fir_taps(n_taps: int = 31, cutoff: float = 0.1) -> np.ndarray:
    """Hamming-windowed low pass, normalized to exactly unity DC gain.

    The design is scipy.signal.firwin(n_taps, cutoff) bit for bit, its
    lowpass Hamming design scaled to unity DC gain, renormalized by its own
    sum. cutoff is a fraction of the Nyquist frequency."""
    if not n_taps >= 1:
        raise ValueError(f"a filter needs at least 1 tap, got {n_taps}")
    if not 0.0 < cutoff < 1.0:  # NaN too
        raise ValueError(f"the cutoff must lie in (0, 1) of the Nyquist "
                         f"frequency, got {cutoff}")
    # firwin's operations in its order, less its exact no-ops for a band
    # whose left edge is 0: subtracting 0 * sinc(0 * m), adding the window's
    # first term to zeros, and the unit cos(pi * m * 0) of the DC scale
    m = np.arange(n_taps, dtype=float) - 0.5 * (n_taps - 1)
    h = cutoff * np.sinc(cutoff * m)
    if n_taps > 1:  # a one-point window is 1
        h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, n_taps))
    h /= h.sum()
    return h / h.sum()


def fir_filter(raw: Sequence[float], taps: Sequence[float]) -> np.ndarray:
    """Zero-phase smoothing: linear convolution with symmetric edge padding.

    Requires symmetric taps summing to one, so constants pass unchanged and
    symmetric inputs incur no phase shift.
    """
    taps = np.asarray(taps, dtype=float)
    if len(taps) % 2 == 0:
        raise ValueError("taps length must be odd")
    if abs(taps.sum() - 1.0) > 1e-9:
        raise ValueError("taps must sum to 1")
    if not np.allclose(taps, taps[::-1], rtol=0, atol=1e-12):
        raise ValueError("taps must be symmetric")
    x = np.asarray(raw, dtype=float)
    half = len(taps) // 2
    if len(x) == 0:
        return x.copy()
    padded = np.pad(x, half, mode="symmetric")
    return np.convolve(padded, taps, mode="valid")


def fir_window(center, n: int, n_taps: int) -> np.ndarray:
    """Slots of the n_taps-long filter window around center in an n-slot
    array: the indices fir_filter's symmetric edge padding reads for the
    output at center (n_taps // 2 <= n). An array of centers gives one row
    per center."""
    half = n_taps // 2
    idx = np.asarray(center)[..., None] + np.arange(-half, half + 1)
    idx = np.where(idx < 0, -idx - 1, idx)
    return np.where(idx >= n, 2 * n - idx - 1, idx)


def estimate_ron(v_win: np.ndarray, i_win: np.ndarray,
                 taps: np.ndarray) -> np.ndarray:
    """Filtered on-resistance at each window center: the FIR product of the
    slot ratios v/i over the center's filter window, one window per row of
    the readings v_win and currents i_win (each slot above the floor)."""
    return (v_win / i_win) @ taps


# ---------------------------------------------------------------------------
# R_on(T_j, I_d) lookup table
# ---------------------------------------------------------------------------

class TjEstimate(NamedTuple):
    t_j: float
    out_of_grid: bool


# the scenario keys that set R(T)'s temperature slope on the table's axis:
# the drift term's rise against the channel term's fall
_R_T_SLOPE_KEYS = ("device.profile, device.r_drift0, device.alpha_drift, "
                  "device.t0, device.k_ch, device.v_th0, device.rho_vth, "
                  "device.gate_on_v, lut.t_axis")


@dataclass
class RonLut:
    """Rectangular R(T, I) grid with recalibration corrections.

    The grid holds the fresh characterization. Recalibration splits the
    measured ambient shift into a gate-oxide part (predicted from the
    threshold shift through the channel law and applied exactly over
    temperature) and a package remainder (applied with the drift-term
    temperature profile so a resistance step scales the way the drift term
    does).
    """

    t_axis: np.ndarray
    i_axis: np.ndarray
    grid: np.ndarray                       # (len(t_axis), len(i_axis)), fresh
    drift_profile: np.ndarray              # fresh drift component over t_axis
    channel: dev_mod.DeviceParams          # the characterized device
    offset: float = 0.0                    # total measured ambient shift, ohm
    offset_pkg: float = 0.0
    delta_vth_hat: float = 0.0
    t_cal: float = 25.0

    def __post_init__(self):
        self.t_axis = np.asarray(self.t_axis, dtype=float)
        self.i_axis = np.asarray(self.i_axis, dtype=float)
        self.grid = np.asarray(self.grid, dtype=float)
        for name in ("t_axis", "i_axis"):
            if len(getattr(self, name)) < 2:
                raise ConfigError(f"lut.{name}",
                                  "the table needs at least two points")
        if self.grid.shape != (len(self.t_axis), len(self.i_axis)):
            raise ValueError("grid shape must match the axes")
        if np.any(np.diff(self.t_axis) <= 0) or np.any(np.diff(self.i_axis) <= 0):
            raise ValueError("axes must be strictly increasing")
        if np.any(np.diff(self.grid, axis=0) <= 0):
            # the inversion needs R(T) rising at every current on the axis
            raise ConfigError(
                _R_T_SLOPE_KEYS, "R must increase along the temperature axis")
        # the two recalibration corrections over t_axis, which column adds
        t, ch = self.t_axis, self.channel
        self._oxide = dev_mod.channel_shift(ch, t, ch.gate_on_v,
                                            self.delta_vth_hat)
        ref = float(np.interp(self.t_cal, t, self.drift_profile))
        self._pkg = self.offset_pkg * (np.interp(t, t, self.drift_profile)
                                       / ref)

    def column(self, i_d: float) -> np.ndarray:
        """Corrected R(T) profile at drain current i_d (linear across the
        current axis, clamped at the grid edges)."""
        i_c = float(np.clip(i_d, self.i_axis[0], self.i_axis[-1]))
        j = int(np.searchsorted(self.i_axis, i_c, side="right")) - 1
        j = min(max(j, 0), len(self.i_axis) - 2)
        w = (i_c - self.i_axis[j]) / (self.i_axis[j + 1] - self.i_axis[j])
        base = self.grid[:, j] * (1.0 - w) + self.grid[:, j + 1] * w
        return base + self._oxide + self._pkg

    def value(self, t_j: float, i_d: float) -> float:
        col = self.column(i_d)
        return float(np.interp(t_j, self.t_axis, col))


LUT_T_AXIS = tuple(range(25, 176, 25))  # degC
LUT_I_AXIS = tuple(range(50, 401, 50))  # A
# the share of the fresh table value by which an ambient measurement may
# fall below it (recalibrate_lut)
AMBIENT_TOLERANCE = 0.02


def build_ron_lut(params: dev_mod.DeviceParams,
                  t_axis: Sequence[float] = LUT_T_AXIS,
                  i_axis: Sequence[float] = LUT_I_AXIS) -> RonLut:
    """Characterize a fresh device over the grid at its gate drive
    (self-consistent oracle).

    Refuses a temperature axis on which the threshold reaches the gate
    drive, closing the channel.
    """
    v_gs = params.gate_on_v
    t = np.asarray(t_axis, dtype=float)
    i = np.asarray(i_axis, dtype=float)
    v_th = dev_mod.threshold_voltage(params, t)
    if np.any(v_th >= v_gs):
        k = int(np.argmax(v_th))
        raise ConfigError(
            "lut.t_axis", f"the threshold reaches {v_th[k]:.3g} V at "
            f"{t[k]:g} degC, closing the channel of a {v_gs:g} V gate")
    # one temperature at a time, so the law's ** stays a scalar power (the
    # broadcast one can differ in the last bit); the currents broadcast
    grid = np.array([dev_mod.on_resistance(params, tj, i, v_gs) for tj in t])
    drift = dev_mod.drift_resistance(params, t)
    return RonLut(t_axis=t, i_axis=i, grid=grid, drift_profile=drift,
                  channel=params)


def invert_column(r: float, col: Sequence[float],
                  t_axis: Sequence[float]) -> float:
    """Temperature at resistance r on a strictly increasing R(T) column.

    This is np.interp(r, col, t_axis) for one point, bit for bit: the same
    search, clamps and arithmetic in the same order, on Python floats,
    without the cost of an array call. Below the column it returns
    t_axis[0], above it t_axis[-1], on a knot that knot's temperature, and
    NaN for NaN.
    """
    if r != r:
        return r
    j = bisect_right(col, r) - 1
    if j < 0:
        return t_axis[0]
    if j >= len(col) - 1:
        return t_axis[-1]
    c = col[j]
    if r == c:
        return t_axis[j]
    t = t_axis[j]
    return (t_axis[j + 1] - t) / (col[j + 1] - c) * (r - c) + t


def estimate_tj(r_on: float, i_d: float, lut: RonLut) -> TjEstimate:
    """Invert the monotone R(T) profile at the given current.

    Values outside the table are clamped to the nearest grid edge and
    flagged rather than extrapolated.
    """
    col = lut.column(i_d)
    out = (r_on < col[0] - 1e-15) or (r_on > col[-1] + 1e-15) \
        or not (lut.i_axis[0] <= i_d <= lut.i_axis[-1])
    t = invert_column(float(r_on), col.tolist(), lut.t_axis.tolist())
    return TjEstimate(t_j=t, out_of_grid=bool(out))


def recalibrate_lut(lut: RonLut, r_on_measured_ambient: float, t_ambient: float,
                    i_cal: float, delta_vth: float) -> RonLut:
    """Shift the table to the start-of-test ambient measurement.

    The total offset is the measured resistance minus the fresh table value
    at (t_ambient, i_cal); the part explained by the threshold shift is
    booked to the gate oxide, the remainder to the package. A measurement
    below the fresh table by more than AMBIENT_TOLERANCE of it means the
    devices were not at ambient.
    """
    base = RonLut(t_axis=lut.t_axis, i_axis=lut.i_axis, grid=lut.grid,
                  drift_profile=lut.drift_profile, channel=lut.channel)
    fresh_val = base.value(t_ambient, i_cal)
    offset = r_on_measured_ambient - fresh_val
    if offset < -AMBIENT_TOLERANCE * fresh_val:
        raise AmbientMismatch(
            f"measured {r_on_measured_ambient:.4g} ohm is below the fresh "
            f"table value {fresh_val:.4g} ohm")
    ch = lut.channel
    oxide_at_cal = dev_mod.channel_shift(ch, t_ambient, ch.gate_on_v, delta_vth) \
        if delta_vth > 0 else 0.0
    return RonLut(t_axis=lut.t_axis, i_axis=lut.i_axis, grid=lut.grid,
                  drift_profile=lut.drift_profile, channel=ch,
                  offset=offset, offset_pkg=offset - oxide_at_cal,
                  delta_vth_hat=delta_vth, t_cal=t_ambient)

