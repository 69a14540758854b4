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

The bench stores a block of steps at once: sweep_slots finds every step's
slot run in each trigger set with one search, store_events applies the
budget, the filled-slot skip and the window completion to one device's
events on Python ints (the one implementation of the store rule;
store_block runs it device by device), and write_block writes each
window's readings with one index.
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


def sweep_slots(sets: Sequence[TriggerSet], theta: np.ndarray) -> tuple:
    """The slots of each trigger set that each sweep between consecutive
    angles of theta crossed: (lo, end), each (sets, len(theta) - 1). The
    sweep from theta[i] to theta[i + 1] crossed slots lo to end - 1 of an
    n-slot set, on past slot n - 1 to slot end - n - 1 when it wraps
    through 0 rad, and some slot if end > lo.

    triggers_in_interval's slots, in its order, and its predicate, an
    empty sweep included: the angles wrap as wrap_angle wraps them, and
    searchsorted (side="right") splits them where bisect_right does.
    """
    w = np.remainder(theta, TWO_PI)
    pos = np.array([np.searchsorted(s.angles, w, side="right") for s in sets])
    n = np.array([[s.n] for s in sets])
    return pos[:, :-1], pos[:, 1:] + n * (w[1:] < w[:-1])


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


def store_events(s: SamplerState, lo: Sequence[int], end: Sequence[int],
                 at_cycle: Sequence[int], cycle: int = 0, end_cycle: int = 0,
                 first: int = 0) -> tuple:
    """Store one device's events in arrival order: the one implementation
    of the store rule, on Python ints.

    Event j, numbered from first, may fill the slots its sweep crossed,
    lo[j] to end[j] - 1 in that order, on past the last slot n - 1 to slot
    end[j] - n - 1 when the sweep wraps (sweep_slots). at_cycle[j] is the
    fundamental cycle it arrives in, cycle the one before the first event
    and end_cycle the one after the last; the budget refills at each new
    cycle. An event with budget left takes its reading and stores it into
    the empty slots it crossed, in order, until the budget is spent. A
    window that an event completes stays complete until the device's next
    event, which starts the next window; the caller reads and resets the
    last one.

    Returns (skipped, runs, ends, done): the events that found no budget;
    the stored runs, flat as (start, length, event) triples; the count of
    slots stored by each window's end; and (event, cycles in which the
    window stored a slot) of each window completed, the first len(done).
    """
    n, budget = s.triggers.n, s.budget_per_cycle
    mask = bytearray(s.filled_mask.tobytes())
    filled, cycles, used = s.filled, s.cycles_elapsed, s.budget_used
    skipped, runs, ends, done = [], [], [], []
    total, complete = 0, False
    for j, (a, b, ep) in enumerate(zip(lo, end, at_cycle), first):
        if complete:  # the last event completed a window: start the next
            ends.append(total)
            mask = bytearray(n)
            filled = cycles = used = 0
            complete = False
        if ep != cycle:
            cycle, used = ep, 0
        room = budget - used
        if room <= 0:
            skipped.append(j)
            continue
        stored = b - a
        if b <= n and stored <= room and mask.find(1, a, b) < 0:
            # an empty run that fits the budget: all of it
            mask[a:b] = b"\x01" * stored
            runs += a, stored, j
        else:
            stored = 0
            while stored < room and a < b:
                if a == n:  # on past the last slot, from slot 0
                    a, b = 0, b - n
                    continue
                a = mask.find(0, a, min(b, n))  # the next empty slot
                if a < 0:
                    a = n
                    continue
                stop = min(b, n, a + room - stored)
                e = mask.find(1, a, stop)
                e = stop if e < 0 else e
                mask[a:e] = b"\x01" * (e - a)
                runs += a, e - a, j
                stored += e - a
                a = e
        if stored:
            total += stored
            if not used:  # the window's first store in this cycle
                cycles += 1
            used += stored
            filled += stored
            if filled == n:
                complete = True
                done.append((j, cycles))
    ends.append(total)
    if runs:
        s.filled_mask[:] = np.frombuffer(mask, dtype=bool)
    s.filled, s.cycles_elapsed, s.budget_used = filled, cycles, used
    if end_cycle != cycle:  # a cycle begins after the last event
        s.start_cycle()
    return skipped, runs, ends, done


def store_block(samplers: Sequence[SamplerState], dev: np.ndarray,
                lo: list, end: list, at_cycle: list, cycle: int,
                end_cycle: int) -> tuple:
    """store_events for every device of a block in turn: the events come
    device by device, dev[j] the device of event j, and lo, end and
    at_cycle hold them all as store_events takes them.

    Returns (skipped, runs, plans): the events that found no budget, every
    device's stored runs in turn, flat as (start, length, event) triples,
    and per device (ends, done): the count of slots that the runs of this
    and earlier devices stored by each of its windows' ends, and
    store_events' done.
    """
    skipped, runs, plans = [], [], []
    j = base = 0
    for s, count in zip(samplers, np.bincount(
            dev, minlength=len(samplers)).tolist()):
        e = slice(j, j + count)
        skip, stored, ends, done = store_events(
            s, lo[e], end[e], at_cycle[e], cycle, end_cycle, j)
        plans.append(([base + x for x in ends], done))
        skipped += skip
        runs += stored
        base += ends[-1]
        j += count
    return skipped, runs, plans


def write_block(samplers: Sequence[SamplerState], runs: list, plans: list,
                readings: np.ndarray):
    """Write store_block's runs into each device's slots, window by window:
    readings[:, j] holds event j's reading, current and true ratio.

    Yields (device, event, cycles) of each window completed, device by
    device, while the device's slots hold it; a device's complete last
    window is reset after it.
    """
    a, m, q = np.array(runs, dtype=int).reshape(-1, 3).T
    slots = np.repeat(a - np.cumsum(m) + m, m) + np.arange(m.sum())
    v_on, i, truth = np.repeat(readings[:, q], m, axis=1)
    j = 0
    for k, (s, (ends, done)) in enumerate(zip(samplers, plans)):
        for w, stop in enumerate(ends):
            if stop > j:
                idx = slots[j:stop]
                s.v_on[idx], s.i[idx], s.truth[idx] = \
                    v_on[j:stop], i[j:stop], truth[j:stop]
            j = stop
            if w < len(done):
                yield (k, *done[w])
        if s.complete:
            s.reset_window()


def sampler_update_interval(s: SamplerState, theta_prev: float,
                            theta_now: float, v_on: float,
                            i_meas: float) -> int:
    """Capture for every trigger crossed during the last angle step.

    All crossed slots receive the same synchronized (v_on, i_meas) pair,
    which keeps their ratio an on-resistance sample taken at a single
    instant; their true ratio is unknown (NaN). One event of store_events,
    which stores the bench's readings a block at a time. Returns the
    number of slots stored.
    """
    (lo,), (end,) = sweep_slots([s.triggers], np.array([theta_prev,
                                                        theta_now]))
    runs = store_events(s, lo.tolist(), end.tolist(), [0])[1]
    slots = [k for a, m in zip(runs[::3], runs[1::3]) for k in range(a, a + m)]
    s.v_on[slots] = v_on
    s.i[slots] = i_meas
    s.truth[slots] = math.nan
    return len(slots)


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
        # the current axis as Python floats and the grid's columns as rows,
        # for column's scalar search
        self._i_list = self.i_axis.tolist()
        self._grid_cols = self.grid.T.copy()

    def column(self, i_d: float) -> np.ndarray:
        """Corrected R(T) profile at drain current i_d (linear across the
        current axis, clamped at the grid edges)."""
        ax, cols = self._i_list, self._grid_cols
        i_c = min(max(i_d, ax[0]), ax[-1])  # NaN stays NaN, as np.clip
        j = min(max(bisect_right(ax, i_c) - 1, 0), len(ax) - 2)
        w = (i_c - ax[j]) / (ax[j + 1] - ax[j])
        return cols[j] * (1.0 - w) + cols[j + 1] * w + self._oxide + self._pkg

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

