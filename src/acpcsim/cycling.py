"""Thermal-cycle orchestration: the dual-inverter bench loop, the three
power-cycling techniques, start-of-test measurements with lookup-table and
protection-threshold recalibration, per-cycle precursor records, warning
evaluation, and the energy-circulation audit.

Twelve switches are simulated (two bridges, three legs each, upper/lower).
The test bridge runs open loop, the load bridge closes the current loops,
and per-phase RL links circulate the power, so the supply only covers
losses. Three stepping engines share the same device/thermal/sensing
models: switched (sub-PWM pole voltages), averaged (one step per PWM
period), and envelope (one step per fundamental period with the
quasi-static electrical solution) for multi-thousand-cycle campaigns.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import device as dev_mod
from . import sampler as smp
from . import sense as sns
from . import thermal as th
from .core import (SWITCHED_SUBSTEPS, TWO_PI, BenchConfig, ConfigError,
                   Fidelity, Technique, validate_scenario, wrap_angle)
from .device import (N_DEVICES, AgingTrajectory, DeviceBank, DeviceParams,
                     _piecewise)
from .electrical import (PlantState, PlantStepResult, control_step,
                         dq_phase_deg, inverse_park, inverse_park_phase,
                         make_controller, park, plant_step, svpwm_duties)

_SQRT3 = math.sqrt(3.0)

DEVICE_IDS = tuple(
    f"{inv}_{ph}_{pos}"
    for inv in ("test", "load") for ph in ("a", "b", "c") for pos in ("hi", "lo")
)
T_J_ENVELOPE_MAX = 200.0  # degC simulation envelope
# a start-up after cycle 0 idles until every junction is this close to the
# ambient, or for at most the cap
COOL_TO_AMBIENT_TOL = 0.75  # degC
COOL_TO_AMBIENT_CAP_S = 900.0
# every phase advances in blocks of steps (TestBench._phase, through
# _step_idle, _step_envelope and _step_conducting): the first of a phase as
# long as the last phase of its kind, a converter-off phase's a quarter
# longer, then blocks doubling from the kind's small one. A junction-swing
# heat phase with no last length begun as it was (at the ambient or not)
# sizes its blocks after the first from the hottest test estimate's rise per
# step, over up to _RISE_STEPS steps, toward t_j_max. Each block is sized so
# that its arrays stay under about a megabyte.
_IDLE_BLOCK_MIN = 8
_HEAT_BLOCK_MIN = 2
_RISE_STEPS = 3
_BLOCK_BYTES = 1 << 20
# the envelope heat step's angle grid over one fundamental period
_GRID_ANGLES = 32
_DEVICE_ROWS = np.arange(N_DEVICES)[:, None]
# the averaged engine keeps every this many steps' waveform row
_WAVEFORM_STRIDE = 8

# Device k sits on bridge leg _LEG[k] (test a, b, c, then load a, b, c) and
# carries _SIGN[k] times its phase's link current: the test upper switches
# source the link current, the load upper switches sink it. Upper switches
# conduct for the leg duty d and lower ones for 1 - d, which is
# d * _UPPER + _LOWER exactly (negation is exact).
_LEG = np.repeat(np.arange(6), 2)
_PHASE = _LEG % 3
_SIGN = np.array([1.0, -1.0] * 3 + [-1.0, 1.0] * 3)
_UPPER = np.array([1.0, -1.0] * 6)
_LOWER = np.array([0.0, 1.0] * 6)

PACKAGE_WARNING = "package"
GATE_OXIDE_WARNING = "gate_oxide"
BODY_DIODE_WARNING = "body_diode"

# sub-step edges of one PWM period in the switched engine, as period fractions
_SUB_EDGES = np.linspace(0.0, 1.0, SWITCHED_SUBSTEPS + 1)
_SUB_LO, _SUB_HI = _SUB_EDGES[:-1, None], _SUB_EDGES[1:, None]
_SUB_WIDTH = _SUB_HI - _SUB_LO


def _device_values(x_a: float, x_b: float, x_c: float) -> list:
    """Each device's share of a per-phase quantity: the phase's value times
    _SIGN, in device order (negation is exact)."""
    return [x_a, -x_a, x_b, -x_b, x_c, -x_c, -x_a, x_a, -x_b, x_b, -x_c, x_c]


def _pole_voltages(d, v_hi, v_lo, v_dc: float) -> tuple:
    """Average pole voltage of each leg over an ON share d of the upper
    switch: v_dc less the upper drop while it conducts, the lower drop
    otherwise; each argument holds the three legs."""
    d_a, d_b, d_c = d
    h_a, h_b, h_c = v_hi
    l_a, l_b, l_c = v_lo
    return (d_a * (v_dc - h_a) + (1.0 - d_a) * l_a,
            d_b * (v_dc - h_b) + (1.0 - d_b) * l_b,
            d_c * (v_dc - h_c) + (1.0 - d_c) * l_c)


def _first(hit: np.ndarray) -> Optional[int]:
    """Index of the first True of a boolean row, None when there is none."""
    i = int(hit.argmax())
    return i if hit[i] else None


def _on_fractions(d) -> list:
    """Share of each switched sub-step that a center-aligned ON window of
    duty d covers, one row of three leg fractions per sub-step."""
    d = np.asarray(d)
    w0, w1 = 0.5 - 0.5 * d, 0.5 + 0.5 * d
    return (np.clip(np.minimum(_SUB_HI, w1) - np.maximum(_SUB_LO, w0),
                    0.0, 1.0) / _SUB_WIDTH).tolist()


class ProtectionTrip(RuntimeError):
    def __init__(self, device_id: str, t: float):
        self.device_id = device_id
        self.t = t
        super().__init__(f"desat trip on {device_id} at t={t:.6f} s")


class ThermalRunaway(RuntimeError):
    pass


def blanking_runs(dt: float, blanking: float) -> float:
    """Smallest run n >= 1 of over-threshold steps of dt with
    n * dt >= blanking, the desaturation trip condition.

    The rounded product n * dt never decreases as n grows, so a run trips
    exactly when it reaches this count. Inf when no run of steps reaches
    the blanking time.
    """
    if not blanking / dt < 2.0 ** 53:
        return math.inf
    n = max(1, math.ceil(blanking / dt))
    while n > 1 and (n - 1) * dt >= blanking:
        n -= 1
    while n * dt < blanking:
        n += 1
    return n


def blanking_angles(dt: float, blanking: float, g: int) -> int:
    """Smallest count c of the g grid angles of an envelope period dt with
    c / g * dt >= blanking (g + 1 when none has): that share never falls as
    c grows, so a device trips exactly when its over-threshold count
    reaches this value."""
    return next((c for c in range(g + 1) if c / g * dt >= blanking), g + 1)


@dataclass
class WarningPolicy:
    r_on_rel_threshold: float = 0.05   # relative on-resistance drift
    v_th_shift_threshold: float = 0.5  # V
    v_sd_shift_threshold: float = 0.1  # V

    def __post_init__(self):
        if min(self.r_on_rel_threshold, self.v_th_shift_threshold,
               self.v_sd_shift_threshold) <= 0:
            raise ValueError("warning thresholds must be positive")


@dataclass
class CycleRecord:
    cycle_index: int
    t_start: float
    r_on_est: np.ndarray   # ohm, last heat-phase estimate per device (nan if none)
    tj_max: np.ndarray     # degC, true, heat phase
    tj_min: np.ndarray     # degC, true, cool phase
    v_th: np.ndarray       # V, start-up measurement (nan when the cycle had none)
    v_sd: np.ndarray       # V, end-of-cool body-diode probe
    t_on_actual: float
    t_off_actual: float
    warnings: tuple = ()

    @property
    def delta_tj(self) -> np.ndarray:
        return self.tj_max - self.tj_min


class WarningTracker:
    """Latching precursor flags against the first usable baseline of each
    precursor: relative on-resistance drift, threshold shift, and body-diode
    shift, O(1) per new record."""

    def __init__(self, policy: WarningPolicy):
        self.policy = policy
        self.flags: set = set()
        self._base = {"r_on": None, "v_th": None, "v_sd": None}

    @staticmethod
    def _exceeds(row, base, limit, relative):
        m = np.isfinite(row) & np.isfinite(base)
        if not m.any():
            return False
        delta = (row[m] - base[m]) / base[m] if relative else row[m] - base[m]
        return float(np.max(delta)) > limit

    def update(self, rec: "CycleRecord") -> set:
        p = self.policy
        for name, row in (("r_on", rec.r_on_est), ("v_th", rec.v_th),
                          ("v_sd", rec.v_sd)):
            if self._base[name] is None and np.isfinite(row).any():
                self._base[name] = row
        if self._base["r_on"] is not None and self._exceeds(
                rec.r_on_est, self._base["r_on"], p.r_on_rel_threshold, True):
            self.flags.add(PACKAGE_WARNING)
        if self._base["v_th"] is not None and self._exceeds(
                rec.v_th, self._base["v_th"], p.v_th_shift_threshold, False):
            self.flags.add(GATE_OXIDE_WARNING)
        if self._base["v_sd"] is not None and self._exceeds(
                rec.v_sd, self._base["v_sd"], p.v_sd_shift_threshold, False):
            self.flags.add(BODY_DIODE_WARNING)
        return self.flags


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------

@dataclass
class EnergyTally:
    e_supply: float = 0.0   # DC-bus energy drawn, J
    e_cond: float = 0.0     # conduction losses, J
    e_sw: float = 0.0       # switching losses, J
    e_link: float = 0.0     # link-resistance losses, J
    e_l_start: float = 0.0  # inductor stored energy at the window edges, J
    e_l_end: float = 0.0
    duration: float = 0.0
    sum_v2: float = 0.0     # test-bridge phase-voltage squares, per sample
    sum_i2: float = 0.0
    samples: int = 0


@dataclass
class EnergyAudit:
    p_supply: float
    p_loss_total: float
    residual_frac: float
    apparent_va: float


def energy_audit(tally: EnergyTally) -> EnergyAudit:
    """Balance the DC-bus energy against modeled losses plus the change in
    stored link energy over the window."""
    if tally.duration <= 0:
        raise ValueError("empty tally")
    e_loss = tally.e_cond + tally.e_sw + tally.e_link
    d_stored = tally.e_l_end - tally.e_l_start
    residual = abs(tally.e_supply - e_loss - d_stored) / max(e_loss, 1e-12)
    v_rms = math.sqrt(tally.sum_v2 / max(tally.samples, 1) / 3.0)
    i_rms = math.sqrt(tally.sum_i2 / max(tally.samples, 1) / 3.0)
    return EnergyAudit(
        p_supply=tally.e_supply / tally.duration,
        p_loss_total=e_loss / tally.duration,
        residual_frac=residual,
        apparent_va=3.0 * v_rms * i_rms,
    )


class _CrossingPredictor:
    """Half-step lookahead on a sampled monotone signal.

    Thresholding a discretely sampled ramp trips on average half a sample
    late; extrapolating half a step ahead centers the crossing error.
    """

    def __init__(self):
        self.prev = None

    def crossed_up(self, value: float, limit: float) -> bool:
        slope = 0.0 if self.prev is None else value - self.prev
        self.prev = value
        return value + 0.5 * max(slope, 0.0) >= limit

    def crossed_down(self, value: float, limit: float) -> bool:
        slope = 0.0 if self.prev is None else value - self.prev
        self.prev = value
        return value + 0.5 * min(slope, 0.0) <= limit


# ---------------------------------------------------------------------------
# Bench settings
# ---------------------------------------------------------------------------

@dataclass
class BenchSettings:
    """Everything a TestBench is built from: the validated bench config and
    the settings of each model, each with one owner. The gate drive is
    device_params.gate_on_v. network holds the junction-side Foster stages
    of every device. cooling holds the cooling settings of both bridges'
    plates, the case-to-reference boundary stage included; the bench runs a
    copy per plate and supplies the config's ambient to both."""

    cfg: BenchConfig
    device_params: DeviceParams = field(default_factory=dev_mod.module_400a)
    sense_params: sns.SenseCircuitParams = field(default_factory=sns.SenseCircuitParams)
    desat: sns.DesatConfig = field(default_factory=sns.DesatConfig)
    desat_calibrated: bool = False   # derive the trip level from the fresh drop
    desat_margin_v: float = 0.5      # headroom above the fresh on-state drop
    network: th.FosterNetwork = field(default_factory=th.default_network)
    cooling: th.CoolingState = field(default_factory=th.CoolingState)
    ntc: th.NtcModel = field(default_factory=th.NtcModel)
    sampler_n: int = 300
    sampler_window: float = math.radians(10.0)
    budget_per_cycle: int = 5
    fir_taps: np.ndarray = field(default_factory=smp.default_fir_taps)
    i_floor: Optional[float] = None  # capture floor, A; default 5 % of i_nominal
    lut_t_axis: tuple = smp.LUT_T_AXIS
    lut_i_axis: tuple = smp.LUT_I_AXIS
    trajectory: AgingTrajectory = field(default_factory=AgingTrajectory)
    r_th_aging: tuple = ()           # breakpoints of first-stage r_th growth
    aging_scope: str = "test"        # "test" or "all"
    policy: WarningPolicy = field(default_factory=WarningPolicy)
    startup_every: int = 100         # 0: only before the first cycle
    i_cal: Optional[float] = None    # recalibration current, default i_nominal
    heat_cap_s: float = 120.0
    cool_cap_s: float = 600.0
    soft_start_cycles: float = 2.0


def default_settings(cfg: Optional[BenchConfig] = None, **overrides) -> BenchSettings:
    cfg = validate_scenario(cfg or BenchConfig())
    return BenchSettings(cfg=cfg, **overrides)


@dataclass
class StartupResult:
    v_th: np.ndarray
    r_on_ambient: np.ndarray
    delta_vth_hat: np.ndarray
    lut_offsets: np.ndarray
    lut_offsets_pkg: np.ndarray


@dataclass
class RunResult:
    records: list
    # "ok" | "protection_trip" | "thermal_runaway" | "measurement_failed"
    status: str
    reason: str = ""
    cycles_completed: int = 0
    # idles that ended at their cap before their rule: cool phases at
    # run.cool_cap_s, start-up idles at COOL_TO_AMBIENT_CAP_S
    cool_phases_capped: int = 0
    startup_idles_capped: int = 0


# ---------------------------------------------------------------------------
# The bench
# ---------------------------------------------------------------------------

class _EnvelopeGrid(NamedTuple):
    """Run constants of the envelope heat step (TestBench._envelope_grid)."""

    i_dev: np.ndarray       # (12, g) device current over one period, A
    cur: dev_mod.ConductionCurrent  # current half of the law at i_dev
    duty: np.ndarray        # (12, g) conduction duty
    slot_i: np.ndarray      # (12, n) current at each trigger slot, A
    slot_slope: np.ndarray  # (12, n) current half of R at slot_i, ohm
    conducting: np.ndarray  # (12, g) i_dev > 0, the DESAT comparator's gate
    p_sw: np.ndarray        # (12, 1) switching loss at the mean |i_dev|, W
    p_sw_sum: float         # W
    p_link: float           # link-resistance loss, W
    i_win: np.ndarray       # (12, taps) slot currents of the FIR windows, A
    slot_r: np.ndarray      # (12, n) each slot's columns in a _HeatFill's
    slot_z: np.ndarray      # r and z rows (TestBench._fill_slots)
    i_pk: list              # window-center current of each device, A


class _Block(NamedTuple):
    """n converter-off or heat steps from the bench's state
    (TestBench._idle_block, TestBench._heat_block,
    TestBench._conducting_block), whose thermal rows _commit_thermal
    commits; row i of each per-step field holds the state after step i.
    The fields after plates are a heat block's only: tj_est every heat
    block's, rows an averaged or switched block's, the others an envelope
    block's."""

    t: list               # time after each step, s, accumulated step by step
    temps: np.ndarray     # (n + 1, 12, stages) stage rises, row 0 before
    t_j: np.ndarray       # (n, 12) junction temperatures, degC
    t_case: np.ndarray    # (n, 12) case temperatures, degC
    ntc: np.ndarray       # (n + 1, 12) sensor readings, row 0 before, degC
    t_ref: list           # (test, load) plate reference of each step, degC
    plates: list          # ((overload_rise, capacity_exceeded) per plate)
                          # after each step
    v_cond: Optional[np.ndarray] = None  # (n, 12, g) drops on the grid, V
    p_cond: Optional[list] = None  # each step's summed conduction loss, W
    tj_est: Optional[np.ndarray] = None  # (n, 12) estimates after, degC
    fill: Optional["_HeatFill"] = None
    rows: Optional["_ConductingRows"] = None


class _HeatFill(NamedTuple):
    """A heat block's acquisition (TestBench._envelope_fill_batched): the
    windows it completes are already finished, and its commit
    (TestBench._commit_fill) takes the rest to a step of the block. A
    window is q = ceil(N / b) steps of b slots, so the fill count after
    any step follows from the count before the block. Its sources hold a
    row per window it fills, the one in progress at its start first, from
    which TestBench._fill_slots computes the slots an output reads."""

    r: np.ndarray         # (windows, 12q) r_t of the step at place p, 12p + k
    z: Optional[np.ndarray]  # (windows, 12N) the normals, None without noise
    slots: list           # slots filled through each step
    done: list            # the step that completes each window
    est: np.ndarray       # (windows, 12) the windows' estimates, ohm
    tj: list              # the windows' inverted junction temperatures
    before: tuple         # (r_on_last, tj_est, window count) before
    rng_state: Optional[dict]  # the noise generator's state before


class _ConductingRows(NamedTuple):
    """The per-step rows of an averaged or switched heat block
    (TestBench._conducting_block), Python floats recorded flat: a field of
    k values a step holds step i's at k * i to k * i + k - 1. A block that
    stops at a step's runaway check, as the junctions it starts from are
    past the simulation envelope, has one row more in the fields up to
    ctl: that step's control step and device rows."""

    t: list        # the time each step starts at, s
    theta: list    # its angle, rad
    i0: list       # the link currents it starts from, a, b, c
    d_test: list   # the duties of its control step, a, b, c per bridge
    d_load: list
    i_dev: list    # its device rows, 12 values each: currents, duties and
    duty: list     # conduction drops
    v_cond: list
    ctl: list      # the current filter and both PI integrators after it
    i_mean: list   # its plant result, a, b, c: the mean currents and the
    i_sq_mean: list  # mean squared currents
    pole: list     # its test-bridge pole voltages, a, b, c
    losses: np.ndarray  # (n, 2, 12) conduction and switching loss, W


class _HeatRecursion:
    """The thermal recursion of up to n heat steps of dt from the bench's
    thermal state, step by step: each step's stage update under its
    losses, its junction temperatures and its plates, the test plate's
    pump as pump_test and the load plate's on, with the coefficients and
    the references _thermal_coeffs gives. Every heat step runs here (the
    envelope's _heat_block, the averaged and switched _conducting_block,
    and _thermal_step's single step). A step sets bank.t_j, which the next
    step's law reads; the bench's stage temperatures and sensors stay, and
    the plates are left at the last step, which _commit_thermal takes
    back."""

    def __init__(self, bench: "TestBench", n: int, dt: float,
                 pump_test: bool):
        t_ref, (a, gain, r_b, ntc_gain) = bench._thermal_coeffs(dt,
                                                                pump_test)
        self.bench, self.ntc_gain = bench, ntc_gain
        self.temps = np.empty((n + 1, *a.shape))
        self.temps[0] = bench._stage_temps
        self.t_j = np.empty((n, N_DEVICES))
        self.t_ref, self.plates = [], []
        ref = np.empty(N_DEVICES)  # each device's plate's reference
        ref[:6], ref[6:] = self.now = t_ref
        # the test plate's (overload_rise, capacity_exceeded), which move
        # only while its pump runs
        ct = bench.cool_test
        self.test_plate = ct.overload_rise, ct.capacity_exceeded
        # what every step reads, unpacked at once
        self._k = (bench.bank, ct, bench.cool_load, bench.ambient, a, gain,
                   np.empty_like(a), ref, r_b[:6], r_b[6:], dt, pump_test)

    def step(self, i: int, p: np.ndarray) -> bool:
        """Step i under the losses p, a (12, 1) column of W; True when it
        takes a junction past the simulation envelope."""
        bank, ct, cl, amb, a, gain, heat, ref, r_b_t, r_b_l, dt, pump_test = \
            self._k
        if i:  # the plates' references follow their overload
            now = self.now
            t_ref_t = th.cooling_step(ct, True, amb)[0] if pump_test \
                else now[0]
            t_ref_l = th.cooling_step(cl, True, amb)[0]
            if t_ref_t != now[0] or t_ref_l != now[1]:
                ref[:6], ref[6:] = self.now = t_ref_t, t_ref_l
        self.t_ref.append(self.now)
        # temps * a + p * gain, as the closed form of each stage
        temps = self.temps
        row = temps[i + 1]
        np.multiply(temps[i], a, row)
        np.add(row, np.multiply(p, gain, heat), row)
        t_j = bank.t_j = np.add(ref, np.add.reduce(row, axis=1), self.t_j[i])
        # heat into each plate whose pump runs (a row's reduce is its
        # slice's)
        if pump_test:
            th.cooling_absorb(ct, float(np.add.reduce(row[:6, -1] / r_b_t)),
                              dt)
            self.test_plate = ct.overload_rise, ct.capacity_exceeded
        th.cooling_absorb(cl, float(np.add.reduce(row[6:, -1] / r_b_l)), dt)
        self.plates.append((self.test_plate,
                            (cl.overload_rise, cl.capacity_exceeded)))
        return bool(np.maximum.reduce(t_j) > T_J_ENVELOPE_MAX)

    def block(self, ts: list, **heat) -> "_Block":
        """The record of the first len(ts) steps, ts their times after."""
        n = len(ts)
        return self.bench._block(ts, self.temps[:n + 1], self.t_j[:n],
                                 self.t_ref[:n], self.plates[:n],
                                 self.ntc_gain, **heat)


class TestBench:
    """Owns every module state; single-threaded stepping over one scenario.

    Independent scenarios are safe to run in parallel processes since no
    state is shared.
    """

    __test__ = False  # not a pytest class despite the bench-domain name

    def __init__(self, settings: BenchSettings):
        s = settings
        self.s = s
        cfg = s.cfg
        self.cfg = cfg
        self.ambient = cfg.ambient_c

        ss = np.random.SeedSequence(cfg.rng_seed)
        k_ed, k_noise = ss.spawn(2)
        rng_ed = np.random.default_rng(k_ed)        # one-time per-device draws
        self.rng = np.random.default_rng(k_noise)   # shared measurement noise

        params = s.device_params
        # the gate must hold every channel open to the end of the oxide
        # trajectory, at the coldest temperature the bench reaches
        d_final = _piecewise(s.trajectory.delta_vth, math.inf)
        supply = s.cooling.coolant_temp
        t_cold = self.ambient if supply is None else min(self.ambient, supply)
        v_th_final = dev_mod.threshold_voltage(params, t_cold, d_final)
        if params.gate_on_v <= v_th_final:
            raise ConfigError(
                "aging.delta_vth",
                f"a final shift of {d_final:g} V takes the threshold to "
                f"{v_th_final:.3g} V at {t_cold:g} degC, closing the channel "
                f"of a {params.gate_on_v:g} V gate")
        # each start-up after cycle 0 measures the threshold once the plates
        # settle, which is at their coolant supply
        if (supply is not None and abs(supply - self.ambient) > sns.AMBIENT_TOL
                and 0 < s.startup_every < cfg.n_cycles):
            raise ConfigError(
                "thermal.coolant_temp",
                f"a {supply:g} degC supply keeps the devices more than "
                f"{sns.AMBIENT_TOL:g} degC from the {self.ambient:g} degC "
                f"ambient, where each start-up after cycle 0 measures the "
                f"threshold")
        for key, cap in (("run.heat_cap_s", s.heat_cap_s),
                         ("run.cool_cap_s", s.cool_cap_s)):
            if not (math.isfinite(cap) and cap > 0.0):
                # the one end of a phase whose own rule never holds
                raise ConfigError(
                    key, f"a cap of {cap:g} s never ends a phase whose own "
                    f"rule never holds, or ends every phase at its first "
                    f"step; use a finite time above 0")
        if any(not g >= 0.0 for _, g in s.r_th_aging):
            raise ConfigError(
                "aging.r_th_factor",
                "thermal-resistance growth must be at least 0 (a factor of "
                "at least 1): aging never lowers it")
        self.bank = DeviceBank(params, self.ambient)
        self.i_cal = params.i_nominal if s.i_cal is None else s.i_cal
        if not (math.isfinite(self.i_cal) and self.i_cal > 0.0):
            # each start-up divides the drop it measures at this current
            raise ConfigError(
                "run.i_cal",
                f"a recalibration current of {self.i_cal:g} A measures no "
                f"on-resistance; use a finite current above 0")
        self.i_floor = 0.05 * params.i_nominal if s.i_floor is None \
            else s.i_floor
        if not self.i_floor >= 0.0:
            # the capture divides each stored drop by its current
            raise ConfigError(
                "sampler.i_floor",
                f"a capture floor of {self.i_floor:g} A admits a zero "
                f"current, whose ratio is undefined; use at least 0")
        # blocking-diode mismatch of each device's sense path, V
        self.e_d = rng_ed.uniform(*sns.E_D_RANGE, size=N_DEVICES)

        # the network's junction-side Foster stages; _HeatRecursion advances
        # them per device with the boundary stage of the device's plate,
        # which the cooling state owns, as the last column
        self._stage_r = np.array([st.r_th for st in s.network.stages])
        self._stage_c = np.array([st.c_th for st in s.network.stages])
        self._stage_temps = np.zeros((N_DEVICES, len(s.network.stages) + 1))
        self.cool_test = replace(s.cooling)
        self.cool_load = replace(s.cooling)
        self.ntc_readings = np.full(N_DEVICES, self.ambient, dtype=float)
        self._t_case = np.full(N_DEVICES, self.ambient, dtype=float)

        # trigger windows centered on each device's positive current peak
        phi = cfg.pf_angle
        centers = []
        for k in range(N_DEVICES):
            leg = (k // 2) % 3
            negated = (k % 2 == 1) != (k >= 6)
            c = phi + leg * TWO_PI / 3.0 + (math.pi if negated else 0.0)
            centers.append(wrap_angle(c))
        if s.sampler_n < 1:
            raise ConfigError(
                "sampler.n_points",
                f"a {s.sampler_n}-point window has no trigger; use at least 1")
        # each test-bridge device shares its center, and so its triggers,
        # with the load-bridge device that carries the same current
        sets = {c: smp.build_trigger_set(c, s.sampler_n, s.sampler_window)
                for c in set(centers)}
        if s.budget_per_cycle < 1:
            raise ConfigError(
                "sampler.budget_per_cycle",
                f"a budget of {s.budget_per_cycle} captures no slot; use at "
                f"least 1")
        self.samplers = [smp.SamplerState(
            sets[c], budget_per_cycle=s.budget_per_cycle) for c in centers]
        # the distinct sets, which the averaged capture searches, and each
        # device's among them
        self._capture_sets = list(sets.values())
        self._capture_set_of = np.array([list(sets).index(c)
                                         for c in centers])
        # the envelope fill stores b slots a step, so ceil(N / b) steps
        # complete a window
        self._env_b = min(s.budget_per_cycle, s.sampler_n)
        self._env_q = -(-s.sampler_n // self._env_b)
        # the slots of each device's FIR window around its center slot;
        # fir_window reflects an index once, as far as the whole window
        if len(s.fir_taps) % 2 == 0:
            raise ConfigError(
                "sampler.fir_taps",
                f"a {len(s.fir_taps)}-tap filter has no center tap; use an "
                f"odd length")
        half = len(s.fir_taps) // 2
        if half > s.sampler_n:
            raise ConfigError(
                "sampler.fir_taps",
                f"a {len(s.fir_taps)}-tap filter reaches {half} slots past "
                f"the edge of a {s.sampler_n}-point window; use at most "
                f"{2 * s.sampler_n + 1} taps")
        self._win_idx = smp.fir_window(
            [sets[c].center_index for c in centers], s.sampler_n,
            len(s.fir_taps))
        # the same slots as flat indices into a (12, n) row-major buffer
        self._win_flat = self._win_idx \
            + s.sampler_n * np.arange(N_DEVICES)[:, None]

        self._base_lut = smp.build_ron_lut(params, s.lut_t_axis, s.lut_i_axis)
        self.luts = [self._base_lut] * N_DEVICES

        self.desat_base = s.desat
        if s.desat_calibrated:
            v_fresh = float(dev_mod.conduction_voltage(
                params, params.i_nominal, self.ambient, params.gate_on_v))
            thr = sns.desat_voltage(s.sense_params, v_fresh + s.desat_margin_v)
            self.desat_base = replace(s.desat, threshold=thr)
        self.desat_thr = np.full(N_DEVICES, self.desat_base.threshold)
        self._desat_run = np.full(N_DEVICES, -1)
        self._desat_bias = sns.desat_voltage(s.sense_params, 0.0)
        # the envelope step's threshold column and trip count, built on use
        self._env_desat = None
        # the sensor readings before the last thermal step, and its dt
        self._ntc_prev, self._ntc_dt = self.ntc_readings, 1.0

        # electrical state
        self.plant = PlantState()
        self.ctl = make_controller(cfg)
        self.i_ref_dq = (cfg.i_ref_peak * math.cos(phi),
                         -cfg.i_ref_peak * math.sin(phi))
        self.v_test_mag = cfg.modulation_index * cfg.v_dc / _SQRT3

        self.t = 0.0
        self.theta_prev = 0.0
        self._fund_cycle = 0
        self._soft_t0 = 0.0

        # monitoring outputs
        self.tj_est = np.full(N_DEVICES, np.nan)
        self.r_on_last = np.full(N_DEVICES, np.nan)
        self.collect_windows = True
        self.windows: list[dict] = []
        self.last_window_trace = None  # (trigger angles, i slots, v slots)
        self.tally = EnergyTally()
        self.thermal_trace: list[tuple] = []
        self.trace_stride_s = 0.02
        self._trace_next_t = 0.0
        self._trace_cap = 20000
        self.collect_waveforms = False
        self.waveform_rows: list[tuple] = []
        self._wave_count = 0

        self.baseline_vth = np.full(N_DEVICES, np.nan)
        self.startup_log: list[StartupResult] = []

        self._mask_aging = np.zeros(N_DEVICES, dtype=bool)
        self._mask_aging[: 6 if s.aging_scope == "test" else N_DEVICES] = True

        self._envelope_cache = None
        # the envelope fill's slot readings (the window in progress over the
        # last complete one), slot truths and count
        self._env_v = np.full((N_DEVICES, s.sampler_n), np.nan)
        self._env_truth = np.full((N_DEVICES, s.sampler_n), np.nan)
        self._env_filled = 0
        self._env_tj_cols = None  # R(T) columns at each window-center current
        self._thermal_cache: dict = {}
        # whether the last phase of each kind ("heat", "cool", "ambient")
        # began at the ambient as a junction-swing heat phase, and its step
        # count; and the longest blocks whose arrays stay under _BLOCK_BYTES,
        # counted in words per device and step: an idle block's stage,
        # junction, case, sensor and reference rows; an envelope block's
        # also its grid drops, loss, temperature half, estimates and the
        # fill's b normals; an averaged block's thermal rows, its two loss
        # rows and the DESAT check's drops and currents, its rows of drops,
        # currents and duties and the sensor lag's two rows as Python
        # floats, four words each, and its per-step tuples, about ten words
        # a device (tracemalloc reads 39 words in all at four stages)
        self._phase_steps: dict = {}
        stages = self._stage_temps.shape[1]
        self._idle_block_max = max(1, _BLOCK_BYTES // (
            8 * N_DEVICES * (stages + 6)))
        self._heat_block_max = max(1, _BLOCK_BYTES // (8 * N_DEVICES * (
            _GRID_ANGLES + stages + 6 + self._env_b)))
        self._conducting_block_max = max(1, _BLOCK_BYTES // (
            8 * N_DEVICES * (stages + 4 + 2 + 2 + 5 * 4 + 10)))
        self.cool_phases_capped = 0
        self.startup_idles_capped = 0

    # -- small helpers -------------------------------------------------------

    @property
    def theta(self) -> float:
        return (TWO_PI * self.cfg.f_fund * self.t) % TWO_PI

    # -- protection ------------------------------------------------------------

    def _protection(self, v_cond, i_dev, dt: float):
        """Blanked DESAT comparator, one sample per step of dt, over one
        step's rows or a block's ((12,) or (n, 12) drops and currents): a
        device trips once its pin has stayed above its threshold for
        blanking_runs(dt, blanking) consecutive conducting steps. Advances
        the run counters through the rows, and raises at the first step at
        which a device trips, with the counters at that step."""
        trip, k, self._desat_run = self._desat_runs(v_cond, i_dev, dt)
        if trip is not None:
            raise ProtectionTrip(DEVICE_IDS[k], self.t)

    def _desat_runs(self, v_cond, i_dev, dt: float) -> tuple:
        """(trip, device, runs): the first row of _protection's rows at
        which a device trips, and the first such device (None, None when
        none trips), and the run counters after that row or the last. A
        counter reads -1 while its device is not over its threshold."""
        over = ((np.asarray(i_dev) > 0.0)
                & (self._desat_bias + np.asarray(v_cond) > self.desat_thr)
                ).reshape(-1, N_DEVICES)
        hit = np.flatnonzero(np.logical_or.reduce(over, axis=1))
        if not hit.size:
            return None, None, np.full(N_DEVICES, -1) if len(over) \
                else self._desat_run
        # a row with no device over ends every run
        run = np.full(N_DEVICES, -1) if hit[0] else self._desat_run
        n_trip = blanking_runs(dt, self.desat_base.blanking)
        for i in range(int(hit[0]), len(over)):
            run = np.where(over[i], run + 1, -1)
            if np.maximum.reduce(run) >= n_trip:
                return i, int(np.flatnonzero(run >= n_trip)[0]), run
        return None, None, run

    def _check_runaway(self):
        """End the run once a junction leaves the simulation envelope."""
        if np.maximum.reduce(self.bank.t_j) > T_J_ENVELOPE_MAX:
            k = int(self.bank.t_j.argmax())
            raise ThermalRunaway(
                f"{DEVICE_IDS[k]} reached {self.bank.t_j[k]:.1f} degC "
                f"at t={self.t:.3f} s")

    # -- capture ----------------------------------------------------------------

    def _capture(self, theta, i_dev, v_cond, duty, t=None, t_j=None
                 ) -> list:
        """Store each step's readings in the windows whose triggers its
        sweep, from the last captured step's angle to its own, crossed.

        theta is one step's angle and i_dev, v_cond and duty its rows, one
        value per device, at the bench's time and junction temperatures
        when t is None; or, for a block, the steps' angles and (n, 12)
        rows, with t the times they start at and t_j (n, 12) the junction
        temperatures they start from.

        The block is worked out by device and window, with the bits of its
        steps taken alone: each distinct trigger set finds every step's
        slot run with one search (smp.sweep_slots), the floor and duty
        gates take whole rows, and each device's events then take the
        budget, skip filled slots and complete windows in one pass
        (smp.store_block). A reading that found budget takes the next
        normal of one draw in (step, device) order; each window's
        readings are written with one index (smp.write_block), and the
        windows finish in (step, device) order. Returns the (step, tj_est
        after it) of each step that completed a window.
        """
        if t is None:  # one step
            theta, i_dev, v_cond, duty = [theta], *(
                np.reshape(x, (1, N_DEVICES)) for x in (i_dev, v_cond, duty))
            t, t_j = [self.t], self.bank.t_j[None]
        lo, end = smp.sweep_slots(self._capture_sets,
                                  np.array([self.theta_prev, *theta]))
        # each device's events, device by device: the steps whose sweep
        # crossed its triggers and whose rows its gates let store
        lo, end = lo[self._capture_set_of], end[self._capture_set_of]
        blocked = (i_dev <= self.i_floor) | (duty < 0.02)
        events = (end > lo) & ~blocked.T
        dev, at = np.nonzero(events)
        lo, end = lo[events].tolist(), end[events].tolist()
        # each step's fundamental cycle; time only grows, so a budget
        # refills where an event's cycle is new to its device
        cyc = (self.cfg.f_fund * np.asarray(t) + 1e-9).astype(int)
        end_cycle = int(cyc[-1])
        skipped, stored, plans = smp.store_block(
            self.samplers, dev, lo, end, cyc[at].tolist(), self._fund_cycle,
            end_cycle)
        self._fund_cycle = end_cycle
        # each event's reading (its drop plus the sense path's offset and,
        # if it found budget, the next normal of one draw in (step, device)
        # order), current and true ratio
        sigma, z = self.s.sense_params.noise_sigma, 0.0
        if sigma > 0:
            if skipped:
                events[dev[skipped], at[skipped]] = False
            z = np.zeros(events.T.shape)
            z[events.T] = self.rng.normal(0.0, sigma, len(at) - len(skipped))
            z = z.T[dev, at]
        v, cur = v_cond[at, dev], i_dev[at, dev]
        at, finished = at.tolist(), []
        for k, event, cycles in smp.write_block(
                self.samplers, stored, plans,
                np.array([v + self.e_d[dev] + z, cur, v / cur])):
            s, idx = self.samplers[k], self._win_idx[None, k:k + 1]
            finished.append((at[event], cycles, k, s.v_on[idx], s.i[idx],
                             s.truth[idx],
                             float(s.i[s.triggers.center_index])))
            if k == 0:  # the window's slots are reused from here on
                self.last_window_trace = (s.triggers.angles, s.i.copy(),
                                          s.v_on.copy())
        estimates = {}
        for i, cycles, k, v_win, i_win, truth_win, i_pk in sorted(
                finished, key=lambda f: (f[0], f[2])):
            self._finish_window(k, v_win, i_win, truth_win,
                                [self.luts[k].column(i_pk)], [cycles], [t[i]],
                                t_j[i][None])
            estimates[i] = self.tj_est.copy()
        self.theta_prev = theta[-1]
        return list(estimates.items())

    def _capture_state(self) -> tuple:
        """Everything _capture changes, for _restore_capture."""
        return ([(s.v_on.copy(), s.i.copy(), s.truth.copy(),
                  s.filled_mask.copy(), s.filled, s.cycles_elapsed,
                  s.budget_used) for s in self.samplers],
                len(self.windows), self.r_on_last.copy(), self.tj_est.copy(),
                self.last_window_trace, self.theta_prev, self._fund_cycle,
                self.rng.bit_generator.state)

    def _restore_capture(self, state: tuple):
        (samplers, count, r_on, tj_est, self.last_window_trace,
         self.theta_prev, self._fund_cycle, self.rng.bit_generator.state) = \
            state
        for s, (v, i, truth, mask, filled, cycles, used) in zip(
                self.samplers, samplers):
            s.v_on, s.i, s.truth, s.filled_mask = v, i, truth, mask
            s.filled, s.cycles_elapsed, s.budget_used = filled, cycles, used
        del self.windows[count:]
        self.r_on_last[:] = r_on
        self.tj_est[:] = tj_est

    def _finish_window(self, k0: int, v_win: np.ndarray, i_win: np.ndarray,
                       truth_win: Optional[np.ndarray], cols: list,
                       cycles: list, t: list, tj_true: np.ndarray) -> tuple:
        """Estimate the window sets that devices k0, k0 + 1, ... just
        completed, in the order they completed; every engine finishes its
        windows here.

        Row j of set w of v_win, i_win and truth_win, each (sets, rows,
        taps), holds device k0 + j's readings, currents and true ratios at
        the slots of its FIR window (self._win_idx); one (rows, taps) i_win
        serves every set. cols[j] is device k0 + j's R(T) column at the
        window-center current. cycles[w], t[w] and the (12,) row
        tj_true[w] are set w's fill cycles, its time and the junction
        temperatures then. truth_win is read only while windows are
        collected, and may be None otherwise. r_on_last and tj_est keep the
        last set's estimates. Returns every set's estimates (sets, rows)
        and, per set, the list of temperatures inverted from them. The
        caller keeps device 0's whole window as last_window_trace.
        """
        taps = self.s.fir_taps
        r_est = smp.estimate_ron(v_win, i_win, taps)
        k1 = k0 + r_est.shape[1]
        self.r_on_last[k0:k1] = r_est[-1]
        t_ax = self._base_lut.t_axis
        # only the test-bridge estimates drive control
        m = k1 - k0 if self.collect_windows else max(0, min(k1, 6) - k0)
        # each device's sets at once: np.interp is invert_column at every
        # point, bit for bit
        tj = [list(x) for x in zip(*(np.interp(r_est[:, j], cols[j], t_ax)
                                     .tolist() for j in range(m)))] \
            if m else [[]] * len(r_est)
        self.tj_est[k0:k0 + m] = tj[-1]
        if self.collect_windows:
            # the center currents of the rows, which every set shares
            i_pk = i_win[..., len(taps) // 2].reshape(-1).tolist()
            est = r_est.tolist()
            r_true = (truth_win @ taps).tolist()
            true = tj_true[:, k0:k1].tolist()
            self.windows += [{
                "t": t[w], "device": k0 + j, "r_est": est[w][j],
                "i_pk": i_pk[j], "r_true": r_true[w][j],
                "tj_est": tj[w][j], "tj_true": true[w][j],
                "cycles_used": cycles[w],
            } for w in range(len(est)) for j in range(k1 - k0)]
        return r_est, tj

    # -- averaged / switched conducting step -------------------------------------

    def _step_conducting(self, n: int = 1, t0: float = 0.0,
                         cap_s: float = math.inf,
                         rule: Optional[Callable] = None,
                         done: Optional[Callable[[float], bool]] = None):
        """Advance up to n averaged (or switched) PWM steps as one block and
        commit them through the first step that ends the heat phase begun
        at t0, trips or runs away; returns (block, stop, capped) as
        _step_envelope does.

        Each step keeps the order of a step taken alone: the control step,
        the device rows and their drops, the capture, the DESAT check, the
        runaway check on the junction temperatures the step starts from,
        the pole voltages and the plant, the loss rows and the thermal
        step, the tally, the waveform row and the clock with its trace row;
        then the stop test, done(t) or rule(ntc, tj_est) on the rows after
        the step, then t - t0 > cap_s. Only the recursion runs step by step
        (_conducting_block); the DESAT counters, the capture, the stop
        test, the tally and the rows run once per block, over the steps it
        commits. A trip or a runaway raises as the step taken alone does:
        its capture and DESAT check are committed, its plant and thermal
        step are not.
        """
        dt = 1.0 / self.cfg.f_sw
        ts, timed = self._block_times(n, t0, cap_s, done, dt)
        t_j0 = self.bank.t_j
        plates0 = [dict(vars(c)) for c in (self.cool_test, self.cool_load)]
        blk = self._conducting_block(ts, dt)
        rows = blk.rows
        n, k = len(blk.t), len(rows.theta)
        v, i_dev, duty = (np.fromiter(x, float, len(x)).reshape(-1, N_DEVICES)
                          for x in (rows.v_cond, rows.i_dev, rows.duty))
        # the step that raises: the first trip, else the step the block
        # stopped at its runaway check
        last = self._desat_runs(v, i_dev, dt)[0]
        if last is None and k > n:
            last = n
        end = n if last is None else last  # the steps the stop test reads
        m = end + (last is not None)  # the steps the capture reads
        t_j = np.vstack([t_j0[None], blk.t_j[:m - 1]])
        saved = est = None
        if rule is not None:
            saved = self._capture_state()
            est = np.repeat(self.tj_est[None], end, axis=0)
        done_at = self._capture(rows.theta[:m], i_dev[:m], v[:m], duty[:m],
                                rows.t[:m], t_j)
        stop = None
        if rule is not None and end:
            for i, tj_est in done_at:  # the estimates after each step
                est[i:] = tj_est
            stop = rule(blk.ntc[1:end + 1], est)
            blk = blk._replace(tj_est=est)
        capped = False
        if stop is None and last is None and timed:
            stop = n - 1
            capped = done is None or not done(blk.t[-1])
        if stop is not None:
            last = None
            if stop + 1 < m:  # the capture ran past the stop: replay it
                self._restore_capture(saved)
                m = stop + 1
                self._capture(rows.theta[:m], i_dev[:m], v[:m], duty[:m],
                              rows.t[:m], t_j[:m])
            heated = stop + 1
        else:
            heated = n if last is None else last
        # the controller after the last captured step's control step, the
        # plant and the thermal state after the last heated step
        ctl = self.ctl
        ctl.current_filter.y, ctl.pi_d.integrator, ctl.pi_q.integrator = \
            rows.ctl[m - 1]
        if heated < k:
            self.plant.i_abc = tuple(rows.i0[3 * heated:3 * heated + 3])
        if heated:
            self._commit_thermal(blk, heated, dt, heated)
        else:  # a trip or runaway at the first step heats nothing
            self.bank.t_j = t_j0
            for cool, state in zip((self.cool_test, self.cool_load), plates0):
                vars(cool).update(state)
        self._tally_rows(rows, heated, dt)
        self._protection(v[:m], i_dev[:m], dt)  # raises a trip at step m - 1
        if last is not None:
            self._check_runaway()
        return blk, stop, capped

    def _conducting_block(self, ts: list, dt: float) -> _Block:
        """The recursion of len(ts) averaged or switched PWM steps of dt
        from the bench's state, bit for bit that of as many steps taken
        alone: the soft-start scales, control_step, the device rows and
        DeviceBank.conduction (called at every step, so that a short set
        between steps reaches the drops), the pole voltages, plant_step or
        _plant_switched, the loss rows and the thermal step
        (_HeatRecursion). It stops at the first step whose junctions start
        past the simulation envelope, after that step's control step and
        device rows. The controller, the plant, the plates and bank.t_j are
        left at the block's last step; _step_conducting takes them back.
        Returns the block with its rows (_ConductingRows)."""
        cfg, bank, ctl, plant = self.cfg, self.bank, self.ctl, self.plant
        f_fund, v_dc = cfg.f_fund, cfg.v_dc
        r_link, l_link = cfg.link_resistance, cfg.link_inductance
        switched = cfg.fidelity is Fidelity.SWITCHED
        ramp, t_soft = self.s.soft_start_cycles / f_fund, self._soft_t0
        v_mag, (i_ref_d, i_ref_q) = self.v_test_mag, self.i_ref_dq
        p, f_sw = bank.params, cfg.f_sw
        heat = _HeatRecursion(self, len(ts), dt, False)
        losses = np.empty((len(ts), 2, N_DEVICES))
        p_in = np.empty((N_DEVICES, 1))
        rows = _ConductingRows([self.t, *ts], [], [], [], [], [], [], [], [],
                               [], [], [], losses)
        hot = np.maximum.reduce(bank.t_j) > T_J_ENVELOPE_MAX
        for i, t in enumerate(rows.t[:len(ts)]):
            theta = (TWO_PI * f_fund * t) % TWO_PI
            scale = 1.0 if ramp <= 0 \
                else min(1.0, max(0.0, (t - t_soft) / ramp))
            i0 = plant.i_abc
            d_test, d_load = control_step(
                ctl, i0, theta, dt, (v_mag * scale, 0.0),
                (i_ref_d * scale, i_ref_q * scale), v_dc)
            d_test, d_load = d_test[:3], d_load[:3]
            dta, dtb, dtc = d_test
            dla, dlb, dlc = d_load
            i_a, i_b, i_c = i0
            i_row = _device_values(i_a, i_b, i_c)
            duty = [dta, 1.0 - dta, dtb, 1.0 - dtb, dtc, 1.0 - dtc,
                    dla, 1.0 - dla, dlb, 1.0 - dlb, dlc, 1.0 - dlc]
            vc, _ = bank.conduction(i_row)
            rows.theta.append(theta)
            rows.i0.extend(i0)
            rows.d_test.extend(d_test)
            rows.d_load.extend(d_load)
            rows.i_dev.extend(i_row)
            rows.duty.extend(duty)
            rows.v_cond.extend(vc)
            rows.ctl.append((ctl.current_filter.y, ctl.pi_d.integrator,
                             ctl.pi_q.integrator))
            if hot:  # the step ends at its runaway check
                break
            v_hi_t, v_lo_t = vc[0:6:2], vc[1:6:2]
            v_hi_l, v_lo_l = vc[6:12:2], vc[7:12:2]
            pole = _pole_voltages(d_test, v_hi_t, v_lo_t, v_dc)
            if switched:
                res = self._plant_switched(d_test, d_load, v_hi_t, v_lo_t,
                                           v_hi_l, v_lo_l, dt)
            else:
                res = plant_step(plant, pole,
                                 _pole_voltages(d_load, v_hi_l, v_lo_l, v_dc),
                                 r_link, l_link, dt)
            rows.i_mean.extend(res.i_mean)
            rows.i_sq_mean.extend(res.i_sq_mean)
            rows.pole.extend(pole)
            # the loss rows: conduction, and the switching-loss law on each
            # device's |mean current|, its phase's
            s_a, s_b, s_c = [dev_mod.switching_loss(p, f_sw, v_dc, abs(x))
                             for x in res.i_mean]
            row = losses[i]
            row[0] = [d * v * x for d, v, x
                      in zip(duty, vc, _device_values(*res.i_mean))]
            row[1] = [s_a, s_a, s_b, s_b, s_c, s_c] * 2
            np.add(row[0], row[1], p_in[:, 0])
            hot = heat.step(i, p_in)
        n = len(rows.pole) // 3
        return heat.block(ts[:n], rows=rows._replace(
            t=rows.t[:len(rows.theta)], losses=losses[:n]))

    def _tally_rows(self, rows: "_ConductingRows", n: int, dt: float):
        """Book the first n steps of an averaged block in the energy tally
        and, while they are collected, its waveform rows: each sum grows
        step by step, as np.add.accumulate adds, from terms in a lone
        step's order of operations (np.vecdot is np.dot row by row)."""
        if not n:
            return
        cfg, tl = self.cfg, self.tally

        def grown(total: float, terms) -> float:
            return float(np.add.accumulate(np.append(total, terms))[-1])

        d_test, d_load, i_mean, i_sq, pole, i0 = (
            np.fromiter(x, float, 3 * n).reshape(n, 3) for x in (
                rows.d_test, rows.d_load, rows.i_mean, rows.i_sq_mean,
                rows.pole, rows.i0))
        # numpy's pairwise sum of each row of twelve
        p_cond, p_sw = np.add.reduce(rows.losses[:n], axis=2).T
        d = d_test - d_load
        s_a, s_b, s_c = i_sq.T
        tl.e_supply = grown(tl.e_supply, (cfg.v_dc * np.vecdot(d, i_mean)
                                          + p_sw) * dt)
        tl.e_cond = grown(tl.e_cond, p_cond * dt)
        tl.e_sw = grown(tl.e_sw, p_sw * dt)
        tl.e_link = grown(tl.e_link,
                          cfg.link_resistance * (s_a + s_b + s_c) * dt)
        tl.duration = grown(tl.duration, np.full(n, dt))
        v_a, v_b, v_c = pole.T
        v0 = (v_a + v_b + v_c) / 3
        v_a, v_b, v_c = v_a - v0, v_b - v0, v_c - v0
        tl.sum_v2 = grown(tl.sum_v2, v_a * v_a + v_b * v_b + v_c * v_c)
        i_a, i_b, i_c = i0.T
        tl.sum_i2 = grown(tl.sum_i2, i_a * i_a + i_b * i_b + i_c * i_c)
        tl.samples += n
        if self.collect_waveforms:
            for j in range(n):
                self._wave_count += 1
                if self._wave_count % _WAVEFORM_STRIDE == 0:
                    self.waveform_rows.append((
                        rows.t[j], rows.theta[j], *rows.i0[3 * j:3 * j + 3],
                        *rows.v_cond[N_DEVICES * j:N_DEVICES * (j + 1)]))

    def _plant_switched(self, d_test, d_load, v_hi_t, v_lo_t, v_hi_l, v_lo_l,
                        dt_period) -> PlantStepResult:
        """Sub-PWM integration with center-aligned pole windows.

        Each sub-step applies the exact overlap fraction of the ON window, so
        per-period volt-seconds match the averaged path exactly while the
        current ripple is resolved.
        """
        cfg = self.cfg
        n = SWITCHED_SUBSTEPS
        dt_sub = dt_period / n
        f_test = _on_fractions(d_test)
        f_load = _on_fractions(d_load)
        m_a = m_b = m_c = s_a = s_b = s_c = 0.0
        for ft, fl in zip(f_test, f_load):
            r = plant_step(self.plant,
                           _pole_voltages(ft, v_hi_t, v_lo_t, cfg.v_dc),
                           _pole_voltages(fl, v_hi_l, v_lo_l, cfg.v_dc),
                           cfg.link_resistance, cfg.link_inductance, dt_sub)
            m_a += r.i_mean[0]
            m_b += r.i_mean[1]
            m_c += r.i_mean[2]
            s_a += r.i_sq_mean[0]
            s_b += r.i_sq_mean[1]
            s_c += r.i_sq_mean[2]
        return PlantStepResult(i_mean=(m_a / n, m_b / n, m_c / n),
                               i_sq_mean=(s_a / n, s_b / n, s_c / n))

    # -- envelope conducting step --------------------------------------------

    def _envelope_grid(self) -> "_EnvelopeGrid":
        """The envelope heat step's run constants, built on first use.

        cfg fixes the quasi-static operating point and so the 32-angle
        current and duty grids; the trigger sets fix the slot currents and,
        with the FIR window slots, the window currents; the device
        parameters, which set the switching loss and the conduction law's
        current half, are bound in __init__.
        Nothing here changes within a run.
        """
        if self._envelope_cache is not None:
            return self._envelope_cache
        cfg = self.cfg
        g = _GRID_ANGLES
        thetas = np.arange(g) * TWO_PI / g
        i_d, i_q = self.i_ref_dq
        i_abc = np.stack([np.array(inverse_park(i_d, i_q, t)) for t in thetas],
                         axis=1)  # (3, g)
        w = TWO_PI * cfg.f_fund
        r, l = cfg.link_resistance, cfg.link_inductance
        v_t = (self.v_test_mag, 0.0)
        v_l = (v_t[0] - (r * i_d - w * l * i_q),
               v_t[1] - (r * i_q + w * l * i_d))
        d_test = np.empty((3, g))
        d_load = np.empty((3, g))
        for j, t in enumerate(thetas):
            d_test[:, j] = svpwm_duties(v_t[0], v_t[1], t, cfg.v_dc)[:3]
            d_load[:, j] = svpwm_duties(v_l[0], v_l[1], t, cfg.v_dc)[:3]
        i_dev = i_abc[_PHASE] * _SIGN[:, None]
        duty = np.vstack([d_test, d_load])[_LEG] * _UPPER[:, None] \
            + _LOWER[:, None]
        # a test-bridge device and its load-bridge partner share trigger
        # set, phase and sign, so each distinct row is built once
        slot_i = np.empty((N_DEVICES, self.s.sampler_n))
        rows = {}
        for k, sstate in enumerate(self.samplers):
            key = (id(sstate.triggers), _PHASE[k], _SIGN[k])
            if key not in rows:
                rows[key] = _SIGN[k] * inverse_park_phase(
                    i_d, i_q, sstate.triggers.angle_list, _PHASE[k])
            slot_i[k] = rows[key]
        if not (slot_i > self.i_floor).all():
            raise ConfigError(
                "bench.i_ref_peak, sampler.window_deg, sampler.i_floor",
                "the window reaches currents below the capture floor; narrow "
                "it, raise the current or lower the floor so every slot can "
                "fill")
        self._envelope_cache = self._bind_envelope_grid(i_dev, duty, slot_i)
        return self._envelope_cache

    def _bind_envelope_grid(self, i_dev: np.ndarray, duty: np.ndarray,
                            slot_i: np.ndarray) -> "_EnvelopeGrid":
        """The run record of the given grids: device currents and duties
        over one fundamental period (12, g), and the current at each
        trigger slot (12, n), which give each FIR window's currents. The
        current half of the conduction law is bound here, at both the grid
        and the slot currents. Slot j, at place p = min(j // b, q - 1), is
        the u-th of its step's m = min(b, n - bp): device k's r_t and normal
        sit at columns 12p + k and 12bp + km + u of _HeatFill's rows."""
        cfg = self.cfg
        p = self.bank.params
        b, j = self._env_b, np.arange(slot_i.shape[1])
        place = np.minimum(j // b, self._env_q - 1)
        p_sw = dev_mod.switching_loss(p, cfg.f_sw, cfg.v_dc,
                                      np.abs(i_dev).mean(axis=1))
        i_win = slot_i.take(self._win_flat)
        return _EnvelopeGrid(
            i_dev=i_dev, cur=dev_mod.conduction_current(p, i_dev), duty=duty,
            slot_i=slot_i, slot_slope=dev_mod.current_slope(p, slot_i),
            conducting=i_dev > 0,
            p_sw=p_sw.reshape(-1, 1), p_sw_sum=float(p_sw.sum()),
            p_link=cfg.link_resistance
            * float((i_dev[0:6:2] ** 2).mean(axis=1).sum()),
            i_win=i_win, i_pk=i_win[:, i_win.shape[1] // 2].tolist(),
            slot_r=N_DEVICES * place + _DEVICE_ROWS,
            slot_z=j + (N_DEVICES - 1) * b * place + _DEVICE_ROWS * np.minimum(
                b, slot_i.shape[1] - b * place))

    def _block_times(self, n: int, t0: float, cap_s: float,
                     done: Optional[Callable[[float], bool]], dt: float
                     ) -> tuple:
        """The times after up to n steps of dt from now, accumulated step
        by step, through the first where done(t) or t - t0 > cap_s holds;
        returns (times, timed), timed True when one of them ends the
        block."""
        ts = []
        t = self.t
        for _ in range(n):
            t += dt
            ts.append(t)
            if (done is not None and done(t)) or t - t0 > cap_s:
                return ts, True
        return ts, False

    def _step_envelope(self, n: int, t0: float, cap_s: float,
                       rule: Optional[Callable] = None,
                       done: Optional[Callable[[float], bool]] = None):
        """Advance up to n envelope heat steps as one block and commit them
        through the first step that ends the heat phase begun at t0, trips
        or leaves the simulation envelope.

        Each step keeps the order of a step taken alone: the fill, the
        DESAT check, the thermal step, the runaway check, then the stop
        test, done(t) on the time after the step or rule(ntc, tj_est) on the
        rows after each step (the first step it ends, or None), then
        t - t0 > cap_s. The block ends at the first step where done or the
        cap holds (_block_times). A trip or a runaway raises once the block
        is committed as far as that step taken alone gets. Returns (block,
        stop, capped) as _step_idle does.
        """
        dt = 1.0 / self.cfg.f_fund
        ts, timed = self._block_times(n, t0, cap_s, done, dt)
        t_j0 = self.bank.t_j
        plates0 = [dict(vars(c)) for c in (self.cool_test, self.cool_load)]
        blk = self._heat_block(ts, dt)
        n = len(blk.t)  # the block ends at a step that runs away
        runaway = bool(np.maximum.reduce(blk.t_j[-1]) > T_J_ENVELOPE_MAX)

        # protection at envelope resolution: a device trips once its share
        # of the period over threshold reaches the blanking time
        grid = self._envelope_grid()
        if self._env_desat is None:
            self._env_desat = (
                (self.desat_thr - self._desat_bias)[:, None],
                blanking_angles(dt, self.desat_base.blanking,
                                grid.i_dev.shape[1]))
        thr, n_trip = self._env_desat
        n_over = np.add.reduce(grid.conducting & (blk.v_cond > thr), axis=2)
        trip = _first(np.maximum.reduce(n_over, axis=1) >= n_trip)

        # the steps that reach the stop test
        end = min(trip if trip is not None else n, n - 1 if runaway else n)
        stop = None if rule is None or not end \
            else rule(blk.ntc[1:end + 1], blk.tj_est[:end])
        capped = False
        if stop is None and end == n and timed:
            stop = n - 1
            capped = done is None or not done(blk.t[-1])
        # the steps whose fill, thermal step and time are committed: a trip
        # comes before its step's thermal step, a runaway after it
        if stop is not None:
            filled = heated = clocked = stop + 1
        elif trip is not None:
            filled, heated, clocked = trip + 1, trip, trip
        elif runaway:
            filled, heated, clocked = n, n, n - 1
        else:
            filled = heated = clocked = n
        self._commit_fill(grid, blk.fill, filled, n)
        if heated:
            self._commit_thermal(blk, heated, dt, clocked)
        else:  # a trip at the first step leaves the thermal state alone
            self.bank.t_j = t_j0
            for cool, state in zip((self.cool_test, self.cool_load), plates0):
                vars(cool).update(state)
        tl = self.tally
        p_sw, p_link = grid.p_sw_sum, grid.p_link
        for p in blk.p_cond[:clocked]:
            tl.e_cond += p * dt
            tl.e_sw += p_sw * dt
            tl.e_link += p_link * dt
            tl.e_supply += (p + p_sw + p_link) * dt
            tl.duration += dt
            tl.samples += 1
        if stop is None and trip is not None:
            k = int(np.flatnonzero(n_over[trip] >= n_trip)[0])
            raise ProtectionTrip(DEVICE_IDS[k], self.t)
        if stop is None and runaway:
            self._check_runaway()
        return blk, stop, capped

    def _heat_block(self, ts: list, dt: float) -> _Block:
        """The state after each of len(ts) envelope heat steps of dt, bit
        for bit the state that as many steps taken alone leave, and the
        block's acquisition (_envelope_fill_batched).

        Only the junction recursion runs step by step: the law on the grid
        (DeviceBank.conduction, called at every step so that a short set
        between steps reaches the drops; on the campaign grids it takes the
        channel-alone path), the period loss, and the stage update and the
        load plate's overload (_HeatRecursion). It ends at the first step
        that takes a junction past the simulation envelope. The plates and
        bank.t_j are left at the block's last step; the commit takes them
        back.
        """
        grid = self._envelope_grid()
        g = grid.i_dev.shape[1]
        bank = self.bank
        # the test plate's pump is off while heating, so its reference is
        # the ambient and it absorbs nothing (th.cooling_absorb); the load
        # plate's reference follows its overload step by step
        heat = _HeatRecursion(self, len(ts), dt, False)
        t_j0 = bank.t_j
        # each step's drops, which the DESAT counts read, and period loss
        v_cond = np.empty((len(ts), N_DEVICES, g))
        p_dev = np.empty((len(ts), N_DEVICES, 1))
        prod, p_in = np.empty_like(v_cond[0]), np.empty((N_DEVICES, 1))
        r_t = []
        for i in range(len(ts)):
            v = v_cond[i]
            r_t.append(bank.conduction(grid.cur, v)[1])
            # np.add.reduce(x, axis=1) / g is x.mean(axis=1) bit for bit
            np.multiply(np.multiply(grid.duty, v, prod), grid.i_dev, prod)
            p = np.add.reduce(prod, axis=1, keepdims=True, out=p_dev[i])
            np.divide(p, g, p)
            if heat.step(i, np.add(p, grid.p_sw, p_in)):
                break
        n = len(r_t)
        ts = ts[:n]
        fill = self._envelope_fill_batched(
            grid, np.hstack(r_t), [self.t, *ts[:-1]],
            np.vstack([t_j0[None], heat.t_j[:n - 1]]))
        # the estimates after each step: the last window's from the step
        # that completes it
        r_on, tj_est, _ = fill.before
        est = np.repeat(tj_est[None], n, axis=0)
        if fill.done:
            m = len(fill.tj[0])
            sets = np.vstack([tj_est[None, :m], fill.tj])
            est[:, :m] = sets[np.searchsorted(fill.done, np.arange(n),
                                              side="right")]
        return heat.block(
            ts, v_cond=v_cond[:n],
            p_cond=np.add.reduce(p_dev[:n, :, 0], axis=1).tolist(),
            tj_est=est, fill=fill)

    def _envelope_fill_batched(self, grid: "_EnvelopeGrid", r_t: np.ndarray,
                               t_start: list, tj_start: np.ndarray
                               ) -> _HeatFill:
        """The acquisition of a block of n heat steps for all devices: r_t
        is the (12, n) temperature half of R at each step's start
        (DeviceBank.conduction), t_start and tj_start (n, 12) the time and
        the junction temperatures there.

        Every slot current is above the floor (_envelope_grid checks), so
        the twelve windows fill the same slots, in slot order, and complete
        at the same step: one fill count serves them all. A step fills
        b = min(budget, N) slots, except a window's last, its q-th for
        q = ceil(N / b), which fills the N - b(q - 1) left; so the step
        after f0 filled slots is place f0 // b of its window. The noise is
        one draw. _finish_window estimates the windows the block completes
        from the readings at their FIR slots alone (_fill_slots; the
        reading buffer's for slots filled before the block), and
        _commit_fill computes the rest the bench keeps.
        """
        s, n = self.s, r_t.shape[1]
        b, q, f0 = self._env_b, self._env_q, self._env_filled
        last = (f0 // b + np.arange(n)) % q == q - 1
        slots = np.cumsum(np.where(last, s.sampler_n - b * (q - 1), b)
                          ).tolist()
        done = np.flatnonzero(last).tolist()
        n_win = -(-(f0 // b + n) // q)  # the sources' windows
        r = np.zeros((n_win * q, N_DEVICES))
        r[f0 // b:f0 // b + n] = r_t.T
        rng_state = z = None
        if s.sense_params.noise_sigma > 0:
            # rng.normal(0.0, sigma) draws 0.0 + sigma * z: the same bits.
            # Each step drew a (12, m) array of its m slots, in turn.
            rng_state = self.rng.bit_generator.state
            z = np.zeros((n_win, N_DEVICES * s.sampler_n))
            self.rng.standard_normal(out=z.reshape(-1)[
                N_DEVICES * f0:N_DEVICES * (f0 + slots[-1])])
        before = (self.r_on_last.copy(), self.tj_est.copy(), len(self.windows))
        fill = _HeatFill(r=r.reshape(n_win, -1), z=z, slots=slots, done=done,
                         est=None, tj=[], before=before, rng_state=rng_state)
        if not done:
            return fill
        if self._env_tj_cols is None:
            self._env_tj_cols = [self.luts[k].column(grid.i_pk[k])
                                 for k in range(N_DEVICES)]
        sel = (_DEVICE_ROWS, self._win_idx)
        v, truth = self._fill_slots(grid, fill, slice(len(done)), sel)
        if f0:  # window 0's slots filled before the block
            old = self._win_idx < f0
            v[0] = np.where(old, self._env_v[sel], v[0])
            truth[0] = np.where(old, self._env_truth[sel], truth[0])
        est, tj = self._finish_window(
            0, v, grid.i_win, truth if self.collect_windows else None,
            self._env_tj_cols, [q] * len(done), [t_start[j] for j in done],
            tj_start[done])
        return fill._replace(est=est, tj=tj)

    def _fill_slots(self, grid: "_EnvelopeGrid", fill: _HeatFill,
                    windows, sel: tuple) -> tuple:
        """The readings and truths ([windows,] 12, slots) of the block's
        windows (a slice or an index) at the slots sel of a (12, N) table:
        slot_i * (r_t + slot_slope) + e_d + sigma * z in a lone step's order
        of operations, and the bracket; pre-block slots read unset."""
        truth = fill.r[windows].take(grid.slot_r[sel], axis=-1) \
            + grid.slot_slope[sel]
        v = grid.slot_i[sel] * truth
        v += self.e_d[:, None]
        if fill.z is not None:
            noise = fill.z[windows].take(grid.slot_z[sel], axis=-1)
            noise *= self.s.sense_params.noise_sigma
            v += noise
        return v, truth

    def _commit_fill(self, grid: "_EnvelopeGrid", fill: _HeatFill, m: int,
                     n: int):
        """Take the acquisition to the state after the first m of the
        block's n steps: undo the windows of later steps, leave the noise
        generator where the first m steps' draws leave it, and put the
        readings (and truths, while windows are collected) of the last
        complete window, then of the window in progress over its start, in
        the reading buffer, computed (_fill_slots) at the slots the block
        filled. last_window_trace keeps device 0's complete window."""
        w = bisect_left(fill.done, m)  # the windows of the first m steps
        if w < len(fill.done):
            r_on, tj_est, count = fill.before
            k = len(fill.tj[0])
            self.r_on_last[:] = fill.est[w - 1] if w else r_on
            self.tj_est[:k] = fill.tj[w - 1] if w else tj_est[:k]
            del self.windows[count + N_DEVICES * w:]
        if m < n and fill.rng_state is not None:
            self.rng.bit_generator.state = fill.rng_state
            self.rng.standard_normal(N_DEVICES * fill.slots[m - 1])
        n_slots, f0 = self.s.sampler_n, self._env_filled
        end = f0 + fill.slots[m - 1] - n_slots * w  # window w's slots
        for u, sl in ((w - 1, slice(f0 if w == 1 else 0, n_slots)),
                      (w, slice(f0 if w == 0 else 0, end))):
            if u < 0 or sl.start >= sl.stop:
                continue
            v, truth = self._fill_slots(grid, fill, u, (slice(None), sl))
            self._env_v[:, sl] = v
            if self.collect_windows:
                self._env_truth[:, sl] = truth
            if u < w:  # the last complete window
                self.last_window_trace = (self.samplers[0].triggers.angles,
                                          grid.slot_i[0], self._env_v[0].copy())
        self._env_filled = (f0 // self._env_b + m) % self._env_q * self._env_b

    # -- idle (converter off) steps ------------------------------------------

    def _step_idle(self, n: int, t0: float, cap_s: float,
                   rule: Optional[Callable[["_Block"], Optional[int]]]
                   = None, done: Optional[Callable[[float], bool]] = None):
        """Advance up to n converter-off steps as one block and commit them
        through the first step that ends the idle begun at t0.

        The times alone tell whether done(t) or t - t0 > cap_s holds after
        a step, so the block ends at the first step where one does;
        rule(block) returns the first step that its own stop ends, or None.
        Returns (block, stop, capped): stop is the index of the ending step
        (None when none of the block's steps ends the idle), and capped is
        True when cap_s ended it while neither done nor rule held.
        """
        dt = 1.0 / self.cfg.f_fund
        ts, timed = self._block_times(n, t0, cap_s, done, dt)
        blk = self._idle_block(ts, dt)
        stop = None if rule is None else rule(blk)
        capped = False
        if stop is None and timed:
            stop = len(ts) - 1
            capped = done is None or not done(ts[-1])
        m = len(ts) if stop is None else stop + 1
        self.plant.i_abc = (0.0, 0.0, 0.0)
        self._commit_thermal(blk, m, dt, m)
        return blk, stop, capped

    def _idle_block(self, ts: list, dt: float) -> _Block:
        """The thermal state after each of len(ts) zero-loss steps of dt,
        both pumps on, bit for bit the state that as many _thermal_step
        calls leave.

        With no loss the stages only decay, so their temperatures are a
        running product of the step's decay coefficients, and each step's
        junction and case temperatures are one reduction over the stages.
        The plates' overload recursion runs step by step through
        th.cooling_step and th.cooling_absorb, and leaves each plate in the
        state of the block's last step; _commit_thermal takes it back to the
        last committed step.
        """
        n = len(ts)
        ct, cl, amb = self.cool_test, self.cool_load, self.ambient
        (t_ref_t, t_ref_l), (a, _, r_b, ntc_gain) = self._thermal_coeffs(
            dt, True)
        temps = np.empty((n + 1, *a.shape))
        temps[0] = self._stage_temps
        temps[1:] = a
        np.multiply.accumulate(temps, axis=0, out=temps)
        rise = temps[1:, :, -1]  # the boundary stage: case over reference
        q = np.add.reduce((rise / r_b).reshape(n, 2, -1), axis=2).tolist()
        t_ref, plates = [], []
        for i, (q_t, q_l) in enumerate(q):
            if i:
                t_ref_t = th.cooling_step(ct, True, amb)[0]
                t_ref_l = th.cooling_step(cl, True, amb)[0]
            t_ref.append((t_ref_t, t_ref_l))
            th.cooling_absorb(ct, q_t, dt)
            th.cooling_absorb(cl, q_l, dt)
            plates.append(((ct.overload_rise, ct.capacity_exceeded),
                           (cl.overload_rise, cl.capacity_exceeded)))
        # each plate's reference over its six devices
        ref = np.array(t_ref)[:, :, None]
        t_j = (ref + np.add.reduce(temps[1:], axis=2).reshape(n, 2, -1)
               ).reshape(n, -1)
        return self._block(ts, temps, t_j, t_ref, plates, ntc_gain)

    def _block(self, ts: list, temps: np.ndarray, t_j: np.ndarray,
               t_ref: list, plates: list, ntc_gain, **heat) -> _Block:
        """The record of len(ts) steps' rows and a heat block's own fields,
        with each step's case temperatures (its plate's reference plus the
        boundary stage) and the case sensors' readings now and after each
        step, bit for bit as many _thermal_step calls leave them; ntc_gain
        is the step's (_thermal_coeffs)."""
        n = len(ts)
        rise = temps[1:, :, -1]  # the boundary stage: case over reference
        t_case = (np.array(t_ref).reshape(n, 2, 1)
                  + rise.reshape(n, 2, N_DEVICES // 2)).reshape(n, N_DEVICES)
        bias = self.s.ntc.bias
        if ntc_gain is None:
            ntc = np.empty((n + 1, N_DEVICES))
            ntc[0] = self.ntc_readings
            np.add(t_case, bias, out=ntc[1:])
        else:
            # the sensors' lag on Python floats, one sensor at a time; a zero
            # bias moves no bit of the target's difference
            target = t_case + bias if bias else t_case
            g = float(ntc_gain[0])
            cols = []
            for r, col in zip(self.ntc_readings.tolist(), target.T.tolist()):
                out = [r]
                for x in col:
                    r = r + g * (x - r)
                    out.append(r)
                cols.append(out)
            ntc = np.array(cols).T
        return _Block(ts, temps, t_j, t_case, ntc, t_ref, plates, **heat)

    def _commit_thermal(self, blk, m: int, dt: float, clocked: int):
        """Take the bench to the thermal state after the first m steps of an
        idle or heat block, and the time and the trace rows to those of its
        first clocked steps (m, or m - 1 when a runaway ends the block at
        its step m - 1)."""
        i = m - 1
        self._stage_temps[...] = blk.temps[m]
        self.bank.t_j = blk.t_j[i].copy()
        self._t_case[...] = blk.t_case[i]
        self.ntc_readings = blk.ntc[m].copy()
        self._ntc_prev, self._ntc_dt = blk.ntc[i].copy(), dt
        for cool, (rise, exceeded) in zip((self.cool_test, self.cool_load),
                                          blk.plates[i]):
            cool.overload_rise, cool.capacity_exceeded = rise, exceeded
        for t, row, case in zip(blk.t, blk.t_j[:clocked].tolist(),
                                blk.t_case[:clocked, 0].tolist()):
            if t + 1e-12 >= self._trace_next_t:
                self._trace_append((t, *row, case))
        if clocked:
            self.t = blk.t[clocked - 1]

    def _phase(self, kind: str, t0: float, cap_s: float, rule=None,
               done=None, fold: Optional[np.ndarray] = None) -> bool:
        """Run the phase begun at t0 in blocks until a step ends it, a heat
        phase ("heat") through the engine's block entry, _step_envelope or
        _step_conducting, and an idle ("cool", "ambient") through
        _step_idle, which take rule, done and cap_s; folds each committed
        step's junction temperatures into fold when given (a heat phase's
        maxima, an idle's minima). Returns True when the cap ended it; a
        trip or a runaway raises from its block.

        Blocks set only the time, never the bits. A junction-swing heat
        phase begun at the ambient (the first, and the first after a
        start-up's cool-to-ambient) reads and sets the last length only
        with phases begun there too, the others only with each other.
        Without a last length, its blocks after the first run until the
        hottest test estimate, rising as over its last _RISE_STEPS steps,
        meets t_j_max under the heat rule's half-step lookahead. The
        slowing rise makes them fall short rather than over: an overshoot
        computes wasted steps and makes _commit_fill redraw the block's
        noise."""
        heat = kind == "heat"
        if not heat:
            step, most, small = (self._step_idle, self._idle_block_max,
                                 _IDLE_BLOCK_MIN)
        elif self.cfg.fidelity is Fidelity.ENVELOPE:
            step, most, small = (self._step_envelope, self._heat_block_max,
                                 _HEAT_BLOCK_MIN)
        else:
            step, most, small = (self._step_conducting,
                                 self._conducting_block_max, _HEAT_BLOCK_MIN)
        swing = (heat and done is None
                 and self.cfg.technique is Technique.JUNCTION_SWING)
        fresh = swing and not np.maximum.reduce(
            np.abs(self.bank.t_j - self.ambient)) > COOL_TO_AMBIENT_TOL
        begun, last = self._phase_steps.get(kind, (fresh, 0))
        if begun != fresh:
            last = 0
        if done is not None:  # the times bound each block, so run long ones
            sizes = itertools.repeat(most)
        else:
            # as long as the last phase of the kind, an idle a quarter
            # over it, as phases drift by a step or two
            first = last if heat else last + last // 4
            sizes = itertools.chain([first] if last else [], (
                small << k for k in itertools.count()))
        steps, hot = 0, []
        n = next(sizes)
        while True:
            blk, stop, capped = step(min(n, most), t0, cap_s, rule, done)
            m = len(blk.t) if stop is None else stop + 1
            steps += m
            if fold is not None:
                (np.maximum if heat else np.minimum).reduce(
                    np.vstack([fold, blk.t_j[:m]]), axis=0, out=fold)
            if stop is not None:
                self._phase_steps[kind] = fresh, steps
                return capped
            n = next(sizes)
            if swing and not last:
                hot += np.fmax.reduce(blk.tj_est[:m, :6], axis=1).tolist()
                w = min(len(hot) - 1, _RISE_STEPS)
                rise = (hot[-1] - hot[-1 - w]) / w if w else math.nan
                if rise > 0.0:  # min keeps an infinite count out of ceil
                    n = math.ceil(max(1.0, min(
                        most, (self.cfg.t_j_max - hot[-1]) / rise - 0.5)))

    def _thermal_coeffs(self, dt: float, pump_test: bool) -> tuple:
        """Apply the pump commands of a thermal step of dt (the load plate's
        pump always runs); returns the plates' references (test, load) and
        the step's coefficients, cached under dt, both boundary resistances,
        the bank's r_th_version and the sensors' time constant: each stage's
        decay a and heat gain r * (1 - a), each device's boundary
        resistance, and the sensors' gain per device (None without lag)."""
        t_ref_t, r_b_t = th.cooling_step(self.cool_test, pump_test,
                                         self.ambient)
        t_ref_l, r_b_l = th.cooling_step(self.cool_load, True, self.ambient)
        tau = self.s.ntc.time_constant
        key = (dt, r_b_t, r_b_l, self.bank.r_th_version, tau)
        cached = self._thermal_cache.get(key)
        if cached is None:
            # the junction-side stages, then each plate's boundary
            r = np.empty_like(self._stage_temps)
            c = np.empty_like(self._stage_temps)
            r[:, :-1] = self._stage_r
            c[:, :-1] = self._stage_c
            r[:, 0] *= self.bank.r_th_factor
            r[:6, -1], c[:6, -1] = r_b_t, self.cool_test.boundary_c
            r[6:, -1], c[6:, -1] = r_b_l, self.cool_load.boundary_c
            a = np.exp(-dt / (r * c))
            ntc_gain = None if tau <= 0 else np.full(
                N_DEVICES, 1.0 - math.exp(-dt / tau))
            if len(self._thermal_cache) > 16:
                self._thermal_cache.clear()
            cached = self._thermal_cache[key] = (
                a, r * (1.0 - a), r[:, -1].copy(), ntc_gain)
        return (t_ref_t, t_ref_l), cached

    def _thermal_step(self, p_dev: np.ndarray, dt: float, pump_test: bool):
        """Advance every device's Foster stages, the two cooling boundaries
        and the case sensors by dt under the constant losses p_dev, one
        step of the heat recursion every engine runs (_HeatRecursion),
        committed; the time and the trace stay.

        The exact update holds for any dt under piecewise-constant loss, so
        no step size is refused; envelope steps of a whole fundamental
        period rely on that. The sensors' rate is left to
        _ntc_case_estimate, its one reader. Heat steps run in blocks of
        _HeatRecursion steps (_heat_block, _conducting_block) and
        converter-off steps as _idle_block's closed form, through _phase,
        to the same bits. All take their coefficients from _thermal_coeffs.
        """
        heat = _HeatRecursion(self, 1, dt, pump_test)
        heat.step(0, np.reshape(p_dev, (N_DEVICES, 1)))
        self._commit_thermal(heat.block([self.t]), 1, dt, 0)

    def _trace_append(self, row: tuple):
        """Append a trace row (t, twelve junctions, the first case)."""
        self.thermal_trace.append(row)
        self._trace_next_t = row[0] + self.trace_stride_s
        if len(self.thermal_trace) > self._trace_cap:
            # thin adaptively so long campaigns stay bounded
            self.thermal_trace = self.thermal_trace[::2]
            self.trace_stride_s *= 2.0

    # -- phases -----------------------------------------------------------------

    def run_steady(self, duration_s: float) -> EnergyTally:
        """Continuous conducting run (no thermal cycling); used for control
        and estimator characterization."""
        if self.tally.duration == 0.0:
            self.tally.e_l_start = self._stored_link_energy()
        t_end = self.t + duration_s
        if self.t < t_end - 1e-12:
            self._phase("heat", self.t, math.inf,
                        done=lambda t: not t < t_end - 1e-12)
        self.tally.e_l_end = self._stored_link_energy()
        return self.tally

    def _stored_link_energy(self) -> float:
        i_a, i_b, i_c = self.plant.i_abc
        return 0.5 * self.cfg.link_inductance * (i_a * i_a + i_b * i_b
                                                 + i_c * i_c)

    def _heat_rule(self, t0: float, pred: "_CrossingPredictor") -> tuple:
        """The stop of the heat phase begun at t0, as the (rule, done) pair
        of the heat block entries (_step_envelope, _step_conducting):
        fixed times end on the time alone, a case swing on the hottest test
        sensor, a junction swing on the hottest finite test-bridge estimate
        through pred, fed step by step but not while no estimate is
        finite."""
        cfg = self.cfg
        if cfg.technique is Technique.FIXED_TIMES:
            return None, lambda t: t - t0 >= cfg.t_on - 1e-9
        if cfg.technique is Technique.CASE_SWING:
            return (lambda ntc, est: _first(np.maximum.reduce(
                ntc[:, :6], axis=1) >= cfg.t_case_max)), None

        def crossed(ntc, est) -> Optional[int]:
            est = est[:, :6]
            for i, hot in enumerate(np.maximum.reduce(est, axis=1).tolist()):
                if not math.isfinite(hot):  # a NaN (no window yet) or an inf
                    if not np.isfinite(est[i]).any():
                        continue
                    hot = float(np.nanmax(est[i]))
                if pred.crossed_up(hot, cfg.t_j_max):
                    return i
            return None

        return crossed, None

    def _cool_rule(self, t0: float) -> tuple:
        """The stop of the cool phase begun at t0, as the (rule, done) pair
        of _step_idle: fixed times end on the time alone, a case swing on
        the hottest test sensor, a junction swing on the cool-down
        observer's estimate through a crossing predictor fed step by
        step."""
        cfg = self.cfg
        if cfg.technique is Technique.FIXED_TIMES:
            return None, lambda t: t - t0 >= cfg.t_off - 1e-9
        if cfg.technique is Technique.CASE_SWING:
            return (lambda blk: _first(np.maximum.reduce(
                blk.ntc[1:, :6], axis=1) <= cfg.t_case_min)), None
        observer = self._make_observer()
        pred = _CrossingPredictor()

        def crossed(blk: _Block) -> Optional[int]:
            est = observer(np.array(blk.t) - t0, blk.ntc[1:, :6],
                           blk.ntc[:-1, :6])
            return next((i for i, v in enumerate(est.tolist())
                         if pred.crossed_down(v, cfg.t_j_min)), None)

        return crossed, None

    def _lag_led_out(self, now, prev, dt: float):
        """Case temperatures from sensor readings now, with the sensor's
        known first-order lag led out at their rate since prev, dt
        before."""
        return now + self.s.ntc.time_constant * ((now - prev) / dt)

    def _ntc_case_estimate(self) -> np.ndarray:
        """Case temperature of the six test devices with the sensor's known
        first-order lag led out, at the sensors' rate over the last thermal
        step."""
        return self._lag_led_out(self.ntc_readings[:6], self._ntc_prev[:6],
                                 self._ntc_dt)

    def _make_observer(self) -> Callable:
        """Junction estimate through the zero-loss cool-down.

        With the converter off the junction relaxes onto the case along the
        characterized junction-to-case stages, so the controller predicts
        t_j = case + (t_j_off - case_off) * sum_i w_i exp(-t/tau_i) from the
        datasheet stage constants and the last online estimate. The online
        resistance channel carries no current during cooling, so this is the
        only junction information available; the case comes from the NTC with
        its calibrated lag compensated.

        The observer takes n steps at once: their times since the cool
        phase began (n,) and the test sensors' readings after and before
        each idle step (n, 6), and returns the hottest estimate of each.
        """
        r = self._stage_r
        tau = r * self._stage_c
        w = r / r.sum()
        est0 = self.tj_est[:6]
        hot = np.where(np.isfinite(est0), est0, self.bank.t_j[:6])
        gap0 = hot - self._ntc_case_estimate()
        dt = 1.0 / self.cfg.f_fund

        def observer(t_cool: np.ndarray, now: np.ndarray,
                     prev: np.ndarray) -> np.ndarray:
            decay = np.add.reduce(w * np.exp(-t_cool[:, None] / tau), axis=1)
            return np.maximum.reduce(self._lag_led_out(now, prev, dt)
                                     + gap0 * decay[:, None], axis=1)

        return observer

    def run_cycle(self, cycle_index: int, startup_vth=None) -> CycleRecord:
        """One heat-up plus cool-down with technique-specific termination.

        The maximum junction temperature is tracked over the heat phase and
        the minimum over the cool phase, so the recorded swing reflects the
        controlled excursion. The caller applies the cycle's aging
        (run_campaign); startup_vth, the thresholds measured at this
        cycle's start-up, fills the record's v_th column (NaN without one).
        """
        cfg = self.cfg
        s = self.s
        t_start = self.t
        if cycle_index == 0:
            self._soft_t0 = self.t

        tj_max = self.bank.t_j.copy()
        t0 = self.t
        rule, done = self._heat_rule(t0, _CrossingPredictor())
        if self._phase("heat", t0, s.heat_cap_s, rule, done, tj_max):
            raise ThermalRunaway(
                f"heat phase exceeded {s.heat_cap_s} s without reaching its "
                "target")
        t_on_actual = self.t - t0

        tj_min = self.bank.t_j.copy()
        t0 = self.t
        rule, done = self._cool_rule(t0)
        if self._phase("cool", t0, s.cool_cap_s, rule, done, tj_min):
            self.cool_phases_capped += 1
        t_off_actual = self.t - t0

        v_th_col = startup_vth if startup_vth is not None \
            else np.full(N_DEVICES, np.nan)
        return CycleRecord(
            cycle_index=cycle_index, t_start=t_start,
            r_on_est=self.r_on_last.copy(), tj_max=tj_max, tj_min=tj_min,
            v_th=np.asarray(v_th_col, dtype=float), v_sd=self._probe_vsd(),
            t_on_actual=t_on_actual, t_off_actual=t_off_actual,
        )

    def _probe_vsd(self) -> np.ndarray:
        """Converter-idle body-diode probe at nominal current per device."""
        bank = self.bank
        return dev_mod.v_sd(bank.params, bank.params.i_nominal, bank.t_j,
                            bank.delta_vsd) + self.e_d

    # -- start-of-test measurements ---------------------------------------------

    def cool_to_ambient(self):
        """Idle until every junction is within COOL_TO_AMBIENT_TOL of the
        ambient, for at most COOL_TO_AMBIENT_CAP_S."""
        def settled(t_j):
            return ~(np.maximum.reduce(np.abs(t_j - self.ambient), axis=-1)
                     > COOL_TO_AMBIENT_TOL)

        if not settled(self.bank.t_j) and self._phase(
                "ambient", self.t, COOL_TO_AMBIENT_CAP_S,
                lambda blk: _first(settled(blk.t_j))):
            self.startup_idles_capped += 1

    def startup_measurements(self) -> StartupResult:
        """Idle-bench threshold and ambient on-resistance measurements, then
        lookup-table recalibration and protection-threshold compensation.

        The first measurement of each device freezes its threshold baseline;
        later shifts split the resistance offset into oxide and package
        contributions.
        """
        s = self.s
        i_cal = self.i_cal
        v_th_m = np.empty(N_DEVICES)
        r_amb = np.empty(N_DEVICES)
        d_hat = np.empty(N_DEVICES)
        offs = np.empty(N_DEVICES)
        offs_pkg = np.empty(N_DEVICES)
        sigma = s.sense_params.noise_sigma
        bank = self.bank
        v_cal = dev_mod.conduction_voltage(
            bank.params, i_cal, self.ambient, bank.params.gate_on_v,
            bank.delta_pkg, bank.delta_vth, bank.delta_vsd)
        for k in range(N_DEVICES):
            v_th_m[k] = sns.measure_vth(
                bank.params, float(bank.t_j[k]), self.ambient, s.sense_params,
                float(bank.delta_vth[k]), rng=self.rng)
            if not np.isfinite(self.baseline_vth[k]):
                self.baseline_vth[k] = v_th_m[k]
            d_hat[k] = max(0.0, v_th_m[k] - self.baseline_vth[k])
            noise = self.rng.normal(0.0, sigma / math.sqrt(s.sampler_n)) \
                if sigma > 0 else 0.0
            r_amb[k] = (v_cal[k] + self.e_d[k] + noise) / i_cal
            lut = smp.recalibrate_lut(self._base_lut, float(r_amb[k]),
                                      self.ambient, i_cal, float(d_hat[k]))
            self.luts[k] = lut
            offs[k] = lut.offset
            offs_pkg[k] = lut.offset_pkg
            if self.desat_base.compensated or self.s.desat_calibrated:
                self.desat_thr[k] = sns.compensate_desat_threshold(
                    self.desat_base, float(d_hat[k]), bank.params).threshold
        res = StartupResult(v_th=v_th_m, r_on_ambient=r_amb,
                            delta_vth_hat=d_hat, lut_offsets=offs,
                            lut_offsets_pkg=offs_pkg)
        self.startup_log.append(res)
        self._env_tj_cols = None  # recalibrated tables invalidate cached columns
        self._env_desat = None  # and new thresholds the envelope's column
        return res

    # -- campaign -----------------------------------------------------------------

    def run_campaign(self, collect_windows: bool = False) -> RunResult:
        self.collect_windows = collect_windows
        s = self.s
        records: list[CycleRecord] = []
        tracker = WarningTracker(s.policy)
        status, reason = "ok", ""
        for c in range(self.cfg.n_cycles):
            due = (c == 0) if s.startup_every <= 0 else (c % s.startup_every == 0)
            self.bank.apply_trajectories(s.trajectory, s.r_th_aging, c,
                                         self._mask_aging)
            v_th = None
            try:
                if due:
                    if c > 0:
                        self.cool_to_ambient()
                    v_th = self.startup_measurements().v_th
                rec = self.run_cycle(c, startup_vth=v_th)
            except ProtectionTrip as e:
                status, reason = "protection_trip", str(e)
                break
            except ThermalRunaway as e:
                status, reason = "thermal_runaway", str(e)
                break
            except (smp.AmbientMismatch, sns.VthMeasureTimeout,
                    sns.NotAtAmbient, sns.OverdriveCollapse) as e:
                status = "measurement_failed"
                reason = f"{type(e).__name__}: {e}"
                break
            rec.warnings = tuple(sorted(tracker.update(rec)))
            records.append(rec)
        return RunResult(records=records, status=status, reason=reason,
                         cycles_completed=len(records),
                         cool_phases_capped=self.cool_phases_capped,
                         startup_idles_capped=self.startup_idles_capped)

    # -- steady-state characterization --------------------------------------------

    def measure_operating_point(self, n_cycles: int = 2) -> dict:
        """Cycle-averaged dq voltage/current of the test bridge and the phase
        angle between them (degrees, wrapped to (-180, 180])."""
        cfg = self.cfg
        steps = int(round(n_cycles * cfg.f_sw / cfg.f_fund))
        sv = np.zeros(2)
        si = np.zeros(2)
        rows = self._step_conducting(steps)[0].rows
        for theta, i0, d_test in zip(rows.theta,
                                     np.reshape(rows.i0, (-1, 3)).tolist(),
                                     np.reshape(rows.d_test, (-1, 3)).tolist()):
            v_a, v_b, v_c = (d * cfg.v_dc for d in d_test)
            v0 = (v_a + v_b + v_c) / 3
            sv += park(v_a - v0, v_b - v0, v_c - v0, theta)
            si += park(*i0, theta)
        sv /= steps
        si /= steps
        ang = dq_phase_deg(sv[0], sv[1]) - dq_phase_deg(si[0], si[1])
        ang = (ang + 180.0) % 360.0 - 180.0
        return {"v_dq": (sv[0], sv[1]), "i_dq": (si[0], si[1]),
                "i_mag": math.hypot(si[0], si[1]),
                "theta_v_minus_i_deg": ang}
