"""DESAT-integrated measurement circuit emulation.

One circuit per switch serves three duties: on-state drain-source voltage
sensing (for on-resistance), body-diode voltage sensing in the third
quadrant, and a two-mode threshold-voltage measurement in which the bias
current source first charges the gate and then feeds the conducting channel.
The same sense path drives desaturation protection, whose pin voltage is

    v_desat = i_desat * r_s + 2 * v_d_hv + v_ds;

the bench's blanked comparator on it is cycling.TestBench._protection.

A sensed drop is the true drop plus the mismatch e_d of the two blocking
diodes, a per-device constant of a fraction of a millivolt drawn once from
E_D_RANGE. The bench adds it where it reads the drops: its capture
(cycling.TestBench._capture and the envelope fills), which also adds seeded
output noise, and its body-diode probe (cycling.TestBench._probe_vsd),
which adds the mismatch alone.

The threshold measurement and the DESAT compensation take the device's
DeviceParams plus its own junction temperature and threshold shift, which
the bench reads from its DeviceBank arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import device as dev_mod


class VthMeasureTimeout(RuntimeError):
    """Channel conduction never reached (for instance an open gate)."""


class NotAtAmbient(RuntimeError):
    """Threshold measurement requires the device settled at ambient."""


class OverdriveCollapse(RuntimeError):
    """Aging shift leaves too little gate overdrive to compensate for."""


E_D_RANGE = (0.3e-3, 1.6e-3)  # measured mismatch span across devices, V
AMBIENT_TOL = 1.5  # degC a threshold measurement accepts from the ambient
OVERDRIVE_MARGIN = 1.0  # V of gate overdrive the DESAT compensation keeps


@dataclass
class SenseCircuitParams:
    i_desat: float = 1e-3        # measurement-mode bias current, A
    i_desat_vth: float = 2e-3    # threshold-mode bias current, A
    r_s: float = 1000.0          # series resistor, ohm
    v_d_hv: float = 0.7          # nominal drop per blocking diode, V
    noise_sigma: float = 2e-3    # additive output noise, V (seeded)
    vth_timeout: float = 0.2     # gate-fault detection horizon, s

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if not self.i_desat_vth > 0:  # the threshold ramp divides by it
            raise ValueError("i_desat_vth must be positive")
        if not self.vth_timeout > 0:  # NaN would never end the ramp
            raise ValueError("vth_timeout must be positive")


@dataclass
class DesatConfig:
    threshold: float = 9.0   # DESAT pin trip level, V
    blanking: float = 2e-6   # continuous exceedance required, s
    compensated: bool = False

    def __post_init__(self):
        if self.threshold <= 0 or self.blanking <= 0:
            raise ValueError("threshold and blanking must be positive")


def measure_vth(p: dev_mod.DeviceParams, t_j: float, t_ambient: float,
                sense: SenseCircuitParams, delta_vth: float,
                rng: Optional[np.random.Generator] = None) -> float:
    """Two-mode threshold measurement at the elevated bias current of a
    device at junction temperature t_j whose threshold has shifted by
    delta_vth.

    Mode 1 charges the gate capacitance with the bias source; mode 2 begins
    when the diode-connected channel sinks the full bias current, and the
    settled gate voltage is returned. Requires the converter idle with the
    device settled within AMBIENT_TOL of the ambient, so no
    junction-temperature compensation is needed.
    """
    if abs(t_j - t_ambient) > AMBIENT_TOL:
        raise NotAtAmbient(
            f"device at {t_j:.1f} degC, ambient {t_ambient:.1f} degC")
    i_src = sense.i_desat_vth
    v_th_true = dev_mod.threshold_voltage(p, t_ambient, delta_vth)
    v_rail = p.gate_on_v + 5.0  # charge source headroom above the drive level

    # Mode 1 is a pure constant-current ramp while the channel is cut off
    # (the square-law current is identically zero below threshold); jump it.
    v = 0.0
    t = 0.0
    if v_th_true > 0:
        t = p.c_gs * v_th_true / i_src
        v = v_th_true
    if v_th_true > v_rail or t > sense.vth_timeout:
        raise VthMeasureTimeout("channel never conducted the bias current")

    if p.k_sat <= 0:
        raise VthMeasureTimeout("channel never conducted the bias current")
    # settle-region time constant: c_gs / (k_sat * overdrive at balance)
    tau_settle = p.c_gs / math.sqrt(2.0 * i_src * p.k_sat)
    dt = tau_settle / 4.0
    while True:
        i_ch = 0.5 * p.k_sat * max(v - v_th_true, 0.0) ** 2
        if i_ch >= i_src * (1.0 - 1e-9):
            break
        v += (i_src - i_ch) / p.c_gs * dt
        t += dt
        if not (v <= v_rail and t <= sense.vth_timeout):  # NaN too
            raise VthMeasureTimeout("channel never conducted the bias current")
    noise = float(rng.normal(0.0, sense.noise_sigma)) \
        if rng is not None and sense.noise_sigma > 0 else 0.0
    return v + noise


def desat_voltage(p: SenseCircuitParams, v_ds: float) -> float:
    """DESAT pin voltage while the switch is on."""
    return p.i_desat * p.r_s + 2.0 * p.v_d_hv + v_ds


def compensate_desat_threshold(cfg: DesatConfig, delta_vth_measured: float,
                               p: dev_mod.DeviceParams) -> DesatConfig:
    """Raise the trip level by the channel-model on-state drop growth.

    The measured threshold shift predicts the extra drop at nominal current
    and the gate drive, i_nominal * device.channel_shift at the reference
    temperature; the new config is flagged compensated. Refuses to
    compensate once the remaining overdrive is at most OVERDRIVE_MARGIN.
    """
    v_gs = p.gate_on_v
    ov0 = v_gs - p.v_th0
    if ov0 - delta_vth_measured <= OVERDRIVE_MARGIN:
        raise OverdriveCollapse(
            f"overdrive {ov0 - delta_vth_measured:.2f} V below margin "
            f"{OVERDRIVE_MARGIN} V")
    rise = p.i_nominal * dev_mod.channel_shift(p, p.t0, v_gs, delta_vth_measured)
    return replace(cfg, threshold=cfg.threshold + rise, compensated=True)


# ---------------------------------------------------------------------------
# Transient-overvoltage clamp sizing
# ---------------------------------------------------------------------------

@dataclass
class MovRating:
    v_steady: float   # continuous voltage rating, V
    v_clamp: float    # clamping voltage, V
    e_rating: float   # single-pulse energy capability, J


@dataclass
class MovBenchParams:
    v_dc: float
    v_module_max: float
    inductance_per_phase: float
    i_peak: float
    c_dc: float = 0.0


@dataclass
class MovVerdict:
    steady_ok: bool
    clamp_ok: bool
    energy_ok: bool
    energy_required: float

    @property
    def passed(self) -> bool:
        return self.steady_ok and self.clamp_ok and self.energy_ok


def mov_check(mov: MovRating, bench: MovBenchParams) -> MovVerdict:
    """Apply the three clamp selection rules against the bench energetics.

    1) continuous rating above the bus voltage, 2) clamping below the module
    maximum, 3) enough energy for the three inductor dumps plus the bus
    capacitor swing up to the clamp level.
    """
    e_req = 3.0 * 0.5 * bench.inductance_per_phase * bench.i_peak ** 2 \
        + 0.5 * bench.c_dc * (mov.v_clamp ** 2 - bench.v_dc ** 2)
    return MovVerdict(
        steady_ok=mov.v_steady > bench.v_dc,
        clamp_ok=mov.v_clamp < bench.v_module_max,
        energy_ok=mov.e_rating >= e_req,
        energy_required=e_req,
    )
