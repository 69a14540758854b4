"""Shared bench types, unit conventions, and scenario validation.

Units are SI throughout (volts, amperes, ohms, henries, seconds, hertz,
watts) except temperatures, which are degrees Celsius. Angles are radians
internally; degrees are accepted only at the configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Raised when a scenario is inconsistent. Carries the offending field path."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class PfMode(str, Enum):
    MOTOR = "motor"          # load current in phase with test voltage
    GENERATOR = "generator"  # load current in antiphase with test voltage
    CUSTOM = "custom"        # arbitrary voltage-to-current angle


class Technique(str, Enum):
    FIXED_TIMES = "fixed_times"        # constant heat/cool durations
    CASE_SWING = "case_swing"          # hysteresis on the case sensor reading
    JUNCTION_SWING = "junction_swing"  # hysteresis on the estimated junction temperature


class Fidelity(str, Enum):
    SWITCHED = "switched"    # pole voltages toggled inside the PWM period
    AVERAGED = "averaged"    # one step per PWM period, duty-averaged voltages
    ENVELOPE = "envelope"    # one step per fundamental period, quasi-static electrical


# Number of plant sub-steps per PWM period in switched mode. Keeps at least
# 64 samples of duty resolution inside each carrier period.
SWITCHED_SUBSTEPS = 64


@dataclass(frozen=True)
class BenchConfig:
    """Full parameterization of one power-cycling scenario.

    Technique-specific fields are optional; validation fills defaults for the
    selected technique and clears the fields of the unselected ones.
    """

    v_dc: float = 800.0                 # DC-link voltage, V (not stated by the bench datasheet; EV-class default)
    f_sw: float = 22_000.0              # switching frequency, Hz
    f_fund: float = 50.0                # fundamental frequency, Hz
    modulation_index: float = 0.9       # open-loop test-inverter depth, 0..1
    pf_mode: PfMode = PfMode.MOTOR
    pf_angle_rad: Optional[float] = None  # only for PfMode.CUSTOM (voltage minus current angle)
    i_ref_peak: float = 400.0           # commanded peak phase current, A
    link_inductance: float = 700e-6     # per phase, H
    link_resistance: float = 5e-3       # per phase, ohm
    technique: Technique = Technique.FIXED_TIMES
    t_on: Optional[float] = None        # technique 1, s
    t_off: Optional[float] = None       # technique 1, s
    t_case_max: Optional[float] = None  # technique 2, degC
    t_case_min: Optional[float] = None  # technique 2, degC
    t_j_max: Optional[float] = None     # technique 3, degC
    t_j_min: Optional[float] = None     # technique 3, degC
    n_cycles: int = 10
    rng_seed: int = 1
    fidelity: Fidelity = Fidelity.AVERAGED
    ambient_c: float = 25.0

    @property
    def pf_angle(self) -> float:
        """Commanded voltage-to-current angle, radians."""
        if self.pf_mode is PfMode.MOTOR:
            return 0.0
        if self.pf_mode is PfMode.GENERATOR:
            return math.pi
        return self.pf_angle_rad or 0.0


_TECHNIQUE_DEFAULTS = {
    Technique.FIXED_TIMES: {"t_on": 2.0, "t_off": 3.0},
    Technique.CASE_SWING: {"t_case_max": 90.0, "t_case_min": 40.0},
    Technique.JUNCTION_SWING: {"t_j_max": 150.0, "t_j_min": 50.0},
}
_TECHNIQUE_FIELDS = ("t_on", "t_off", "t_case_max", "t_case_min", "t_j_max", "t_j_min")


def _require(cond: bool, field: str, reason: str):
    if not cond:
        raise ConfigError(field, reason)


def validate_scenario(cfg: BenchConfig) -> BenchConfig:
    """Normalize and validate a bench configuration.

    Fills defaults for the selected technique, clears the fields of the
    unselected techniques, and rejects inconsistent settings. Idempotent:
    validating a validated config returns an equal config.
    """
    _require(cfg.v_dc > 0, "v_dc", "must be positive")
    _require(cfg.f_sw > 0, "f_sw", "must be positive")
    _require(cfg.f_fund > 0, "f_fund", "must be positive")
    _require(cfg.f_sw > 10.0 * cfg.f_fund, "f_sw",
             f"must exceed 10x the fundamental ({cfg.f_sw} <= 10*{cfg.f_fund})")
    _require(0.0 <= cfg.modulation_index <= 1.0, "modulation_index",
             f"must lie in [0, 1], got {cfg.modulation_index}")
    _require(cfg.i_ref_peak > 0, "i_ref_peak", "must be positive")
    _require(cfg.link_inductance > 0, "link_inductance", "must be positive")
    _require(cfg.link_resistance >= 0, "link_resistance", "must be nonnegative")
    _require(cfg.n_cycles >= 1, "n_cycles", "must be at least 1")
    _require(-60.0 <= cfg.ambient_c <= 80.0, "ambient_c", "outside plausible range")

    if cfg.pf_mode is PfMode.CUSTOM:
        _require(cfg.pf_angle_rad is not None, "pf_angle_rad",
                 "required for custom power-factor mode")
        pf_angle = math.remainder(float(cfg.pf_angle_rad), TWO_PI)
    else:
        pf_angle = None

    # Keep only the selected technique's fields, filling documented defaults.
    fills = dict.fromkeys(_TECHNIQUE_FIELDS, None)
    for name, default in _TECHNIQUE_DEFAULTS[cfg.technique].items():
        current = getattr(cfg, name)
        fills[name] = float(default if current is None else current)

    if cfg.technique is Technique.FIXED_TIMES:
        _require(fills["t_on"] > 0, "t_on", "must be positive")
        _require(fills["t_off"] > 0, "t_off", "must be positive")
    elif cfg.technique is Technique.CASE_SWING:
        _require(fills["t_case_max"] > fills["t_case_min"], "t_case_max",
                 "must exceed t_case_min")
        _require(fills["t_case_min"] > cfg.ambient_c - 5.0, "t_case_min",
                 "unreachable below ambient")
    else:
        _require(fills["t_j_max"] > fills["t_j_min"], "t_j_max",
                 "must exceed t_j_min")
        _require(fills["t_j_min"] > cfg.ambient_c - 5.0, "t_j_min",
                 "unreachable below ambient")
        _require(fills["t_j_max"] <= 200.0, "t_j_max", "outside simulation envelope")

    return replace(cfg, pf_angle_rad=pf_angle, **fills)


def wrap_angle(theta: float) -> float:
    """Map any angle into [0, 2*pi)."""
    return theta % TWO_PI

