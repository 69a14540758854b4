"""Per-device Foster thermal network from junction to case, the on/off
liquid-cooling boundary of each plate from case to coolant/ambient with
finite transfer capacity, and the parameters of the lagged case-temperature
(NTC) sensor.

The bench advances all twelve devices at once in
cycling._HeatRecursion: the network's junction-side stages (with
die-attach aging on the first), then the case-to-reference boundary stage of
the device's plate, which the plate's CoolingState owns and whose resistance
follows the pump. Each stage takes the exact single-pole update
T <- T*exp(-dt/tau) + P*R*(1 - exp(-dt/tau)), which is unconditionally
stable and makes the per-stage energy balance analytic. Every phase runs
as blocks of those steps (TestBench._idle_block with the converter off;
TestBench._heat_block and TestBench._conducting_block in the envelope's and
the averaged and switched engines' heat phases), which one driver,
TestBench._phase, runs, to the same bits whatever the block sizes, which
only set the time: the driver sizes a heat phase's blocks from the last
comparable phase's length, or from the estimate's rise toward its stop.
Within a heat block only the electro-thermal recursion runs step by step
(the envelope's law on the channel-alone path while no reverse drop reaches
a knee, DeviceBank.conduction); cooling_step and cooling_absorb still
advance the plates one step at a time. Every step
takes its pump commands and its coefficients from one owner,
TestBench._thermal_coeffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class FosterStage:
    r_th: float  # K/W
    c_th: float  # J/K

    def __post_init__(self):
        # written so that a NaN fails too
        if not (self.r_th > 0 and self.c_th > 0):
            raise ValueError("stage r_th and c_th must be positive")


@dataclass
class FosterNetwork:
    """Junction-side series of parallel RC pairs; the case-to-reference
    boundary stage is the plate's (CoolingState)."""

    stages: list[FosterStage]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("need at least one stage")


@dataclass
class CoolingState:
    """On/off liquid-cooling boundary of one plate with a finite-capacity
    reservoir: its settings, then its runtime state.

    While the pump runs, heat delivered beyond max_heat accumulates in the
    coolant loop, so the effective reference temperature ramps and the
    overload is flagged (latching). The coolant is supplied at the ambient
    that cooling_step is given unless coolant_temp is set; with the pump
    off the plate sits in still air at that ambient.
    """

    coolant_temp: Optional[float] = None  # supply, degC; None: the ambient
    r_boundary_on: float = 0.4    # K/W, case to coolant with the pump running
    r_boundary_off: float = 2.0   # K/W, case to still air with the pump off
    boundary_c: float = 12.5      # J/K, heat capacity of the boundary stage
    max_heat: float = 1500.0      # W per cooling plate
    reservoir_c: float = 500.0    # J/K effective coolant-loop capacity
    pump_on: bool = True
    overload_rise: float = 0.0
    capacity_exceeded: bool = False

    def __post_init__(self):
        if not self.boundary_c > 0:  # a NaN fails too
            raise ValueError("boundary_c must be positive")
        if not self.r_boundary_on > 0:  # a NaN fails too
            raise ValueError("pump-on boundary resistance must be positive")
        if not self.r_boundary_on < self.r_boundary_off:
            raise ValueError("pump-on boundary must be the lower resistance")
        # cooling_absorb divides by the loop's capacity; inf is a loop that
        # no excess warms, and a max_heat of inf a plate rated for any heat
        if not self.reservoir_c > 0:  # a NaN fails too
            raise ValueError("reservoir_c must be positive")
        if not self.max_heat >= 0:  # a NaN fails too
            raise ValueError("max_heat must be at least 0")


def cooling_step(state: CoolingState, pump_on: bool, ambient: float
                 ) -> tuple[float, float]:
    """Apply the pump command at the ambient temperature ambient (degC);
    returns the (t_ref, r_boundary) pair."""
    state.pump_on = pump_on
    if pump_on:
        supply = ambient if state.coolant_temp is None \
            else state.coolant_temp
        return supply + state.overload_rise, state.r_boundary_on
    return ambient, state.r_boundary_off


def cooling_absorb(state: CoolingState, q_watts: float, dt: float) -> None:
    """Track plate loading. Heat beyond the rated transfer warms the coolant
    loop; slack below the rating lets it recover toward the supply
    temperature, so only a sustained overload ramps without bound. The
    overload flag latches."""
    if not state.pump_on:
        return
    excess = q_watts - state.max_heat
    if excess > 0:
        state.overload_rise += excess * dt / state.reservoir_c
        state.capacity_exceeded = True
    elif state.overload_rise > 0.0:
        state.overload_rise = max(
            0.0, state.overload_rise + excess * dt / state.reservoir_c)


@dataclass
class NtcModel:
    """Case sensor: constant bias plus a first-order lag (0 means none)."""

    bias: float = 0.0          # degC, constant reading offset
    time_constant: float = 0.1  # s, first-order sensor lag

    def __post_init__(self):
        if self.time_constant < 0:
            raise ValueError("time_constant must be nonnegative")


def default_network(total_r_jc: float = 0.09) -> FosterNetwork:
    """Stock three-stage junction-to-case network with taus of 1 ms / 30 ms /
    0.5 s; with the stock cooling boundary (tau 5 s) the devices see four
    stages. The split is synthetic (no vendor transient data for these
    modules); the total junction-to-reference resistance is sized so rated
    losses give roughly a 100 degC rise. Resistances scale with total_r_jc."""
    shares = (0.22, 0.45, 0.33)
    taus = (1e-3, 30e-3, 0.5)
    return FosterNetwork(stages=[
        FosterStage(r_th=s * total_r_jc, c_th=t / (s * total_r_jc))
        for s, t in zip(shares, taus)])
