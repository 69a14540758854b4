"""acpcsim: electro-thermal simulation of a dual-inverter AC power-cycling
bench for SiC power modules, with the online condition-monitoring chain
(drain-source/body-diode/threshold sensing, out-of-order equivalent-time
sampling, FIR filtering, and lookup-table junction-temperature estimation).
"""

from .core import (BenchConfig, ConfigError, Fidelity, PfMode, Technique,
                   validate_scenario)
from .cycling import (BenchSettings, CycleRecord, ProtectionTrip, RunResult,
                      TestBench, ThermalRunaway, WarningPolicy,
                      default_settings, energy_audit)
from .device import (AgingTrajectory, DeviceParams, module_400a, vendor_a,
                     vendor_b)

__version__ = "0.1.0"

__all__ = [
    "AgingTrajectory", "BenchConfig", "BenchSettings", "ConfigError",
    "CycleRecord", "DeviceParams", "Fidelity", "PfMode", "ProtectionTrip",
    "RunResult", "TestBench", "Technique", "ThermalRunaway", "WarningPolicy",
    "default_settings", "energy_audit", "module_400a", "validate_scenario",
    "vendor_a", "vendor_b", "__version__",
]
