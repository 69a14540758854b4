"""Per-layer tracing for the benchmark, done from the benchmark's own files.

The program is never edited: each boundary below names the attribute(s)
through which the bench calls a layer, and `Tracer` replaces them with
timing wrappers for the duration of a `with` block, then puts the originals
back. Self time is a span's duration minus the time covered by the wrapped
spans it encloses, so self times add up to the traced wall time.

`BOUNDARIES` is the one table of boundaries. Each row also states which
end-to-end metric the boundary should move and on which workloads, so a
later change can say beforehand which numbers it expects to move.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter_ns

ALL = ("envelope_campaign", "averaged_steady", "envelope_budgeted")
ENVELOPE = ("envelope_campaign", "envelope_budgeted")
CAMPAIGN = ("envelope_campaign",)
STEADY = ("averaged_steady",)
BUDGETED = ("envelope_budgeted",)


@dataclass(frozen=True)
class Boundary:
    name: str
    sites: tuple     # ("module", "attr" or "Class.attr") pairs, all wrapped
    predicts: tuple  # (end-to-end metric, workloads) it should move; no
                     # change is predicted on any other workload


def _b(name, sites, *predicts):
    return Boundary(name, tuple(sites), predicts)


_CLI = "acpcsim.cli"
_CYC = "acpcsim.cycling"
_SMP = "acpcsim.sampler"
SETUP = ("setup_s", ALL)
CYCLES = ("cycles_per_s", ENVELOPE)
SIM = ("sim_s_per_wall_s", STEADY)

BOUNDARIES = (
    _b("cli.run", [(_CLI, "run")], ("scenarios_per_s", ENVELOPE)),
    _b("cli.parse_scenario", [(_CLI, "parse_scenario")], ("setup_s", ENVELOPE)),
    _b("cli.build_settings", [(_CLI, "build_settings")], ("setup_s", ENVELOPE)),
    _b("cli.write_precursors", [(_CLI, "write_precursors")],
       ("scenarios_per_s", ENVELOPE)),
    _b("cli.write_thermal_trace", [(_CLI, "write_thermal_trace")],
       ("scenarios_per_s", ENVELOPE)),
    _b("cli.write_sampling_trace", [(_CLI, "write_sampling_trace")],
       ("scenarios_per_s", ENVELOPE)),
    _b("core.validate_scenario",
       [("acpcsim.core", "validate_scenario"), (_CLI, "validate_scenario"),
        (_CYC, "validate_scenario")], SETUP),
    _b("cycling.bench_init", [(_CYC, "TestBench.__init__")], SETUP),
    _b("cycling.run_campaign", [(_CYC, "TestBench.run_campaign")], CYCLES),
    _b("cycling.run_steady", [(_CYC, "TestBench.run_steady")], SIM),
    _b("cycling.run_cycle", [(_CYC, "TestBench.run_cycle")], CYCLES),
    _b("cycling.step_envelope", [(_CYC, "TestBench._step_envelope")], CYCLES),
    _b("cycling.step_idle", [(_CYC, "TestBench._step_idle")], CYCLES),
    _b("cycling.startup_measurements",
       [(_CYC, "TestBench.startup_measurements")], ("cycles_per_s", CAMPAIGN)),
    _b("cycling.cool_to_ambient", [(_CYC, "TestBench.cool_to_ambient")],
       ("cycles_per_s", CAMPAIGN)),
    _b("cycling.step_conducting", [(_CYC, "TestBench._step_conducting")], SIM),
    _b("cycling.capture", [(_CYC, "TestBench._capture")], SIM),
    _b("cycling.protection", [(_CYC, "TestBench._protection")], SIM),
    _b("electrical.control_step", [(_CYC, "control_step")], SIM),
    _b("electrical.plant_step", [(_CYC, "plant_step")], SIM),
    _b("device.conduction", [(_CYC, "DeviceBank.conduction")], SIM, CYCLES),
    _b("device.v_sd", [("acpcsim.device", "v_sd")], CYCLES),
    _b("device.conduction_voltage",
       [("acpcsim.device", "conduction_voltage")], CYCLES),
    _b("thermal.bench_step", [(_CYC, "TestBench._thermal_step")], SIM, CYCLES),
    _b("thermal.cooling_step", [("acpcsim.thermal", "cooling_step")],
       SIM, CYCLES),
    _b("thermal.cooling_absorb", [("acpcsim.thermal", "cooling_absorb")],
       SIM, CYCLES),
    _b("sense.measure_vth", [("acpcsim.sense", "measure_vth")],
       ("cycles_per_s", CAMPAIGN)),
    _b("sampler.recalibrate_lut", [(_SMP, "recalibrate_lut")],
       ("cycles_per_s", CAMPAIGN)),
    _b("sampler.envelope_fill", [(_CYC, "TestBench._envelope_fill_batched")],
       ("cycles_per_s", CAMPAIGN)),
    _b("sampler.finish_window", [(_CYC, "TestBench._finish_window")],
       SIM, ("cycles_per_s", BUDGETED)),
    _b("sampler.triggers_in_interval", [(_SMP, "triggers_in_interval")], SIM),
    _b("sampler.update_interval", [(_SMP, "sampler_update_interval")], SIM),
    _b("sampler.estimate_ron", [(_SMP, "estimate_ron")],
       SIM, ("cycles_per_s", BUDGETED)),
    _b("sampler.estimate_tj", [(_SMP, "estimate_tj")],
       SIM, ("cycles_per_s", BUDGETED)),
    _b("sampler.build_ron_lut", [(_SMP, "build_ron_lut")], SETUP),
)

# derived per-layer quantities reported beside the boundaries; the last,
# the host's speed during the untraced loop, is added by run.py
RATIOS = (("sampler.windows", "count", "higher"),
          ("sampler.out_of_grid_frac", "ratio", "lower"),
          ("sampler.capture_hit_ratio", "ratio", "higher"),
          ("trace.overhead_s", "s", "lower"),
          ("host.probe_ms", "ms", "lower"))


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for b in BOUNDARIES:
        out += [(f"{b.name}.calls", "count", "lower"),
                (f"{b.name}.self_s", "s", "lower"),
                (f"{b.name}.us_per_call", "us", "lower")]
    return out + list(RATIOS)


def _resolve(module: str, attr: str):
    """(owner, leaf name) for a site, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if leaf not in vars(owner) or not callable(vars(owner)[leaf]):
        return None
    return owner, leaf


class Tracer:
    """Wraps every boundary site while the `with` block runs.

    Sites that no longer exist are listed in `missing` and skipped. On exit
    every wrapped attribute is restored and checked to be the original.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.calls = {b.name: 0 for b in boundaries}
        self.self_ns = {b.name: 0 for b in boundaries}
        self.total_ns = {b.name: 0 for b in boundaries}
        self.out_of_grid = 0   # estimate_tj results flagged out of grid
        self.stored = 0        # update_interval calls that stored a slot
        self.missing: list[str] = []
        self._saved: list = []
        self._stack: list[int] = []

    def __enter__(self):
        try:
            for b in self.boundaries:
                for module, attr in b.sites:
                    site = _resolve(module, attr)
                    if site is None:
                        self.missing.append(f"{b.name} ({module}:{attr})")
                        continue
                    owner, leaf = site
                    original = vars(owner)[leaf]
                    self._saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(b.name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        stale = [leaf for owner, leaf, original in self._saved
                 if vars(owner)[leaf] is not original]
        self._saved = []
        if stale:
            raise RuntimeError(f"tracer failed to restore {stale}")

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        observe = {"sampler.estimate_tj": self._observe_tj,
                   "sampler.update_interval": self._observe_store}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                self_ns[name] += dur - child
                total_ns[name] += dur
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_tj(self, result):
        self.out_of_grid += bool(result.out_of_grid)

    def _observe_store(self, stored):
        self.stored += stored > 0

    def metrics(self, n_devices: int, overhead_s: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for b in self.boundaries:
            n = self.calls[b.name]
            out[f"{b.name}.calls"] = (n, "count")
            out[f"{b.name}.self_s"] = (self.self_ns[b.name] * 1e-9, "s")
            out[f"{b.name}.us_per_call"] = (
                self.total_ns[b.name] * 1e-3 / n if n else 0.0, "us")
        c = self.calls
        # the batched envelope fill completes a window on every device per
        # call; every other window ends in _finish_window
        windows = c["sampler.finish_window"] \
            + n_devices * c["sampler.envelope_fill"]
        # each update_interval call repeats the search its caller just made
        searches = c["sampler.triggers_in_interval"] \
            - c["sampler.update_interval"]
        tj_calls = c["sampler.estimate_tj"]
        out["sampler.windows"] = (windows, "count")
        out["sampler.out_of_grid_frac"] = (
            self.out_of_grid / tj_calls if tj_calls else 0.0, "ratio")
        out["sampler.capture_hit_ratio"] = (
            self.stored / searches if searches > 0 else 0.0, "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
