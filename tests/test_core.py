import ast
import math
from pathlib import Path

import pytest

import acpcsim
from acpcsim.core import (BenchConfig, ConfigError, PfMode, Technique,
                          validate_scenario, wrap_angle)
from acpcsim.cycling import TestBench, default_settings


def test_defaults_accepted():
    cfg = validate_scenario(BenchConfig())
    assert cfg.f_sw == 22_000.0
    assert cfg.f_fund == 50.0
    # technique defaults filled
    assert cfg.t_on == 2.0 and cfg.t_off == 3.0


def test_modulation_index_out_of_range_rejected():
    with pytest.raises(ConfigError) as e:
        validate_scenario(BenchConfig(modulation_index=1.3))
    assert e.value.field == "modulation_index"


def test_junction_swing_accepts_and_ignores_other_fields():
    cfg = validate_scenario(BenchConfig(
        technique=Technique.JUNCTION_SWING, t_j_max=150.0, t_j_min=50.0,
        t_on=9.9, t_case_max=80.0))
    assert cfg.t_j_max == 150.0 and cfg.t_j_min == 50.0
    assert cfg.t_on is None and cfg.t_off is None
    assert cfg.t_case_max is None and cfg.t_case_min is None


def test_swing_ordering_enforced():
    with pytest.raises(ConfigError) as e:
        validate_scenario(BenchConfig(technique=Technique.JUNCTION_SWING,
                                      t_j_max=50.0, t_j_min=150.0))
    assert "t_j_max" in str(e.value)


def test_switching_frequency_ratio_enforced():
    with pytest.raises(ConfigError):
        validate_scenario(BenchConfig(f_sw=400.0, f_fund=50.0))


def test_custom_pf_requires_angle():
    with pytest.raises(ConfigError):
        validate_scenario(BenchConfig(pf_mode=PfMode.CUSTOM))
    cfg = validate_scenario(BenchConfig(pf_mode=PfMode.CUSTOM,
                                        pf_angle_rad=math.radians(30.0)))
    assert abs(cfg.pf_angle - math.radians(30.0)) < 1e-15


def test_validation_idempotent():
    base = BenchConfig(technique=Technique.CASE_SWING, t_case_max=95.0,
                       t_case_min=42.0, modulation_index=0.73)
    once = validate_scenario(base)
    assert validate_scenario(once) == once


def test_pf_angle_convention():
    assert validate_scenario(BenchConfig()).pf_angle == 0.0
    gen = validate_scenario(BenchConfig(pf_mode=PfMode.GENERATOR))
    assert gen.pf_angle == math.pi


def test_sim_time_angle():
    # the bench clock: the electrical angle is derived from simulated time
    bench = TestBench(default_settings(validate_scenario(BenchConfig())))
    dt = 1.0 / bench.cfg.f_sw
    assert bench.theta == 0.0
    for _ in range(7):
        bench._step_conducting()  # one averaged PWM step
    assert abs(bench.theta - (2 * math.pi * 50.0 * 7 * dt) % (2 * math.pi)) \
        < 1e-12
    assert bench.t == pytest.approx(7 * dt)


def test_angle_helpers():
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)


# Public names that no src/ module uses, each kept on purpose.
_UNCALLED_BY_DESIGN = {
    "mov_check": "paper-claim oracle for the transient-clamp sizing rules",
    "passed": "the overall verdict of the mov_check oracle",
    "vgs_at_channel_current": "square-law oracle for the threshold "
                              "measurement (AC-3)",
    "gate_oxide_trajectory": "builds the paper's end-of-life oxide "
                             "trajectory for scenarios and tests",
    "write_scenario": "scenario-writer API, the inverse of parse_scenario",
    "bench_section": "scenario-writer API: the bench keys of a config",
    "run_steady": "steady-run entry point of AC-1, AC-4, AC-6, AC-7, AC-9 "
                  "and the perfbench averaged_steady workload",
    "measure_operating_point": "operating-point oracle of AC-7",
    "default_settings": "library entry point of perfbench and the tests",
    "energy_audit": "energy-balance oracle of AC-9 and the circulation "
                    "tests",
    "estimate_tj": "out-of-grid reference for the bench's table inversion "
                   "and a perfbench tracer site",
}


def _public_definitions():
    """(name, key of its definition, key of each code unit -> names it
    references). A unit is a top-level statement, or one statement of a
    public class body, keyed (module, i) or (module, i, j). The package's
    __init__ only re-exports, and a re-export is not a use."""
    units = {}
    defs = []
    for path in sorted(Path(acpcsim.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        for i, node in enumerate(tree.body):
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_")
            if public:
                defs.append((node.name, (path.stem, i)))
            parts = {(path.stem, i): node}
            if public and isinstance(node, ast.ClassDef):
                # methods and properties of a public class count as used
                # only if some other unit names them
                parts = {(path.stem, i, j): sub
                         for j, sub in enumerate(node.body)}
                defs += [(sub.name, (path.stem, i, j))
                         for j, sub in enumerate(node.body)
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_")]
            for key, part in parts.items():
                refs = set()
                for sub in ast.walk(part):
                    if isinstance(sub, ast.Name):
                        refs.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        refs.add(sub.attr)
                    elif isinstance(sub, ast.alias):
                        refs.add(sub.name)
                units[key] = refs
    return defs, units


def test_every_public_definition_is_used_in_src():
    # a public function, class, method or property that only tests call is
    # a twin of the code the bench runs; name it in src/ or delete it. A
    # class's own body does not count as a use of the class, nor a method's
    # own body as a use of the method.
    defs, units = _public_definitions()
    unused = {f"{key[0]}.{name}": name for name, key in defs
              if not any(name in refs for k, refs in units.items()
                         if k[:len(key)] != key)}
    assert sorted(k for k, name in unused.items()
                  if name not in _UNCALLED_BY_DESIGN) == []
    # an entry that src/ now uses, or that is gone, leaves the allowlist
    assert sorted(set(_UNCALLED_BY_DESIGN) - set(unused.values())) == []


# Defaulted parameters that some caller sets where the syntax tree cannot
# see it, by function, each with that caller.
_DEFAULTS_SET_UNSEEN = {
    "cli.run": "the command-line flags, passed through _run_one as a tuple",
    "cli.main": "the tests' command lines; the console script leaves it to "
                "sys.argv",
    "sampler.default_fir_taps": "the sampler.fir_taps and fir_cutoff "
                                "scenario keys, through build_settings",
    "device.on_resistance": "the aging deltas of the law's array reference "
                            "in the tests",
    "cycling.TestBench.measure_operating_point": "the cycle count of the "
                                                 "AC-7 oracle",
    "thermal.default_network": "the tests' scaled stacks",
}


def _defaulted_parameters():
    """(function key, call name, parameter, positional index or None) of
    each defaulted parameter of a public function, method or constructor
    of src/. A constructor is called by its class's name."""
    out = []
    for path in sorted(Path(acpcsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [(f"{path.stem}.{node.name}", node.name, node, False)
                 for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in node.decorator_list)
                        call = cls.name if node.name == "__init__" \
                            else node.name
                        funcs.append((f"{path.stem}.{cls.name}.{node.name}",
                                      call, node, not static))
        for key, call, node, bound in funcs:
            if call.startswith("_"):
                continue
            a = node.args
            pos = (a.posonlyargs + a.args)[1 if bound else 0:]
            out += [(key, call, arg.arg, i)
                    for i, arg in enumerate(pos)
                    if i >= len(pos) - len(a.defaults)]
            out += [(key, call, arg.arg, None)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
    return out


def test_every_default_has_a_caller_that_sets_it():
    # a defaulted parameter that no call in src/ or perfbench/ passes is an
    # option that no run takes: make its default a constant of the code. A
    # call passes a parameter by its keyword or by a positional argument at
    # its place; a splat (*args, **kwargs) is not seen
    root = Path(acpcsim.__file__).parents[2]
    sources = [*Path(acpcsim.__file__).parent.glob("*.py"),
               *(p for p in (root / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    passed = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                # the positional arguments ahead of the first splat
                n = next((j for j, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
                passed |= {(name, i) for i in range(n)}
                passed |= {(name, kw.arg) for kw in node.keywords if kw.arg}
    unset = {(key, param) for key, call, param, i in _defaulted_parameters()
             if (call, param) not in passed and (call, i) not in passed}
    assert sorted(p for p in unset if p[0] not in _DEFAULTS_SET_UNSEEN) == []
    # an entry whose defaults the syntax tree now sees, or that is gone,
    # leaves the allowlist
    assert sorted(set(_DEFAULTS_SET_UNSEEN) - {k for k, _ in unset}) == []
