import math

import pytest

from acpcsim.core import (BenchConfig, ConfigError, PfMode, Technique,
                          angle_distance, validate_scenario, wrap_angle)
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
    assert angle_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)


def test_dt_by_fidelity():
    from acpcsim.core import Fidelity
    cfg = validate_scenario(BenchConfig())
    assert cfg.dt == pytest.approx(1.0 / 22e3)
    sw = validate_scenario(BenchConfig(fidelity=Fidelity.SWITCHED))
    assert sw.dt == pytest.approx(1.0 / (64 * 22e3))
