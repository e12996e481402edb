import math

import numpy as np
import pytest

from qunet import (HBAR, K_B, FrequencyGrid, bath_temperature,
                   effective_temperature, johnson_voltage_psd,
                   thermal_occupation)

W0 = 2.0 * math.pi * 1e5


def test_vacuum_floor_is_exactly_half():
    assert thermal_occupation(W0, 0.0) == 0.5
    assert thermal_occupation(-W0, 0.0) == 0.5


def test_occupation_at_unit_argument():
    # omega placed so that hbar|w| = 2 k_B T; direct coth(1) evaluation as
    # the oracle: coth(1) = (e^2 + 1)/(e^2 - 1).
    t = 0.77
    w = 2.0 * K_B * t / HBAR
    expected = 0.5 * (math.e ** 2 + 1.0) / (math.e ** 2 - 1.0)
    assert thermal_occupation(w, t) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.656518, abs=5e-7)


def test_classical_limit_series():
    # hbar|w|/(k_B T) = 1e-3; series coth(y) = 1/y + y/3 + O(y^3) at y = x/2
    # gives sigma = 1/x + x/12.
    t = 4.2
    x = 1e-3
    w = x * K_B * t / HBAR
    sigma = thermal_occupation(w, t)
    series = 1.0 / x + x / 12.0
    assert sigma == pytest.approx(series, rel=1e-9)
    classical = K_B * t / (HBAR * w)
    assert abs(sigma - classical) / sigma < 1e-6


def test_occupation_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = 2.0 * math.pi * 10.0 ** rng.uniform(0.0, 9.0)
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        s = thermal_occupation(w, t)
        assert s == thermal_occupation(-w, t)      # even in frequency
        assert s >= 0.5
        assert thermal_occupation(w, 2.0 * t) >= s  # monotone in T


def test_floor_equality_only_at_zero_temperature():
    w = 2.0 * math.pi * 1e3
    assert thermal_occupation(w, 0.0) == 0.5
    for t in (1e-3, 1e-1, 10.0, 1e3):
        assert thermal_occupation(w, t) > 0.5


def test_effective_temperature_vacuum_point():
    theta = effective_temperature(W0, 0.5)
    assert theta == HBAR * W0 / (2.0 * K_B)
    assert theta == pytest.approx(2.40e-6, rel=1e-3)


def test_effective_temperature_recovers_bath_in_classical_regime():
    w = 2.0 * math.pi * 1.0
    for t in np.logspace(-3, 3, 25):
        theta = effective_temperature(w, thermal_occupation(w, t))
        assert abs(theta - t) / t < 1e-12


def test_effective_temperature_near_bath_at_millesimal_ratio():
    # hbar|w|/(k_B T) = 1e-3: the energy per mode is the classical one to
    # within the x^2/12 quantum correction
    t = 9.3
    w = 1e-3 * K_B * t / HBAR
    theta = effective_temperature(w, thermal_occupation(w, t))
    assert abs(theta - t) / t < 1e-6


def test_bath_temperature_inverts_occupation():
    for t in np.logspace(-3, 3, 13):
        back = bath_temperature(W0, thermal_occupation(W0, t))
        assert back == pytest.approx(t, rel=1e-12)
    for s in (0.5001, 1.0, 10.0, 1e4):
        assert thermal_occupation(W0, bath_temperature(W0, s)) == pytest.approx(s, rel=1e-12)
    assert bath_temperature(W0, 0.5) == 0.0


def test_johnson_psd_reference_value():
    # 2 R k_B Theta with Theta forced to 1.5 K through the matching bath
    # temperature at the carrier.
    r = 0.15e6
    sigma = K_B * 1.5 / (HBAR * W0)
    t = bath_temperature(W0, sigma)
    psd = johnson_voltage_psd(r, W0, t)
    assert psd == pytest.approx(2.0 * r * K_B * 1.5, rel=1e-12)
    assert psd == pytest.approx(6.21e-18, rel=1e-3)


def test_johnson_psd_zero_resistance():
    assert johnson_voltage_psd(0.0, W0, 300.0) == 0.0


def test_johnson_psd_classical_limit():
    t = 4.2
    w = 1e-3 * K_B * t / HBAR
    psd = johnson_voltage_psd(75.0, w, t)
    classical = 2.0 * 75.0 * K_B * t
    assert abs(psd - classical) / psd < 1e-6


def test_johnson_psd_linear_in_resistance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = 10.0 ** rng.uniform(0.0, 6.0)
        w = 2.0 * math.pi * 10.0 ** rng.uniform(1.0, 8.0)
        t = 10.0 ** rng.uniform(-2.0, 3.0)
        ratio = johnson_voltage_psd(2.0 * r, w, t) / johnson_voltage_psd(r, w, t)
        assert ratio == pytest.approx(2.0, rel=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)
    # NaN used to give a NaN spectrum, inf a bare ZeroDivisionError
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            thermal_occupation(W0, bad)
    # hbar|w|/(2 k_B T) beyond double range on either side: a subnormal
    # temperature sits at the floor, an underflowing argument is an error
    assert thermal_occupation(W0, 5e-324) == 0.5
    with pytest.raises(ValueError, match="double range"):
        thermal_occupation(1e-300, 1e10)
    # a subnormal argument: 0.5/tanh overflows to inf instead of raising
    with pytest.raises(ValueError, match="double range"):
        thermal_occupation(1.0, 1e308)
    with pytest.raises(ValueError):
        effective_temperature(0.0, 1.0)
    with pytest.raises(ValueError):
        effective_temperature(W0, 0.49)
    with pytest.raises(ValueError):
        bath_temperature(W0, 0.2)
    with pytest.raises(ValueError):
        johnson_voltage_psd(-1.0, W0, 1.0)


def test_frequency_grid_constructors():
    lin = FrequencyGrid.linear_hz(10.0, 100.0, 10)
    assert len(lin) == 10
    assert lin.hertz[0] == pytest.approx(10.0, rel=1e-15)
    assert lin.hertz[-1] == pytest.approx(100.0, rel=1e-15)
    log = FrequencyGrid.log_hz(1e2, 1e6, 5)
    assert log.scale == "logarithmic"
    hz = log.hertz
    ratios = [hz[i + 1] / hz[i] for i in range(len(hz) - 1)]
    assert all(r == pytest.approx(10.0, rel=1e-12) for r in ratios)
    single = FrequencyGrid.linear_hz(42.0, 42.0, 1)
    assert len(single) == 1


def test_frequency_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        FrequencyGrid(())
    with pytest.raises(ValueError):
        FrequencyGrid.linear_hz(-1.0, 10.0, 4)
    with pytest.raises(ValueError):
        FrequencyGrid.linear_hz(10.0, 5.0, 4)
    with pytest.raises(ValueError):
        FrequencyGrid((1.0, 2.0), scale="weird")
