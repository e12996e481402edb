import math
from dataclasses import replace

import pytest

from qunet import (K_B, MICROSCOPE, Feedback, NoTransductionError,
                   acceleration_sensitivity, accelerometer_budget,
                   cold_damped_temperature,
                   force_estimator, gain, get_preset, is_detection_limited,
                   langevin_force_psd,
                   stage_added_noise, thermal_occupation)
from qunet.accelerometer import LANGEVIN_SOURCE, preset_with_overrides

from oracles import effective_temperature


def microscope_params():
    return MICROSCOPE.params


def test_langevin_psd_formula_identity():
    params = microscope_params()
    expected = 2.0 * params.mech_damping * K_B * params.mech_theta
    assert langevin_force_psd(params) == expected


def test_langevin_psd_zero_damping():
    params = replace(microscope_params(), mech_damping=0.0)
    assert langevin_force_psd(params) == 0.0


def test_langevin_psd_reference_value():
    # 2 * 1.3e-5 kg/s * k_B * 300 K
    psd = langevin_force_psd(microscope_params())
    assert psd == pytest.approx(1.0769e-25, rel=1e-4)
    assert psd == pytest.approx(1.1e-25, rel=0.05)


def test_sensitivity_reference_value():
    params = microscope_params()
    sens = acceleration_sensitivity(params, 1.1e-25)
    assert sens == pytest.approx(1.23e-12, rel=1e-3)
    assert acceleration_sensitivity(params) == pytest.approx(1.2e-12, rel=0.05)


def test_sensitivity_scales_inversely_with_mass():
    params = microscope_params()
    doubled = replace(params, mass=2.0 * params.mass)
    assert acceleration_sensitivity(doubled, 1e-25) == pytest.approx(
        acceleration_sensitivity(params, 1e-25) / 2.0, rel=1e-15)
    assert acceleration_sensitivity(params, 0.0) == 0.0


def test_non_finite_force_inputs_raise():
    # NaN used to give a NaN sensitivity or temperature, inf an inf one
    params = microscope_params()
    for bad in (-1e-25, math.nan, math.inf):
        with pytest.raises(ValueError, match="force PSD"):
            acceleration_sensitivity(params, bad)
        with pytest.raises(ValueError, match="force PSD"):
            cold_damped_temperature(params, bad, 1.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="feedback damping"):
            cold_damped_temperature(params, 1e-26, bad)
    assert cold_damped_temperature(params, 0.0, 0.0) == pytest.approx(
        params.mech_theta, rel=1e-15)


def test_budget_without_detection_reduces_to_langevin():
    params = microscope_params()
    budget = accelerometer_budget(params)
    assert budget.contributions == {LANGEVIN_SOURCE: langevin_force_psd(params)}
    assert budget.total == langevin_force_psd(params)
    assert not is_detection_limited(budget)


def test_budget_requires_transduction_gain():
    with pytest.raises(ValueError, match="transduction"):
        accelerometer_budget(microscope_params(), MICROSCOPE.stage)


def test_budget_with_preset_detection_is_langevin_dominated():
    budget = accelerometer_budget(microscope_params(), MICROSCOPE.stage,
                                  MICROSCOPE.transduction_gain)
    langevin = budget.contributions[LANGEVIN_SOURCE]
    detection = budget.total - langevin
    assert detection < 0.01 * langevin
    assert budget.total == pytest.approx(1.0769e-25, rel=0.01)
    assert budget.sorted_items()[0][0] == LANGEVIN_SOURCE
    assert not is_detection_limited(budget)


def test_budget_additivity_is_exact():
    budget = accelerometer_budget(microscope_params(), MICROSCOPE.stage,
                                  MICROSCOPE.transduction_gain)
    assert budget.total == sum(budget.contributions.values())
    for name, contribution in budget.contributions.items():
        assert contribution == budget.mu_abs2[name] * budget.sigma[name]


def test_budget_detection_limited_flag_flips_ordering():
    params = microscope_params()
    sigma_det = stage_added_noise(MICROSCOPE.stage, params.carrier_omega).total
    # transduction gain placing the detection total at 10x the Langevin term
    g = math.sqrt(10.0 * langevin_force_psd(params) / sigma_det)
    budget = accelerometer_budget(params, MICROSCOPE.stage, g)
    assert is_detection_limited(budget)
    assert budget.sorted_items()[0][0] != LANGEVIN_SOURCE
    detection = budget.total - budget.contributions[LANGEVIN_SOURCE]
    assert detection == pytest.approx(10.0 * langevin_force_psd(params), rel=1e-9)


def test_force_estimator_free_weights():
    params = microscope_params()
    g = 2.5e-13
    est = force_estimator(params, (MICROSCOPE.stage,), g)
    assert est.signal == "F_ext"
    assert est.weights["F_ext"] == 1.0
    assert est.weights[LANGEVIN_SOURCE] == 1.0
    assert set(est.noise_weights()) == {LANGEVIN_SOURCE, (0, "r"), (0, "a"), (0, "a'")}
    from qunet import stage_estimator

    mu = stage_estimator(MICROSCOPE.stage, params.carrier_omega)
    for name in ("r", "a", "a'"):
        assert est.weights[(0, name)] == g * mu.weights[name]
    assert est.gain == mu.gain / g
    # without transduction the readout does not see the force
    with pytest.raises(NoTransductionError):
        force_estimator(params, (MICROSCOPE.stage,), 0.0)


def test_servo_estimator_matches_free_on_shared_sources():
    params = microscope_params()
    free = force_estimator(params, (MICROSCOPE.stage,), 1.0)
    servo = force_estimator(params, (MICROSCOPE.stage, MICROSCOPE.stage), 1.0)
    shared = free.noise_weights()
    restricted = {k: servo.weights[k] for k in shared}
    assert restricted == shared
    # the two readouts differ by the servo stage's gain
    assert servo.gain == free.gain * gain(MICROSCOPE.stage, params.carrier_omega)


def test_servo_convergence_scales_with_loop_gain():
    # the detection stage sits inside the loop, so its gain at the carrier
    # is the loop gain; the feedback amplifier's sources shrink as 1/loop
    params = microscope_params()

    def gap(loop_gain):
        stage = replace(MICROSCOPE.stage, feedback=Feedback.reactance(
            loop_gain * MICROSCOPE.stage.r_left / 2.0))
        free = force_estimator(params, (stage,), 1.0).noise_weights()
        servo = force_estimator(params, (stage, stage), 1.0).noise_weights()
        # the open-loop table lacks the feedback amplifier's sources: they
        # enter it with weight zero
        assert free.keys() < servo.keys()
        return max(abs(servo[k] - free.get(k, 0.0)) for k in servo)

    assert gap(1e6) <= 1e-5
    assert 1e-5 < gap(1e4) <= 1e-3


def test_cold_damped_temperature_below_bath():
    params = microscope_params()
    langevin = langevin_force_psd(params)
    h_fb = 100.0 * params.mech_damping
    theta = cold_damped_temperature(params, 0.1 * langevin, h_fb)
    assert theta < params.mech_theta
    # explicit fluctuation-dissipation ratio
    expected = (langevin + 0.1 * langevin) / (
        2.0 * K_B * (params.mech_damping + h_fb))
    assert theta == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        cold_damped_temperature(replace(params, mech_damping=0.0), 0.0, 0.0)


def test_params_validation():
    good = microscope_params()
    with pytest.raises(ValueError):
        replace(good, mass=0.0)
    with pytest.raises(ValueError):
        replace(good, mech_damping=-1.0)
    with pytest.raises(ValueError):
        replace(good, measurement_omega=good.carrier_omega)
    for bad in (-1.0, math.nan, math.inf):
        for label in ("mech_theta", "amp_noise_theta", "mech_damping", "mass"):
            with pytest.raises(ValueError, match=label):
                replace(good, **{label: bad})


def test_microscope_preset_values():
    params = microscope_params()
    assert params.mass == 0.27
    assert params.mech_damping == 1.3e-5
    assert params.measurement_omega == pytest.approx(2 * math.pi * 5e-4)
    assert params.carrier_omega == pytest.approx(2 * math.pi * 1e5)
    assert params.amp_noise_impedance == 0.15e6
    assert params.amp_noise_theta == 1.5
    assert params.mech_theta == 300.0
    # stage consistency: bath temperature reproduces the effective one, and
    # the feedback capacitance sets |G| = 1e4 at the carrier
    stage = MICROSCOPE.stage
    theta = effective_temperature(
        params.carrier_omega,
        thermal_occupation(params.carrier_omega, stage.noise_temp))
    assert theta == pytest.approx(1.5, rel=1e-9)
    assert abs(gain(stage, params.carrier_omega)) == pytest.approx(1e4, rel=1e-12)


def test_preset_lookup_and_overrides():
    with pytest.raises(KeyError, match="microscope"):
        get_preset("nope")
    halved = preset_with_overrides("microscope", mech_theta=150.0)
    assert langevin_force_psd(halved.params) == pytest.approx(
        langevin_force_psd(microscope_params()) / 2.0, rel=1e-15)
    undamped = preset_with_overrides("microscope", mech_damping=0.0)
    assert langevin_force_psd(undamped.params) == 0.0


def test_non_finite_budget_raises_value_error():
    # a non-finite gain is refused by name; a gain of 1e200 overflows as it
    # is squared, and the Langevin row of H_m = Theta_m = 1e300 is inf
    params, stage = MICROSCOPE.params, MICROSCOPE.stage
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as err:
            accelerometer_budget(params, stage, bad)
        assert str(err.value) == f"transduction gain must be finite, got {bad!r}"
    overflow = ("noise budget at 0.0005 Hz is not finite: the |mu|^2 or contribution "
                "of source {!r} overflows")
    for call, source in ((lambda: accelerometer_budget(params, stage, 1e200), "r"),
                         (lambda: accelerometer_budget(params, stage, -1e200), "r"),
                         (lambda: accelerometer_budget(
                             replace(params, mech_damping=1e300, mech_theta=1e300)), LANGEVIN_SOURCE)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == overflow.format(source)
