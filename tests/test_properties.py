"""Property tests: the stage relations against two independent references,
and the finite/domain checks at every constructor and noise law."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qunet import (AcceleroParams, Capacitor, Feedback, OpAmp, OpAmpStage,
                   PortSpec, QuantumNetwork, stage_added_noise,
                   stage_estimator, stage_scattering, thermal_occupation)

from oracles import added_noise_closed_form, estimator_weights_closed_form

impedances = st.floats(0.7, 3.7).map(lambda e: 10.0 ** e)
temperatures = st.one_of(st.just(0.0), st.floats(0.0, 300.0))
omegas = st.floats(3.0, 6.0).map(lambda e: 2.0 * math.pi * 10.0 ** e)
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def stages(draw):
    """Random stage with |G| between 1e-2 and 1e6, either reactance sign."""
    r_l, r_r, r_a = draw(impedances), draw(impedances), draw(impedances)
    g = 10.0 ** draw(st.floats(-2.0, 6.0))
    x = g * math.sqrt(r_l * r_r) / 2.0 * draw(st.sampled_from((1.0, -1.0)))
    return OpAmpStage(r_l, r_r, r_a, Feedback.reactance(x),
                      noise_temp=draw(temperatures),
                      conj_temp=draw(temperatures),
                      readout_temp=draw(temperatures))


@settings(max_examples=300, deadline=None)
@given(stages(), omegas)
def test_stage_scattering_equals_network_solve(stage, w):
    ports = [PortSpec("l", stage.r_left), PortSpec("r", stage.r_right)]
    amp = OpAmp("amp", "l", "r", stage.noise_impedance, stage.feedback)
    solved = QuantumNetwork(ports, [amp]).scattering(w).matrix
    analytic = stage_scattering(stage, w).matrix
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(solved - analytic)) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(stages(), omegas)
def test_stage_estimator_matches_oracle_weights(stage, w):
    est = stage_estimator(stage, w)
    oracle = estimator_weights_closed_form(stage, w)
    # |mu_a'| >= 1 for every stage, so the scale never vanishes
    scale = max(abs(mu) for mu in oracle.values())
    assert est.weights["l"] == 1.0
    for name, mu in oracle.items():
        assert abs(est.weights[name] - mu) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(stages(), omegas)
def test_stage_added_noise_matches_closed_form(stage, w):
    total = stage_added_noise(stage, w).total
    oracle = added_noise_closed_form(stage, w)
    assert abs(total - oracle) <= 1e-12 * oracle


@given(omegas, any_float)
def test_thermal_occupation_is_total(w, t):
    try:
        sigma = thermal_occupation(w, t)
    except ValueError as exc:
        # a valid temperature fails only where k_B T/(hbar w) leaves double
        # range: for w in 2 pi (1e3..1e6) rad/s that needs T above 8e300 K
        assert not 0.0 <= t < math.inf or ("double range" in str(exc) and t > 1e300)
    else:
        assert 0.0 <= t < math.inf
        assert 0.5 <= sigma < math.inf


@given(any_float)
def test_constructors_reject_non_finite_temperatures(t):
    ok = 0.0 <= t < math.inf
    zf = Feedback.reactance(100.0)
    builders = (
        lambda: PortSpec("p", 50.0, t),
        lambda: OpAmp("amp", "l", "r", 50.0, zf, noise_temp=t),
        lambda: OpAmpStage(50.0, 50.0, 50.0, zf, readout_temp=t),
        lambda: AcceleroParams(1.0, 1e-5, 1.0, 10.0, 50.0, 1.0, mech_theta=t),
    )
    for build in builders:
        try:
            build()
        except ValueError:
            assert not ok
        else:
            assert ok


@given(any_float)
def test_constructors_reject_non_finite_element_values(v):
    ok = 0.0 < v < math.inf
    builders = (
        lambda: PortSpec("p", v),
        lambda: Capacitor("a", "b", v),
        lambda: Feedback.inductive(v),
        lambda: OpAmpStage(50.0, v, 50.0, Feedback.reactance(100.0)),
    )
    for build in builders:
        try:
            build()
        except ValueError:
            assert not ok
        else:
            assert ok
    try:
        Feedback.reactance(v)
    except ValueError:
        assert not math.isfinite(v)
    else:
        assert math.isfinite(v)
