import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from qunet import (Feedback, NoTransductionError, NoiseBudget, OpAmpStage, added_noise,
                   gain, matching_scan, stage_added_noise,
                   stage_estimator, stage_scattering, thermal_occupation)
from qunet.network import EstimatorCoefficients

from helpers import random_omega, random_stage, stage_with_gain
from oracles import (added_noise_closed_form, check_commutators,
                     estimator_weights_closed_form, generator_psds)

W0 = 2.0 * math.pi * 1e5


def test_back_action_coefficient_is_minus_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        smap = stage_scattering(random_stage(rng), random_omega(rng))
        assert smap.matrix[0, 0] == -1.0                  # l <- l
        assert smap.matrix[0, 1] == 0.0                   # l <- r


def test_gain_reference_point():
    stage = OpAmpStage(50.0, 50.0, 50.0, Feedback.reactance(100.0))
    g = gain(stage, W0)
    assert g == pytest.approx(-4j, abs=1e-15)
    assert abs(g) == pytest.approx(4.0, rel=1e-15)
    assert stage_scattering(stage, W0).matrix[1, 0] == pytest.approx(-4j, abs=1e-14)


def test_gain_vanishes_with_feedback():
    stage = OpAmpStage(50.0, 50.0, 50.0, Feedback.reactance(0.0))
    assert gain(stage, W0) == 0.0
    with pytest.raises(NoTransductionError, match="Z_f = 0"):
        stage_estimator(stage, W0)
    with pytest.raises(NoTransductionError, match="Z_f = 0"):
        added_noise_closed_form(stage, W0)


def test_capacitive_gain_decreases_with_frequency():
    c = 1e-11
    stage = OpAmpStage(50.0, 75.0, 60.0, Feedback.capacitive(c))
    mags = []
    for f in np.logspace(3, 7, 9):
        w = 2.0 * math.pi * f
        g = gain(stage, w)
        assert abs(g) == pytest.approx(2.0 / (w * c * math.sqrt(50.0 * 75.0)),
                                       rel=1e-12)
        mags.append(abs(g))
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_estimator_readout_weight_formula():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stage = random_stage(rng)
        w = random_omega(rng)
        est = stage_estimator(stage, w)
        expected = estimator_weights_closed_form(stage, w)
        assert est.weights["r"] == pytest.approx(expected["r"], rel=1e-15)
        assert est.weights["l"] == 1.0


def test_large_gain_matched_estimator_collapses():
    stage = OpAmpStage(50.0, 50.0, 50.0, Feedback.reactance(1e8))
    est = stage_estimator(stage, W0)
    assert abs(est.weights["a"]) < 1e-5
    assert abs(est.weights["r"]) < 1e-5
    assert abs(est.weights["a'"] - 1.0) < 1e-5


def test_estimator_consistent_with_scattering_rows():
    rng = np.random.default_rng(3)
    for _ in range(20):
        stage = random_stage(rng)
        w = random_omega(rng)
        est = stage_estimator(stage, w)
        g, *noise = stage_scattering(stage, w).matrix[1]        # the r row
        for name, s in zip(("r", "a", "a'"), noise):
            assert abs(est.weights[name] - s / g) < 1e-12
        assert est.gain == pytest.approx(g, rel=1e-15)


def test_stage_commutator_residual():
    rng = np.random.default_rng(4)
    for _ in range(20):
        smap = stage_scattering(random_stage(rng), random_omega(rng))
        assert check_commutators(smap) < 1e-10


def test_added_noise_empty_estimator_is_zero():
    est = EstimatorCoefficients(signal="l", weights={"l": 1.0}, gain=1.0)
    assert added_noise(est, {}, W0).total == 0.0


def test_added_noise_names_missing_source():
    stage = stage_with_gain(10.0)
    est = stage_estimator(stage, W0)
    with pytest.raises(KeyError) as err:
        added_noise(est, {"r": 0.0, "a": 0.0}, W0)
    assert "a'" in err.value.args[0]


def test_quantum_limit_half_quantum():
    # matched noise impedance, zero temperatures, large gain: the added
    # noise approaches the vacuum half-quantum as (1 + 2 R_a/R_r)/(2|G|^2)
    for gmag in (1e2, 1e4):
        stage = stage_with_gain(gmag)
        total = stage_added_noise(stage, W0).total
        excess = total - 0.5
        assert excess == pytest.approx(1.5 / gmag ** 2, rel=1e-9)


def test_closed_form_matches_weighted_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        stage = random_stage(rng)
        w = random_omega(rng)
        total = stage_added_noise(stage, w).total
        oracle = added_noise_closed_form(stage, w)
        assert abs(total - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_zero_temperature_budget_is_half_weight_sum():
    rng = np.random.default_rng(6)
    for _ in range(10):
        stage = replace(random_stage(rng), noise_temp=0.0, conj_temp=0.0,
                        readout_temp=0.0)
        w = random_omega(rng)
        est = stage_estimator(stage, w)
        weight_sum = sum(abs(mu) ** 2 for k, mu in est.weights.items() if k != "l")
        total = stage_added_noise(stage, w).total
        assert total == pytest.approx(0.5 * weight_sum, rel=1e-15)


def test_budget_never_below_vacuum_weighted_floor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        stage = random_stage(rng)
        w = random_omega(rng)
        est = stage_estimator(stage, w)
        floor = 0.5 * sum(abs(mu) ** 2 for k, mu in est.weights.items() if k != "l")
        assert stage_added_noise(stage, w).total >= floor * (1.0 - 1e-12)


def test_sigma_invariant_under_reactance_sign():
    for gmag in (3.0, 300.0):
        up = stage_with_gain(gmag, noise_temp=80.0, conj_temp=10.0,
                             readout_temp=300.0)
        down = replace(up, feedback=Feedback.reactance(-up.feedback.value))
        assert stage_added_noise(up, W0).total == stage_added_noise(down, W0).total


def test_sigma_phase_invariance_at_large_gain():
    # with a dissipative admixture the feedback phase only enters at order
    # 1/|G|; at fixed large |Z_f| the spread across phases is tiny
    rl = rr = ra = 50.0
    zmag = 1e6 * rl
    s_r = thermal_occupation(W0, 80.0)
    s_a = thermal_occupation(W0, 10.0)
    s_ap = thermal_occupation(W0, 5.0)
    totals = []
    for phi in np.linspace(0.1, math.pi - 0.1, 7):
        zf = zmag * cmath.exp(1j * phi)
        # direct closed-form evaluation with an arbitrary-phase impedance
        sigma = (rl * rr / (4.0 * abs(zf) ** 2) * s_r
                 + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl - 1.0 / ra) ** 2 * s_a
                 + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl + 1.0 / ra) ** 2 * s_ap)
        totals.append(sigma)
    spread = (max(totals) - min(totals)) / min(totals)
    assert spread < 1e-5


def test_matching_scan_finds_matched_impedance():
    r_l = 50.0
    stage = OpAmpStage(r_l, 200.0, 10.0, Feedback.reactance(1e4 * r_l),
                       noise_temp=4.2, conj_temp=4.2, readout_temp=4.2)
    grid = np.geomspace(r_l / 100.0, r_l * 100.0, 100)
    result = matching_scan(stage, grid, W0)
    step = math.log(grid[1] / grid[0])
    assert abs(math.log(result.noise_impedance / r_l)) <= step * (1.0 + 1e-9)
    assert not result.at_boundary


def test_matching_symmetry_in_impedance_ratio():
    r_l = 50.0
    stage = OpAmpStage(r_l, 50.0, 50.0, Feedback.reactance(1e8),
                       noise_temp=120.0, conj_temp=120.0, readout_temp=120.0)
    for x in (1.7, 4.0, 20.0):
        up = stage_added_noise(replace(stage, noise_impedance=r_l * x), W0).total
        down = stage_added_noise(replace(stage, noise_impedance=r_l / x), W0).total
        assert up == pytest.approx(down, rel=1e-6)


def test_matching_scan_boundary_cases():
    stage = stage_with_gain(1e4)
    single = matching_scan(stage, [75.0], W0)
    assert single.noise_impedance == 75.0
    assert single.at_boundary
    # grid that does not bracket the optimum: minimum lands on an edge
    off = matching_scan(stage, np.geomspace(500.0, 5000.0, 20), W0)
    assert off.at_boundary
    with pytest.raises(ValueError):
        matching_scan(stage, [], W0)


def test_stage_rejects_non_finite_omega():
    # a C-feedback stage used to return a NaN total at nan or inf, and an
    # X-feedback stage at 0 K returned 0.515 for nan
    for feedback in (Feedback.capacitive(1e-12), Feedback.reactance(2.5e5)):
        stage = OpAmpStage(50.0, 50.0, 50.0, feedback)
        for bad in (0.0, math.nan, math.inf, -math.inf):
            for per_point in (stage_added_noise, stage_estimator, stage_scattering,
                              gain):
                with pytest.raises(ValueError, match="omega"):
                    per_point(stage, bad)


def test_gain_is_the_scattering_entry_at_both_signs_of_omega():
    # the gain is the map's r <- l entry, so like the map it is even in omega
    rng = np.random.default_rng(12)
    stages = [OpAmpStage(50.0, 50.0, 50.0, Feedback.capacitive(1e-12)),
              *(random_stage(rng) for _ in range(10))]
    for stage in stages:
        w = random_omega(rng)
        for signed in (w, -w):
            assert gain(stage, signed) == stage_scattering(stage, signed).matrix[1, 0]
        assert gain(stage, -w) == gain(stage, w)


def test_noise_impedance_is_generator_psd_ratio():
    rng = np.random.default_rng(9)
    for _ in range(20):
        stage = random_stage(rng)
        sigma_uu, sigma_ii = generator_psds(stage, random_omega(rng))
        assert math.sqrt(sigma_uu / sigma_ii) == pytest.approx(
            stage.noise_impedance, rel=1e-12)


def test_stage_validation():
    zf = Feedback.reactance(10.0)
    with pytest.raises(ValueError):
        OpAmpStage(0.0, 50.0, 50.0, zf)
    for bad in (-1.0, math.nan, math.inf):
        for label in ("noise_temp", "conj_temp", "readout_temp"):
            with pytest.raises(ValueError, match=label):
                OpAmpStage(50.0, 50.0, 50.0, zf, **{label: bad})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_impedance"):
            OpAmpStage(50.0, 50.0, bad, zf)
    # a resistive feedback cannot be made: a stage is reactive by construction
    with pytest.raises(ValueError, match="dissipative"):
        OpAmpStage(50.0, 50.0, 50.0, Feedback("R", 10.0))


def test_budget_total_is_the_plain_left_fold():
    # sum() of floats is compensated from Python 3.12 on and would give 1e16 + 2
    ones = {"a": 1.0, "b": 1.0, "c": 1.0}
    point = NoiseBudget(1.0, {"a": 1e16, "b": 1.0, "c": 1.0}, ones)
    assert point.total == 1e16
    grid = NoiseBudget(np.array([1.0]), {k: np.array([m]) for k, m in point.mu_abs2.items()},
                       {k: np.array([s]) for k, s in ones.items()})
    assert grid.total.tolist() == [point.total]


def test_shares_are_finite_percentages():
    # 100 v / t where 100 v is finite (33.333333333333336, not the
    # 33.33333333333333 of 100 (v / t)); past 1.8e306 100 v would overflow
    ones = {"a": 1.0, "b": 1.0}
    assert NoiseBudget(1.0, {"a": 1.0, "b": 2.0}, ones).shares() == {
        "a": 100.0 * 1.0 / 3.0, "b": 100.0 * 2.0 / 3.0}
    assert NoiseBudget(1.0, {"a": 1.0, "b": 1.0}, {"a": 1e307, "b": 1.0}).shares()["a"] == 100.0
    assert NoiseBudget(1.0, {"a": 0.0, "b": 0.0}, ones).shares() == {"a": 0.0, "b": 0.0}


def test_non_finite_budget_names_its_first_point_and_source():
    ones = {"a": 1.0, "b": 1.0}
    for mu_abs2, what in (({"a": 1.0, "b": math.inf}, "|mu|^2 or contribution of source 'b'"),
                          ({"a": math.nan, "b": math.inf}, "|mu|^2 or contribution of source 'a'"),
                          ({"a": 1e308, "b": 1e308}, "total")):
        with pytest.raises(ValueError) as err:
            NoiseBudget(2.0 * math.pi * 3.0, mu_abs2, ones)
        assert str(err.value) == f"noise budget at 3.0 Hz is not finite: the {what} overflows"
    # over a grid: the first bad point, and the first bad source there
    omegas = 2.0 * math.pi * np.array([1.0, 2.0, 4.0])
    mu_abs2 = {"a": np.array([1.0, 1.0, np.inf]), "b": np.array([1.0, np.nan, np.inf])}
    with pytest.raises(ValueError) as err:
        NoiseBudget(omegas, mu_abs2, {k: np.ones(3) for k in mu_abs2})
    assert str(err.value) == ("noise budget at 2.0 Hz is not finite: the |mu|^2 or "
                              "contribution of source 'b' overflows")


def test_stage_budget_out_of_double_range_raises_value_error():
    # out of double range each is a ValueError, not an ArithmeticError or NaN
    small_c = OpAmpStage(50.0, 50.0, 50.0, Feedback.capacitive(1e-12))
    out_of_range = "leaves double range: omega C, R_a R_r or R_r R_l underflows to 0"
    with pytest.raises(ValueError) as err:
        stage_added_noise(small_c, 1e-320)          # omega C underflows
    assert str(err.value) == f"stage at omega = 1e-320 rad/s {out_of_range}"
    with pytest.raises(ValueError) as err:
        stage_added_noise(OpAmpStage(1e300, 1e-300, 1e-300, Feedback.inductive(1e-300)), 1e3)
    assert str(err.value) == f"stage at omega = 1000.0 rad/s {out_of_range}"
    for stage, w, source in ((small_c, 1e308, "r"),     # |mu|^2 overflows
                             (OpAmpStage(1e-300, 1e300, 1e300, Feedback.capacitive(1e-300)),
                              1e3, "a")):               # the weight of a is NaN
        with pytest.raises(ValueError) as err:
            stage_added_noise(stage, w)
        assert str(err.value) == (f"noise budget at {w / (2.0 * math.pi)!r} Hz is not finite: "
                                  f"the |mu|^2 or contribution of source {source!r} overflows")
