import math
from dataclasses import replace

import numpy as np
import pytest

from qunet import (Feedback, OpAmpStage, StageChain, chain_added_noise,
                   chain_estimator, classical_gain_threshold,
                   downstream_noise_fraction, gain, stage_added_noise,
                   stage_estimator)

from helpers import random_omega, random_stage, stage_with_gain
from oracles import (chain_added_noise_recursion, chain_readout_from_scattering,
                     merge_chain_estimators)

W0 = 2.0 * math.pi * 1e5


def chain_of_gains(*gains, r=50.0, **temps):
    return StageChain(tuple(stage_with_gain(g, r=r, **temps) for g in gains))


def test_single_stage_chain_reduces_to_stage_estimator():
    rng = np.random.default_rng(1)
    for _ in range(10):
        stage = random_stage(rng)
        w = random_omega(rng)
        single = stage_estimator(stage, w)
        chained = chain_estimator(StageChain((stage,)), w)
        assert chained.weights == {(0, k): v for k, v in single.weights.items()}
        assert chained.gain == single.gain
        assert chained.weights[(0, "l")] == 1.0


def test_two_stage_source_names_and_temperatures():
    chain = StageChain((
        stage_with_gain(10.0, noise_temp=1.0, conj_temp=2.0, readout_temp=3.0),
        stage_with_gain(20.0, noise_temp=4.0, conj_temp=5.0, readout_temp=6.0)))
    temps = chain.temperatures()
    assert tuple(temps) == ((0, "r"), (0, "a"), (0, "a'"), (1, "r"), (1, "a"), (1, "a'"))
    assert temps == {(0, "r"): 3.0, (0, "a"): 1.0, (0, "a'"): 2.0,
                     (1, "r"): 6.0, (1, "a"): 4.0, (1, "a'"): 5.0}


def test_two_stage_weights_against_hand_recursion():
    # equal impedances make the single-stage weights (-1/G, 1/G, 1 - 1/G);
    # substituting the second stage's estimate of the first readout gives
    # the chained table below, the independent oracle here.
    w = W0
    chain = chain_of_gains(37.0, 512.0)
    g1 = gain(chain.stages[0], w)
    g2 = gain(chain.stages[1], w)
    est = chain_estimator(chain, w)
    expected = {
        (0, "r"): -1.0 / g1,
        (0, "a"): 1.0 / g1,
        (0, "a'"): 1.0 - 1.0 / g1,
        (1, "r"): (1.0 / g1) * (-1.0 / g2),
        (1, "a"): (1.0 / g1) * (1.0 / g2),
        (1, "a'"): (1.0 / g1) * (1.0 - 1.0 / g2),
    }
    for name, mu in expected.items():
        assert est.weights[name] == pytest.approx(mu, rel=1e-12)
    assert est.gain == pytest.approx(g1 * g2, rel=1e-12)


def test_two_identical_stages_weight_magnitudes():
    chain = chain_of_gains(1e3, 1e3)
    est = chain_estimator(chain, W0)
    assert 1e-7 < abs(est.weights[(1, "a")]) < 1e-5
    assert abs(est.weights[(0, "a'")]) == pytest.approx(1.0, abs=2e-3)


def test_large_first_gain_collapses_to_conjugate_source():
    chain = chain_of_gains(1e8, 5.0)
    est = chain_estimator(chain, W0)
    for name, mu in est.weights.items():
        if name in ((0, "l"), (0, "a'")):
            continue
        assert abs(mu) < 1e-6
    assert abs(est.weights[(0, "a'")] - 1.0) < 1e-6
    assert est.weights[(0, "l")] == 1.0


def test_recursive_composition_equals_flat():
    rng = np.random.default_rng(2)
    for _ in range(5):
        s1 = random_stage(rng)
        s2 = replace(random_stage(rng), r_left=s1.r_right)
        s3 = replace(random_stage(rng), r_left=s2.r_right)
        chain = StageChain((s1, s2, s3))
        w = random_omega(rng)
        flat = chain_estimator(chain, w)
        left_first = merge_chain_estimators(
            chain_estimator(StageChain((s1, s2)), w), 2, chain_estimator(StageChain((s3,)), w))
        right_first = merge_chain_estimators(
            chain_estimator(StageChain((s1,)), w), 1, chain_estimator(StageChain((s2, s3)), w))
        for grouped in (left_first, right_first):
            assert set(grouped.weights) == set(flat.weights)
            for name in flat.weights:
                assert abs(grouped.weights[name] - flat.weights[name]) < 1e-12
            assert grouped.gain == pytest.approx(flat.gain, rel=1e-12)


def test_chain_matches_raw_scattering_substitution():
    # independent oracle: compose the readout row of 1-4 stage chains from
    # the stage scattering matrices alone, then normalize by its signal entry
    rng = np.random.default_rng(77)
    for n in [1, 2, 3, 4] * 10:
        stages = [random_stage(rng)]
        for _ in range(n - 1):
            stages.append(replace(random_stage(rng), r_left=stages[-1].r_right))
        w = random_omega(rng)
        row = chain_readout_from_scattering(stages, w)
        beta = row[(0, "l")]
        est = chain_estimator(StageChain(tuple(stages)), w)
        assert est.weights.keys() == row.keys()
        for key, mu in est.weights.items():
            assert abs(mu - row[key] / beta) <= 1e-12 * abs(mu)
        assert abs(est.gain - beta) <= 1e-12 * abs(beta)
        # the readout is a normal mode: its row of S has J-norm 1
        j_norm = math.fsum((-1.0 if role == "a'" else 1.0) * abs(s) ** 2
                           for (_, role), s in row.items())
        assert abs(j_norm - 1.0) <= 1e-12 * math.fsum(abs(s) ** 2 for s in row.values())


def test_downstream_fraction_single_stage_is_zero():
    chain = StageChain((stage_with_gain(100.0),))
    assert downstream_noise_fraction(chain, W0) == 0.0


def test_downstream_fraction_brute_force_oracle():
    # |G| = 10, everything at zero temperature: recompute the fraction from
    # the full weight table by hand
    chain = chain_of_gains(10.0, 10.0)
    est = chain_estimator(chain, W0)
    contrib = {k: 0.5 * abs(mu) ** 2 for k, mu in est.weights.items() if k != (0, "l")}
    first = {(0, "r"), (0, "a"), (0, "a'")}
    oracle = (sum(v for k, v in contrib.items() if k not in first)
              / sum(contrib.values()))
    assert downstream_noise_fraction(chain, W0) == pytest.approx(oracle, rel=1e-12)


def test_downstream_fraction_quarters_when_gain_doubles():
    base = downstream_noise_fraction(chain_of_gains(200.0, 1e3), W0)
    double = downstream_noise_fraction(chain_of_gains(400.0, 1e3), W0)
    assert double == pytest.approx(base / 4.0, rel=1e-3)


def test_downstream_fraction_power_law_slope():
    gains = np.geomspace(1e2, 1e5, 13)
    fracs = [downstream_noise_fraction(chain_of_gains(g, 1e3), W0) for g in gains]
    slope = np.polyfit(np.log10(gains), np.log10(fracs), 1)[0]
    assert abs(slope + 2.0) < 0.02


def test_classical_gain_threshold():
    eps = 1e-7
    chain = chain_of_gains(50.0, 1e3, noise_temp=10.0, conj_temp=2.0,
                           readout_temp=30.0)
    g0 = classical_gain_threshold(chain, W0, eps)
    at_g0 = chain_of_gains(g0, 1e3, noise_temp=10.0, conj_temp=2.0,
                           readout_temp=30.0)
    single = stage_added_noise(at_g0.stages[0], W0).total
    excess = chain_added_noise(at_g0, W0).total - single
    assert excess == pytest.approx(eps, rel=1e-9)
    beyond = chain_of_gains(2.0 * g0, 1e3, noise_temp=10.0, conj_temp=2.0,
                            readout_temp=30.0)
    single_b = stage_added_noise(beyond.stages[0], W0).total
    assert chain_added_noise(beyond, W0).total - single_b < eps
    assert classical_gain_threshold(StageChain((stage_with_gain(5.0),)), W0, eps) == 0.0
    with pytest.raises(ValueError):
        classical_gain_threshold(chain, W0, 0.0)
    # nan used to come back as a nan threshold
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            classical_gain_threshold(chain, W0, bad)
    # an omega outside the model is a ValueError, for a single stage too
    for short in (chain, StageChain(chain.stages[:1])):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="omega"):
                classical_gain_threshold(short, bad, eps)


def test_chain_temperature_overrides():
    chain = chain_of_gains(10.0, 10.0)
    cold = chain_added_noise(chain, W0).total
    warm = chain_added_noise(chain, W0, temperatures={(0, "a'"): 300.0}).total
    assert warm > cold
    # a name the chain does not have is an error, not a silent no-op
    for stray in ("a'", (2, "a")):
        with pytest.raises(KeyError, match="no chain source"):
            chain_added_noise(chain, W0, temperatures={stray: 300.0})


def test_impedance_continuity_enforced():
    s1 = OpAmpStage(50.0, 75.0, 50.0, Feedback.reactance(10.0))
    s2 = OpAmpStage(50.0, 50.0, 50.0, Feedback.reactance(10.0))
    with pytest.raises(ValueError, match="mismatch"):
        StageChain((s1, s2))
    with pytest.raises(ValueError):
        StageChain(())


def test_deep_chain_has_no_stage_cap():
    # letter/prime source names used to stop a chain at 24 stages
    rng = np.random.default_rng(40)
    stages = [random_stage(rng, g_lo=-1.0, g_hi=3.0)]
    for _ in range(39):
        stages.append(replace(random_stage(rng, g_lo=-1.0, g_hi=3.0),
                              r_left=stages[-1].r_right))
    chain = StageChain(tuple(stages))
    est = chain_estimator(chain, W0)
    assert list(est.weights)[-3:] == [(39, "r"), (39, "a"), (39, "a'")]
    assert set(chain.temperatures()) == set(est.weights) - {(0, "l")}
    oracle = chain_added_noise_recursion(stages, W0)
    assert chain_added_noise(chain, W0).total == pytest.approx(oracle, rel=1e-12)


def test_chain_gain_underflow_raises_value_error():
    # three stages of |G| ~ 4e-302 at 1 rad/s: the gain ahead of stage 2
    # underflows to 0, and dividing by it must not be a ZeroDivisionError
    chain = StageChain((OpAmpStage(50.0, 50.0, 50.0, Feedback.capacitive(1e300)),) * 3)
    message = "chain gain ahead of stage 2 underflows to 0 at omega = 1.0 rad/s"
    for call in (chain_added_noise, downstream_noise_fraction):
        with pytest.raises(ValueError) as err:
            call(chain, 1.0)
        assert str(err.value) == message
