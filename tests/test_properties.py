"""Property tests: the stage relations against two independent references,
the chain composition against itself and a per-stage recursion, the noise
bounds of the network solve, and the finite/domain checks at every
constructor and noise law."""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qunet import (MICROSCOPE, AcceleroParams, Capacitor, Feedback, NoiseBudget,
                   OpAmp, OpAmpStage, PortSpec, QuantumNetwork, StageChain,
                   accelerometer_budget, chain_added_noise, chain_estimator,
                   downstream_noise_fraction, matching_scan, netlist,
                   stage_added_noise, stage_estimator, stage_scattering,
                   thermal_occupation)
from qunet.cli import _circuit_budget, main

from helpers import random_passive_network
from oracles import (added_noise_closed_form, chain_added_noise_recursion,
                     estimator_weights_closed_form, merge_chain_estimators,
                     scattering_per_point)

impedances = st.floats(0.7, 3.7).map(lambda e: 10.0 ** e)
temperatures = st.one_of(st.just(0.0), st.floats(0.0, 300.0))
omegas = st.floats(3.0, 6.0).map(lambda e: 2.0 * math.pi * 10.0 ** e)
any_float = st.floats(allow_nan=True, allow_infinity=True)
EPS = np.finfo(float).eps


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
    solved = QuantumNetwork(ports, [amp]).sweep([w])[0].matrix
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


@st.composite
def chains(draw):
    """Impedance-continuous chain of 1 to 40 stages, |G| in 0.1..1e3 each."""
    n = draw(st.integers(1, 40))
    lines = [draw(impedances) for _ in range(n + 1)]
    stages = []
    for r_l, r_r in zip(lines, lines[1:]):
        g = 10.0 ** draw(st.floats(-1.0, 3.0))
        x = g * math.sqrt(r_l * r_r) / 2.0 * draw(st.sampled_from((1.0, -1.0)))
        stages.append(OpAmpStage(r_l, r_r, draw(impedances), Feedback.reactance(x),
                                 noise_temp=draw(temperatures),
                                 conj_temp=draw(temperatures),
                                 readout_temp=draw(temperatures)))
    return StageChain(tuple(stages))


@settings(max_examples=150, deadline=None)
@given(chains(), omegas, st.data())
def test_chain_composition_is_associative(chain, w, data):
    whole = chain_estimator(chain, w)
    if len(chain) > 1:
        split = data.draw(st.integers(1, len(chain) - 1))
        front, back = StageChain(chain.stages[:split]), StageChain(chain.stages[split:])
        merged = merge_chain_estimators(chain_estimator(front, w), split,
                                        chain_estimator(back, w))
        assert merged.signal == whole.signal == (0, "l")
        assert merged.weights.keys() == whole.weights.keys()
        for key, mu in whole.weights.items():
            assert abs(merged.weights[key] - mu) <= 1e-12 * abs(mu)
        assert abs(merged.gain - whole.gain) <= 1e-12 * abs(whole.gain)
    assert len(whole.weights) == 1 + 3 * len(chain)
    total = chain_added_noise(chain, w).total
    oracle = chain_added_noise_recursion(chain.stages, w)
    assert abs(total - oracle) <= 1e-12 * oracle


@st.composite
def cold_chains(draw):
    """Chain of 1 to 4 stages at 0 K, |G| in 0.1..1e3 each, about half of
    them noise-matched (R_a = R_l), where a stage nearly meets the bound."""
    n = draw(st.integers(1, 4))
    lines = [draw(impedances) for _ in range(n + 1)]
    stages = []
    for r_l, r_r in zip(lines, lines[1:]):
        g = 10.0 ** draw(st.floats(-1.0, 3.0))
        x = g * math.sqrt(r_l * r_r) / 2.0 * draw(st.sampled_from((1.0, -1.0)))
        r_a = draw(st.one_of(st.just(r_l), impedances))
        stages.append(OpAmpStage(r_l, r_r, r_a, Feedback.reactance(x)))
    return StageChain(tuple(stages))


@settings(max_examples=300, deadline=None)
@given(cold_chains(), omegas)
def test_chain_meets_the_amplifier_bound(chain, w):
    # Caves over a Von Neumann chain: the whole chain is one phase-insensitive
    # amplifier of power gain |beta|^2, so it adds at least (1 - 1/|beta|^2)/2
    # quanta; the smallest relative slack over 2,559 seeded chains is 2.4e-4.
    # At 0 K every sigma is 1/2 and stage 0's conjugated line alone adds
    # >= 1/2, so the bound cannot see a downstream stage.  The identity under
    # it can: the chain readout is a normal mode, so its row of S has J-norm
    # 1 and the weights, that row over beta, have J-norm 1/|beta|^2.
    est = chain_estimator(chain, w)
    beta = abs(est.gain)
    terms = [(-1.0 if role == "a'" else 1.0) * abs(mu) ** 2
             for (_, role), mu in est.weights.items()]
    assert abs(math.fsum(terms) - 1.0 / beta ** 2) <= 1e-12 * math.fsum(map(abs, terms))
    assume(beta > 1.0)
    bound = 0.5 * (1.0 - 1.0 / beta ** 2)
    assert chain_added_noise(chain, w).total >= bound * (1.0 - 1e-12)


@st.composite
def stage_documents(draw):
    """1-3 independent stages with C, L or X feedback, |G| in 1e-2..1e6 at a
    frequency inside 1 kHz..1 MHz; signal l0, readout r0.  X feedback has no
    .qnet form, so the document is built, not parsed."""
    lines, amps = [], []
    for k in range(draw(st.integers(1, 3))):
        r_l, r_r, r_a = draw(impedances), draw(impedances), draw(impedances)
        z = 10.0 ** draw(st.floats(-2.0, 6.0)) * math.sqrt(r_l * r_r) / 2.0
        w_ref = draw(omegas)
        kind = draw(st.sampled_from("CLX"))
        value = {"C": 1.0 / (w_ref * z), "L": z / w_ref,
                 "X": z * draw(st.sampled_from((1.0, -1.0)))}[kind]
        lines += [PortSpec(f"l{k}", r_l, draw(temperatures)),
                  PortSpec(f"r{k}", r_r, draw(temperatures))]
        amps.append(OpAmp(f"amp{k}", f"l{k}", f"r{k}", r_a, Feedback(kind, value),
                          noise_temp=draw(temperatures), conj_temp=draw(temperatures)))
    return netlist.NetlistDocument(lines=lines, opamps=amps, signal="l0", readout="r0")


@settings(max_examples=150, deadline=None)
@given(stage_documents(), st.lists(omegas, min_size=1, max_size=8))
def test_budget_meets_the_amplifier_bound(doc, grid):
    # Caves: a phase-insensitive amplifier of power gain |G|^2 adds at least
    # (1 - 1/|G|^2)/2 quanta, whatever its temperatures.  |G| of stage 0 comes
    # from its feedback alone: 2 |Z_f| / sqrt(R_l R_r).
    w = np.array(grid)
    _, reached, mu2, sigma, _ = _circuit_budget(doc, w)
    total = NoiseBudget(w, dict(zip(reached, mu2)), dict(zip(reached, sigma))).total
    r_lr = math.sqrt(doc.lines[0].impedance * doc.lines[1].impedance)
    gain = np.array([2.0 * abs(doc.opamps[0].feedback.impedance(x)) / r_lr for x in w])
    bound = 0.5 * (1.0 - 1.0 / gain ** 2)
    assert np.all(total >= bound - 1e-12 * np.maximum(total, 1.0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 300.0),
       st.lists(omegas, min_size=1, max_size=8))
def test_passive_budget_is_the_bath_seen_through_the_gain(seed, t, grid):
    # A lossless network at one temperature T: the row of S is a unit vector,
    # so the noise referred to the input is sigma(T) (1/|beta|^2 - 1).
    rng = np.random.default_rng(seed)
    ports, comps = random_passive_network(rng)
    net = QuantumNetwork([PortSpec(p.name, p.impedance, t, node=p.node) for p in ports],
                         comps)
    signal, readout = (ports[int(i)].name for i in rng.integers(len(ports), size=2))
    sweep = net.sweep(grid, outputs=(readout,))
    names = [c.name for c in sweep.inputs]
    assume(signal in names)     # else the readout's part holds no signal
    for w, row in zip(sweep.omegas, sweep.matrices[:, 0]):
        beta = row[names.index(signal)]
        assume(beta != 0)
        mu2 = np.abs(np.delete(row, names.index(signal)) / beta) ** 2
        sigma = thermal_occupation(w, t)
        _, cond = scattering_per_point(net, w)
        tol = 1e-13 + 16.0 * EPS * cond
        expected = sigma * (1.0 / abs(beta) ** 2 - 1.0)
        assert abs(mu2.sum() * sigma - expected) <= tol * sigma / abs(beta) ** 2


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


signed_omegas = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from((1.0, -1.0)),
                          st.floats(-10.0, 15.0))
bath_temperatures = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 2.2e-308)),
                              st.floats(-10.0, 10.0).map(lambda e: 10.0 ** e))
bad_omegas = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300))
bad_temperatures = st.sampled_from((-1.0, -5e-324, -math.inf, math.nan, math.inf, 1e10))


def float_occupations(ws, ts):
    """(k, F) float calls of ``thermal_occupation``, or the first error's text
    in row-major order."""
    out = np.empty((len(ts), len(ws)))
    for i, t in enumerate(ts):
        for j, w in enumerate(ws):
            try:
                out[i, j] = thermal_occupation(w, t)
            except ValueError as exc:
                return str(exc)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(signed_omegas, min_size=1, max_size=12),
       st.lists(bath_temperatures, min_size=1, max_size=12))
def test_batched_occupation_matches_float_calls(ws, ts):
    expected = float_occupations(ws, ts)
    sigma = thermal_occupation(np.array(ws)[None, :], np.array(ts)[:, None])
    assert type(sigma) is np.ndarray and sigma.shape == (len(ts), len(ws))
    # np.tanh reaches 1 a little before math.tanh (x ~ 18.99 against 19.06)
    assert np.all(sigma[expected == 0.5] == 0.5)
    assert np.all(np.abs(sigma - expected) <= 1e-15 * expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(signed_omegas, min_size=1, max_size=6),
       st.lists(bath_temperatures, min_size=1, max_size=6),
       st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.one_of(bad_omegas,
                                                                     bad_temperatures)),
                min_size=1, max_size=3))
def test_batched_occupation_with_bad_entries_acts_as_float_calls(ws, ts, bad):
    # Each bad value replaces an omega (True) or a temperature (False); the
    # pair (1e-300 rad/s, 1e10 K) is the argument's underflow.
    for on_omega, at, value in bad:
        axis = ws if on_omega else ts
        axis[at % len(axis)] = value
    expected = float_occupations(ws, ts)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            thermal_occupation(np.array(ws)[None, :], np.array(ts)[:, None])
        assert str(exc.value) == expected
    else:   # every bad value landed in the domain: 1e-300 rad/s at 0 K, 1e10 K
        sigma = thermal_occupation(np.array(ws)[None, :], np.array(ts)[:, None])
        assert np.all(np.abs(sigma - expected) <= 1e-15 * expected)


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


# Every value anywhere in [1e-300, 1e300]: far past where the products and
# quotients of the stage relations leave double range.
wide = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
wide_temperatures = st.one_of(st.just(0.0), wide)
signs = st.sampled_from((1.0, -1.0))


@st.composite
def wide_chains(draw):
    """1-3 impedance-matched stages with C, L or signed X feedback."""
    stages, r_left = [], draw(wide)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("CLX"))
        value = draw(wide) * (draw(signs) if kind == "X" else 1.0)
        stages.append(OpAmpStage(r_left, draw(wide), draw(wide), Feedback(kind, value),
                                 draw(wide_temperatures), draw(wide_temperatures),
                                 draw(wide_temperatures)))
        r_left = stages[-1].r_right
    return StageChain(tuple(stages))


def value_or_none(call):
    """``call()``, or None where it raises ValueError; any other error propagates."""
    try:
        return call()
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(wide_chains(), wide, st.lists(wide, min_size=1, max_size=3), st.tuples(signs, wide),
       wide, wide_temperatures)
def test_every_budget_is_finite_or_a_value_error(chain, w, noise_impedances, gain,
                                                 damping, theta):
    stage = chain.stages[0]
    params = replace(MICROSCOPE.params, mech_damping=damping, mech_theta=theta)
    for budget in (lambda: stage_added_noise(stage, w), lambda: chain_added_noise(chain, w),
                   lambda: accelerometer_budget(params, stage, gain[0] * gain[1])):
        budget = value_or_none(budget)
        assert budget is None or math.isfinite(budget.total)
    fraction = value_or_none(lambda: downstream_noise_fraction(chain, w))
    assert fraction is None or 0.0 <= fraction <= 1.0
    scan = value_or_none(lambda: matching_scan(stage, noise_impedances, w))
    assert scan is None or all(map(math.isfinite, scan.sigmas))


@settings(max_examples=100, deadline=None)
@given(wide, wide_temperatures, st.tuples(signs, wide), st.booleans())
def test_accel_overrides_exit_0_or_print_one_error(damping, theta, gain, as_json):
    argv = ["accel", f"--hm={damping!r}", f"--theta-m={theta!r}",
            f"--transduction-gain={gain[0] * gain[1]!r}"] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2 and not out.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
