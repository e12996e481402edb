import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunet import (HBAR, MICROSCOPE, Capacitor, Channel, Feedback, Inductor,
                   NoTransductionError, OpAmp, PortSpec, QuantumNetwork, ScatteringMap,
                   SingularNetworkError, commutator_residual, stage_scattering,
                   thermal_occupation)
from qunet.amplifier import OpAmpStage, _stage_rows, added_noise
from qunet.netlist import Sweep

from helpers import random_passive_network, random_omega, random_stage
from oracles import check_commutators, estimator_from_scattering, johnson_voltage_psd

W0 = 2.0 * math.pi * 1e5


def unitarity_defect(matrix):
    # independent oracle: explicit matrix product against the identity
    s = np.asarray(matrix)
    return float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[1]))))


def test_line_field_prefactors():
    # c_U and c_I in U = c_U (a_out + a_in), I = c_I (a_out - a_in)
    def line_voltage_prefactor(w, r):
        return math.sqrt(HBAR * abs(w) * r / 2.0)

    def line_current_prefactor(w, r):
        return math.sqrt(HBAR * abs(w) / (2.0 * r))

    rng = np.random.default_rng(13)
    for _ in range(20):
        w = random_omega(rng)
        r = 10.0 ** rng.uniform(0.0, 5.0)
        cu = line_voltage_prefactor(w, r)
        ci = line_current_prefactor(w, r)
        # traveling wave sees the line impedance
        assert cu / ci == pytest.approx(r, rel=1e-12)
        # open circuit (a_out = a_in): voltage PSD (2 c_U)^2 sigma/2 ... the
        # symmetrized square of 2 c_U a carries sigma, reproducing the
        # thermal law
        t = float(rng.uniform(0.0, 300.0))
        sigma = thermal_occupation(w, t)
        assert (2.0 * cu) ** 2 * sigma == pytest.approx(
            johnson_voltage_psd(r, w, t), rel=1e-12)


def test_single_open_line_reflects_losslessly():
    smap = QuantumNetwork([PortSpec("p", 50.0)]).sweep([W0])[0]
    assert smap.matrix.shape == (1, 1)
    assert abs(smap.matrix[0, 0]) == pytest.approx(1.0, abs=1e-14)
    assert smap.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_grounded_line_reflects_with_sign_flip():
    smap = QuantumNetwork([PortSpec("p", 50.0, node="gnd")]).sweep([W0])[0]
    assert smap.matrix[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_passive_rc_two_port_is_unitary():
    rng = np.random.default_rng(3)
    ports = [PortSpec("a", 50.0, 300.0, node="n1"),
             PortSpec("b", 75.0, 4.2, node="n2")]
    comps = [Capacitor("n1", "n2", 3.3e-9)]
    for _ in range(10):
        w = random_omega(rng)
        smap = QuantumNetwork(ports, comps).sweep([w])[0]
        assert unitarity_defect(smap.matrix) < 1e-12
        assert check_commutators(smap) < 1e-12


def test_random_passive_networks_unitary():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ports, comps = random_passive_network(rng)
        net = QuantumNetwork(ports, comps)
        smap = net.sweep([random_omega(rng)])[0]
        assert check_commutators(smap) < 1e-10
        assert unitarity_defect(smap.matrix) < 1e-10


def test_identity_map_has_zero_residual():
    chans = (Channel("a"), Channel("b", conjugated=True), Channel("c"))
    smap = ScatteringMap(W0, np.eye(3), chans, chans)
    assert check_commutators(smap) == 0.0


def test_gain_without_conjugated_channel_violates_consistency():
    # sqrt(2) of bare gain on a normal channel: residual exactly 1
    smap = ScatteringMap(W0, [[math.sqrt(2.0)]], (Channel("a"),), (Channel("a"),))
    assert check_commutators(smap) == pytest.approx(1.0, rel=1e-12)


def test_commutator_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator_residual(np.eye(3), [1.0, 1.0])
    with pytest.raises(ValueError):
        commutator_residual(np.ones((2, 3)), [1.0, 1.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        commutator_residual(np.ones((2, 3)), [1.0, 1.0, 1.0])  # needs j_out
    # a stack is checked against its last two axes
    stack = np.ones((5, 2, 3))
    with pytest.raises(ValueError, match="signature length"):
        commutator_residual(stack, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="output signature"):
        commutator_residual(stack, [1.0, 1.0, -1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="square"):
        commutator_residual(stack, [1.0, 1.0, -1.0])
    # a square stack without j_out is checked against j_in
    square = np.stack([np.eye(2), np.eye(2)[::-1], 2.0 * np.eye(2)])
    assert commutator_residual(square[:2], [1.0, 1.0]) == 0.0
    assert commutator_residual(square, [1.0, -1.0]) == 3.0
    with pytest.raises(ValueError):
        commutator_residual(np.ones(3), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ScatteringMap(W0, np.eye(3), (Channel("a"),), (Channel("b"),))


def test_commutator_residual_names_an_empty_axis():
    # an empty stack has no largest residual: the error names the empty axis
    for shape, j_in, j_out in [((0, 2, 2), [1.0, 1.0], None),
                               ((0, 2, 3), [1.0, 1.0, -1.0], [1.0, 1.0]),
                               ((2, 0, 5, 2, 2), [1.0, 1.0], None)]:
        with pytest.raises(ValueError, match="no frequency points"):
            commutator_residual(np.zeros(shape), j_in, j_out)
    for shape, j_in in [((3, 0, 0), []), ((3, 0, 2), [1.0, -1.0]),
                        ((0, 2), [1.0, 1.0])]:
        with pytest.raises(ValueError, match="no output rows"):
            commutator_residual(np.zeros(shape), j_in, [])
    # the empty network's sweep is such a stack
    sweep = QuantumNetwork([], []).sweep([1.0])
    with pytest.raises(ValueError, match="no output rows"):
        commutator_residual(sweep.matrices, [], [])


def stacked_residual_equals_per_map(sweep):
    """The one residual over a sweep's stack is the largest per-map one."""
    jin = [c.signature for c in sweep.inputs]
    jout = [c.signature for c in sweep.outputs]
    return commutator_residual(sweep.matrices, jin, jout) == max(
        check_commutators(m) for m in sweep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
def test_stacked_residual_is_exact(seed, size):
    rng = np.random.default_rng(seed)
    grid = np.sort(2.0 * math.pi * 10.0 ** rng.uniform(3.0, 6.0, size))
    passive = QuantumNetwork(*random_passive_network(rng))
    assert stacked_residual_equals_per_map(passive.sweep(grid))
    stages = [random_stage(rng) for _ in range(int(rng.integers(1, 4)))]
    ports = [port for k, stage in enumerate(stages)
             for port in (PortSpec(f"l{k}", stage.r_left), PortSpec(f"r{k}", stage.r_right))]
    active = QuantumNetwork(ports, [
        OpAmp(f"amp{k}", f"l{k}", f"r{k}", stage.noise_impedance, stage.feedback)
        for k, stage in enumerate(stages)])
    assert stacked_residual_equals_per_map(active.sweep(grid))
    readouts = [port.name for port in ports[1::2]]
    assert stacked_residual_equals_per_map(active.sweep(grid, outputs=readouts))


def test_stacked_residual_of_the_microscope_stage():
    stage = MICROSCOPE.stage
    w_t = MICROSCOPE.params.carrier_omega
    maps = [stage_scattering(stage, w) for w in w_t * np.array([0.5, 1.0, 2.0, 7.0])]
    stack = np.array([m.matrix for m in maps])
    jin = [c.signature for c in maps[0].inputs]
    jout = [c.signature for c in maps[0].outputs]
    assert commutator_residual(stack, jin, jout) == max(check_commutators(m) for m in maps)
    assert commutator_residual(stack[1], jin, jout) == check_commutators(maps[1])


def test_opamp_assembly_matches_analytic_stage():
    zf = Feedback.reactance(100.0)
    ports = [PortSpec("l", 50.0), PortSpec("r", 50.0)]
    amp = OpAmp("amp", "l", "r", noise_impedance=80.0, feedback=zf)
    smap = QuantumNetwork(ports, [amp]).sweep([W0])[0]
    stage = OpAmpStage(r_left=50.0, r_right=50.0, noise_impedance=80.0,
                       feedback=zf)
    expected = stage_scattering(stage, W0)
    assert smap.matrix[1, 0] == pytest.approx(-2.0 * 1j * 100.0 / 50.0, abs=1e-12)  # r <- l
    assert np.max(np.abs(smap.matrix - expected.matrix)) < 1e-12
    assert check_commutators(smap) < 1e-12
    # channel bookkeeping: exactly one conjugated input
    assert [c.conjugated for c in smap.inputs] == [False, False, False, True]


def test_decorated_opamp_networks_stay_consistent():
    # extra monitoring line on the input node plus shunt reactances at both
    # amplifier nodes: the generalized node equations must still preserve
    # the signed commutators
    rng = np.random.default_rng(29)
    for _ in range(20):
        r_l, r_r, r_s, r_a = (10.0 ** rng.uniform(1.0, 3.0) for _ in range(4))
        x = (10.0 ** rng.uniform(0.0, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        ports = [PortSpec("l", r_l, 300.0, node="nl"),
                 PortSpec("r", r_r, 4.0, node="nr"),
                 PortSpec("s", r_s, 77.0, node="nl")]
        comps = [OpAmp("amp", "nl", "nr", r_a, Feedback.reactance(x)),
                 Capacitor("nl", "gnd", 10.0 ** rng.uniform(-12.0, -9.0)),
                 Inductor("nr", "gnd", 10.0 ** rng.uniform(-6.0, -3.0))]
        smap = QuantumNetwork(ports, comps).sweep([random_omega(rng)])[0]
        assert check_commutators(smap) < 1e-10


def test_assembled_network_sweep_order():
    net = QuantumNetwork([PortSpec("p", 50.0)], [])
    grid = Sweep(1e3, 1e5, 5, "log").to_grid()
    maps = net.sweep(grid)
    assert [m.omega for m in maps] == grid.tolist()


def test_port_permutation_permutes_scattering():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ports, comps = random_passive_network(rng)
        w = random_omega(rng)
        base = QuantumNetwork(ports, comps).sweep([w])[0]
        perm = rng.permutation(len(ports))
        permuted = QuantumNetwork([ports[i] for i in perm], comps).sweep([w])[0]
        n = len(ports)
        expected = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                expected[i, j] = base.matrix[perm[i], perm[j]]
        assert np.max(np.abs(permuted.matrix - expected)) < 1e-12


def test_construction_validation():
    with pytest.raises(ValueError):
        QuantumNetwork([PortSpec("p", 50.0), PortSpec("p", 75.0)], [])
    with pytest.raises(ValueError, match="duplicate amplifier names"):
        QuantumNetwork([PortSpec(p, 50.0) for p in "lmrs"],
                       [OpAmp("a", "l", "m", 50.0, Feedback.reactance(10.0)),
                        OpAmp("a", "r", "s", 50.0, Feedback.reactance(10.0))])
    with pytest.raises(ValueError):
        PortSpec("p", 0.0)
    with pytest.raises(ValueError):
        PortSpec("p", math.inf)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            PortSpec("p", 50.0, bad)
    zf = Feedback.reactance(10.0)
    with pytest.raises(ValueError):
        OpAmp("a", "n", "n", 50.0, zf)
    with pytest.raises(ValueError):
        OpAmp("a", "gnd", "n", 50.0, zf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            OpAmp("a", "m", "n", bad, zf)
        with pytest.raises(ValueError, match="conj_temp"):
            OpAmp("a", "m", "n", 50.0, zf, conj_temp=bad)
    with pytest.raises(TypeError):
        QuantumNetwork([PortSpec("p", 50.0)], ["resistor"])
    with pytest.raises(ValueError):
        Capacitor("x", "x", 1e-9)
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="capacitance"):
            Capacitor("x", "y", bad)
        with pytest.raises(ValueError, match="inductance"):
            Inductor("x", "y", bad)
    with pytest.raises(ValueError):
        Feedback("Z", 1.0)
    with pytest.raises(ValueError):
        Feedback.capacitive(0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Feedback.reactance(bad)
    assert Feedback.reactance(-5.0).impedance(W0) == -5j


def test_back_to_back_amplifiers_rejected():
    ports = [PortSpec("l", 50.0), PortSpec("m", 50.0), PortSpec("r", 50.0)]
    zf = Feedback.reactance(10.0)
    amps = [OpAmp("a1", "l", "m", 50.0, zf), OpAmp("a2", "m", "r", 50.0, zf)]
    with pytest.raises(ValueError, match="cascade"):
        QuantumNetwork(ports, amps)


def test_dissipative_feedback_breaks_commutators():
    # The reason Feedback is reactive only: a lumped resistor has no noise
    # line of its own, so the stage rows it gives violate S J S^dagger = J.
    def stage(zf):
        return SimpleNamespace(r_left=50.0, r_right=50.0, noise_impedance=50.0,
                               feedback=SimpleNamespace(impedance=lambda w: zf))

    signature = ([1, 1, 1, -1], [1, 1])
    assert commutator_residual(_stage_rows(stage(100.0), W0), *signature) > 1e-3
    assert commutator_residual(_stage_rows(stage(100.0j), W0), *signature) < 1e-12
    with pytest.raises(ValueError, match="dissipative"):
        Feedback("R", 100.0)


def test_singular_network_reports_frequency_and_rank():
    # isolated two-node island bridged by one capacitor: its potential is
    # undetermined and the equations lose rank
    ports = [PortSpec("p", 50.0, node="n0")]
    comps = [Capacitor("x", "y", 1e-9)]
    net = QuantumNetwork(ports, comps)
    with pytest.raises(SingularNetworkError) as err:
        net.sweep([W0])
    message = str(err.value)
    assert "rank" in message
    assert repr(1e5) in message or repr(W0) in message


def test_two_port_estimator_pure_transducer():
    chans = (Channel("I"), Channel("E"))
    smap = ScatteringMap(W0, [[0.0, -1.0], [1.0, 0.0]], chans, chans)
    est = estimator_from_scattering(smap, signal="E", readout="I")
    assert est.weights["E"] == 1.0
    assert est.weights["I"] == 0.0
    assert est.gain == -1.0


def test_two_port_estimator_generic_entries():
    alpha, beta = 0.3 + 0.1j, -0.7 + 0.4j
    gamma, delta = 0.2 - 0.5j, 0.6 + 0.2j
    chans = (Channel("I"), Channel("E"))
    smap = ScatteringMap(W0, [[alpha, beta], [gamma, delta]], chans, chans)
    est = estimator_from_scattering(smap, signal="E", readout="I")
    assert est.weights["I"] == pytest.approx(alpha / beta, rel=1e-15)
    assert est.weights["E"] == 1.0


def test_two_port_estimator_equal_coupling_gives_line_noise():
    # readout = alpha (I + E): noise weight 1, added noise equals the line's
    # own thermal spectrum
    chans = (Channel("I"), Channel("E"))
    smap = ScatteringMap(W0, [[0.5, 0.5], [0.5, -0.5]], chans, chans)
    est = estimator_from_scattering(smap, signal="E", readout="I")
    assert est.weights["I"] == 1.0
    budget = added_noise(est, {"I": 77.0}, W0)
    assert budget.total == thermal_occupation(W0, 77.0)


def test_estimator_on_solved_passive_two_port():
    # capacitively bridged pair of lines: the readout picks up the signal
    # through the bridge, with the readout line's own fluctuations as the
    # only other source; the unitarity of S ties the two weights together
    ports = [PortSpec("sig", 50.0, 0.0, node="n1"),
             PortSpec("out", 75.0, 0.0, node="n2")]
    comps = [Capacitor("n1", "n2", 1e-9)]
    smap = QuantumNetwork(ports, comps).sweep([W0])[0]
    est = estimator_from_scattering(smap, signal="sig", readout="out")
    assert est.weights["sig"] == 1.0
    mu = est.weights["out"]
    assert abs(mu) > 0.0
    # |beta|^2 + |alpha|^2 = 1 for a unitary row, so |mu|^2 = 1/|beta|^2 - 1
    beta = abs(est.gain)
    assert abs(mu) ** 2 == pytest.approx(1.0 / beta ** 2 - 1.0, rel=1e-10)
    budget = added_noise(est, {"out": 0.0}, W0)
    assert budget.total == pytest.approx(0.5 * abs(mu) ** 2, rel=1e-12)


def test_no_transduction_error():
    chans = (Channel("I"), Channel("E"))
    smap = ScatteringMap(W0, np.eye(2), chans, chans)
    with pytest.raises(NoTransductionError):
        estimator_from_scattering(smap, signal="E", readout="I")


def test_estimator_normalization_is_bit_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        stage = random_stage(rng)
        smap = stage_scattering(stage, random_omega(rng))
        est = estimator_from_scattering(smap, "l", "r")
        assert est.weights["l"] == 1.0
        assert est.gain == smap.matrix[1, 0]               # r <- l
