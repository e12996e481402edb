"""The batched frequency sweep against the per-point oracle, and the CLI
budget arrays against the per-map estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunet import (Capacitor, Feedback, Inductor, OpAmp, PortSpec, QuantumNetwork,
                   SingularNetworkError, estimator_from_scattering, netlist)
from qunet.cli import _circuit_budget, _rows
from qunet.network import SWEEP_BLOCK_ENTRIES

from helpers import random_passive_network
from oracles import scattering_per_point

EPS = np.finfo(float).eps
TWO_PI = 2.0 * math.pi

seeds = st.integers(0, 2 ** 32 - 1)
grid_sizes = st.integers(1, 3000)
impedances = st.floats(0.7, 3.7).map(lambda e: 10.0 ** e)
temperatures = st.one_of(st.just(0.0), st.floats(0.0, 300.0))


def random_grid(rng, size: int) -> np.ndarray:
    """``size`` sorted angular frequencies, log-uniform over 1 kHz..1 MHz."""
    return np.sort(TWO_PI * 10.0 ** rng.uniform(3.0, 6.0, size))


def checked_points(size: int, n: int) -> np.ndarray:
    """Every block edge of an n-unknown sweep plus about 100 points between."""
    step = max(1, SWEEP_BLOCK_ENTRIES // (n * n))
    edges = np.arange(0, size, step)
    pts = np.r_[edges, edges - 1, np.arange(0, size, max(1, size // 100)), size - 1]
    return np.unique(pts[(pts >= 0) & (pts < size)])


@st.composite
def stage_specs(draw):
    """One amplifier stage: impedances, C, L or X feedback giving |G| in
    1e-2..1e6 at a reference frequency inside the grid band, temperatures."""
    r_l, r_r, r_a = draw(impedances), draw(impedances), draw(impedances)
    z = 10.0 ** draw(st.floats(-2.0, 6.0)) * math.sqrt(r_l * r_r) / 2.0
    w_ref = TWO_PI * 10.0 ** draw(st.floats(3.0, 6.0))
    kind = draw(st.sampled_from("CLX"))
    value = {"C": 1.0 / (w_ref * z), "L": z / w_ref,
             "X": z * draw(st.sampled_from((1.0, -1.0)))}[kind]
    temps = [draw(temperatures) for _ in range(4)]
    return r_l, r_r, r_a, kind, value, temps


def stage_network(spec) -> QuantumNetwork:
    r_l, r_r, r_a, kind, value, _ = spec
    return QuantumNetwork([PortSpec("l", r_l), PortSpec("r", r_r)],
                          [OpAmp("amp", "l", "r", r_a, Feedback(kind, value))])


@settings(max_examples=40, deadline=None)
@given(seeds, grid_sizes)
def test_sweep_matches_oracle_on_passive_networks(seed, size):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(*random_passive_network(rng))
    grid = random_grid(rng, size)
    sweep = net.sweep(grid)
    assert sweep.matrices.shape == (size, len(net.ports), len(net.ports))
    n = len(net.nodes) + len(net.ports)
    for i in checked_points(size, n):
        ref, cond = scattering_per_point(net, grid[i])
        # Lossless ladders resonate: near a resonance S itself is sensitive
        # to the last bit of an element value, and any two double-precision
        # solves differ by about eps times the condition number.
        tol = (1e-13 + 16.0 * EPS * cond) * np.max(np.abs(ref))
        assert np.max(np.abs(sweep.matrices[i] - ref)) <= tol, (i, cond)


@settings(max_examples=60, deadline=None)
@given(stage_specs(), seeds, grid_sizes)
def test_sweep_matches_oracle_on_active_stages(spec, seed, size):
    rng = np.random.default_rng(seed)
    net = stage_network(spec)
    grid = random_grid(rng, size)
    sweep = net.sweep(grid)
    for i in checked_points(size, 5):
        ref, _ = scattering_per_point(net, grid[i])
        assert np.max(np.abs(sweep.matrices[i] - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(stage_specs(), st.floats(3.0, 6.0).map(lambda e: TWO_PI * 10.0 ** e))
def test_scattering_is_the_one_point_sweep(spec, w):
    net = stage_network(spec)
    single, swept = net.scattering(w), net.sweep([w])[0]
    assert single.omega == swept.omega == w
    assert np.array_equal(single.matrix, swept.matrix)
    assert single.outputs == swept.outputs and single.inputs == swept.inputs


@settings(max_examples=30, deadline=None)
@given(seeds, grid_sizes)
def test_requested_rows_equal_rows_of_full_sweep(seed, size):
    rng = np.random.default_rng(seed)
    ports, comps = random_passive_network(rng)
    net = QuantumNetwork(ports, comps)
    grid = random_grid(rng, size)
    full = net.sweep(grid).matrices
    r = int(rng.integers(len(ports)))
    part = net.sweep(grid, outputs=(ports[r].name,))
    assert [c.name for c in part.outputs] == [ports[r].name]
    # Same factorization; only the product with B may round differently.
    scale = np.max(np.abs(full), axis=(1, 2))
    assert np.all(np.abs(part.matrices[:, 0] - full[:, r]).max(axis=1) <= 8 * EPS * scale)


def circuit_text(specs) -> str:
    """``.qnet`` text of independent stages; signal and readout on stage 0."""
    out = []
    for k, (r_l, r_r, _, _, _, temps) in enumerate(specs):
        out.append(f"line l{k} impedance={r_l!r} temperature={temps[0]!r}")
        out.append(f"line r{k} impedance={r_r!r} temperature={temps[1]!r}")
    for k, (_, _, r_a, kind, value, temps) in enumerate(specs):
        out.append(f"opamp amp{k} left=l{k} right=r{k} noise_impedance={r_a!r} "
                   f"noise_temp={temps[2]!r} conj_temp={temps[3]!r} "
                   f"feedback={kind}:{value!r}")
    return "\n".join(out + ["signal l0", "readout r0"]) + "\n"


reactive_specs = stage_specs().filter(lambda s: s[3] != "X")


@settings(max_examples=40, deadline=None)
@given(st.lists(reactive_specs, min_size=1, max_size=3), seeds, st.integers(1, 40))
def test_budget_arrays_equal_per_point_estimator_rows(specs, seed, size):
    doc = netlist.parse(circuit_text(specs))
    grid = random_grid(np.random.default_rng(seed), size)
    omegas, names, mu2, sigma = _circuit_budget(doc, grid)
    assert np.array_equal(omegas, grid)
    assert mu2.shape == sigma.shape == (len(names), size)
    net = netlist.to_network(doc)
    temps = net.channel_temperatures()
    for i, w in enumerate(grid):
        est = estimator_from_scattering(net.scattering(w), doc.signal, doc.readout)
        rows = _rows(est, temps, w)
        assert names == [name for name, _, _ in rows]
        assert sigma[:, i].tolist() == [s for _, _, s in rows]
        ref = np.array([m for _, m, _ in rows])
        assert np.max(np.abs(mu2[:, i] - ref)) <= 1e-13 * np.max(ref)


def test_sweep_is_a_read_only_sequence():
    net = QuantumNetwork([PortSpec("l", 50.0), PortSpec("r", 75.0)],
                         [OpAmp("amp", "l", "r", 50.0, Feedback.capacitive(1e-10))])
    grid = TWO_PI * np.array([1e3, 1e4, 1e5])
    sweep = net.sweep(grid, outputs=("r",))
    assert len(sweep) == 3 and sweep.matrices.shape == (3, 1, 4)
    assert [m.omega for m in sweep] == grid.tolist()
    assert sweep[-1].omega == grid[-1]
    full = net.sweep(grid).matrices
    assert np.max(np.abs(sweep.matrices[:, 0] - full[:, 1])) <= 8 * EPS * np.max(np.abs(full))
    with pytest.raises(ValueError):
        sweep.matrices[0, 0, 0] = 0.0
    with pytest.raises(KeyError):
        net.sweep(grid, outputs=("nowhere",))
    assert len(net.sweep([])) == 0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=repr(bad)):
            net.sweep([1e5, bad, 2e5])


def test_failing_point_is_named_not_its_block():
    # An isolated LC tank resonates at exactly 1 rad/s (L = C = 1): its node
    # equation vanishes there and only there, in the middle of one block.
    net = QuantumNetwork([PortSpec("p", 50.0, node="n0")],
                         [Capacitor("x", "gnd", 1.0), Inductor("x", "gnd", 1.0)])
    with pytest.raises(SingularNetworkError, match=r"omega = 1\.0 rad/s.*rank 2 < 3"):
        net.sweep([0.5, 0.75, 1.0, 2.0])
    assert len(net.sweep([0.5, 0.75, 2.0])) == 3


def test_overflow_is_not_reported_as_rank_loss():
    net = QuantumNetwork([PortSpec("l", 50.0), PortSpec("r", 50.0)],
                         [OpAmp("amp", "l", "r", 50.0, Feedback.capacitive(1e-12))])
    with pytest.raises(SingularNetworkError) as err:
        net.sweep([1.0, 1e-300])
    message = str(err.value)
    assert "overflow" in message and "1e-300 rad/s" in message
    assert "rank" not in message

