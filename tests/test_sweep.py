"""The batched frequency sweep against the per-point oracle, and the CLI
budget arrays against the per-map estimator."""

import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunet import (Capacitor, Feedback, Inductor, NoiseBudget, OpAmp, PortSpec,
                   QuantumNetwork, SingularNetworkError, netlist, thermal_occupation)
from qunet.cli import CSV_BLOCK_ROWS, _circuit_budget, main
from qunet.network import GROUND_NAMES, SWEEP_BLOCK_ENTRIES, _systems

from helpers import circuit_text, random_passive_network
from oracles import (csv_rows_per_value, dense_sweep, dense_systems, estimator_from_scattering,
                     scattering_per_point)

EPS = np.finfo(float).eps
TWO_PI = 2.0 * math.pi

seeds = st.integers(0, 2 ** 32 - 1)
grid_sizes = st.integers(1, 3000)
impedances = st.floats(0.7, 3.7).map(lambda e: 10.0 ** e)
temperatures = st.one_of(st.just(0.0), st.floats(0.0, 300.0))


def random_grid(rng, size: int) -> np.ndarray:
    """``size`` sorted angular frequencies, log-uniform over 1 kHz..1 MHz."""
    return np.sort(TWO_PI * 10.0 ** rng.uniform(3.0, 6.0, size))


def block_length(net, grid, outputs=None) -> int:
    """The points per block that ``net.sweep(grid, outputs)`` solves at once."""
    chans = [c for c in net.output_channels if outputs is None or c.name in outputs]
    with np.errstate(all="ignore"):
        return net._solvers(np.asarray(grid, float), chans)[1]


def checked_points(size: int, step: int) -> np.ndarray:
    """Every edge of blocks of ``step`` points plus about 100 points between."""
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
    for i in checked_points(size, block_length(net, grid)):
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
    for i in checked_points(size, block_length(net, grid)):
        ref, _ = scattering_per_point(net, grid[i])
        assert np.max(np.abs(sweep.matrices[i] - ref)) <= 1e-13 * np.max(np.abs(ref))


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


reactive_specs = stage_specs().filter(lambda s: s[3] != "X")


@settings(max_examples=40, deadline=None)
@given(st.lists(reactive_specs, min_size=1, max_size=3), seeds, st.integers(1, 40))
def test_budget_arrays_equal_per_point_estimator_rows(specs, seed, size):
    doc = netlist.parse(circuit_text(specs))
    grid = random_grid(np.random.default_rng(seed), size)
    names, reached, mu2, sigma, first = _circuit_budget(doc, grid)
    # The sources of the readout's stage, on every grid; every source at the first point.
    assert reached == ["r0", "amp0.a", "amp0.a'"] and mu2.shape == sigma.shape == (3, size)
    assert first.shape == (len(names),)
    net = netlist.to_network(doc)
    assert names == [c.name for c in net.input_channels if c.name != doc.signal]
    temps = net.channel_temperatures()
    for i, w in enumerate(grid):
        est = estimator_from_scattering(net.sweep([w])[0], doc.signal, doc.readout)
        noise = est.noise_weights()
        assert names == list(noise)
        assert all(noise[n] == 0.0 for n in names if n not in reached)
        # np.tanh may differ from math.tanh in the last place
        ref = np.array([thermal_occupation(w, temps[n]) for n in reached])
        assert np.all(np.abs(sigma[:, i] - ref) <= 1e-15 * ref)
        if i == 0:
            ref = np.array([thermal_occupation(w, temps[n]) for n in names])
            assert np.all(np.abs(first - ref) <= 1e-15 * ref)
        ref = np.array([abs(noise[n]) ** 2 for n in reached])
        assert np.max(np.abs(mu2[:, i] - ref)) <= 1e-13 * np.max(ref)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 6), st.integers(1, 30))
def test_grid_budget_is_the_point_budget_at_each_frequency(seed, sources, size):
    # |mu|^2 over 580 decades, some exactly 0, against spectra >= 1/2: the
    # grid's contributions and total have the bits of each point's.
    rng = np.random.default_rng(seed)
    names = [f"s{k}" for k in range(sources)]
    mu2 = np.where(rng.random((sources, size)) < 0.2, 0.0,
                   10.0 ** rng.uniform(-300.0, 280.0, (sources, size)))
    sigma = 0.5 + 10.0 ** rng.uniform(-20.0, 20.0, (sources, size))
    grid = NoiseBudget(random_grid(rng, size), dict(zip(names, mu2)), dict(zip(names, sigma)))
    assert isinstance(grid.omega, np.ndarray) and grid.total.shape == (size,)
    for i in range(size):
        point = NoiseBudget(grid.omega[i], dict(zip(names, mu2[:, i].tolist())),
                            dict(zip(names, sigma[:, i].tolist())))
        assert type(point.omega) is float and point.omega == grid.omega[i]
        assert point.total == grid.total[i]
        assert point.contributions == {k: v[i] for k, v in grid.contributions.items()}


def test_budget_takes_every_occupation_at_one_point_and_the_reached_ones_over_the_grid(
        monkeypatch):
    # qunet.cli.thermal_occupation is the name the benchmark's corruption
    # test patches: every occupation of a budget must pass through it.
    calls = []

    def spy(omega, temperature):
        calls.append((np.shape(omega), np.shape(temperature)))
        return thermal_occupation(omega, temperature)

    monkeypatch.setattr("qunet.cli.thermal_occupation", spy)
    specs = [(50.0, 75.0, 60.0, "C", 1e-9, [0.0, 4.0, 30.0, 0.0]),
             (20.0, 90.0, 40.0, "L", 1e-3, [1.0, 0.0, 2.0, 300.0])]
    doc = netlist.parse(circuit_text(specs))
    names, reached, _, sigma, first = _circuit_budget(doc, random_grid(np.random.default_rng(5), 9))
    assert len(names) == 7 and reached == ["r0", "amp0.a", "amp0.a'"] and sigma.shape == (3, 9)
    assert first.shape == (7,)
    assert calls == [((1, 1), (7, 1)), ((1, 9), (3, 1))]
    calls.clear()
    names, reached, _, sigma, first = _circuit_budget(doc, [1e5])     # no second call
    assert len(names) == 7 and reached == ["r0", "amp0.a", "amp0.a'"]
    assert sigma.shape == (3, 1) and first.shape == (7,) and calls == [((1, 1), (7, 1))]


def hot_document(t_reached: float, t_unreached: float) -> str:
    """Two stages over 5 points from 10 kHz; the readout reaches the first
    stage's a' line, at ``t_reached``, not the second's l line, at ``t_unreached``."""
    return (circuit_text([(50.0, 50.0, 50.0, "C", 6.366e-12, [0.0, 4.0, 0.0, t_reached]),
                          (50.0, 50.0, 50.0, "C", 6.366e-12, [t_unreached, 0.0, 0.0, 0.0])])
            + "sweep 1e4 1e6 5 log\n")


@pytest.mark.parametrize("t_reached, t_unreached, t_named", [
    (0.0, 1e308, "1e+308"), (5e307, 0.0, "5e+307"),
    (5e307, 1e308, "1e+308")])     # the unreached l1 comes first in source order
def test_a_source_whose_occupation_leaves_double_range_refuses_the_sweep(
        tmp_path, capsys, t_reached, t_unreached, t_named):
    # sigma leaves double range at the lowest point, 2 pi 10^4 rad/s.  The
    # unreached source weighs 0 at every point, yet refuses the sweep as
    # when every source's sigma was taken over the whole grid.
    doc, out = tmp_path / "hot.qnet", tmp_path / "out.csv"
    doc.write_text(hot_document(t_reached, t_unreached))
    assert main(["sweep", str(doc), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: spectrum at omega = 62831.853071795864 "
                                       f"rad/s and T = {t_named} K exceeds double range\n")
    assert not out.exists()


@settings(max_examples=20, deadline=None)
@given(st.lists(reactive_specs, min_size=1, max_size=4), st.lists(impedances, max_size=2),
       st.data(), st.sampled_from((2, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1)))
def test_sweep_csv_equals_the_per_row_oracle(specs, lone, data, size):
    # The signal and readout on any of 1-4 stages, beside 0-2 lone lines:
    # every other part's sources weigh 0.  The oracle weighs and prices every
    # source at every point.  Two points is the smallest sweep a document
    # holds; CSV_BLOCK_ROWS + 1 ends on a one-row block.
    j = data.draw(st.integers(0, len(specs) - 1))
    text = "".join(f"line z{k} impedance={r!r} temperature={data.draw(temperatures)!r}\n"
                   for k, r in enumerate(lone))
    text += circuit_text(specs).replace("signal l0\nreadout r0", f"signal l{j}\nreadout r{j}")
    text += f"sweep 1000.0 1000000.0 {size} log\n"
    doc = netlist.parse(text)
    grid, net = doc.sweep.to_grid(), netlist.to_network(doc)
    maps = net.sweep(grid, (doc.readout,))
    names = [c.name for c in net.input_channels]
    row = np.zeros((len(names), size), dtype=complex)
    row[[names.index(c.name) for c in maps.inputs]] = maps.matrices[:, 0, :].T
    noise = [n for n in names if n != doc.signal]
    mu2 = np.square(np.abs(row[[names.index(n) for n in noise]] / row[names.index(doc.signal)]))
    temps = net.channel_temperatures()
    sigma = thermal_occupation(grid[None, :], np.array([temps[n] for n in noise])[:, None])
    budget = NoiseBudget(grid, dict(zip(noise, mu2)), dict(zip(noise, sigma)))
    table = np.vstack([grid / TWO_PI, budget.total, *budget.contributions.values()])
    want = ",".join(["freq_hz", "total", *noise]) + "\n" + csv_rows_per_value(table)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "doc.qnet"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", path, "-o", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == want


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


def three_stages() -> QuantumNetwork:
    """Three equal op-amp stages, parts of one group, in stage order."""
    ports, comps = [], []
    for k in range(3):
        ports += [PortSpec(f"l{k}", 50.0), PortSpec(f"r{k}", 75.0)]
        comps.append(OpAmp(f"amp{k}", f"l{k}", f"r{k}", 60.0, Feedback.capacitive(1e-9)))
    return QuantumNetwork(ports, comps)


@pytest.mark.parametrize("outputs", [("r0", "r1"), ("r1", "l0")])
@pytest.mark.parametrize("size", [1, 3])
def test_parts_read_together_keep_their_inputs_in_input_order(outputs, size):
    # Stages 0 and 1 read, stage 2 not: S keeps the read stages' inputs in
    # the network's input order, lines first, not stage by stage, on the
    # LU (one point) and the rank-one path alike, and drops only exact zeros.
    net = three_stages()
    w = TWO_PI * np.array([1e3, 1e4, 1e5][:size])
    sweep = net.sweep(w, outputs)
    assert [c.name for c in sweep.inputs] == ["l0", "r0", "l1", "r1",
                                              "amp0.a", "amp0.a'", "amp1.a", "amp1.a'"]
    keep = [net.input_channels.index(c) for c in sweep.inputs]
    want = dense_sweep(net, w, outputs)
    assert np.array_equal(sweep.matrices, want[..., keep])
    assert not np.delete(want, keep, axis=2).any()


def test_a_readout_sweep_keeps_only_its_part_columns():
    # Sixteen stages at 20,000 points: the readout's S is (F, 1, 4), and the
    # budget's peak memory stays below the (F, 1, 64) stack of every input.
    specs = [(50.0, 75.0, 60.0, "C", 1e-9, [0.0, 4.0, 30.0, 0.0])] * 16
    doc = netlist.parse(circuit_text(specs) + "sweep 1e4 1e6 20000 log\n")
    grid, net = doc.sweep.to_grid(), netlist.to_network(doc)
    assert net.sweep(grid, (doc.readout,)).matrices.shape == (20000, 1, 4)
    tracemalloc.start()
    try:
        _circuit_budget(doc, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20000 * 64 * np.dtype(complex).itemsize


def test_a_signal_on_another_part_has_no_transduction(tmp_path, capsys):
    # The signal on stage 0, the readout on stage 1: the readout's columns
    # hold no signal, and both commands refuse with the same message.
    specs = [(50.0, 75.0, 60.0, "C", 1e-9, [0.0] * 4)] * 2
    doc = tmp_path / "two.qnet"
    doc.write_text(circuit_text(specs).replace("readout r0", "readout r1")
                   + "sweep 1e4 1e6 5 log\n")
    out = tmp_path / "out.csv"
    for argv in (["budget", str(doc), "--freq", "1e5"], ["sweep", str(doc), "-o", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: readout 'r1' has zero coefficient on signal 'l0': no transduction\n")
    assert not out.exists()


# Where 1 rad/s sits in a grid: first, at the middle point (a sweep's
# reference), last, past the first solve block, or alone.
ONE_AT = ("first", "middle", "last", "past the first block", "alone")


def grid_with_one(where: str, others: list, net, outputs=None) -> list:
    """The points ``others``, none of them 1 rad/s, with 1.0 placed ``where``
    in a sweep of ``net`` for ``outputs``.  ``middle`` keeps ``others``' order."""
    if where == "alone":
        return [1.0]
    if where == "past the first block":
        step = block_length(net, others, outputs)
        grid = [*np.geomspace(0.5, 0.9, step + 1).tolist(), 1.0, *others]
        assert block_length(net, grid, outputs) == step     # 1.0 is in the second block
        return grid
    at = {"first": 0, "middle": (len(others) + 1) // 2, "last": len(others)}[where]
    return [*others[:at], 1.0, *others[at:]]


@pytest.mark.parametrize("where", ONE_AT)
def test_failing_point_is_named_not_its_block(where):
    # An isolated LC tank resonates at exactly 1 rad/s (L = C = 1): its node
    # equation vanishes there and only there, in the middle of one block.
    net = QuantumNetwork([PortSpec("p", 50.0, node="n0")],
                         [Capacitor("x", "gnd", 1.0), Inductor("x", "gnd", 1.0)])
    with pytest.raises(SingularNetworkError, match=r"omega = 1\.0 rad/s.*rank 2 < 3"):
        net.sweep(grid_with_one(where, [0.5, 0.75, 2.0], net))
    assert len(net.sweep([0.5, 0.75, 2.0])) == 3


def test_a_point_the_solver_solves_is_not_named_for_a_later_one(monkeypatch):
    # A line, an L = C = 1 tank singular at exactly 1 rad/s, and a part no
    # output reads whose resonance, 1/sqrt(2) rad/s, the nearest double
    # misses: A there is near singular but factors, so it is never named.
    near = 0.7071067811865475
    net = QuantumNetwork([PortSpec("p", 50.0, node="n0")],
                         [Capacitor("x", "gnd", 1.0), Inductor("x", "gnd", 1.0),
                          Capacitor("u", "v", 1.0), Inductor("u", "gnd", 1.0),
                          Inductor("v", "gnd", 1.0)])
    assert len(net.sweep([near])) == 1
    messages = set()
    for entries in (SWEEP_BLOCK_ENTRIES, 1):   # the default block, then a point per block
        monkeypatch.setattr("qunet.network.SWEEP_BLOCK_ENTRIES", entries)
        assert (block_length(net, [near, 1.0]) == 1) == (entries == 1)
        for grid in ([near, 1.0], [1.0, near]):
            with pytest.raises(SingularNetworkError) as err:
                net.sweep(grid)
            messages.add(str(err.value))
    assert len(messages) == 1
    assert re.search(r"omega = 1\.0 rad/s.*rank 4 < 5$", messages.pop())


def test_overflow_is_not_reported_as_rank_loss():
    net = QuantumNetwork([PortSpec("l", 50.0), PortSpec("r", 50.0)],
                         [OpAmp("amp", "l", "r", 50.0, Feedback.capacitive(1e-12))])
    with pytest.raises(SingularNetworkError) as err:
        net.sweep([1.0, 1e-300])
    message = str(err.value)
    assert "overflow" in message and "1e-300 rad/s" in message
    assert "rank" not in message


def test_a_solve_that_overflows_is_not_reported_as_rank_loss():
    # At 1.7e308 rad/s the L stage's A(w) is finite and its pivot mu is 1,
    # but V(w) X_p and its gain 2 w L / sqrt(R_r R_l) leave double range.
    # On the LU path, two 1e-10 F capacitors make a node row of 1e-310
    # entries at 1e-300 rad/s, whose reciprocal scale overflows.
    net = QuantumNetwork([PortSpec("u1l", 50.0), PortSpec("u1r", 50.0),
                          PortSpec("u2l", 1.0), PortSpec("u2r", 1.0)],
                         [OpAmp("u1amp", "u1l", "u1r", 50.0, Feedback.capacitive(3.18e-5)),
                          OpAmp("u2amp", "u2l", "u2r", 1e3, Feedback.inductive(0.796))])
    ladder = QuantumNetwork([PortSpec("p", 50.0, node="n0")],
                            [Capacitor("n0", "n1", 1e-10), Capacitor("n1", "gnd", 1e-10)])
    grid = [4.05e4, 5.12e5, 1.7e308]
    for sweep, w in ((lambda: net.sweep(grid), "1.7e+308"),
                     (lambda: net.sweep(grid, ("u2r",)), "1.7e+308"),
                     (lambda: ladder.sweep([1e-300]), "1e-300"),
                     (lambda: ladder.sweep([1e-300, 1.0]), "1e-300")):
        with pytest.raises(SingularNetworkError) as err:
            sweep()
        assert str(err.value).startswith(f"scattering matrix solve overflows at omega = {w} rad/s")
        assert "rank" not in str(err.value)
    assert np.isfinite(net.sweep(grid, ("u1r",)).matrices).all()


def renamed(prefix: str, ports, components):
    """The same circuit with every name and proper node prefixed."""
    node = lambda n: n if n in GROUND_NAMES else prefix + n
    ports = [dataclasses.replace(p, name=prefix + p.name, node=node(p.attach_node))
             for p in ports]
    return ports, [dataclasses.replace(c, name=prefix + c.name, left=node(c.left),
                                       right=node(c.right)) if isinstance(c, OpAmp)
                   else dataclasses.replace(c, node_a=node(c.node_a), node_b=node(c.node_b))
                   for c in components]


@st.composite
def disjoint_unions(draw, overflowing=False):
    """2-4 disjoint parts (random passive ladders and C/L/X stages) plus a
    line on a ground node; each input channel's name mapped to its part.
    ``overflowing`` draws stages only, some with 1e-290 F feedback, whose
    A(w) leaves double range below about 1e-18 rad/s."""
    ports, comps, part_of = [PortSpec("g", draw(impedances), node="gnd")], [], {"g": 0}
    for j in range(1, draw(st.integers(2, 4)) + 1):
        if not overflowing and draw(st.booleans()):
            p, c = random_passive_network(np.random.default_rng(draw(seeds)))
        else:
            r_l, r_r, r_a, kind, value, _ = draw(stage_specs())
            if overflowing and kind == "C" and draw(st.booleans()):
                value = 1e-290
            p = [PortSpec("l", r_l), PortSpec("r", r_r)]
            c = [OpAmp("amp", "l", "r", r_a, Feedback(kind, value))]
        p, c = renamed(f"u{j}", p, c)
        ports += p
        comps += c
        part_of.update({x.name: j for x in p})
        part_of.update({f"{a.name}{t}": j for a in c if isinstance(a, OpAmp)
                        for t in (".a", ".a'")})
    return QuantumNetwork(ports, comps), part_of


@settings(max_examples=40, deadline=None)
@given(disjoint_unions(), seeds, st.integers(1, 300))
def test_disjoint_parts_match_the_dense_oracle(union, seed, size):
    net, part_of = union
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, size)
    one = int(rng.integers(len(net.ports)))
    full, row = net.sweep(grid), net.sweep(grid, outputs=(net.ports[one].name,))
    names = [c.name for c in net.input_channels]
    parts = [(np.array([part_of[o.name] == j for o in full.outputs]),
              np.array([part_of[i] == j for i in names])) for j in set(part_of.values())]
    cross = ~np.logical_or.reduce([np.outer(rows, cols) for rows, cols in parts])
    # Every part holds a port, so a sweep of every output keeps every input;
    # one output keeps the inputs of its part, in input order.
    assert full.inputs == net.input_channels and np.all(full.matrices[:, cross] == 0.0)
    assert [c.name for c in row.inputs] == [n for n, c in zip(names, cross[one]) if not c]
    for i, w in enumerate(grid):
        ref, cond = scattering_per_point(net, w)
        # Each part against its own scale; two solves differ by about eps
        # times the condition number, which is the whole system's here.
        for rows, cols in parts:
            blk = np.ix_(rows, cols)
            tol = (1e-13 + 16.0 * EPS * cond) * np.max(np.abs(ref[blk]))
            assert np.max(np.abs(full.matrices[i][blk] - ref[blk])) <= tol, (i, cond)
            if rows[one]:
                assert np.max(np.abs(row.matrices[i, 0] - ref[one, cols])) <= tol


@settings(max_examples=40, deadline=None)
@given(reactive_specs, st.lists(reactive_specs, min_size=1, max_size=2), seeds,
       st.integers(1, 40))
def test_an_independent_stage_changes_nothing(spec, others, seed, size):
    grid = random_grid(np.random.default_rng(seed), size)
    names, reached, mu2, sigma, first = _circuit_budget(netlist.parse(circuit_text([spec])), grid)
    names_all, reached_all, mu2_all, sigma_all, first_all = _circuit_budget(
        netlist.parse(circuit_text([spec, *others])), grid)
    assert len(names_all) == len(names) + 4 * len(others)
    assert reached_all == reached and np.array_equal(mu2_all, mu2)
    assert np.array_equal(sigma_all, sigma)
    assert np.array_equal(first_all[[names_all.index(n) for n in names]], first)


@pytest.mark.parametrize("where", ONE_AT)
def test_a_singular_part_no_output_reaches_still_raises(where):
    # Two stages and an isolated L = C = 1 tank, which has no input at all:
    # its equation is 0 = 0 at 1 rad/s while the readout's part is regular.
    ports, comps = [], [Capacitor("x", "gnd", 1.0), Inductor("x", "gnd", 1.0)]
    for k in range(2):
        ports += [PortSpec(f"l{k}", 50.0), PortSpec(f"r{k}", 50.0)]
        comps.append(OpAmp(f"amp{k}", f"l{k}", f"r{k}", 50.0, Feedback.reactance(100.0)))
    net = QuantumNetwork(ports, comps)
    with pytest.raises(SingularNetworkError, match=r"omega = 1\.0 rad/s.*rank 10 < 11"):
        net.sweep(grid_with_one(where, [0.5, 2.0], net, ("r0",)), outputs=("r0",))
    assert len(net.sweep([0.5, 2.0], outputs=("r0",))) == 2


def test_an_unread_part_that_overflows_still_raises():
    # At 1e-20 rad/s the 1e-290 F feedback's impedance, 1e310 Ohm, leaves
    # double range, while that stage's pivot mu(w) = V(w) N stays finite.
    ports, comps = [], []
    for name, c in (("", 1e-12), ("u", 1e-290)):
        ports += [PortSpec(f"{name}l", 50.0), PortSpec(f"{name}r", 50.0)]
        comps.append(OpAmp(f"{name}amp", f"{name}l", f"{name}r", 50.0, Feedback.capacitive(c)))
    net = QuantumNetwork(ports, comps)
    for outputs in (None, ("r",)):
        with pytest.raises(SingularNetworkError,
                           match=r"network equations overflow at omega = 1e-20 rad/s"):
            net.sweep([1e-20, 1.0, 2.0, 3.0], outputs)


@settings(max_examples=200, deadline=None)
@given(disjoint_unions(overflowing=True), seeds, st.integers(2, 60),
       st.lists(st.sampled_from((1e-20, 2.2250738585072014e-308, 5e-309)), min_size=1,
                max_size=3), st.data())
def test_one_row_raises_where_every_row_does(union, seed, size, extremes, data):
    # Points anywhere in the grid where some part's A(w) overflows: 1e-20
    # rad/s for 1e-290 F feedback, 2.2e-308 for any C feedback, 5e-309 for
    # every part.  The parts one output does not read must refuse the same
    # first point as when every part is read.  A read part also refuses a
    # point where A(w) is finite and regular but its rows of S overflow,
    # which an unread part never forms, so the grid holds no point near the
    # ends of double range where A(w) stays finite.
    net = union[0]
    grid = np.r_[random_grid(np.random.default_rng(seed), size), extremes]
    data.draw(st.randoms()).shuffle(grid)
    one = (data.draw(st.sampled_from(net.ports)).name,)

    def verdict(outputs):
        try:
            net.sweep(grid, outputs)
        except SingularNetworkError as err:
            return str(err)
        return None

    assert verdict(one) == verdict(None)


# x and y are a two-node part with no input whose equations are singular at
# exactly 1 rad/s, det = (C1 + C3)/L - w^2 C1 C3, with no row or column of
# zeros: only a factorization finds it, not the finiteness check.
PAIR = [Capacitor("x", "gnd", 1.0), Capacitor("x", "y", 1.0), Inductor("y", "gnd", 2.0)]


@pytest.mark.parametrize("where", ONE_AT)
@pytest.mark.parametrize("ports, comps, read, rank", [
    # A grounded line and an L = C = 1 tank: one-unknown parts.
    ([PortSpec("g", 50.0, node="gnd")],
     [Capacitor("x", "gnd", 1.0), Inductor("x", "gnd", 1.0)], "g", "1 < 2"),
    # Three two-unknown parts; the read one is the second of its group.
    ([PortSpec("p0", 50.0), PortSpec("p1", 50.0)],
     [Capacitor("p0", "gnd", 1.0), Capacitor("p1", "gnd", 2.0), *PAIR], "p1", "5 < 6"),
    # The pair alone in a group that no output reads.
    ([PortSpec("g", 50.0, node="gnd")], PAIR, "g", "2 < 3"),
])
def test_a_singular_unread_part_raises_at_its_point(ports, comps, read, rank, where):
    net = QuantumNetwork(ports, comps)
    with pytest.raises(SingularNetworkError, match=rf"omega = 1\.0 rad/s.*rank {rank}"):
        net.sweep(grid_with_one(where, [0.5, 2.0], net, (read,)), outputs=(read,))
    got, full = net.sweep([0.5, 2.0], outputs=(read,)), net.sweep([0.5, 2.0])
    keep = [full.inputs.index(c) for c in got.inputs]
    want = full.matrices[:, [p.name for p in ports].index(read)]
    assert [c.name for c in got.inputs] == [read]
    assert np.array_equal(got.matrices[:, 0], want[:, keep])
    assert not np.delete(want, keep, axis=1).any()


# Square stacks whose LU may meet an exact zero pivot: zero rows, duplicated
# rows, dependent columns, small integer and sparse entries, strided views.
@st.composite
def pivot_stacks(draw):
    rng = np.random.default_rng(draw(seeds))
    count, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    shape = (2, count, n, n)                  # real and imaginary parts
    pick = rng.random(shape)
    x = np.where(pick < 0.3, 0.0, np.where(pick < 0.7, rng.integers(-2, 3, shape),
                                           rng.uniform(-1e3, 1e3, shape)))
    x = x[0] + 1j * x[1]
    for a in x:
        i, j = rng.integers(n, size=2)
        kind = rng.integers(4)
        if kind == 1:
            a[i] = 0.0
        elif kind == 2:
            a[i] = a[j]
        elif kind == 3:
            a[:, i] = (0.5, 2.0, -1.0, 1j)[rng.integers(4)] * a[:, j]
    view = rng.integers(3)
    if view == 1:
        return x.swapaxes(1, 2)
    if view == 2:             # every other row and column of a larger stack
        big = np.zeros((count, 2 * n, 2 * n), complex)
        big[:, ::2, ::2] = x
        return big[:, ::2, ::2]
    return x


def solve_raises(x, b) -> bool:
    try:
        np.linalg.solve(x, b)
    except np.linalg.LinAlgError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(pivot_stacks())
def test_slogdet_sign_is_zero_exactly_where_solve_raises(x):
    # Where a stack's solve raises, the sweep takes slogdet's signs to find
    # the points it failed at, so the two must agree matrix by matrix.
    b = np.ones(x.shape[:2] + (1,), complex)
    zero = np.linalg.slogdet(x)[0] == 0
    assert [solve_raises(a, c) for a, c in zip(x, b)] == zero.tolist()
    assert solve_raises(x, b) == zero.any()


# Points where w A1 or A2/w leave double range or come near it.  Below
# 1/DBL_MAX (about 5.6e-309) 1/w overflows and 0/w is NaN, so every entry
# is NaN: both formations give NaN there, though not the same NaN bits.
EXTREME_OMEGAS = (1e-300, 2.2250738585072014e-308, 1e300, 1.7e308)


@st.composite
def solved_networks(draw):
    """A random passive ladder, a C, L or X stage, or a disjoint union."""
    kind = draw(st.sampled_from(("passive", "stage", "union")))
    if kind == "passive":
        return QuantumNetwork(*random_passive_network(np.random.default_rng(draw(seeds))))
    if kind == "union":
        return draw(disjoint_unions())[0]
    return stage_network(draw(stage_specs()))


@settings(max_examples=80, deadline=None)
@given(st.lists(solved_networks(), min_size=1, max_size=4),
       st.lists(st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e), max_size=40))
def test_systems_equal_the_dense_oracle_bit_for_bit(nets, omegas):
    # Whole stamps of equal size stacked as the parts of one group.
    w = np.array([*omegas, *EXTREME_OMEGAS])
    groups = {}
    for net in nets:
        groups.setdefault(len(net._b), []).append(net)
    for same in groups.values():
        a3 = np.stack([net._a for net in same], axis=1)
        with np.errstate(all="ignore"):
            want = dense_systems(a3, w)[1:]
            got = _systems(a3, w)
        for x, y in zip(got, want):     # as bits: NaN payloads, zero signs
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(solved_networks(), seeds, st.integers(1, 400),
       st.lists(st.sampled_from(EXTREME_OMEGAS), max_size=2), st.booleans())
def test_sweep_equals_the_dense_oracle_bit_for_bit(net, seed, size, extremes, one_row):
    # Up to 400 points, so that one-point and large grids, sweeps of several
    # blocks and an extreme point as the reference (the middle) are all drawn.
    rng = np.random.default_rng(seed)
    w = np.r_[random_grid(rng, size), extremes]
    outputs = (net.ports[int(rng.integers(len(net.ports)))].name,) if one_row else None

    def solved(outputs):
        with np.errstate(all="ignore"):
            try:
                s = dense_sweep(net, w, outputs)
            except np.linalg.LinAlgError:
                return None
        return s if np.isfinite(s).all() else None

    try:
        sweep = net.sweep(w, outputs)
    except SingularNetworkError:
        # A part no output reads raises too; with every output read, every
        # part here is, as each holds a port.
        assert solved(None) is None
        return
    want = solved(outputs)
    # The oracle's columns of the inputs the sweep keeps, in input order; it
    # drops only exact zeros.
    keep = [net.input_channels.index(c) for c in sweep.inputs]
    assert want is not None and keep == sorted(keep)
    assert not np.delete(want, keep, axis=2).any()
    got, want = sweep.matrices, np.ascontiguousarray(want[..., keep])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_one_node_part_sweep_equals_the_dense_oracle_bit_for_bit():
    # Three lines and a capacitor on one node: each sum of the rank-one row
    # over the part's unknowns has several nonzero terms, so their order
    # shows in the bits, as it rarely does for an op-amp stage.
    net = QuantumNetwork([PortSpec(f"p{k}", r, node="n0") for k, r in enumerate((50.0, 300.0, 1e3))],
                         [Capacitor("n0", "gnd", 1e-8)])
    grid = np.array([1e4, 1e5, 1e6])
    got, want = net.sweep(grid).matrices, dense_sweep(net, grid, None)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_part_without_varying_rows_overflows_below_one_over_dbl_max():
    # At 5e-309 rad/s 0/w is NaN.  A constant-reactance stage has no row
    # that changes with w, yet a sweep forms its row 0 per block, so it
    # overflows there as a capacitive stage does, in the first block or later.
    ports = [PortSpec("l", 50.0), PortSpec("r", 75.0)]
    flat = QuantumNetwork(ports, [OpAmp("amp", "l", "r", 60.0, Feedback.reactance(1e3))])
    cap = QuantumNetwork(ports, [OpAmp("amp", "l", "r", 60.0, Feedback.capacitive(1e-9))])
    for net in (flat, cap):
        step = block_length(net, [1.0, 1.0])
        for grid in ([1.0, 5e-309], [1.0] * step + [5e-309]):
            assert block_length(net, grid) == step
            with pytest.raises(SingularNetworkError) as err:
                net.sweep(grid)
            assert "overflow at omega = 5e-309 rad/s" in str(err.value)
    # Just above it the constant-reactance stage solves, to the same bits.
    s = flat.sweep([1e-300, 1.0, 1e300]).matrices.view(np.uint64)
    assert np.array_equal(s, s[[1, 1, 1]])
