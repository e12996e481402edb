"""The sweep's scattering matrices against the exact oracle.

``oracles.exact_sweep`` solves each point in rational arithmetic from the
same float stamp, so it sees the solver's own rounding, which the bitwise
oracles cannot.  Every row of S must lie within 64 kappa eps of exact,
relative to the row's largest entry, where kappa is the 2-norm condition
number of the equilibrated A(w).  Each checked point is solved both in
its sweep and alone, which takes the per-point LU path.  Run as a script,
the module checks 1,000 seeded stages, unions and ladders and exits 1 on
any row over the bound:

    PYTHONPATH=src python tests/test_accuracy.py
"""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qunet import Feedback, OpAmp, PortSpec, QuantumNetwork

from helpers import random_passive_network
from oracles import exact_sweep, scattering_per_point
from test_sweep import random_grid, renamed

EPS = np.finfo(float).eps
BOUND = 64.0          # in units of kappa eps
MAX_UNKNOWNS = 8


def random_part(rng):
    """Ports and components of a C, L or X stage with |G| in 1e-2..1e6 at a
    frequency inside the grid band, of a passive ladder or of a grounded line.
    A stage's and a grounded line's impedances span 1e-6..1e12 Ohm: so badly
    scaled, a stage's unequilibrated columns lose digits in a solve of A^T."""
    pick = rng.random()
    if pick < 0.45:
        r_l, r_r, r_a = 10.0 ** rng.uniform(-6.0, 12.0, 3)
        z = 10.0 ** rng.uniform(-2.0, 6.0) * math.sqrt(r_l * r_r) / 2.0
        w_ref = 2.0 * math.pi * 10.0 ** rng.uniform(3.0, 6.0)
        kind = "CLX"[int(rng.integers(3))]
        value = {"C": 1.0 / (w_ref * z), "L": z / w_ref, "X": z * rng.choice((1.0, -1.0))}[kind]
        return ([PortSpec("l", r_l), PortSpec("r", r_r)],
                [OpAmp("amp", "l", "r", r_a, Feedback(kind, float(value)))])
    if pick < 0.9:
        return random_passive_network(rng)
    return [PortSpec("g", float(10.0 ** rng.uniform(-6.0, 12.0)), node="gnd")], []


def small_network(rng) -> QuantumNetwork:
    """One part, or a disjoint union of up to three, of at most 8 unknowns."""
    ports, comps = renamed("u0", *random_part(rng))
    for j in range(1, 1 if rng.random() < 0.5 else 3):
        p, c = renamed(f"u{j}", *random_part(rng))
        net = QuantumNetwork(ports + p, comps + c)
        if len(net.nodes) + len(net.ports) + len(net.opamps) <= MAX_UNKNOWNS:
            ports, comps = ports + p, comps + c
    return QuantumNetwork(ports, comps)


def worst_error(net, grid, points) -> float:
    """The largest error of a row of S at ``points`` of ``grid`` against
    exact, relative to the row's largest entry, in kappa eps: S from the
    sweep of ``grid`` and from a sweep of each point alone, which takes the
    per-point LU path whatever the part."""
    swept = net.sweep(grid).matrices[points]
    alone = [net.sweep(grid[i:i + 1]).matrices[0] for i in points]
    worst = 0.0
    for s, s1, exact, w in zip(swept, alone, exact_sweep(net, grid[points]), grid[points]):
        kappa = scattering_per_point(net, w)[1]
        for got in (s, s1):
            rows = np.abs(got - exact).max(axis=1) / np.abs(exact).max(axis=1)
            worst = max(worst, rows.max() / (kappa * EPS))
    return worst


def checked_points(rng, size: int) -> np.ndarray:
    """The first, middle (a sweep's reference) and last points and two more."""
    return np.unique(np.r_[0, size // 2, size - 1, rng.integers(0, size, 2)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
# Stages with a noise impedance near 1e-6 Ohm and lines of 1e3 to 1e10 Ohm:
# solved alone without the column equilibration, they read 85 to 1,450
# kappa eps
@example(11, 50)
@example(209, 5)
@example(249, 5)
def test_rows_of_s_are_within_kappa_eps_of_exact(seed, size):
    rng = np.random.default_rng(seed)
    net = small_network(rng)
    assert len(net.nodes) + len(net.ports) + len(net.opamps) <= MAX_UNKNOWNS
    grid = random_grid(rng, size)
    assert worst_error(net, grid, checked_points(rng, size)) <= BOUND


if __name__ == "__main__":
    worst, over = 0.0, []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        net = small_network(rng)
        size = int(rng.integers(1, 300))
        grid = random_grid(rng, size)
        error = worst_error(net, grid, checked_points(rng, size))
        worst = max(worst, error)
        if error > BOUND:
            over.append(seed)
    print(f"1000 seeded networks: worst row error {worst:.3g} kappa eps, bound {BOUND:g}; "
          f"over the bound: seeds {over}")
    sys.exit(1 if over else 0)
