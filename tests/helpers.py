"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import math

from qunet import Capacitor, Feedback, Inductor, OpAmpStage, PortSpec

# Matched stage, |G| = 100 at 1e5 Hz, |G| in [1, 100] over the sweep: the
# absolute commutator residual stays far above its double-precision floor.
CHECK_FIXTURE = """qnet 1
# matched amplification stage, moderate gain
line l impedance=50.0 temperature=0.0
line r impedance=50.0 temperature=0.0
opamp amp left=l right=r noise_impedance=50.0 noise_temp=0.0 conj_temp=0.0 feedback=C:6.366197723675814e-10
signal l
readout r
sweep 1e5 1e7 40 log
"""

# Matched stage at the half-quantum optimum: |G| = 1e4 at 1e5 Hz.
THREEDB_FIXTURE = """qnet 1
# matched amplification stage, large gain
line l impedance=50.0 temperature=0.0
line r impedance=50.0 temperature=0.0
opamp amp left=l right=r noise_impedance=50.0 noise_temp=0.0 conj_temp=0.0 feedback=C:6.366197723675814e-12
signal l
readout r
sweep 1e4 1e6 200 log
"""

PRESET_DOC = "preset microscope\n"


def stage_with_gain(gain_magnitude: float, r: float = 50.0,
                    r_a: float | None = None, **temps) -> OpAmpStage:
    """Matched-impedance stage with |G| = gain_magnitude (constant reactance)."""
    x = gain_magnitude * r / 2.0
    return OpAmpStage(r_left=r, r_right=r,
                      noise_impedance=r if r_a is None else r_a,
                      feedback=Feedback.reactance(x), **temps)


def random_omega(rng) -> float:
    return 2.0 * math.pi * 10.0 ** rng.uniform(3.0, 6.0)


def random_stage(rng, g_lo: float = -2.0, g_hi: float = 2.0) -> OpAmpStage:
    r_l = 10.0 ** rng.uniform(0.7, 3.7)
    r_r = 10.0 ** rng.uniform(0.7, 3.7)
    r_a = 10.0 ** rng.uniform(0.7, 3.7)
    g = 10.0 ** rng.uniform(g_lo, g_hi)
    x = g * math.sqrt(r_l * r_r) / 2.0
    if rng.random() < 0.5:
        x = -x
    return OpAmpStage(r_left=float(r_l), r_right=float(r_r),
                      noise_impedance=float(r_a),
                      feedback=Feedback.reactance(float(x)),
                      noise_temp=float(rng.uniform(0.0, 300.0)),
                      conj_temp=float(rng.uniform(0.0, 300.0)),
                      readout_temp=float(rng.uniform(0.0, 300.0)))


def _random_reactance(rng, a: str, b: str):
    if rng.random() < 0.5:
        return Capacitor(a, b, 10.0 ** rng.uniform(-11.0, -8.0))
    return Inductor(a, b, 10.0 ** rng.uniform(-7.0, -3.0))


def random_passive_network(rng):
    """Random lines plus a reactive ladder; always solvable, always lossless
    apart from the lines themselves."""
    n_nodes = int(rng.integers(1, 5))
    nodes = [f"n{i}" for i in range(n_nodes)]
    n_ports = int(rng.integers(1, 4))
    ports = []
    for i in range(n_ports):
        node = nodes[int(rng.integers(0, n_nodes))]
        ports.append(PortSpec(f"p{i}", float(10.0 ** rng.uniform(0.5, 3.5)),
                              float(rng.uniform(0.0, 300.0)), node=node))
    components = [_random_reactance(rng, a, b) for a, b in zip(nodes, nodes[1:])]
    for node in nodes:
        if rng.random() < 0.4:
            components.append(_random_reactance(rng, node, "gnd"))
    return ports, components



def circuit_text(specs) -> str:
    """``.qnet`` text of independent stages, each given as (R_l, R_r, R_a,
    feedback kind, feedback value, temperatures of l, r, a and a');
    signal and readout on stage 0."""
    out = []
    for k, (r_l, r_r, _, _, _, temps) in enumerate(specs):
        out.append(f"line l{k} impedance={r_l!r} temperature={temps[0]!r}")
        out.append(f"line r{k} impedance={r_r!r} temperature={temps[1]!r}")
    for k, (_, _, r_a, kind, value, temps) in enumerate(specs):
        out.append(f"opamp amp{k} left=l{k} right=r{k} noise_impedance={r_a!r} "
                   f"noise_temp={temps[2]!r} conj_temp={temps[3]!r} "
                   f"feedback={kind}:{value!r}")
    return "\n".join(out + ["signal l0", "readout r0"]) + "\n"


def random_document(rng, stages: int, omega_ref: float, warm: bool) -> str:
    """:func:`circuit_text` of ``stages`` :func:`random_stage` stages, each
    with the |G| it has at ``omega_ref``: C feedback where its reactance is
    positive, L where it is negative.  ``warm`` False puts every line at 0 K."""
    specs = []
    for _ in range(stages):
        s = random_stage(rng)
        t_l = float(rng.uniform(0.0, 300.0))
        temps = (t_l, s.readout_temp, s.noise_temp, s.conj_temp) if warm else (0.0,) * 4
        x = s.feedback.value
        kind, value = ("C", 1.0 / (omega_ref * x)) if x > 0 else ("L", -x / omega_ref)
        specs.append((s.r_left, s.r_right, s.noise_impedance, kind, value, temps))
    return circuit_text(specs)
