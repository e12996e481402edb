"""Independent references for the production paths, used only by tests.

The package derives every stage quantity from the two scattering rows in
``qunet.amplifier``; the closed forms here evaluate the explicit formulas of
the ideal op-amp stage instead.  The package solves a network for a whole
frequency grid at once; ``scattering_per_point`` stamps and solves one
frequency at a time.  So the tests compare two independent implementations.
"""

from __future__ import annotations

import math

import numpy as np

from qunet import NoFeedbackError, thermal_occupation


def estimator_weights_closed_form(stage, omega: float) -> dict[str, complex]:
    """Noise weights of the stage estimator l_hat = l + mu_r r + mu_a a + mu_a' a'.

    mu_r  = sqrt(R_l R_r) / (2 Z_f)
    mu_a  = -(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l - 1/R_a)
    mu_a' = +(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l + 1/R_a)
    """
    zf = stage.feedback_impedance(abs(float(omega)))
    if zf == 0:
        raise NoFeedbackError("Z_f = 0: no feedback, no readout")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    half_lra = math.sqrt(rl * ra) / 2.0
    return {
        "r": math.sqrt(rl * rr) / (2.0 * zf),
        "a": -half_lra * (1.0 / zf + 1.0 / rl - 1.0 / ra),
        "a'": half_lra * (1.0 / zf + 1.0 / rl + 1.0 / ra),
    }


def added_noise_closed_form(stage, omega: float) -> float:
    """Added noise from the explicit three-term spectral sum.

    R_l R_r/(4 |Z_f|^2) sigma_rr
    + (R_l R_a/4) |1/Z_f + 1/R_l - 1/R_a|^2 sigma_aa
    + (R_l R_a/4) |1/Z_f + 1/R_l + 1/R_a|^2 sigma_a'a'
    """
    w = abs(float(omega))
    zf = stage.feedback_impedance(w)
    if zf == 0:
        raise NoFeedbackError("Z_f = 0: no feedback, no readout")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    s_r = thermal_occupation(w, stage.readout_temp)
    s_a = thermal_occupation(w, stage.noise_temp)
    s_ap = thermal_occupation(w, stage.conj_temp)
    return (rl * rr / (4.0 * abs(zf) ** 2) * s_r
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl - 1.0 / ra) ** 2 * s_a
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl + 1.0 / ra) ** 2 * s_ap)


def scattering_per_point(net, omega: float) -> tuple[np.ndarray, float]:
    """Full scattering matrix of a ``QuantumNetwork`` at one frequency.

    Stamps the element impedances at omega and solves one dense system with
    every input channel as a right-hand side, rows and columns equilibrated
    by their largest entries; the package instead stamps frequency
    coefficients once and solves the transposed system per output row.
    Also returns the 2-norm condition number of the equilibrated system:
    two correct double-precision solves may differ by about eps times it.
    """
    w = float(omega)
    nodes = {n: i for i, n in enumerate(net.nodes)}
    nn, nl, no = len(net.nodes), len(net.ports), len(net.opamps)
    a = np.zeros((nn + nl + no,) * 2, dtype=complex)
    b = np.zeros((nn + nl + no, nl + 2 * no), dtype=complex)
    iv = nodes.get                      # ground names are not in the table

    lines_at: dict[str, list[int]] = {}
    for k, p in enumerate(net.ports):
        lines_at.setdefault(p.attach_node, []).append(k)
    branches_at: dict[str, list[tuple[str, complex]]] = {}
    for el, z in [(c, 1.0 / (-1j * w * c.capacitance)) for c in net.capacitors] + \
                 [(l, -1j * w * l.inductance) for l in net.inductors]:
        branches_at.setdefault(el.node_a, []).append((el.node_b, z))
        branches_at.setdefault(el.node_b, []).append((el.node_a, z))
    role = {}
    for j, amp in enumerate(net.opamps):
        role[amp.left] = ("left", j)
        role[amp.right] = ("right", j)

    def stamp_currents(eq, node):
        for k in lines_at.get(node, ()):
            ci = 1.0 / math.sqrt(net.ports[k].impedance)
            a[eq, nn + k] += ci
            b[eq, k] += ci
        for other, z in branches_at.get(node, ()):
            a[eq, iv(node)] -= 1.0 / z
            if iv(other) is not None:
                a[eq, iv(other)] += 1.0 / z

    for k, p in enumerate(net.ports):
        cu = math.sqrt(p.impedance)
        if iv(p.attach_node) is not None:
            a[k, iv(p.attach_node)] += 1.0
        a[k, nn + k] -= cu
        b[k, k] += cu
    for n_i, node in enumerate(net.nodes):
        eq = nl + n_i
        kind, j = role.get(node, (None, -1))
        if kind == "right":
            amp = net.opamps[j]
            a[eq, iv(amp.left)] += 1.0
            a[eq, iv(amp.right)] -= 1.0
            a[eq, nn + nl + j] -= amp.feedback.impedance(w)
        else:
            stamp_currents(eq, node)
            if kind == "left":
                amp = net.opamps[j]
                a[eq, nn + nl + j] += 1.0
                ic = 1.0 / math.sqrt(amp.noise_impedance)
                b[eq, nl + 2 * j] += ic
                b[eq, nl + 2 * j + 1] += ic
    for j, amp in enumerate(net.opamps):
        eq = nl + nn + j
        a[eq, iv(amp.left)] += 1.0
        uc = math.sqrt(amp.noise_impedance)
        b[eq, nl + 2 * j] += uc
        b[eq, nl + 2 * j + 1] -= uc

    row = np.max(np.abs(a), axis=1)
    ra = a / row[:, None]
    col = np.max(np.abs(ra), axis=0)
    e = ra / col[None, :]
    y = np.linalg.solve(e, b / row[:, None])
    return (y / col[:, None])[nn:nn + nl], float(np.linalg.cond(e))
