"""Independent references for the production paths, used only by tests.

The package derives every stage quantity from the two scattering rows in
``qunet.amplifier``; the closed forms here evaluate the explicit formulas of
the ideal op-amp stage instead.  The package solves a network for a whole
frequency grid at once; ``scattering_per_point`` stamps and solves one
frequency at a time.  So the tests compare two independent implementations.
``tokens_regex`` splits a ``.qnet`` line with a regular expression, where
the parser uses ``str.split``.  ``merge_chain_estimators`` composes two
chain estimators directly, where the package extends one estimator stage by
stage, and ``generator_psds`` forms a stage's voltage and current noise
generator spectra from the module formulas.  ``chain_readout_from_scattering``
composes the stage scattering matrices of a chain, where the package
composes the stage estimators.  ``estimator_from_scattering``
normalizes one scattering map's readout row, the per-point counterpart of
the CLI's budget over a grid.  ``dense_systems`` forms and equilibrates
A(w) over a whole grid; ``dense_sweep`` solves a network's parts from it
one part at a time, over the whole grid, where the package batches parts
and works in blocks of points: the two must agree to the bit.
``exact_sweep`` solves the same equations in rational arithmetic, so it
sees the rounding of both.  ``csv_rows_per_value`` writes sweep CSV lines
through ``repr`` one number at a time, where the package computes the
digits of a block's varying columns at once.  ``check_commutators``,
``effective_temperature`` and ``johnson_voltage_psd`` are the scalar
relations the tests check the package against.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from qunet import (HBAR, K_B, EstimatorCoefficients, NoTransductionError,
                   commutator_residual, stage_scattering, thermal_occupation)
from qunet.spectra import require_finite


def estimator_weights_closed_form(stage, omega: float) -> dict[str, complex]:
    """Noise weights of the stage estimator l_hat = l + mu_r r + mu_a a + mu_a' a'.

    mu_r  = sqrt(R_l R_r) / (2 Z_f)
    mu_a  = -(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l - 1/R_a)
    mu_a' = +(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l + 1/R_a)
    """
    zf = stage.feedback.impedance(abs(float(omega)))
    if zf == 0:
        raise NoTransductionError("Z_f = 0: no feedback, no readout")
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
    zf = stage.feedback.impedance(w)
    if zf == 0:
        raise NoTransductionError("Z_f = 0: no feedback, no readout")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    s_r = thermal_occupation(w, stage.readout_temp)
    s_a = thermal_occupation(w, stage.noise_temp)
    s_ap = thermal_occupation(w, stage.conj_temp)
    return (rl * rr / (4.0 * abs(zf) ** 2) * s_r
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl - 1.0 / ra) ** 2 * s_a
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl + 1.0 / ra) ** 2 * s_ap)


def chain_added_noise_recursion(stages, omega: float) -> float:
    """Added noise of a feed-forward chain, stage by stage.

    Each stage's closed-form added noise is referred to the chain input by
    the product of |G|^2 = 4 |Z_f|^2 / (R_l R_r) over the stages before it.
    """
    w = abs(float(omega))
    total, upstream = 0.0, 1.0
    for stage in stages:
        total += added_noise_closed_form(stage, w) / upstream
        upstream *= 4.0 * abs(stage.feedback.impedance(w)) ** 2 / (
            stage.r_left * stage.r_right)
    return total


def chain_readout_from_scattering(stages, omega: float) -> dict:
    """The readout row of a feed-forward chain over its inputs, composed
    from the stage scattering matrices alone: stage k's r_out is stage
    k+1's l_in.  Keyed as the chain's sources, (k, role), the chain signal
    (0, "l")."""
    keys, readout = [(0, "l")], np.ones(1, dtype=complex)    # l_in of stage 0
    for k, stage in enumerate(stages):
        smap = stage_scattering(stage, omega)
        names = [c.name for c in smap.inputs]               # l, r, a, a'
        keys += [(k, name) for name in names[1:]]
        # Stage k's inputs over the chain's: the upstream readout, then its own.
        feed = np.zeros((len(names), len(keys)), dtype=complex)
        feed[0, :len(readout)] = readout
        feed[1:, len(readout):] = np.eye(len(names) - 1)
        readout = smap.matrix[[c.name for c in smap.outputs].index("r")] @ feed
    return dict(zip(keys, readout.tolist()))


def tokens_regex(line: str) -> list[tuple[int, str]]:
    """The maximal non-whitespace runs of ``line``, each with its 1-based column."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


def merge_chain_estimators(upstream, upstream_length: int,
                           downstream) -> EstimatorCoefficients:
    """Compose the estimator of a front chain with that of a back chain.

    The downstream estimator reads the upstream readout field: its noise
    sources enter divided by the upstream gain, with their stage indices
    moved past the ``upstream_length`` upstream stages, and the gains
    multiply.  Any grouping of a chain gives ``chain_estimator`` of the whole.
    """
    weights = dict(upstream.weights)
    for (k, role), mu in downstream.weights.items():
        if (k, role) != downstream.signal:
            weights[(k + upstream_length, role)] = mu / upstream.gain
    return EstimatorCoefficients(signal=upstream.signal, weights=weights,
                                 gain=upstream.gain * downstream.gain)


def generator_psds(stage, omega: float) -> tuple[float, float]:
    """Voltage and current noise generator PSDs (V^2/Hz, A^2/Hz) of a stage.

    sigma_UU = (hbar |w| R_a / 2)(sigma_aa + sigma_a'a') and its current
    counterpart with R_a below the bar; their ratio is R_a^2 regardless of
    the temperatures, which is what defines the noise impedance.
    """
    w = abs(float(omega))
    occ = (thermal_occupation(w, stage.noise_temp)
           + thermal_occupation(w, stage.conj_temp))
    return (HBAR * w * stage.noise_impedance / 2.0 * occ,
            HBAR * w / (2.0 * stage.noise_impedance) * occ)


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


def dense_systems(a3: np.ndarray, w: np.ndarray):
    """A(w) = A0 + w A1 + A2/w stacked over ``w`` (F,) for a stamp ``a3``
    (3, ..., n, n); its row and column scales; its equilibrated form."""
    wc = w.reshape((-1,) + (1,) * (a3.ndim - 1))
    a = a3[0] + wc * a3[1] + a3[2] / wc
    row = np.abs(a).max(axis=-1)
    ra = a / row[..., None]
    col = np.abs(ra).max(axis=-2)
    return a, row, col, ra / col[..., None, :]


def dense_sweep(net, w: np.ndarray, outputs=None) -> np.ndarray:
    """S (F, m, k) over ``w`` for the output channels named in ``outputs``
    (default all), each group of parts solved as ``net.sweep`` solves it,
    over the whole grid at once, and an input of another part an exact 0.

    On a grid of two or more points, in a group where no part has two rows
    holding an A1 or A2 entry, part q with such a row v (else v = 0) is
    solved once at the middle point w_r:
    A(w_r) [N | X_p] = [e_v | B], from ``dense_systems``.  At each point its
    rows of S are those of X_p + N (B_v - V X_p) / mu, with V row v of A(w)
    and mu = V N; NaN where mu is 0 or not finite.  Any other group, or one
    where some part's A(w_r) is singular or overflows, is solved per point
    from ``dense_systems``.  Raises ``LinAlgError`` where an LU fails and
    leaves a non-finite S where the sweep reports a singular point."""
    names = [c.name for c in net.output_channels]
    chans = range(len(names)) if outputs is None else [names.index(n) for n in outputs]
    s = np.zeros((len(w), len(chans), net._b.shape[1]), dtype=complex)
    for g, (a3, b, inputs) in enumerate(net._parts):
        hits = {}                                   # part -> [(row of s, unknown)]
        for i, c in enumerate(chans):
            group, q, pos = net._outward[c]
            if group == g:
                hits.setdefault(q, []).append((i, pos))
        if not hits:
            continue
        varying = a3[1:].any(axis=(0, 3))          # (P, m)
        v, nx = varying.argmax(axis=1), None
        if len(w) > 1 and varying.sum(axis=1).max() <= 1:
            _, row, col, e = dense_systems(a3, w[len(w) // 2:][:1])
            rhs = np.zeros(b.shape[:2] + (1 + b.shape[2],), dtype=complex)
            rhs[range(len(b)), v, 0] = 1.0
            rhs[..., 1:] = b
            try:
                nx = np.linalg.solve(e[0], rhs / row[0, ..., None]) / col[0, ..., None]
            except np.linalg.LinAlgError:
                pass
        if nx is not None and np.isfinite(nx).all():
            a = dense_systems(a3, w)[0]
            for q, pairs in hits.items():
                at = [pos for _, pos in pairs]
                mu = a[:, q, v[q], 0] * nx[q, 0, 0]
                vx = a[:, q, v[q], 0, None] * nx[q, 0, 1:]
                for j in range(1, a.shape[-1]):
                    mu += a[:, q, v[q], j] * nx[q, j, 0]
                    vx += a[:, q, v[q], j, None] * nx[q, j, 1:]
                t = (b[q, v[q]] - vx) / mu[:, None]
                t[~(np.isfinite(mu) & (mu != 0))] = np.nan
                rows = np.array([i for i, _ in pairs])[:, None]
                s[:, rows, inputs[q]] = nx[q, at, 1:] + nx[q, at, 0, None] * t[:, None]
            continue
        unit = np.zeros((*b.shape[:2], max(map(len, hits.values()))), dtype=complex)
        for q, pairs in hits.items():
            for j, (_, pos) in enumerate(pairs):
                unit[q, pos, j] = 1.0
        _, row, col, e = dense_systems(a3, w)
        z = np.linalg.solve(e.swapaxes(2, 3), unit / col[..., None])
        for q, pairs in hits.items():
            y = z[:, q, :, :len(pairs)].transpose(0, 2, 1) / row[:, q, None, :]
            s[:, np.array([i for i, _ in pairs])[:, None], inputs[q]] = y @ b[q]
    return s


def _times(x, y):
    """Product of two complex numbers held as (re, im) pairs of Fractions."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact_sweep(net, w: np.ndarray, outputs=None) -> np.ndarray:
    """S (F, m, k) over ``w`` for the output channels named in ``outputs``
    (default all), exact for the network's float stamp and the float grid,
    rounded once at the end.  At each point A(w) = A0 + w A1 + A2/w and B
    are formed in stdlib fractions from the float entries and the float w,
    and [A | B] is reduced by Gauss-Jordan elimination, rows held sparse as
    {column: (re, im)}.  Raises ``StopIteration`` where A(w) is singular."""
    names = [c.name for c in net.output_channels]
    chans = range(len(names)) if outputs is None else [names.index(n) for n in outputs]
    n, nodes = len(net._a[0]), len(net.nodes)

    def sparse(m):
        return [{j: (Fraction(x.real), Fraction(x.imag)) for j, x in enumerate(row) if x}
                for row in m.tolist()]

    a0, a1, a2 = map(sparse, net._a)
    b = [{n + j: x for j, x in row.items()} for row in sparse(net._b)]
    s = np.zeros((len(w), len(chans), net._b.shape[1]), dtype=complex)
    for f, omega in enumerate(w.tolist()):
        wf = Fraction(omega)
        rows = [dict(r) for r in b]
        for i, (r0, r1, r2) in enumerate(zip(a0, a1, a2)):
            for j in r0.keys() | r1.keys() | r2.keys():
                (x0, y0), (x1, y1), (x2, y2) = (r.get(j, (0, 0)) for r in (r0, r1, r2))
                z = (x0 + wf * x1 + x2 / wf, y0 + wf * y1 + y2 / wf)
                if z != (0, 0):
                    rows[i][j] = z
        for c in range(n):
            p = next(r for r in range(c, n) if c in rows[r])
            rows[c], rows[p] = rows[p], rows[c]
            re, im = rows[c][c]
            inverse = (re / (re * re + im * im), -im / (re * re + im * im))
            pivot = rows[c] = {j: _times(inverse, x) for j, x in rows[c].items()}
            for r in range(n):
                if r != c and c in rows[r]:
                    factor = rows[r].pop(c)
                    for j, y in pivot.items():
                        x, t = rows[r].pop(j, (0, 0)), _times(factor, y)
                        if j != c and x != t:
                            rows[r][j] = (x[0] - t[0], x[1] - t[1])
        for i, c in enumerate(chans):
            for j, (re, im) in rows[nodes + c].items():
                if j >= n:
                    s[f, i, j - n] = complex(float(re), float(im))
    return s


def estimator_from_scattering(smap, signal: str, readout: str) -> EstimatorCoefficients:
    """Normalize the readout row of a scattering map into an estimator.

    The readout output is divided by its signal coefficient, so the result
    reads as true signal plus weighted input noises.  Raises
    :class:`NoTransductionError` when the readout does not see the signal.
    """
    row = dict(zip([c.name for c in smap.inputs],
                   smap.matrix[[c.name for c in smap.outputs].index(readout)].tolist()))
    if signal not in row:
        raise KeyError(f"no input channel named {signal!r}")
    beta = row[signal]
    if beta == 0:
        raise NoTransductionError(
            f"readout {readout!r} has zero coefficient on signal {signal!r}: "
            "no transduction")
    weights = {name: value / beta for name, value in row.items()}
    weights[signal] = 1.0
    return EstimatorCoefficients(signal=signal, weights=weights, gain=beta)


def csv_rows_per_value(block: np.ndarray) -> str:
    """CSV lines of a (columns, rows) float64 block, ``repr`` called per
    value; a column with the same bits on every row is formatted once."""
    bits = block.view(np.uint64)
    same = (bits == bits[:, :1]).all(axis=1)
    varying = iter(block[~same].tolist())
    cols = [[repr(first)] * block.shape[1] if k else list(map(repr, next(varying)))
            for first, k in zip(block[:, 0].tolist(), same)]
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def check_commutators(smap) -> float:
    """Residual of the quantum-consistency condition for a scattering map.

    Zero means the outputs obey exactly the free-field commutators; for a
    passive square map this is the unitarity defect of S.

    The bilinear form cancels entries of order max|S|^2, so in double
    precision the smallest representable residual grows as roughly
    2e-16 * max|S|^2: checking a stage of gain 1e4 against 1e-10 is
    meaningless in this norm, use the analytic stage relations instead.
    """
    return commutator_residual(smap.matrix, [c.signature for c in smap.inputs],
                               [c.signature for c in smap.outputs])


def effective_temperature(omega: float, sigma: float) -> float:
    """Energy per mode of a spectrum value, expressed as a temperature.

    Theta = hbar |omega| sigma / k_B.  Interpolates between the ground-state
    energy hbar|omega|/2 per mode (sigma = 1/2) and the classical k_B T per
    mode recovered at high temperature.
    """
    w = require_finite(abs(float(omega)), "|omega|")
    s = require_finite(sigma, "spectrum value", 0.5, closed=True)
    theta = HBAR * w * s / K_B
    if theta < math.inf:
        return theta
    raise ValueError(f"effective temperature at omega = {omega!r} rad/s and "
                     f"sigma = {s!r} exceeds double range")


def johnson_voltage_psd(resistance: float, omega: float,
                        temperature: float) -> float:
    """Open-circuit voltage noise PSD of a resistor, V^2/Hz (two-sided).

    2 R hbar |omega| * thermal_occupation(omega, T) = 2 R k_B Theta.  Reduces
    to 2 R k_B T in the classical limit (the one-sided engineering figure
    4 k_B T R is a factor 2 larger).
    """
    r = require_finite(resistance, "resistance", closed=True)
    return 2.0 * r * HBAR * abs(float(omega)) * thermal_occupation(omega, temperature)
