"""Quantum networks: ports, scattering maps and their consistency checks.

A measurement device is a linear box fed by semi-infinite lines.  Each line
of impedance R carries an inward and an outward traveling field, normalized
so that the line current and voltage at the box are

    I = sqrt(hbar |w| / (2 R)) (a_out - a_in)
    U = sqrt(hbar |w| R / 2)   (a_out + a_in)

This fixes U/I = R for a pure outgoing wave and makes the open-circuit
voltage PSD of the line equal to the Johnson-Nyquist value 2 R k_B Theta.
(Normalizations that move R across the radical or change the factor 2 exist
in print; they fail one of those two requirements and are not used here.)

The box maps input field amplitudes to output amplitudes through a
scattering matrix S.  Quantum consistency requires the outputs to obey the
same field commutators as the inputs:

    S J_in S^dagger = J_out

where J is the diagonal signature, +1 for a normal channel and -1 for a
conjugated channel (a creation-operator component entering at mirrored
frequency, the hallmark of phase-insensitive amplification).  For passive
networks J is the identity and the condition is plain unitarity.  Active
stages record only the physically accessible outputs, so S may have fewer
rows than columns; the check above is the square condition restricted to
those rows.

Solving over a frequency grid.  Rescaling hbar|w|/2 -> 1 (S depends only on
impedance ratios) gives A(w) x = B a_in with B constant and A(w) = A0 + w A1
+ A2/w: -iwC admittances and -iwL feedback in A1, i/(wL) admittances and
i/(wC) feedback in A2, the rest in A0, stamped once per network.  A sweep
stacks A over a block of points, scales rows and columns by their largest
entries (D_r A D_c), and gets each requested row r of S as
e_r^T D_c (D_r A D_c)^-1 D_r B: one solve of the transposed stack per row,
whatever the number of inputs.  A block holds SWEEP_BLOCK_ENTRIES complex
entries at most, so the solve's memory does not grow with the grid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .spectra import require_finite

DEFAULT_TOLERANCE = 1e-10

GROUND_NAMES = frozenset({"0", "gnd", "ground"})

SWEEP_BLOCK_ENTRIES = 2 ** 15   # complex entries of one (F, n, n) block of systems
_FEEDBACK_TERM = {"R": 0, "X": 0, "L": 1, "C": 2}   # A_p holding each feedback kind


class SingularNetworkError(RuntimeError):
    """Raised when the network equations cannot be solved at a frequency."""


class NoTransductionError(ValueError):
    """Raised when the readout does not couple to the signal channel."""


@dataclass(frozen=True)
class Channel:
    """One field channel of a network.

    ``conjugated`` marks channels carrying the mirrored-frequency component
    a[-w]; they contribute with signature -1 to the commutator check.
    """

    name: str
    conjugated: bool = False

    @property
    def signature(self) -> int:
        return -1 if self.conjugated else +1


class ScatteringMap:
    """Complex matrix mapping input channel amplitudes to output amplitudes.

    Rows are output channels, columns input channels.  Square maps cover the
    common case of a fully solved network; amplifier stages expose only
    their accessible outputs and are rectangular.
    """

    def __init__(self, omega: float, matrix, outputs, inputs):
        self.omega = float(omega)
        self.outputs = tuple(outputs)
        self.inputs = tuple(inputs)
        m = np.array(matrix, dtype=complex)
        if m.shape != (len(self.outputs), len(self.inputs)):
            raise ValueError(
                f"matrix shape {m.shape} does not match {len(self.outputs)} "
                f"output and {len(self.inputs)} input channels")
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def square(cls, omega: float, matrix, channels) -> "ScatteringMap":
        channels = tuple(channels)
        return cls(omega, matrix, channels, channels)

    def coefficient(self, out_name: str, in_name: str) -> complex:
        i = _index_of(self.outputs, out_name, "output")
        j = _index_of(self.inputs, in_name, "input")
        return complex(self.matrix[i, j])

    def row(self, out_name: str) -> dict[str, complex]:
        i = _index_of(self.outputs, out_name, "output")
        return {c.name: complex(v) for c, v in zip(self.inputs, self.matrix[i])}

    def scaled(self, factor: complex) -> "ScatteringMap":
        return ScatteringMap(self.omega, self.matrix * factor, self.outputs, self.inputs)


def _index_of(channels, name: str, kind: str) -> int:
    for i, c in enumerate(channels):
        if c.name == name:
            return i
    raise KeyError(f"no {kind} channel named {name!r}")


def commutator_residual(matrix, j_in, j_out=None) -> float:
    """Max-abs norm of S @ diag(j_in) @ S^dagger - diag(j_out)."""
    s = np.asarray(matrix, dtype=complex)
    jin = np.asarray(j_in, dtype=float)
    if s.ndim != 2:
        raise ValueError("scattering matrix must be two dimensional")
    if jin.shape != (s.shape[1],):
        raise ValueError(
            f"signature length {jin.shape} does not match {s.shape[1]} input channels")
    if j_out is None:
        if s.shape[0] != s.shape[1]:
            raise ValueError("square signature requires a square matrix")
        jout = jin
    else:
        jout = np.asarray(j_out, dtype=float)
        if jout.shape != (s.shape[0],):
            raise ValueError(
                f"output signature length {jout.shape} does not match {s.shape[0]} rows")
    m = (s * jin) @ s.conj().T
    return float(np.max(np.abs(m - np.diag(jout))))


def check_commutators(smap: ScatteringMap) -> float:
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


@dataclass(frozen=True)
class PortSpec:
    """A semi-infinite line: impedance, bath temperature, attachment node."""

    name: str
    impedance: float
    temperature: float = 0.0
    conjugated: bool = False
    node: str | None = None

    def __post_init__(self):
        require_finite(self.impedance, f"port {self.name!r}: impedance")
        require_finite(self.temperature, f"port {self.name!r}: temperature",
                       closed=True)

    @property
    def attach_node(self) -> str:
        return self.node if self.node is not None else self.name


@dataclass(frozen=True)
class Feedback:
    """Single-element feedback impedance in the quantum sign convention.

    kind "C": Z = 1/(-i w C), kind "L": Z = -i w L, kind "X": Z = i X with a
    constant reactance X (zero allowed, meaning no feedback path), kind "R":
    Z = R, dissipative, rejected by stages unless explicitly permitted.
    The engineering convention is recovered by substituting j for -i.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("R", "C", "L", "X"):
            raise ValueError(f"unknown feedback element kind {self.kind!r}")
        require_finite(self.value, f"feedback element {self.kind} value",
                       low=-math.inf if self.kind == "X" else 0.0)

    @classmethod
    def resistive(cls, r: float) -> "Feedback":
        return cls("R", r)

    @classmethod
    def capacitive(cls, c: float) -> "Feedback":
        return cls("C", c)

    @classmethod
    def inductive(cls, l: float) -> "Feedback":
        return cls("L", l)

    @classmethod
    def reactance(cls, x: float) -> "Feedback":
        return cls("X", x)

    @property
    def is_reactive(self) -> bool:
        return self.kind != "R"

    def impedance(self, omega: float) -> complex:
        w = float(omega)
        if self.kind == "R":
            return complex(self.value)
        if self.kind == "C":
            return 1.0 / (-1j * w * self.value)
        if self.kind == "L":
            return -1j * w * self.value
        return 1j * self.value


@dataclass(frozen=True)
class Capacitor:
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self):
        _check_two_terminal(self.node_a, self.node_b, "capacitor")
        require_finite(self.capacitance, "capacitance")


@dataclass(frozen=True)
class Inductor:
    node_a: str
    node_b: str
    inductance: float

    def __post_init__(self):
        _check_two_terminal(self.node_a, self.node_b, "inductor")
        require_finite(self.inductance, "inductance")


def _check_two_terminal(a: str, b: str, what: str) -> None:
    if a == b:
        raise ValueError(f"{what} terminals must be wired to distinct nodes")


@dataclass(frozen=True)
class OpAmp:
    """Ideal operational-amplifier component between two nodes.

    Infinite gain, infinite input impedance and null output impedance are
    built into the stamp analytically.  The amplifier's voltage and current
    noise generators are carried by one normal noise channel and one
    conjugated noise channel, with noise impedance R_a equal to the square
    root of the ratio of voltage to current noise spectra (the quantity also
    written R_0 in part of the literature).
    """

    name: str
    left: str
    right: str
    noise_impedance: float
    feedback: Feedback
    noise_temp: float = 0.0
    conj_temp: float = 0.0

    def __post_init__(self):
        require_finite(self.noise_impedance,
                       f"amplifier {self.name!r}: noise impedance")
        for label in ("noise_temp", "conj_temp"):
            require_finite(getattr(self, label),
                           f"amplifier {self.name!r}: {label}", closed=True)
        if self.left == self.right:
            raise ValueError(f"amplifier {self.name!r}: left and right nodes coincide")
        for node in (self.left, self.right):
            if node in GROUND_NAMES:
                raise ValueError(
                    f"amplifier {self.name!r}: terminals need proper nodes, not ground")


class QuantumNetwork:
    """Assembles lines, reactive elements and op-amps into scattering maps.

    The network solves, per frequency, the line relations jointly with
    Kirchhoff current laws and the amplifier characteristic equations.  Its
    output channels are the line channels in declaration order; input
    channels are those same lines followed by two noise channels
    ``<amp>.a`` and ``<amp>.a'`` per amplifier (the primed one conjugated).
    """

    def __init__(self, ports, components=(), allow_dissipative_feedback=False):
        ports = tuple(ports)
        names = [p.name for p in ports]
        if len(names) != len(set(names)):
            raise ValueError("duplicate port names in network")
        self.ports = ports
        self.capacitors: list[Capacitor] = []
        self.inductors: list[Inductor] = []
        self.opamps: list[OpAmp] = []
        for comp in components:
            if isinstance(comp, Capacitor):
                self.capacitors.append(comp)
            elif isinstance(comp, Inductor):
                self.inductors.append(comp)
            elif isinstance(comp, OpAmp):
                self.opamps.append(comp)
            else:
                raise TypeError(f"unsupported component {comp!r}")
        amp_names = [a.name for a in self.opamps]
        if len(amp_names) != len(set(amp_names)):
            raise ValueError("duplicate amplifier names in network")
        claimed: dict[str, str] = {}
        for amp in self.opamps:
            if not allow_dissipative_feedback and not amp.feedback.is_reactive:
                raise ValueError(
                    f"amplifier {amp.name!r}: dissipative feedback rejected "
                    "(pass allow_dissipative_feedback=True to override)")
            for node in (amp.left, amp.right):
                if node in claimed:
                    raise ValueError(
                        f"node {node!r} is a terminal of both {claimed[node]!r} and "
                        f"{amp.name!r}; compose stages with the cascade tools instead "
                        "of wiring ideal amplifiers back to back")
                claimed[node] = amp.name
        # Node ordering: ports first, then component terminals, ground dropped.
        seen: dict[str, None] = {}
        for p in ports:
            seen.setdefault(p.attach_node, None)
        for el in (*self.capacitors, *self.inductors):
            seen.setdefault(el.node_a, None)
            seen.setdefault(el.node_b, None)
        for amp in self.opamps:
            seen.setdefault(amp.left, None)
            seen.setdefault(amp.right, None)
        self.nodes = tuple(n for n in seen if n not in GROUND_NAMES)
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        self.output_channels = tuple(Channel(p.name, p.conjugated) for p in ports)
        self.input_channels = self.output_channels + tuple(
            c for amp in self.opamps
            for c in (Channel(f"{amp.name}.a"), Channel(f"{amp.name}.a'", conjugated=True)))
        self._a, self._b = self._stamp()

    def channel_temperatures(self) -> dict[str, float]:
        temps = {p.name: float(p.temperature) for p in self.ports}
        for amp in self.opamps:
            temps[f"{amp.name}.a"] = float(amp.noise_temp)
            temps[f"{amp.name}.a'"] = float(amp.conj_temp)
        return temps

    def _stamp(self):
        """The stack [A0, A1, A2] of A(w) = A0 + w A1 + A2/w, and B."""
        nn, nl, no = len(self.nodes), len(self.ports), len(self.opamps)
        n_unknowns = nn + nl + no          # node voltages, out fields, feedback currents
        a = np.zeros((3, n_unknowns, n_unknowns), dtype=complex)   # A0, A1, A2
        b = np.zeros((n_unknowns, nl + 2 * no), dtype=complex)

        def iv(node: str) -> int | None:
            return None if node in GROUND_NAMES else self._node_index[node]

        iao = lambda k: nn + k
        iif = lambda k: nn + nl + k

        lines_at: dict[str, list[int]] = {}
        for k, p in enumerate(self.ports):
            lines_at.setdefault(p.attach_node, []).append(k)
        # Branch admittance y, stamped in A_p, at each of its two nodes.
        branches_at: dict[str, list[tuple[str, int, complex]]] = {}
        for el, ap, y in ([(c, 1, -1j * c.capacitance) for c in self.capacitors]
                          + [(l, 2, 1j / l.inductance) for l in self.inductors]):
            branches_at.setdefault(el.node_a, []).append((el.node_b, ap, y))
            branches_at.setdefault(el.node_b, []).append((el.node_a, ap, y))

        role: dict[str, tuple[str, int]] = {}
        for j, amp in enumerate(self.opamps):
            role[amp.left] = ("left", j)
            role[amp.right] = ("right", j)

        def stamp_currents(eq: int, node: str) -> None:
            for k in lines_at.get(node, ()):
                ci = 1.0 / math.sqrt(self.ports[k].impedance)
                a[0, eq, iao(k)] += ci
                b[eq, k] += ci
            for other, ap, y in branches_at.get(node, ()):
                a[ap, eq, iv(node)] -= y
                io = iv(other)
                if io is not None:
                    a[ap, eq, io] += y

        # Line voltage relations: V_node = c_U (a_out + a_in).
        for k, p in enumerate(self.ports):
            cu = math.sqrt(p.impedance)
            inode = iv(p.attach_node)
            if inode is not None:
                a[0, k, inode] += 1.0
            a[0, k, iao(k)] -= cu
            b[k, k] += cu

        # One current-type equation per node.
        for n_i, node in enumerate(self.nodes):
            eq = nl + n_i
            kind, j = role.get(node, (None, -1))
            if kind == "right":
                amp = self.opamps[j]
                a[0, eq, iv(amp.left)] += 1.0
                a[0, eq, iv(amp.right)] -= 1.0
                # Z_f(w) is Z_f(1) times 1, w or 1/w.
                ap = _FEEDBACK_TERM[amp.feedback.kind]
                a[ap, eq, iif(j)] -= amp.feedback.impedance(1.0)
            elif kind == "left":
                amp = self.opamps[j]
                stamp_currents(eq, node)
                a[0, eq, iif(j)] += 1.0
                ic = 1.0 / math.sqrt(amp.noise_impedance)
                b[eq, nl + 2 * j] += ic
                b[eq, nl + 2 * j + 1] += ic
            else:
                stamp_currents(eq, node)

        # Amplifier input-voltage condition: V_left = U.
        for j, amp in enumerate(self.opamps):
            eq = nl + nn + j
            a[0, eq, iv(amp.left)] += 1.0
            uc = math.sqrt(amp.noise_impedance)
            b[eq, nl + 2 * j] += uc
            b[eq, nl + 2 * j + 1] -= uc
        return a, b

    def scattering(self, omega: float) -> ScatteringMap:
        """Solve the network at one angular frequency (rad/s, > 0)."""
        return self.sweep([omega])[0]

    def sweep(self, grid, outputs=None) -> "ScatteringSweep":
        """Scattering maps at every grid point, in grid order.

        ``grid`` is any iterable of angular frequencies (rad/s, > 0);
        ``outputs`` names the output channels to solve for, by default all.
        """
        w = np.fromiter(grid, dtype=float)
        if len(w) and not (w.min() > 0.0 and w.max() < math.inf):
            bad = w[~((w > 0.0) & (w < math.inf))][0]
            raise ValueError(f"angular frequency must be positive and finite, got {bad.item()!r}")
        chans = self.output_channels
        if outputs is not None:
            chans = tuple(chans[_index_of(chans, name, "output")] for name in outputs)
        n = self._b.shape[0]
        unit = np.eye(n, dtype=complex)[:, [len(self.nodes) + self.output_channels.index(c)
                                           for c in chans]]
        s = np.empty((len(w), len(chans), self._b.shape[1]), dtype=complex)
        step = max(1, SWEEP_BLOCK_ENTRIES // max(n * n, 1))
        for lo in range(0, len(w), step):
            s[lo:lo + step] = self._solve_block(w[lo:lo + step], unit)
        return ScatteringSweep(w, s, chans, self.input_channels)

    def _solve_block(self, w: np.ndarray, unit: np.ndarray) -> np.ndarray:
        """(F, m, k) stack of the rows of S that the columns of ``unit`` pick."""
        wc = w[:, None, None]
        # Overflow and singularity show as non-finite values, checked below.
        with np.errstate(all="ignore"):
            a = self._a[0] + wc * self._a[1] + self._a[2] / wc
            row = np.abs(a).max(axis=2)
            ra = a / row[:, :, None]
            col = np.abs(ra).max(axis=1)
            e = ra / col[:, None, :]
            try:
                z = np.linalg.solve(e.transpose(0, 2, 1), unit / col[:, :, None])
            except np.linalg.LinAlgError:
                _raise_singular(a, e, w, None)
            s = (z.transpose(0, 2, 1) / row[:, None, :]) @ self._b
        if not np.isfinite(s).all():
            _raise_singular(a, e, w, np.isfinite(s).all(axis=(1, 2)))
        return s


class ScatteringSweep(Sequence):
    """Read-only sequence of the scattering maps at ``omegas`` (F,), backed
    by the one (F, m, k) stack ``matrices``."""

    def __init__(self, omegas: np.ndarray, matrices: np.ndarray, outputs, inputs):
        omegas.setflags(write=False)
        matrices.setflags(write=False)
        self.omegas, self.matrices = omegas, matrices
        self.outputs, self.inputs = tuple(outputs), tuple(inputs)

    def __len__(self) -> int:
        return len(self.omegas)

    def __getitem__(self, i: int) -> ScatteringMap:
        return ScatteringMap(self.omegas[i], self.matrices[i], self.outputs, self.inputs)


def _raise_singular(a: np.ndarray, e: np.ndarray, w: np.ndarray, ok) -> NoReturn:
    """Raise for the first point of a block that failed: ``a`` stacks its
    systems, ``e`` their equilibrated form, ``ok`` flags the points with a
    finite solution (None when the block's factorization failed)."""
    finite = np.isfinite(a).all(axis=(1, 2))
    e = np.where(np.isfinite(e), e, 0.0)     # a zero row or column gives 0/0
    n = e.shape[-1]
    bad = ~finite | (np.linalg.matrix_rank(e) < n) | (False if ok is None else ~ok)
    i = int(bad.argmax() if bad.any() else np.linalg.cond(e).argmax())
    where = f"at omega = {w[i].item()!r} rad/s ({w[i].item() / (2 * math.pi)!r} Hz)"
    if not finite[i]:
        raise SingularNetworkError(
            f"network equations overflow {where}: an element's admittance or "
            "impedance exceeds double range")
    rank = int(np.linalg.matrix_rank(a[i]))
    cause = (f"rank {rank} < {n}" if rank < n
             else f"condition number {np.linalg.cond(e[i]):.3g}")
    raise SingularNetworkError(f"network equations are singular {where}: {cause}")


@dataclass(frozen=True)
class EstimatorCoefficients:
    """A readout rescaled so the signal coefficient is exactly one.

    ``weights`` maps every input channel name to its equivalent-input-noise
    weight; the signal entry is exactly 1 by construction.  ``gain`` is the
    raw readout <- signal coefficient before normalization.  ``back_action``
    optionally carries the output row sent back toward the measured system.
    """

    signal: str
    weights: dict[str, complex]
    gain: complex
    back_action: dict[str, complex] | None = field(default=None, compare=False)

    def noise_weights(self) -> dict[str, complex]:
        return {k: v for k, v in self.weights.items() if k != self.signal}


def estimator_from_scattering(smap: ScatteringMap, signal: str,
                              readout: str) -> EstimatorCoefficients:
    """Normalize the readout row of a scattering map into an estimator.

    The readout output is divided by its signal coefficient, so the result
    reads as true signal plus weighted input noises.  Raises
    :class:`NoTransductionError` when the readout does not see the signal.
    """
    row = smap.row(readout)
    if signal not in row:
        raise KeyError(f"no input channel named {signal!r}")
    beta = row[signal]
    if beta == 0:
        raise NoTransductionError(
            f"readout {readout!r} has zero coefficient on signal {signal!r}: "
            "no transduction")
    weights = {name: value / beta for name, value in row.items()}
    weights[signal] = 1.0
    back = None
    if any(c.name == signal for c in smap.outputs):
        back = smap.row(signal)
    return EstimatorCoefficients(signal=signal, weights=weights,
                                 gain=complex(beta), back_action=back)
