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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import require_finite

DEFAULT_TOLERANCE = 1e-10

GROUND_NAMES = frozenset({"0", "gnd", "ground"})


class SingularNetworkError(RuntimeError):
    """Raised when the network equations are rank deficient at a frequency."""


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

    @property
    def input_signature(self) -> np.ndarray:
        return np.array([c.signature for c in self.inputs], dtype=float)

    @property
    def output_signature(self) -> np.ndarray:
        return np.array([c.signature for c in self.outputs], dtype=float)

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
    return commutator_residual(smap.matrix, smap.input_signature,
                               smap.output_signature)


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

    def impedance(self, omega: float) -> complex:
        return 1.0 / (-1j * float(omega) * self.capacitance)


@dataclass(frozen=True)
class Inductor:
    node_a: str
    node_b: str
    inductance: float

    def __post_init__(self):
        _check_two_terminal(self.node_a, self.node_b, "inductor")
        require_finite(self.inductance, "inductance")

    def impedance(self, omega: float) -> complex:
        return -1j * float(omega) * self.inductance


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

    @property
    def output_channels(self) -> tuple[Channel, ...]:
        return tuple(Channel(p.name, p.conjugated) for p in self.ports)

    @property
    def input_channels(self) -> tuple[Channel, ...]:
        chans = [Channel(p.name, p.conjugated) for p in self.ports]
        for amp in self.opamps:
            chans.append(Channel(f"{amp.name}.a"))
            chans.append(Channel(f"{amp.name}.a'", conjugated=True))
        return tuple(chans)

    def channel_temperatures(self) -> dict[str, float]:
        temps = {p.name: float(p.temperature) for p in self.ports}
        for amp in self.opamps:
            temps[f"{amp.name}.a"] = float(amp.noise_temp)
            temps[f"{amp.name}.a'"] = float(amp.conj_temp)
        return temps

    def scattering(self, omega: float) -> ScatteringMap:
        """Solve the network at one angular frequency (rad/s, > 0)."""
        w = float(omega)
        if not (w > 0.0) or not math.isfinite(w):
            raise ValueError(f"angular frequency must be positive and finite, got {w!r}")
        nn, nl, no = len(self.nodes), len(self.ports), len(self.opamps)
        n_unknowns = nn + nl + no          # node voltages, out fields, feedback currents
        n_inputs = nl + 2 * no
        a = np.zeros((n_unknowns, n_unknowns), dtype=complex)
        b = np.zeros((n_unknowns, n_inputs), dtype=complex)

        # Uniform rescaling hbar|w|/2 -> 1 of the traveling-wave prefactors;
        # the scattering matrix depends only on impedance ratios, and the
        # scaled system is far better conditioned.
        def iv(node: str) -> int | None:
            return None if node in GROUND_NAMES else self._node_index[node]

        iao = lambda k: nn + k
        iif = lambda k: nn + nl + k

        lines_at: dict[str, list[int]] = {}
        for k, p in enumerate(self.ports):
            lines_at.setdefault(p.attach_node, []).append(k)
        branches_at: dict[str, list[tuple[str, complex]]] = {}
        for el in (*self.capacitors, *self.inductors):
            z = el.impedance(w)
            branches_at.setdefault(el.node_a, []).append((el.node_b, z))
            branches_at.setdefault(el.node_b, []).append((el.node_a, z))

        role: dict[str, tuple[str, int]] = {}
        for j, amp in enumerate(self.opamps):
            role[amp.left] = ("left", j)
            role[amp.right] = ("right", j)

        def stamp_currents(eq: int, node: str) -> None:
            for k in lines_at.get(node, ()):
                ci = 1.0 / math.sqrt(self.ports[k].impedance)
                a[eq, iao(k)] += ci
                b[eq, k] += ci
            for other, z in branches_at.get(node, ()):
                a[eq, iv(node)] -= 1.0 / z
                io = iv(other)
                if io is not None:
                    a[eq, io] += 1.0 / z

        # Line voltage relations: V_node = c_U (a_out + a_in).
        for k, p in enumerate(self.ports):
            cu = math.sqrt(p.impedance)
            inode = iv(p.attach_node)
            if inode is not None:
                a[k, inode] += 1.0
            a[k, iao(k)] -= cu
            b[k, k] += cu

        # One current-type equation per node.
        for n_i, node in enumerate(self.nodes):
            eq = nl + n_i
            kind, j = role.get(node, (None, -1))
            if kind == "right":
                amp = self.opamps[j]
                zf = amp.feedback.impedance(w)
                a[eq, iv(amp.left)] += 1.0
                a[eq, iv(amp.right)] -= 1.0
                a[eq, iif(j)] -= zf
            elif kind == "left":
                amp = self.opamps[j]
                stamp_currents(eq, node)
                a[eq, iif(j)] += 1.0
                ic = 1.0 / math.sqrt(amp.noise_impedance)
                b[eq, nl + 2 * j] += ic
                b[eq, nl + 2 * j + 1] += ic
            else:
                stamp_currents(eq, node)

        # Amplifier input-voltage condition: V_left = U.
        for j, amp in enumerate(self.opamps):
            eq = nl + nn + j
            a[eq, iv(amp.left)] += 1.0
            uc = math.sqrt(amp.noise_impedance)
            b[eq, nl + 2 * j] += uc
            b[eq, nl + 2 * j + 1] -= uc

        x = _equilibrated_solve(a, b, w)
        s = x[nn:nn + nl, :]
        return ScatteringMap(w, s, self.output_channels, self.input_channels)

    def sweep(self, grid) -> list[ScatteringMap]:
        """Evaluate the scattering map at every grid point, in grid order."""
        return [self.scattering(w) for w in grid]


def _equilibrated_solve(a: np.ndarray, b: np.ndarray, omega: float) -> np.ndarray:
    n = a.shape[0]
    row = np.max(np.abs(a), axis=1)
    if np.any(row == 0.0):
        _raise_singular(a, omega)
    ra = a / row[:, None]
    col = np.max(np.abs(ra), axis=0)
    if np.any(col == 0.0):
        _raise_singular(a, omega)
    try:
        y = np.linalg.solve(ra / col[None, :], b / row[:, None])
    except np.linalg.LinAlgError:
        _raise_singular(a, omega)
    if not np.all(np.isfinite(y)):
        _raise_singular(a, omega)
    return y / col[:, None]


def _raise_singular(a: np.ndarray, omega: float):
    finite = np.where(np.isfinite(a), a, 0.0)
    rank = int(np.linalg.matrix_rank(finite))
    raise SingularNetworkError(
        f"network equations are singular at omega = {omega!r} rad/s "
        f"({omega / (2 * math.pi)!r} Hz): rank {rank} < {a.shape[0]}")


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
