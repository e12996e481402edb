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
scales the rows and columns of A by their largest entries (D_r A D_c) and
gets each requested row r of S as e_r^T D_c (D_r A D_c)^-1 D_r B: one solve
of the transposed stack per row, whatever the number of inputs.  Only the
rows holding an A1 or A2 entry change with w.  A sweep scales every other
row once, with its share of each column scale, and each block forms and
scales only the changing rows, from the first to the last of them.  A grid
of fewer than _PLAN_ENTRIES complex entries of A, such as one budget point,
forms every row instead: there that costs fewer numpy calls.  Either way
every entry gets the bits the whole formula gives it.  A block holds
SWEEP_BLOCK_ENTRIES complex entries at most, so the solve's memory does not
grow with the grid.

Each connected part of the circuit (ground joins nothing) is one diagonal
block of A, found once per network and solved alone: parts of equal size
share one batched solve, and an input of another part gets an exact zero.
Only the parts an output reads are solved.  The others are factored only
(slogdet), so a singular point in them still raises: getrf's zero pivot is
what both detect.  A connected network is one part.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .spectra import require_finite

DEFAULT_TOLERANCE = 1e-10

GROUND_NAMES = frozenset({"0", "gnd", "ground"})

SWEEP_BLOCK_ENTRIES = 2 ** 15   # complex entries of one (F, n, n) block of systems
# A sweep whose grid holds fewer complex entries of A than this forms every
# row per block: below it the plan's fixed numpy calls cost more than they
# save (measured crossover 1,200-2,000 entries on matched stages).
_PLAN_ENTRIES = 1500
_FEEDBACK_TERM = {"X": 0, "L": 1, "C": 2}   # A_p holding each feedback kind


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


def _index_of(channels, name: str, kind: str) -> int:
    for i, c in enumerate(channels):
        if c.name == name:
            return i
    raise KeyError(f"no {kind} channel named {name!r}")


def commutator_residual(matrix, j_in, j_out=None) -> float:
    """Max-abs norm of S @ diag(j_in) @ S^dagger - diag(j_out), the largest
    over a stack (..., m, k) of matrices S; inf when it overflows."""
    s = np.asarray(matrix, dtype=complex)
    jin = np.asarray(j_in, dtype=float)
    if s.ndim < 2:
        raise ValueError("scattering matrix must be at least two dimensional")
    rows, cols = s.shape[-2:]
    if 0 in s.shape[:-2]:
        raise ValueError("scattering stack has no frequency points")
    if rows == 0:
        raise ValueError("scattering matrix has no output rows")
    if jin.shape != (cols,):
        raise ValueError(
            f"signature length {jin.shape} does not match {cols} input channels")
    if j_out is None:
        if rows != cols:
            raise ValueError("square signature requires a square matrix")
        jout = jin
    else:
        jout = np.asarray(j_out, dtype=float)
        if jout.shape != (rows,):
            raise ValueError(
                f"output signature length {jout.shape} does not match {rows} rows")
    with np.errstate(all="ignore"):
        m = (s * jin) @ s.conj().swapaxes(-1, -2)
        residual = float(np.max(np.abs(m - np.diag(jout))))
    return residual if math.isfinite(residual) else math.inf


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
    """Single-element reactive feedback in the quantum sign convention.

    kind "C": Z = 1/(-i w C), kind "L": Z = -i w L, kind "X": Z = i X with a
    constant reactance X (zero allowed, meaning no feedback path).  A
    resistor is refused: a dissipative element is a line carrying its own
    noise, and a lumped one would break the stage's commutators.  The
    engineering convention is recovered by substituting j for -i.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "R":
            raise ValueError("dissipative feedback (R) rejected: a dissipative "
                             "element must be a line carrying its own noise")
        if self.kind not in ("C", "L", "X"):
            raise ValueError(f"unknown feedback element kind {self.kind!r}")
        require_finite(self.value, f"feedback element {self.kind} value",
                       low=-math.inf if self.kind == "X" else 0.0)

    @classmethod
    def capacitive(cls, c: float) -> "Feedback":
        return cls("C", c)

    @classmethod
    def inductive(cls, l: float) -> "Feedback":
        return cls("L", l)

    @classmethod
    def reactance(cls, x: float) -> "Feedback":
        return cls("X", x)

    def impedance(self, omega: float) -> complex:
        w = float(omega)
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

    def __init__(self, ports, components=()):
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
        self._parts, self._outward = self._split()
        self._entries = max(sum(a[0].size for a, _ in self._parts), 1)   # of A, per point
        self._step = max(1, SWEEP_BLOCK_ENTRIES // self._entries)

    def channel_temperatures(self) -> dict[str, float]:
        temps = [p.temperature for p in self.ports] + [
            t for amp in self.opamps for t in (amp.noise_temp, amp.conj_temp)]
        return {c.name: float(t) for c, t in zip(self.input_channels, temps)}

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

    def _split(self):
        """Per size m of connected parts, their stamp (3, P, m, m) and rows of B
        (P, m, k); and, per port, the (group, part, position) of its outward
        field among that part's unknowns."""
        root = {n: n for n in self.nodes}          # union-find; ground joins nothing

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for a, b in ([(el.node_a, el.node_b) for el in (*self.capacitors, *self.inductors)]
                     + [(amp.left, amp.right) for amp in self.opamps]):
            if a in root and b in root:
                root[find(a)] = find(b)
        ids: dict = {}                             # a grounded port is a part alone
        node, at = [ids.setdefault(find(n), len(ids)) for n in self.nodes], self._node_index
        port = [node[at[p.attach_node]] if p.attach_node in at else ids.setdefault(k, len(ids))
                for k, p in enumerate(self.ports)]
        amp = [node[at[a.left]] for a in self.opamps]
        rows, cols = [[] for _ in ids], [[] for _ in ids]
        for i, (r, c) in enumerate(zip(port + node + amp, node + port + amp)):
            rows[r].append(i)
            cols[c].append(i)
        nn, groups, outward = len(node), [], [None] * len(port)
        for g, m in enumerate(sorted({len(r) for r in rows})):
            ps = [q for q, r in enumerate(rows) if len(r) == m]
            r, c = np.array([[rows[q] for q in ps], [cols[q] for q in ps]])
            groups.append((self._a[:, r[:, :, None], c[:, None, :]], self._b[r]))
            for j, q in enumerate(ps):
                for pos, i in enumerate(cols[q]):
                    if nn <= i < nn + len(port):   # port i - nn's outward field
                        outward[i - nn] = (g, j, pos)
        return groups, outward

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
        hits = [{} for _ in self._parts]           # per group: part -> [(output, unknown)]
        for i, c in enumerate(chans):
            g, q, pos = self._outward[self.output_channels.index(c)]
            hits[g].setdefault(q, []).append((i, pos))
        plan = []
        planned = len(w) * self._entries >= _PLAN_ENTRIES
        for (a3, b), parts in zip(self._parts, hits):
            read = sorted(parts)        # first in the group: solved; the rest only factored
            if read != list(range(len(read))):
                a3 = a3[:, read + [q for q in range(len(b)) if q not in parts]]
            system = _plan(a3, planned)
            unit = np.zeros((len(read), b.shape[1], max(map(len, parts.values()), default=0)),
                            complex)
            reads = []   # per read part: its B, k, rows of s; k rows solve unit columns 0..k-1
            for j, q in enumerate(read):
                for c, (_, pos) in enumerate(parts[q]):
                    unit[j, pos, c] = 1.0
                reads.append((b[q], len(parts[q]), [i for i, _ in parts[q]]))
            plan.append((system, unit, reads))
        s = np.empty((len(w), len(chans), self._b.shape[1]), dtype=complex)
        for lo in range(0, len(w), self._step):
            self._solve_block(w[lo:lo + self._step], plan, s[lo:lo + self._step])
        return ScatteringSweep(w, s, chans, self.input_channels)

    def _solve_block(self, w: np.ndarray, plan, s: np.ndarray) -> None:
        """Fill ``s`` (F, m, k) with the rows of S that ``plan`` asks for."""
        finite = True
        # Overflow and singularity show as non-finite values, checked below.
        with np.errstate(all="ignore"):
            for system, unit, reads in plan:
                row, col, e = _systems(system, w)
                et, n = e.swapaxes(2, 3), len(unit)   # the first n parts are read
                # The others are factored, not solved: slogdet's sign is 0 where
                # getrf meets a zero pivot, exactly where solve would raise.
                if n < e.shape[1] and not np.linalg.slogdet(et[:, n:])[0].all():
                    _raise_singular(self._a, w, None)
                if n:
                    try:
                        z = np.linalg.solve(et[:, :n], unit / col[:, :n, :, None])
                    except np.linalg.LinAlgError:
                        _raise_singular(self._a, w, None)
                # An unread part shows only here; a wholly read group relies on S.
                finite &= n == e.shape[1] or np.isfinite(e).all()
                for q, (b, r, outs) in enumerate(reads):
                    s[:, outs] = (z[:, q, :, :r].transpose(0, 2, 1) / row[:, q, None, :]) @ b
        if not (finite and np.isfinite(s).all()):
            _raise_singular(self._a, w, np.isfinite(s).all(axis=(1, 2)))


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


def _span(rows) -> slice:
    """The rows from the first to the last of ascending ``rows``; the first row
    alone if there are none, so that every group forms a row and a point where
    0/w is NaN (w below 1/DBL_MAX) overflows as the whole formula does."""
    return slice(rows[0], rows[-1] + 1) if len(rows) else slice(0, 1)


def _plan(a3: np.ndarray, fixed: bool):
    """What of A(w) = A0 + w A1 + A2/w does not change with w, for a stamp
    ``a3`` (3, P, m, m).  The rows from the first to the last holding an A1 or
    A2 entry are its span: their stamp (3, P, V, m) is formed per point.  For
    the other rows: their scales (ones in the span), their row-scaled entries
    (zeros in the span) and their share of each column scale, where A0 + 0.0
    is such a row's A0 + w*0 + 0/w, -0 made +0.  ``fixed`` False forms every
    row: the stamp alone, nothing fixed."""
    if not fixed:
        return a3, slice(None), None, None, None
    span = _span(np.flatnonzero(a3[1:].any(axis=(0, 1, 3))))
    a = a3[0] + 0.0
    a[:, span] = 0.0
    row = np.maximum.reduce(np.abs(a), axis=-1)
    row[:, span] = 1.0
    ra = np.divide(a, row[..., None], out=a)
    return (np.ascontiguousarray(a3[:, :, span]), span, row, ra,
            np.maximum.reduce(np.abs(ra), axis=-2))


def _systems(plan, w: np.ndarray):
    """Row scales D_r, column scales D_c (F, P, m) and the equilibrated stack
    D_r A D_c (F, P, m, m) of A(w) over ``w`` (F,): only the plan's span of
    rows is formed and row-scaled, the other rows come from the plan."""
    stamp, span, row0, ra0, col0 = plan
    (_, p, v, m), f, wc = stamp.shape, len(w), w[:, None]
    # Flat operands keep numpy's per-call cost low on small blocks.
    s = stamp.reshape(3, -1)
    a = (s[0] + wc * s[1] + s[2] / wc).reshape(-1, m)
    scale = np.maximum.reduce(np.abs(a), axis=-1)
    a /= scale[:, None]
    a = a.reshape(f, p, v, m)
    col = np.maximum.reduce(np.abs(a), axis=2, initial=0.0)
    if row0 is None:                          # every row formed
        return scale.reshape(f, p, m), col, np.divide(a, col[:, :, None, :], out=a)
    np.maximum(col, col0, out=col)
    row = row0[None].repeat(f, axis=0)
    row[:, :, span] = scale.reshape(f, p, v)
    # numpy divides a complex number by a real r as ((re + im*0) s, (im - re*0) s)
    # with s = 1/r: the bits of (re, im) * s unless a part is -0.  The plan's rows
    # hold no -0; a formed row scaled by an infinite scale may, so it is divided.
    e = ra0 * (1.0 / col)[:, :, None, :]
    np.divide(a, col[:, :, None, :], out=e[:, :, span])
    return row, col, e


def _raise_singular(a3: np.ndarray, w: np.ndarray, ok) -> NoReturn:
    """Raise for the first failing point of a block: ``a3`` is the whole stamp, ``ok``
    flags points whose solved rows are finite (None: a factorization failed)."""
    with np.errstate(all="ignore"):
        wc = w[:, None, None]
        a = a3[0] + wc * a3[1] + a3[2] / wc      # dense A(w), for its finiteness and rank
        e = _systems(_plan(a3[:, None], False), w)[2][:, 0]
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
    raw readout <- signal coefficient before normalization.
    """

    signal: str
    weights: dict[str, complex]
    gain: complex

    def noise_weights(self) -> dict[str, complex]:
        return {k: v for k, v in self.weights.items() if k != self.signal}
