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
i/(wC) feedback in A2, the rest in A0, stamped once per network.  Each
connected part of the circuit (ground joins nothing) is a diagonal block of
A, solved alone; parts of equal size and input count share batched
operations.  An input of another part would weigh an exact zero, so S has
columns only for the inputs of the parts its rows read, in input order.

A part with at most one row v holding an A1 or A2 entry (every op-amp
stage; v = 0 if none) is A(w) = A(w_r) + e_v (V(w) - V(w_r))^T, with V(w)
its row v formed as A0 + w A1 + A2/w.  A sweep of two or more points solves
a group of such parts once, at its middle point w_r and equilibrated (rows
and columns scaled by their largest entries): A(w_r) [N | X_p] = [e_v | B].
At each point the pivot mu(w) = V(w) N is a scalar and
X = X_p + N (B_v - V(w) X_p) / mu(w) (Sherman-Morrison).  A(w) is singular
exactly where mu(w) = 0.  V(w) [N | X_p], or V(w) N for a part no output
reads, is summed left to right over the unknowns, V(w) formed only from the
group's first varying unknown k < m on: the sum before k is taken once per
sweep.  Groups holding another part (C/L ladders), one-point sweeps (there
that solve would be the only one) and groups in which some A(w_r) is singular
or overflows are formed whole and equilibrated (D_r A D_c) at each point;
every part of such a group is factored and solved, an unread one for zero
columns, and each requested row r of S is e_r^T D_c (D_r A D_c)^-1 D_r B.
A block holds at most SWEEP_BLOCK_ENTRIES complex entries: m max(m, 1 + c)
per point for A or V(w) [N | X_p], or an unread part's pivot and its entries
of V(w).  A failing sweep names the first grid point at which the solver
refuses a row or a pivot (getrf's zero pivot, mu(w) = 0 or a non-finite
value), whatever block that point falls in.
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

SWEEP_BLOCK_ENTRIES = 2 ** 15   # complex entries a block of points forms
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
        """Groups of connected parts of equal size m and input count c: their
        stamp (3, P, m, m), B over their inputs (P, m, c) and their inputs
        (P, c); and, per port, the (group, part, position) of its outward
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
        rows, cols, ins = [[] for _ in ids], [[] for _ in ids], [[] for _ in ids]
        for i, (r, c) in enumerate(zip(port + node + amp, node + port + amp)):
            rows[r].append(i)
            cols[c].append(i)
        for k, q in enumerate(port + [q for q in amp for _ in "aa"]):
            ins[q].append(k)
        kinds = [(len(r), len(k)) for r, k in zip(rows, ins)]
        nn, groups, outward = len(node), [], [None] * len(port)
        for g, kind in enumerate(sorted(set(kinds))):
            ps = [q for q, k in enumerate(kinds) if k == kind]
            r, c = np.array([[rows[q] for q in ps], [cols[q] for q in ps]])
            k = np.array([ins[q] for q in ps], dtype=int)
            groups.append((self._a[:, r[:, :, None], c[:, None, :]],
                           self._b[r[:, :, None], k[:, None]], k))
            for j, q in enumerate(ps):
                for pos, i in enumerate(cols[q]):
                    if nn <= i < nn + len(port):   # port i - nn's outward field
                        outward[i - nn] = (g, j, pos)
        return groups, outward

    def sweep(self, grid, outputs=None) -> "ScatteringSweep":
        """Scattering maps at every grid point, in grid order.

        ``grid`` is any iterable of angular frequencies (rad/s, > 0);
        ``outputs`` names the output channels to solve for, by default all.
        The result's ``inputs``, the columns of S, are those of the parts the
        outputs read, in input order: by default, of every part holding a port.
        """
        w = np.array(grid, float) if np.ndim(grid) == 1 else np.fromiter(grid, dtype=float)
        if len(w) and not (w.min() > 0.0 and w.max() < math.inf):
            bad = w[~((w > 0.0) & (w < math.inf))][0]
            raise ValueError(f"angular frequency must be positive and finite, got {bad.item()!r}")
        chans = self.output_channels
        if outputs is not None:
            chans = tuple(chans[_index_of(chans, name, "output")] for name in outputs)
        with np.errstate(all="ignore"):   # overflow and singularity are checked
            plan, step, cols = self._solvers(w, chans)
            s = np.zeros((len(w), len(chans), len(cols)), dtype=complex)
            for lo in range(0, len(w), step):
                self._solve_block(w[lo:lo + step], plan, s[lo:lo + step])
        return ScatteringSweep(w, s, chans, [self.input_channels[k] for k in cols])

    def _solvers(self, w: np.ndarray, chans) -> tuple[list, int, list]:
        """Per group, a function solving a block for the rows of output channels
        ``chans`` and its arguments; the points per block; the read parts' inputs."""
        hits = [{} for _ in self._parts]           # per group: part -> [(output, unknown)]
        for i, c in enumerate(chans):
            g, q, pos = self._outward[self.output_channels.index(c)]
            hits[g].setdefault(q, []).append((i, pos))
        cols = sorted(k for (*_, ins), parts in zip(self._parts, hits) for q in parts
                      for k in ins[q].tolist())
        column = np.zeros(self._b.shape[1], dtype=int)   # per read input, its column of S
        column[cols] = range(len(cols))
        plan, entries = [], 0                      # complex entries a point forms
        for (a3, b, ins), parts in zip(self._parts, hits):
            read = sorted(parts)        # first in the group, then the parts no output reads
            if read != list(range(len(read))):
                order = read + [q for q in range(len(b)) if q not in parts]
                a3, b, ins = a3[:, order], b[order], ins[order]
            n, pairs, nx, ins = len(read), [parts[q] for q in read], None, column[ins]
            size = b.shape[1] * max(b.shape[1], 1 + b.shape[2])   # entries of A or V [N | X_p]
            # Parts holding A1 or A2 entries in one row v at most: A(w_r) [N | X_p] = [e_v | B].
            if len(w) > 1 and (varying := a3[1:].any(axis=(0, 3))).sum(axis=1).max() <= 1:
                vary = varying.argmax(axis=1)
                rhs = np.zeros(b.shape[:2] + (1 + b.shape[2],), dtype=complex)
                rhs[np.arange(len(b)), vary, 0] = 1.0
                rhs[..., 1:] = b
                row, col, e = _systems(a3, w[len(w) // 2:][:1])
                try:
                    nx = np.linalg.solve(e[0], rhs / row[0, ..., None]) / col[0, ..., None]
                except np.linalg.LinAlgError:
                    pass
            if nx is not None and np.isfinite(nx).all():
                # Per read row: its part, its row of s and its unknown.
                q, outs, at = np.array([(j, i, pos) for j, ps in enumerate(pairs)
                                        for i, pos in ps], dtype=int).reshape(-1, 3).T
                rows = a3[:, np.arange(len(b)), vary]              # parts' row v (3, P, m)
                # Before the first unknown k whose entry varies in some part, V(w) is V0:
                # its share of the fold is taken once.  k < m: a formed entry is NaN where A2/w is.
                k = np.append(rows[1:].any(axis=(0, 1))[:-1], True).argmax()
                head = _fold(rows[0, :, :k, None, None], nx[:, :k, :, None])
                folds = [(slice(lo, hi), nx[lo:hi, k:, :wide, None],   # [N | X_p], then N
                          None if head is None else head[lo:hi, :wide])
                         for lo, hi, wide in ((0, n, None), (n, len(b), 1)) if hi > lo]
                plan.append((_rank_one_rows, rows[:, :, k:].reshape(3, -1, 1), folds,
                             b[np.arange(n), vary[:n]], q, nx[q, at], outs[:, None], ins[q]))
                entries += n * size + (len(b) - n) * (b.shape[1] - k + 1)
                continue
            unit = np.zeros((len(b), b.shape[1], max(map(len, pairs), default=0)), complex)
            for j, ps in enumerate(pairs):     # k rows of a part solve unit columns 0..k-1
                unit[j, [pos for _, pos in ps], range(len(ps))] = 1.0
            plan.append((_lu_rows, a3, unit, [(b[j], len(ps), np.array([i for i, _ in ps])[:, None],
                                               ins[j]) for j, ps in enumerate(pairs)]))
            entries += len(b) * size
        return plan, max(1, SWEEP_BLOCK_ENTRIES // max(entries, 1)), cols

    def _solve_block(self, w: np.ndarray, plan, s: np.ndarray) -> None:
        """Fill ``s`` (F, m, k) with the rows of S that ``plan`` asks for, or
        raise at the first point where a row or a pivot is refused."""
        # Each group's pivots (F, ...) are finite and not 0 where its parts are regular.
        pivots = [p for rows, *args in plan for p in rows(w, s, *args)]
        finite = np.isfinite(s)
        if not (finite.all() and all(np.isfinite(p).all() and p.all() for p in pivots)):
            regular = np.ones(len(w), dtype=bool)
            for p in pivots:
                regular &= (np.isfinite(p) & (p != 0)).reshape(len(w), -1).all(axis=1)
            i = (regular & finite.all(axis=(1, 2))).argmin()
            _raise_singular(self._a, w[i].item(), regular[i])


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


def _systems(a3: np.ndarray, w: np.ndarray):
    """Row scales D_r, column scales D_c (F, ..., m) and the equilibrated stack
    D_r A D_c (F, ..., m, m) of A(w) = A0 + w A1 + A2/w over ``w`` (F,), for a
    stamp ``a3`` (3, ..., m, m)."""
    m, wc = a3.shape[-1], w[:, None]
    # Flat operands keep numpy's per-call cost low on small blocks.
    s = a3.reshape(3, -1)
    a = (s[0] + wc * s[1] + s[2] / wc).reshape(-1, m)
    row = np.maximum.reduce(np.abs(a), axis=-1)
    a /= row[:, None]
    a = a.reshape(len(w), *a3.shape[1:])
    col = np.maximum.reduce(np.abs(a), axis=-2, initial=0.0)
    return row.reshape(a.shape[:-1]), col, np.divide(a, col[..., None, :], out=a)


def _fold(v, x, y=None):
    """y + v[:, 0] x[:, 0] + v[:, 1] x[:, 1] + ..., summed left to right as the
    oracle sums; None if there is no term and no ``y``."""
    for i in range(x.shape[1]):
        term = v[:, i] * x[:, i]
        y = term if y is None else np.add(y, term, out=term)
    return y


def _rank_one_rows(w, s, stamp, folds, bv, q, nxr, outs, cols) -> list:
    """Write the read rows of S of parts changing in one row V(w); return the
    pivots mu(w) = V(w) N (F, p) per fold.  ``stamp`` (3, P (m - k), 1) is the
    parts' row V from unknown k on.  Per fold, read parts first: its parts (a
    slice), their x = [N | X_p] or N from k on (p, m - k, 1 + c or 1, 1) and
    V0 x over the unknowns before k, or None.  ``bv`` (n, c) is the read parts'
    B_v; per read row, ``q`` is its part, ``nxr`` its [N | X_p], ``outs`` and
    ``cols`` its row and columns of s."""
    v = (stamp[0] + w * stamp[1] + stamp[2] / w).reshape(-1, folds[0][1].shape[1], 1, len(w))
    y = [_fold(v[parts], x, head) for parts, x, head in folds]    # V(w) x (p, 1 + c or 1, F)
    if len(bv):
        t = (bv[..., None] - y[0][:, 1:]) / y[0][:, :1]        # (B_v - V X_p) / mu
        s[:, outs, cols] = (nxr[:, 1:, None] + nxr[:, :1, None] * t[q]).transpose(2, 0, 1)
    return [yp[:, 0].T for yp in y]


def _lu_rows(w, s, a3, unit, reads) -> list:
    """Write the read rows of S of parts (3, P, m, m) formed whole, each one
    factored and solved, the len(reads) read ones first; return the others'
    column scales (F, P - len(reads), m), finite and not 0 where A(w) is, or
    if an LU fails the signs of det A(w) (F, P), 0 where getrf meets a zero pivot."""
    row, col, e = _systems(a3, w)
    et = e.swapaxes(2, 3)
    try:
        z = np.linalg.solve(et, unit / col[..., None])
    except np.linalg.LinAlgError:
        return [np.linalg.slogdet(et)[0]]
    for q, (b, r, outs, cols) in enumerate(reads):
        s[:, outs, cols] = (z[:, q, :, :r].transpose(0, 2, 1) / row[:, q, None, :]) @ b
    return [col[:, len(reads):]]


def _raise_singular(a3: np.ndarray, w: float, regular: bool) -> NoReturn:
    """Raise for the point ``w`` at which the solver refused a row or a pivot:
    overflow if A(w) of the whole stamp ``a3`` is not finite, rank loss if a
    pivot is not ``regular`` and A(w) equilibrated loses rank, else overflow of S."""
    a = a3[0] + w * a3[1] + a3[2] / w
    where = f"at omega = {w!r} rad/s ({w / (2 * math.pi)!r} Hz)"
    if not np.isfinite(a).all():
        raise SingularNetworkError(
            f"network equations overflow {where}: an element's admittance or "
            "impedance exceeds double range")
    for axis in (1, 0):     # rows, then columns, as floats: complex / real takes 1/x
        top = np.where((top := np.abs(a).max(axis=axis, keepdims=True)) > 0.0, top, 1.0)
        a = (a.view(float).reshape(*a.shape, 2) / top[..., None]).view(complex)[..., 0]
    if not regular and (r := int(np.linalg.matrix_rank(a))) < len(a):
        raise SingularNetworkError(f"network equations are singular {where}: rank {r} < {len(a)}")
    raise SingularNetworkError(f"scattering matrix solve overflows {where}: the network "
                               "equations are regular, but solving them exceeds double range")


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
