"""Text format for network descriptions, presets and sweep requests.

The ``.qnet`` format is line oriented.  Grammar (one statement per line,
whitespace separated; ``#`` starts a comment, full-line comments are kept
on round-trip):

    qnet 1
    line <name> impedance=<Ohm> temperature=<K>
    opamp <name> left=<port> right=<port> noise_impedance=<Ohm>
          noise_temp=<K> conj_temp=<K> feedback=<C|L>:<value>
    signal <port>
    readout <port>
    sweep <f_lo_Hz> <f_hi_Hz> <npoints> <lin|log>     (2 to 1,000,000 points)
    preset <name>

Frequencies in files are plain Hz; the library converts to angular
frequencies internally.  Scientific notation is accepted anywhere a number
is.  The version header is optional and assumed ``qnet 1`` when absent.
A document holds either a circuit (ports, amplifiers, exactly one signal
and one readout) or a single preset reference.  Port names must be declared
before they are referenced, and the ground names of
:data:`~qunet.network.GROUND_NAMES` are reserved.  Dissipative (R) feedback
is always refused, at the ``feedback=`` field: a dissipative element is a
line carrying its own noise, so :class:`~qunet.network.Feedback` is reactive
only.  A statement whose values a constructor refuses, such as a sweep's
point count, scale, frequency order or range, is reported at the statement.

The text describes the network's own objects: :func:`parse` turns a
``line`` into a :class:`~qunet.network.PortSpec` and an ``opamp`` into an
:class:`~qunet.network.OpAmp` with its :class:`~qunet.network.Feedback`, so
:func:`to_network` only hands them to the network.  Source positions sit
in a side table that document equality ignores.

Parsing is total: invalid input raises :class:`NetlistError` carrying a
structured list of issues, each with a 1-based line and column pointing at
the offending token.  ``parse(serialize(doc))`` equals ``doc``;
:func:`serialize` raises :class:`ValueError` for what the format cannot
express: constant-reactance (X) feedback, ports attached to a named node,
conjugated ports and names outside the grammar.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .network import GROUND_NAMES, Feedback, OpAmp, PortSpec, QuantumNetwork
from .spectra import require_finite

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

FEEDBACK_KINDS = ("C", "L")
SWEEP_SCALES = ("lin", "log")
MAX_SWEEP_POINTS = 1_000_000     # bounds what a one-line file can ask to allocate


@dataclass(frozen=True)
class Issue:
    """One structured parse or validation problem."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


class NetlistError(ValueError):
    """Carries every issue found in a document."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class Comment:
    text: str


@dataclass(frozen=True)
class Directive:
    """A ``signal``, ``readout`` or ``preset`` statement and its name."""

    keyword: str
    name: str


@dataclass(frozen=True)
class Sweep:
    """``npoints`` frequencies from ``f_lo`` to ``f_hi`` Hz, evenly spaced
    on a ``lin`` or ``log`` scale."""

    f_lo: float
    f_hi: float
    npoints: int
    scale: str

    def __post_init__(self):
        if not (isinstance(self.npoints, numbers.Integral)
                and 2 <= self.npoints <= MAX_SWEEP_POINTS):
            raise ValueError(f"sweep needs an integer count of 2 to "
                             f"{MAX_SWEEP_POINTS} points, got {self.npoints!r}")
        object.__setattr__(self, "npoints", int(self.npoints))
        if self.scale not in SWEEP_SCALES:
            raise ValueError(f"sweep scale must be lin or log, got {self.scale!r}")
        f_lo = require_finite(self.f_lo, "sweep lower frequency")
        f_hi = require_finite(self.f_hi, "sweep upper frequency")
        if not f_hi > f_lo:
            raise ValueError("sweep upper frequency must exceed the lower")
        if not 2.0 * math.pi * f_hi < math.inf:
            raise ValueError(f"sweep upper frequency {f_hi!r} Hz overflows as 2*pi*f")
        if self.scale == "log" and not f_hi / f_lo < math.inf:
            raise ValueError(f"log sweep ratio {f_hi!r}/{f_lo!r} overflows")

    def to_grid(self) -> np.ndarray:
        """The angular frequencies (rad/s), a read-only float64 array.

        Log points are f_lo * ratio ** i, with the power from ``math.pow``
        as Python's own: numpy's power rounds differently in the last bits.
        The last point is f_hi exactly; no other passes it.
        """
        f_lo, f_hi, n = float(self.f_lo), float(self.f_hi), self.npoints
        if self.scale == "log":
            ratio = (f_hi / f_lo) ** (1.0 / (n - 1))
            hz = f_lo * np.fromiter(map(math.pow, repeat(ratio, n - 1), range(n - 1)), float, n - 1)
        else:
            hz = f_lo + (f_hi - f_lo) / (n - 1) * np.arange(n - 1)
        grid = 2.0 * math.pi * np.minimum(np.append(hz, f_hi), f_hi)
        grid.setflags(write=False)
        return grid


@dataclass
class NetlistDocument:
    """Statements in source order and what they declare.

    ``statements`` holds comments, ports (:class:`PortSpec`), amplifiers
    (:class:`OpAmp`), directives and the sweep.  The fields after it are
    filled in once, as the parser meets each statement.  ``positions[i]``
    is the (line, column) of ``statements[i]``; equality ignores it.
    """

    statements: list = field(default_factory=list)
    lines: list[PortSpec] = field(default_factory=list)
    opamps: list[OpAmp] = field(default_factory=list)
    signal: str | None = None
    readout: str | None = None
    sweep: Sweep | None = None
    preset: str | None = None
    has_header: bool = False
    positions: list[tuple[int, int]] = field(default_factory=list, compare=False,
                                             repr=False)


def _tokens(line: str):
    """The whitespace-separated tokens of ``line``, each with its 1-based column."""
    toks, end = [], 0
    for tok in line.split():
        start = line.index(tok, end)
        toks.append((start + 1, tok))
        end = start + len(tok)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.issues: list[Issue] = []
        self.doc = NetlistDocument()
        self.port_names: set[str] = set()
        self.opamp_names: set[str] = set()
        self.terminals: dict[str, str] = {}     # port -> amplifier using it
        self.handlers = {
            "qnet": self._header, "line": self._line, "opamp": self._opamp,
            "signal": self._port_designation, "readout": self._port_designation,
            "sweep": self._sweep, "preset": self._preset,
        }

    def error(self, line: int, column: int, message: str) -> None:
        self.issues.append(Issue(line, column, message))

    def parse(self) -> NetlistDocument:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            toks = _tokens(raw)
            # A comment runs to the end of its line; a full-line one is kept.
            if "#" in raw:
                for i, (col, tok) in enumerate(toks):
                    if tok.startswith("#"):
                        if i == 0:
                            self._add(lineno, col, Comment(raw.rstrip()))
                        toks = toks[:i]
                        break
            if toks:
                self._statement(lineno, toks)
        self._document_checks()
        if self.issues:
            raise NetlistError(self.issues)
        return self.doc

    def _add(self, lineno: int, col: int, statement) -> None:
        self.doc.statements.append(statement)
        self.doc.positions.append((lineno, col))

    def _designate(self, lineno: int, col: int, keyword: str, value, statement) -> None:
        """Set the document field ``keyword`` once; a repeat is an issue."""
        if getattr(self.doc, keyword) is not None:
            self.error(lineno, col, f"duplicate {keyword} designation")
            return
        setattr(self.doc, keyword, value)
        self._add(lineno, col, statement)

    def _build(self, lineno: int, col: int, make):
        """``make()``, or None with an issue if a constructor refuses its values."""
        try:
            return make()
        except ValueError as exc:
            self.error(lineno, col, str(exc))
            return None

    def _statement(self, lineno: int, toks) -> None:
        col0, keyword = toks[0]
        handler = self.handlers.get(keyword)
        if handler is None:
            self.error(lineno, col0, f"unknown keyword {keyword!r}")
            return
        handler(lineno, toks)

    def _header(self, lineno: int, toks) -> None:
        if len(toks) != 2 or toks[1][1] != "1":
            col = toks[1][0] if len(toks) > 1 else toks[0][0]
            self.error(lineno, col, "unsupported format version (expected 'qnet 1')")
            return
        if self.doc.has_header or self.doc.statements:
            self.error(lineno, toks[0][0], "version header must come first")
            return
        self.doc.has_header = True

    def _name(self, lineno: int, tok) -> str | None:
        col, text = tok
        if not _NAME_RE.match(text):
            self.error(lineno, col, f"invalid name {text!r}")
            return None
        return text

    def _number(self, lineno: int, col: int, text: str, what: str,
                closed: bool = False) -> float | None:
        """``text`` as a number finite and > 0 (>= 0 if ``closed``), or None
        with :func:`~qunet.spectra.require_finite`'s refusal at ``col``."""
        try:
            return require_finite(text, what, closed=closed)
        except ValueError as exc:
            self.error(lineno, col, str(exc))
            return None

    def _keyvals(self, lineno: int, toks, expected: tuple[str, ...]):
        """Parse key=value tokens; returns {key: (value_col, value_text)}."""
        out: dict[str, tuple[int, str]] = {}
        ok = True
        for col, tok in toks:
            key, eq, value = tok.partition("=")
            if not eq:
                self.error(lineno, col, f"expected key=value, got {tok!r}")
            elif key not in expected:
                self.error(lineno, col, f"unknown field {key!r}")
            elif key in out:
                self.error(lineno, col, f"duplicate field {key!r}")
            else:
                out[key] = (col + len(key) + 1, value)
                continue
            ok = False
        for key in expected:
            if key not in out:
                self.error(lineno, toks[0][0] if toks else 1,
                           f"missing field {key!r}")
                ok = False
        return out if ok else None

    def _line(self, lineno: int, toks) -> None:
        if len(toks) < 2:
            self.error(lineno, toks[0][0], "line declaration needs a name")
            return
        name = self._name(lineno, toks[1])
        if name in GROUND_NAMES:
            self.error(lineno, toks[1][0], f"port name {name!r} is reserved for ground")
            name = None
        fields = self._keyvals(lineno, toks[2:], ("impedance", "temperature"))
        if name is None or fields is None:
            return
        if name in self.port_names:
            self.error(lineno, toks[1][0], f"duplicate port name {name!r}")
            return
        impedance = self._number(lineno, *fields["impedance"], f"port {name!r}: impedance")
        temperature = self._number(lineno, *fields["temperature"],
                                   f"port {name!r}: temperature", closed=True)
        if impedance is None or temperature is None:
            return
        port = self._build(lineno, toks[0][0],
                           lambda: PortSpec(name, impedance, temperature))
        if port is None:
            return
        self.port_names.add(name)
        self.doc.lines.append(port)
        self._add(lineno, toks[0][0], port)

    def _port_ref(self, lineno: int, col: int, name: str) -> bool:
        if name not in self.port_names:
            self.error(lineno, col, f"undeclared port {name!r}")
            return False
        return True

    def _opamp(self, lineno: int, toks) -> None:
        if len(toks) < 2:
            self.error(lineno, toks[0][0], "opamp declaration needs a name")
            return
        name = self._name(lineno, toks[1])
        fields = self._keyvals(lineno, toks[2:], (
            "left", "right", "noise_impedance", "noise_temp", "conj_temp",
            "feedback"))
        if name is None or fields is None:
            return
        if name in self.opamp_names:
            self.error(lineno, toks[1][0], f"duplicate opamp name {name!r}")
            return
        col_l, left = fields["left"]
        col_r, right = fields["right"]
        ok = self._port_ref(lineno, col_l, left) & self._port_ref(lineno, col_r, right)
        if left == right:
            self.error(lineno, col_r, "left and right ports must differ")
            ok = False
        for col, port in ((col_l, left), (col_r, right)):
            if port in self.terminals:
                self.error(lineno, col,
                           f"port {port!r} is already a terminal of amplifier "
                           f"{self.terminals[port]!r}; compose stages with the "
                           "cascade tools instead of wiring ideal amplifiers "
                           "back to back")
                ok = False
        what = f"amplifier {name!r}:"
        r_a = self._number(lineno, *fields["noise_impedance"], f"{what} noise impedance")
        t_n = self._number(lineno, *fields["noise_temp"], f"{what} noise_temp", closed=True)
        t_c = self._number(lineno, *fields["conj_temp"], f"{what} conj_temp", closed=True)
        col_f, txt_f = fields["feedback"]
        kind, _, value_txt = txt_f.partition(":")
        if kind == "R":
            self.error(lineno, col_f,
                       "dissipative feedback (R) rejected: a dissipative "
                       "element must be a line carrying its own noise")
            return
        if kind not in FEEDBACK_KINDS or not value_txt:
            self.error(lineno, col_f,
                       f"feedback must be <C|L>:<value>, got {txt_f!r}")
            return
        value = self._number(lineno, col_f + 2, value_txt,
                             f"feedback element {kind} value")
        if not ok or None in (r_a, t_n, t_c, value):
            return
        amp = self._build(lineno, toks[0][0], lambda: OpAmp(
            name, left, right, r_a, Feedback(kind, value), t_n, t_c))
        if amp is None:
            return
        self.opamp_names.add(name)
        self.terminals[left] = self.terminals[right] = name
        self.doc.opamps.append(amp)
        self._add(lineno, toks[0][0], amp)

    def _port_designation(self, lineno: int, toks) -> None:
        col0, keyword = toks[0]
        if len(toks) != 2:
            self.error(lineno, col0, f"{keyword} takes exactly one port")
            return
        col, port = toks[1]
        if self._port_ref(lineno, col, port):
            self._designate(lineno, col0, keyword, port, Directive(keyword, port))

    def _sweep(self, lineno: int, toks) -> None:
        if len(toks) != 5:
            self.error(lineno, toks[0][0],
                       "sweep takes <f_lo_Hz> <f_hi_Hz> <npoints> <lin|log>")
            return
        f_lo = self._number(lineno, *toks[1], "sweep lower frequency")
        f_hi = self._number(lineno, *toks[2], "sweep upper frequency")
        col_n, txt_n = toks[3]
        try:
            npoints = int(txt_n)
        except ValueError:
            self.error(lineno, col_n, f"malformed number {txt_n!r} for point count")
            return
        if f_lo is None or f_hi is None:
            return
        sweep = self._build(lineno, toks[0][0],
                            lambda: Sweep(f_lo, f_hi, npoints, toks[4][1]))
        if sweep is not None:
            self._designate(lineno, toks[0][0], "sweep", sweep, sweep)

    def _preset(self, lineno: int, toks) -> None:
        if len(toks) != 2:
            self.error(lineno, toks[0][0], "preset takes exactly one name")
            return
        name = self._name(lineno, toks[1])
        if name is not None:
            self._designate(lineno, toks[0][0], "preset", name, Directive("preset", name))

    def _document_checks(self) -> None:
        doc = self.doc

        def position(statement) -> tuple[int, int]:
            return doc.positions[doc.statements.index(statement)]

        if doc.signal is not None and doc.signal == doc.readout:
            self.error(*position(Directive("readout", doc.readout)),
                       "signal and readout must be different ports")
        # Every other circuit statement names a declared port.
        if doc.preset is not None and doc.lines:
            self.error(*position(Directive("preset", doc.preset)),
                       "a preset document cannot also declare circuit statements")


def parse(text: str) -> NetlistDocument:
    """Parse ``.qnet`` text into a document, collecting every issue."""
    return _Parser(text).parse()


def _fmt(x: float) -> str:
    return repr(float(x))


def _name_text(what: str, name: str) -> str:
    if not _NAME_RE.match(name) or name in GROUND_NAMES:
        raise ValueError(f"{what} name {name!r} has no .qnet form")
    return name


def _statement_text(s) -> str:
    if isinstance(s, Comment):
        return s.text
    if isinstance(s, Directive):
        return f"{s.keyword} {s.name}"
    if isinstance(s, Sweep):
        return f"sweep {_fmt(s.f_lo)} {_fmt(s.f_hi)} {s.npoints} {s.scale}"
    if isinstance(s, PortSpec):
        if s.conjugated or s.node is not None:
            raise ValueError(f"port {s.name!r}: .qnet lines are unconjugated and "
                             "attach to a node of their own name")
        return (f"line {_name_text('port', s.name)} impedance={_fmt(s.impedance)} "
                f"temperature={_fmt(s.temperature)}")
    if isinstance(s, OpAmp):
        if s.feedback.kind not in FEEDBACK_KINDS:
            raise ValueError(f"amplifier {s.name!r}: {s.feedback.kind} feedback has "
                             "no .qnet form")
        return (f"opamp {_name_text('amplifier', s.name)} left={s.left} right={s.right} "
                f"noise_impedance={_fmt(s.noise_impedance)} "
                f"noise_temp={_fmt(s.noise_temp)} conj_temp={_fmt(s.conj_temp)} "
                f"feedback={s.feedback.kind}:{_fmt(s.feedback.value)}")
    raise TypeError(f"unknown statement {s!r}")


def serialize(doc: NetlistDocument) -> str:
    """Canonical text of a document: one statement per line, full-precision
    numbers, comments verbatim.  Raises ValueError for a port or amplifier
    the format cannot express."""
    out = ["qnet 1"] if doc.has_header else []
    out += [_statement_text(s) for s in doc.statements]
    return "\n".join(out) + ("\n" if out else "")


def to_network(doc: NetlistDocument) -> QuantumNetwork:
    """The :class:`~qunet.network.QuantumNetwork` of a circuit document's
    lines and amplifiers; a preset document, or one with no line, has none."""
    if doc.preset is not None:
        raise ValueError("preset documents do not describe a circuit directly")
    if not doc.lines:
        raise ValueError("document declares no line: there is no circuit to solve")
    return QuantumNetwork(doc.lines, doc.opamps)
