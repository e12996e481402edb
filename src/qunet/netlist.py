"""Text format for network descriptions, presets and sweep requests.

The ``.qnet`` format is line oriented.  Grammar (one statement per line,
whitespace separated; ``#`` starts a comment, full-line comments are kept
on round-trip):

    qnet 1
    line <name> impedance=<Ohm> temperature=<K>
    opamp <name> left=<port> right=<port> noise_impedance=<Ohm>
          noise_temp=<K> conj_temp=<K> feedback=<R|C|L>:<value>
    signal <port>
    readout <port>
    sweep <f_lo_Hz> <f_hi_Hz> <npoints> <lin|log>     (2 to 1,000,000 points)
    preset <name>

Frequencies in files are plain Hz; the library converts to angular
frequencies internally.  Scientific notation is accepted anywhere a number
is.  The version header is optional and assumed ``qnet 1`` when absent.
A document holds either a circuit (ports, amplifiers, exactly one signal
and one readout) or a single preset reference.  Port names must be declared
before they are referenced.  Dissipative (R) feedback is rejected by
default since the amplifier model requires a reactive feedback; pass
``allow_resistive_feedback=True`` to parse it anyway.

Parsing is total: invalid input raises :class:`NetlistError` carrying a
structured list of issues, each with a 1-based line and column pointing at
the offending token.  ``parse(serialize(doc))`` is structurally identical
to ``doc``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")

FEEDBACK_KINDS = ("R", "C", "L")
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
class SourcePos:
    line: int
    column: int


_NOPOS = SourcePos(0, 0)


@dataclass(frozen=True)
class Header:
    version: int
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Comment:
    text: str
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class LineDecl:
    name: str
    impedance: float
    temperature: float
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class OpAmpDecl:
    name: str
    left: str
    right: str
    noise_impedance: float
    noise_temp: float
    conj_temp: float
    feedback_kind: str
    feedback_value: float
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class SignalDecl:
    port: str
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class ReadoutDecl:
    port: str
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class SweepDecl:
    f_lo: float
    f_hi: float
    npoints: int
    scale: str
    pos: SourcePos = field(default=_NOPOS, compare=False)

    def to_grid(self):
        from .spectra import FrequencyGrid

        if self.scale == "log":
            return FrequencyGrid.log_hz(self.f_lo, self.f_hi, self.npoints)
        return FrequencyGrid.linear_hz(self.f_lo, self.f_hi, self.npoints)


@dataclass(frozen=True)
class PresetDecl:
    name: str
    pos: SourcePos = field(default=_NOPOS, compare=False)


@dataclass
class NetlistDocument:
    """Parsed statements in source order, plus non-fatal warnings."""

    statements: list
    warnings: list = field(default_factory=list, compare=False)

    @property
    def lines(self) -> list[LineDecl]:
        return [s for s in self.statements if isinstance(s, LineDecl)]

    @property
    def opamps(self) -> list[OpAmpDecl]:
        return [s for s in self.statements if isinstance(s, OpAmpDecl)]

    @property
    def signal(self) -> str | None:
        return next((s.port for s in self.statements if isinstance(s, SignalDecl)), None)

    @property
    def readout(self) -> str | None:
        return next((s.port for s in self.statements if isinstance(s, ReadoutDecl)), None)

    @property
    def sweep(self) -> SweepDecl | None:
        return next((s for s in self.statements if isinstance(s, SweepDecl)), None)

    @property
    def preset(self) -> str | None:
        return next((s.name for s in self.statements if isinstance(s, PresetDecl)), None)

    @property
    def has_header(self) -> bool:
        return any(isinstance(s, Header) for s in self.statements)


def _tokens(line: str):
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(line)]


class _Parser:
    def __init__(self, text: str, allow_resistive_feedback: bool):
        self.text = text
        self.allow_resistive = allow_resistive_feedback
        self.issues: list[Issue] = []
        self.statements: list = []
        self.ports: dict[str, int] = {}
        self.opamp_names: set[str] = set()

    def error(self, line: int, column: int, message: str) -> None:
        self.issues.append(Issue(line, column, message))

    def parse(self) -> NetlistDocument:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                self.statements.append(Comment(raw.rstrip(), SourcePos(lineno, raw.index("#") + 1)))
                continue
            toks = _tokens(raw)
            # Trailing comments are accepted and dropped.
            for i, (_, tok) in enumerate(toks):
                if tok.startswith("#"):
                    toks = toks[:i]
                    break
            if not toks:
                continue
            self._statement(lineno, toks)
        doc = NetlistDocument(self.statements)
        self._document_checks(doc)
        if self.issues:
            raise NetlistError(self.issues)
        self._document_warnings(doc)
        return doc

    def _statement(self, lineno: int, toks) -> None:
        col0, keyword = toks[0]
        handler = {
            "qnet": self._header, "line": self._line, "opamp": self._opamp,
            "signal": self._signal, "readout": self._readout,
            "sweep": self._sweep, "preset": self._preset,
        }.get(keyword)
        if handler is None:
            self.error(lineno, col0, f"unknown keyword {keyword!r}")
            return
        handler(lineno, toks)

    def _header(self, lineno: int, toks) -> None:
        if len(toks) != 2 or toks[1][1] != "1":
            col = toks[1][0] if len(toks) > 1 else toks[0][0]
            self.error(lineno, col, "unsupported format version (expected 'qnet 1')")
            return
        if self.statements:
            self.error(lineno, toks[0][0], "version header must come first")
            return
        self.statements.append(Header(1, SourcePos(lineno, toks[0][0])))

    def _name(self, lineno: int, tok) -> str | None:
        col, text = tok
        if not _NAME_RE.match(text):
            self.error(lineno, col, f"invalid name {text!r}")
            return None
        return text

    def _number(self, lineno: int, col: int, text: str, what: str,
                positive: bool = False, nonnegative: bool = False) -> float | None:
        try:
            value = float(text)
        except ValueError:
            self.error(lineno, col, f"malformed number {text!r} for {what}")
            return None
        if not math.isfinite(value):
            self.error(lineno, col, f"{what} must be finite, got {text!r}")
            return None
        if positive and value <= 0.0:
            self.error(lineno, col, f"nonpositive {what} {text!r}")
            return None
        if nonnegative and value < 0.0:
            self.error(lineno, col, f"negative {what} {text!r}")
            return None
        return value

    def _keyvals(self, lineno: int, toks, expected: tuple[str, ...]):
        """Parse key=value tokens; returns {key: (value_col, value_text)}."""
        out: dict[str, tuple[int, str]] = {}
        ok = True
        for col, tok in toks:
            if "=" not in tok:
                self.error(lineno, col, f"expected key=value, got {tok!r}")
                ok = False
                continue
            key, _, value = tok.partition("=")
            if key not in expected:
                self.error(lineno, col, f"unknown field {key!r}")
                ok = False
                continue
            if key in out:
                self.error(lineno, col, f"duplicate field {key!r}")
                ok = False
                continue
            out[key] = (col + len(key) + 1, value)
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
        fields = self._keyvals(lineno, toks[2:], ("impedance", "temperature"))
        if name is None or fields is None:
            return
        if name in self.ports:
            self.error(lineno, toks[1][0], f"duplicate port name {name!r}")
            return
        col_r, txt_r = fields["impedance"]
        col_t, txt_t = fields["temperature"]
        impedance = self._number(lineno, col_r, txt_r, "impedance", positive=True)
        temperature = self._number(lineno, col_t, txt_t, "temperature", nonnegative=True)
        if impedance is None or temperature is None:
            return
        self.ports[name] = lineno
        self.statements.append(LineDecl(name, impedance, temperature,
                                        SourcePos(lineno, toks[0][0])))

    def _port_ref(self, lineno: int, col: int, name: str) -> bool:
        if name not in self.ports:
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
        col_ri, txt_ri = fields["noise_impedance"]
        col_tn, txt_tn = fields["noise_temp"]
        col_tc, txt_tc = fields["conj_temp"]
        r_a = self._number(lineno, col_ri, txt_ri, "impedance", positive=True)
        t_n = self._number(lineno, col_tn, txt_tn, "temperature", nonnegative=True)
        t_c = self._number(lineno, col_tc, txt_tc, "temperature", nonnegative=True)
        col_f, txt_f = fields["feedback"]
        kind, _, value_txt = txt_f.partition(":")
        if kind not in FEEDBACK_KINDS or not value_txt:
            self.error(lineno, col_f,
                       f"feedback must be <R|C|L>:<value>, got {txt_f!r}")
            return
        value = self._number(lineno, col_f + 2, value_txt, "feedback value",
                             positive=True)
        if kind == "R" and not self.allow_resistive:
            self.error(lineno, col_f,
                       "dissipative feedback (R) rejected: the amplifier model "
                       "requires a reactive feedback")
            return
        if not ok or None in (r_a, t_n, t_c, value):
            return
        self.opamp_names.add(name)
        self.statements.append(OpAmpDecl(name, left, right, r_a, t_n, t_c,
                                         kind, value, SourcePos(lineno, toks[0][0])))

    def _single_port_stmt(self, lineno: int, toks, cls) -> None:
        if len(toks) != 2:
            self.error(lineno, toks[0][0], f"{toks[0][1]} takes exactly one port")
            return
        col, port = toks[1]
        if not self._port_ref(lineno, col, port):
            return
        self.statements.append(cls(port, SourcePos(lineno, toks[0][0])))

    def _signal(self, lineno: int, toks) -> None:
        self._single_port_stmt(lineno, toks, SignalDecl)

    def _readout(self, lineno: int, toks) -> None:
        self._single_port_stmt(lineno, toks, ReadoutDecl)

    def _sweep(self, lineno: int, toks) -> None:
        if len(toks) != 5:
            self.error(lineno, toks[0][0],
                       "sweep takes <f_lo_Hz> <f_hi_Hz> <npoints> <lin|log>")
            return
        f_lo = self._number(lineno, toks[1][0], toks[1][1], "frequency", positive=True)
        f_hi = self._number(lineno, toks[2][0], toks[2][1], "frequency", positive=True)
        col_n, txt_n = toks[3]
        try:
            npoints = int(txt_n)
        except ValueError:
            self.error(lineno, col_n, f"malformed number {txt_n!r} for point count")
            return
        if not 2 <= npoints <= MAX_SWEEP_POINTS:
            self.error(lineno, col_n, f"sweep needs 2 to {MAX_SWEEP_POINTS} points, "
                                      f"got {npoints}")
            return
        col_s, scale = toks[4]
        if scale not in SWEEP_SCALES:
            self.error(lineno, col_s, f"sweep scale must be lin or log, got {scale!r}")
            return
        if f_lo is None or f_hi is None:
            return
        if not f_hi > f_lo:
            self.error(lineno, toks[2][0], "sweep upper frequency must exceed the lower")
            return
        self.statements.append(SweepDecl(f_lo, f_hi, npoints, scale,
                                         SourcePos(lineno, toks[0][0])))

    def _preset(self, lineno: int, toks) -> None:
        if len(toks) != 2:
            self.error(lineno, toks[0][0], "preset takes exactly one name")
            return
        name = self._name(lineno, toks[1])
        if name is None:
            return
        self.statements.append(PresetDecl(name, SourcePos(lineno, toks[0][0])))

    def _document_checks(self, doc: NetlistDocument) -> None:
        def positions(cls):
            return [s.pos for s in doc.statements if isinstance(s, cls)]

        for cls, label in ((SignalDecl, "signal"), (ReadoutDecl, "readout"),
                           (SweepDecl, "sweep"), (PresetDecl, "preset")):
            pos = positions(cls)
            if len(pos) > 1:
                p = pos[1]
                self.error(p.line, p.column, f"duplicate {label} designation")
        if doc.signal is not None and doc.signal == doc.readout:
            p = positions(ReadoutDecl)[0]
            self.error(p.line, p.column, "signal and readout must be different ports")
        if doc.preset is not None:
            others = [s for s in doc.statements
                      if not isinstance(s, (PresetDecl, Comment, Header, SweepDecl))]
            if others:
                p = positions(PresetDecl)[0]
                self.error(p.line, p.column,
                           "a preset document cannot also declare circuit statements")

    def _document_warnings(self, doc: NetlistDocument) -> None:
        if doc.preset is not None:
            return
        if doc.readout is None:
            doc.warnings.append("no readout")
        if doc.signal is None:
            doc.warnings.append("no signal")


def parse(text: str, allow_resistive_feedback: bool = False) -> NetlistDocument:
    """Parse ``.qnet`` text into a document, collecting every issue."""
    return _Parser(text, allow_resistive_feedback).parse()


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize(doc: NetlistDocument) -> str:
    """Canonical text of a document: one statement per line, full-precision
    numbers, comments verbatim."""
    out: list[str] = []
    for s in doc.statements:
        if isinstance(s, Header):
            out.append("qnet 1")
        elif isinstance(s, Comment):
            out.append(s.text)
        elif isinstance(s, LineDecl):
            out.append(f"line {s.name} impedance={_fmt(s.impedance)} "
                       f"temperature={_fmt(s.temperature)}")
        elif isinstance(s, OpAmpDecl):
            out.append(f"opamp {s.name} left={s.left} right={s.right} "
                       f"noise_impedance={_fmt(s.noise_impedance)} "
                       f"noise_temp={_fmt(s.noise_temp)} "
                       f"conj_temp={_fmt(s.conj_temp)} "
                       f"feedback={s.feedback_kind}:{_fmt(s.feedback_value)}")
        elif isinstance(s, SignalDecl):
            out.append(f"signal {s.port}")
        elif isinstance(s, ReadoutDecl):
            out.append(f"readout {s.port}")
        elif isinstance(s, SweepDecl):
            out.append(f"sweep {_fmt(s.f_lo)} {_fmt(s.f_hi)} {s.npoints} {s.scale}")
        elif isinstance(s, PresetDecl):
            out.append(f"preset {s.name}")
        else:
            raise TypeError(f"unknown statement {s!r}")
    return "\n".join(out) + ("\n" if out else "")


def to_network(doc: NetlistDocument, allow_dissipative_feedback: bool = False):
    """Build a :class:`~qunet.network.QuantumNetwork` from a circuit document."""
    from .network import Feedback, OpAmp, PortSpec, QuantumNetwork

    if doc.preset is not None:
        raise ValueError("preset documents do not describe a circuit directly")
    ports = [PortSpec(l.name, l.impedance, l.temperature) for l in doc.lines]
    components = []
    for a in doc.opamps:
        feedback = Feedback(a.feedback_kind, a.feedback_value)
        components.append(OpAmp(name=a.name, left=a.left, right=a.right,
                                noise_impedance=a.noise_impedance,
                                feedback=feedback, noise_temp=a.noise_temp,
                                conj_temp=a.conj_temp))
    return QuantumNetwork(ports, components,
                          allow_dissipative_feedback=allow_dissipative_feedback)
