import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunet import (Feedback, NetlistError, OpAmp, PortSpec, parse, serialize,
                   to_network)
from qunet.netlist import MAX_SWEEP_POINTS, SWEEP_SCALES, Sweep, _tokens
from qunet.spectra import require_finite
from helpers import CHECK_FIXTURE, THREEDB_FIXTURE
from oracles import tokens_regex


def test_fixture_structure():
    doc = parse(THREEDB_FIXTURE)
    assert len(doc.lines) == 2
    assert len(doc.opamps) == 1
    assert doc.signal == "l"
    assert doc.readout == "r"
    assert doc.sweep is not None
    assert doc.sweep.npoints == 200
    assert doc.sweep.scale == "log"
    assert doc.preset is None
    assert doc.has_header


def test_empty_document_is_valid_but_flagged():
    doc = parse("")
    assert doc.statements == []
    assert doc.readout is None and doc.signal is None
    assert serialize(doc) == ""


def test_nonpositive_impedance_error_position():
    with pytest.raises(NetlistError) as err:
        parse("line l impedance=-5 temperature=300")
    issue = err.value.issues[0]
    assert issue.line == 1
    assert issue.column == 18
    assert issue.message == "port 'l': impedance must be finite and > 0, got '-5'"


def test_error_battery_positions():
    cases = [
        "frobnicate x",                           # unknown keyword
        "line l impedance=50 temperature=0\nline l impedance=9 temperature=0",
        "signal ghost",                           # undeclared port
        "line l impedance=abc temperature=0",     # malformed number
        "line l impedance=50 temperature=-3",     # negative temperature
        "line l impedance=50",                    # missing field
        "line l impedance=50 impedance=60 temperature=0",
        "line l impedance=50 temperature=0 bogus=1",
        "line 9fred impedance=50 temperature=0",  # invalid name
        "line l impedance=50 temperature=0\nopamp a left=l right=l "
        "noise_impedance=10 noise_temp=0 conj_temp=0 feedback=C:1e-12",
        # ports must be declared before the amplifier references them
        "opamp a left=l right=r noise_impedance=10 noise_temp=0 conj_temp=0 "
        "feedback=C:1e-12\nline l impedance=50 temperature=0\n"
        "line r impedance=50 temperature=0",
        "line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
        "opamp a left=l right=r noise_impedance=10 noise_temp=0 conj_temp=0 "
        "feedback=Q:1e-12",
        "sweep 10 1000 1 log",                    # too few points
        "sweep 1000 10 5 log",                    # inverted bounds
        "sweep 0 10 5 log",                       # nonpositive frequency
        "sweep 10 1000 5 cubic",                  # bad scale
        "line l impedance=50 temperature=0\nsignal l\nsignal l",
        "line l impedance=50 temperature=0\nsignal l\nreadout l",
        "preset microscope\nline l impedance=50 temperature=0",
        "qnet 2",                                 # bad version
        "line l impedance=50 temperature=0\nqnet 1",  # header not first
        "line l impedance=50 temperature=inf",    # non-finite number
        "line l impedance=50 temperature=0 stray",  # expected key=value
        "line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
        "opamp",                                  # opamp without a name
        "line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
        "line s impedance=50 temperature=0\nline t impedance=50 temperature=0\n"
        "opamp a left=l right=r noise_impedance=10 noise_temp=0 conj_temp=0 "
        "feedback=C:1e-12\nopamp a left=s right=t noise_impedance=10 "
        "noise_temp=0 conj_temp=0 feedback=C:1e-12",   # duplicate opamp name
        "preset microscope extra",                # preset with two names
        "line gnd impedance=50 temperature=0",    # ground name as a port
        "line l impedance=50 temperature=0\n  line  ground impedance=50 "
        "temperature=0\nopamp a left=l right=ground noise_impedance=10 "
        "noise_temp=0 conj_temp=0 feedback=C:1e-12",
    ]
    # two amplifiers sharing a port: the issue sits at the second one's
    # left= or right= value
    ports = "".join(f"line {p} impedance=50 temperature=0\n" for p in "lmsqt")
    amp = "noise_impedance=50 noise_temp=0 conj_temp=0 feedback=C:1e-12"
    shared = [(ports + f"opamp a left=l right=m {amp}\nopamp b left=m right=s {amp}",
               (7, 14)),
              (ports + f"opamp a left=l right=m {amp}\nopamp b left=s right=m {amp}",
               (7, 22)),
              (ports + f"opamp a left=l right=m {amp}\nopamp b left=s right=q {amp}\n"
                       f"opamp c left=q right=t {amp}", (8, 14))]
    for text in cases + [text for text, _ in shared]:
        with pytest.raises(NetlistError) as err:
            parse(text)
        for issue in err.value.issues:
            assert issue.line >= 1
            assert issue.column >= 1
            assert issue.message
    # a grounded port would drop its node and short the line: the issue
    # points at the name
    for text, name, (line, col) in ((cases[-2], "gnd", (1, 6)),
                                    (cases[-1], "ground", (2, 9))):
        with pytest.raises(NetlistError) as err:
            parse(text)
        issue = err.value.issues[0]
        assert (issue.line, issue.column) == (line, col)
        assert name in issue.message and "ground" in issue.message
    for (text, (line, col)), owner in zip(shared, "aab"):
        with pytest.raises(NetlistError) as err:
            parse(text)
        (issue,) = err.value.issues
        assert (issue.line, issue.column) == (line, col)
        assert f"terminal of amplifier {owner!r}" in issue.message
    # a bad number is refused in require_finite's words, at the value: each
    # template holds one {} for the value and names the field's bound
    lr = "line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
    amp = ("opamp a left=l right=r noise_impedance={} noise_temp={} conj_temp={} "
           "feedback=C:{}")
    numbers = [
        ("line l impedance={} temperature=0", "port 'l': impedance", False),
        ("line l impedance=50 temperature={}", "port 'l': temperature", True),
        (lr + amp.format("{}", 0, 0, 1e-12), "amplifier 'a': noise impedance", False),
        (lr + amp.format(10, "{}", 0, 1e-12), "amplifier 'a': noise_temp", True),
        (lr + amp.format(10, 0, "{}", 1e-12), "amplifier 'a': conj_temp", True),
        (lr + amp.format(10, 0, 0, "{}"), "feedback element C value", False),
        ("sweep {} 1000 5 log", "sweep lower frequency", False),
        ("sweep 10 {} 5 log", "sweep upper frequency", False),
    ]
    for template, what, closed in numbers:
        head = template[:template.index("{}")]
        at = (head.count("\n") + 1, len(head) - head.rfind("\n"))
        for bad in ("abc", "nan", "-inf", "-5") + (() if closed else ("0",)):
            with pytest.raises(ValueError) as want:
                require_finite(bad, what, closed=closed)
            with pytest.raises(NetlistError) as err:
                parse(template.format(bad))
            (issue,) = err.value.issues
            assert ((issue.line, issue.column), issue.message) == (at, str(want.value))


def test_sweep_point_count_is_capped():
    # checked on the parsed document: no grid is built
    assert MAX_SWEEP_POINTS == 1_000_000
    assert parse("sweep 1 2 1000000 log\n").sweep.npoints == MAX_SWEEP_POINTS
    with pytest.raises(NetlistError) as err:
        parse("qnet 1\nsweep 1 2 1000000000 log\n")
    (issue,) = err.value.issues
    assert (issue.line, issue.column) == (2, 1)
    assert "1000000" in issue.message and "1000000000" in issue.message


def test_sweep_grid_constructors():
    lin = Sweep(10.0, 100.0, 10, "lin").to_grid()
    assert lin.shape == (10,) and lin.dtype == np.float64
    assert not lin.flags.writeable
    assert lin[0] / (2.0 * math.pi) == pytest.approx(10.0, rel=1e-15)
    assert lin[-1] / (2.0 * math.pi) == pytest.approx(100.0, rel=1e-15)
    log = Sweep(1e2, 1e6, 5, "log").to_grid()
    assert np.all(np.abs(log[1:] / log[:-1] - 10.0) <= 1e-12 * 10.0)
    assert log[-1] == 2.0 * math.pi * 1e6


def spaced_hz_oracle(f_lo, f_hi, n, log):
    """Point-by-point grid in Python floats, the CSV's frequency column."""
    if log:
        ratio = (f_hi / f_lo) ** (1.0 / (n - 1))
        hz = [f_lo * ratio ** i for i in range(n)]
    else:
        step = (f_hi - f_lo) / (n - 1)
        hz = [f_lo + step * i for i in range(n)]
    hz[-1] = f_hi
    return [2.0 * math.pi * f for f in hz]


@settings(max_examples=300, deadline=None)
@given(st.floats(-3.0, 9.0), st.floats(1e-6, 6.0), st.integers(2, 3000),
       st.sampled_from(("lin", "log")))
def test_sweep_grid_is_bit_identical_to_point_by_point(lo, decades, n, scale):
    # numpy's power differs from Python's pow by a few ulp, which would move
    # every digit of a sweep CSV
    f_lo, f_hi = 10.0 ** lo, 10.0 ** (lo + decades)
    grid = Sweep(f_lo, f_hi, n, scale).to_grid()
    assert grid.tolist() == spaced_hz_oracle(f_lo, f_hi, n, scale == "log")


def test_sweep_validation():
    # directly built sweeps get the parser's range checks, as ValueError
    for bad in ((-1.0, 10.0, 4, "lin"), (0.0, 10.0, 4, "log"), (10.0, 5.0, 4, "lin"),
                (1000.0, 10.0, 5, "log"), (1.0, 1.0, 4, "log"), (1.0, 2.0, 4, "weird"),
                (1.0, 2.0, 4, "linear"), (1.0, 2.0, 1, "lin"), (1.0, 2.0, 0, "log"),
                (1.0, 2.0, MAX_SWEEP_POINTS + 1, "lin"), (math.nan, 2.0, 4, "lin"),
                (1.0, math.inf, 4, "log"), (1.0, math.nan, 4, "log")):
        with pytest.raises(ValueError):
            Sweep(*bad)
    # a count that is not an integer is refused, not rounded
    for count in (5.5, 5.0, "5", None):
        for scale in SWEEP_SCALES:
            with pytest.raises(ValueError, match="integer"):
                Sweep(1.0, 2.0, count, scale)
    sweep = Sweep(1.0, 2.0, np.int64(5), "log")
    assert type(sweep.npoints) is int
    assert sweep == Sweep(1.0, 2.0, 5, "log")
    assert len(sweep.to_grid()) == 5


def test_sweep_beyond_double_range_is_refused():
    # 2*pi*f_hi, or a log sweep's ratio f_hi/f_lo, overflows: the statement
    # is refused at its column, not left to give an inf grid point
    for text, message in (
            ("sweep 1 1e308 2 lin", "sweep upper frequency 1e+308 Hz overflows as 2*pi*f"),
            ("sweep 1e-300 1e300 3 log", "log sweep ratio 1e+300/1e-300 overflows")):
        with pytest.raises(NetlistError) as err:
            parse(f"qnet 1\n{text}\n")
        assert [(i.line, i.column, i.message) for i in err.value.issues] == [(2, 1, message)]
    # a lin sweep has no ratio
    assert np.isfinite(Sweep(1e-300, 1e300, 3, "lin").to_grid()).all()
    # rounding puts point 19,998 of this log grid above f_hi, where 2*pi
    # times it overflows; no point passes f_hi
    f_hi = 2.861117485757028e+307
    grid = Sweep(2.8611174743125577e+307, f_hi, 20000, "log").to_grid()
    assert grid.max() == grid[-1] == 2.0 * math.pi * f_hi < math.inf


# Frequencies near the largest f whose 2*pi*f is finite.
TOP = sys.float_info.max / (2.0 * math.pi)
positive = st.floats(min_value=0.0, exclude_min=True)


@st.composite
def sweep_arguments(draw):
    f_hi = draw(st.one_of(positive, st.floats(0.0, 1e-9).map(lambda d: TOP * (1.0 - d))))
    f_lo = draw(st.one_of(positive, st.floats(1e-16, 1e-6).map(lambda r: f_hi / (1.0 + r))))
    return f_lo, f_hi, draw(st.integers(2, 3000)), draw(st.sampled_from(SWEEP_SCALES))


@settings(max_examples=300, deadline=None)
@given(sweep_arguments())
def test_every_accepted_sweep_has_a_finite_positive_grid(args):
    try:
        sweep = Sweep(*args)
    except ValueError:
        return
    grid = sweep.to_grid()
    assert grid.shape == (args[2],)
    assert np.all(grid > 0.0) and np.all(grid < math.inf)
    assert grid[-1] == 2.0 * math.pi * args[1] == grid.max()


def test_resistive_feedback_strict_by_default():
    text = ("line l impedance=50 temperature=0\n"
            "line r impedance=50 temperature=0\n"
            "opamp a left=l right=r noise_impedance=10 noise_temp=0 "
            "conj_temp=0 feedback=R:100\nsignal l\nreadout r\n")
    with pytest.raises(NetlistError, match="dissipative") as err:
        parse(text)
    (issue,) = err.value.issues
    # at the feedback= field's value, the element kind
    assert (issue.line, issue.column) == (3, text.splitlines()[2].index("R:100") + 1)


def test_round_trip_fixture_and_comments():
    doc = parse(THREEDB_FIXTURE)
    text = serialize(doc)
    assert "# matched amplification stage, large gain" in text
    again = parse(text)
    assert again == doc
    assert serialize(again) == text


def test_number_canonicalization():
    doc = parse("line l impedance=0.15e6 temperature=3e2")
    assert doc.lines[0].impedance == 150000.0
    text = serialize(doc)
    assert "impedance=150000.0" in text
    assert parse(text).lines[0].impedance == 150000.0


def test_trailing_comments_accepted():
    doc = parse("line l impedance=50 temperature=0  # the input line\n")
    assert len(doc.lines) == 1
    assert parse(serialize(doc)) == doc


# Token-level documents for the parser totality property.  Half of them are
# valid, so their statements reach the component constructors; in the other
# half any token may be a ground name, a bad name, a number from subnormal to
# beyond 1e308, a missing or repeated field or a duplicate designation.
POSITIVE_TEXT = ["50", "1e-12", "0.15e6", "3E2", "5e-324", "1e308", "2.2250738585072014e-308"]
INVALID_TEXT = ["0", "-1", "1e309", "nan", "inf", "abc", ""]
NAME_TEXT = ["l", "r", "s", "gnd", "ground", "0", "9x", "ghost"]
STRAY_ROWS = ["frobnicate x", "sweep 10 1000 5 log", "preset microscope", "qnet 1",
              "line", "signal l r"]


def seeded_document(rng) -> str:
    """A token-level document drawn from a numpy generator, so that a seed
    fixes the document on every run."""
    valid = bool(rng.random() < 0.5)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def number(zero=False):
        if rng.random() < 0.5:              # from subnormal to 1e308
            return repr(float(10.0 ** rng.uniform(-323.0, 308.0)))
        return pick(POSITIVE_TEXT + ([] if valid else INVALID_TEXT) + (["0"] if zero else []))

    rows = ["qnet 1"] if rng.random() < 0.5 else []
    ports = ([str(p) for p in rng.permutation(["l", "r", "s"])[:int(rng.integers(4))]] if valid
             else [pick(NAME_TEXT) for _ in range(int(rng.integers(5)))])
    for name in ports:
        rows.append(f"line {name} impedance={number()} temperature={number(zero=True)}")
    if valid and len(ports) < 2:
        n_amps, n_designations = 0, 0
    else:
        n_amps, n_designations = int(rng.integers(3)), int(rng.integers(5))
    for k in range(n_amps):
        left, right = ([str(p) for p in rng.permutation(ports)[:2]] if valid
                       else (pick(NAME_TEXT), pick(NAME_TEXT)))
        fields = [f"left={left}", f"right={right}", f"noise_impedance={number()}",
                  f"noise_temp={number()}", f"conj_temp={number()}",
                  f"feedback={pick('CL' if valid else 'CLRX')}:{number()}"]
        if not valid and rng.random() < 0.5:        # a field missing or repeated
            fields[int(rng.integers(6))] = pick(fields + ["bogus=1"])
        rng.shuffle(fields)
        rows.append(" ".join([f"opamp {'a' if valid else pick(NAME_TEXT)}{k}", *fields]))
    if valid and n_designations:
        signal, readout = (str(p) for p in rng.permutation(ports)[:2])
        rows += [f"signal {signal}", f"readout {readout}"]
    elif not valid:
        for _ in range(n_designations):
            rows.append(f"{pick(['signal', 'readout', 'preset'])} {pick(NAME_TEXT)}")
    if rng.random() < 0.5:
        lo = number()
        hi = repr(2.0 * float(lo)) if valid else number()
        rows.append(f"sweep {lo} {hi} {pick(['2', '200'] if valid else ['2', '1', 'x'])} "
                    f"{pick(['log', 'lin'] if valid else ['log', 'cubic'])}")
    for _ in range(int(rng.integers(3))):       # comments, and stray rows if invalid
        rows.insert(int(rng.integers(len(rows) + 1)),
                    pick(["# a note", "  # indented note"] if valid else STRAY_ROWS))
    return "\n".join(rows)


# Hypothesis draws the seeds; issue_digest pins one of them.
documents = st.integers(0, 2**32 - 1).map(
    lambda seed: seeded_document(np.random.default_rng(seed)))


@settings(max_examples=400, deadline=None)
@given(documents)
def test_parse_totality_fuzz(text):
    try:
        doc = parse(text)
    except NetlistError as exc:
        assert exc.issues
        return
    again = parse(serialize(doc))
    assert again == doc
    assert serialize(again) == serialize(doc)


def issue_digest(seed: int = 19, count: int = 2000) -> tuple[int, str]:
    """How many of ``count`` seeded documents are refused, and the sha256 of
    every document's issue list (line, column, message)."""
    rng = np.random.default_rng(seed)
    digest, refused = hashlib.sha256(), 0
    for _ in range(count):
        try:
            parse(seeded_document(rng))
            issues = []
        except NetlistError as exc:
            issues = [(i.line, i.column, i.message) for i in exc.issues]
            refused += 1
        digest.update(json.dumps(issues).encode() + b"\n")
    return refused, digest.hexdigest()


PINNED_ISSUES = (1329, "3352fbb31c5b19b15fe3516c6ea50ace43f9ee30b22a9ebd96e47a254d3f0bae")


def test_issue_lists_are_pinned():
    # Every (line, column, message) the parser reports on 2,000 seeded
    # documents, valid and invalid: a change that moves a position or a
    # word must say so and re-pin with the output of issue_digest().
    assert issue_digest() == PINNED_ISSUES


def _fmt_number(rng, value: float) -> str:
    style = int(rng.integers(0, 3))
    if style == 0:
        return repr(value)
    if style == 1:
        return f"{value:.6e}"
    return f"{value:.12g}"


def _spaced(rng, tokens) -> str:
    sep = lambda: " " * int(rng.integers(1, 4))
    lead = " " * int(rng.integers(0, 3))
    return lead + sep().join(tokens)


def random_document_text(rng) -> str:
    rows = []
    if rng.random() < 0.5:
        rows.append("qnet 1")
    if rng.random() < 0.5:
        rows.append("# " + "".join(rng.choice(list("abc xyz_123"))
                                   for _ in range(int(rng.integers(0, 20)))))
    if rng.random() < 0.2:
        rows.append(_spaced(rng, ["preset", rng.choice(["microscope", "custom"])]))
        if rng.random() < 0.3:
            rows.append("sweep 1e3 1e5 10 log")
        return "\n".join(rows) + "\n"
    names = [f"p{i}" for i in range(int(rng.integers(1, 5)))]
    for name in names:
        rows.append(_spaced(rng, [
            "line", name,
            f"impedance={_fmt_number(rng, 10 ** rng.uniform(0, 6))}",
            f"temperature={_fmt_number(rng, rng.uniform(0, 400))}"]))
    # amplifiers never share a port: the network cannot build that
    used_ports = set()
    for k in range(int(rng.integers(0, 3))):
        if len(names) < 2:
            break
        left, right = rng.choice(names, size=2, replace=False)
        if left in used_ports or right in used_ports:
            continue
        used_ports.update((left, right))
        kind = rng.choice(["C", "L"])
        value = 10 ** rng.uniform(-12, -3)
        rows.append(_spaced(rng, [
            "opamp", f"amp{k}", f"left={left}", f"right={right}",
            f"noise_impedance={_fmt_number(rng, 10 ** rng.uniform(0, 5))}",
            f"noise_temp={_fmt_number(rng, rng.uniform(0, 300))}",
            f"conj_temp={_fmt_number(rng, rng.uniform(0, 300))}",
            f"feedback={kind}:{_fmt_number(rng, value)}"]))
    if len(names) >= 2 and rng.random() < 0.8:
        rows.append(_spaced(rng, ["signal", names[0]]))
        rows.append(_spaced(rng, ["readout", names[1]]))
    if rng.random() < 0.5:
        lo = 10 ** rng.uniform(0, 4)
        rows.append(_spaced(rng, [
            "sweep", _fmt_number(rng, lo), _fmt_number(rng, lo * 100.0),
            str(int(rng.integers(2, 300))), rng.choice(["lin", "log"])]))
    if rng.random() < 0.3:
        rows.append("# trailing note")
    return "\n".join(rows) + "\n"


def test_round_trip_property_500_documents():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        text = random_document_text(rng)
        first = parse(text)
        second = parse(serialize(first))
        assert second == first
        assert serialize(second) == serialize(first)
        checked += 1


def test_to_network_round_trip_behaves():
    doc = parse(CHECK_FIXTURE)
    # the document holds the network's own objects
    assert doc.lines == [PortSpec("l", 50.0, 0.0), PortSpec("r", 50.0, 0.0)]
    assert doc.opamps == [OpAmp("amp", "l", "r", 50.0,
                                Feedback.capacitive(6.366197723675814e-10))]
    net = to_network(doc)
    assert net.ports == tuple(doc.lines) and net.opamps == doc.opamps
    with pytest.raises(ValueError):
        to_network(parse("preset microscope\n"))
    with pytest.raises(ValueError, match="declares no line"):
        to_network(parse("qnet 1\n"))


def test_statement_equality_ignores_positions():
    a = parse("line l impedance=50 temperature=0")
    b = parse("\n\n   line   l   impedance=50.0   temperature=0.0")
    assert a == b
    assert (a.positions, b.positions) == ([(1, 1)], [(3, 4)])


# CHECK_FIXTURE statements: comment, line l, line r, opamp, signal, readout, sweep.
@pytest.mark.parametrize("index, bad", [
    (1, PortSpec("l", 50.0, node="n1")),
    (1, PortSpec("l", 50.0, conjugated=True)),
    (1, PortSpec("gnd", 50.0)),
    (1, PortSpec("two words", 50.0)),
    (3, OpAmp("amp", "l", "r", 50.0, Feedback.reactance(10.0))),
])
def test_serialize_rejects_what_the_format_cannot_express(index, bad):
    doc = parse(CHECK_FIXTURE)
    assert type(doc.statements[index]) is type(bad)
    doc.statements[index] = bad
    with pytest.raises(ValueError):
        serialize(doc)


@pytest.mark.parametrize("constructor, text", [
    ("PortSpec", "qnet 1\n  line l impedance=50 temperature=0\n"),
    ("OpAmp", "line l impedance=50 temperature=0\n  line r impedance=50 temperature=0\n"
              "  opamp a left=l right=r noise_impedance=50 noise_temp=0 conj_temp=0 "
              "feedback=C:1e-9\n"),
])
def test_constructor_refusal_becomes_positioned_issue(constructor, text, monkeypatch):
    import qunet.netlist

    def refuse(*args, **kwargs):
        raise ValueError("refused by the constructor")

    monkeypatch.setattr(qunet.netlist, constructor, refuse)
    with pytest.raises(NetlistError) as err:
        parse(text)
    (issue,) = err.value.issues
    assert (issue.line, issue.column) == (text.count("\n"), 3)
    assert issue.message == "refused by the constructor"


# Unicode whitespace that str.split and the regex both split on, next to
# zero-width characters (U+200B, U+FEFF) that neither does.
LINE_CHARS = st.one_of(
    st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
                    "\u200b\ufeff#=:.-x\xe9\U0001d11e"),
    st.characters())


@settings(max_examples=1000, deadline=None)
@given(st.text(LINE_CHARS, max_size=40))
def test_tokens_match_the_regex_tokenizer(line):
    assert _tokens(line) == tokens_regex(line)
