import numpy as np
import pytest

from qunet import NetlistError, parse, serialize, to_network
from qunet.netlist import MAX_SWEEP_POINTS
from helpers import CHECK_FIXTURE, THREEDB_FIXTURE


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
    assert doc.warnings == []


def test_empty_document_is_valid_but_flagged():
    doc = parse("")
    assert doc.statements == []
    assert "no readout" in doc.warnings
    assert serialize(doc) == ""


def test_nonpositive_impedance_error_position():
    with pytest.raises(NetlistError) as err:
        parse("line l impedance=-5 temperature=300")
    issue = err.value.issues[0]
    assert issue.line == 1
    assert issue.column == 18
    assert "nonpositive impedance" in issue.message


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
    ]
    for text in cases:
        with pytest.raises(NetlistError) as err:
            parse(text)
        for issue in err.value.issues:
            assert issue.line >= 1
            assert issue.column >= 1
            assert issue.message


def test_sweep_point_count_is_capped():
    # checked on the parsed document: no grid is built
    assert MAX_SWEEP_POINTS == 1_000_000
    assert parse("sweep 1 2 1000000 log\n").sweep.npoints == MAX_SWEEP_POINTS
    with pytest.raises(NetlistError) as err:
        parse("qnet 1\nsweep 1 2 1000000000 log\n")
    (issue,) = err.value.issues
    assert (issue.line, issue.column) == (2, 11)
    assert "1000000" in issue.message and "1000000000" in issue.message


def test_resistive_feedback_strict_by_default():
    text = ("line l impedance=50 temperature=0\n"
            "line r impedance=50 temperature=0\n"
            "opamp a left=l right=r noise_impedance=10 noise_temp=0 "
            "conj_temp=0 feedback=R:100\nsignal l\nreadout r\n")
    with pytest.raises(NetlistError, match="dissipative"):
        parse(text)
    doc = parse(text, allow_resistive_feedback=True)
    assert doc.opamps[0].feedback_kind == "R"


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


def test_parse_totality_fuzz():
    rng = np.random.default_rng(99)
    alphabet = list("abcdefghij =:#.-+e0123456789\t")
    keywords = ["line", "opamp", "signal", "readout", "sweep", "preset",
                "qnet", "nonsense"]
    for _ in range(200):
        n_lines = int(rng.integers(0, 6))
        rows = []
        for _ in range(n_lines):
            row = rng.choice(keywords) + " " + "".join(
                rng.choice(alphabet) for _ in range(int(rng.integers(0, 30))))
            rows.append(row)
        text = "\n".join(rows)
        try:
            parse(text)
        except NetlistError:
            pass


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
    used_pairs = set()
    for k in range(int(rng.integers(0, 3))):
        if len(names) < 2:
            break
        left, right = rng.choice(names, size=2, replace=False)
        if (left, right) in used_pairs:
            continue
        used_pairs.add((left, right))
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
    net = to_network(doc)
    assert [p.name for p in net.ports] == ["l", "r"]
    assert net.opamps[0].name == "amp"
    with pytest.raises(ValueError):
        to_network(parse("preset microscope\n"))


def test_statement_equality_ignores_positions():
    a = parse("line l impedance=50 temperature=0")
    b = parse("\n\n   line   l   impedance=50.0   temperature=0.0")
    assert a == b
