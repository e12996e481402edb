import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qunet.cli
from qunet.cli import main

from helpers import CHECK_FIXTURE, PRESET_DOC, THREEDB_FIXTURE, random_document

PINNED_STDOUT = os.path.join(os.path.dirname(__file__), "cli_stdout.json")
PINNED_CORPUS = os.path.join(os.path.dirname(__file__), "cli_corpus.json")


@pytest.fixture
def check_path(tmp_path):
    p = tmp_path / "check.qnet"
    p.write_text(CHECK_FIXTURE)
    return str(p)


@pytest.fixture
def threedb_path(tmp_path):
    p = tmp_path / "threedb.qnet"
    p.write_text(THREEDB_FIXTURE)
    return str(p)


@pytest.fixture
def preset_path(tmp_path):
    p = tmp_path / "preset.qnet"
    p.write_text(PRESET_DOC)
    return str(p)


def test_check_fixture_passes(check_path, capsys):
    assert main(["check", check_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "residual" in out


def test_check_injected_gain_fails(check_path, capsys):
    assert main(["check", check_path, "--inject-gain", "1.41"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/nowhere.qnet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.qnet"
    p.write_text("line l impedance=-5 temperature=300\n")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "col 18" in err


def test_check_tol_flag_and_env(check_path, capsys, monkeypatch):
    assert main(["check", check_path, "--tol", "1e-16"]) == 1
    monkeypatch.setenv("QUNET_TOL", "1e-16")
    assert main(["check", check_path]) == 1
    # explicit flag wins over the environment
    assert main(["check", check_path, "--tol", "1e-6"]) == 0
    capsys.readouterr()
    # a tolerance that is not a finite number > 0 is a usage error
    for bad in ("abc", "nan", "inf", "0", "-1e-6"):
        monkeypatch.setenv("QUNET_TOL", bad)
        assert main(["check", check_path]) == 2
        assert "QUNET_TOL" in capsys.readouterr().err
        assert main(["check", check_path, "--tol", bad]) == 2
        assert "--tol" in capsys.readouterr().err


def test_check_single_frequency_without_sweep(tmp_path, capsys):
    text = "\n".join(line for line in CHECK_FIXTURE.splitlines()
                     if not line.startswith("sweep")) + "\n"
    p = tmp_path / "nosweep.qnet"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "error: document has no sweep directive; pass --freq\n"
    assert main(["check", str(p), "--freq", "1e5"]) == 0
    assert main(["check", str(p), "--freq", "0"]) == 2
    preset = tmp_path / "preset.qnet"
    preset.write_text(PRESET_DOC)
    for path in (p, preset):
        for bad in ("nan", "inf", "-inf"):
            assert main(["check", str(path), "--freq", bad]) == 2
        assert main(["check", str(path), "--freq", "1e5", "--inject-gain", "nan"]) == 2
    assert "--inject-gain must be finite" in capsys.readouterr().err


def _parse_table(out: str):
    rows = {}
    total = None
    for line in out.splitlines():
        parts = line.split()
        if line.startswith("total "):
            total = float(parts[1])
        elif len(parts) == 5 and parts[0] != "source":
            try:
                values = tuple(float(x) for x in parts[1:])
            except ValueError:
                continue
            rows[parts[0]] = values
    return rows, total


def test_budget_large_gain_half_quantum(threedb_path, capsys):
    assert main(["budget", threedb_path, "--freq", "1e5"]) == 0
    out = capsys.readouterr().out
    rows, total = _parse_table(out)
    assert total == pytest.approx(0.5, abs=1e-6)
    top = max(rows.items(), key=lambda kv: kv[1][2])
    assert top[0] == "amp.a'"
    assert top[1][3] > 99.9          # percent column
    assert sum(v[2] for v in rows.values()) == pytest.approx(total, rel=1e-12)
    assert sum(v[3] for v in rows.values()) == pytest.approx(100.0, abs=0.01)


def test_budget_json_matches_table(threedb_path, capsys):
    assert main(["budget", threedb_path, "--freq", "1e5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["budget", threedb_path, "--freq", "1e5"]) == 0
    rows, total = _parse_table(capsys.readouterr().out)
    assert payload["freq_hz"] == 1e5
    assert payload["total"] == total
    assert payload["convention"].startswith("symmetric")
    for entry in payload["sources"]:
        mu2, sigma, contribution, percent = rows[entry["name"]]
        assert entry["mu_abs2"] == mu2
        assert entry["sigma"] == sigma
        assert entry["contribution"] == contribution
        assert entry["percent"] == percent
    names = [e["name"] for e in payload["sources"]]
    contribs = [e["contribution"] for e in payload["sources"]]
    assert contribs == sorted(contribs, reverse=True)
    assert len(names) == 3


# Strings with quotes, backslashes, control, non-ASCII and astral characters;
# numbers with NaN, infinities, -0.0, the smallest subnormal and big ints.
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001d11e'),
                              st.characters()), max_size=12)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 40, 10 ** 40), JSON_TEXT,
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
JSON_ENTRIES = st.dictionaries(JSON_TEXT, JSON_SCALARS, min_size=1, max_size=5)
JSON_REPORTS = st.dictionaries(
    JSON_TEXT, st.one_of(JSON_SCALARS, st.lists(JSON_ENTRIES, max_size=4)),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(JSON_REPORTS)
def test_json_text_is_json_dumps_indent_2(report):
    assert qunet.cli._json_text(report) == json.dumps(report, indent=2)


def test_budget_requires_frequency(threedb_path, preset_path, capsys):
    assert main(["budget", threedb_path]) == 2
    assert main(["budget", threedb_path, "--freq", "0"]) == 2
    for path in (threedb_path, preset_path):
        for bad in ("nan", "inf"):
            assert main(["budget", path, "--freq", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--freq must be finite" in captured.err


def test_budget_preset_langevin_dominates(preset_path, capsys):
    assert main(["budget", preset_path]) == 0
    out = capsys.readouterr().out
    rows, total = _parse_table(out)
    assert total == pytest.approx(1.0769e-25, rel=0.01)
    assert rows["langevin"][3] > 99.9
    assert "(kg m s^-2)^2/Hz" in out


def test_sweep_writes_deterministic_csv(threedb_path, tmp_path, capsys):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert main(["sweep", threedb_path, "-o", str(out1)]) == 0
    assert main(["sweep", threedb_path, "-o", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == "freq_hz,total,r,amp.a,amp.a'"
    assert len(lines) == 201
    freqs = [float(l.split(",")[0]) for l in lines[1:]]
    totals = [float(l.split(",")[1]) for l in lines[1:]]
    assert freqs == sorted(freqs)
    # capacitive feedback: |G| falls with frequency, so the total rises with
    # frequency, approaching the conjugate-source floor from above as the
    # gain grows toward the low end
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[0] == pytest.approx(0.5, rel=1e-6)
    assert min(totals) > 0.5
    capsys.readouterr()


def test_sweep_requires_directive_and_writable_output(tmp_path, capsys):
    p = tmp_path / "nosweep.qnet"
    p.write_text("\n".join(l for l in THREEDB_FIXTURE.splitlines()
                           if not l.startswith("sweep")) + "\n")
    assert main(["sweep", str(p), "-o", str(tmp_path / "x.csv")]) == 2
    full = tmp_path / "full.qnet"
    full.write_text(THREEDB_FIXTURE)
    assert main(["sweep", str(full), "-o", "/nonexistent/dir/out.csv"]) == 2
    capsys.readouterr()


def test_sweep_rejects_preset(tmp_path, capsys):
    # a preset is evaluated only at its carrier: a sweep would repeat one row
    p = tmp_path / "preset_sweep.qnet"
    p.write_text(PRESET_DOC + "sweep 1e4 1e6 5 log\n")
    out = tmp_path / "preset.csv"
    assert main(["sweep", str(p), "-o", str(out)]) == 2
    assert "carrier" in capsys.readouterr().err
    assert not out.exists()


def test_preset_budget_is_the_accel_force_budget(preset_path, capsys):
    # budget on a preset document and accel print one force budget: the
    # same sources in the same order, contributions and total bit for bit
    assert main(["budget", preset_path, "--json"]) == 0
    text = capsys.readouterr().out
    budget = json.loads(text)
    assert main(["accel", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ([(e["name"], e["contribution"]) for e in budget["sources"]]
            == [(e["name"], e["contribution"]) for e in report["budget"]])
    assert budget["total"] == report["force_psd_total"]
    for e in budget["sources"]:
        assert e["contribution"] == e["mu_abs2"] * e["sigma"]
    # a preset fixes its own frequencies: --freq is checked, not applied
    assert budget["freq_hz"] == report["measurement_freq_hz"]
    assert main(["budget", preset_path, "--freq", "12345", "--json"]) == 0
    assert capsys.readouterr().out == text


def test_accel_default_report(capsys):
    assert main(["accel"]) == 0
    out = capsys.readouterr().out
    assert "preset: microscope" in out
    total = float(out.split("force noise PSD total: ")[1].split()[0])
    sens = float(out.split("acceleration sensitivity: ")[1].split()[0])
    assert total == pytest.approx(1.1e-25, rel=0.05)
    assert sens == pytest.approx(1.2e-12, rel=0.05)
    assert "detection-limited" not in out


def test_accel_json(capsys):
    assert main(["accel", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preset"] == "microscope"
    assert payload["mass_kg"] == 0.27
    assert payload["force_psd_total"] == pytest.approx(1.1e-25, rel=0.05)
    assert payload["detection_limited"] is False
    assert payload["budget"][0]["name"] == "langevin"


def test_accel_overrides(capsys):
    assert main(["accel", "--hm", "0"]) == 0
    out = capsys.readouterr().out
    assert "langevin  0.0" in out
    assert main(["accel", "--json"]) == 0
    base = json.loads(capsys.readouterr().out)["force_psd_total"]
    assert main(["accel", "--theta-m", "150", "--json"]) == 0
    halved = json.loads(capsys.readouterr().out)
    langevin_base = 1.0769062199999998e-25
    assert halved["budget"][0]["contribution"] == pytest.approx(
        langevin_base / 2.0, rel=1e-6)
    assert halved["force_psd_total"] < base


def test_accel_unknown_preset_lists_available(capsys):
    assert main(["accel", "--preset", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "microscope" in err


def test_usage_error_exit_code(capsys):
    # the full parser names its subcommand argument "command"
    assert main(["definitely-not-a-command"]) == 2
    assert "argument command: invalid choice" in capsys.readouterr().err
    assert main([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err


# {check}, {threedb} and {csv} stand for a fixture document's path and a
# CSV path; "f" is a document that parsing the options never opens.
IDENTITY_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["-x"], ["--", "check"],
    ["check", "-h"], ["budget", "-h"], ["sweep", "-h"], ["accel", "-h"],
    ["budget"], ["budget", "f", "--bogus"], ["budget", "f", "extra"],
    ["budget", "f", "--freq", "abc"], ["check", "f", "--tol"], ["sweep", "f", "-o"],
    ["check", "{check}", "--freq", "1e5"],
    ["budget", "{threedb}", "--freq", "1e5", "--json"],
    ["sweep", "{check}", "-o", "{csv}"], ["accel", "--json"],
    ["budget", "f", "--", "x"], ["budget", "--", "f"],
    ["budget", "--js", "{threedb}", "--fr", "1e5"], ["accel", "--preset"],
    ["accel", "--the", "1"], ["check", "f", "-h", "--bogus"],
    ["budget", "f", "--json", "--json"], ["sweep", "f", "-o", "x", "-o", "y", "z"],
    ["budget", "-", "--freq", "1"], ["accel", "-h", "x"],
]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["20", "80", "200"])
@pytest.mark.parametrize("argv", IDENTITY_ARGV, ids=lambda a: " ".join(a) or "<none>")
def test_one_command_parser_prints_what_the_full_parser_prints(
        argv, columns, check_path, threedb_path, tmp_path, capsys, monkeypatch):
    # main parses a named command's arguments with that command's parser
    # alone; the full parser, which main uses when no name is a command,
    # must give the same exit code, stdout and stderr, usage lines included
    monkeypatch.setenv("COLUMNS", columns)
    paths = {"check": check_path, "threedb": threedb_path,
             "csv": str(tmp_path / "sweep.csv")}
    argv = [a.format(**paths) for a in argv]
    built = _run(argv, capsys)
    monkeypatch.setattr(qunet.cli, "COMMANDS", ())
    assert _run(argv, capsys) == built


# Every command, its options (some abbreviated, some joined to a value),
# option values, unknown options and extra positionals.  No token names a
# file, so a request that parses fails to open its document.
ARGV_TOKENS = st.sampled_from([
    *qunet.cli.COMMANDS, "--freq", "--fr", "--tol", "--inject-gain", "--json",
    "--js", "-o", "--output", "--preset", "--theta-m", "--the", "--hm",
    "--transduction-gain", "--freq=1", "--json=1", "-h", "--help", "--h", "--",
    "-", "--bogus", "-x", "-1", "1e5", "abc", "microscope", "f", "extra"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(qunet.cli.COMMANDS + ("",)), st.lists(ARGV_TOKENS, max_size=6),
       st.sampled_from(["20", "80", "200"]))
def test_any_argv_prints_what_the_full_parser_prints(command, tokens, columns):
    argv = [command, *tokens] if command else tokens

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
            tempfile.TemporaryDirectory() as empty:
        cwd = os.getcwd()
        os.chdir(empty)
        try:
            built = run()
            with mock.patch.object(qunet.cli, "COMMANDS", ()):
                assert run() == built
        finally:
            os.chdir(cwd)


def test_successive_calls_print_what_each_call_alone_prints(
        check_path, threedb_path, preset_path, tmp_path, capsys, monkeypatch):
    # Alternating commands and usage errors in one process: each call builds
    # the parser of its own command, and prints what it prints alone, in a
    # fresh interpreter started through the entry point, with argv from
    # sys.argv.  Arguments the command's parser leaves unparsed take the
    # full parser too, to report them.  A numpy warning raises in process
    # but prints in the fresh interpreter, so the outputs would differ.
    monkeypatch.setenv("COLUMNS", "80")
    docs = {"tiny": TINY_GAIN_DOC,
            "huge": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", "sweep 1 1e308 2 lin"),
            "nosweep": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log\n", "")}
    for name, text in docs.items():
        (tmp_path / f"{name}.qnet").write_text(text)
    tiny, huge, nosweep = (str(tmp_path / f"{name}.qnet") for name in docs)
    sequence = [["budget", threedb_path, "--freq", "1e5", "--json"],
                ["budget", "f", "--bogus"], ["check", check_path, "--freq", "1e5"],
                ["bogus"], ["accel", "--json"], ["check", "f", "--tol"], [],
                ["sweep", "f", "-o", "x", "extra"],
                ["budget", threedb_path, "--freq", "1e5"],
                ["--help"], ["budget", "-h"], ["budget", "f", "extra"],
                ["budget", tiny, "--freq", "1e5", "--json"],
                ["sweep", threedb_path, "-o", str(tmp_path / "threedb.csv")],
                ["sweep", huge, "-o", str(tmp_path / "huge.csv")],
                ["accel", "--transduction-gain=1e200"],
                ["check", preset_path], ["check", nosweep]]
    src = os.path.dirname(os.path.dirname(qunet.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    alone = [subprocess.run([sys.executable, "-m", "qunet.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in sequence]
    built = []
    full = qunet.cli.build_parser
    monkeypatch.setattr(qunet.cli, "build_parser",
                        lambda command=None: built.append(command) or full(command))
    for argv, fresh in zip(sequence, alone):
        assert _run(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert built == ["budget", "budget", None, "check", None, "accel", "check",
                     None, "sweep", None, "budget", None, "budget", "budget", None,
                     "budget", "sweep", "sweep", "accel", "check", "check"]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["qunet", "accel", "--json"])
    from_sys = _run(None, capsys)
    assert from_sys[0] == 0
    assert _run(["accel", "--json"], capsys) == from_sys
    monkeypatch.setattr(sys, "argv", ["qunet"])
    code, out, err = _run(None, capsys)
    assert (code, out) == (2, "")
    assert "required: command" in err


def test_budget_without_transduction_path_exits_2(tmp_path, capsys):
    # two open lines with no amplifier between them: the readout never sees
    # the signal, which must surface as a usage error, not a traceback
    p = tmp_path / "open.qnet"
    p.write_text("line l impedance=50 temperature=0\n"
                 "line r impedance=50 temperature=0\n"
                 "signal l\nreadout r\n")
    assert main(["budget", str(p), "--freq", "1e5"]) == 2
    assert "no transduction" in capsys.readouterr().err
    # without a signal or a readout there is no estimator at all
    for drop in ("signal", "readout"):
        p.write_text("".join(l + "\n" for l in p.read_text().splitlines()
                             if not l.startswith(drop)))
        assert main(["budget", str(p), "--freq", "1e5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs both a signal and a readout" in captured.err


def test_budget_overflow_is_one_error_without_warnings(check_path, capsys):
    # at 1e-300 Hz the feedback impedance i/(wC) exceeds double range: one
    # structured error naming the point and the cause, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["budget", check_path, "--freq", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "overflow" in lines[0] and "rank" not in lines[0]
    assert f"omega = {2.0 * math.pi * 1e-300!r} rad/s" in lines[0]
    assert "Warning" not in captured.err


# 50 Ohm lines at 0 K closed by a 1e-300 H feedback: |beta| is 2.5e-296 at
# 100 kHz, so |mu|^2 of the readout line exceeds double range.
TINY_GAIN_DOC = """line l impedance=50 temperature=0
line r impedance=50 temperature=0
opamp a left=l right=r noise_impedance=50 noise_temp=0 conj_temp=0 feedback=L:1e-300
signal l
readout r
sweep 1e4 1e6 5 log
"""


def test_overflowing_budget_is_refused(tmp_path, capsys):
    p = tmp_path / "tiny.qnet"
    p.write_text(TINY_GAIN_DOC)
    csv = tmp_path / "out.csv"
    for argv, hz in ((["budget", str(p), "--freq", "1e5", "--json"], 1e5),
                     (["sweep", str(p), "-o", str(csv)], 1e4)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: noise budget at {hz!r} Hz is not finite: "
                                "the |mu|^2 or contribution of source 'r' overflows\n")
    assert not csv.exists()


def test_overflowing_check_fails_without_warnings(tmp_path, check_path, capsys):
    # S S^dagger overflows: the residual is inf and the check FAILs quietly
    p = tmp_path / "huge.qnet"
    p.write_text(CHECK_FIXTURE.replace("noise_impedance=50.0", "noise_impedance=1e308"))
    for argv in (["check", str(p)], ["check", check_path, "--inject-gain", "1e200"],
                 ["check", check_path, "--inject-gain", "1e308"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("max commutator residual: inf over ")
        assert captured.out.endswith(": FAIL\n")
        assert captured.err == ""


def test_overflowing_frequencies_are_refused(tmp_path, preset_path, capsys):
    # 2*pi*f beyond double range: a sweep is refused at its statement, a
    # --freq by name, each in one error line, with no numpy warning
    p = tmp_path / "doc.qnet"
    for sweep, message in (
            ("sweep 1 1e308 2 lin", "sweep upper frequency 1e+308 Hz overflows as 2*pi*f"),
            ("sweep 1e-300 1e300 3 log", "log sweep ratio 1e+300/1e-300 overflows")):
        p.write_text(THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", sweep))
        for argv in (["sweep", str(p), "-o", str(tmp_path / "x.csv")], ["check", str(p)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: line 8, col 1: {message}\n")
    assert not (tmp_path / "x.csv").exists()
    p.write_text(THREEDB_FIXTURE)
    for path in (str(p), preset_path):
        for command in ("check", "budget"):
            assert main([command, path, "--freq", "1e308"]) == 2
            assert capsys.readouterr() == ("", "error: --freq 1e+308 Hz overflows as 2*pi*f\n")


def test_check_without_ports_exits_2(tmp_path, capsys):
    # a document may hold only a sweep: there is nothing to solve
    p = tmp_path / "empty.qnet"
    p.write_text("qnet 1\nsweep 1e4 1e6 5 log\n")
    message = "error: document declares no line: there is no circuit to solve\n"
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == message
    p.write_text("qnet 1\n")
    assert main(["check", str(p), "--freq", "1"]) == 2
    assert capsys.readouterr().err == message


def test_accel_invalid_override_exits_2(capsys):
    assert main(["accel", "--hm", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    for bad in ("nan", "inf"):
        assert main(["accel", "--transduction-gain", bad, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "transduction gain must be finite" in captured.err


def test_a_negative_value_in_exponent_notation_may_follow_its_option(check_path, capsys):
    # argparse's own negative-number pattern has no exponent, so a separate
    # "-1e-3" was read as an option name; split and joined forms now agree
    for option, value, head in (("--inject-gain", "-1e-3", ["check", check_path, "--freq", "1e5"]),
                                ("--transduction-gain", "-3.5e-13", ["accel", "--json"]),
                                ("--hm", "-1e-300", ["accel"])):
        joined = (main([*head, f"{option}={value}"]), capsys.readouterr())
        assert (main([*head, option, value]), capsys.readouterr()) == joined
        assert (main([head[0], option, value, *head[1:]]), capsys.readouterr()) == joined
    assert joined[0] == 2 and "mech_damping must be finite and >= 0" in joined[1].err
    assert main(["accel", "--hm", "-1"]) == 2
    assert main(["accel", "--hm", "-e5"]) == 2     # not a number: still an option name
    assert "expected one argument" in capsys.readouterr().err


def test_accel_overflowing_budget_exits_2(capsys):
    # a gain whose square overflows, or an infinite Langevin row: one error
    # line from the budget, no traceback and not the physics-check exit 1
    for argv, source in ((["accel", "--transduction-gain=1e200"], "r"),
                         (["accel", "--transduction-gain=-1e200", "--json"], "r"),
                         (["accel", "--hm", "1e300", "--theta-m", "1e300"], "langevin")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: noise budget at 0.0005 Hz is not finite: "
                                       f"the |mu|^2 or contribution of source {source!r} overflows\n")


def test_unknown_preset_document_error_contract(tmp_path, capsys):
    p = tmp_path / "nowhere.qnet"
    p.write_text("preset nowhere\n")
    for argv in (["check", str(p)], ["budget", str(p)], ["budget", str(p), "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown preset 'nowhere'; available: microscope\n"


def test_every_parse_issue_is_one_error_line(tmp_path, capsys):
    p = tmp_path / "two.qnet"
    p.write_text("line l impedance=-5 temperature=300\n"
                 "line r impedance=50 temperature=nan\n")
    for command in ("check", "budget", "sweep"):
        extra = ["-o", str(tmp_path / "x.csv")] if command == "sweep" else []
        assert main([command, str(p), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: line 1, col 18: port 'l': impedance must be finite and > 0, got '-5'",
            "error: line 2, col 33: port 'r': temperature must be finite and >= 0, "
            "got 'nan'"]
    assert not (tmp_path / "x.csv").exists()


def pinned_commands():
    """CLI commands whose stdout is pinned, with {name} standing for the
    path of a fixture document."""
    docs = {"CHECK_FIXTURE": ["--freq", "1e5"], "THREEDB_FIXTURE": ["--freq", "1e5"],
            "PRESET_DOC": []}
    return ([["check", f"{{{name}}}"] for name in docs]
            + [["budget", f"{{{name}}}", *freq, *fmt]
               for name, freq in docs.items() for fmt in ([], ["--json"])]
            + [["accel"], ["accel", "--json"]])


def run_pinned(workdir: str) -> tuple[dict, str]:
    """Exit code and stdout of every pinned command, keyed by its argv, and
    the sha256 of the CHECK_FIXTURE sweep CSV."""
    paths = {}
    for name, text in (("CHECK_FIXTURE", CHECK_FIXTURE),
                       ("THREEDB_FIXTURE", THREEDB_FIXTURE), ("PRESET_DOC", PRESET_DOC)):
        paths[name] = os.path.join(workdir, name + ".qnet")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    outputs = {}
    for argv in pinned_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(**paths) for a in argv])
        outputs[" ".join(argv)] = [code, out.getvalue()]
    csv = os.path.join(workdir, "sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", paths["CHECK_FIXTURE"], "-o", csv]) == 0
    with open(csv, "rb") as fh:
        return outputs, hashlib.sha256(fh.read()).hexdigest()


def test_cli_output_is_pinned(tmp_path):
    # Exit codes and full stdout of check, budget and accel and the bytes of
    # one sweep CSV, as captured in cli_stdout.json: a change that moves a
    # digit must say so and rewrite the file:
    #     PYTHONPATH=src python tests/test_cli.py
    with open(PINNED_STDOUT, encoding="utf-8") as fh:
        pinned = json.load(fh)
    outputs, sha = run_pinned(str(tmp_path))
    assert outputs == pinned["stdout"]
    assert sha == pinned["sweep_csv_sha256"]


# Documents the parser or the network refuses, each read by a budget, a
# check or a sweep; and argv that fail before any document is read.
CORPUS_BAD_DOCUMENTS = {
    "bad_impedance": "line l impedance=-5 temperature=300\n",
    "bad_temperature": "line l impedance=50 temperature=nan\n",
    "x_feedback": THREEDB_FIXTURE.replace("feedback=C:6.366197723675814e-12",
                                          "feedback=X:250000.0"),
    "r_feedback": THREEDB_FIXTURE.replace("feedback=C:6.366197723675814e-12",
                                          "feedback=R:50"),
    "unknown_keyword": "qnet 1\nresistor x 50\n",
    "version": "qnet 2\n",
    "late_header": "line l impedance=50 temperature=0\nqnet 1\n",
    "duplicate_signal": THREEDB_FIXTURE + "signal l\n",
    "undeclared_port": "line l impedance=50 temperature=0\nsignal q\n",
    "duplicate_port": "line l impedance=50 temperature=0\nline l impedance=5 temperature=0\n",
    "sweep_order": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", "sweep 1e6 1e4 20 log"),
    "sweep_one_point": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", "sweep 1e4 1e6 1 log"),
    "sweep_scale": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", "sweep 1e4 1e6 20 cubic"),
    "sweep_fields": THREEDB_FIXTURE.replace("sweep 1e4 1e6 200 log", "sweep 1e4 1e6"),
    "shared_port": ("line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
                    "line s impedance=50 temperature=0\n"
                    "opamp a left=l right=r noise_impedance=50 noise_temp=0 conj_temp=0 "
                    "feedback=C:1e-9\n"
                    "opamp b left=r right=s noise_impedance=50 noise_temp=0 conj_temp=0 "
                    "feedback=C:1e-9\n"),
    "missing_field": "line l impedance=50\n",
    "no_lines": "qnet 1\nsweep 1e4 1e6 5 log\n",
    "no_signal": THREEDB_FIXTURE.replace("signal l\n", ""),
    "open_lines": ("line l impedance=50 temperature=0\nline r impedance=50 temperature=0\n"
                   "signal l\nreadout r\nsweep 1e4 1e6 5 log\n"),
    "unknown_preset": "preset nowhere\n",
    "preset_sweep": PRESET_DOC + "sweep 1e4 1e6 5 log\n",
}
CORPUS_USAGE = [
    [], ["-h"], ["bogus"], ["budget"], ["sweep", "x.qnet"], ["check", "missing.qnet"],
    ["budget", "threedb.qnet", "--freq", "abc"], ["budget", "threedb.qnet", "extra"],
    ["budget", "threedb.qnet", "--freq", "0"], ["budget", "threedb.qnet", "--freq", "-inf"],
    ["budget", "threedb.qnet"], ["check", "threedb.qnet", "--tol", "0"],
    ["check", "threedb.qnet", "--inject-gain", "nan"], ["sweep", "threedb.qnet", "-o", "no/x.csv"],
    ["accel", "--hm", "-1"], ["accel", "--transduction-gain", "nan"],
    ["accel", "--preset", "bogus"], ["accel", "--theta-m", "abc"],
]


def corpus(seed: int = 17) -> tuple[dict, list]:
    """About 300 seeded CLI requests and the documents they read, by file
    name: 1-3 stage circuits with C or L feedback, at 0 K or warm, with and
    without short sweeps; presets; accel overrides; refused documents and
    usage errors.  Sweeps write ``<document>.csv``."""
    rng = np.random.default_rng(seed)
    docs = {"threedb.qnet": THREEDB_FIXTURE, "check.qnet": CHECK_FIXTURE,
            "preset.qnet": PRESET_DOC}
    requests = []

    def freq():
        return repr(float(10.0 ** rng.uniform(3.0, 6.0)))

    for i in range(34):
        name = f"doc{i}.qnet"
        stages = int(rng.integers(1, 4))
        text = random_document(rng, stages, 2.0 * math.pi * float(freq()), bool(rng.random() < 0.6))
        if rng.random() < 0.1 and stages > 1:       # the readout never sees the signal
            text = text.replace("readout r0", f"readout r{stages - 1}")
        if rng.random() < 0.75:
            f_lo = float(10.0 ** rng.uniform(2.0, 5.0))
            f_hi = f_lo * float(10.0 ** rng.uniform(0.1, 2.0))
            text += (f"sweep {f_lo!r} {f_hi!r} {int(rng.integers(2, 25))} "
                     f"{'log' if rng.random() < 0.5 else 'lin'}\n")
        docs[name] = text
        requests += [["check", name], ["check", name, "--freq", freq()],
                     ["budget", name, "--freq", freq()],
                     ["budget", name, "--freq", freq(), "--json"],
                     ["sweep", name, "-o", name[:-5] + ".csv"]]
        if rng.random() < 0.3:
            requests.append(["check", name, "--freq", freq(), "--inject-gain",
                             repr(float(rng.uniform(0.5, 2.0)))])
        if rng.random() < 0.3:
            requests.append(["check", name, "--tol", repr(float(10.0 ** rng.uniform(-14, -4)))])
    for path in ("threedb.qnet", "check.qnet", "preset.qnet"):
        requests += [["check", path], ["check", path, "--freq", freq()],
                     ["budget", path, "--freq", freq()], ["budget", path, "--freq", "1e5", "--json"]]
    requests += [["budget", "preset.qnet"], ["budget", "preset.qnet", "--json"],
                 ["sweep", "threedb.qnet", "-o", "threedb.csv"]]
    for _ in range(24):
        argv = ["accel"]
        if rng.random() < 0.5:
            argv += ["--theta-m", repr(float(rng.uniform(0.0, 300.0)))]
        if rng.random() < 0.5:
            argv += ["--hm", repr(float(rng.uniform(0.0, 1e-4)))]
        if rng.random() < 0.5:      # joined: argparse reads -1e-12 as an option
            gain = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -9))
            argv.append(f"--transduction-gain={gain!r}")
        if rng.random() < 0.5:
            argv.append("--json")
        requests.append(argv)
    for bad, text in CORPUS_BAD_DOCUMENTS.items():
        name = f"{bad}.qnet"
        docs[name] = text
        requests += [["check", name], ["budget", name, "--freq", "1e5"],
                     ["sweep", name, "-o", f"{bad}.csv"]]
    return docs, requests + CORPUS_USAGE


def run_corpus(workdir: str) -> dict:
    """sha256 per command kind (usage for argv naming none) over each
    request's argv, exit code, stdout and stderr, in order, and over the
    CSV files the sweeps wrote; with the count of each kind."""
    docs, requests = corpus()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in docs.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        hashes, counts = {}, {}
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            for argv in requests:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                kind = argv[0] if argv and argv[0] in qunet.cli.COMMANDS else "usage"
                record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
                hashes.setdefault(kind, hashlib.sha256()).update(record.encode() + b"\n")
                counts[kind] = counts.get(kind, 0) + 1
        csv = hashlib.sha256()
        for name in sorted(f for f in os.listdir() if f.endswith(".csv")):
            with open(name, "rb") as fh:
                csv.update(name.encode() + b"\n" + fh.read())
    finally:
        os.chdir(cwd)
    pin = {kind: [counts[kind], h.hexdigest()] for kind, h in sorted(hashes.items())}
    pin["sweep CSVs"] = [sum(f.endswith(".csv") for f in os.listdir(workdir)), csv.hexdigest()]
    return pin


def test_cli_corpus_is_pinned(tmp_path):
    # Exit code, stdout and stderr of about 300 requests and the bytes of
    # their sweep CSVs, as captured in cli_corpus.json: a change that moves
    # an output must say so and rewrite the file with
    #     PYTHONPATH=src python tests/test_cli.py
    with open(PINNED_CORPUS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert run_corpus(str(tmp_path)) == pinned


if __name__ == "__main__":
    # Rewrite cli_stdout.json, naming each command whose exit code or
    # stdout moved and whether the sweep CSV's sha256 did.
    with open(PINNED_STDOUT, encoding="utf-8") as fh:
        old = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        stdout, sha = run_pinned(tmp)
    for argv, result in stdout.items():
        if old["stdout"].get(argv) != result:
            print(f"changed: {argv}", file=sys.stderr)
    for argv in old["stdout"].keys() - stdout.keys():
        print(f"dropped: {argv}", file=sys.stderr)
    moved = "changed" if sha != old["sweep_csv_sha256"] else "unchanged"
    print(f"sweep CSV sha256 {moved}", file=sys.stderr)
    with open(PINNED_STDOUT, "w", encoding="utf-8") as fh:
        json.dump({"stdout": stdout, "sweep_csv_sha256": sha}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(stdout)} outputs to {PINNED_STDOUT}", file=sys.stderr)
    # Rewrite cli_corpus.json, naming each kind whose count or hash moved.
    with open(PINNED_CORPUS, encoding="utf-8") as fh:
        old = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        pin = run_corpus(tmp)
    for kind in old.keys() | pin.keys():
        if old.get(kind) != pin.get(kind):
            print(f"corpus changed: {kind} {old.get(kind)} -> {pin.get(kind)}",
                  file=sys.stderr)
    with open(PINNED_CORPUS, "w", encoding="utf-8") as fh:
        json.dump(pin, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(pin)} corpus hashes to {PINNED_CORPUS}", file=sys.stderr)
