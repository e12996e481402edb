import json
import math
import warnings

import pytest

from qunet.cli import main

from helpers import CHECK_FIXTURE, PRESET_DOC, THREEDB_FIXTURE


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
    assert main(["check", str(p), "--freq", "1e5"]) == 0
    assert main(["check", str(p), "--freq", "0"]) == 2
    capsys.readouterr()


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


def test_budget_requires_frequency(threedb_path, capsys):
    assert main(["budget", threedb_path]) == 2
    assert main(["budget", threedb_path, "--freq", "0"]) == 2
    capsys.readouterr()


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
    assert main(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_budget_without_transduction_path_exits_2(tmp_path, capsys):
    # two open lines with no amplifier between them: the readout never sees
    # the signal, which must surface as a usage error, not a traceback
    p = tmp_path / "open.qnet"
    p.write_text("line l impedance=50 temperature=0\n"
                 "line r impedance=50 temperature=0\n"
                 "signal l\nreadout r\n")
    assert main(["budget", str(p), "--freq", "1e5"]) == 2
    assert "no transduction" in capsys.readouterr().err


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


def test_check_without_ports_exits_2(tmp_path, capsys):
    # a document may hold only a sweep: there is nothing to solve
    p = tmp_path / "empty.qnet"
    p.write_text("qnet 1\nsweep 1e4 1e6 5 log\n")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_accel_invalid_override_exits_2(capsys):
    assert main(["accel", "--hm", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
