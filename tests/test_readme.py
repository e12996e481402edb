"""The README's examples run and print what the README says they print."""

import contextlib
import io
import os
import re

import pytest

from qunet.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def fenced(info: str) -> str:
    """The body of the README's first code block whose info string is ``info``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)
    return next(body for tag, body in blocks if tag == info)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_python_block_prints_what_its_comments_state():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced("python"), {})
    total, weights, fraction, deep_weight, deep_total = out.getvalue().splitlines()
    assert total == "0.500000015"
    mu2, sigma = map(float, weights.split())
    assert mu2 == pytest.approx(1.0, abs=1e-6) and sigma == 0.5
    assert float(fraction) == pytest.approx(1e-8, rel=0.01)
    assert float(deep_weight) == pytest.approx(1e-4, rel=1e-12)
    # a 300 K readout line on stage 39 adds next to nothing to the half quantum
    assert float(deep_total) == pytest.approx(0.5, rel=1e-6)


def test_qnet_example_runs_as_the_readme_says(tmp_path):
    doc = tmp_path / "stage.qnet"
    doc.write_text(fenced(""))
    code, out, err = run(["check", str(doc)])
    assert (code, err) == (1, "")
    assert out.startswith("max commutator residual: 8.9129") and out.endswith("FAIL\n")
    code, out, err = run(["budget", str(doc), "--freq", "1e5"])
    assert (code, err) == (0, "")
    last = out.splitlines()[-1].split()
    assert last[0] == "total" and float(last[1]) == pytest.approx(0.500000015, rel=1e-9)
    csv = tmp_path / "noise.csv"
    assert run(["sweep", str(doc), "-o", str(csv)]) == (0, f"wrote 200 rows to {csv}\n", "")
    lines = csv.read_text().splitlines()
    assert lines[0] == "freq_hz,total,r,amp.a,amp.a'" and len(lines) == 201
