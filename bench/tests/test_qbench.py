"""Tests of the benchmark itself: workloads pass the oracle, the gate is not
vacuous, the tracer is transparent, and a checkout without source fails."""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import qunet  # noqa: E402
import qunet.cli  # noqa: E402
from qbench import harness, oracle, refclock, workloads  # noqa: E402
from qbench.execute import execute  # noqa: E402
from qbench.tracer import LAYERS, Tracer  # noqa: E402


def _tiny(name, tmp_path, trace=False):
    return harness.run(name, seed=7, seconds=0.2, trace=trace, root=ROOT,
                       scratch=str(tmp_path), scale="tiny")


def test_reference_pace_scales_wall_time_and_skips_kernels():
    clock = refclock.RefClock()
    k = 2.0 * refclock.REFERENCE_S      # every kernel run reads twice the reference
    clock.kernels = [(t, t + k) for t in (0.0, 1.0, 2.0, 3.0)]
    # 0.5 s to 2.5 s of wall time, less two kernel runs, at half speed.
    assert clock.reference([(0.5, 2.5)]) == [pytest.approx((2.0 - 2 * k) / 2, rel=1e-12)]


def test_reference_clock_runs_kernel_on_timer(monkeypatch):
    monkeypatch.setattr(refclock, "kernel", lambda: time.sleep(2.0 * refclock.REFERENCE_S))
    handler = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    with clock.running():
        start = time.perf_counter()
        time.sleep(4 * refclock.PERIOD_S)
        span = (start, time.perf_counter())
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(clock.kernels) >= 2 * refclock.SIDE + 3
    assert clock.reference([span])[0] == pytest.approx(2 * refclock.PERIOD_S, rel=0.25)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_oracle(name, tmp_path):
    result = _tiny(name, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 3          # set-up probe, warm-up, measured
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    for value, _ in result["metrics"].values():
        assert math.isfinite(value) and value > 0.0


def test_corrupted_output_raises_fail_ratio(tmp_path, monkeypatch):
    original = qunet.cli.thermal_occupation
    monkeypatch.setattr(qunet.cli, "thermal_occupation",
                        lambda w, t: original(w, t) * (1.0 + 1e-6))
    for name in ("sweep-stage", "interactive-mix"):
        result = _tiny(name, tmp_path)
        assert result["fail_ratio"] > 0.0, name


def test_oracle_rejects_a_decoupled_source_with_weight(tmp_path):
    wl = workloads.generate("sweep-array", 3, str(tmp_path), "tiny")
    req = wl.requests[0]
    outcome = execute(req)
    oracle.verify(req, outcome)
    with open(req["csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index("amp1.a")] = repr(float(row[1]) * 1e-9)
    lines[5] = ",".join(row)
    with open(req["csv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(oracle.OracleError, match="decoupled"):
        oracle.verify(req, outcome)


def test_traced_run_reports_layer_counts(tmp_path):
    main = qunet.cli.main
    stage = _tiny("sweep-stage", tmp_path, trace=True)
    m = {k: v for k, (v, _) in stage["metrics"].items()}
    assert stage["failed"] == 0
    assert m["network.points"] == workloads.SCALES["tiny"]["stage_points"]
    assert m["network.unknowns"] == 5
    assert m["network.solve_flops"] > 0 and m["spectra.occupation_calls"] > 0
    assert m["cli.parser_builds"] == 1
    mix = _tiny("interactive-mix", tmp_path, trace=True)
    m = {k: v for k, (v, _) in mix["metrics"].items()}
    assert mix["failed"] == 0
    assert m["cli.parser_builds"] > 0 and m["netlist.bytes_parsed"] > 0
    assert all(f"{layer}.self_s" in m for layer in LAYERS)
    assert qunet.cli.main is main                 # tracer uninstalled
    assert os.path.exists(tmp_path / "spans" / "interactive-mix.npz")


def test_tracer_is_transparent_and_tolerates_missing_names(monkeypatch):
    monkeypatch.delattr(qunet.cascade, "downstream_noise_fraction")
    occupation = qunet.spectra.thermal_occupation
    tracer = Tracer()
    tracer.install()
    try:
        assert "cascade.downstream_noise_fraction" in tracer.missing
        assert qunet.cli.thermal_occupation is not occupation
        assert qunet.cli.thermal_occupation(1e6, 4.0) == occupation(1e6, 4.0)
        with pytest.raises(ValueError):
            qunet.spectra.thermal_occupation(0.0, 1.0)
    finally:
        tracer.uninstall()
    assert qunet.cli.thermal_occupation is occupation
    assert qunet.spectra.thermal_occupation is occupation
    spectra = LAYERS.index("spectra")
    assert tracer.calls[spectra] == 2 and tracer.errors[spectra] == 1
    assert tracer.per_request(1)["cascade.calls"] == (0.0, "count/req")


def test_generator_is_seeded(tmp_path):
    def generate(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        reqs = workloads.generate("interactive-mix", seed, str(d), "tiny").requests
        return json.dumps(reqs).replace(str(d), "<dir>")

    assert generate(5, "a") == generate(5, "b")
    assert generate(5, "c") != generate(6, "d")


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-stage",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
