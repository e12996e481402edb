"""Seeded inputs of the three workloads.

A generator writes every ``.qnet`` file of its workload into a work
directory before any timing, checks that each one parses, and returns the
request sequence.  Requests are plain JSON data, so that a fresh
interpreter can replay one (the set-up probe) and the oracle can check any
outcome from the request alone.  ``requests[0]`` is the warm-up.

Why these workloads:

* ``sweep-stage``: the matched 3 dB stage of the test suite over 20,000
  log points.  Five unknowns per point, so the time is per-point Python and
  per-call solver overhead: the case a batched frequency axis must win.
* ``sweep-array``: 16 independent matched stages (80 unknowns, 64 input
  channels) over 1,000 points.  The same layers run, but the work is
  arithmetic, near the measured dense-batching crossover, so a change that
  wins on ``sweep-stage`` can lose here.
* ``interactive-mix``: one closed-loop caller sending single budget, check,
  accelerometer and Python API requests.  Every request re-parses a file,
  rebuilds the argument parser and the network, then solves 1 to 40
  points, so frequency batching is bypassed and the parser, netlist,
  amplifier, cascade and accelerometer layers carry the time.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-stage", "sweep-array", "interactive-mix")

# "full" is the benchmark; "tiny" keeps every code path at a size the
# benchmark's own tests can afford.
SCALES = {
    "full": {"stage_points": 20000, "array_channels": 16, "array_points": 1000,
             "budget_docs": 96, "check_docs": 32, "mix_blocks": 410},
    "tiny": {"stage_points": 200, "array_channels": 3, "array_points": 20,
             "budget_docs": 6, "check_docs": 3, "mix_blocks": 2},
}

CHECK_POINTS = 40     # points of each check sweep
SCAN_VALUES = 64      # noise impedances per matching scan
MAX_CHAIN = 24        # deepest chain the cascade naming supports

# Capacitance of the test suite's matched 3 dB stage: |G| = 1e4 at 100 kHz.
THREEDB_CAPACITANCE = 6.366197723675814e-12


class GeneratorError(RuntimeError):
    """A generated input is invalid: a benchmark bug, not a request failure."""


@dataclass(frozen=True)
class Workload:
    requests: list
    # Latency percentile reported as the tail.  The mix's p99 has over a
    # hundred samples beyond it.  A 30 s sweep run holds only 12 to 30
    # sweeps, too few for any percentile above the median to have ten beyond
    # it; p90 is the highest that stays steady from run to run.
    tail_percentile: float


def generate(name: str, seed: int, workdir: str, scale: str = "full") -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    if name not in WORKLOADS:
        raise GeneratorError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    size = SCALES[scale]
    rng = random.Random(f"{name}/{seed}")
    files: dict[str, str] = {}
    if name == "sweep-stage":
        requests = _sweep_stage(rng, size, workdir, files)
        tail = 90.0
    elif name == "sweep-array":
        requests = _sweep_array(rng, size, workdir, files)
        tail = 90.0
    else:
        requests = _interactive_mix(rng, size, workdir, files)
        tail = 99.0
    _write_and_parse(files)
    return Workload(requests, tail)


def _write_and_parse(files: dict[str, str]) -> None:
    from qunet import netlist

    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            netlist.parse(text)
        except netlist.NetlistError as exc:
            raise GeneratorError(f"generated file {path} does not parse: {exc}") from exc


# --- circuits ---------------------------------------------------------------

def _stage(k: int, r_l, r_r, r_a, fb, t_l, t_r, t_a, t_ap) -> dict:
    return {"l": f"l{k}", "r": f"r{k}", "amp": f"amp{k}", "r_l": r_l, "r_r": r_r,
            "r_a": r_a, "fb": list(fb), "t_l": t_l, "t_r": t_r, "t_a": t_a,
            "t_ap": t_ap}


def _reactive_feedback(kind: str, gain_mag: float, r_l: float, r_r: float,
                       f_hz: float) -> tuple[str, float]:
    """C or L feedback giving |G| = gain_mag at f_hz (|G| = 2|Z_f|/sqrt(R_l R_r))."""
    z = gain_mag * math.sqrt(r_l * r_r) / 2.0
    w = 2.0 * math.pi * f_hz
    if kind == "C":
        return "C", 1.0 / (w * z)
    return "L", z / w


def _temperature(rng: random.Random) -> float:
    # A quarter of the lines sit at 0 K, the vacuum branch of the occupation.
    return 0.0 if rng.random() < 0.25 else rng.uniform(0.01, 300.0)


def circuit_text(stages: list, sweep: tuple | None = None) -> str:
    """``.qnet`` text of independent stages; signal and readout on stage 0."""
    out = ["qnet 1", "# generated by the qunet benchmark"]
    for s in stages:
        out.append(f"line {s['l']} impedance={s['r_l']!r} temperature={s['t_l']!r}")
        out.append(f"line {s['r']} impedance={s['r_r']!r} temperature={s['t_r']!r}")
    for s in stages:
        kind, value = s["fb"]
        out.append(f"opamp {s['amp']} left={s['l']} right={s['r']} "
                   f"noise_impedance={s['r_a']!r} noise_temp={s['t_a']!r} "
                   f"conj_temp={s['t_ap']!r} feedback={kind}:{value!r}")
    out.append(f"signal {stages[0]['l']}")
    out.append(f"readout {stages[0]['r']}")
    if sweep is not None:
        f_lo, f_hi, n = sweep
        out.append(f"sweep {f_lo!r} {f_hi!r} {n} log")
    return "\n".join(out) + "\n"


def _sweep_request(path: str, out: str, stages: list, sweep: tuple) -> dict:
    return {"op": "cli", "argv": ["sweep", path, "-o", out], "expect": 0,
            "points": sweep[2], "check": "sweep", "stages": stages,
            "sweep": list(sweep), "csv": out}


# --- sweep workloads --------------------------------------------------------

def _sweep_stage(rng, size, workdir, files) -> list:
    # The matched 3 dB stage; the seed only moves the band edges by < 2 %.
    stage = {"l": "l", "r": "r", "amp": "amp", "r_l": 50.0, "r_r": 50.0,
             "r_a": 50.0, "fb": ["C", THREEDB_CAPACITANCE], "t_l": 0.0,
             "t_r": 0.0, "t_a": 0.0, "t_ap": 0.0}
    sweep = (1e4 * 10.0 ** rng.uniform(-0.008, 0.008),
             1e6 * 10.0 ** rng.uniform(-0.008, 0.008), size["stage_points"])
    path = os.path.join(workdir, "stage.qnet")
    files[path] = circuit_text([stage], sweep)
    return [_sweep_request(path, os.path.join(workdir, "stage.csv"), [stage], sweep)]


def _sweep_array(rng, size, workdir, files) -> list:
    stages = []
    for k in range(size["array_channels"]):
        r_l = 10.0 ** rng.uniform(1.3, 2.7)
        r_r = 10.0 ** rng.uniform(1.3, 2.7)
        fb = _reactive_feedback("C", 10.0 ** rng.uniform(2.0, 4.0), r_l, r_r, 1e5)
        stages.append(_stage(k, r_l, r_r, r_l, fb, rng.uniform(0.01, 300.0),
                             rng.uniform(0.01, 300.0), rng.uniform(0.01, 300.0),
                             rng.uniform(0.01, 300.0)))
    sweep = (1e4, 1e6, size["array_points"])
    path = os.path.join(workdir, "array.qnet")
    files[path] = circuit_text(stages, sweep)
    return [_sweep_request(path, os.path.join(workdir, "array.csv"), stages, sweep)]


# --- interactive mix --------------------------------------------------------

def _budget_doc(rng, n_stages: int) -> tuple[list, float]:
    """Stages with random impedances and temperatures, |G| in [1, 1e4] at f0."""
    f0 = 10.0 ** rng.uniform(3.5, 5.5)
    stages = []
    for k in range(n_stages):
        r_l, r_r, r_a = (10.0 ** rng.uniform(1.0, 3.3) for _ in range(3))
        fb = _reactive_feedback(rng.choice("CL"), 10.0 ** rng.uniform(0.0, 4.0),
                                r_l, r_r, f0)
        stages.append(_stage(k, r_l, r_r, r_a, fb, *(_temperature(rng) for _ in range(4))))
    return stages, f0


def _check_doc(rng, n_stages: int) -> tuple[list, tuple]:
    """Stages with impedances within a factor 2 of 50 Ohm and |G| <= 1e2 over
    the sweep, so the absolute commutator residual stays near 1e-12."""
    f_lo = 10.0 ** rng.uniform(4.0, 5.0)
    f_hi = 100.0 * f_lo
    stages = []
    for k in range(n_stages):
        r_l, r_r, r_a = (50.0 * 10.0 ** rng.uniform(-0.3, 0.3) for _ in range(3))
        kind = rng.choice("CL")
        # |G| grows toward f_lo for C feedback and toward f_hi for L feedback.
        fb = _reactive_feedback(kind, 10.0 ** rng.uniform(0.5, 2.0), r_l, r_r,
                                f_lo if kind == "C" else f_hi)
        stages.append(_stage(k, r_l, r_r, r_a, fb, *(_temperature(rng) for _ in range(4))))
    return stages, (f_lo, f_hi, CHECK_POINTS)


def _api_stage(rng, r_l=None, r_r=None) -> dict:
    """Stage parameters for the Python API, constant-reactance feedback."""
    r_l = 10.0 ** rng.uniform(0.7, 3.7) if r_l is None else r_l
    r_r = 10.0 ** rng.uniform(0.7, 3.7) if r_r is None else r_r
    x = 10.0 ** rng.uniform(0.0, 3.0) * math.sqrt(r_l * r_r) / 2.0
    return {"r_l": r_l, "r_r": r_r, "r_a": 10.0 ** rng.uniform(0.7, 3.7),
            "fb": ["X", x if rng.random() < 0.5 else -x], "t_l": 0.0,
            "t_r": _temperature(rng), "t_a": _temperature(rng), "t_ap": _temperature(rng)}


def _api_chain(rng) -> list:
    n = rng.randint(2, MAX_CHAIN)
    impedances = [10.0 ** rng.uniform(0.7, 3.7) for _ in range(n + 1)]
    return [_api_stage(rng, impedances[k], impedances[k + 1]) for k in range(n)]


# One block of the mix: 60 % budget, 20 % check, 5 % accel, 5 % preset
# budget, 10 % Python API.  Each block is shuffled, so every seed sends the
# same shares and only the order and the inputs differ.
MIX_BLOCK = ("budget",) * 12 + ("check",) * 4 + ("accel", "preset", "api", "api")


def _interactive_mix(rng, size, workdir, files) -> list:
    # Docs have 1, 2 and 3 stages in turn, so the cost mix is the same for
    # every seed.
    budget_docs = []
    for i in range(size["budget_docs"]):
        stages, f0 = _budget_doc(rng, 1 + i % 3)
        path = os.path.join(workdir, f"budget{i}.qnet")
        files[path] = circuit_text(stages)
        budget_docs.append((path, stages, f0))
    check_docs = []
    for i in range(size["check_docs"]):
        stages, sweep = _check_doc(rng, 1 + i % 3)
        path = os.path.join(workdir, f"check{i}.qnet")
        files[path] = circuit_text(stages, sweep)
        check_docs.append((path, sweep[2]))
    preset = os.path.join(workdir, "preset.qnet")
    files[preset] = "qnet 1\npreset microscope\n"

    def budget_request():
        path, stages, f0 = rng.choice(budget_docs)
        f = f0 * 10.0 ** rng.uniform(-0.5, 0.5)
        return {"op": "cli", "argv": ["budget", path, "--freq", repr(f), "--json"],
                "expect": 0, "points": 1, "check": "budget", "stages": stages,
                "freq": f}

    requests = [budget_request()]
    for _ in range(size["mix_blocks"]):
        for kind in rng.sample(MIX_BLOCK, len(MIX_BLOCK)):
            if kind == "budget":
                requests.append(budget_request())
            elif kind == "check":
                path, n = rng.choice(check_docs)
                requests.append({"op": "cli", "argv": ["check", path], "expect": 0,
                                 "points": n, "check": "check"})
            elif kind == "accel":
                requests.append({"op": "cli", "argv": ["accel", "--json"], "expect": 0,
                                 "points": 1, "check": "accel"})
            elif kind == "preset":
                f = 10.0 ** rng.uniform(4.0, 6.0)
                requests.append({"op": "cli",
                                 "argv": ["budget", preset, "--freq", repr(f), "--json"],
                                 "expect": 0, "points": 1, "check": "preset_budget",
                                 "freq": f})
            else:
                requests.append(_api_request(rng))
    return requests


def _api_request(rng) -> dict:
    f = 10.0 ** rng.uniform(3.0, 6.0)
    kind = rng.choice(("stage_added_noise", "chain_added_noise",
                       "downstream_noise_fraction", "matching_scan"))
    if kind == "stage_added_noise":
        return {"op": kind, "stages": [_api_stage(rng)], "freq": f, "points": 1,
                "check": kind}
    if kind == "matching_scan":
        stage = _api_stage(rng)
        lo = math.log10(stage["r_l"]) - 1.0
        grid = [10.0 ** (lo + 2.0 * i / (SCAN_VALUES - 1)) for i in range(SCAN_VALUES)]
        return {"op": kind, "stages": [stage], "grid": grid, "freq": f,
                "points": SCAN_VALUES, "check": kind}
    return {"op": kind, "stages": _api_chain(rng), "freq": f, "points": 1,
            "check": kind}
