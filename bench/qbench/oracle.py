"""Closed-form oracle for every benchmark output.

Independent of qunet's code paths: the stage budget is the explicit
three-term spectral sum

    R_l R_r/(4|Z_f|^2) s_r + (R_l R_a/4)|1/Z_f + 1/R_l - 1/R_a|^2 s_a
                           + (R_l R_a/4)|1/Z_f + 1/R_l + 1/R_a|^2 s_a'

with s = (1/2) coth(hbar w / 2 k_B T), and a chain adds each deeper stage's
sum divided by |product of upstream G|^2, G = 2|Z_f|/sqrt(R_l R_r).  In a
netlist of independent stages only stage 0 (signal and readout) is on the
signal path; every other source must carry no weight.
"""

from __future__ import annotations

import json
import math

import numpy as np

HBAR = 1.054571817e-34   # J s, CODATA 2018 exact
K_B = 1.380649e-23       # J/K, CODATA 2018 exact

REL_TOL = 1e-9           # totals and on-path contributions
DECOUPLED_TOL = 1e-12    # off-path contributions, relative to the total

# Microscope preset: the paper's instrument plus the model's detection stage
# (matched 0.15 MOhm, |G| = 1e4 capacitive at the 100 kHz carrier, 1.5 K
# effective amplifier temperature, 1e-14 N transduction gain).
MICROSCOPE = {"mass": 0.27, "damping": 1.3e-5, "theta_m": 300.0,
              "carrier_hz": 1e5, "r_a": 0.15e6, "theta_a": 1.5, "gain": 1e4,
              "transduction": 1e-14}
PAPER_FORCE_PSD = "1.1e-25"
PAPER_SENSITIVITY = "1.2e-12"


class OracleError(Exception):
    """An output disagrees with the oracle."""


def occupation(w, temperature: float):
    w = np.asarray(w, dtype=float)
    if temperature == 0.0:
        return np.full_like(w, 0.5)
    return 0.5 / np.tanh(HBAR * w / (2.0 * K_B * temperature))


def feedback_impedance(fb, w):
    kind, value = fb
    w = np.asarray(w, dtype=float)
    if kind == "C":
        return 1.0 / (-1j * w * value)
    if kind == "L":
        return -1j * w * value
    if kind == "X":
        return np.full_like(w, 1j * value, dtype=complex)
    raise ValueError(f"unknown feedback kind {kind!r}")


def _terms(r_l, r_r, r_a, zf, s_r, s_a, s_ap):
    return (r_l * r_r / (4.0 * np.abs(zf) ** 2) * s_r,
            r_l * r_a / 4.0 * np.abs(1.0 / zf + 1.0 / r_l - 1.0 / r_a) ** 2 * s_a,
            r_l * r_a / 4.0 * np.abs(1.0 / zf + 1.0 / r_l + 1.0 / r_a) ** 2 * s_ap)


def stage_terms(s: dict, w):
    """(readout, noise, conjugated-noise) contributions of one stage."""
    return _terms(s["r_l"], s["r_r"], s["r_a"], feedback_impedance(s["fb"], w),
                  occupation(w, s["t_r"]), occupation(w, s["t_a"]),
                  occupation(w, s["t_ap"]))


def chain_stage_totals(stages: list, w) -> list:
    """Each stage's added noise referred to the chain input."""
    totals, upstream = [], 1.0
    for s in stages:
        totals.append(sum(stage_terms(s, w)) / upstream)
        gain2 = 4.0 * np.abs(feedback_impedance(s["fb"], w)) ** 2 / (s["r_l"] * s["r_r"])
        upstream = upstream * gain2
    return totals


def microscope_force_psd() -> float:
    p = MICROSCOPE
    w = 2.0 * math.pi * p["carrier_hz"]
    r = p["r_a"]
    zf = 1.0 / (-1j * w * (2.0 / (w * p["gain"] * r)))
    detection = sum(_terms(r, r, r, zf, 0.5, K_B * p["theta_a"] / (HBAR * w), 0.5))
    return 2.0 * p["damping"] * K_B * p["theta_m"] + p["transduction"] ** 2 * detection


def _close(got, want, tol: float, what: str, scale=None) -> None:
    """|got - want| <= tol |scale| elementwise, scale defaulting to want."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.abs(want if scale is None else scale)
    if not np.all(err <= tol):
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err))) if err.ndim else 0
        raise OracleError(f"{what}: got {got.flat[i]!r}, expected {want.flat[i]!r} "
                          f"(relative error {err.flat[i]!r} > {tol!r})")


def _code(req: dict, outcome) -> None:
    if outcome.code != req["expect"]:
        raise OracleError(f"exit code {outcome.code!r}, expected {req['expect']!r}: "
                          f"{outcome.stderr.strip()[:200]}")


def _circuit_sources(stages: list, w) -> tuple[dict, set]:
    """Expected on-path contributions of stage 0 and the off-path source names."""
    s0 = stages[0]
    c_r, c_a, c_ap = stage_terms(s0, w)
    on_path = {s0["r"]: c_r, f"{s0['amp']}.a": c_a, f"{s0['amp']}.a'": c_ap}
    off_path = set()
    for s in stages[1:]:
        off_path |= {s["l"], s["r"], f"{s['amp']}.a", f"{s['amp']}.a'"}
    return on_path, off_path


def _check_sources(got: dict, total, stages: list, w, what: str) -> None:
    on_path, off_path = _circuit_sources(stages, w)
    if set(got) != set(on_path) | off_path:
        raise OracleError(f"{what}: sources {sorted(got)}, expected "
                          f"{sorted(set(on_path) | off_path)}")
    want_total = sum(on_path.values())
    _close(total, want_total, REL_TOL, f"{what} total")
    for name, want in on_path.items():
        _close(got[name], want, REL_TOL, f"{what} {name}", scale=want_total)
    for name in off_path:
        if not np.all(np.abs(got[name]) <= DECOUPLED_TOL * np.asarray(want_total)):
            raise OracleError(f"{what}: decoupled source {name} carries "
                              f"{np.max(np.abs(got[name]))!r}")


def _sweep(req, outcome) -> None:
    _code(req, outcome)
    f_lo, f_hi, n = req["sweep"]
    with open(req["csv"], "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise OracleError(f"malformed CSV {req['csv']}: {exc}") from exc
    if header[:2] != ["freq_hz", "total"] or data.shape != (n, len(header)):
        raise OracleError(f"CSV has header {header[:3]}... and shape {data.shape}, "
                          f"expected {n} rows of freq_hz,total,<sources>")
    ratio = (f_hi / f_lo) ** (1.0 / (n - 1))
    freqs = f_lo * ratio ** np.arange(n)
    freqs[-1] = f_hi
    _close(data[:, 0], freqs, 1e-12, "sweep frequency")
    w = 2.0 * math.pi * data[:, 0]
    got = {name: data[:, j] for j, name in enumerate(header) if j >= 2}
    _check_sources(got, data[:, 1], req["stages"], w, "sweep")


def _budget(req, outcome) -> None:
    _code(req, outcome)
    report = json.loads(outcome.stdout)
    _close(report["freq_hz"], req["freq"], 1e-15, "budget frequency")
    got = {e["name"]: e["contribution"] for e in report["sources"]}
    _check_sources(got, report["total"], req["stages"], 2.0 * math.pi * req["freq"],
                   "budget")


def _check(req, outcome) -> None:
    _code(req, outcome)
    if "OK" not in outcome.stdout:
        raise OracleError(f"check did not report OK: {outcome.stdout.strip()[:200]}")


def _accel(req, outcome) -> None:
    _code(req, outcome)
    report = json.loads(outcome.stdout)
    psd, sens = report["force_psd_total"], report["acceleration_sensitivity"]
    if f"{psd:.1e}" != PAPER_FORCE_PSD or f"{sens:.1e}" != PAPER_SENSITIVITY:
        raise OracleError(f"accel gives {psd!r} and {sens!r}, the paper quotes "
                          f"{PAPER_FORCE_PSD} and {PAPER_SENSITIVITY}")
    want = microscope_force_psd()
    _close(psd, want, REL_TOL, "accel force PSD")
    _close(sens, math.sqrt(want) / MICROSCOPE["mass"], REL_TOL,
           "accel acceleration sensitivity")


def _preset_budget(req, outcome) -> None:
    _code(req, outcome)
    _close(json.loads(outcome.stdout)["total"], microscope_force_psd(), REL_TOL,
           "preset budget total")


def _w(req) -> float:
    return 2.0 * math.pi * req["freq"]


def _stage_added_noise(req, outcome) -> None:
    _close(outcome.value["total"], sum(stage_terms(req["stages"][0], _w(req))),
           REL_TOL, "stage_added_noise total")


def _chain_added_noise(req, outcome) -> None:
    _close(outcome.value["total"], sum(chain_stage_totals(req["stages"], _w(req))),
           REL_TOL, "chain_added_noise total")


def _downstream_noise_fraction(req, outcome) -> None:
    totals = chain_stage_totals(req["stages"], _w(req))
    _close(outcome.value, sum(totals[1:]) / sum(totals), REL_TOL,
           "downstream_noise_fraction")


def _matching_scan(req, outcome) -> None:
    stage, w = req["stages"][0], _w(req)
    want = np.array([sum(stage_terms(dict(stage, r_a=r), w)) for r in req["grid"]])
    _close(outcome.value["sigmas"], want, REL_TOL, "matching_scan sigma")
    chosen = want[req["grid"].index(outcome.value["noise_impedance"])]
    if not chosen <= want.min() * (1.0 + REL_TOL):
        raise OracleError(f"matching_scan picked {outcome.value['noise_impedance']!r}, "
                          f"not the minimum")


_CHECKS = {"sweep": _sweep, "budget": _budget, "check": _check, "accel": _accel,
           "preset_budget": _preset_budget, "stage_added_noise": _stage_added_noise,
           "chain_added_noise": _chain_added_noise,
           "downstream_noise_fraction": _downstream_noise_fraction,
           "matching_scan": _matching_scan}


def verify(req: dict, outcome) -> None:
    """Raise :class:`OracleError` unless ``outcome`` is right for ``req``."""
    _CHECKS[req["check"]](req, outcome)
