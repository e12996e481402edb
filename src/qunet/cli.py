"""Command line front end: consistency checks, budgets, sweeps, presets.

Exit codes: 0 success, 1 physics-check failure, 2 usage/parse/IO failure.
All frequencies on this surface are in Hz; output numbers carry full
round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import accelerometer as accel
from . import netlist
from .amplifier import stage_estimator, stage_scattering
from .network import DEFAULT_TOLERANCE, NoTransductionError, check_commutators
from .spectra import require_finite, thermal_occupation

TWO_PI = 2.0 * math.pi

CSV_BLOCK_ROWS = 4096            # sweep CSV rows formatted and written at a time

CONVENTION_NOTE = ("symmetric two-sided PSD; one-sided engineering values "
                   "are a factor 2 larger")


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _resolve_tol(args) -> float:
    """--tol, else QUNET_TOL, else the default; ValueError unless finite > 0."""
    if args.tol is not None:
        return require_finite(args.tol, "--tol")
    env = os.environ.get("QUNET_TOL")
    if env:
        return require_finite(env, "QUNET_TOL")
    return DEFAULT_TOLERANCE


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _err(str(exc))
        return None
    try:
        return netlist.parse(text)
    except netlist.NetlistError as exc:
        for issue in exc.issues:
            _err(str(issue))
        return None


def _preset_for(doc):
    try:
        return accel.get_preset(doc.preset)
    except KeyError as exc:
        _err(str(exc.args[0]))
        return None


def _scattering_maps(doc, freq_hz):
    """Scattering maps of a document over --freq or its sweep directive."""
    if doc.preset is not None:
        preset = _preset_for(doc)
        if preset is None:
            return None
        omegas = ([TWO_PI * freq_hz] if freq_hz else [preset.params.carrier_omega])
        return [stage_scattering(preset.stage, w) for w in omegas]
    net = netlist.to_network(doc)
    if freq_hz:
        return [net.scattering(TWO_PI * freq_hz)]
    if doc.sweep is None:
        _err("document has no sweep directive; pass --freq")
        return None
    return net.sweep(doc.sweep.to_grid())


def cmd_check(args) -> int:
    tol = _resolve_tol(args)
    doc = _load_document(args.netlist)
    if doc is None:
        return 2
    if args.freq is not None and args.freq <= 0.0:
        _err("--freq must be a positive frequency in Hz")
        return 2
    maps = _scattering_maps(doc, args.freq)
    if maps is None:
        return 2
    if args.inject_gain is not None:
        maps = [m.scaled(args.inject_gain) for m in maps]
    residual = max(check_commutators(m) for m in maps)
    ok = residual < tol
    print(f"max commutator residual: {residual!r} over {len(maps)} "
          f"frequency point(s); tolerance {tol!r}: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _rows(est, temps, omega):
    """Budget rows [(name, |mu|^2, sigma)] of an estimator's noise sources."""
    return [(name, abs(mu) ** 2, thermal_occupation(omega, temps[name]))
            for name, mu in est.noise_weights().items()]


def _circuit_budget(doc, grid):
    """Noise budget of a circuit document over angular frequencies ``grid``.

    Returns the angular frequencies (F,), the noise source names (k) and
    their |mu|^2 and sigma, each (k, F).  Only the readout row is solved.
    """
    signal, readout = doc.signal, doc.readout
    if signal is None or readout is None:
        raise ValueError("a noise budget needs both a signal and a readout "
                         "designation")
    net = netlist.to_network(doc)
    maps = net.sweep(grid, outputs=(readout,))
    names = [c.name for c in maps.inputs]
    row = maps.matrices[:, 0, :].T
    beta = row[names.index(signal)]
    if not beta.all():
        raise NoTransductionError(f"readout {readout!r} has zero coefficient on "
                                  f"signal {signal!r}: no transduction")
    noise = [i for i, name in enumerate(names) if name != signal]
    temps, ws = net.channel_temperatures(), maps.omegas.tolist()
    sigma = np.array([[thermal_occupation(w, temps[names[i]]) for w in ws]
                      for i in noise])
    return (maps.omegas, [names[i] for i in noise],
            np.abs(row[noise] / beta) ** 2, sigma)


def _report_dict(freq_hz, units, rows):
    entries = [{"name": name, "mu_abs2": mu2, "sigma": sigma,
                "contribution": mu2 * sigma} for name, mu2, sigma in rows]
    total = sum(e["contribution"] for e in entries)
    for e in entries:
        e["percent"] = (100.0 * e["contribution"] / total) if total > 0.0 else 0.0
    entries.sort(key=lambda e: (-e["contribution"], e["name"]))
    return {"freq_hz": freq_hz, "total": total, "units": units,
            "convention": CONVENTION_NOTE, "sources": entries}


def _print_report_table(report) -> None:
    print(f"budget at {report['freq_hz']!r} Hz")
    print(f"units: {report['units']}")
    print(f"convention: {report['convention']}")
    width = max((len(e["name"]) for e in report["sources"]), default=6)
    width = max(width, len("source"))
    print(f"{'source'.ljust(width)}  |mu|^2  sigma  contribution  percent")
    for e in report["sources"]:
        print(f"{e['name'].ljust(width)}  {e['mu_abs2']!r}  {e['sigma']!r}  "
              f"{e['contribution']!r}  {e['percent']!r}")
    print(f"total {report['total']!r}")


def cmd_budget(args) -> int:
    doc = _load_document(args.netlist)
    if doc is None:
        return 2
    if args.freq is not None and args.freq <= 0.0:
        _err("--freq must be a positive frequency in Hz")
        return 2
    if doc.preset is not None:
        preset = _preset_for(doc)
        if preset is None:
            return 2
        params, w_t = preset.params, preset.params.carrier_omega
        g2 = preset.transduction_gain ** 2
        rows = [(accel.LANGEVIN_SOURCE, 1.0, accel.langevin_force_psd(params))]
        rows += [(name, g2 * mu2, sigma) for name, mu2, sigma in
                 _rows(stage_estimator(preset.stage, w_t),
                       preset.stage.temperatures(), w_t)]
        report = _report_dict(args.freq or params.measurement_omega / TWO_PI,
                              accel.FORCE_UNITS, rows)
    elif args.freq is None:
        _err("a positive --freq in Hz is required for circuit budgets")
        return 2
    else:
        _, names, mu2, sigma = _circuit_budget(doc, [TWO_PI * args.freq])
        rows = zip(names, mu2[:, 0].tolist(), sigma[:, 0].tolist())
        report = _report_dict(args.freq, "dimensionless quanta per mode", rows)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report_table(report)
    return 0


def cmd_sweep(args) -> int:
    doc = _load_document(args.netlist)
    if doc is None:
        return 2
    if doc.sweep is None:
        _err("document has no sweep directive")
        return 2
    if doc.preset is not None:
        _err(f"preset {doc.preset!r} is evaluated only at its carrier; "
             "sweep needs a circuit document")
        return 2
    omegas, names, mu2, sigma = _circuit_budget(doc, doc.sweep.to_grid())
    contrib = mu2 * sigma
    # Columns freq_hz, total, sources; the total adds the sources in order.
    table = np.vstack([omegas / TWO_PI, contrib.sum(axis=0), contrib])
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("freq_hz,total," + ",".join(names) + "\n")
            for lo in range(0, len(omegas), CSV_BLOCK_ROWS):
                rows = table[:, lo:lo + CSV_BLOCK_ROWS].T.tolist()
                fh.write("".join(",".join(map(repr, r)) + "\n" for r in rows))
    except OSError as exc:
        _err(str(exc))
        return 2
    print(f"wrote {len(omegas)} rows to {args.output}")
    return 0


def cmd_accel(args) -> int:
    try:
        preset = accel.preset_with_overrides(
            args.preset, mech_theta=args.theta_m, mech_damping=args.hm,
            transduction_gain=args.transduction_gain)
    except KeyError as exc:
        _err(str(exc.args[0]))
        return 2
    except ValueError as exc:
        _err(str(exc))
        return 2
    params = preset.params
    budget = accel.accelerometer_budget(params, preset.stage,
                                        preset.transduction_gain)
    sensitivity = accel.acceleration_sensitivity(params, budget.total)
    report = {
        "preset": preset.name,
        "description": preset.description,
        "mass_kg": params.mass,
        "mech_damping_kg_per_s": params.mech_damping,
        "mech_theta_K": params.mech_theta,
        "amp_noise_impedance_ohm": params.amp_noise_impedance,
        "amp_noise_theta_K": params.amp_noise_theta,
        "measurement_freq_hz": params.measurement_omega / TWO_PI,
        "carrier_freq_hz": params.carrier_omega / TWO_PI,
        "force_psd_total": budget.total,
        "force_psd_units": accel.FORCE_UNITS,
        "acceleration_sensitivity": sensitivity,
        "acceleration_sensitivity_units": "m s^-2/sqrt(Hz)",
        "detection_limited": accel.is_detection_limited(budget),
        "budget": [{"name": k, "contribution": v}
                   for k, v in budget.sorted_items()],
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"preset: {report['preset']} ({report['description']})")
    print(f"proof mass M: {params.mass!r} kg")
    print(f"mechanical damping H_m: {params.mech_damping!r} kg/s")
    print(f"mechanical bath effective temperature: {params.mech_theta!r} K")
    print(f"amplifier noise impedance: {params.amp_noise_impedance!r} Ohm")
    print(f"amplifier effective temperature: {params.amp_noise_theta!r} K")
    print(f"force noise PSD total: {budget.total!r} {accel.FORCE_UNITS}")
    print(f"acceleration sensitivity: {sensitivity!r} m s^-2/sqrt(Hz)")
    if report["detection_limited"]:
        print("detection-limited: detection noise exceeds the mechanical "
              "Langevin term")
    print("budget:")
    for k, v in budget.sorted_items():
        share = 100.0 * v / budget.total if budget.total > 0 else 0.0
        print(f"  {k}  {v!r}  {share!r}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qunet",
        description="Frequency-domain quantum network noise analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify quantum consistency of a netlist")
    p_check.add_argument("netlist")
    p_check.add_argument("--freq", type=float, default=None,
                         help="single check frequency in Hz (overrides sweep)")
    p_check.add_argument("--tol", type=float, default=None,
                         help=f"residual tolerance (default {DEFAULT_TOLERANCE}, "
                              "or QUNET_TOL)")
    p_check.add_argument("--inject-gain", type=float, default=None,
                         help="test hook: scale the scattering matrix")
    p_check.set_defaults(func=cmd_check)

    p_budget = sub.add_parser("budget", help="per-source noise budget at one frequency")
    p_budget.add_argument("netlist")
    p_budget.add_argument("--freq", type=float, default=None,
                          help="frequency in Hz")
    p_budget.add_argument("--json", action="store_true")
    p_budget.set_defaults(func=cmd_budget)

    p_sweep = sub.add_parser("sweep", help="budget over the netlist sweep grid, CSV")
    p_sweep.add_argument("netlist")
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_accel = sub.add_parser("accel", help="accelerometer preset report")
    p_accel.add_argument("--preset", default="microscope")
    p_accel.add_argument("--theta-m", type=float, default=None,
                         help="override the mechanical effective temperature (K)")
    p_accel.add_argument("--hm", type=float, default=None,
                         help="override the mechanical damping (kg/s)")
    p_accel.add_argument("--transduction-gain", type=float, default=None,
                         help="force per normalized detection field unit (N)")
    p_accel.add_argument("--json", action="store_true")
    p_accel.set_defaults(func=cmd_accel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
