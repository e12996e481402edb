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
import re
import sys
from itertools import groupby

import numpy as np

from . import accelerometer as accel
from . import netlist
from .amplifier import NoiseBudget, stage_scattering
from .network import DEFAULT_TOLERANCE, NoTransductionError, commutator_residual
from .spectra import require_finite, thermal_occupation

TWO_PI = 2.0 * math.pi

CSV_BLOCK_ROWS = 1024            # sweep CSV rows formatted and written at a time

COMMANDS = ("check", "budget", "sweep", "accel")

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


def _option(value, flag: str, low: float = 0.0) -> float | None:
    """A numeric option, None when absent; ValueError unless finite > ``low``."""
    return None if value is None else require_finite(value, flag, low=low)


def _freq(args) -> float | None:
    """--freq in Hz, None when absent; ValueError unless finite > 0, as is 2*pi*f."""
    freq = _option(args.freq, "--freq")
    if freq is None or TWO_PI * freq < math.inf:
        return freq
    raise ValueError(f"--freq {freq!r} Hz overflows as 2*pi*f")


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return netlist.parse(fh.read())


def cmd_check(args) -> int:
    tol, freq = _resolve_tol(args), _freq(args)
    gain = _option(args.inject_gain, "--inject-gain", low=-math.inf)
    doc = _load_document(args.netlist)
    if doc.preset is not None:      # its detection stage, at the carrier
        preset = accel.get_preset(doc.preset)
        solved = stage_scattering(preset.stage, preset.params.carrier_omega
                                  if freq is None else TWO_PI * freq)
        s = solved.matrix[None]
    else:
        net = netlist.to_network(doc)
        if freq is None and doc.sweep is None:
            raise ValueError("document has no sweep directive; pass --freq")
        solved = net.sweep(doc.sweep.to_grid() if freq is None else [TWO_PI * freq])
        s = solved.matrices
    if gain is not None:
        with np.errstate(over="ignore"):    # an overflowed S fails the check
            s = s * gain
    residual = commutator_residual(s, [c.signature for c in solved.inputs],
                                   [c.signature for c in solved.outputs])
    ok = residual < tol
    print(f"max commutator residual: {residual!r} over {len(s)} "
          f"frequency point(s); tolerance {tol!r}: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _circuit_budget(doc, grid) -> tuple[list, list, np.ndarray, np.ndarray, np.ndarray]:
    """Over ascending angular frequencies ``grid``, the noise source names,
    the sources the readout reaches (those of its part), their |mu|^2 and
    sigma (r, F), and every source's sigma at the first point (k,).
    The others' |mu|^2 is 0."""
    signal, readout = doc.signal, doc.readout
    if signal is None or readout is None:
        raise ValueError("a noise budget needs both a signal and a readout "
                         "designation")
    net = netlist.to_network(doc)
    maps = net.sweep(grid, (readout,))
    inputs = [c.name for c in maps.inputs]
    row = maps.matrices[:, 0, :].T
    if signal not in inputs or not (beta := row[inputs.index(signal)]).all():
        raise NoTransductionError(f"readout {readout!r} has zero coefficient on "
                                  f"signal {signal!r}: no transduction")
    names = [c.name for c in net.input_channels if c.name != signal]
    reached = [name for name in inputs if name != signal]
    x = row[[i for i, name in enumerate(inputs) if name != signal]]
    with np.errstate(over="ignore", invalid="ignore"):
        mu2 = np.abs(np.divide(x, beta, out=x))
        np.square(mu2, out=mu2)
    # Every source at the first point, where it refuses if anywhere (at a
    # fixed T, sigma leaves double range only below some omega); then the reached.
    temps = net.channel_temperatures()
    t = np.array([temps[name] for name in names])[:, None]
    sigma = thermal_occupation(maps.omegas[None, :1], t)
    first, at = sigma[:, 0], [names.index(n) for n in reached]
    sigma = sigma[at] if len(beta) == 1 else thermal_occupation(maps.omegas[None, :], t[at])
    return names, reached, mu2, sigma, first


def _report_dict(freq_hz, units, budget: NoiseBudget):
    shares = budget.shares()
    entries = [{"name": name, "mu_abs2": budget.mu_abs2[name],
                "sigma": budget.sigma[name], "contribution": value,
                "percent": shares[name]} for name, value in budget.sorted_items()]
    return {"freq_hz": freq_hz, "total": budget.total, "units": units,
            "convention": CONVENTION_NOTE, "sources": entries}


_SCALARS = json.JSONEncoder(separators=(",\n  ", ": ")).encode
_ENTRIES = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _json_text(report: dict) -> str:
    """``json.dumps(report, indent=2)``, written by the C encoder.

    ``report`` is a non-empty dict with str keys whose values are scalars or
    lists of non-empty flat dicts of scalars.  Each run of scalars and each
    list is encoded in one call, with the indented line break as item
    separator.  A string holds no raw newline, so one list entry ends where
    ``},`` and a line break follow each other.
    """
    fields = []
    for is_list, items in groupby(report.items(), lambda kv: isinstance(kv[1], list)):
        if not is_list:
            fields.append(_SCALARS(dict(items))[1:-1])
            continue
        for key, value in items:
            entries = _ENTRIES(value)[2:-2].replace("},\n      {",
                                                    "\n    },\n    {\n      ")
            value = f"[\n    {{\n      {entries}\n    }}\n  ]" if value else "[]"
            fields.append(f"{_SCALARS(key)}: {value}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


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
    freq = _freq(args)
    doc = _load_document(args.netlist)
    if doc.preset is not None:
        preset = accel.get_preset(doc.preset)
        budget = accel.accelerometer_budget(preset.params, preset.stage,
                                            preset.transduction_gain)
        report = _report_dict(budget.omega / TWO_PI, accel.FORCE_UNITS, budget)
    elif freq is None:
        raise ValueError("a positive --freq in Hz is required for circuit budgets")
    else:
        names, reached, mu2, _, sigma = _circuit_budget(doc, [TWO_PI * freq])
        mu_abs2 = dict.fromkeys(names, 0.0) | dict(zip(reached, mu2[:, 0].tolist()))
        budget = NoiseBudget(TWO_PI * freq, mu_abs2, dict(zip(names, sigma.tolist())))
        report = _report_dict(freq, "dimensionless quanta per mode", budget)
    if args.json:
        print(_json_text(report))
    else:
        _print_report_table(report)
    return 0


def cmd_sweep(args) -> int:
    doc = _load_document(args.netlist)
    if doc.sweep is None:
        raise ValueError("document has no sweep directive")
    if doc.preset is not None:
        raise ValueError(f"preset {doc.preset!r} is evaluated only at its carrier; "
                         "sweep needs a circuit document")
    grid = doc.sweep.to_grid()
    names, reached, mu2, sigma, _ = _circuit_budget(doc, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # the budget names an overflow
        budget = NoiseBudget(grid, dict(zip(reached, mu2)), dict(zip(reached, sigma)))
    columns = [grid / TWO_PI, budget.total, *(budget.contributions.get(n, 0.0) for n in names)]
    from ._floatrepr import csv_rows        # only a sweep needs its tables
    with open(args.output, "wb") as fh:
        fh.write(("freq_hz,total," + ",".join(names) + "\n").encode())
        for lo in range(0, len(grid), CSV_BLOCK_ROWS):
            fh.write(csv_rows([c if type(c) is float else c[lo:lo + CSV_BLOCK_ROWS]
                               for c in columns]))
    print(f"wrote {len(grid)} rows to {args.output}")
    return 0


def cmd_accel(args) -> int:
    preset = accel.preset_with_overrides(
        args.preset, mech_theta=args.theta_m, mech_damping=args.hm,
        transduction_gain=args.transduction_gain)
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
        print(_json_text(report))
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
    shares = budget.shares()
    for k, v in budget.sorted_items():
        print(f"  {k}  {v!r}  {shares[k]!r}%")
    return 0


# A negative number, exponent notation included: argparse's own pattern
# has no exponent, so it took "-1e-3" for an option name.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e-3`` as a value, as it reads ``-1``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the arguments after ``command``, or of all of ``qunet``.

    A command's standalone parser, prog ``qunet <command>``, prints what the
    full parser's subcommand prints.  Only the full parser (None) prints the
    top-level usage, for ``--help``, no or an unknown command, ``--`` or leftovers.
    """
    if command is None:
        parser = _Parser(
            prog="qunet",
            description="Frequency-domain quantum network noise analysis")
        new = parser.add_subparsers(dest="command", required=True).add_parser
    else:
        def new(name, help):
            return _Parser(prog=f"qunet {name}")

    if command in (None, "check"):
        p = new("check", help="verify quantum consistency of a netlist")
        p.add_argument("netlist")
        p.add_argument("--freq", type=float, default=None,
                       help="single check frequency in Hz (overrides sweep)")
        p.add_argument("--tol", type=float, default=None,
                       help=f"residual tolerance (default {DEFAULT_TOLERANCE}, "
                            "or QUNET_TOL)")
        p.add_argument("--inject-gain", type=float, default=None,
                       help="test hook: scale the scattering matrix")
        p.set_defaults(func=cmd_check)

    if command in (None, "budget"):
        p = new("budget", help="per-source noise budget at one frequency")
        p.add_argument("netlist")
        p.add_argument("--freq", type=float, default=None, help="frequency in Hz")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_budget)

    if command in (None, "sweep"):
        p = new("sweep", help="budget over the netlist sweep grid, CSV")
        p.add_argument("netlist")
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=cmd_sweep)

    if command in (None, "accel"):
        p = new("accel", help="accelerometer preset report")
        p.add_argument("--preset", default="microscope")
        p.add_argument("--theta-m", type=float, default=None,
                       help="override the mechanical effective temperature (K)")
        p.add_argument("--hm", type=float, default=None,
                       help="override the mechanical damping (kg/s)")
        p.add_argument("--transduction-gain", type=float, default=None,
                       help="force per normalized detection field unit (N)")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_accel)
    return parser if command is None else p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # The full parser reports what a command's own parser leaves over.
        extra = True
        if argv and argv[0] in COMMANDS:
            args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
        if extra:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except netlist.NetlistError as exc:
        for issue in exc.issues:
            _err(str(issue))
    except KeyError as exc:     # str() of a KeyError quotes its message
        _err(str(exc.args[0]))
    except (ValueError, RuntimeError, OSError) as exc:
        _err(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
