"""Send one request to qunet, in process.

CLI requests go through ``qunet.cli.main(argv)`` with standard output and
error captured; API requests build the README objects and call the public
function.  Every qunet name is looked up on its module at call time, so the
tracer's wrappers are seen.  qunet is imported on the first request, which
is what the set-up probe times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass


@dataclass
class Outcome:
    code: int | None = None      # exit code of a CLI request
    stdout: str = ""
    stderr: str = ""
    value: object = None         # plain-data result of an API request


def execute(req: dict) -> Outcome:
    if req["op"] == "cli":
        cli = importlib.import_module("qunet.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req["argv"]))
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())
    return Outcome(value=_API[req["op"]](importlib.import_module("qunet"), req))


def _stage(qunet, s: dict):
    kind, value = s["fb"]
    feedback = {"X": qunet.Feedback.reactance, "C": qunet.Feedback.capacitive,
                "L": qunet.Feedback.inductive}[kind](value)
    return qunet.OpAmpStage(r_left=s["r_l"], r_right=s["r_r"],
                            noise_impedance=s["r_a"], feedback=feedback,
                            noise_temp=s["t_a"], conj_temp=s["t_ap"],
                            readout_temp=s["t_r"])


def _omega(req: dict) -> float:
    return 2.0 * math.pi * req["freq"]


def _budget(b) -> dict:
    return {"total": b.total, "contributions": dict(b.contributions)}


def _stage_added_noise(qunet, req):
    return _budget(qunet.stage_added_noise(_stage(qunet, req["stages"][0]), _omega(req)))


def _chain(qunet, req):
    return qunet.StageChain(tuple(_stage(qunet, s) for s in req["stages"]))


def _chain_added_noise(qunet, req):
    return _budget(qunet.chain_added_noise(_chain(qunet, req), _omega(req)))


def _downstream_noise_fraction(qunet, req):
    return qunet.downstream_noise_fraction(_chain(qunet, req), _omega(req))


def _matching_scan(qunet, req):
    res = qunet.matching_scan(_stage(qunet, req["stages"][0]), req["grid"], _omega(req))
    return {"noise_impedance": res.noise_impedance, "index": res.index,
            "sigmas": list(res.sigmas)}


_API = {"stage_added_noise": _stage_added_noise,
        "chain_added_noise": _chain_added_noise,
        "downstream_noise_fraction": _downstream_noise_fraction,
        "matching_scan": _matching_scan}
