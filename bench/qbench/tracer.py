"""Per-layer spans around qunet's public functions, installed from outside.

:class:`Tracer` wraps, by attribute, every public function and public
method of each layer module (``qunet.cli``, ``qunet.netlist``, ...), then
rebinds every other qunet attribute that names the same function, such as
``qunet.cli.thermal_occupation`` or ``qunet.cascade.stage_estimator``.
Wrappers pass arguments, return values and exceptions through unchanged.
Each call records a span (name, start, end, parent span, request id) in
flat in-memory arrays, written out by :meth:`Tracer.dump` at the end.

A layer's busy time is the wall time covered by its outermost spans; its
self time is the sum over its spans of their duration minus the wrapped
child spans' durations.  The counters below are taken at the same
wrappers.  Names listed in ``EXPECTED`` but absent at a given commit are
reported as missing and count as never called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "netlist", "spectra", "network", "amplifier", "cascade",
          "accelerometer")

# Public names the counters read.  A missing one is recorded, not an error.
EXPECTED = (
    "cli.main", "cli.build_parser",
    "netlist.parse", "netlist.to_network",
    "spectra.thermal_occupation", "spectra.FrequencyGrid.log_hz",
    "spectra.FrequencyGrid.linear_hz",
    "network.QuantumNetwork.__init__", "network.QuantumNetwork.scattering",
    "network.QuantumNetwork.sweep", "network.ScatteringMap.row",
    "network.check_commutators", "network.estimator_from_scattering",
    "amplifier.stage_estimator", "amplifier.stage_added_noise",
    "amplifier.matching_scan",
    "cascade.chain_estimator", "cascade.chain_added_noise",
    "cascade.downstream_noise_fraction",
    "accelerometer.accelerometer_budget", "accelerometer.preset_with_overrides",
)

# Constructors are dunders, so only those named here are wrapped.
_CONSTRUCTORS = {"network.QuantumNetwork.__init__"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = -1
        self.missing: list[str] = []
        self.counter_failures: set[str] = set()
        n = len(LAYERS)
        self.calls, self.errors = [0] * n, [0] * n
        self.busy, self.self_time = [0.0] * n, [0.0] * n
        self._depth = [0] * n
        self._stack: list[int] = []        # open span ids
        self._child: list[float] = []      # wrapped child time of each open span
        self.counts = {"points": 0, "unknown_points": 0, "flops": 0.0, "bytes": 0.0,
                       "rows_solved": 0, "rows_read": 0, "check_points": 0,
                       "occupation_calls": 0, "grid_points": 0, "bytes_parsed": 0,
                       "parser_builds": 0, "bytes_emitted": 0, "stages": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind their aliases."""
        wrappers: dict[int, object] = {}
        found: set[str] = set()
        for layer_id, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"qunet.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self._wrap(span, layer_id, obj)
                    found.add(span)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        if attr.startswith("_") and span not in _CONSTRUCTORS:
                            continue
                        new = self._wrap_member(span, layer_id, raw)
                        if new is not None:
                            self._set(obj, attr, new)
                            found.add(span)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qunet" or mod_name.startswith("qunet.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._set(mod, attr, wrapper)
        self.missing = [n for n in EXPECTED if n not in found]

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_member(self, span: str, layer_id: int, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(span, layer_id, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(span, layer_id, raw.__func__))
        if inspect.isfunction(raw):
            return self._wrap(span, layer_id, raw)
        return None

    def _wrap(self, span: str, layer_id: int, fn):
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        count = _COUNTERS.get(span)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_id, layer_id, count, fn, args, kwargs)

        return wrapper

    # -- recording -----------------------------------------------------------

    def _call(self, name_id, layer_id, count, fn, args, kwargs):
        sid = len(self.span_start)
        outermost = self._depth[layer_id] == 0
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self.request)
        self._stack.append(sid)
        self._child.append(0.0)
        self._depth[layer_id] += 1
        self.calls[layer_id] += 1
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[layer_id] += 1
            raise
        else:
            if count is not None:
                try:
                    count(self, outermost, args, result)
                except Exception:
                    # A counter must never change what the program returns.
                    self.counter_failures.add(self.names[name_id])
            return result
        finally:
            t1 = time.perf_counter()
            self.span_end[sid] = t1
            dur = t1 - t0
            self._stack.pop()
            self.self_time[layer_id] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur
            self._depth[layer_id] -= 1
            if outermost:
                self.busy[layer_id] += dur

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (numpy .npz, span names as JSON)."""
        import numpy as np

        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 request=np.frombuffer(self.span_request, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    # -- report --------------------------------------------------------------

    def per_request(self, requests: int) -> dict:
        """Per-layer metrics, normalised per traced request: {name: (value, unit)}."""
        n = max(requests, 1)
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[i] / n, "count/req")
            out[f"{layer}.busy_s"] = (self.busy[i] / n, "s/req")
            out[f"{layer}.self_s"] = (self.self_time[i] / n, "s/req")
            out[f"{layer}.errors"] = (self.errors[i] / n, "count/req")
        c = self.counts
        out["network.points"] = (c["points"] / n, "count/req")
        out["network.unknowns"] = (c["unknown_points"] / max(c["points"], 1), "count/point")
        out["network.solve_flops"] = (c["flops"] / n, "flop_calc/req")
        out["network.solve_bytes"] = (c["bytes"] / n, "byte_calc/req")
        out["network.rows_used_ratio"] = (c["rows_read"] / max(c["rows_solved"], 1), "ratio")
        out["network.check_points"] = (c["check_points"] / n, "count/req")
        out["spectra.occupation_calls"] = (c["occupation_calls"] / n, "count/req")
        out["spectra.grid_points"] = (c["grid_points"] / n, "count/req")
        out["netlist.bytes_parsed"] = (c["bytes_parsed"] / n, "B/req")
        out["cli.parser_builds"] = (c["parser_builds"] / n, "count/req")
        out["cli.bytes_emitted"] = (c["bytes_emitted"] / n, "B/req")
        out["cascade.stages"] = (c["stages"] / n, "count/req")
        out["trace.spans"] = (len(self.span_start) / n, "count/req")
        return out


# -- counters: (tracer, outermost span of its layer, args, result) -------------

def _solved(t: Tracer, net, maps) -> None:
    """Points, unknowns and the computed LU cost of solving ``maps`` on ``net``."""
    n = len(net.nodes) + len(net.ports) + len(net.opamps)
    rows, k = maps[0].matrix.shape
    points = len(maps)
    c = t.counts
    c["points"] += points
    c["unknown_points"] += n * points
    c["rows_solved"] += rows * points
    # Complex LU (8/3 n^3 real flops) plus k triangular solve pairs (8 n^2 k);
    # bytes: A, B and X once each, 16 bytes per complex entry.
    c["flops"] += (8.0 / 3.0 * n ** 3 + 8.0 * n * n * k) * points
    c["bytes"] += 16.0 * (n * n + 2 * n * k) * points


def _scattering(t, outermost, args, result):
    if outermost:
        _solved(t, args[0], [result])


def _sweep(t, outermost, args, result):
    if outermost:
        _solved(t, args[0], list(result))


def _count(key, amount=lambda args, result: 1, outermost_only=False):
    def count(t, outermost, args, result):
        if outermost or not outermost_only:
            t.counts[key] += amount(args, result)
    return count


_chain_stages = _count("stages", lambda a, r: len(getattr(a[0], "stages", ())),
                       outermost_only=True)

_COUNTERS = {
    "network.QuantumNetwork.scattering": _scattering,
    "network.QuantumNetwork.sweep": _sweep,
    "network.ScatteringMap.row": _count("rows_read"),
    "network.check_commutators": _count("check_points", outermost_only=True),
    "spectra.thermal_occupation": _count("occupation_calls"),
    "spectra.FrequencyGrid.log_hz": _count("grid_points", lambda a, r: len(r)),
    "spectra.FrequencyGrid.linear_hz": _count("grid_points", lambda a, r: len(r)),
    "netlist.parse": _count("bytes_parsed", lambda a, r: len(a[0].encode("utf-8"))),
    "cli.build_parser": _count("parser_builds"),
    "cascade.chain_estimator": _chain_stages,
    "cascade.chain_added_noise": _chain_stages,
    "cascade.downstream_noise_fraction": _chain_stages,
}
