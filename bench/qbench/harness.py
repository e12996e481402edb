"""Measure one workload run and report it.

An untraced run (``trace=False``) gives the end-to-end metrics:

* the workload's first request as a warm-up, then a closed loop of
  requests for ``seconds`` of wall time.  Request times are converted to
  the reference pace of ``refclock``, so that the host's swings in speed
  cancel out; the same figures on plain wall time go to the record and the
  report, not to the result line.  Only the time inside requests counts;
  checking outputs happens between them.  ``points_per_s`` is
  frequency points per second (CSV rows on the sweeps, points a request
  asks for on the mix), ``requests_per_s`` completed requests per second,
  ``latency_p50_ms`` and ``latency_tail_ms`` the median and the workload's
  tail percentile, ``peak_rss_mb`` this process's peak resident memory;
* ``setup_s``: median over fresh interpreters of the time from
  ``import qunet.cli`` to the end of the workload's first request, scaled
  to the reference pace by kernel runs just before and after it.  These
  set-up probes are spread through the loop (see ``SetupProbes``), so they
  sample the same stretch of time as the other metrics; their own time is
  not counted in ``seconds``.

A traced run gives the per-layer metrics: the same loop with the tracer
installed for half of ``seconds``, then the same requests again untraced
for the tracing overhead.  Every output of either run goes through the
oracle; a failure is counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from . import oracle, workloads
from .execute import Outcome, execute
from .refclock import RefClock
from .tracer import Tracer

SETUP_MOST = 15               # set-up probes per run, at most
SETUP_SHARE = 0.3             # probe time, at most, as a share of loop time
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "requests_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


class Tally:
    """Requests attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, req: dict, outcome: Outcome | None, error: str | None = None) -> None:
        self.attempted += 1
        if error is None:
            try:
                oracle.verify(req, outcome)
                return
            except Exception as exc:  # any oracle complaint is a failed request
                error = f"{type(exc).__name__}: {exc}"
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{' '.join(req.get('argv', [req['op']]))}: {error}")


def _send(req: dict) -> tuple[Outcome | None, str | None, tuple[float, float]]:
    """Send one request; returns its outcome, error and (start, end) wall time."""
    t0 = time.perf_counter()
    try:
        outcome, error = execute(req), None
    except Exception as exc:  # a request that raises is a failed request
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return outcome, error, (t0, time.perf_counter())


def _emitted(req: dict, outcome: Outcome | None) -> int:
    if outcome is None:
        return 0
    size = len(outcome.stdout.encode("utf-8")) + len(outcome.stderr.encode("utf-8"))
    if "csv" in req and os.path.exists(req["csv"]):
        size += os.path.getsize(req["csv"])
    return size


def closed_loop(requests: list, seconds: float, tally: Tally, tracer: Tracer | None = None,
                probes: SetupProbes | None = None):
    """Send requests one after another for ``seconds``, not counting the time
    of set-up ``probes`` run between them; returns (sent, (start, end) wall
    time of each)."""
    sent, spans = [], []
    start = time.perf_counter()
    i = 1 % len(requests)
    while True:
        if probes is not None:
            probes.between(time.perf_counter() - start - probes.spent)
        req = requests[i]
        i = (i + 1) % len(requests)
        if tracer is not None:
            tracer.request = len(sent)
        outcome, error, span = _send(req)
        if tracer is not None:
            tracer.counts["bytes_emitted"] += _emitted(req, outcome)
        sent.append(req)
        spans.append(span)
        tally.check(req, outcome, error)
        if time.perf_counter() - start - (probes.spent if probes else 0.0) >= seconds:
            return sent, spans


def percentile(values: list, p: float) -> float:
    """Linear interpolation between order statistics; p = 100 is the maximum."""
    s = sorted(values)
    k = (len(s) - 1) * min(p, 100.0) / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def probe_setup(root: str, path: str, req: dict, tally: Tally) -> float | None:
    """Set-up time of one fresh interpreter running the request saved at
    ``path``; None if the probe failed."""
    try:
        proc = subprocess.run([sys.executable, PROBE, root, path], cwd=root,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.check(req, None, f"set-up probe exceeded {PROBE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tally.check(req, None, f"set-up probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return None
    try:
        data = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tally.check(req, None, f"set-up probe printed no result: {proc.stdout[-300:]!r}")
        return None
    outcome = None if data["outcome"] is None else Outcome(**data["outcome"])
    tally.check(req, outcome, data["error"])
    return data["setup_s"]


class SetupProbes:
    """Set-up probes spread evenly through a loop of ``seconds``.

    One runs before the first request; later ones fall due every
    ``seconds / SETUP_MOST`` of loop time, and a due probe waits while probes
    have taken more than ``SETUP_SHARE`` of the loop's time so far.  A cheap
    probe (the mix) thus runs SETUP_MOST times, an expensive one (a whole
    sweep) every few sweeps, and a very short run probes once.
    """

    def __init__(self, root: str, workdir: str, req: dict, tally: Tally, seconds: float,
                 clock: RefClock):
        self.root, self.req, self.tally, self.clock = root, req, tally, clock
        self.path = os.path.join(workdir, "probe_request.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        self.interval = seconds / SETUP_MOST
        self.probes = 0
        self.spent = 0.0
        self.samples: list[float] = []      # set-up times, wall
        self.spans: list[tuple[float, float]] = []    # wall time of each probe

    def between(self, elapsed: float) -> None:
        """Run a probe if one is due ``elapsed`` seconds into the loop."""
        if (self.probes >= SETUP_MOST or elapsed < self.probes * self.interval
                or self.spent > SETUP_SHARE * elapsed):
            return
        t0 = time.perf_counter()
        with self.clock.held():
            t1 = time.perf_counter()
            setup = probe_setup(self.root, self.path, self.req, self.tally)
            span = (t1, time.perf_counter())
        self.spent += time.perf_counter() - t0
        self.probes += 1
        if setup is not None:
            self.samples.append(setup)
            self.spans.append(span)


def run(name: str, seed: int, seconds: float, trace: bool, root: str, scratch: str,
        scale: str = "full") -> dict:
    """One benchmark run of the checkout at ``root``, writing only under
    ``scratch``; returns metrics, tallies and provenance."""
    workdir = os.path.join(scratch, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.generate(name, seed, workdir, scale)
        tally = Tally()
        outcome, error, _ = _send(wl.requests[0])     # warm-up, untimed
        tally.check(wl.requests[0], outcome, error)
        if trace:
            metrics, samples = _traced(wl, seconds, tally, scratch, name)
        else:
            metrics, samples = _untraced(wl, seconds, tally, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace, "metrics": metrics,
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_ratio": tally.failed / tally.attempted,
            "failures": tally.messages, "samples": samples,
            "provenance": provenance(root)}


def _untraced(wl, seconds, tally, root, workdir):
    clock = RefClock()
    probes = SetupProbes(root, workdir, wl.requests[0], tally, seconds, clock)
    with clock.running():
        sent, spans = closed_loop(wl.requests, seconds, tally, probes=probes)
    lat = clock.reference(spans)
    wall = [end - start for start, end in spans]
    # Each probe at the pace of the stretch between kernel runs it ran in.
    setups = [setup * ref / (end - start) for setup, ref, (start, end)
              in zip(probes.samples, clock.reference(probes.spans), probes.spans)]
    points = sum(r["points"] for r in sent)
    tail = wl.tail_percentile
    metrics = {
        # 0 only when every probe crashed, and then the run is not correct.
        "setup_s": statistics.median(setups) if setups else 0.0,
        **_timings(lat, points, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_metrics = {
        "setup_s": statistics.median(probes.samples) if setups else 0.0,
        **_timings(wall, points, tail),
    }
    tail_value = percentile(lat, tail)
    samples = {"requests": len(lat), "points": points,
               "points_per_request": points / len(lat), "setup_samples": len(setups),
               "tail": "max" if tail >= 100.0 else f"p{tail:g}",
               "tail_samples_beyond": sum(1 for x in lat if x > tail_value),
               "kernel_runs": len(clock.kernels),
               "kernel_ms_quartiles": [x * 1e3
                                       for x in statistics.quantiles(clock.durations(), n=4)],
               "wall_clock": wall_metrics,
               "latencies_ms": [x * 1e3 for x in lat],
               "wall_latencies_ms": [x * 1e3 for x in wall],
               "setup_samples_s": setups, "wall_setup_samples_s": probes.samples}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples


def _timings(lat: list, points: int, tail: float) -> dict:
    busy = sum(lat)
    return {"points_per_s": points / busy, "requests_per_s": len(lat) / busy,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": percentile(lat, tail) * 1e3}


def _traced(wl, seconds, tally, scratch, name):
    tracer = Tracer()
    tracer.install()
    try:
        sent, spans = closed_loop(wl.requests, seconds / 2.0, tally, tracer)
    finally:
        tracer.uninstall()
    traced = [end - start for start, end in spans]
    plain = []
    for req in sent:
        outcome, error, (start, end) = _send(req)
        plain.append(end - start)
        tally.check(req, outcome, error)
    spans_dir = os.path.join(scratch, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.dump(os.path.join(spans_dir, f"{name}.npz"))
    metrics = tracer.per_request(len(sent))
    metrics["trace.overhead_s"] = ((sum(traced) - sum(plain)) / len(sent), "s/req")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    samples = {"requests": len(sent), "spans": len(tracer.span_start),
               "missing_names": tracer.missing,
               "counter_failures": sorted(tracer.counter_failures)}
    return metrics, samples


def provenance(root: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {"git_commit": _git_commit(root), "src_sha256": _tree_hash(os.path.join(root, "src")),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_version, "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def _git_commit(root: str) -> str | None:
    """HEAD of the git checkout at ``root``; None when ``root`` is not the top
    of a git checkout (not a repository below some other one's) or git is
    missing."""
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(root) else None


def _tree_hash(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            full = os.path.join(dirpath, f)
            h.update(os.path.relpath(full, path).encode("utf-8") + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, asked through the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def report(result: dict, out=sys.stdout) -> None:
    """Print every metric by name with its unit, then the one-line JSON result."""
    s = result["samples"]
    print(f"# qunet benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}", file=out)
    print(f"# provenance {json.dumps(result['provenance'], sort_keys=True)}", file=out)
    counts = {k: v for k, v in s.items()
              if k != "wall_clock" and not k.endswith(("latencies_ms", "samples_s"))}
    print(f"# samples {json.dumps(counts, sort_keys=True)}", file=out)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:28s} {value!r} {unit}", file=out)
    for name, value in s.get("wall_clock", {}).items():
        print(f"{'wall-clock ' + name:28s} {value!r} {END_TO_END_UNITS[name]}", file=out)
    print(f"{'fail_ratio':28s} {result['fail_ratio']!r} "
          f"({result['failed']} of {result['attempted']} requests)", file=out)
    for msg in result["failures"]:
        print(f"# failure: {msg}", file=out)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    print(json.dumps(line), file=out)
