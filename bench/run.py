"""Run one workload of the qunet benchmark against the package in ``src/``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep-stage, sweep-array, interactive-mix (see
``qbench/workloads.py`` for why each exists).  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Every metric is
printed by name with its unit, then the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance and sample counts, goes to ``.bench_work/results/``.
Exit codes: 0 measured (outputs checked), 2 no qunet source to measure,
3 invalid generated input.
"""

import os

# All load comes from one thread: pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_work")


def main(argv=None) -> int:
    sys.path[:0] = [SRC, BENCH]
    from qbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qunet", "__init__.py")):
        print(f"error: no qunet package under {SRC}", file=sys.stderr)
        return 2
    import qunet

    if os.path.dirname(os.path.dirname(os.path.abspath(qunet.__file__))) != SRC:
        print(f"error: imported qunet from {qunet.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from qbench import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT, SCRATCH)
    except workloads.GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    results = os.path.join(SCRATCH, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    harness.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
