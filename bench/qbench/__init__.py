"""Benchmark of the qunet command line and Python API.

``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against the package in ``src/`` and prints its metrics.
The modules here drive qunet only from outside: ``workloads`` makes the
seeded inputs, ``execute`` sends one request, ``oracle`` checks its output
against closed forms, ``tracer`` times each qunet layer, ``refclock``
converts wall time to the pace of a fixed reference kernel, ``harness``
measures and reports, ``probe`` times set-up in a fresh interpreter.
"""
