"""Set-up probe: time one request in a fresh interpreter.

Usage: ``python3 probe.py <checkout root> <request.json>``.  Prints one JSON
line with ``setup_s``, the time from ``import qunet.cli`` to the end of the
request, and the request's outcome for the oracle.
"""

import dataclasses
import importlib
import json
import os
import sys
import time


def main(root: str, request_path: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    from qbench.execute import execute  # imports no qunet module

    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    t0 = time.perf_counter()
    importlib.import_module("qunet.cli")
    try:
        outcome, error = dataclasses.asdict(execute(req)), None
    except Exception as exc:  # reported to the parent as a failed request
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "outcome": outcome, "error": error}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
