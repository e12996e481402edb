"""Mutants of the package that named tests must kill.

Each entry of ``MUTANTS`` is (file under ``src/``, exact old text, new text,
the tests that must fail).  Run from the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, runs every named test there once on the intact copy,
then applies each mutant in turn and runs only its tests, with Hypothesis
seeded so that every run draws the same examples, and under the ``mutants``
profile of ``tests/conftest.py``, which does not shrink a failing example.
It exits 1 if a named test fails on the intact copy, if an old text is not
found exactly once in its file, or if a mutant leaves any of its tests
passing.  A refactor that changes an old text must update its entry.
Standard library only; pytest and the test dependencies must be installed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP = "tests/test_sweep.py"
FLOATREPR = "tests/test_floatrepr.py"
FMT = "qunet/_floatrepr.py"
CHAIN_BOUND = "tests/test_properties.py::test_chain_meets_the_amplifier_bound"

MUTANTS = [
    # An unread part's pivot mu(w) is refused only where it is 0: a non-finite
    # one, where an entry of its row V(w) overflows, is taken as 1.
    ("qunet/network.py",
     "    return [yp[:, 0].T for yp in y]\n",
     "    return [yp[:, 0].T if yp.shape[1] > 1 else\n"
     "            np.where(np.isfinite(yp[:, 0]), yp[:, 0], 1.0).T for yp in y]\n",
     [f"{SWEEP}::test_an_unread_part_that_overflows_still_raises",
      f"{SWEEP}::test_one_row_raises_where_every_row_does"]),
    # An unread part's pivot is refused only where it is not finite, not at 0.
    ("qunet/network.py",
     "    return [yp[:, 0].T for yp in y]\n",
     "    return [yp[:, 0].T if yp.shape[1] > 1 else np.isfinite(yp[:, 0]).T for yp in y]\n",
     [f"{SWEEP}::test_a_singular_unread_part_raises_at_its_point"]),
    # The rank-one fold sums over the unknowns in reverse order.  The random
    # test_sweep_equals_the_dense_oracle_bit_for_bit kills it in about half
    # of its runs only: a stage's sums rarely hold three nonzero terms.
    ("qunet/network.py",
     "    for i in range(x.shape[1]):\n",
     "    for i in reversed(range(x.shape[1])):\n",
     [f"{SWEEP}::test_a_one_node_part_sweep_equals_the_dense_oracle_bit_for_bit"]),
    # The sum of V0 taken once per sweep stops one unknown short of the first
    # that varies.  Where that first unknown k is not 0 (an op-amp stage's
    # feedback current) the term lost is a line's column, 0 in V0; where k is
    # 0 the slice ends at m - 1 and the fold adds those terms twice.
    ("qunet/network.py",
     "                head = _fold(rows[0, :, :k, None, None], nx[:, :k, :, None])\n",
     "                head = _fold(rows[0, :, :k - 1, None, None], nx[:, :k - 1, :, None])\n",
     [f"{SWEEP}::test_a_one_node_part_sweep_equals_the_dense_oracle_bit_for_bit"]),
    # The first unknown the fold forms is not capped at the last: a part
    # without varying entries forms none, and is finite where 0/w is NaN.
    ("qunet/network.py",
     "np.append(rows[1:].any(axis=(0, 1))[:-1], True)",
     "np.append(rows[1:].any(axis=(0, 1)), True)",
     [f"{SWEEP}::test_a_part_without_varying_rows_overflows_below_one_over_dbl_max"]),
    # The Sherman-Morrison factor t one ulp off.
    ("qunet/network.py",
     "        t = (bv[..., None] - y[0][:, 1:]) / y[0][:, :1]        # (B_v - V X_p) / mu\n",
     "        t = (bv[..., None] - y[0][:, 1:]) / y[0][:, :1] * (1 + 2 ** -52)\n",
     [f"{SWEEP}::test_sweep_equals_the_dense_oracle_bit_for_bit",
      "tests/test_cli.py::test_cli_output_is_pinned",
      "tests/test_cli.py::test_cli_corpus_is_pinned",
      "tests/test_readme.py::test_qnet_example_runs_as_the_readme_says"]),
    # No column equilibration: every column scale is 1.
    ("qunet/network.py",
     "    col = np.maximum.reduce(np.abs(a), axis=-2, initial=0.0)\n",
     "    col = np.ones(a.shape[:-2] + a.shape[-1:])\n",
     ["tests/test_accuracy.py::test_rows_of_s_are_within_kappa_eps_of_exact",
      f"{SWEEP}::test_systems_equal_the_dense_oracle_bit_for_bit"]),
    # No row equilibration: every row scale is 1.
    ("qunet/network.py",
     "    row = np.maximum.reduce(np.abs(a), axis=-1)\n",
     "    row = np.ones(len(a))\n",
     ["tests/test_accuracy.py::test_rows_of_s_are_within_kappa_eps_of_exact",
      f"{SWEEP}::test_systems_equal_the_dense_oracle_bit_for_bit"]),
    # A sweep takes sigma only for the sources the readout reaches, so a
    # source of another part whose sigma leaves double range refuses nothing.
    ("qunet/cli.py",
     "    sigma = thermal_occupation(maps.omegas[None, :1], t)\n",
     "    sigma = thermal_occupation(maps.omegas[None, :1], t[[names.index(n) for n in reached]])\n",
     [f"{SWEEP}::test_a_source_whose_occupation_leaves_double_range_refuses_the_sweep"]),
    # A sweep keeps a column of S for every input, read by its outputs or not.
    ("qunet/network.py",
     "        cols = sorted(k for (*_, ins), parts in zip(self._parts, hits) for q in parts\n"
     "                      for k in ins[q].tolist())\n",
     "        cols = list(range(self._b.shape[1]))\n",
     [f"{SWEEP}::test_parts_read_together_keep_their_inputs_in_input_order",
      f"{SWEEP}::test_a_readout_sweep_keeps_only_its_part_columns"]),
    # A sweep keeps the read parts' inputs part by part, not in input order.
    ("qunet/network.py",
     "        cols = sorted(k for (*_, ins), parts in zip(self._parts, hits) for q in parts\n"
     "                      for k in ins[q].tolist())\n",
     "        cols = [k for (*_, ins), parts in zip(self._parts, hits) for q in parts\n"
     "                for k in ins[q].tolist()]\n",
     [f"{SWEEP}::test_parts_read_together_keep_their_inputs_in_input_order"]),
    # An LU group factors and solves only its read parts: a singular part
    # that no output reads refuses nothing.
    ("qunet/network.py",
     "            plan.append((_lu_rows, a3, unit, ",
     "            plan.append((_lu_rows, a3[:, :n], unit[:n], ",
     [f"{SWEEP}::test_a_singular_unread_part_raises_at_its_point",
      f"{SWEEP}::test_a_singular_part_no_output_reaches_still_raises",
      "tests/test_network.py::test_singular_network_reports_frequency_and_rank"]),
    # A block whose LU fails names its first point, not the one getrf refused.
    ("qunet/network.py",
     "        return [np.linalg.slogdet(et)[0]]\n",
     "        return [np.zeros(len(w))]\n",
     [f"{SWEEP}::test_a_singular_unread_part_raises_at_its_point"]),
    # A refused point whose pivots are all regular is reported by the rank
    # of A(w) equilibrated, which an overflowing gain makes read short.
    ("qunet/network.py",
     "    if not regular and (r := int(np.linalg.matrix_rank(a))) < len(a):\n",
     "    if (r := int(np.linalg.matrix_rank(a))) < len(a):\n",
     [f"{SWEEP}::test_a_solve_that_overflows_is_not_reported_as_rank_loss"]),
    # The chain rule divides every downstream weight by |G|^2 of the stages
    # ahead of it, not by their complex gain G.
    ("qunet/cascade.py",
     "                weights[(k, role)] = mu / total_gain\n",
     "                weights[(k, role)] = mu / abs(total_gain) ** 2\n",
     [CHAIN_BOUND]),
    # A downstream stage's conjugated noise line a' is dropped from the chain.
    ("qunet/cascade.py",
     "            if role != est.signal:\n",
     "            if role != est.signal and (k == 0 or role != \"a'\"):\n",
     [CHAIN_BOUND]),
    # A downstream stage's readout line r is dropped from the chain.
    ("qunet/cascade.py",
     "            if role != est.signal:\n",
     "            if role != est.signal and (k == 0 or role != \"r\"):\n",
     [CHAIN_BOUND]),
    # The composed gain is 1 % high.
    ("qunet/cascade.py",
     "        total_gain = total_gain * est.gain\n",
     "        total_gain = total_gain * est.gain * 1.01\n",
     [CHAIN_BOUND]),
    # The sweep CSV's formatter.  Its product keeps only the high half of the
    # scaled value's fraction: the sticky bits below it are dropped.
    (FMT,
     "    return x + u1 * f[0], mid[1] | mid[2] << _S32\n",
     "    return x + u1 * f[0], mid[2] << _S32\n",
     [f"{FLOATREPR}::test_fixed_families_print_as_repr",
      f"{FLOATREPR}::test_neighbours_of_short_decimal_midpoints_print_as_repr"]),
    # A power of two is never taken for one: its nearer lower neighbour is ignored.
    (FMT,
     "        j = j[(mag[j] & _FRAC == 0) & (b[j] > 1)]       # powers of two\n",
     "        j = j[b[j] < 0]       # powers of two\n",
     [f"{FLOATREPR}::test_fixed_families_print_as_repr"]),
    # The exact check on the interval's lower end always takes the cheap answer.
    (FMT,
     "        small[j] = sm = (rj > dj) | (rj == dj) & ~((x[0] & _U(1) == 1) | (x[1] == 0) & ~odd)\n",
     "        small[j] = sm = rj > dj\n",
     [f"{FLOATREPR}::test_neighbours_of_short_decimal_midpoints_print_as_repr",
      f"{FLOATREPR}::test_fixed_families_print_as_repr"]),
    # The lower end is taken as the value itself, one multiple of phi too high.
    (FMT,
     "        x = _minus(y, qw)                               # and the interval's lower end\n",
     "        x = y                               # and the interval's lower end\n",
     [f"{FLOATREPR}::test_neighbours_of_short_decimal_midpoints_print_as_repr"]),
    # The exact check on a rounding tie always takes the cheap answer.
    (FMT,
     "        d[j] = dd - (sm & (dist == q * _U(100)) & (((y[0] ^ dist) & _U(1) == 1) | tie))\n",
     "        d[j] = dd\n",
     [f"{FLOATREPR}::test_fixed_families_print_as_repr",
      f"{FLOATREPR}::test_csv_rows_across_chunks_are_the_per_value_oracle"]),
    # An odd significand owns the upper end of its interval, an even one not.
    (FMT,
     "        end = (rj == 0) & (mid[j] == 0) & odd           # the upper end, which odd c excludes\n",
     "        end = (rj == 0) & (mid[j] == 0) & ~odd           # the upper end, which odd c excludes\n",
     [f"{FLOATREPR}::test_neighbours_of_short_decimal_midpoints_print_as_repr"]),
    # A remainder of 0 skips the exact checks: an excluded upper end is printed.
    (FMT,
     "    j = np.flatnonzero((r == delta) | (r == 0) | (dist == q * _U(100)) | (mag & _FRAC == 0))\n",
     "    j = np.flatnonzero((r == delta) | (dist == q * _U(100)) | (mag & _FRAC == 0))\n",
     [f"{FLOATREPR}::test_neighbours_of_short_decimal_midpoints_print_as_repr"]),
    # "0.00..." texts shift their digits one byte short: a zero is lost.
    (FMT,
     "            np.array([8 if c <= 16 else 8 * (c - 15) for c in form], dtype=np.uint64),\n",
     "            np.array([8 if c <= 16 else 8 * (c - 16) for c in form], dtype=np.uint64),\n",
     [f"{FLOATREPR}::test_fixed_families_print_as_repr"]),
    # -0.0 and -inf lose their sign.
    (FMT,
     "        t[:, j] = _TEMPLATE[:, -6:].take(2 * kind + (bits[j] >> _U(63)).astype(np.intp), axis=1)\n",
     "        t[:, j] = _TEMPLATE[:, -6:].take(2 * kind, axis=1)\n",
     [f"{FLOATREPR}::test_fixed_families_print_as_repr"]),
    # A run of float columns is marked with ",", a byte every CSV line holds.
    (FMT,
     "_MARKS = bytes(range(128, 256))",
     "_MARKS = b\",\" + bytes(range(129, 256))",
     [f"{FLOATREPR}::test_runs_of_constant_columns_are_the_per_value_oracle",
      f"{FLOATREPR}::test_csv_rows_are_the_per_value_oracle"]),
    # The last mark byte is a line break: only a line's 128th distinct run takes it.
    (FMT,
     "_MARKS = bytes(range(128, 256))",
     "_MARKS = bytes(range(128, 255)) + b\"\\n\"",
     [f"{FLOATREPR}::test_more_distinct_runs_than_mark_bytes_are_the_per_value_oracle"]),
    # The first run's mark is left in the line, its text not restored.
    (FMT,
     "    for text, mark in marks.items():\n",
     "    for text, mark in list(marks.items())[1:]:\n",
     [f"{FLOATREPR}::test_runs_of_constant_columns_are_the_per_value_oracle",
      f"{FLOATREPR}::test_equal_run_texts_are_the_per_value_oracle",
      f"{FLOATREPR}::test_csv_rows_are_the_per_value_oracle"]),
    # Every run text takes the first mark byte: the first text restores them all.
    (FMT,
     "                marks[text] = _MARKS[len(marks):len(marks) + 1]\n",
     "                marks[text] = _MARKS[:1]\n",
     [f"{FLOATREPR}::test_runs_of_constant_columns_are_the_per_value_oracle",
      f"{FLOATREPR}::test_more_distinct_runs_than_mark_bytes_are_the_per_value_oracle",
      f"{FLOATREPR}::test_equal_run_texts_are_the_per_value_oracle"]),
    # Runs past the last mark byte get the empty mark, not their text inline.
    (FMT,
     "            if text not in marks and len(marks) < len(_MARKS):\n",
     "            if text not in marks:\n",
     [f"{FLOATREPR}::test_more_distinct_runs_than_mark_bytes_are_the_per_value_oracle"]),
    # A circuit budget's sigma one ulp high.
    ("qunet/cli.py",
     "dict(zip(names, sigma.tolist()))",
     "dict(zip(names, (sigma * (1 + 2 ** -52)).tolist()))",
     ["tests/test_cli.py::test_cli_output_is_pinned",
      "tests/test_cli.py::test_cli_corpus_is_pinned"]),
    # A sweep's grid is not clipped to f_hi: rounding may put a point past it.
    ("qunet/netlist.py",
     "        grid = 2.0 * math.pi * np.minimum(np.append(hz, f_hi), f_hi)\n",
     "        grid = 2.0 * math.pi * np.append(hz, f_hi)\n",
     ["tests/test_netlist.py::test_sweep_beyond_double_range_is_refused"]),
    # The parser cache is keyed on nothing: every command gets the first
    # parser built in the process.
    ("qunet/cli.py",
     "    if command in _PARSERS:\n        return _PARSERS[command]\n",
     "    if _PARSERS:\n        return next(iter(_PARSERS.values()))\n",
     ["tests/test_cli.py::test_each_parser_is_built_once_per_process"]),
    # The parser cache stores the full parser under a command's key.
    ("qunet/cli.py",
     "    return _PARSERS.setdefault(command, parser if command is None else p)\n",
     "    return _PARSERS.setdefault(command, parser if command is None else build_parser())\n",
     ["tests/test_cli.py::test_each_parser_is_built_once_per_process"]),
    # A kept parser calls the command function bound when it was built, so a
    # tracer's or a test's later rebinding never runs.
    ("qunet/cli.py",
     "p.set_defaults(func=lambda args: cmd_budget(args))",
     "p.set_defaults(func=cmd_budget)",
     ["tests/test_cli.py::test_a_kept_parser_calls_the_command_function_bound_at_call_time"]),
    # main always takes the full parser, whose output is the same: only the
    # parsers it asks for tell.
    ("qunet/cli.py",
     "        if argv and argv[0] in COMMANDS:\n",
     "        if False:\n",
     ["tests/test_cli.py::test_successive_calls_print_what_each_call_alone_prints"]),
]


def run_tests(tree: Path, tests: list) -> set:
    """The named tests that fail in ``tree``, as named (parameters dropped);
    raises if pytest could not run them."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):          # 1: some tests failed
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout[-3000:]}{run.stderr}")
    failed = {line.split()[1].split("[")[0] for line in run.stdout.splitlines()
              if line.startswith("FAILED ")}
    return {t for t in tests if t in failed}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree / name)
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        if broken := run_tests(tree, named):
            problems += [f"fails on the intact tree: {t}" for t in sorted(broken)]
        for k, (file, old, new, tests) in enumerate(MUTANTS):
            path = tree / "src" / file
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"mutant {k}: old text found {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new))
            try:
                survived = sorted(set(tests) - run_tests(tree, tests))
            finally:
                path.write_text(text)
            print(f"mutant {k} ({file}): " + (f"survived {survived}" if survived else "killed"))
            problems += [f"mutant {k} survived {t}" for t in survived]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
