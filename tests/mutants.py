"""Mutants of the package that named tests must kill.

Each entry of ``MUTANTS`` is (file under ``src/``, exact old text, new text,
the tests that must fail).  Run from the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, runs every named test there once on the intact copy,
then applies each mutant in turn and runs only its tests, with Hypothesis
seeded so that every run draws the same examples.  It exits 1 if a
named test fails on the intact copy, if an old text is not found exactly
once in its file, or if a mutant leaves any of its tests passing.  A
refactor that changes an old text must update its entry.  Standard library
only; pytest and the test dependencies must be installed.
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

MUTANTS = [
    # An unread part on the rank-one path checks only its pivot mu(w), not
    # whether the entries of its row that vary with w stay finite.
    ("qunet/network.py",
     "        pivots += [x[:u].T, np.isfinite(x[u:]).T]\n",
     "        pivots += [x[:u].T]\n",
     [f"{SWEEP}::test_an_unread_part_that_overflows_still_raises",
      f"{SWEEP}::test_one_row_raises_where_every_row_does"]),
    # An unread part on the rank-one path checks only its varying entries.
    ("qunet/network.py",
     "        pivots += [x[:u].T, np.isfinite(x[u:]).T]\n",
     "        pivots += [np.isfinite(x[u:]).T]\n",
     [f"{SWEEP}::test_a_singular_unread_part_raises_at_its_point"]),
    # The rank-one fold sums over the unknowns in reverse order.  The random
    # test_sweep_equals_the_dense_oracle_bit_for_bit kills it in about half
    # of its runs only: a stage's sums rarely hold three nonzero terms.
    ("qunet/network.py",
     "        y = v[:, 0] * nx[:, 0, :, None]                  # V [N | X_p] (n, 1 + c, F)\n"
     "        for i in range(1, m):\n",
     "        y = v[:, m - 1] * nx[:, m - 1, :, None]\n"
     "        for i in range(m - 2, -1, -1):\n",
     [f"{SWEEP}::test_a_one_node_part_sweep_equals_the_dense_oracle_bit_for_bit"]),
    # The Sherman-Morrison factor t one ulp off.
    ("qunet/network.py",
     "        t = (bv[..., None] - y[:, 1:]) / y[:, :1]        # (B_v - V X_p) / mu\n",
     "        t = (bv[..., None] - y[:, 1:]) / y[:, :1] * (1 + 2 ** -52)\n",
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
]


def run_tests(tree: Path, tests: list) -> set:
    """The named tests that fail in ``tree``, as named (parameters dropped);
    raises if pytest could not run them."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
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
