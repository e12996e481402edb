"""The sweep CSV's number formatter against ``repr``.

``qunet._floatrepr`` computes the shortest round-trip digits of many
doubles at once; decoded, its text must be ``repr`` of each value, and its
CSV lines what the per-value oracle writes.  Run as a script, the module
compares 1.4 10^7 seeded doubles with ``repr``, 10^5 at a time, and writes
each 10^5 as CSV columns among runs of constant ones, against the oracle:

    PYTHONPATH=src python tests/test_floatrepr.py
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qunet
from qunet._floatrepr import _CHUNK, _MARKS, WIDTH, csv_rows, repr_chars

from helpers import THREEDB_FIXTURE
from oracles import csv_rows_per_value

POW10 = np.array([float(f"1e{e}") for e in range(-323, 309)])


def assert_reprs(x, want=None) -> None:
    """repr_chars(x) is ``want``, by default repr of each value."""
    x = np.asarray(x, dtype=np.float64)
    got = [b.decode() for b in repr_chars(x).view(f"S{WIDTH}").ravel().tolist()]
    want = list(map(repr, x.tolist())) if want is None else want
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad and len(got) == len(want), bad[:5]


def neighbours(x: np.ndarray, ulps: int = 1) -> np.ndarray:
    """Positive x and the doubles up to ``ulps`` steps below and above."""
    return np.concatenate([(x.view(np.int64) + k).view(np.float64)
                           for k in range(-ulps, ulps + 1)])


def midpoint_neighbours(count: int = 6) -> np.ndarray:
    """The doubles on either side of short decimals w 10^t that lie halfway
    between two doubles, times 1, 2, 4 and 8: a value whose rounding
    interval ends exactly on a short decimal, which an even significand
    owns and an odd one does not."""
    x = []
    for t in range(1, 24):
        w = -(-(1 << 53) // 5 ** t) | 1             # odd, w 5^t just above 2^53
        x += [float(((w + 2 * k) * 10 ** t + side * 2 ** t) << a) for k in range(count)
              for a in range(4) for side in (-1, 1)]
    return np.array(x)


def test_fixed_families_print_as_repr():
    # Powers of two take the closer lower bound of the rounding interval;
    # powers of ten and their neighbours sit at the ends of digit counts;
    # 1e-5, 1e-4, 1e16 and 1e17 switch between fixed and exponent form.
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    ints = 2.0 ** 53 + np.arange(-300.0, 300.0)
    switch = neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), ulps=3)
    wide = np.array([1.2345678901234567e100, 9.87e-100, 2.2250738585072014e-308,
                     1.7976931348623157e308, 5e-324, 123456789.0, 0.1, 1 / 3])
    x = np.concatenate([pow2, neighbours(pow2[1:-1]), neighbours(POW10[1:]), POW10[:1],
                        ints, switch, wide, [0.0, np.inf, np.nan]])
    assert_reprs(np.concatenate([x, -x]))


def test_neighbours_of_short_decimal_midpoints_print_as_repr():
    # The formatter checks these exactly: the interval's upper end is a
    # multiple of the digit step it tries first, or its lower end meets the
    # candidate below.
    x = midpoint_neighbours()
    assert_reprs(np.concatenate([x, -x]))


bit_patterns = st.lists(st.integers(0, 2 ** 64 - 1), max_size=40)


@settings(max_examples=100, deadline=None)
@given(bit_patterns, st.lists(st.floats(), max_size=40))
def test_repr_chars_is_repr_of_each_value(bits, floats):
    # Any bit pattern: NaN payloads, -0.0, subnormals, both infinities.
    assert_reprs(np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64),
                                 np.array(floats, dtype=np.float64)]))


values = st.one_of(st.integers(0, 2 ** 64 - 1),
                   st.floats().map(lambda f: int(np.float64(f).view(np.uint64))),
                   st.sampled_from([0, 2 ** 63, 0x7FF8000000000000, 0x3FF0000000000000]))


@st.composite
def tables(draw) -> np.ndarray:
    """Small (columns, rows) tables whose columns hold one value on every
    row or drawn values, which may repeat."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.lists(st.one_of(values.map(lambda v: [v] * rows),
                                   st.lists(values, min_size=rows, max_size=rows)),
                         min_size=1, max_size=40))
    return np.array(cols, dtype=np.uint64).view(np.float64)


@settings(max_examples=100, deadline=None)
@given(tables(), st.booleans())
def test_csv_rows_are_the_per_value_oracle(table, floats):
    # A column past the first may be given as a float that every row holds,
    # as a sweep gives the 0.0 of a source in another part.
    bits = table.view(np.uint64)
    columns = [c[0].item() if floats and k and (b == b[0]).all() else c
               for k, (c, b) in enumerate(zip(table, bits))]
    assert csv_rows(columns).decode("ascii") == csv_rows_per_value(table)


def test_csv_rows_across_chunks_are_the_per_value_oracle():
    # 7 array columns of 1,025 rows hold more values than one chunk, so the
    # block is formatted in two pieces that split a column; another column
    # is the constant 0.0, and some cells hold NaN, -0.0 and subnormals.
    rng = np.random.default_rng(7)
    table = rng.choice([-1.0, 1.0], (7, 1025)) * 10.0 ** rng.uniform(-30.0, 30.0, (7, 1025))
    assert table.size > _CHUNK
    table[1, ::97], table[2, 5::300], table[5, 700:720] = np.nan, -0.0, np.arange(20) * 5e-324
    columns = [*table[:4], 0.0, *table[4:]]
    want = csv_rows_per_value(np.insert(table, 4, 0.0, axis=0))
    assert csv_rows(columns).decode("ascii") == want


# Constant columns: the specials, the least subnormal and two ordinary values.
CONSTANTS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, -1e300, 1 / 3]


def layout_columns(layout: str, constants, arrays=None):
    """The columns of ``layout``, the next of ``arrays`` (default: random rows
    of 5) for each "a" and the next of ``constants``, as a float, for each
    "c"; and the (columns, rows) table they write."""
    if arrays is None:
        arrays = np.random.default_rng(1).uniform(-1e3, 1e3, (len(layout), 5))
    constants, arrays = iter(constants), iter(arrays)
    columns = [next(arrays) if kind == "a" else float(next(constants)) for kind in layout]
    rows = len(next(c for c in columns if type(c) is not float))
    return columns, np.array([np.full(rows, c) if type(c) is float else c for c in columns])


@pytest.mark.parametrize("layout", ["ca", "ac", "cac", "cacac", "aca", "acaca", "accaccca",
                                    "ccccaacccc", "cacacacc"])
def test_runs_of_constant_columns_are_the_per_value_oracle(layout):
    # Runs first, last, one column long between two arrays, and several
    # constants side by side, which make one run.
    columns, table = layout_columns(layout, CONSTANTS * 2)
    assert csv_rows(columns).decode("ascii") == csv_rows_per_value(table)


def test_more_distinct_runs_than_mark_bytes_are_the_per_value_oracle():
    # Each run of one constant between two arrays has its own text, so the
    # runs past the last free mark byte stay in the padded line as text.
    n = len(_MARKS) + 40
    constants = [*CONSTANTS, *np.linspace(-5.0, 5.0, n - len(CONSTANTS))]
    columns, table = layout_columns("ac" * n + "a", constants)
    assert csv_rows(columns).decode("ascii") == csv_rows_per_value(table)


def test_equal_run_texts_are_the_per_value_oracle():
    # Runs with equal texts share one mark byte: more of them than there are
    # mark bytes, around a few distinct ones.
    n = 2 * len(_MARKS)
    constants = [0.0] * n
    constants[::50] = CONSTANTS[:len(constants[::50])]
    columns, table = layout_columns("acc" * n + "a", [c for c in constants for _ in "cc"])
    assert csv_rows(columns).decode("ascii") == csv_rows_per_value(table)


def test_only_a_sweep_imports_the_formatter(tmp_path):
    doc = tmp_path / "threedb.qnet"
    doc.write_text(THREEDB_FIXTURE)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qunet.__file__)))

    def imports_it(*argv) -> bool:
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "qunet.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        return "qunet._floatrepr" in run.stderr

    assert not imports_it("accel", "--json")
    assert not imports_it("budget", str(doc), "--freq", "1e5")
    assert imports_it("sweep", str(doc), "-o", str(tmp_path / "out.csv"))


def seeded_doubles(seed: int, total: int, chunk: int):
    """``total`` doubles in chunks of ``chunk``: random bit patterns, random
    magnitudes of either sign, doubles within 64 steps of a power of ten, and
    the inputs the formatter treats apart (``boundary_doubles``)."""
    rng = np.random.default_rng(seed)
    tens = POW10.view(np.uint64)
    for i in range(total // chunk):
        if i % 4 == 0:
            yield rng.integers(0, 2 ** 64, chunk, dtype=np.uint64).view(np.float64)
        elif i % 4 == 1:
            yield rng.choice([-1.0, 1.0], chunk) * 10.0 ** rng.uniform(-323.0, 308.0, chunk)
        elif i % 4 == 2:
            near = rng.choice(tens, chunk) + rng.integers(0, 129, chunk).astype(np.uint64)
            yield (near - np.uint64(64)).view(np.float64)
        else:
            yield boundary_doubles(rng, chunk)


def boundary_doubles(rng, n: int) -> np.ndarray:
    """n doubles of either sign, in four parts: random significands at the
    exponents whose rounding interval, scaled to three digits more than the
    value, spans the fewest units (2^e 10^(2 - floor(e log10 2)) < 200);
    powers of two and the doubles two steps around them; doubles three steps
    around 1e-5, 1e-4, 1e15, 1e16 and 1e17, where repr changes form or digit
    count; and neighbours of midpoint decimals (``midpoint_neighbours``)."""
    e = np.arange(1, 2047) - 1075
    narrow = np.arange(1, 2047)[(e * np.log10(2.0)) % 1.0 < np.log10(2.0)].astype(np.uint64)
    switch = rng.choice([1e-5, 1e-4, 1e15, 1e16, 1e17], n // 4)
    parts = [(rng.choice(narrow, n // 4) << np.uint64(52))
             | rng.integers(0, 2 ** 52, n // 4, dtype=np.uint64),
             (rng.integers(1, 2047, n // 4).astype(np.uint64) << np.uint64(52))
             + rng.integers(-2, 3, n // 4).astype(np.uint64),
             switch.view(np.uint64) + rng.integers(-3, 4, n // 4).astype(np.uint64),
             rng.choice(midpoint_neighbours(64).view(np.uint64), n - 3 * (n // 4))]
    return np.concatenate(parts).view(np.float64) * rng.choice([-1.0, 1.0], n)


def assert_csv_and_reprs(x, rng) -> None:
    """x as 8 array columns of CSV, with runs of 0 to 3 constant columns
    before, between and after them, drawn from x and ``CONSTANTS``, against
    the per-value oracle; and repr_chars(x) against the oracle's cells, so
    that repr is called once per value."""
    layout = "".join("c" * k + "a" for k in rng.integers(0, 4, 9))[:-1]
    constants = rng.choice(np.r_[x[:8], CONSTANTS], layout.count("c"))
    columns, table = layout_columns(layout, constants, x.reshape(8, -1))
    want = csv_rows_per_value(table)
    assert csv_rows(columns).decode("ascii") == want, layout
    cells = want[:-1].replace("\n", ",").split(",")
    assert_reprs(x, [c for k, kind in enumerate(layout) if kind == "a"
                     for c in cells[k::len(layout)]])


if __name__ == "__main__":
    checked, rng = 0, np.random.default_rng(21)
    for x in seeded_doubles(seed=20, total=14 * 10 ** 6, chunk=10 ** 5):
        assert_csv_and_reprs(x, rng)
        checked += len(x)
    print(f"csv_rows and repr_chars printed {checked} seeded doubles as repr does")
