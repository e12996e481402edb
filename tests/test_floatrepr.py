"""The sweep CSV's number formatter against ``repr``.

``qunet._floatrepr`` computes the shortest round-trip digits of many
doubles at once; decoded, its text must be ``repr`` of each value, and its
CSV lines what the per-value oracle writes.  Run as a script, the module
compares about 10^7 seeded doubles with ``repr``, 10^5 at a time:

    PYTHONPATH=src python tests/test_floatrepr.py
"""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qunet
from qunet._floatrepr import WIDTH, csv_rows, repr_chars

from helpers import THREEDB_FIXTURE
from oracles import csv_rows_per_value

POW10 = np.array([float(f"1e{e}") for e in range(-323, 309)])


def assert_reprs(x) -> None:
    x = np.asarray(x, dtype=np.float64)
    got = [b.decode() for b in repr_chars(x).view(f"S{WIDTH}").ravel().tolist()]
    want = list(map(repr, x.tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad and len(got) == len(want), bad[:5]


def neighbours(x: np.ndarray, ulps: int = 1) -> np.ndarray:
    """Positive x and the doubles up to ``ulps`` steps below and above."""
    return np.concatenate([(x.view(np.int64) + k).view(np.float64)
                           for k in range(-ulps, ulps + 1)])


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
                         min_size=1, max_size=6))
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
    magnitudes of either sign, and doubles within 64 steps of a power of ten."""
    rng = np.random.default_rng(seed)
    tens = POW10.view(np.uint64)
    for i in range(total // chunk):
        if i % 3 == 0:
            yield rng.integers(0, 2 ** 64, chunk, dtype=np.uint64).view(np.float64)
        elif i % 3 == 1:
            yield rng.choice([-1.0, 1.0], chunk) * 10.0 ** rng.uniform(-323.0, 308.0, chunk)
        else:
            near = rng.choice(tens, chunk) + rng.integers(0, 129, chunk).astype(np.uint64)
            yield (near - np.uint64(64)).view(np.float64)


if __name__ == "__main__":
    checked = 0
    for x in seeded_doubles(seed=20, total=10 ** 7, chunk=10 ** 5):
        assert_reprs(x)
        checked += len(x)
    print(f"repr_chars printed {checked} seeded doubles as repr does")
