"""``repr`` of many float64 values at once, for the sweep CSV.

Decoded, ``csv_rows`` writes each number as ``repr`` prints it, and row i of
``repr_chars(x)`` is ``repr(x[i])``, NUL padded: the shortest digits that
read back, the nearest of those, ties to even.  Dragonbox (J. Jeon, 2020)
computes them exactly on uint64 arrays: one 64 x 128-bit product scales the
upper end of a value's rounding interval by a power of ten, and the digits
are that over 1000 or, if no multiple of 1000 is in the interval, the value
rounded to a multiple of 100.  Values near a boundary check it exactly on
the product minus multiples of the power of ten; powers of two read a table.
The text (x = 0.d1d2... 10^p in the exponent form when p <= -4 or p > 16) is
three uint64 words per value: the digits, a byte each, split at the point
and or-ed with a template of '0's, the point and the exponent, found by
table lookups.  NUL bytes fill the gaps, trailing zero digits too, and a mark
byte each run of constant columns, written out once the lines drop the NULs.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

WIDTH = 24                       # len(repr(-2.2250738585072014e-308))
_CHUNK = 5120                    # values formatted at a time
_MARKS = bytes(range(128, 256))  # bytes no CSV line holds: one per distinct run of floats
# Freeing a mapped block raises glibc's mmap threshold to its size and its heap trim
# threshold to twice that (mallopt(3)): a block's temporaries then stay resident.
np.empty(1 << 20, dtype=np.uint8)
_U = np.uint64
_M32, _S32, _FRAC, _INF_BITS = _U(0xFFFFFFFF), _U(32), _U((1 << 52) - 1), _U(0x7FF0000000000000)


def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per biased exponent, the rows ``_shortest`` reads for every value, and
    those of its exact checks and of a power of two's digits (Dragonbox's
    shorter interval: its right end over 10 if that is in it, else rounded)."""
    limbs = []
    for k in range(-292, 327):      # phi_k = ceil(10^k 2^(127 - floor(log2 10^k)))
        p = 10 ** abs(k)
        g = -(-p << 127 >> p.bit_length() - 1) if k >= 0 else (1 << 127 + p.bit_length()) // p + 1
        limbs.append([g >> s & 0xFFFFFFFF for s in (96, 64, 32, 0)])
    b = np.arange(2048)
    e = np.maximum(b, 1) - 1075                         # the value is c 2^e
    fl = (e * 315653) >> 20                             # floor(e log10 2); k = 2 - fl
    beta = (e + ((2 - fl) * 1741647 >> 19)).astype(np.uint64)
    mk = (e * 631305 - 261663) >> 21                    # floor(log10(3/4 2^e))
    f = np.array(limbs, dtype=_U).T[:, np.r_[294 - fl, np.clip(292 - mk, 0, 618)]]
    f, top = f[:, :2048], f[0, 2048:] << _S32 | f[1, 2048:]
    hi, lo = f[0] << _S32 | f[1], f[2] << _S32 | f[3]
    delta = hi >> _U(63) - beta                         # the interval's width, scaled
    cb = (np.maximum(b - 1, 0).astype(np.uint64) << _U(53)) - _U(1) << beta
    main = [_U(2) << beta, cb, *f, delta, _U(50) - (delta >> _U(1)), fl + 324]
    sh = (10 - np.clip(e + (-mk * 1741647 >> 19), 0, 10)).astype(np.uint64)
    left = (top - (top >> _U(54)) >> sh + _U(1)) + ((e < 2) | (e > 3))
    q = (top + (top >> _U(53)) >> sh + _U(1)) // _U(10)
    y = (top >> sh) + _U(1) >> _U(1)
    tie = (y & _U(1) == 1) & (e == -77)
    big = q * _U(10) >= left
    # phi's low word; phi 2^beta as (high, middle, low) words; a power of two's d and kx
    rare = [lo, hi >> _U(64) - beta, hi << beta | lo >> _U(64) - beta, lo << beta,
            np.where(big, q, y - tie + (~tie & (y < left))), mk + big + 323]
    return np.array(main, dtype=np.uint64), np.array(rare, dtype=np.uint64)


_E, _R = _exponent_tables()


def _mul(u, f):
    """Bits 128..191 and 64..127 of u f, for u < 2^63 and f of four 32-bit
    limbs, most significant first: column sums of the limb products."""
    u1, u0 = u >> _S32, u & _M32
    x, mid = u0 * f[3] >> _S32, []
    for a, b in ((f[2], f[3]), (f[1], f[2]), (f[0], f[1])):
        x += u0 * a
        y = u1 * b + (x & _M32)
        x = (x >> _S32) + (y >> _S32)
        mid.append(y & _M32)
    return x + u1 * f[0], mid[1] | mid[2] << _S32


def _minus(p, q):
    """p - q for 192-bit p >= q, each as (high, middle, low) words."""
    borrow = p[2] < q[2]
    mid = p[1] - q[1] - borrow
    return p[0] - q[0] - ((p[1] < q[1]) | (p[1] == q[1]) & borrow), mid, p[2] - q[2]


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest digits d and kx, value = d 10^(kx - 323), of positive doubles' bits."""
    b = (mag >> _U(52)).astype(np.intp)
    p2, cb, *f, delta, half, kx = _E.take(b, axis=1, mode="clip")
    u = mag * p2 - cb                       # (2 c + 1) 2^beta: the upper end
    z, mid = _mul(u, f)                     # times phi: z + mid / 2^64, scaled
    s = z // _U(1000)
    r = z - s * _U(1000)
    dist = r + half                         # r - delta / 2 + 50
    q = dist // _U(100)
    small = r > delta                       # no multiple of 1000 in the interval
    d = np.where(small, s * _U(10) + q, s)
    j = np.flatnonzero((r == delta) | (r == 0) | (dist == q * _U(100)) | (mag & _FRAC == 0))
    if len(j):
        lo, *qw, _, _ = _R.take(b[j], axis=1, mode="clip")
        rj, sj, dj, odd = r[j], s[j], delta[j], mag[j] & _U(1) == 1
        y = _minus((z[j], mid[j], u[j] * lo), qw)       # 2 c 2^beta phi: the value
        x = _minus(y, qw)                               # and the interval's lower end
        end = (rj == 0) & (mid[j] == 0) & odd           # the upper end, which odd c excludes
        sj, rj = sj - end, rj + end * _U(1000)
        small[j] = sm = (rj > dj) | (rj == dj) & ~((x[0] & _U(1) == 1) | (x[1] == 0) & ~odd)
        dist = rj + half[j]
        q = dist // _U(100)
        dd = np.where(sm, sj * _U(10) + q, sj)
        tie = (y[1] == 0) & (dd & _U(1) == 1)           # the value is halfway: to even
        d[j] = dd - (sm & (dist == q * _U(100)) & (((y[0] ^ dist) & _U(1) == 1) | tie))
        j = j[(mag[j] & _FRAC == 0) & (b[j] > 1)]       # powers of two
        d[j], kx[j] = _R[4:].take(b[j], axis=1, mode="clip")
        small[j] = False
    return d, kx.view(np.int64) - small


_POW10 = np.array([10 ** n for n in range(20)], dtype=np.uint64)
_DLO = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 << [0, 8, 16, 24]).sum(1).astype(_U)
_DHI = _DLO << _S32                     # the four digit values of 0..9999, a byte each


def _text_tables() -> tuple[np.ndarray, ...]:
    """Per p - 1 + 324: digits before the point, the others' shift, exponent, form."""
    def words(ts):
        return np.frombuffer(b"".join(t.ljust(24, b"\0") for t in ts), _U).reshape(-1, 3).T.copy()
    p = range(-323, 310)            # exponent form, point after c digits, or "0." and c - 17 zeros
    form = [q if 1 <= q <= 16 else 17 - q if -3 <= q <= 0 else 0 for q in p]
    templates = [b"\0" + (b"0" + b"." * (ns > 1) + b"0" * (ns - 1) if c == 0 else
                          b"0" * c + b"." + b"0" * max(ns - c, 1) if c <= 16 else
                          b"0." + b"0" * (c - 17 + ns)) for c in range(21) for ns in range(18)]
    templates += [b"\x000.0", b"-0.0", b"\0inf", b"-inf", b"\0nan", b"\0nan"]     # and specials
    return (words([b"\0" + b"\xff" * (max(c, 1) if c <= 16 else 0) for c in form]),
            np.array([8 if c <= 16 else 8 * (c - 15) for c in form], dtype=np.uint64),
            words([b"\0" * 19 + b"e%+03d" % (q - 1) * (c == 0) for q, c in zip(p, form)])[2],
            18 * np.array(form), words(templates))


_BEFORE, _SHIFT, _EXP, _FORM, _TEMPLATE = _text_tables()


def _text(x: np.ndarray, t: np.ndarray) -> None:
    """Write into t, (3, N) uint64, a sign byte and then repr of each x, NUL padded."""
    bits = x.view(np.uint64)
    mag = bits & _U((1 << 63) - 1)
    special = mag - _U(1) >= _INF_BITS - _U(1)         # 0, inf or nan
    any_special = special.any()
    d, kx = _shortest(np.where(special, _U(0x3FF0000000000000), mag) if any_special else mag)
    m = (d.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.intp) - 1023   # log2 d, or above
    n = (m * 1233 >> 12) + 1                           # digits of 2^m
    n += d >= _POW10.take(n, mode="clip")              # digits in d
    d *= _POW10.take(17 - n, mode="clip")              # now 17 digits
    ex = kx + n                                        # p - 1 + 324
    e2 = d // _U(100)
    h = np.stack([e2 // _U(10 ** 8), e2])
    h[1] -= h[0] * _U(10 ** 8)                         # digits 1-7 and 8-15
    g = h // _U(10000)
    w = np.empty((3, len(x)), dtype=np.uint64)         # digit i at byte i
    np.bitwise_or(_DLO.take(g, mode="clip"), _DHI.take(h - g * _U(10000), mode="clip"), out=w[:2])
    np.right_shift(_DLO.take(d - e2 * _U(100), mode="clip"), _U(16), out=w[2])
    f = w[2].astype(np.float64) * 2.0 ** 128 + w[1].astype(np.float64) * 2.0 ** 64 + w[0]
    ns = ((f.view(np.uint64) >> _U(52)).astype(np.intp) - 1023) >> 3   # the last nonzero digit
    np.bitwise_and(w, _BEFORE.take(ex, axis=1, mode="clip"), out=t)
    w ^= t
    s = _SHIFT.take(ex, mode="clip")
    t |= w << s
    t[1:] |= w[:2] >> _U(64) - s
    t |= _TEMPLATE.take(_FORM.take(ex, mode="clip") + ns, axis=1, mode="clip")
    t[2] |= _EXP.take(ex, mode="clip")
    t[0] |= (bits >> _U(63)) * _U(ord("-"))
    if any_special:
        j = np.flatnonzero(special)
        kind = (mag[j] > 0).astype(np.intp) + (mag[j] > _INF_BITS)     # 0.0, inf or nan
        t[:, j] = _TEMPLATE[:, -6:].take(2 * kind + (bits[j] >> _U(63)).astype(np.intp), axis=1)


def repr_chars(x) -> np.ndarray:
    """(N, WIDTH) uint8: row i is the ASCII of repr(x[i]), NUL padded."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    lines = csv_rows([x]).split(b"\n")[:-1]
    return np.array(lines, dtype=f"S{WIDTH}").view(np.uint8).reshape(len(x), WIDTH)


def csv_rows(columns) -> bytes:
    """ASCII CSV lines of ``columns``, each value as ``repr`` prints it.  A column
    is a float64 array, or a float all rows hold and format once; one is an array.
    A run of floats stands as a ``_MARKS`` byte, while one is free, till the end."""
    line, arrays, marks = bytearray(), [], {}            # arrays: (cell offset, column)
    for constant, run in groupby(columns, lambda c: type(c) is float):
        if constant:
            text = ",".join(map(repr, run)).encode()
            if text not in marks and len(marks) < len(_MARKS):
                marks[text] = _MARKS[len(marks):len(marks) + 1]
            line += marks.get(text, text) + b","
        else:
            for column in run:
                arrays.append((len(line), column))
                line += bytes(WIDTH) + b","
    line[-1:] = b"\n"
    rows = len(arrays[0][1])
    cells = np.frombuffer(line * rows, dtype=np.uint8).reshape(rows, len(line))
    x = np.concatenate([c for _, c in arrays], dtype=np.float64)      # column after column
    t = np.empty((3, len(x)), dtype=np.uint64)
    for lo in range(0, len(x), _CHUNK):
        _text(x[lo:lo + _CHUNK], t[:, lo:lo + _CHUNK])
    for k, (at, _) in enumerate(arrays):               # an array's words into its cells
        np.ndarray((3, rows), _U, cells, at, (8, len(line)))[...] = t[:, k * rows:k * rows + rows]
    out = cells.tobytes().translate(None, b"\0")
    for text, mark in marks.items():
        out = out.replace(mark, text)
    return out
