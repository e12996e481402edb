"""``repr`` of many float64 values at once, for the sweep CSV.

Row i of ``repr_chars(x)`` is the ASCII of ``repr(x[i])``, NUL padded:
decoded, the rows are byte for byte ``list(map(repr, x.tolist()))``.  The
digits are the shortest that read back as the value, the nearest of those,
ties to even.  They are computed exactly on uint64 arrays with Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020): three
round-to-odd 64 x 128-bit products scale the value and the two ends of its
rounding interval by a power of ten, and the candidates s/10, s and s + 1
are tested against the ends.  The text follows ``repr``: with
x = 0.d1d2... 10^p, the exponent form when p <= -4 or p > 16, ``.0`` on an
integral value, an exponent with a sign and at least two digits, and
``0.0``, ``-0.0``, ``inf``, ``-inf``, ``nan``.  Each layout is a table row
of byte positions, so a value's text is one gather from its digits.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24                       # len(repr(-2.2250738585072014e-308))
_CHUNK = 5120                    # values formatted at a time
_K_MIN = -292                    # the table holds g_k for k = -292..326
_U = np.uint64
_M32, _S32 = _U(0xFFFFFFFF), _U(32)
_INF_BITS = _U(0x7FF0000000000000)


def _pow10_limbs() -> np.ndarray:
    """g_k = floor(10^k 2^(127 - e_k)) + 1, e_k = floor(log2 10^k), as
    32-bit limbs, most significant first: a (4, 619) array."""
    limbs = []
    for k in range(_K_MIN, 327):
        p = 10 ** abs(k)        # for k < 0, e_k = -p.bit_length()
        g = ((p << 127) >> (p.bit_length() - 1) if k >= 0
             else (1 << (127 + p.bit_length())) // p) + 1
        limbs.append([(g >> s) & 0xFFFFFFFF for s in (96, 64, 32, 0)])
    return np.array(limbs, dtype=np.uint64).T.copy()


# A value's 36 source bytes are nine uint32 slots: "\0-.e", "+inf", "a\0\0\0",
# then four-digit groups from _DIGITS4: "000" and the first of 17 digits,
# the other 16, and "0" and the 3 digits of the decimal exponent.
_CONST = np.frombuffer(b"\0-.e+infa\0\0\0", dtype=np.uint32)
_NUL, _MINUS, _DOT, _E, _PLUS, _I, _N, _F, _A = range(9)
_ZERO, _D0, _EXP = 12, 15, 33
_QUADS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = np.frombuffer((_QUADS + 48).astype(np.uint8).tobytes(), dtype=np.uint32)
# Rows for the groups at digits 1-4, 5-8, 9-12 and 13-16 (the first is 0):
# the index of a group's last nonzero digit, or 0 when it has none.
_LAST4 = np.where(np.arange(10000) > 0, (3 - np.argmax(_QUADS[:, ::-1] > 0, axis=1))
                  .astype(np.int8) + np.arange(1, 14, 4, dtype=np.int8)[:, None],
                  np.int8(0))
del _QUADS
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)


def _layouts() -> np.ndarray:
    """Source byte of each output column, per shape: sign x 1-17 digits x
    (p = -3..16, or the exponent form by its sign and width), then 0.0,
    -0.0, inf, -inf and nan; 0, a NUL byte, pads."""
    rows = []
    for neg in (0, 1):
        for ns in range(1, 18):
            digits = list(range(_D0, _D0 + ns))
            for p in range(-3, 21):
                if p > 16:
                    neg_e, wide = divmod(p - 17, 2)
                    body = (digits[:1] + [_DOT] * (ns > 1) + digits[1:]
                            + [_E, _MINUS if neg_e else _PLUS]
                            + list(range(_EXP + 1 - wide, _EXP + 3)))
                elif p <= 0:
                    body = [_ZERO, _DOT] + [_ZERO] * -p + digits
                else:       # the digits past the last significant one are 0
                    body = (list(range(_D0, _D0 + p)) + [_DOT]
                            + list(range(_D0 + p, _D0 + max(ns, p + 1))))
                rows.append([_MINUS] * neg + body)
    rows += [[_ZERO, _DOT, _ZERO], [_MINUS, _ZERO, _DOT, _ZERO], [_I, _N, _F],
             [_MINUS, _I, _N, _F], [_N, _A, _N]]
    return np.array([row + [_NUL] * (WIDTH - len(row)) for row in rows], dtype=np.intp)


_G = _pow10_limbs()
_LAYOUTS = _layouts()
_SPECIAL = 2 * 17 * 24          # the row of 0.0; then -0.0, inf, -inf, nan


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Bits 128..191 of g cp, or'ed with 1 when bits 64..127 exceed 1, for
    g of four 32-bit limbs (4, N) and cp < 2^59 of shape (3, N)."""
    g3, g2, g1, g0 = g
    c1 = cp >> _S32
    c0 = cp
    c0 &= _M32
    acc = g0 * c0
    acc >>= _S32                # the sum of column k, bits 32 k on, carried
    for k, a, b in ((1, g1, g0), (2, g2, g1), (3, g3, g2)):
        part = a * c0
        high = part >> _S32
        part &= _M32
        acc += part
        part = b * c1
        acc += part & _M32
        part >>= _S32
        high += part
        if k == 2:
            odd = (acc & _M32) > 1                      # bits 64..95
        elif k == 3:
            odd |= (acc & _M32) != 0                    # bits 96..127
        acc >>= _S32
        acc += high
    acc += g3 * c1
    acc |= odd
    return acc


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest digits d and exponent k, value = d 10^k, of finite positive
    doubles given by their bits."""
    biased = (mag >> _U(52)).astype(np.int64)
    frac = mag & _U((1 << 52) - 1)
    c = np.where(biased == 0, frac, frac | _U(1 << 52))
    q = np.maximum(biased, 1) - 1075
    closer = (frac == 0) & (biased > 1)     # the lower neighbour is nearer
    k = (q * 1262611 - closer * 524031) >> 22
    cp = (c << _U(2)) + np.array([[0], [2], [4]], dtype=np.uint64) - _U(2)
    cp[0] += closer                 # 4c - 2 + closer, 4c and 4c + 2, shifted
    cp <<= (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    vbl, vb, vbr = _round_to_odd(_G.take(-k - _K_MIN, axis=1), cp)
    odd = c & _U(1)                 # an even c owns the ends of its interval
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U(2)
    sp40 = vb // _U(40) * _U(40)
    wp_in = sp40 + _U(40) <= upper
    shorter = (s >= _U(10)) & ((lower <= sp40) != wp_in)
    s4 = s << _U(2)
    w_in = s4 + _U(4) <= upper
    up = np.where((lower <= s4) != w_in, w_in,
                  (vb > s4 + _U(2)) | ((vb == s4 + _U(2)) & (s & _U(1) == 1)))
    return np.where(shorter, sp40 // _U(40) + wp_in, s + up), k + shorter


def _source(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 36 source bytes of each value, flat, and the row of its layout."""
    bits = x.view(np.uint64)
    neg = (bits >> _U(63)).astype(np.intp)
    mag = bits & _U((1 << 63) - 1)
    regular = (mag != 0) & (mag < _INF_BITS)
    d, k = _shortest(np.where(regular, mag, _U(0x3FF0000000000000)))
    n = np.searchsorted(_POW10, d, side="right")            # digits in d
    d *= _POW10[17 - n]                                     # now 17 digits
    exp = n + k - 1                                         # p - 1
    groups = np.empty((6, len(x)), dtype=np.intp)
    hi = d // _U(10 ** 8)
    groups[0], hi8 = np.divmod(hi, _U(10 ** 8))
    groups[1], groups[2] = np.divmod(hi8, _U(10000))
    groups[3], groups[4] = np.divmod(d - hi * _U(10 ** 8), _U(10000))
    groups[5] = np.abs(exp)
    src = np.empty((len(x), 9), dtype=np.uint32)
    src[:, :3] = _CONST
    src[:, 3:] = _DIGITS4.take(groups).T
    last = np.maximum.reduce(_LAST4.take(groups[1:5] + np.arange(0, 40000, 10000)[:, None]))
    form = np.where((exp >= -4) & (exp < 16), exp + 4,
                    20 + 2 * (exp < 0) + (groups[5] >= 100))
    shape = np.where(regular, (neg * 17 + last) * 24 + form,
                     _SPECIAL + np.where(mag == 0, neg, np.where(mag == _INF_BITS, 2 + neg, 4)))
    return src.view(np.uint8).ravel(), shape


def repr_chars(x) -> np.ndarray:
    """(N, WIDTH) uint8: row i is the ASCII of repr(x[i]), NUL padded."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.empty((len(x), WIDTH), dtype=np.uint8)
    for lo in range(0, len(x), _CHUNK):
        src, shape = _source(x[lo:lo + _CHUNK])
        index = _LAYOUTS.take(shape, axis=0)
        index += np.arange(0, len(src), 36)[:, None]
        src.take(index, out=out[lo:lo + _CHUNK], mode="clip")     # unbuffered
    return out


def csv_rows(columns) -> bytes:
    """ASCII CSV lines of ``columns``, each value as ``repr`` prints it.  A
    column is a float64 array over the rows, or a float that every row holds,
    formatted once into the bytes all lines share; one at least is an array."""
    line, slots, arrays = bytearray(), [], []
    for column in columns:
        fixed = type(column) is float
        if not fixed:
            slots.append(len(line))
            arrays.append(column)
        line += (repr(column).encode() if fixed else bytes(WIDTH)) + b","
    line[-1:] = b"\n"
    cells = np.empty((len(arrays[0]), len(line)), dtype=np.uint8)
    cells[:] = np.frombuffer(line, dtype=np.uint8)
    chars = repr_chars(np.stack(arrays, axis=1)).reshape(len(cells), len(slots), WIDTH)
    for i, at in enumerate(slots):
        cells[:, at:at + WIDTH] = chars[:, i]
    return cells.tobytes().translate(None, b"\0")
