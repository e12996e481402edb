"""Thermal and quantum noise laws shared by every other module.

Conventions
-----------
* Angular frequencies (rad/s) everywhere inside the library; only the file
  format and the CLI speak in Hz.
* Noise spectra are symmetric (two-sided).  The one-sided engineering
  convention is a factor 2 larger; that conversion is a display concern and
  never happens inside the physics.
* Temperatures fed to :func:`thermal_occupation` are physical bath
  temperatures.  Effective temperatures (energy per mode divided by k_B,
  hbar |omega| sigma / k_B) are derived quantities, mapped back to a bath
  temperature with :func:`bath_temperature`.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018 exact values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J/K


def require_finite(value, what: str, low: float = 0.0,
                   closed: bool = False) -> float:
    """``value`` as a float, checked to be finite and above ``low``.

    ``closed`` also admits ``low`` itself; ``low = -inf`` asks only for a
    finite number.  NaN, infinities and anything that is not a number raise
    :class:`ValueError` naming ``what``.
    """
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if (low <= v if closed else low < v) and v < math.inf:
        return v
    bound = "" if low == -math.inf else f" and {'>=' if closed else '>'} {low:g}"
    raise ValueError(f"{what} must be finite{bound}, got {value!r}")


def thermal_occupation(omega, temperature):
    """Symmetric noise spectrum of a thermal line, in quanta per mode.

    Parameters
    ----------
    omega : float or ndarray
        Angular frequency in rad/s.  Must be finite and nonzero; only its
        magnitude matters (the spectrum is even in frequency).
    temperature : float or ndarray
        Physical bath temperature in kelvin, finite and >= 0.

    Returns
    -------
    float or ndarray
        (1/2) coth(hbar |omega| / 2 k_B T).  Exactly 0.5 at T = 0 (vacuum
        floor).  In the high-temperature limit this tends to
        k_B T / (hbar |omega|).  Numbers give a Python float (``math.tanh``).
        If either argument is an ndarray they broadcast, e.g. (1, F)
        frequencies against (k, 1) temperatures, to a float64 array
        (``np.tanh``, within 5e-16 relative of the float).

    Notes
    -----
    For hbar|omega|/(2 k_B T) larger than ~19 the hyperbolic tangent
    saturates in double precision and the vacuum floor 0.5 is returned.
    An array raises the float call's error at its first bad entry.
    """
    # Two floats, the common call, skip the isinstance tests (~90 ns).
    if not type(omega) is type(temperature) is float and (
            isinstance(omega, np.ndarray) or isinstance(temperature, np.ndarray)):
        w = np.abs(omega)
        with np.errstate(all="ignore"):     # T = 0 divides by zero: the floor
            sigma = 0.5 / np.tanh(HBAR * w / (2.0 * K_B * temperature))
        ok = (0.5 <= sigma) & (sigma < math.inf) & (w < math.inf)
        if not ok.all():
            # The float body raises, or gives the floor where this read -0.5
            # (T = -0.0 K) or 0/0 (hbar|w| underflowing to 0 at T = 0).
            w, t = np.broadcast_arrays(omega, temperature)
            sigma = np.array(sigma)     # writable, also for 0-d arguments
            for i in np.flatnonzero(~ok):
                sigma.flat[i] = thermal_occupation(w.flat[i].item(), t.flat[i].item())
        return sigma
    w = abs(float(omega))
    if not 0.0 < w < math.inf:
        raise ValueError(f"omega = {omega!r} is outside the model: it must be "
                         "finite and nonzero (the classical spectrum diverges "
                         "at zero frequency)")
    t = float(temperature)
    if t == 0.0:
        return 0.5
    if not 0.0 < t < math.inf:
        raise ValueError(f"temperature must be finite and >= 0 K, got {t!r}")
    try:
        sigma = 0.5 / math.tanh(HBAR * w / (2.0 * K_B * t))
    except ZeroDivisionError:
        # Out of double range: 2 k_B T underflows for a subnormal T (the
        # argument is infinite, the floor holds), or the argument underflows
        # for hbar|w| << k_B T (the classical spectrum overflows).
        sigma = 0.5 if 2.0 * K_B * t == 0.0 else math.inf
    if sigma < math.inf:        # a subnormal argument overflows 0.5/tanh to inf
        return sigma
    raise ValueError(f"spectrum at omega = {omega!r} rad/s and T = {t!r} K "
                     "exceeds double range")


def bath_temperature(omega: float, sigma: float) -> float:
    """Invert :func:`thermal_occupation`: bath temperature giving sigma.

    Returns 0 for sigma exactly at the vacuum floor 1/2.
    """
    w = require_finite(abs(float(omega)), "|omega|")
    s = require_finite(sigma, "spectrum value", 0.5, closed=True)
    if s == 0.5:
        return 0.0
    # 2 k_B atanh(1/2s) underflows to 0 for sigma beyond ~3e300.
    x = 2.0 * K_B * math.atanh(1.0 / (2.0 * s))
    t = HBAR * w / x if x > 0.0 else math.inf
    if t < math.inf:
        return t
    raise ValueError(f"bath temperature at omega = {omega!r} rad/s and "
                     f"sigma = {s!r} exceeds double range")
