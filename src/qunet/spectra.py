"""Thermal and quantum noise laws shared by every other module.

Conventions
-----------
* Angular frequencies (rad/s) everywhere inside the library; only the file
  format and the CLI speak in Hz.
* Noise spectra are symmetric (two-sided).  The one-sided engineering
  convention is a factor 2 larger; that conversion is a display concern and
  never happens inside the physics.
* Temperatures fed to :func:`thermal_occupation` are physical bath
  temperatures.  Effective temperatures (energy per mode divided by k_B) are
  derived quantities, produced by :func:`effective_temperature`, and can be
  mapped back to a bath temperature with :func:`bath_temperature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def thermal_occupation(omega: float, temperature: float) -> float:
    """Symmetric noise spectrum of a thermal line, in quanta per mode.

    Parameters
    ----------
    omega : float
        Angular frequency in rad/s.  Must be nonzero; only its magnitude
        matters (the spectrum is even in frequency).
    temperature : float
        Physical bath temperature in kelvin, finite and >= 0.

    Returns
    -------
    float
        (1/2) coth(hbar |omega| / 2 k_B T).  Exactly 0.5 at T = 0 (vacuum
        floor).  In the high-temperature limit this tends to
        k_B T / (hbar |omega|).

    Notes
    -----
    For hbar|omega|/(2 k_B T) larger than ~19 the hyperbolic tangent
    saturates in double precision and the vacuum floor 0.5 is returned.
    """
    w = abs(float(omega))
    if w == 0.0:
        raise ValueError("omega = 0 is outside the model: the classical "
                         "spectrum diverges at zero frequency")
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


def effective_temperature(omega: float, sigma: float) -> float:
    """Energy per mode of a spectrum value, expressed as a temperature.

    Theta = hbar |omega| sigma / k_B.  Interpolates between the ground-state
    energy hbar|omega|/2 per mode (sigma = 1/2) and the classical k_B T per
    mode recovered at high temperature.
    """
    w = abs(float(omega))
    if w == 0.0:
        raise ValueError("omega = 0 is outside the model")
    s = float(sigma)
    if s < 0.5:
        raise ValueError(f"spectrum value {s!r} is below the vacuum floor 1/2")
    return HBAR * w * s / K_B


def bath_temperature(omega: float, sigma: float) -> float:
    """Invert :func:`thermal_occupation`: bath temperature giving sigma.

    Returns 0 for sigma exactly at the vacuum floor 1/2.
    """
    w = abs(float(omega))
    if w == 0.0:
        raise ValueError("omega = 0 is outside the model")
    s = float(sigma)
    if s < 0.5:
        raise ValueError(f"spectrum value {s!r} is below the vacuum floor 1/2")
    if s == 0.5:
        return 0.0
    return HBAR * w / (2.0 * K_B * math.atanh(1.0 / (2.0 * s)))


def johnson_voltage_psd(resistance: float, omega: float,
                        temperature: float) -> float:
    """Open-circuit voltage noise PSD of a resistor, V^2/Hz (two-sided).

    2 R hbar |omega| * thermal_occupation(omega, T) = 2 R k_B Theta.  Reduces
    to 2 R k_B T in the classical limit (the one-sided engineering figure
    4 k_B T R is a factor 2 larger).
    """
    r = float(resistance)
    if r < 0.0:
        raise ValueError(f"resistance must be >= 0 Ohm, got {r!r}")
    return 2.0 * r * HBAR * abs(float(omega)) * thermal_occupation(omega, temperature)


@dataclass(frozen=True)
class FrequencyGrid:
    """Ordered grid of angular frequencies (rad/s), strictly positive.

    Zero frequency is excluded by construction: the classical thermal
    spectrum diverges there and nothing in the model is evaluated at DC.
    """

    points: tuple[float, ...]
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "logarithmic"):
            raise ValueError(f"unknown grid scale {self.scale!r}")
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("frequency grid must contain at least one point")
        for p in pts:
            if not math.isfinite(p) or p == 0.0:
                raise ValueError(f"grid point {p!r} is not a finite nonzero frequency")
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def linear_hz(cls, f_lo: float, f_hi: float, n: int) -> "FrequencyGrid":
        return cls(_spaced_hz(f_lo, f_hi, n, log=False), scale="linear")

    @classmethod
    def log_hz(cls, f_lo: float, f_hi: float, n: int) -> "FrequencyGrid":
        return cls(_spaced_hz(f_lo, f_hi, n, log=True), scale="logarithmic")

    @property
    def hertz(self) -> tuple[float, ...]:
        return tuple(p / (2.0 * math.pi) for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _spaced_hz(f_lo: float, f_hi: float, n: int, log: bool) -> tuple[float, ...]:
    f_lo, f_hi, n = float(f_lo), float(f_hi), int(n)
    if f_lo <= 0.0:
        raise ValueError(f"frequencies must be positive, got {f_lo!r} Hz")
    if n < 1:
        raise ValueError("grid needs at least one point")
    if n == 1:
        return (2.0 * math.pi * f_lo,)
    if not f_hi > f_lo:
        raise ValueError("upper frequency must exceed lower frequency")
    if log:
        ratio = (f_hi / f_lo) ** (1.0 / (n - 1))
        hz = [f_lo * ratio ** i for i in range(n)]
    else:
        step = (f_hi - f_lo) / (n - 1)
        hz = [f_lo + step * i for i in range(n)]
    hz[-1] = f_hi
    return tuple(2.0 * math.pi * f for f in hz)
