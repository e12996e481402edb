"""Ideal operational-amplifier measurement stage.

The stage couples a signal line l (impedance R_l) and a readout line r
(impedance R_r) through an ideal op-amp (infinite gain, infinite input
impedance, null output impedance) closed by a reactive feedback impedance
Z_f.  The amplifier noise is carried by a voltage generator U and a current
generator I built from one normal noise channel a and one conjugated
channel a':

    U = sqrt(hbar |w| R_a / 2)   (a - a')
    I = sqrt(hbar |w| / (2 R_a)) (a + a')

so that [U, I] equals hbar w times the canonical delta normalization, the
Heisenberg pair that enforces the amplifier quantum limit.  R_a (elsewhere
written R_0) is the noise impedance, sqrt(sigma_UU / sigma_II), taken
frequency-constant here.

Solving the stage equations gives the input-output relations

    l_out = -l_in + sqrt(2/(hbar |w| R_l)) U
    r_out = -r_in - (2 Z_f / sqrt(R_r R_l)) l_in
            + sqrt(2/(hbar |w| R_r)) ((R_l + Z_f)/R_l U - Z_f I)

and the normalized-field gain G = -2 Z_f / sqrt(R_r R_l).  Dividing the
readout by G yields the signal estimator

    l_hat = l_in + mu_r r_in + mu_a a_in + mu_a' a'_in
    mu_r  = sqrt(R_l R_r) / (2 Z_f)
    mu_a  = -(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l - 1/R_a)
    mu_a' = +(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l + 1/R_a)

whose weighted thermal spectra form the equivalent input noise.  The code
writes only the two input-output rows; the gain, the scattering map and
the estimator weights are all derived from them.  At matched
noise impedance (R_a = R_l), zero temperatures and large gain the added
noise tends to the vacuum half-quantum: the 3 dB quantum limit of
phase-insensitive amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .network import (Channel, EstimatorCoefficients, Feedback, NoTransductionError,
                      ScatteringMap)
from .spectra import require_finite, thermal_occupation


@dataclass(frozen=True)
class OpAmpStage:
    """One amplification stage and the temperatures of its noise inputs.

    ``noise_temp`` and ``conj_temp`` are the bath temperatures of the two
    amplifier noise lines (the conjugated line is the one worth cooling:
    at large gain it is the only surviving noise source).  ``readout_temp``
    is the bath temperature of the readout line.
    """

    r_left: float
    r_right: float
    noise_impedance: float
    feedback: Feedback
    noise_temp: float = 0.0
    conj_temp: float = 0.0
    readout_temp: float = 0.0

    def __post_init__(self):
        for label in ("r_left", "r_right", "noise_impedance"):
            require_finite(getattr(self, label), label)
        for label in ("noise_temp", "conj_temp", "readout_temp"):
            require_finite(getattr(self, label), label, closed=True)

    def temperatures(self) -> dict[str, float]:
        """Bath temperature of each noise source seen by the estimator."""
        return {"r": float(self.readout_temp), "a": float(self.noise_temp),
                "a'": float(self.conj_temp)}


SIGNAL = "l"


_INPUTS = (Channel("l"), Channel("r"), Channel("a"), Channel("a'", conjugated=True))
_OUTPUTS = _INPUTS[:2]


def _stage_rows(stage: OpAmpStage, omega: float) -> tuple[list, list]:
    """The l_out and r_out rows over the inputs (l, r, a, a').

    The single place where the stage input-output relations are written;
    every other stage quantity is derived from these two rows.
    """
    w = abs(float(omega))
    if not 0.0 < w < math.inf:
        raise ValueError(f"omega = {omega!r} is outside the model")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    try:
        zf = stage.feedback.impedance(w)
        kl = math.sqrt(ra / rl)
        kr = math.sqrt(ra / rr)
        amp_u = (1.0 + zf / rl) * kr           # U weight into r_out
        amp_i = zf / math.sqrt(ra * rr)        # I weight into r_out
        g = -2.0 * zf / math.sqrt(rr * rl)     # normalized-field gain
    except ZeroDivisionError:
        raise ValueError(f"stage at omega = {omega!r} rad/s leaves double range: "
                         "omega C, R_a R_r or R_r R_l underflows to 0") from None
    return ([-1.0, 0.0, kl, -kl],
            [g, -1.0, amp_u - amp_i, -amp_u - amp_i])


def gain(stage: OpAmpStage, omega: float) -> complex:
    """Normalized-field gain G = -2 Z_f / sqrt(R_r R_l), the r_out <- l_in entry."""
    return _stage_rows(stage, omega)[1][0]


def stage_scattering(stage: OpAmpStage, omega: float) -> ScatteringMap:
    """Input-output map of the stage over channels (l, r, a, a').

    Outputs are the two accessible fields l_out (back action) and r_out
    (readout); the map preserves the field commutators.
    """
    w = abs(float(omega))
    return ScatteringMap(w, _stage_rows(stage, w), _OUTPUTS, _INPUTS)


def stage_estimator(stage: OpAmpStage, omega: float) -> EstimatorCoefficients:
    """Equivalent-input-noise weights of the stage readout.

    The readout row divided by its signal entry, the gain.
    """
    g, r, a, a_conj = _stage_rows(stage, omega)[1]
    if g == 0:
        raise NoTransductionError("Z_f = 0: no feedback, no readout")
    weights = {SIGNAL: 1.0, "r": r / g, "a": a / g, "a'": a_conj / g}
    return EstimatorCoefficients(signal=SIGNAL, weights=weights, gain=g)


@dataclass(frozen=True)
class NoiseBudget:
    """Per-source equivalent input noise at one frequency or over a grid.

    Each source keeps its squared weight ``mu_abs2`` and the spectrum
    ``sigma`` of its line; its contribution is their product.  ``total`` is
    the plain sum of the contributions in source order (the sources are
    mutually uncorrelated), so additivity is exact by construction.  Over a
    grid ``omega`` and the values are (F,) arrays; the two methods take a point.
    A non-finite total raises a ValueError naming its first point and source.
    """

    omega: float
    mu_abs2: dict
    sigma: dict
    contributions: dict = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        contributions = {k: m * self.sigma[k] for k, m in self.mu_abs2.items()}
        total = 0.0
        for value in contributions.values():    # left to right: sum() compensates
            total += value                      # floats from Python 3.12 on
        if not hasattr(self.omega, "__len__"):          # a point, not a grid
            object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "contributions", contributions)
        object.__setattr__(self, "total", total)
        finite = total < math.inf       # the terms are >= 0: false for inf and NaN
        if not (finite.all() if hasattr(finite, "all") else finite):
            at = (lambda x: x) if type(self.omega) is float else (lambda x: x[finite.argmin()])
            bad = [k for k, c in contributions.items() if not math.isfinite(at(c))]
            what = f"|mu|^2 or contribution of source {bad[0]!r}" if bad else "total"
            raise ValueError(f"noise budget at {float(at(self.omega)) / (2.0 * math.pi)!r} "
                             f"Hz is not finite: the {what} overflows")

    def sorted_items(self) -> list[tuple]:
        """(source, contribution) pairs, largest first, ties by source."""
        return sorted(self.contributions.items(), key=lambda kv: (-kv[1], kv[0]))

    def shares(self) -> dict:
        """Each source's percentage of the total; all 0 for a zero total."""
        t = self.total      # 100 v / t, or 100 (v / t) where 100 v overflows
        return {k: (100.0 * v / t if 100.0 * v < math.inf else 100.0 * (v / t))
                if t > 0.0 else 0.0 for k, v in self.contributions.items()}


def added_noise(estimator: EstimatorCoefficients, temperatures,
                omega: float) -> NoiseBudget:
    """Total added noise Sigma = sum over sources of |mu|^2 sigma(omega, T).

    ``temperatures`` maps every non-signal source of the estimator to the
    bath temperature of its line; a missing entry is an error naming the
    source.
    """
    mu_abs2, sigma = {}, {}
    for name, mu in estimator.weights.items():
        if name == estimator.signal:
            continue
        t = temperatures.get(name)
        if t is None:
            raise KeyError(f"no temperature given for noise source {name!r}")
        try:
            mu_abs2[name] = abs(mu) ** 2
        except OverflowError:       # NoiseBudget refuses it, naming the source
            mu_abs2[name] = math.inf
        sigma[name] = thermal_occupation(omega, t)
    return NoiseBudget(omega, mu_abs2, sigma)


def stage_added_noise(stage: OpAmpStage, omega: float) -> NoiseBudget:
    """Added noise of a stage with its own line temperatures."""
    return added_noise(stage_estimator(stage, omega), stage.temperatures(), omega)


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of a noise-impedance scan."""

    noise_impedance: float
    index: int
    grid: tuple[float, ...]
    sigmas: tuple[float, ...]
    at_boundary: bool


def matching_scan(stage: OpAmpStage, noise_impedances, omega: float) -> MatchingResult:
    """Scan R_a and locate the added-noise minimum.

    In the large-gain, equal-temperature regime the optimum sits at
    R_a = R_l (noise matching).  A minimum on the grid edge, including the
    degenerate single-point grid, is reported with ``at_boundary`` set.
    """
    grid = tuple(float(r) for r in noise_impedances)
    if not grid:
        raise ValueError("noise impedance grid is empty")
    sigmas = []
    for ra in grid:
        trial = replace(stage, noise_impedance=ra)
        sigmas.append(stage_added_noise(trial, omega).total)
    idx = min(range(len(grid)), key=lambda i: (sigmas[i], i))
    return MatchingResult(noise_impedance=grid[idx], index=idx, grid=grid,
                          sigmas=tuple(sigmas),
                          at_boundary=(idx == 0 or idx == len(grid) - 1))

