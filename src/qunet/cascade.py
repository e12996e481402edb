"""Series composition of measurement stages.

Stage coupling is feed-forward: the readout wave of stage k is the signal
of stage k+1, and each stage keeps an independent thermal input on its
readout line.  Composing the per-stage estimators is then exact
substitution: the deeper a stage sits, the more its noise sources are
suppressed, by the product of all upstream gains.  With a large first-stage
gain the downstream electronics contributes a vanishing fraction of the
total noise and may be treated as classical; the crossover gain for any
target excess is exposed by :func:`classical_gain_threshold`.

Every chain source is keyed by ``(stage, role)``, the role being one of the
stage's own source names (``"r"``, ``"a"``, ``"a'"``); the chain's signal
is ``(0, "l")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .amplifier import (NoiseBudget, OpAmpStage, added_noise, gain,
                        stage_estimator)
from .network import EstimatorCoefficients
from .spectra import require_finite

SIGNAL = (0, "l")


@dataclass(frozen=True)
class StageChain:
    """Ordered amplification stages, first one the preamplifier.

    The readout line of stage k must have the same impedance as the input
    line of stage k+1: the chained fields are identified literally, with no
    hidden matching network, so a mismatch is rejected.
    """

    stages: tuple[OpAmpStage, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("a chain needs at least one stage")
        for k, (up, down) in enumerate(zip(stages, stages[1:])):
            if up.r_right != down.r_left:
                raise ValueError(
                    f"impedance mismatch between stage {k} readout line "
                    f"({up.r_right!r} Ohm) and stage {k + 1} input line "
                    f"({down.r_left!r} Ohm); chained fields must share a line")
        object.__setattr__(self, "stages", stages)

    def __len__(self) -> int:
        return len(self.stages)

    def temperatures(self) -> dict[tuple[int, str], float]:
        """Bath temperature of every chain source, keyed by (stage, role)."""
        return {(k, role): t for k, stage in enumerate(self.stages)
                for role, t in stage.temperatures().items()}


def chain_estimator(chain: StageChain, omega: float) -> EstimatorCoefficients:
    """Signal estimator of the full chain read at the last stage.

    Stage 1 keeps its single-stage weights exactly; every deeper stage's
    sources enter divided by the product of all upstream gains.  The total
    gain of the chain is the product of the stage gains.
    """
    weights: dict[tuple[int, str], complex] = {SIGNAL: 1.0}
    total_gain: complex = 1.0
    for k, stage in enumerate(chain.stages):
        if total_gain == 0:
            raise ValueError(f"chain gain ahead of stage {k} underflows to 0 at "
                             f"omega = {omega!r} rad/s")
        est = stage_estimator(stage, omega)
        for role, mu in est.weights.items():
            if role != est.signal:
                weights[(k, role)] = mu / total_gain
        total_gain = total_gain * est.gain
    return EstimatorCoefficients(signal=SIGNAL, weights=weights, gain=total_gain)


def chain_added_noise(chain: StageChain, omega: float,
                      temperatures=None) -> NoiseBudget:
    """Added noise of the chain; ``temperatures`` overrides (stage, role) entries."""
    temps = chain.temperatures()
    if temperatures:
        unknown = temperatures.keys() - temps.keys()
        if unknown:
            raise KeyError(f"no chain source {sorted(unknown, key=repr)}; "
                           "sources are (stage, role) pairs")
        temps.update(temperatures)
    return added_noise(chain_estimator(chain, omega), temps, omega)


def _downstream(budget: NoiseBudget) -> float:
    """Sum of the contributions of every stage after the first."""
    return sum(v for (k, _), v in budget.contributions.items() if k > 0)


def downstream_noise_fraction(chain: StageChain, omega: float,
                              temperatures=None) -> float:
    """Fraction of the total added noise due to stages after the first.

    Zero for a single stage; falls off as 1/|G|^2 in the first-stage gain
    (power suppression by the preamplification).
    """
    budget = chain_added_noise(chain, omega, temperatures)
    if budget.total == 0.0:
        return 0.0
    return _downstream(budget) / budget.total


def classical_gain_threshold(chain: StageChain, omega: float,
                             eps: float) -> float:
    """First-stage gain above which the chain adds less than eps over stage 1.

    The excess Sigma_chain - Sigma_first is carried entirely by downstream
    sources and scales exactly as 1/|G1|^2, so the threshold follows from
    one evaluation of the chain.
    """
    eps = require_finite(eps, "eps")
    g1 = abs(gain(chain.stages[0], omega))
    if len(chain) < 2:
        return 0.0
    return g1 * math.sqrt(_downstream(chain_added_noise(chain, omega)) / eps)
