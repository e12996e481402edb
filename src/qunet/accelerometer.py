"""Cold-damped capacitive accelerometer as a built-in network instance.

A proof mass inside an electrode cage is read out capacitively at a carrier
frequency well above the measurement band, the bridge signal is amplified
by an op-amp stage with capacitive feedback, demodulated, and fed back to
keep the mass centered.  The estimator of the external force normalizes the
correction signal so the force coefficient is one; its added noise combines
the mechanical Langevin force of the residual damping with the detection
noise referred to force units.

The electromechanical coupling between detection fields and force is an
explicit user parameter (``transduction_gain``, newton per normalized field
unit): the bridge electromechanics are instrument-specific and no default
can claim generality.  The built-in ``microscope`` preset uses a
deliberately small placeholder value, matching the regime where the
mechanical Langevin term dominates the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .amplifier import NoiseBudget, OpAmpStage, stage_added_noise
from .cascade import StageChain, chain_estimator
from .network import EstimatorCoefficients, Feedback, NoTransductionError
from .spectra import HBAR, K_B, bath_temperature, require_finite

FORCE_UNITS = "(kg m s^-2)^2/Hz"


@dataclass(frozen=True)
class AcceleroParams:
    """Instrument parameters of the accelerometer model.

    ``amp_noise_theta`` and ``mech_theta`` are effective temperatures
    (energy per mode over k_B) of the detection amplifier and of the
    mechanical bath.  ``mech_damping`` may be zero for an idealized
    dissipation-free proof mass.
    """

    mass: float                  # kg
    mech_damping: float          # kg/s
    measurement_omega: float     # rad/s, motion band
    carrier_omega: float         # rad/s, transducer operating frequency
    amp_noise_impedance: float   # Ohm
    amp_noise_theta: float       # K
    mech_theta: float = 300.0    # K

    def __post_init__(self):
        for label in ("mass", "measurement_omega", "carrier_omega",
                      "amp_noise_impedance"):
            require_finite(getattr(self, label), label)
        for label in ("mech_damping", "amp_noise_theta", "mech_theta"):
            require_finite(getattr(self, label), label, closed=True)
        if not float(self.measurement_omega) < float(self.carrier_omega):
            raise ValueError("the measurement band must sit below the carrier")


def langevin_force_psd(params: AcceleroParams) -> float:
    """Mechanical Langevin force PSD 2 H_m k_B Theta_m, force^2/Hz."""
    return 2.0 * float(params.mech_damping) * K_B * float(params.mech_theta)


def acceleration_sensitivity(params: AcceleroParams,
                             force_psd: float | None = None) -> float:
    """Acceleration amplitude spectral density sqrt(Sigma_FF)/M.

    Uses the Langevin force PSD when no total is supplied.
    """
    psd = (langevin_force_psd(params) if force_psd is None
           else require_finite(force_psd, "force PSD", closed=True))
    return math.sqrt(psd) / float(params.mass)


LANGEVIN_SOURCE = "langevin"


def accelerometer_budget(params: AcceleroParams,
                         stage: OpAmpStage | None = None,
                         transduction_gain: float | None = None) -> NoiseBudget:
    """Force-referred noise budget at the measurement frequency.

    The detection stage is evaluated at the carrier (the measurement band
    appears as sidebands of an ideal demodulation, which adds nothing
    beyond the stage model) and referred to force through
    ``transduction_gain``: each detection source keeps its spectrum at the
    carrier and its |mu|^2 times the squared gain.  The Langevin row has
    weight one on the mechanical force PSD.  Passing a stage without a
    transduction gain is an error: the coupling is instrument physics this
    model refuses to invent.
    """
    mu_abs2 = {LANGEVIN_SOURCE: 1.0}
    sigma = {LANGEVIN_SOURCE: langevin_force_psd(params)}
    if stage is not None:
        if transduction_gain is None:
            raise ValueError(
                "a detection stage needs an explicit transduction gain "
                "(newton per normalized field unit) to be referred to force")
        try:
            g2 = require_finite(transduction_gain, "transduction gain", low=-math.inf) ** 2
        except OverflowError:       # NoiseBudget refuses it, naming the source
            g2 = math.inf
        detection = stage_added_noise(stage, float(params.carrier_omega))
        mu_abs2.update((name, g2 * m) for name, m in detection.mu_abs2.items())
        sigma.update(detection.sigma)
    return NoiseBudget(params.measurement_omega, mu_abs2, sigma)


def is_detection_limited(budget: NoiseBudget) -> bool:
    """True when the detection rows outweigh the mechanical Langevin row."""
    langevin = budget.contributions.get(LANGEVIN_SOURCE, 0.0)
    detection = sum(v for k, v in budget.contributions.items()
                    if k != LANGEVIN_SOURCE)
    return detection > langevin


FORCE_SIGNAL = "F_ext"


def force_estimator(params: AcceleroParams, stages: tuple[OpAmpStage, ...],
                    transduction_gain: float) -> EstimatorCoefficients:
    """Force readout normalized so the external-force coefficient is one.

    ``(stage,)`` is the free readout and ``(stage, servo)`` the servo one.
    There the detection stage sits inside the loop, so its carrier gain is
    the loop gain: it suppresses the feedback amplifier's own sources, and
    the shared weights match the free readout's identically.  Each chain
    source ``(stage, role)`` enters with its weight times the transduction
    gain g, the Langevin force with weight one, as it acts on the proof mass
    like the measured force.  The gain is the chain gain over g; g = 0
    raises :class:`NoTransductionError`.
    """
    g = float(transduction_gain)
    if g == 0.0:
        raise NoTransductionError("transduction gain 0: the readout does not "
                                  "couple to the force")
    est = chain_estimator(StageChain(stages), params.carrier_omega)
    weights = {FORCE_SIGNAL: 1.0, LANGEVIN_SOURCE: 1.0,
               **{src: g * mu for src, mu in est.noise_weights().items()}}
    return EstimatorCoefficients(signal=FORCE_SIGNAL, weights=weights,
                                 gain=est.gain / g)


def cold_damped_temperature(params: AcceleroParams,
                            detection_force_psd: float,
                            feedback_damping: float) -> float:
    """Effective temperature of the cold-damped motion.

    Ratio of the total force noise to the total damping, in the
    fluctuation-dissipation sense: (2 H_m k_B Theta_m + Sigma_det) /
    (2 k_B (H_m + H_fb)).  With the synthesized friction dominating
    (H_fb > H_m) and the detection noise below the Langevin term, this
    falls strictly below the physical bath temperature.
    """
    psd = require_finite(detection_force_psd, "detection force PSD", closed=True)
    h_total = float(params.mech_damping) + require_finite(
        feedback_damping, "feedback damping (kg/s)", closed=True)
    if h_total == 0.0:
        raise ValueError("undamped mass has no stationary effective temperature")
    return (langevin_force_psd(params) + psd) / (2.0 * K_B * h_total)


@dataclass(frozen=True)
class Preset:
    name: str
    params: AcceleroParams
    stage: OpAmpStage
    transduction_gain: float
    description: str


def _microscope_preset() -> Preset:
    params = AcceleroParams(
        mass=0.27,
        mech_damping=1.3e-5,
        measurement_omega=2.0 * math.pi * 5e-4,
        carrier_omega=2.0 * math.pi * 1e5,
        amp_noise_impedance=0.15e6,
        amp_noise_theta=1.5,
        mech_theta=300.0,
    )
    w_t = params.carrier_omega
    r_a = params.amp_noise_impedance
    # Bath temperature reproducing the quoted effective amplifier temperature
    # at the carrier (deep classical regime, so numerically ~1.5 K).
    sigma_a = K_B * params.amp_noise_theta / (HBAR * w_t)
    t_a = bath_temperature(w_t, sigma_a)
    # Matched detection stage; feedback capacitance placed for |G| = 1e4 at
    # the carrier.  Both are instrument-model defaults, not published values.
    gain_mag = 1e4
    c_f = 2.0 / (w_t * gain_mag * r_a)
    stage = OpAmpStage(r_left=r_a, r_right=r_a, noise_impedance=r_a,
                       feedback=Feedback.capacitive(c_f),
                       noise_temp=t_a, conj_temp=0.0, readout_temp=0.0)
    return Preset(
        name="microscope",
        params=params,
        stage=stage,
        # Placeholder coupling, small enough that detection noise stays well
        # below the mechanical Langevin floor.
        transduction_gain=1e-14,
        description="cold-damped capacitive space microaccelerometer",
    )


PRESETS: dict[str, Preset] = {"microscope": _microscope_preset()}

MICROSCOPE = PRESETS["microscope"]


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")


def preset_with_overrides(name: str, mech_theta: float | None = None,
                          mech_damping: float | None = None,
                          transduction_gain: float | None = None) -> Preset:
    preset = get_preset(name)
    params = preset.params
    if mech_theta is not None:
        params = replace(params, mech_theta=float(mech_theta))
    if mech_damping is not None:
        params = replace(params, mech_damping=float(mech_damping))
    gain = (preset.transduction_gain if transduction_gain is None else
            float(transduction_gain))      # accelerometer_budget refuses a non-finite gain
    return replace(preset, params=params, transduction_gain=gain)
