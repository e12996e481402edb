"""Frequency-domain simulator of quantum measurement chains.

Devices are modeled as scattering networks fed by semi-infinite thermal
lines; amplifiers carry conjugated noise channels enforcing the quantum
consistency of gain.  The package computes scattering maps, checks
commutator preservation, extracts normalized signal estimators and
equivalent-input-noise budgets, chains stages, and ships a cold-damped
accelerometer preset.
"""

from .spectra import HBAR, K_B, bath_temperature, thermal_occupation
from .network import (DEFAULT_TOLERANCE, Capacitor, Channel,
                      EstimatorCoefficients, Feedback, Inductor,
                      NoTransductionError, OpAmp, PortSpec, QuantumNetwork,
                      ScatteringMap, SingularNetworkError, commutator_residual)
from .amplifier import (MatchingResult, NoiseBudget, OpAmpStage, added_noise,
                        gain, matching_scan, stage_added_noise,
                        stage_estimator, stage_scattering)
from .cascade import (StageChain, chain_added_noise, chain_estimator,
                      classical_gain_threshold, downstream_noise_fraction)
from .accelerometer import (MICROSCOPE, PRESETS, AcceleroParams, Preset,
                            acceleration_sensitivity, accelerometer_budget,
                            cold_damped_temperature, force_estimator,
                            get_preset, is_detection_limited,
                            langevin_force_psd)
from .netlist import NetlistDocument, NetlistError, parse, serialize, to_network

__version__ = "0.1.0"
