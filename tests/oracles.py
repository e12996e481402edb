"""Closed-form stage relations, kept as oracles for the production path.

The package derives every stage quantity from the two scattering rows in
``qunet.amplifier``; these functions evaluate the explicit formulas of the
ideal op-amp stage instead, so the tests compare two independent
implementations.
"""

from __future__ import annotations

import math

from qunet import NoFeedbackError, thermal_occupation


def estimator_weights_closed_form(stage, omega: float) -> dict[str, complex]:
    """Noise weights of the stage estimator l_hat = l + mu_r r + mu_a a + mu_a' a'.

    mu_r  = sqrt(R_l R_r) / (2 Z_f)
    mu_a  = -(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l - 1/R_a)
    mu_a' = +(sqrt(R_l R_a)/2) (1/Z_f + 1/R_l + 1/R_a)
    """
    zf = stage.feedback_impedance(abs(float(omega)))
    if zf == 0:
        raise NoFeedbackError("Z_f = 0: no feedback, no readout")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    half_lra = math.sqrt(rl * ra) / 2.0
    return {
        "r": math.sqrt(rl * rr) / (2.0 * zf),
        "a": -half_lra * (1.0 / zf + 1.0 / rl - 1.0 / ra),
        "a'": half_lra * (1.0 / zf + 1.0 / rl + 1.0 / ra),
    }


def added_noise_closed_form(stage, omega: float) -> float:
    """Added noise from the explicit three-term spectral sum.

    R_l R_r/(4 |Z_f|^2) sigma_rr
    + (R_l R_a/4) |1/Z_f + 1/R_l - 1/R_a|^2 sigma_aa
    + (R_l R_a/4) |1/Z_f + 1/R_l + 1/R_a|^2 sigma_a'a'
    """
    w = abs(float(omega))
    zf = stage.feedback_impedance(w)
    if zf == 0:
        raise NoFeedbackError("Z_f = 0: no feedback, no readout")
    rl, rr, ra = stage.r_left, stage.r_right, stage.noise_impedance
    s_r = thermal_occupation(w, stage.readout_temp)
    s_a = thermal_occupation(w, stage.noise_temp)
    s_ap = thermal_occupation(w, stage.conj_temp)
    return (rl * rr / (4.0 * abs(zf) ** 2) * s_r
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl - 1.0 / ra) ** 2 * s_a
            + rl * ra / 4.0 * abs(1.0 / zf + 1.0 / rl + 1.0 / ra) ** 2 * s_ap)
