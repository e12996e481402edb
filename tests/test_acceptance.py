"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from qunet import (K_B, HBAR, MICROSCOPE, NetlistError, OpAmpStage, Feedback,
                   QuantumNetwork, StageChain, acceleration_sensitivity,
                   accelerometer_budget, downstream_noise_fraction, matching_scan,
                   parse, serialize, stage_added_noise, stage_estimator,
                   stage_scattering, thermal_occupation)

from helpers import (random_omega, random_passive_network, random_stage,
                     stage_with_gain)
from oracles import (added_noise_closed_form, check_commutators,
                     estimator_weights_closed_form, johnson_voltage_psd)
from test_netlist import random_document_text

W0 = 2.0 * math.pi * 1e5


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"FAIL criterion {number}: {label} "
              f"(runtime {elapsed:.2f}s over the {budget_s}s budget)")
        raise AssertionError(f"criterion {number} runtime {elapsed:.2f}s "
                             f"exceeds {budget_s}s")
    print(f"PASS criterion {number}: {label} ({elapsed:.3f}s)")


def test_criterion_1_quantum_limit():
    with criterion(1, "matched zero-temperature stage reaches the "
                      "half-quantum added noise", 1.0):
        for gain_mag, tol in ((1e4, 2e-4), (1e6, 2e-6)):
            stage = stage_with_gain(gain_mag)
            total = stage_added_noise(stage, W0).total
            assert abs(total - 0.5) < tol, (gain_mag, total)


def test_criterion_2_noise_matching():
    with criterion(2, "added-noise minimum sits at the matched noise "
                      "impedance within one grid step", 1.0):
        r_l = 50.0
        stage = OpAmpStage(r_l, r_l, r_l, Feedback.reactance(1e4 * r_l),
                           noise_temp=4.2, conj_temp=4.2, readout_temp=4.2)
        grid = np.geomspace(r_l / 100.0, 100.0 * r_l, 100)
        result = matching_scan(stage, grid, W0)
        step = math.log(grid[1] / grid[0])
        assert abs(math.log(result.noise_impedance / r_l)) <= step * (1 + 1e-9)
        assert not result.at_boundary


def test_criterion_3_cascade_suppression_slope():
    with criterion(3, "downstream noise fraction falls as the inverse "
                      "squared first-stage gain", 1.0):
        second = stage_with_gain(1e3)
        gains = np.geomspace(1e2, 1e5, 13)
        fractions = []
        for g in gains:
            chain = StageChain((stage_with_gain(float(g)), second))
            fractions.append(downstream_noise_fraction(chain, W0))
        slope = np.polyfit(np.log10(gains), np.log10(fractions), 1)[0]
        assert abs(slope + 2.0) < 0.02, slope


def test_criterion_4_commutator_preservation():
    with criterion(4, "random passive networks stay unitary and random "
                      "stages preserve the signed commutators", 5.0):
        rng = np.random.default_rng(42)
        worst_passive = 0.0
        for _ in range(100):
            ports, comps = random_passive_network(rng)
            smap = QuantumNetwork(ports, comps).sweep([random_omega(rng)])[0]
            worst_passive = max(worst_passive, check_commutators(smap))
        assert worst_passive < 1e-10, worst_passive
        worst_stage = 0.0
        for _ in range(100):
            smap = stage_scattering(random_stage(rng), random_omega(rng))
            worst_stage = max(worst_stage, check_commutators(smap))
        assert worst_stage < 1e-10, worst_stage


def test_criterion_5_accelerometer_numbers():
    with criterion(5, "microscope preset reproduces the published force "
                      "noise and acceleration sensitivity", 1.0):
        budget = accelerometer_budget(MICROSCOPE.params, MICROSCOPE.stage,
                                      MICROSCOPE.transduction_gain)
        assert abs(budget.total - 1.1e-25) / 1.1e-25 < 0.05, budget.total
        sens = acceleration_sensitivity(MICROSCOPE.params, budget.total)
        assert abs(sens - 1.2e-12) / 1.2e-12 < 0.05, sens


def test_criterion_6_thermal_law_limits():
    with criterion(6, "thermal spectrum limits: vacuum floor, classical "
                      "recovery, Johnson linearity", 1.0):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = 2.0 * math.pi * 10.0 ** rng.uniform(0.0, 9.0)
            assert thermal_occupation(w, 0.0) == 0.5
            t = 10.0 ** rng.uniform(-2.0, 3.0)
            w_cl = 1e-3 * K_B * t / HBAR
            sigma = thermal_occupation(w_cl, t)
            classical = K_B * t / (HBAR * w_cl)
            assert abs(sigma - classical) / sigma < 1e-6
            r = 10.0 ** rng.uniform(0.0, 6.0)
            ratio = (johnson_voltage_psd(2.0 * r, w, t)
                     / johnson_voltage_psd(r, w, t))
            assert abs(ratio - 2.0) < 1e-14


def test_criterion_7_estimator_consistency_oracle():
    with criterion(7, "estimator path equals the normalized readout row and "
                      "the closed-form spectral sum", 2.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            stage = random_stage(rng)
            w = random_omega(rng)
            est = stage_estimator(stage, w)
            beta, *noise = stage_scattering(stage, w).matrix[1]     # the r row
            oracle_weights = estimator_weights_closed_form(stage, w)
            for name, s in zip(("r", "a", "a'"), noise):
                assert abs(est.weights[name] - s / beta) < 1e-12
                assert abs(est.weights[name] - oracle_weights[name]) < 1e-12
            total = stage_added_noise(stage, w).total
            oracle = added_noise_closed_form(stage, w)
            assert abs(total - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_criterion_8_parser_round_trip():
    with criterion(8, "parse/serialize identity over 500 generated documents "
                      "and positioned errors", 5.0):
        rng = np.random.default_rng(8)
        for _ in range(500):
            text = random_document_text(rng)
            first = parse(text)
            assert parse(serialize(first)) == first
        bad_inputs = [
            "line l impedance=-5 temperature=300",
            "bogus statement",
            "line l impedance=abc temperature=0",
            "signal nowhere",
            "sweep 10 1 5 log",
        ]
        for text in bad_inputs:
            try:
                parse(text)
            except NetlistError as err:
                assert err.issues
                assert all(i.line >= 1 and i.column >= 1 for i in err.issues)
            else:
                raise AssertionError(f"expected a parse error for {text!r}")
