"""Monte-Carlo calibration of the nuclear-norm set's constants.

Quantile fits pin the pilot risk constant D, the eigenvalue deviation scale
c_v and the ball constant C on one declared fixture.  Everything is seeded
and deterministic.  The output is a key = value constants file whose keys are
those of :func:`calibrate_nuclear`.  The Frobenius balls' constants,
``DEFAULT_SIMULATION_CONSTANTS``, are not calibrated here: they are the
values with which the paper's Table 1 is reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants_io import save_constants
from .matrices import _eigh, frobenius_norm, nuclear_norm, random_rank_k_state
from .measurement import measure_gaussian
from .nuclear_sets import (
    NuclearSetConfig,
    eigenvalue_estimator,
    nuclear_confidence_set,
    rip_rate,
)
from .recovery import RateFunction, pilot_estimate
from .sensing import DesignEnsemble, draw_plan, pauli_design

__all__ = [
    "PilotFixture",
    "calibrate_pilot_risk",
    "calibrate_nuclear",
    "run_calibration",
]


# safety factor on the calibrated nuclear-set constants c_v and C
_MARGIN = 1.05


@dataclass(frozen=True)
class PilotFixture:
    ensemble: DesignEnsemble
    sigma: float
    n: int
    rank: int
    reps: int


def _pilot_errors(fix: PilotFixture, rng) -> np.ndarray:
    gen = np.random.default_rng(rng)
    errors = np.empty(fix.reps)
    states = []
    pilots = []
    for rep in range(fix.reps):
        state = random_rank_k_state(fix.ensemble.dim, fix.rank, gen)
        plan = draw_plan(fix.ensemble, fix.n, gen)
        batch = measure_gaussian(plan, state, fix.sigma, gen)
        pilot = pilot_estimate(batch)
        errors[rep] = frobenius_norm(pilot - state) ** 2
        states.append(state)
        pilots.append(pilot)
    return errors, states, pilots


def _risk_quantile(fix: PilotFixture, errors: np.ndarray, delta: float) -> float:
    """Risk constant D from the squared pilot errors; floored at 1e-6 so the
    rate function stays positive."""
    scaled = fix.n * errors / (fix.sigma**2 * fix.rank * fix.ensemble.dim)
    return max(float(np.quantile(scaled, 1.0 - 2.0 * delta / 3.0)), 1e-6)


def calibrate_pilot_risk(fix: PilotFixture, delta: float, rng) -> float:
    """Risk constant D: the 1 - 2 delta/3 empirical quantile of
    n ||pilot - theta||_F^2 / (sigma^2 k d) over replications, at least 1e-6."""
    errors, _, _ = _pilot_errors(fix, rng)
    return _risk_quantile(fix, errors, delta)


def calibrate_nuclear(fix: PilotFixture, delta: float, rng) -> dict:
    """Calibrate D, the deviation scale multiplier c_v, and the ball constant C.

    Per replication: a fresh rank-k state, an independent pilot sample and a
    second sample for the spectrum estimate.  c_v is set so the partial-sum
    eigenvalue bound holds on 95% of replications, C so that the nuclear ball
    covers on 1 - delta of them; both get the safety margin ``_MARGIN``.
    """
    gen = np.random.default_rng(rng)
    d, n = fix.ensemble.dim, fix.n
    errors, states, pilots = _pilot_errors(fix, gen)
    risk_d = _risk_quantile(fix, errors, delta)
    rate = RateFunction(risk_d, fix.sigma, d, n)

    unit = rate(d) * rip_rate(d, d, n) + math.sqrt(d / n)  # deviation at c_v = 1
    cfg_unit = NuclearSetConfig(C=1.0, c_v=1.0, rate=rate, delta=delta)
    dev_ratios = np.empty(fix.reps)
    ball_ratios = np.empty(fix.reps)
    for rep in range(fix.reps):
        state, pilot = states[rep], pilots[rep]
        plan = draw_plan(fix.ensemble, n, gen)
        second = measure_gaussian(plan, state, fix.sigma, gen)
        est = eigenvalue_estimator(second, pilot, cfg_unit)
        true_spectrum = np.sort(_eigh(state, vectors=False))[::-1]
        gaps = np.abs(np.cumsum(est.lambdas) - np.cumsum(true_spectrum))
        j = np.arange(1, d + 1)
        dev_ratios[rep] = float(np.max(gaps / (2.0 * j * unit)))
        report = nuclear_confidence_set(pilot, est, cfg_unit)
        k_hat = report.k_hat
        ball_ratios[rep] = nuclear_norm(state - report.center) / (
            math.sqrt(k_hat) * rate(k_hat)
        )
    c_v = _MARGIN * float(np.quantile(dev_ratios, 0.95))
    ball_c = _MARGIN * float(np.quantile(ball_ratios, 1.0 - delta))
    return {"pilot_D": risk_d, "nuclear_c_v": c_v, "nuclear_C": ball_c}


# the fixture's 95% and 1 - delta quantiles need at least this many replications
_MIN_REPS = 60


def run_calibration(seed: int, out_path, reps: int = 150, delta: float = 0.1) -> dict:
    """The declared calibration suite; writes the constants file and returns it.

    Fixture: the Pauli design at d = 16, rank 2, sigma = 0.1, n = 8192, with
    ``reps`` replications (at least 60).
    """
    if reps < _MIN_REPS:
        raise ValueError(f"reps {reps} is below the floor of {_MIN_REPS}")
    if not 0 < delta < 1:
        raise ValueError(f"delta {delta} is outside (0, 1)")
    fix = PilotFixture(ensemble=pauli_design(4), sigma=0.1, n=8192, rank=2, reps=reps)
    constants = calibrate_nuclear(fix, delta, np.random.SeedSequence((seed, 0xA11)))
    if out_path is not None:
        save_constants(out_path, constants, header=f"calibration seed {seed}")
    return constants
