"""Monte-Carlo calibration of the empirical constants.

Grid searches pick the smallest constant achieving a target coverage on a
declared fixture suite; quantile fits pin the pilot risk constant D and the
eigenvalue deviation scale.  Everything is seeded and deterministic.  The
output is a key = value constants file whose keys are those of
``DEFAULT_SIMULATION_CONSTANTS`` and of :func:`calibrate_nuclear`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants_io import save_constants
from .experiments import ExperimentSpec, _cell_statistics
from .frobenius_sets import DEFAULT_SIMULATION_CONSTANTS, calibrated_bound
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
    "CalibrationError",
    "PilotFixture",
    "calibrate_ball_constant",
    "calibrate_pilot_risk",
    "calibrate_nuclear",
    "run_calibration",
]


# safety factor on the calibrated nuclear-set constants c_v and C
_MARGIN = 1.05


class CalibrationError(RuntimeError):
    """Target coverage unreachable on the declared grid."""


def coverage_curve(spec: ExperimentSpec, method: str, grid) -> np.ndarray:
    """Coverage per grid constant, minimized over the sample sizes ``spec.n_grid``.

    The coverage event at constant c is that of :func:`run_experiment`,
    error_norm_sq <= :func:`calibrated_bound` at the truth, with the
    method's deviation constant set to c.
    """
    r_sq = spec.error_norm_sq
    kind = method.lower()
    grid = np.asarray(grid, dtype=float)
    worst = np.ones_like(grid)
    for n in spec.n_grid:
        stats = _cell_statistics(spec, method, n, range(spec.reps))
        cov = np.array([
            np.mean(r_sq <= calibrated_bound(kind, stats, math.sqrt(r_sq), n, spec.d, c))
            for c in grid
        ])
        worst = np.minimum(worst, cov)
    return worst


def calibrate_ball_constant(spec: ExperimentSpec, method: str, target: float, grid) -> float:
    """Smallest grid constant whose worst-case fixture coverage meets target."""
    worst = coverage_curve(spec, method, grid)
    ok = np.nonzero(worst >= target)[0]
    if ok.size == 0:
        raise CalibrationError(
            f"target coverage {target} unreachable for {method}; "
            f"best achieved {worst.max():.4f} at constant {np.asarray(grid)[np.argmax(worst)]:g}"
        )
    return float(np.asarray(grid)[ok[0]])


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


def run_calibration(seed: int, out_path, targets=("rss", "ustat", "nuclear"),
                    reps: int = 300, coverage_target: float = 0.95,
                    delta: float = 0.1) -> dict:
    """The declared calibration suite; writes the constants file and returns it.

    Fixtures: the ball constants are calibrated on the isotropic design with
    a random one-entry error of squared norm 0.1 at n in {100, 500}; the
    nuclear-set constants on the Pauli design at d = 16, rank 2, sigma = 0.1,
    n = 8192.  ``targets`` names at least one of rss, ustat and nuclear.
    """
    if not targets:
        raise ValueError("no calibration target; choose from rss, ustat, nuclear")
    for name in targets:
        if name not in ("rss", "ustat", "nuclear"):
            raise ValueError(f"unknown calibration target {name!r}; "
                             "choose from rss, ustat, nuclear")
    if not 0 < coverage_target <= 1:
        raise ValueError(f"coverage target {coverage_target} is outside (0, 1]")
    if not 0 < delta < 1:
        raise ValueError(f"delta {delta} is outside (0, 1)")
    constants = {}
    grid = np.round(np.arange(0.25, 6.01, 0.25), 2)
    fixture = ExperimentSpec(
        design="gaussian", error_kind="dirac", error_norm_sq=0.1,
        n_grid=(100, 500), reps=reps, d=32, seed=seed,
    )
    for kind, method in (("ustat", "UStat"), ("rss", "RSS")):
        if kind in targets:
            constants[f"{kind}_c"] = calibrate_ball_constant(fixture, method,
                                                             coverage_target, grid)
            constants[f"{kind}_c_prime"] = DEFAULT_SIMULATION_CONSTANTS[f"{kind}_c_prime"]
    if "nuclear" in targets:
        fix = PilotFixture(
            ensemble=pauli_design(4), sigma=0.1, n=8192, rank=2,
            reps=max(60, reps // 2),
        )
        constants.update(calibrate_nuclear(fix, delta, np.random.SeedSequence((seed, 0xA11))))
    if out_path is not None:
        save_constants(out_path, constants, header=f"calibration seed {seed}")
    return constants
