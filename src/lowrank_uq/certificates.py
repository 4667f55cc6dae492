"""Sequential adaptive sampling with a stopping certificate.

Doubling epochs m = 1, 2, ...: each epoch takes 2^(m+1) fresh measurements,
splits them into a pilot half (estimate, then project onto the state space)
and an uncertainty half (confidence ball around the pilot at per-epoch level
alpha = delta / (3T)), and stops once the ball's Frobenius diameter falls
below the target accuracy.  Epochs never reuse measurements; below n = d^2
the ball comes from the RSS statistic, at n >= d^2 from the re-averaged
full-basis statistic.

Two constants regimes: "theory" uses the explicit quantile constants (too
conservative to stop at desk scale, which is surfaced, not hidden, by the
epoch log), "simulation" the Monte-Carlo calibrated diameter formulas.
Centers and admissible truths all lie in the state space, whose Frobenius
diameter is at most 2 (bounded by the trace-norm diameter), so reported
diameters are capped there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .frobenius_sets import (
    paired_rss_statistic,
    pauli_deviation_constant,
    reavg_radius_sq,
    reavg_statistic,
    rss_calibrated_radius,
    rss_radius_sq,
    rss_statistic,
    ustat_calibrated_radius,
    ustat_radius_sq,
    ustat_statistic,
)
from .matrices import check_quantum_state
from .measurement import (
    BernoulliPauliNoise,
    GaussianNoise,
    MeasurementBatch,
    measure_bernoulli_pauli,
    measure_gaussian,
)
from .recovery import PilotConfig, pilot_estimate, pilot_to_state
from .sensing import DesignEnsemble, draw_paired_plan, draw_plan, full_basis_plan

__all__ = ["CertificateConfig", "EpochRecord", "Certificate", "run_certificate"]

STATE_SPACE_DIAMETER = 2.0


@dataclass(frozen=True)
class CertificateConfig:
    """``isotropic_ustat`` switches the uncertainty half to the pair
    statistic once n >= d^2 under isotropic designs; the theory constants
    then assume the unit Frobenius bound on the target."""

    epsilon: float
    delta: float
    ensemble: DesignEnsemble
    noise: object
    t_max: int = 14
    constants_regime: str = "simulation"
    pilot: PilotConfig = field(default_factory=PilotConfig)
    isotropic_ustat: bool = False

    def __post_init__(self):
        if self.epsilon <= 0 or not 0 < self.delta < 1:
            raise ValueError("need epsilon > 0 and delta in (0, 1)")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.constants_regime not in ("theory", "simulation"):
            raise ValueError(f"unknown constants regime {self.constants_regime!r}")

    @property
    def num_epochs_planned(self) -> int:
        # the epoch horizon entering the per-epoch level: order log2(d/epsilon)
        return max(1, math.ceil(math.log2(self.ensemble.dim / self.epsilon))) + 2


@dataclass(frozen=True)
class EpochRecord:
    m: int
    budget: int  # 2^(m+1) measurements acquired this epoch
    n_half: int
    method: str
    alpha: float
    statistic: float
    radius_sq: float
    diameter: float


@dataclass(frozen=True)
class Certificate:
    n_hat: int
    theta_hat: np.ndarray
    epochs: tuple
    stopped: bool
    epsilon: float
    delta: float
    constants_regime: str

    def to_json(self) -> str:
        payload = {
            "n_hat": self.n_hat,
            "stopped": self.stopped,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "constants": self.constants_regime,
            "epochs": [
                {
                    "m": e.m,
                    "budget": e.budget,
                    "method": e.method,
                    "alpha": e.alpha,
                    "statistic": e.statistic,
                    "diameter": e.diameter,
                }
                for e in self.epochs
            ],
        }
        return json.dumps(payload, sort_keys=True)


def _epoch_confidence(batch: MeasurementBatch, center, cfg: CertificateConfig,
                      alpha: float, method: str):
    """Per-epoch statistic, radius and diameter under the chosen regime."""
    noise = cfg.noise
    n, d = batch.n, batch.dim
    if isinstance(noise, GaussianNoise):
        sigma, stat_sigma, error_model = noise.sigma, noise.sigma, "gaussian"
    elif isinstance(noise, BernoulliPauliNoise):
        # variance unknown; bounded by d/T.  With T >= n the centering is
        # dropped and the bound enters the constants; with T < n the paired
        # statistic avoids the variance altogether.
        sigma = math.sqrt(noise.variance_bound(d))
        stat_sigma, error_model = 0.0, "bernoulli"
    else:
        raise TypeError(f"unknown noise model {noise!r}")

    if method == "PairedRSS":
        stat = paired_rss_statistic(batch, center)
    elif method == "ReAvg":
        stat = reavg_statistic(batch, center, stat_sigma)
    elif method == "UStat":
        stat = ustat_statistic(batch, center)
    else:
        stat = rss_statistic(batch, center, stat_sigma)

    if cfg.constants_regime == "simulation":
        if method == "UStat":
            radius = ustat_calibrated_radius(stat, n, d)
        else:
            radius = rss_calibrated_radius(stat, n)
        diameter = radius
        radius_sq = radius**2
    else:
        if method == "ReAvg":
            radius_sq = reavg_radius_sq(stat, n, d, sigma, alpha)
        elif method == "UStat":
            # Chebyshev-type level constants with the unit Frobenius bound
            zeta = math.sqrt(1.0 / alpha)
            radius_sq = ustat_radius_sq(stat, n, d, zeta, zeta)
        else:
            z = 0.0
            if cfg.ensemble.kind == "pauli":
                z = pauli_deviation_constant(alpha, cfg.ensemble.coherence)
            radius_sq = rss_radius_sq(stat, n, d, sigma, alpha,
                                      mode="implicit_solve", z=z,
                                      error_model=error_model)
        diameter = 2.0 * math.sqrt(radius_sq)
    return stat, radius_sq, min(diameter, STATE_SPACE_DIAMETER)


def run_certificate(target, cfg: CertificateConfig, rng) -> Certificate:
    """Run the doubling-epoch procedure until the ball diameter is <= epsilon.

    ``target`` is either a density matrix (simulation mode: measurements are
    generated internally under ``cfg.noise``) or a callable plan ->
    MeasurementBatch querying a live data source.  Measurements are never
    reused across epochs, and the pilot and uncertainty halves of an epoch
    are disjoint.
    """
    gen = np.random.default_rng(rng)
    if callable(target):
        acquire = target
    else:
        state = check_quantum_state(target)

        def acquire(plan):
            if isinstance(cfg.noise, GaussianNoise):
                return measure_gaussian(plan, state, cfg.noise.sigma, gen)
            return measure_bernoulli_pauli(plan, state, cfg.noise.shots, gen)

    d = cfg.ensemble.dim
    horizon = cfg.num_epochs_planned
    alpha = cfg.delta / (3.0 * horizon)
    epochs = []
    n_hat = 0
    theta_hat = None
    stopped = False
    for m in range(1, cfg.t_max + 1):
        n_half = 2**m
        n_hat += 2 * n_half

        pilot_plan = draw_plan(cfg.ensemble, n_half, gen)
        pilot_batch = acquire(pilot_plan)
        theta_hat = pilot_to_state(pilot_estimate(pilot_batch, cfg.pilot))

        unknown_sigma = isinstance(cfg.noise, BernoulliPauliNoise)
        if unknown_sigma and cfg.noise.shots < n_half:
            method = "PairedRSS"
            uq_plan = draw_paired_plan(cfg.ensemble, n_half, gen)
        elif cfg.ensemble.kind == "pauli" and n_half >= d * d:
            method = "ReAvg"
            uq_plan = full_basis_plan(cfg.ensemble, n_half // (d * d))
        elif cfg.isotropic_ustat and cfg.ensemble.kind == "gaussian" and n_half >= d * d:
            method = "UStat"
            uq_plan = draw_plan(cfg.ensemble, n_half, gen)
        else:
            method = "RSS"
            uq_plan = draw_plan(cfg.ensemble, n_half, gen)
        uq_batch = acquire(uq_plan)

        stat, radius_sq, diameter = _epoch_confidence(uq_batch, theta_hat, cfg, alpha, method)
        epochs.append(EpochRecord(m, 2 * n_half, n_half, method, alpha,
                                  stat, radius_sq, diameter))
        if diameter <= cfg.epsilon:
            stopped = True
            break
    return Certificate(
        n_hat=n_hat, theta_hat=theta_hat, epochs=tuple(epochs), stopped=stopped,
        epsilon=cfg.epsilon, delta=cfg.delta, constants_regime=cfg.constants_regime,
    )
