"""Sequential adaptive sampling with a stopping certificate.

Doubling epochs m = 1, 2, ...: each epoch takes 2^(m+1) fresh measurements,
splits them into a pilot half (estimate, then project onto the state space)
and an uncertainty half (a :func:`~lowrank_uq.frobenius_sets.frobenius_ball`
around the pilot at per-epoch level alpha = delta / (3T)), and stops once the
ball's width falls to the target accuracy.  Epochs never reuse measurements.
The ball's statistic is PairedRSS under Bernoulli noise with fewer
preparations T than n_half (the variance is unknown); once n_half >= d^2 it
is ReAvg for Pauli designs and UStat for isotropic designs with
``isotropic_ustat`` set; otherwise it is RSS.

Two constants regimes: "theory" uses the explicit quantile constants (too
conservative to stop at desk scale, which is surfaced, not hidden, by the
epoch log) and compares the ball's diameter 2 * radius with the target;
"simulation" uses the Monte-Carlo calibrated constants and compares the
radius itself.  Centers and admissible truths all lie in the state space,
whose Frobenius diameter is at most 2 (bounded by the trace-norm diameter),
so reported widths are capped there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .frobenius_sets import frobenius_ball
from .matrices import check_quantum_state
from .measurement import (
    BernoulliPauliNoise,
    GaussianNoise,
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


def run_certificate(target, cfg: CertificateConfig, rng) -> Certificate:
    """Run the doubling-epoch procedure until the ball's width is <= epsilon.

    ``target`` is either a density matrix (simulation mode: measurements are
    generated internally under ``cfg.noise``) or a callable plan ->
    MeasurementBatch querying a live data source; a batch for another plan
    or under another noise than ``cfg.noise`` raises ValueError.
    Measurements are never reused across epochs, and the pilot and
    uncertainty halves of an epoch are disjoint.
    """
    gen = np.random.default_rng(rng)
    if callable(target):
        def acquire(plan):
            # the ball reads the design and the noise level from the batch
            batch = target(plan)
            got = batch.plan
            if got is not plan and not (got.ensemble == plan.ensemble and got.n == plan.n
                                        and np.array_equal(got.indices, plan.indices)
                                        and np.array_equal(got.matrices, plan.matrices)):
                raise ValueError("the oracle returned a batch for a different plan "
                                 "than requested")
            if batch.noise != cfg.noise:
                raise ValueError(f"the oracle's noise {batch.noise!r} differs from "
                                 f"{cfg.noise!r}")
            return batch
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

        if isinstance(cfg.noise, BernoulliPauliNoise) and cfg.noise.shots < n_half:
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

        ball = frobenius_ball(method, uq_batch, theta_hat, alpha, cfg.constants_regime)
        # The paper stops on the diameter of the confidence set, 2 * radius,
        # and so does the theory regime.  The simulation regime compares the
        # calibrated radius itself: it bounds the error of the center whenever
        # the ball covers the truth, which is the event the constants were
        # calibrated for.  Both are capped at the state space's diameter.
        radius = math.sqrt(ball.radius_sq)
        width = radius if cfg.constants_regime == "simulation" else 2.0 * radius
        diameter = min(width, STATE_SPACE_DIAMETER)
        epochs.append(EpochRecord(m, 2 * n_half, n_half, method, alpha,
                                  ball.statistic_value, ball.radius_sq, diameter))
        if diameter <= cfg.epsilon:
            stopped = True
            break
    return Certificate(
        n_hat=n_hat, theta_hat=theta_hat, epochs=tuple(epochs), stopped=stopped,
        epsilon=cfg.epsilon, delta=cfg.delta, constants_regime=cfg.constants_regime,
    )
