"""Sequential adaptive sampling with a stopping certificate.

Doubling epochs m = 1, 2, ...: each epoch takes 2^(m+1) fresh measurements,
splits them into a pilot half (estimate, then project onto the state space)
and an uncertainty half (a :func:`~lowrank_uq.frobenius_sets.frobenius_ball`
around the pilot at per-epoch level alpha = delta / (3T)), and stops once the
ball's width falls to the target accuracy.  Epochs never reuse measurements.
The ball's statistic is PairedRSS under Bernoulli noise with fewer
preparations T than n_half (the variance is unknown), ReAvg for Pauli designs
once n_half >= d^2, and RSS otherwise.

Two constants regimes: "theory" uses the explicit quantile constants (too
conservative to stop at desk scale, which is surfaced, not hidden, by the
epoch log) and compares the ball's diameter 2 * radius with the target;
"simulation" uses the constants of ``DEFAULT_SIMULATION_CONSTANTS`` and
compares the radius itself.  Its balls are fixed sets that do not depend on
alpha, so this regime spends none of delta: delta changes only the reported
alpha, and acceptance criterion 7 checks the failure rate empirically.
Centers and admissible truths all lie in the state space, whose Frobenius
diameter is at most 2 (bounded by the trace-norm diameter), so reported
widths are capped there.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .frobenius_sets import frobenius_ball
from .matrices import check_quantum_state
from .measurement import (
    BernoulliPauliNoise,
    GaussianNoise,
    measure_bernoulli_pauli,
    measure_gaussian,
)
from .recovery import pilot_estimate, pilot_to_state
from .sensing import DesignEnsemble, draw_paired_plan, draw_plan, full_basis_plan

__all__ = ["CertificateConfig", "EpochRecord", "Certificate", "run_certificate"]

STATE_SPACE_DIAMETER = 2.0
T_MAX = 14  # the epoch cap: at most 2^(T_MAX+2) - 4 = 65,532 measurements


@dataclass(frozen=True)
class CertificateConfig:
    epsilon: float
    delta: float
    ensemble: DesignEnsemble
    noise: object
    constants_regime: str = "simulation"

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.constants_regime not in ("theory", "simulation"):
            raise ValueError(f"unknown constants regime {self.constants_regime!r}")
        if not isinstance(self.noise, (GaussianNoise, BernoulliPauliNoise)):
            raise ValueError(f"noise must be GaussianNoise or BernoulliPauliNoise, "
                             f"got {self.noise!r}")
        if isinstance(self.noise, BernoulliPauliNoise) and self.ensemble.kind != "pauli":
            raise ValueError("Bernoulli noise measures Pauli designs only")

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
    pilot_iterations: int
    pilot_converged: bool
    pilot_gap: float  # relative duality gap of the pilot solve


@dataclass(frozen=True)
class Certificate:
    theta_hat: np.ndarray
    epochs: tuple
    stopped: bool
    config: CertificateConfig

    @property
    def n_hat(self) -> int:  # the stopping time: every measurement taken
        return sum(e.budget for e in self.epochs)

    def to_json(self) -> str:
        payload = {
            "n_hat": self.n_hat,
            "stopped": self.stopped,
            "epsilon": self.config.epsilon,
            "delta": self.config.delta,
            "constants": self.config.constants_regime,
            "epochs": [asdict(e) for e in self.epochs],
        }
        return json.dumps(payload, sort_keys=True)


def run_certificate(target, cfg: CertificateConfig, rng) -> Certificate:
    """Run up to ``T_MAX`` doubling epochs, until the ball's width is <= epsilon.

    ``target`` is a callable plan -> MeasurementBatch querying a live data
    source, or a density matrix, measured under ``cfg.noise`` with draws from
    ``rng``.  A batch for another plan or another noise than ``cfg.noise``
    raises ValueError.  Measurements are never reused across epochs, and the
    pilot and uncertainty halves of an epoch are disjoint.
    """
    gen = np.random.default_rng(rng)
    if not callable(target):
        state = check_quantum_state(target)
        if isinstance(cfg.noise, GaussianNoise):
            def target(plan):
                return measure_gaussian(plan, state, cfg.noise.sigma, gen)
        else:
            def target(plan):
                return measure_bernoulli_pauli(plan, state, cfg.noise.shots, gen)

    def acquire(plan):
        # the ball reads the design and the noise level from the batch
        batch = target(plan)
        got = batch.plan
        if got is not plan and not (got.ensemble == plan.ensemble
                                    and np.array_equal(got.indices, plan.indices)
                                    and np.array_equal(got.matrices, plan.matrices)):
            raise ValueError("the oracle returned a batch for a different plan "
                             "than requested")
        if batch.noise != cfg.noise:
            raise ValueError(f"the oracle's noise {batch.noise!r} differs from "
                             f"{cfg.noise!r}")
        return batch

    d = cfg.ensemble.dim
    horizon = cfg.num_epochs_planned
    alpha = cfg.delta / (3.0 * horizon)
    epochs = []
    theta_hat = None
    stopped = False
    for m in range(1, T_MAX + 1):
        n_half = 2**m
        pilot_plan = draw_plan(cfg.ensemble, n_half, gen)
        pilot_batch = acquire(pilot_plan)
        pilot, solve = pilot_estimate(pilot_batch, return_info=True)
        theta_hat = pilot_to_state(pilot)

        if isinstance(cfg.noise, BernoulliPauliNoise) and cfg.noise.shots < n_half:
            method = "PairedRSS"
            uq_plan = draw_paired_plan(cfg.ensemble, n_half, gen)
        elif cfg.ensemble.kind == "pauli" and n_half >= d * d:
            method = "ReAvg"
            uq_plan = full_basis_plan(cfg.ensemble, n_half // (d * d))
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
                                  ball.statistic_value, ball.radius_sq, diameter,
                                  solve.iterations, solve.converged, solve.gap))
        if diameter <= cfg.epsilon:
            stopped = True
            break
    return Certificate(theta_hat=theta_hat, epochs=tuple(epochs), stopped=stopped, config=cfg)
