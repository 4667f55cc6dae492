"""Trace-norm confidence set under the quantum shape constraint.

Pipeline: estimate the spectrum of the target from a second, independent
sample (residual back-projection plus PSD clipping), select a data-driven
rank k_hat, center the set at the projection of the pilot onto the rank-2k
state space, and size it as C sqrt(k_hat) r(k_hat) in nuclear norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrices import (
    _truncation_errors,
    check_hermitian,
    eigh,
    frobenius_norm,
    project_rank_k_state_space,
)
from .measurement import MeasurementBatch
from .recovery import RateFunction
from .reports import ConfidenceReport
from .sensing import adjoint_average, apply_sampling

__all__ = [
    "EigenvalueEstimate",
    "NuclearSetConfig",
    "rip_rate",
    "eigenvalue_estimator",
    "select_k_hat",
    "nuclear_confidence_set",
]


def rip_rate(k: int, d: int, n: int) -> float:
    """Restricted-isometry rate sqrt(k d log(d) / n) (unit constant, plain log)."""
    return math.sqrt(k * d * math.log(d) / n)


@dataclass(frozen=True)
class EigenvalueEstimate:
    """Estimated spectrum of the target, sorted non-increasing, with the
    deviation scale bounding partial-sum errors: |sum_{l<=j} (est - true)|
    is expected within 2 j * deviation_scale (no step of the set reads it)."""

    lambdas: np.ndarray
    deviation_scale: float


@dataclass(frozen=True)
class NuclearSetConfig:
    """Calibrated at failure budget delta: C sizes the ball; c_v scales the
    eigenvalue deviation scale, which no step of the set reads."""

    C: float
    c_v: float
    rate: RateFunction
    delta: float = 0.1

    def __post_init__(self):
        if self.C <= 0 or self.c_v <= 0:
            raise ValueError("constants must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")


def eigenvalue_estimator(second_batch: MeasurementBatch, theta_tilde,
                         cfg: NuclearSetConfig,
                         pilot_batch: MeasurementBatch | None = None) -> EigenvalueEstimate:
    """Spectrum estimate from residual back-projection.

    Forms theta' = theta_tilde + (1/n) sum_i X^i (Y_i - tr(X^i theta_tilde))
    on a sample independent of the one behind ``theta_tilde``, clips its
    negative eigenvalues (a valid choice: clipping perturbs quadratic forms
    by at most the largest clipped magnitude), and reports the sorted
    spectrum together with the deviation scale

        c_v * (r(d) * tau(d) + sqrt(d/n)).

    Passing ``pilot_batch`` asserts the sample-splitting discipline: it
    must be another batch object than ``second_batch``.
    """
    if pilot_batch is second_batch:
        raise ValueError("the eigenvalue sample must be independent of the pilot sample")
    theta_tilde = check_hermitian(theta_tilde)
    plan = second_batch.plan
    d, n = plan.dim, plan.n
    residuals = second_batch.y - apply_sampling(plan, theta_tilde)
    theta_prime = theta_tilde + adjoint_average(plan, residuals)
    lambdas = np.maximum(eigh(theta_prime).eigenvalues, 0.0)
    scale = cfg.c_v * (cfg.rate(d) * rip_rate(d, d, n) + math.sqrt(d / n))
    return EigenvalueEstimate(lambdas, scale)


def select_k_hat(pilot, est: EigenvalueEstimate, rate: RateFunction) -> int:
    """Smallest k such that a rank-k matrix sits within rate(k) of the pilot
    and the estimated eigenvalue mass outside the top k is at most 2 k
    sqrt(d/n) (not ``est.deviation_scale``); d if no smaller rank qualifies."""
    pilot = check_hermitian(pilot)
    d, n = rate.dim, rate.n
    if pilot.shape[0] != d:
        raise ValueError(f"pilot is {pilot.shape[0]}x{pilot.shape[0]}, "
                         f"the rate function is for d = {d}")
    root_dn = math.sqrt(d / n)
    # rounding slack so exactly-low-rank pilots qualify at a zero rate
    slack = 1e-10 * max(1.0, frobenius_norm(pilot))
    for k, tail in enumerate(_truncation_errors(pilot), start=1):
        if tail > rate(k) + slack:
            continue
        if 1.0 - float(np.sum(est.lambdas[:k])) <= 2.0 * k * root_dn:
            return k
    return d


def nuclear_confidence_set(pilot, est: EigenvalueEstimate,
                           cfg: NuclearSetConfig) -> ConfidenceReport:
    """Nuclear-norm ball of radius C sqrt(k_hat) r(k_hat), centered at the
    projection of the pilot onto the rank-2k_hat state space."""
    rate = cfg.rate
    d, n = rate.dim, rate.n
    k_hat = select_k_hat(pilot, est, rate)
    if k_hat * rip_rate(1, d, n) > 0.5:
        warnings.warn(
            "outside the asymptotic regime: k_hat sqrt(d log d / n) is not small",
            RuntimeWarning,
            stacklevel=2,
        )
    center = project_rank_k_state_space(pilot, min(2 * k_hat, d))
    radius = cfg.C * math.sqrt(k_hat) * rate(k_hat)
    return ConfidenceReport(
        center=center, radius_sq=radius**2, norm_kind="nuclear",
        level_alpha=cfg.delta, method="NuclearS1", statistic_value=radius**2, n=n, k_hat=k_hat,
    )
