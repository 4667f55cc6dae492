"""Noise channels producing observations Y_i = tr(X^i theta) + eps_i.

Two channels: additive Gaussian noise with known variance bound, and the
Bernoulli quantum measurement model in which each Pauli expectation value is
estimated from T +/-1-valued preparations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import check_hermitian
from .sensing import SensingPlan, apply_sampling, pauli_coefficients

__all__ = [
    "GaussianNoise",
    "BernoulliPauliNoise",
    "MeasurementBatch",
    "measure_gaussian",
    "measure_bernoulli_pauli",
    "pauli_outcome_probabilities",
    "noise_scale",
]


@dataclass(frozen=True)
class GaussianNoise:
    """i.i.d. N(0, sigma^2) errors with sigma known."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class BernoulliPauliNoise:
    """Each observable estimated from ``shots`` +/-1 preparations; the
    effective error has |eps| <= 2 sqrt(d) and variance at most d / shots."""

    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")

    def variance_bound(self, dim: int) -> float:
        return dim / self.shots


@dataclass(frozen=True)
class MeasurementBatch:
    plan: SensingPlan
    y: np.ndarray
    noise: object

    def __post_init__(self):
        if np.asarray(self.y).shape != (self.plan.n,):
            raise ValueError("outcome vector length does not match the plan")
        if not isinstance(self.noise, (GaussianNoise, BernoulliPauliNoise)):
            raise ValueError(f"noise must be GaussianNoise or BernoulliPauliNoise, "
                             f"got {self.noise!r}")

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def dim(self) -> int:
        return self.plan.dim


def noise_scale(batch: MeasurementBatch) -> float:
    """Known noise scale: sigma for Gaussian, the bound sqrt(d/T) for Bernoulli."""
    if isinstance(batch.noise, BernoulliPauliNoise):
        return float(np.sqrt(batch.noise.variance_bound(batch.dim)))
    return batch.noise.sigma


def measure_gaussian(plan: SensingPlan, theta, sigma: float, rng) -> MeasurementBatch:
    """y_i = tr(X^i theta) + eps_i with eps_i i.i.d. N(0, sigma^2)."""
    noise = GaussianNoise(sigma)
    theta = check_hermitian(theta)
    gen = np.random.default_rng(rng)
    clean = apply_sampling(plan, theta)
    y = clean if sigma == 0 else clean + sigma * gen.standard_normal(plan.n)
    return MeasurementBatch(plan, y, noise)


def pauli_outcome_probabilities(plan: SensingPlan, state) -> np.ndarray:
    """Success probabilities p_i = (1 + sqrt(d) tr(E_i state)) / 2 per draw."""
    if plan.ensemble.kind != "pauli":
        raise ValueError("Bernoulli outcomes are defined for Pauli plans only")
    state = check_hermitian(state)
    d = plan.dim
    coeffs = pauli_coefficients(state, plan.ensemble.num_qubits, plan.indices).real
    return 0.5 * (1.0 + np.sqrt(d) * coeffs)


def measure_bernoulli_pauli(plan: SensingPlan, state, shots: int, rng) -> MeasurementBatch:
    """Quantum measurement channel: y_i = (sqrt(d)/T) sum_j B_ij.

    The signs B_ij are +/-1 with success probability (1 + sqrt(d) tr(E_i
    state)) / 2, so E y_i = d tr(E_i state).  States outside the state space
    surface as out-of-range probabilities and are rejected.
    """
    noise = BernoulliPauliNoise(shots)
    p = pauli_outcome_probabilities(plan, state)
    if p.min() < -1e-9 or p.max() > 1 + 1e-9:
        raise ValueError(
            f"outcome probability outside [0, 1] (range [{p.min():.3e}, {p.max():.3e}]); "
            "the target is not a quantum state or the basis does not match"
        )
    gen = np.random.default_rng(rng)
    successes = gen.binomial(shots, np.clip(p, 0.0, 1.0))
    y = np.sqrt(plan.dim) * (2.0 * successes - shots) / shots
    return MeasurementBatch(plan, y, noise)
