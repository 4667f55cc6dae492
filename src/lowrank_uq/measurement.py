"""Noise channels producing observations Y_i = tr(X^i theta) + eps_i.

Two channels: additive Gaussian noise with known variance bound, and the
Bernoulli quantum measurement model in which each Pauli expectation value is
estimated from T +/-1-valued preparations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matrices import check_hermitian
from .sensing import (
    SensingPlan,
    _read_pauli_plan,
    apply_sampling,
    gaussian_design,
    pauli_coefficients,
)

__all__ = [
    "GaussianNoise",
    "BernoulliPauliNoise",
    "MeasurementBatch",
    "measure_gaussian",
    "measure_bernoulli_pauli",
    "pauli_outcome_probabilities",
    "noise_scale",
    "write_batch_csv",
    "read_batch_csv",
]

_batch_counter = itertools.count()


@dataclass(frozen=True)
class GaussianNoise:
    """i.i.d. N(0, sigma^2) errors with sigma known."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def descriptor(self) -> str:
        return f"gaussian:{self.sigma:.17g}"


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

    def descriptor(self) -> str:
        return f"bernoulli:{self.shots}"


@dataclass(frozen=True)
class MeasurementBatch:
    plan: SensingPlan
    y: np.ndarray
    noise: object
    true_state_tag: str | None = None
    batch_id: int = field(default_factory=lambda: next(_batch_counter))

    def __post_init__(self):
        if np.asarray(self.y).shape != (self.plan.n,):
            raise ValueError("outcome vector length does not match the plan")

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def dim(self) -> int:
        return self.plan.dim


def noise_scale(batch: MeasurementBatch) -> float:
    """Known noise scale: sigma for Gaussian, the bound sqrt(d/T) for Bernoulli."""
    if isinstance(batch.noise, GaussianNoise):
        return batch.noise.sigma
    if isinstance(batch.noise, BernoulliPauliNoise):
        return float(np.sqrt(batch.noise.variance_bound(batch.dim)))
    raise TypeError(f"unknown noise model {batch.noise!r}")


def measure_gaussian(plan: SensingPlan, theta, sigma: float, rng,
                     tag: str | None = None) -> MeasurementBatch:
    """y_i = tr(X^i theta) + eps_i with eps_i i.i.d. N(0, sigma^2)."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    theta = check_hermitian(theta)
    gen = np.random.default_rng(rng)
    clean = apply_sampling(plan, theta)
    y = clean if sigma == 0 else clean + sigma * gen.standard_normal(plan.n)
    return MeasurementBatch(plan, y, GaussianNoise(sigma), tag)


def pauli_outcome_probabilities(plan: SensingPlan, state) -> np.ndarray:
    """Success probabilities p_i = (1 + sqrt(d) tr(E_i state)) / 2 per draw."""
    if plan.ensemble.kind != "pauli":
        raise ValueError("Bernoulli outcomes are defined for Pauli plans only")
    state = check_hermitian(state)
    d = plan.dim
    coeffs = pauli_coefficients(state, plan.ensemble.num_qubits, plan.indices).real
    return 0.5 * (1.0 + np.sqrt(d) * coeffs)


def measure_bernoulli_pauli(plan: SensingPlan, state, shots: int, rng,
                            tag: str | None = None) -> MeasurementBatch:
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
    return MeasurementBatch(plan, y, noise, tag)


# --- batch CSV ----------------------------------------------------------------
#
# Header comment records kind, d, n, noise descriptor and the plan seed; rows
# are (i, design_index_or_file, y_i).  Gaussian plans are reconstructed from
# the recorded seed on read.

def write_batch_csv(batch: MeasurementBatch, path) -> None:
    plan = batch.plan
    kind = plan.ensemble.kind
    if kind == "gaussian" and plan.ensemble.hermitian:
        kind = "gaussian-hermitian"
    seed = "-" if plan.seed is None else str(plan.seed)
    tag = batch.true_state_tag or "-"
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# kind={kind} d={plan.dim} n={plan.n} "
            f"noise={batch.noise.descriptor()} seed={seed} tag={tag}\n"
        )
        fh.write("i,design_index_or_file,y_i\n")
        for i in range(plan.n):
            ref = str(int(plan.indices[i])) if kind == "pauli" else "-"
            fh.write(f"{i},{ref},{batch.y[i]:.17g}\n")


def _parse_noise(descriptor: str):
    head, _, value = descriptor.partition(":")
    if head == "gaussian":
        return GaussianNoise(float(value))
    if head == "bernoulli":
        return BernoulliPauliNoise(int(value))
    raise ValueError(f"unknown noise descriptor {descriptor!r}")


def read_batch_csv(path) -> MeasurementBatch:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError("missing batch header")
        meta = dict(item.split("=", 1) for item in header[2:].split())
        fh.readline()  # column names
        rows = [line.strip().split(",") for line in fh if line.strip()]
    d, n = int(meta["d"]), int(meta["n"])
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    y = np.array([float(r[2]) for r in rows])
    noise = _parse_noise(meta["noise"])
    tag = None if meta.get("tag", "-") == "-" else meta["tag"]
    if meta["kind"] == "pauli":
        seed = None if meta["seed"] == "-" else int(meta["seed"])
        plan = _read_pauli_plan(d, [int(r[1]) for r in rows], seed)
    else:
        if meta["seed"] == "-":
            raise ValueError("gaussian batch file lacks a plan seed")
        from .sensing import draw_plan  # local import to keep module load light

        ensemble = gaussian_design(d, hermitian=(meta["kind"] == "gaussian-hermitian"))
        plan = draw_plan(ensemble, n, int(meta["seed"]))
    return MeasurementBatch(plan, y, noise, tag)
