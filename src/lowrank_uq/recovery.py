"""Pilot estimation by nuclear-norm-penalized least squares.

The pilot minimizes (1/2n) ||y - X(theta)||^2 + lam * ||theta||_S1 over
Hermitian matrices by FISTA (Beck & Teboulle 2009) with eigenvalue soft
thresholding, fixed step 1/(1.1 L), and adaptive restart (O'Donoghue &
Candes 2012): a step that raises the objective is rejected and the momentum
restarted.  The least-squares term is summarized once per solve.  For Pauli
plans that is per-index sufficient statistics in the d^2 basis coefficients,
with the exact L, so an iteration costs O(d^2 log d) whatever n is; for
Gaussian plans it is the n measurements themselves, with L estimated by
power iteration.  The rank-reduction step replaces the pilot by the lowest
rank matrix within half the target recovery radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    _truncation_errors,
    best_rank_k,
    frobenius_norm,
    hermitize,
    project_state_space,
)
from .measurement import MeasurementBatch, noise_scale
from .sensing import _pauli_synthesis, adjoint_average, apply_sampling, pauli_coefficients

__all__ = [
    "PilotConfig",
    "RateFunction",
    "SolverDivergenceError",
    "SolverInfo",
    "pilot_estimate",
    "rank_reduce",
    "pilot_to_state",
]


class SolverDivergenceError(RuntimeError):
    """Objective increased over many consecutive accepted steps."""


@dataclass(frozen=True)
class PilotConfig:
    """Solver configuration.

    ``lambda_scale`` multiplies the universal threshold sigma * sqrt(d/n);
    the default 1.5 was calibrated so that the rank-1 isotropic benchmark
    meets its risk budget with margin.  ``step_override`` replaces the 1/L
    step size and exists for diagnostics only (it can make the iteration
    divergent on purpose).
    """

    lambda_scale: float = 1.5
    max_iters: int = 300
    grad_tol: float = 1e-6
    step_override: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")


@dataclass(frozen=True)
class RateFunction:
    """Recovery radius r(k) = 2 sigma sqrt(D k d / n).

    ``D`` is the empirically calibrated risk constant; r(k)^2 / 4 is the
    squared-error budget D sigma^2 k d / n for a rank-k target.
    """

    D: float
    sigma: float
    dim: int
    n: int

    def __post_init__(self):
        if self.D <= 0 or self.sigma < 0 or self.dim < 1 or self.n < 1:
            raise ValueError("invalid rate function parameters")

    def __call__(self, k: int) -> float:
        return 2.0 * self.sigma * np.sqrt(self.D * k * self.dim / self.n)


def _soft_threshold_eigenvalues(a: np.ndarray, tau: float):
    """Eigenvalue soft threshold; returns the matrix and its nuclear norm."""
    lam, v = np.linalg.eigh(a)  # iterates are Hermitian by construction
    if tau > 0:
        lam = np.sign(lam) * np.maximum(np.abs(lam) - tau, 0.0)
    return hermitize((v * lam) @ v.conj().T), float(np.abs(lam).sum())


def _lipschitz_estimate(plan, iters: int = 80, tol: float = 1e-4,
                        min_iters: int = 8) -> float:
    """Power iteration on theta -> (1/n) X^T X theta over the Hermitian space
    of a Gaussian plan."""
    gen = np.random.default_rng(np.random.SeedSequence(0x1F5))
    d = plan.dim
    b = gen.standard_normal((d, d)).astype(complex)
    if plan.ensemble.hermitian:
        b = b + 1j * gen.standard_normal((d, d))
    b = hermitize(b)
    b /= frobenius_norm(b)
    rayleigh = 0.0
    for it in range(iters):
        tb = adjoint_average(plan, apply_sampling(plan, b))
        new = float(np.real(np.vdot(b, tb)))
        nrm = frobenius_norm(tb)
        if nrm == 0:
            return max(new, 1e-12)
        b = tb / nrm
        if it >= min_iters and abs(new - rayleigh) <= tol * max(abs(new), 1e-30):
            return max(new, 1e-12)
        rayleigh = new
    return max(rayleigh, 1e-12)


class _PauliLeastSquares:
    """The least-squares term of a Pauli batch as per-index sufficient statistics.

    In the coordinates u_j = <E_j, theta> (all d^2 of them), with N_j the
    number and S_j the sum of the observations at index j,

        (1/2n) sum_i (d u_(j_i) - y_i)^2 = (1/2) sum_j w_j (u_j - t_j)^2 + c,

    where w_j = d^2 N_j / n, t_j = S_j / (d N_j) (0 where N_j = 0) and c is
    the spread of the observations around their per-index means.  The
    completed square keeps the value free of cancellation near the fit.  The
    gradient is sum_j w_j (u_j - t_j) E_j and the Lipschitz constant max_j
    w_j is exact, so an iteration costs O(d^2 log d) whatever n is.
    """

    def __init__(self, batch: MeasurementBatch):
        plan = batch.plan
        d2 = plan.dim**2
        self.num_qubits = plan.ensemble.num_qubits
        self.dim = plan.dim
        counts = np.bincount(plan.indices, minlength=d2)
        sums = np.bincount(plan.indices, weights=batch.y, minlength=d2)
        self.weights = d2 * counts / plan.n
        self.targets = np.divide(sums, plan.dim * counts, out=np.zeros(d2), where=counts > 0)
        self.offset = 0.5 * float(np.mean((batch.y - plan.dim * self.targets[plan.indices]) ** 2))
        self.lipschitz = float(self.weights.max())

    def coordinates(self, theta) -> np.ndarray:
        return pauli_coefficients(theta, self.num_qubits).real

    def value(self, u) -> float:
        return 0.5 * float(np.dot(self.weights, (u - self.targets) ** 2)) + self.offset

    def gradient(self, u) -> np.ndarray:
        # _pauli_synthesis carries a factor d on every basis element
        return hermitize(_pauli_synthesis(self.weights * (u - self.targets), self.num_qubits)
                         / self.dim)


class _GaussianLeastSquares:
    """The least-squares term of a Gaussian batch; the coordinates of theta
    are its n noiseless measurements X(theta)."""

    def __init__(self, batch: MeasurementBatch):
        self.plan = batch.plan
        self.y = batch.y
        self.lipschitz = _lipschitz_estimate(batch.plan)

    def coordinates(self, theta) -> np.ndarray:
        return apply_sampling(self.plan, theta)

    def value(self, u) -> float:
        return 0.5 * float(np.mean((u - self.y) ** 2))

    def gradient(self, u) -> np.ndarray:
        return adjoint_average(self.plan, u - self.y)


def _least_squares(batch: MeasurementBatch):
    """The least-squares term of the batch, built once per solve."""
    if batch.plan.ensemble.kind == "pauli":
        return _PauliLeastSquares(batch)
    return _GaussianLeastSquares(batch)


@dataclass(frozen=True)
class SolverInfo:
    """What a pilot solve did.

    ``converged`` says the stopping rule criterion = move / step <= grad_tol
    was met within ``max_iters`` iterations; ``criterion`` is its last value.
    ``objective`` is the accepted objective history from theta = 0 on, which
    never increases.  ``restarts`` counts the momentum restarts.  ``lambda_``
    is the penalty weight (``lambda`` is a Python keyword).
    """

    iterations: int
    converged: bool
    criterion: float
    objective: tuple
    lipschitz: float
    lambda_: float
    step: float
    restarts: int


def pilot_estimate(batch: MeasurementBatch, config: PilotConfig = PilotConfig(),
                   return_info: bool = False):
    """Approximate minimizer of the penalized least-squares objective.

    The regularization weight is lambda_scale * sigma_eff * sqrt(d/n), with
    sigma_eff the known noise scale of the batch (sqrt(d/T) for the
    Bernoulli channel).  Each iteration is one proximal step from the
    extrapolated point z, whose coordinates follow by linearity.  A step
    that raises the objective is rejected and the momentum restarted; the
    solve stops once move / step <= grad_tol, with move the distance from z
    to the new iterate (the norm of the gradient mapping times the step).
    Raises :class:`SolverDivergenceError` after 10 consecutive rejected steps.
    With ``return_info`` it returns (theta, :class:`SolverInfo`).
    """
    plan = batch.plan
    d, n = plan.dim, plan.n
    if n < 1:
        raise ValueError("empty batch")
    lam = config.lambda_scale * noise_scale(batch) * np.sqrt(d / n)
    ls = _least_squares(batch)
    step = config.step_override if config.step_override is not None else 1.0 / (1.1 * ls.lipschitz)

    theta = np.zeros((d, d), dtype=complex)
    u = ls.coordinates(theta)
    objective = ls.value(u)
    history = [objective]
    z, u_z, momentum = theta, u, 1.0
    increases = restarts = iterations = 0
    criterion = math.inf
    converged = False
    for iterations in range(1, config.max_iters + 1):
        theta_new, nuclear = _soft_threshold_eigenvalues(z - step * ls.gradient(u_z), step * lam)
        u_new = ls.coordinates(theta_new)
        obj_new = ls.value(u_new) + lam * nuclear
        criterion = frobenius_norm(theta_new - z) / step
        increased = obj_new > objective * (1 + 1e-12) + 1e-300
        if criterion <= config.grad_tol:
            converged = True
            if not increased:
                theta = theta_new
                history.append(obj_new)
            break
        if increased:
            increases += 1
            if increases >= 10:
                raise SolverDivergenceError(
                    f"objective increased for {increases} consecutive steps "
                    f"(now {obj_new:.6e})"
                )
            restarts += momentum > 1.0
            z, u_z, momentum = theta, u, 1.0
            continue
        increases = 0
        momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        beta = (momentum - 1.0) / momentum_new
        z = theta_new + beta * (theta_new - theta)
        u_z = u_new + beta * (u_new - u)
        theta, u, objective, momentum = theta_new, u_new, obj_new, momentum_new
        history.append(objective)
    theta = hermitize(theta)
    if return_info:
        return theta, SolverInfo(
            iterations=iterations, converged=converged, criterion=criterion,
            objective=tuple(history), lipschitz=ls.lipschitz, lambda_=lam, step=step,
            restarts=restarts,
        )
    return theta


def rank_reduce(pilot, rate: RateFunction):
    """Lowest-rank matrix within rate(k)/2 of the pilot, with its rank.

    The candidate is the Frobenius-optimal rank-k truncation; all truncation
    errors come from one decomposition, and the rank-d error is exactly 0, so
    some k always qualifies.
    """
    slack = 1e-10 * max(1.0, frobenius_norm(pilot))
    k = next(k for k, tail in enumerate(_truncation_errors(pilot), start=1)
             if tail <= rate(k) / 2.0 + slack)
    return best_rank_k(pilot, k), k


def pilot_to_state(pilot) -> np.ndarray:
    """Project the pilot onto the state space (PSD, unit trace)."""
    return project_state_space(pilot)
