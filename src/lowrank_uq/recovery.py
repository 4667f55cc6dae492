"""Pilot estimation by nuclear-norm-penalized least squares.

The pilot minimizes P(theta) = (1/2n) ||y - X(theta)||^2 + lam ||theta||_S1
over Hermitian matrices by FISTA (Beck & Teboulle 2009) with eigenvalue soft
thresholding, fixed step 1/(1.1 L), and adaptive restart (O'Donoghue &
Candes 2012): a step that raises the objective is rejected and the momentum
restarted.  The least-squares term is summarized once per solve, and the
iterate lives in the summary's coordinates.  For Pauli plans those are the
d^2 real basis coefficients, with per-index sufficient statistics and the
exact L, so an iteration costs O(d^3) whatever n is; for Gaussian plans the
coordinates are theta itself, the term is read through the n measurements,
and L is estimated by power iteration.  The solve stops on a certified
relative duality gap (P - D) / P, with D the Fenchel dual objective at the
dual point scaled from the gradient (cf. Ndiaye, Fercoq, Gramfort & Salmon,
JMLR 2017), or at the iteration cap, which it reports.  The rank-reduction
step replaces the pilot by the lowest rank matrix within half the target
recovery radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    _eigh,
    _truncation_errors,
    best_rank_k,
    frobenius_norm,
    hermitize,
    operator_norm,
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
    meets its risk budget with margin.  The solve stops once the relative
    duality gap of its iterate is at most ``gap_tol``; the default 3e-3 keeps
    capped solves of Pauli certificates at d = 32 under 5% (1e-3 leaves
    about a sixth capped), and the objective within 0.3% of its optimum.
    ``max_iters`` is a safety cap.
    """

    lambda_scale: float = 1.5
    max_iters: int = 300
    gap_tol: float = 3e-3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("lambda_scale", "gap_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
    """Eigenvalue soft threshold; returns the matrix and its nuclear norm.

    ``a`` is Hermitian up to rounding (eigh reads one triangle); so is the
    result, which the summary's ``coordinates`` project back.
    """
    lam, v = _eigh(a)
    if tau > 0:
        lam = np.sign(lam) * np.maximum(np.abs(lam) - tau, 0.0)
    return (v * lam) @ v.conj().T, float(np.abs(lam).sum())


def _dual_scale(gradient: np.ndarray, lam: float) -> float:
    """min(1, lam / ||G||_op) for the gradient matrix G: the largest s <= 1
    for which s times the gradient is dual feasible."""
    norm = operator_norm(gradient)
    return 1.0 if norm <= lam else lam / norm


# Power iteration of the Lipschitz estimate: at most _POWER_ITERS steps, and
# it stops once the Rayleigh quotient moves by at most _POWER_RTOL (relative)
# after at least _POWER_MIN_ITERS steps.
_POWER_ITERS = 80
_POWER_RTOL = 1e-4
_POWER_MIN_ITERS = 8


def _lipschitz_estimate(plan) -> float:
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
    for it in range(_POWER_ITERS):
        tb = adjoint_average(plan, apply_sampling(plan, b))
        new = float(np.real(np.vdot(b, tb)))
        nrm = frobenius_norm(tb)
        if nrm == 0:
            return max(new, 1e-12)
        b = tb / nrm
        if (it >= _POWER_MIN_ITERS
                and abs(new - rayleigh) <= _POWER_RTOL * max(abs(new), 1e-30)):
            return max(new, 1e-12)
        rayleigh = new
    return max(rayleigh, 1e-12)


# Both summaries below hold the least-squares term f of one batch and agree on
# one interface, in the coordinates x of the iterate that the solver carries:
# ``coordinates(theta)`` and ``matrix(x)`` convert between x and the Hermitian
# matrix theta, ``value(x)`` is f, ``gradient(x)`` is the gradient of f in the
# same coordinates (so matrix(z - step * gradient(z)) is a gradient step), and
# ``dual_value(x, lam)`` is the Fenchel dual objective at the dual point
# scaled from the gradient at x.  Weak duality makes f + lam ||theta||_S1
# minus the dual value an upper bound on the suboptimality of theta.


class _PauliLeastSquares:
    """The least-squares term of a Pauli batch as per-index sufficient statistics.

    In the coordinates x_j = <E_j, theta> (all d^2 of them, real for
    Hermitian theta), with N_j the number and S_j the sum of the
    observations at index j,

        (1/2n) sum_i (d x_(j_i) - y_i)^2 = (1/2) sum_j w_j (x_j - t_j)^2 + c,

    where w_j = d^2 N_j / n, t_j = S_j / (d N_j) (0 where N_j = 0) and c is
    the spread of the observations around their per-index means.  The
    completed square keeps the value free of cancellation near the fit.  The
    gradient is v = w (x - t), elementwise; the Lipschitz constant max_j w_j
    is exact.  With G = sum_j v_j E_j and s = min(1, lam / ||G||_op), s v is
    dual feasible and the dual value is c - sum_(w_j > 0) (s v_j t_j +
    (s v_j)^2 / (2 w_j)).  An iteration is one synthesis, one eigh and one
    analysis, O(d^3) whatever n is.
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
        self.half_inverse_weights = np.divide(0.5, self.weights, out=np.zeros(d2),
                                              where=counts > 0)
        self.offset = 0.5 * float(np.mean((batch.y - plan.dim * self.targets[plan.indices]) ** 2))
        self.lipschitz = float(self.weights.max())

    def coordinates(self, theta) -> np.ndarray:
        return pauli_coefficients(theta, self.num_qubits).real

    def matrix(self, x) -> np.ndarray:
        # _pauli_synthesis carries a factor d on every basis element
        return _pauli_synthesis(x, self.num_qubits) / self.dim

    def value(self, x) -> float:
        return 0.5 * float(np.dot(self.weights, (x - self.targets) ** 2)) + self.offset

    def gradient(self, x) -> np.ndarray:
        return self.weights * (x - self.targets)

    def dual_value(self, x, lam: float) -> float:
        v = self.gradient(x)
        sv = _dual_scale(self.matrix(v), lam) * v
        return self.offset - float(np.dot(sv, self.targets + sv * self.half_inverse_weights))


class _GaussianLeastSquares:
    """The least-squares term of a Gaussian batch, (1/2n) ||X(theta) - y||^2,
    read through the plan; the coordinates of theta are theta itself.

    With r = X(theta) - y, the gradient is the adjoint average of r, and for
    s = min(1, lam / ||gradient||_op) the dual value is
    -s r.y / n - s^2 ||r||^2 / (2n).
    """

    def __init__(self, batch: MeasurementBatch):
        self.plan = batch.plan
        self.y = batch.y
        self.lipschitz = _lipschitz_estimate(batch.plan)

    def coordinates(self, theta) -> np.ndarray:
        return hermitize(theta)

    def matrix(self, x) -> np.ndarray:
        return x

    def value(self, x) -> float:
        return 0.5 * float(np.mean((apply_sampling(self.plan, x) - self.y) ** 2))

    def gradient(self, x) -> np.ndarray:
        return adjoint_average(self.plan, apply_sampling(self.plan, x) - self.y)

    def dual_value(self, x, lam: float) -> float:
        r = apply_sampling(self.plan, x) - self.y
        s = _dual_scale(adjoint_average(self.plan, r), lam)
        return -s * float(np.dot(r, self.y)) / self.plan.n - s * s * float(np.mean(r**2)) / 2


def _least_squares(batch: MeasurementBatch):
    """The least-squares term of the batch, built once per solve."""
    if batch.plan.ensemble.kind == "pauli":
        return _PauliLeastSquares(batch)
    return _GaussianLeastSquares(batch)


def _relative_gap(ls, x, objective: float, lam: float, floor: float) -> float:
    """(P - D) / P at the iterate with coordinates x and objective P, with D
    the dual value of the summary ``ls``.  P is floored at ``floor``, the
    rounding level eps P(0) of the objective, since an exact fit (lam = 0,
    noiseless data) drives it to 0; the gap is 0 when the data are all 0."""
    scale = max(objective, floor)
    return (objective - ls.dual_value(x, lam)) / scale if scale > 0 else 0.0


# Iterations between two duality-gap checks (a check waits for an accepted
# step); a check costs about half an iteration.
_GAP_EVERY = 5


@dataclass(frozen=True)
class SolverInfo:
    """What a pilot solve did.

    ``gap`` is the relative duality gap (P - D) / P of the returned iterate,
    an upper bound on its relative suboptimality; ``converged`` says it is at
    most ``gap_tol``, which the solve stops on, and is False when the
    ``max_iters`` cap ended the solve first.  ``objective`` is the accepted
    objective history from theta = 0 on, which never increases.
    ``restarts`` counts the momentum restarts.  ``lambda_`` is the penalty
    weight (``lambda`` is a Python keyword).
    """

    iterations: int
    converged: bool
    gap: float
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
    Bernoulli channel).  The iterate, the extrapolated point z and the
    momentum live in the coordinates of the batch's least-squares summary;
    each iteration is one proximal step from z.  A step that raises the
    objective is rejected and the momentum restarted.  Every few accepted
    steps the relative duality gap of the iterate is computed, and the solve
    stops once it is at most ``gap_tol``.
    Raises :class:`SolverDivergenceError` after 10 consecutive rejected steps.
    With ``return_info`` it returns (theta, :class:`SolverInfo`).
    """
    plan = batch.plan
    d, n = plan.dim, plan.n
    if n < 1:
        raise ValueError("empty batch")
    lam = config.lambda_scale * noise_scale(batch) * math.sqrt(d / n)
    ls = _least_squares(batch)
    step = 1.0 / (1.1 * ls.lipschitz)

    x = ls.coordinates(np.zeros((d, d), dtype=complex))
    objective = ls.value(x)
    history = [objective]
    floor = float(np.finfo(float).eps) * objective
    z, momentum = x, 1.0
    increases = restarts = iterations = 0
    gap, next_check = None, 1  # gap is None until computed for the current x
    for iterations in range(1, config.max_iters + 1):
        theta_new, nuclear = _soft_threshold_eigenvalues(
            ls.matrix(z - step * ls.gradient(z)), step * lam)
        x_new = ls.coordinates(theta_new)
        obj_new = ls.value(x_new) + lam * nuclear
        if obj_new > objective * (1 + 1e-12) + 1e-300:
            increases += 1
            if increases >= 10:
                raise SolverDivergenceError(
                    f"objective increased for {increases} consecutive steps "
                    f"(now {obj_new:.6e})"
                )
            restarts += momentum > 1.0
            z, momentum = x, 1.0
            continue
        increases = 0
        momentum_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        z = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        x, objective, momentum, gap = x_new, obj_new, momentum_new, None
        history.append(objective)
        if iterations >= next_check:
            gap = _relative_gap(ls, x, objective, lam, floor)
            if gap <= config.gap_tol:
                break
            next_check = iterations + _GAP_EVERY
    if gap is None:
        gap = _relative_gap(ls, x, objective, lam, floor)
    theta = hermitize(ls.matrix(x))
    if return_info:
        return theta, SolverInfo(
            iterations=iterations, converged=gap <= config.gap_tol, gap=gap,
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
