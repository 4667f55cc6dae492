"""Coverage and diameter experiments on the error-reparametrized model.

Observations are ybar_i = tr(X^i eta) + eps_i with unit Gaussian noise,
where eta plays the role of the estimation error theta - thetahat of norm
||eta||_F^2 = target ``error_norm_sq``.  Both the RSS and the pair statistic
are computed with center 0, and the confidence balls use the calibrated
constants of ``DEFAULT_SIMULATION_CONSTANTS`` (95% level).

Both Gaussian ensembles (real for one-entry errors, Hermitian for Pauli-word
errors) are standard Gaussian on a real space of dimension D = d^2, so a
replication depends on eta only through r^2 = ||eta||_F^2, and none draws a
design.  Rotate coordinates so that eta = r e_1: then y_i = r g_i + eps_i
with g_i, eps_i i.i.d. N(0, 1).  The observations alone, i.i.d. N(0, 1 + r^2),
give the residual statistic.  For the pair statistic,

    n(n-1) U = (sum_i y_i g_i)^2 - sum_i y_i^2 g_i^2 + A,
    A = ||S_n||^2 - sum_i y_i^2 ||z_i||^2,   S_m = sum_{i<=m} y_i z_i,

with z_i i.i.d. standard normal in R^(D-1).  A telescopes to
2 sum_m y_m <S_{m-1}, z_m>, and by isotropy ||S_m|| is a scalar Markov chain:
<S_{m-1}, z_m> = ||S_{m-1}|| h_m and ||S_m||^2 = (||S_{m-1}|| + y_m h_m)^2 +
y_m^2 c_m with h_m ~ N(0, 1) and c_m ~ chi^2_(D-2) independent (c_m = 0 for
D = 2; A = 0 for D = 1).  This is exact in distribution and costs O(n) with
4n scalar draws.  Pauli-design replications materialize their plan.

Membership in the balls is the defining inequality with the unknown distance
evaluated at the truth, ||eta||_F; the reported diameter replaces it by the
data-driven sqrt(max(stat, 0)).  Every replication derives its own seed from
(master seed, design, error kind, norm, method, n, rep), so results are
independent of execution order.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass

import numpy as np

from .frobenius_sets import calibrated_bound, rss_statistic, ustat_statistic
from .measurement import measure_gaussian
from .sensing import _num_qubits, draw_plan, index_to_word, pauli_basis_element, pauli_design

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "make_error_matrix",
    "run_experiment",
    "result_rows_csv",
    "merged_table_rows",
    "METHODS",
]

METHODS = ("UStat", "RSS")

_DESIGN_CODE = {"gaussian": 0, "pauli": 1}
_ERROR_KIND_CODE = {"dirac": 0, "pauli": 1}
_METHOD_CODE = {"UStat": 0, "RSS": 1}


@dataclass(frozen=True)
class ExperimentSpec:
    design: str  # "gaussian" | "pauli"
    error_kind: str  # "dirac" | "pauli"
    error_norm_sq: float  # squared Frobenius norm of the error matrix
    n_grid: tuple
    reps: int
    d: int
    seed: int

    def __post_init__(self):
        if self.design not in _DESIGN_CODE:
            raise ValueError(f"unknown design {self.design!r}")
        if self.error_kind not in _ERROR_KIND_CODE:
            raise ValueError(f"unknown error kind {self.error_kind!r}")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        n_grid = list(self.n_grid)
        if not n_grid or n_grid[0] < 2:
            raise ValueError(f"n_grid {self.n_grid} must be nonempty with entries >= 2 "
                             "(the pair statistic needs two draws)")
        if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError(f"n_grid {self.n_grid} must be strictly increasing")
        if self.error_norm_sq <= 0:
            raise ValueError("error_norm_sq must be positive")
        if "pauli" in (self.design, self.error_kind):
            _num_qubits(self.d)


@dataclass(frozen=True)
class ResultRow:
    method: str
    n: int
    error_norm_sq: float
    coverage: float
    mean_diameter: float
    median_norm_err: float
    q05: float
    q95: float


def make_error_matrix(kind: str, norm_sq: float, d: int, rng) -> np.ndarray:
    """Random error matrix with ||.||_F^2 = norm_sq exactly.

    "dirac": a single diagonal entry, position uniform, set to sqrt(norm_sq);
    "pauli": a uniformly chosen normalized Pauli word scaled by sqrt(norm_sq)
    (nuclear norm sqrt(norm_sq * d), the constraint-violating case).
    """
    gen = np.random.default_rng(rng)
    scale = math.sqrt(norm_sq)
    if kind == "dirac":
        eta = np.zeros((d, d), dtype=complex)
        pos = int(gen.integers(d))
        eta[pos, pos] = scale
        return eta
    if kind == "pauli":
        nq = _num_qubits(d)
        word = index_to_word(int(gen.integers(d * d)), nq)
        return scale * pauli_basis_element(nq, word)
    raise ValueError(f"unknown error kind {kind!r}")


def _replication_seed(spec: ExperimentSpec, method: str, n: int, rep: int):
    return np.random.SeedSequence(
        (
            spec.seed,
            _DESIGN_CODE[spec.design],
            _ERROR_KIND_CODE[spec.error_kind],
            int(round(spec.error_norm_sq * 10**9)),
            _METHOD_CODE[method],
            n,
            rep,
        )
    )


def _orthogonal_pair_sum(y, h, c) -> float:
    """A = sum_{i != j} y_i y_j <z_i, z_j> from the chain of ||S_m|| (module
    docstring): h_m is the component of z_m along S_{m-1} (any direction when
    S_{m-1} = 0) and c_m the squared norm of the rest of z_m."""
    cross = 0.0
    norm = 0.0
    for ym, hm, cm in zip(y.tolist(), h.tolist(), c.tolist()):
        cross += ym * norm * hm
        norm = math.sqrt((norm + ym * hm) ** 2 + ym * ym * cm)
    return 2.0 * cross


def _isotropic_ustat(error_norm_sq: float, dim_sq: int, n: int, gen) -> float:
    """Pair statistic at center 0 of n isotropic Gaussian draws, sampled
    exactly in O(n) (module docstring)."""
    g = gen.standard_normal(n)
    y = math.sqrt(error_norm_sq) * g + gen.standard_normal(n)
    yg = y * g
    pair_sum = float(np.sum(yg)) ** 2 - float(yg @ yg)
    if dim_sq > 1:
        h = gen.standard_normal(n)
        c = gen.chisquare(dim_sq - 2, n) if dim_sq > 2 else np.zeros(n)
        pair_sum += _orthogonal_pair_sum(y, h, c)
    return pair_sum / (n * (n - 1))


def replication_statistic(spec: ExperimentSpec, method: str, n: int, rep: int) -> float:
    """One replication, statistic at center 0: Gaussian designs from scalar
    draws (module docstring), Pauli designs from a fresh error matrix, plan
    and noise."""
    gen = np.random.default_rng(_replication_seed(spec, method, n, rep))
    if spec.design == "gaussian" and method == "RSS":
        # the observations are i.i.d. N(0, 1 + error_norm_sq)
        ybar = math.sqrt(1.0 + spec.error_norm_sq) * gen.standard_normal(n)
        return float(np.mean(ybar**2)) - 1.0
    if spec.design == "gaussian" and method == "UStat":
        return _isotropic_ustat(spec.error_norm_sq, spec.d**2, n, gen)
    eta = make_error_matrix(spec.error_kind, spec.error_norm_sq, spec.d, gen)
    plan = draw_plan(pauli_design(_num_qubits(spec.d)), n, gen)
    batch = measure_gaussian(plan, eta, 1.0, gen)
    center = np.zeros((spec.d, spec.d), dtype=complex)
    if method == "UStat":
        return ustat_statistic(batch, center)
    if method == "RSS":
        return rss_statistic(batch, center, 1.0)
    raise ValueError(f"unknown method {method!r}")


def _cell_statistics(spec: ExperimentSpec, method: str, n: int, reps) -> np.ndarray:
    return np.array([replication_statistic(spec, method, n, rep) for rep in reps])


def _all_cell_statistics(spec: ExperimentSpec, workers: int | None) -> dict:
    """Statistic arrays for every (method, n) cell.

    Replications are embarrassingly parallel with per-replication derived
    seeds; the rep-indexed reduction makes the result identical for any
    worker count.
    """
    cells = [(method, int(n)) for method in METHODS for n in spec.n_grid]
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers <= 1 or spec.reps < 32:
        return {cell: _cell_statistics(spec, *cell, range(spec.reps)) for cell in cells}
    out = {}
    chunk = max(16, spec.reps // (4 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {}
        for cell in cells:
            ranges = [range(lo, min(lo + chunk, spec.reps)) for lo in range(0, spec.reps, chunk)]
            futures[cell] = [pool.submit(_cell_statistics, spec, *cell, r) for r in ranges]
        for cell, parts in futures.items():
            out[cell] = np.concatenate([p.result() for p in parts])
    return out


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list:
    """All (method, n) cells of the experiment as :class:`ResultRow` values."""
    rows = []
    r_sq = spec.error_norm_sq
    all_stats = _all_cell_statistics(spec, workers)
    for method in METHODS:
        kind = method.lower()
        for n in spec.n_grid:
            stats = all_stats[(method, int(n))]
            covered = r_sq <= calibrated_bound(kind, stats, math.sqrt(r_sq), n, spec.d)
            roots = np.sqrt(np.maximum(stats, 0.0))
            diameters = calibrated_bound(kind, stats, roots, n, spec.d)
            norm_err = np.sqrt(np.abs(stats - r_sq)) / math.sqrt(r_sq)
            q05, q50, q95 = np.quantile(norm_err, [0.05, 0.5, 0.95])
            rows.append(
                ResultRow(
                    method=method,
                    n=int(n),
                    error_norm_sq=r_sq,
                    coverage=float(np.mean(covered)),
                    mean_diameter=float(np.mean(diameters)),
                    median_norm_err=float(q50),
                    q05=float(q05),
                    q95=float(q95),
                )
            )
    return rows


RESULT_CSV_HEADER = "method,n,error_norm_sq,coverage,mean_diameter,median_norm_err,q05,q95"


def result_rows_csv(rows) -> str:
    lines = [RESULT_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.method},{r.n},{r.error_norm_sq:.17g},{r.coverage:.17g},"
            f"{r.mean_diameter:.17g},{r.median_norm_err:.17g},{r.q05:.17g},{r.q95:.17g}"
        )
    return "\n".join(lines) + "\n"


def merged_table_rows(spec: ExperimentSpec, rows) -> list:
    """Rows of the merged summary table: one line per (metric, method), with
    one column per sample size, mirroring the benchmark table layout."""
    n_grid = list(spec.n_grid)
    out = []
    for method in METHODS:
        for metric in ("coverage", "mean_diameter"):
            cells = []
            for n in n_grid:
                row = next(r for r in rows if r.method == method and r.n == n)
                cells.append(getattr(row, metric))
            label = f"{metric}_{method.lower()}"
            out.append(
                (spec.design, spec.error_kind, spec.error_norm_sq, label, cells)
            )
    return out
