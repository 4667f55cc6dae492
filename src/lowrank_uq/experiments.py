"""Coverage and diameter experiments on the error-reparametrized model.

Observations are ybar_i = tr(X^i eta) + eps_i with unit Gaussian noise,
where eta plays the role of the estimation error theta - thetahat of norm
||eta||_F^2 = target ``error_norm_sq``.  Both the RSS and the pair statistic
are computed with center 0, and the confidence balls use the calibrated
constants of ``DEFAULT_SIMULATION_CONSTANTS`` (95% level).

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
from .sensing import (
    _num_qubits,
    gaussian_design,
    index_to_word,
    pauli_basis_element,
    pauli_design,
    draw_plan,
)

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
        if list(self.n_grid) != sorted(self.n_grid):
            raise ValueError("n_grid must be sorted ascending")
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


def _ensemble(spec: ExperimentSpec):
    if spec.design == "pauli":
        return pauli_design(_num_qubits(spec.d))
    # complex-valued error matrices need the Hermitian Gaussian variant
    return gaussian_design(spec.d, hermitian=spec.error_kind == "pauli")


def replication_statistic(spec: ExperimentSpec, method: str, n: int, rep: int) -> float:
    """One replication: fresh error matrix, plan and noise; statistic at center 0."""
    gen = np.random.default_rng(_replication_seed(spec, method, n, rep))
    if spec.design == "gaussian" and method == "RSS":
        # Exact shortcut: conditional on the error matrix, the clean traces of
        # both Gaussian ensembles are i.i.d. N(0, ||eta||_F^2), so the
        # observations are i.i.d. N(0, 1 + error_norm_sq) and the residual
        # statistic never needs the design draws materialized.
        ybar = math.sqrt(1.0 + spec.error_norm_sq) * gen.standard_normal(n)
        return float(np.mean(ybar**2)) - 1.0
    eta = make_error_matrix(spec.error_kind, spec.error_norm_sq, spec.d, gen)
    plan = draw_plan(_ensemble(spec), n, gen)
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
