"""Dense Hermitian matrix primitives.

Norms, spectral decompositions, best low-rank approximation, and Frobenius
projections onto the quantum state space (positive semi-definite, unit trace)
and its rank-constrained subsets.  Matrices are plain complex ndarrays;
the validation helpers enforce the Hermitian / density-matrix contracts at
module boundaries.  Complex storage is used even for real-valued problems so
that there is a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zheevd

from .tolerances import (
    EIG_RECON_RTOL,
    HERMITIAN_ATOL,
    NUCLEAR_SLACK,
    PSD_ATOL,
    TRACE_ATOL,
)

__all__ = [
    "EigendecompositionError",
    "SpectralDecomposition",
    "check_hermitian",
    "check_quantum_state",
    "hermitize",
    "frobenius_norm",
    "nuclear_norm",
    "operator_norm",
    "eigh",
    "best_rank_k",
    "project_to_simplex",
    "project_state_space",
    "project_rank_k_state_space",
    "random_rank_k_state",
    "haar_orthonormal_columns",
]


class EigendecompositionError(np.linalg.LinAlgError):
    """Eigensolver failed to converge within its iteration cap."""


def _eigh(a: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of the Hermitian ``a`` (and, with ``vectors``, the
    eigenvectors as columns): LAPACK zheevd on the lower triangle, the routine
    and triangle of ``numpy.linalg.eigh``, without numpy's per-call wrapper.
    Raises :class:`EigendecompositionError` when it does not converge."""
    lam, vec, info = zheevd(a, compute_v=int(vectors), lower=1)
    if info != 0:
        raise EigendecompositionError(
            f"eigendecomposition did not converge for a {a.shape[0]}x{a.shape[0]} "
            f"matrix with frobenius norm {frobenius_norm(a):.6e}"
        )
    return (lam, vec) if vectors else lam


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize to the nearest Hermitian matrix, (A + A^dagger) / 2."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def check_hermitian(a) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian up to ``HERMITIAN_ATOL``
    relative to its largest entry (at least 1); return it as complex."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    dev = float(np.abs(a - a.conj().T).max())
    if dev > HERMITIAN_ATOL * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {dev:.3e}")
    return a


def check_quantum_state(rho) -> np.ndarray:
    """Validate the density-matrix contract: Hermitian, unit trace, PSD."""
    rho = check_hermitian(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"state trace is {tr!r}, expected 1")
    lam = _eigh(rho, vectors=False)
    if lam.min() < -PSD_ATOL:
        raise ValueError(f"state has negative eigenvalue {lam.min():.3e}")
    if np.abs(lam).sum() > 1.0 + NUCLEAR_SLACK:
        raise ValueError("state nuclear norm exceeds 1")
    return rho


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def nuclear_norm(a) -> float:
    """Sum of absolute eigenvalues (= singular values for Hermitian input)."""
    return float(np.abs(_eigh(check_hermitian(a), vectors=False)).sum())


def operator_norm(a) -> float:
    """Largest absolute eigenvalue."""
    return float(np.abs(_eigh(check_hermitian(a), vectors=False)).max())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted non-increasing, column ``i`` of ``eigenvectors``
    paired with ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(a) -> SpectralDecomposition:
    """Full spectral decomposition with eigenvalues in descending order."""
    a = check_hermitian(a)
    lam, vec = _eigh(a)
    order = np.argsort(lam)[::-1]
    dec = SpectralDecomposition(lam[order], vec[:, order])
    scale = frobenius_norm(a)
    if scale > 0:
        resid = frobenius_norm(dec.reconstruct() - a)
        if resid > EIG_RECON_RTOL * scale:
            raise EigendecompositionError(
                f"eigendecomposition residual {resid:.3e} exceeds "
                f"{EIG_RECON_RTOL:g} * {scale:.3e}"
            )
    return dec


def best_rank_k(a, k: int) -> np.ndarray:
    """Frobenius-closest matrix of rank <= k.

    Keeps the ``k`` eigenvalues of largest magnitude together with their
    eigenvectors and zeroes the rest.
    """
    a = check_hermitian(a)
    d = a.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"rank must be in [1, {d}], got {k}")
    dec = eigh(a)
    keep = np.argsort(-np.abs(dec.eigenvalues))[:k]
    lam = np.zeros(d)
    lam[keep] = dec.eigenvalues[keep]
    v = dec.eigenvectors
    return (v * lam) @ v.conj().T


def _truncation_errors(a) -> np.ndarray:
    """``frobenius_norm(a - best_rank_k(a, k))`` for k = 1..d from one
    decomposition.

    The rank-k error is the root sum of the d - k smallest squared eigenvalue
    magnitudes, so the rank-d entry is exactly 0.
    """
    tails = np.cumsum(np.sort(np.abs(eigh(a).eigenvalues)) ** 2)[::-1]
    return np.sqrt(np.append(tails[1:], 0.0))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Sort-and-threshold method, exact in O(d log d).
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - cssv / idx > 0)[0][-1]
    tau = cssv[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def project_state_space(a) -> np.ndarray:
    """Frobenius projection onto the state space (PSD, unit trace).

    The rank-d case of :func:`project_rank_k_state_space`.
    """
    a = check_hermitian(a)
    return project_rank_k_state_space(a, a.shape[0])


def project_rank_k_state_space(a, k: int) -> np.ndarray:
    """Frobenius projection onto rank-<=k density matrices.

    Keeps the ``k`` algebraically largest eigenvalues, projects that
    k-vector onto the probability simplex, and reassembles with the
    retained eigenvectors.
    """
    a = check_hermitian(a)
    d = a.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"rank must be in [1, {d}], got {k}")
    dec = eigh(a)
    w = project_to_simplex(dec.eigenvalues[:k])
    v = dec.eigenvectors[:, :k]
    return hermitize((v * w) @ v.conj().T)


def haar_orthonormal_columns(d: int, k: int, rng) -> np.ndarray:
    """k Haar-distributed orthonormal columns in C^d (QR with phase fix)."""
    gen = np.random.default_rng(rng)
    z = gen.standard_normal((d, k)) + 1j * gen.standard_normal((d, k))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()


def random_rank_k_state(d: int, k: int, rng) -> np.ndarray:
    """Random rank-k density matrix: Haar eigenvectors, simplex-uniform weights."""
    if not 1 <= k <= d:
        raise ValueError(f"rank must be in [1, {d}], got {k}")
    gen = np.random.default_rng(rng)
    cols = haar_orthonormal_columns(d, k, gen)
    w = gen.dirichlet(np.ones(k))
    return hermitize((cols * w) @ cols.conj().T)
