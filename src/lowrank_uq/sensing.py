"""Design ensembles and the trace-measurement sampling operator.

Two ensembles are supported:

* isotropic Gaussian design: matrices with i.i.d. standard normal entries
  (real, non-symmetric), or a complex Hermitian variant with unit entry
  variance for sensing complex Hermitian targets;
* Pauli basis design: draws X^i = d * E_j, with E_j the normalized Pauli
  tensor-product basis and j uniform on [0, d^2).

A plan stores the realized draws (matrices for Gaussian, basis indices for
Pauli) and is immutable after drawing; evaluation operations are pure, so
plans can be shared across concurrent replications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import hermitize
from .tolerances import REAL_IMAG_ATOL

__all__ = [
    "DesignEnsemble",
    "SensingPlan",
    "gaussian_design",
    "pauli_design",
    "pauli_basis_element",
    "pauli_basis",
    "pauli_coefficients",
    "index_to_word",
    "word_to_index",
    "draw_plan",
    "draw_paired_plan",
    "full_basis_plan",
    "apply_sampling",
    "adjoint_average",
]

PAULI_MATRICES = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_MAX_QUBITS = 8


def _num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 2**n:
        raise ValueError(f"the Pauli basis needs d a power of 2, got {dim}")
    return n


def index_to_word(index: int, num_qubits: int) -> tuple:
    """Base-4 digits of ``index``, most significant digit = first qubit."""
    if not 0 <= index < 4**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    digits = []
    for _ in range(num_qubits):
        digits.append(index % 4)
        index //= 4
    return tuple(reversed(digits))


def word_to_index(word) -> int:
    idx = 0
    for digit in word:
        idx = 4 * idx + int(digit)
    return idx


def pauli_basis_element(num_qubits: int, word) -> np.ndarray:
    """Normalized Pauli word 2^(-N/2) * sigma_{y_1} x ... x sigma_{y_N}."""
    if not 1 <= num_qubits <= _MAX_QUBITS:
        raise ValueError(f"number of qubits must be in [1, {_MAX_QUBITS}]")
    word = tuple(int(y) for y in word)
    if len(word) != num_qubits:
        raise ValueError(f"word length {len(word)} != {num_qubits}")
    if any(y not in (0, 1, 2, 3) for y in word):
        raise ValueError(f"invalid Pauli symbol in {word}")
    out = np.array([[1.0 + 0j]])
    for y in word:
        out = np.kron(out, PAULI_MATRICES[y])
    return out * 2.0 ** (-num_qubits / 2.0)


def pauli_basis(num_qubits: int) -> np.ndarray:
    """All 4^N basis elements as an array of shape (4^N, d, d), indexed by
    :func:`word_to_index`.  Up to three qubits it gives the kernels of the
    transform below; up to five it is the dense reference for testing it."""
    if not 1 <= num_qubits <= 5:
        raise ValueError("full basis materialized only up to 5 qubits")
    basis = np.ones((1, 1, 1), dtype=complex)
    for _ in range(num_qubits):
        dim = basis.shape[1]
        basis = np.einsum("jab,ycd->jyacbd", basis, np.stack(PAULI_MATRICES)).reshape(
            basis.shape[0] * 4, dim * 2, dim * 2
        )
    return basis * 2.0 ** (-num_qubits / 2.0)


# The Pauli transform as a butterfly over blocks of at most three qubits,
# O(d^2 log d) in all (tensorized Pauli decomposition). The kernels are the
# dense bases of one block, laid out to multiply from the right:
# _FORWARD[k][r 2^k + c, j] = conj(E_j[r, c]) and _ADJOINT[k][j, r 2^k + c] =
# 2^k E_j[r, c], which carries the adjoint's factor d = prod 2^k. The qubits
# go into blocks greedily, so a d <= 8 transform is one product with its
# kernel; a larger one first splits the row and column axes into blocks
# (_SPLIT), brings those of each block together (_INTERLEAVE), and the adjoint
# separates them again at the end (_MERGED, _DEINTERLEAVE).
_BLOCKS = {n: (3,) * (n // 3) + ((n % 3,) if n % 3 else ()) for n in range(1, _MAX_QUBITS + 1)}
_FORWARD = {k: pauli_basis(k).reshape(4**k, -1).conj().T for k in (1, 2, 3)}
_ADJOINT = {k: 2**k * pauli_basis(k).reshape(4**k, -1) for k in (1, 2, 3)}
_SPLIT = {n: tuple(2**k for k in blocks) * 2 for n, blocks in _BLOCKS.items()}
_MERGED = {n: sum(((2**k, 2**k) for k in blocks), ()) for n, blocks in _BLOCKS.items()}
_INTERLEAVE = {
    n: tuple(ax for b in range(len(blocks)) for ax in (b, len(blocks) + b))
    for n, blocks in _BLOCKS.items()
}
_DEINTERLEAVE = {n: tuple(int(i) for i in np.argsort(ax)) for n, ax in _INTERLEAVE.items()}


def _butterfly(x: np.ndarray, blocks: tuple, kernels: dict) -> np.ndarray:
    """Apply the Kronecker product of the ``kernels`` of ``blocks`` to x.

    Each pass transforms the leading block and rotates it to the end, so the
    blocks are back in their order after the last pass.
    """
    for k in blocks:
        x = x.reshape(4**k, -1).T @ kernels[k]
    return x.reshape(-1)


def pauli_coefficients(a, num_qubits: int, indices=None) -> np.ndarray:
    """Basis coefficients <E_j, a> for all j, or only for ``indices``.

    For Hermitian ``a`` the coefficients are real up to rounding; they are
    returned as complex and it is the caller's business to take real parts.
    """
    if num_qubits not in _BLOCKS:
        raise ValueError(f"number of qubits must be in [1, {_MAX_QUBITS}]")
    a = np.asarray(a, dtype=complex)
    if num_qubits <= 3:
        coeffs = a.reshape(-1) @ _FORWARD[num_qubits]
    else:
        a = a.reshape(_SPLIT[num_qubits]).transpose(_INTERLEAVE[num_qubits])
        coeffs = _butterfly(a, _BLOCKS[num_qubits], _FORWARD)
    return coeffs if indices is None else coeffs[np.asarray(indices)]


@dataclass(frozen=True)
class DesignEnsemble:
    """A measurement design family.

    kind
        ``"gaussian"`` or ``"pauli"``.
    dim
        Matrix dimension d (a power of two for Pauli).
    hermitian
        Gaussian only: draw complex Hermitian matrices with unit entry
        variance instead of real i.i.d. entries.  Required when sensing
        complex-valued Hermitian targets.
    """

    kind: str
    dim: int
    hermitian: bool = False

    def __post_init__(self):
        if self.kind not in ("gaussian", "pauli"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "pauli":
            _num_qubits(self.dim)  # validates power of two
            if self.hermitian:
                raise ValueError("hermitian flag applies to gaussian designs only")
        if self.dim < 1 or self.dim > 256:
            raise ValueError("dimension must be in [1, 256]")

    @property
    def num_qubits(self) -> int:
        if self.kind != "pauli":
            raise ValueError("num_qubits is defined for Pauli designs only")
        return _num_qubits(self.dim)

    @property
    def coherence(self) -> float:
        """Operator-norm bound constant K with ||E_j||_op <= K / sqrt(d): 1 for
        the Pauli basis, undefined (NaN) for Gaussian designs."""
        return 1.0 if self.kind == "pauli" else float("nan")


def gaussian_design(dim: int, hermitian: bool = False) -> DesignEnsemble:
    return DesignEnsemble("gaussian", dim, hermitian=hermitian)


def pauli_design(num_qubits: int) -> DesignEnsemble:
    return DesignEnsemble("pauli", 2**num_qubits)


@dataclass(frozen=True)
class SensingPlan:
    """A realized sequence of design draws.

    Gaussian plans store the n drawn matrices, shape (n, d, d); Pauli plans
    n integer basis indices in [0, d^2) (the realized X^i is d * E_index).
    """

    ensemble: DesignEnsemble
    matrices: np.ndarray | None = None
    indices: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        d, gaussian = self.ensemble.dim, self.ensemble.kind == "gaussian"
        draws, other = (self.matrices, self.indices) if gaussian else (self.indices, self.matrices)
        shape, what = ((d, d), "matrices (n, d, d)") if gaussian else ((), "indices (n,)")
        if other is not None or not isinstance(draws, np.ndarray) or (
                draws.shape[1:] != shape or draws.ndim != 1 + len(shape) or len(draws) < 1):
            raise ValueError(f"a {self.ensemble.kind} plan takes only {what} with n >= 1")
        if not gaussian:
            if not np.issubdtype(draws.dtype, np.integer):
                raise ValueError(f"Pauli indices must be integers, got dtype {draws.dtype}")
            for index in (draws.min(), draws.max()):
                if not 0 <= index < d * d:
                    raise ValueError(f"Pauli index {index} outside [0, {d * d})")
        object.__setattr__(self, "n", len(draws))

    @property
    def dim(self) -> int:
        return self.ensemble.dim


def draw_plan(ensemble: DesignEnsemble, n: int, rng) -> SensingPlan:
    """Draw ``n`` i.i.d. designs from the ensemble.

    ``rng`` is anything ``numpy.random.default_rng`` takes: an integer seed,
    a ``SeedSequence`` or a generator.
    """
    gen = np.random.default_rng(rng)
    d = ensemble.dim
    if ensemble.kind == "gaussian":
        if ensemble.hermitian:
            m = (
                gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
            ) / np.sqrt(2.0)
            mats = (m + m.conj().transpose(0, 2, 1)) / np.sqrt(2.0)
        else:
            mats = gen.standard_normal((n, d, d))
        return SensingPlan(ensemble, matrices=mats)
    indices = gen.integers(0, d * d, size=n)
    return SensingPlan(ensemble, indices=indices)


def draw_paired_plan(ensemble: DesignEnsemble, n: int, rng) -> SensingPlan:
    """Plan of ``n`` draws where draw i and draw i + n/2 share the design."""
    if n % 2:
        raise ValueError("paired plans need an even number of draws")
    half = draw_plan(ensemble, n // 2, rng)
    if ensemble.kind == "gaussian":
        return SensingPlan(ensemble, matrices=np.concatenate([half.matrices] * 2))
    return SensingPlan(ensemble, indices=np.concatenate([half.indices] * 2))


def full_basis_plan(ensemble: DesignEnsemble, multiplicity: int) -> SensingPlan:
    """Deterministic Pauli plan measuring every basis index ``multiplicity``
    times (n = multiplicity * d^2), used for re-averaged estimates."""
    if ensemble.kind != "pauli":
        raise ValueError("full-basis plans exist for Pauli designs only")
    d2 = ensemble.dim**2
    return SensingPlan(ensemble, indices=np.tile(np.arange(d2), multiplicity))


def _require_real(values: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(values).max()) if values.size else 1.0)
    worst = float(np.abs(values.imag).max()) if values.size else 0.0
    if worst > REAL_IMAG_ATOL * scale:
        raise ValueError(
            f"trace measurements are not real (max imaginary part {worst:.3e}); "
            "complex Hermitian targets need a Hermitian or Pauli design"
        )
    return values.real


def apply_sampling(plan: SensingPlan, a) -> np.ndarray:
    """The sampling operator: component i is tr(X^i a), returned real."""
    a = np.asarray(a, dtype=complex)
    d = plan.dim
    if a.shape != (d, d):
        raise ValueError(f"matrix shape {a.shape} does not match design dimension {d}")
    if plan.ensemble.kind == "gaussian":
        # tr(X a) = sum_{mk} X_mk a_km; keep real designs in real arithmetic
        # rather than promoting the whole draw array to complex
        flat = plan.matrices.reshape(plan.n, -1)
        target = a.T.ravel()
        if np.iscomplexobj(flat):
            vals = flat @ target
        else:
            vals = flat @ np.ascontiguousarray(target.real)
            if np.any(target.imag):
                vals = vals + 1j * (flat @ np.ascontiguousarray(target.imag))
    else:
        coeffs = pauli_coefficients(a, plan.ensemble.num_qubits, plan.indices)
        vals = d * coeffs
    return _require_real(np.atleast_1d(np.asarray(vals)))


def adjoint_average(plan: SensingPlan, y) -> np.ndarray:
    """(1/n) sum_i X^i y_i, symmetrized onto the Hermitian space."""
    y = np.asarray(y, dtype=float)
    if y.shape != (plan.n,):
        raise ValueError(f"weight vector length {y.shape} != plan size {plan.n}")
    d = plan.dim
    if plan.ensemble.kind == "gaussian":
        m = (y @ plan.matrices.reshape(plan.n, -1)).reshape(d, d)
    else:
        w = np.bincount(plan.indices, weights=y, minlength=d * d)
        m = _pauli_synthesis(w, plan.ensemble.num_qubits)
    return hermitize(m / plan.n)


def _pauli_synthesis(weights: np.ndarray, num_qubits: int) -> np.ndarray:
    """sum_j weights_j * d * E_j over all d^2 basis indices, not symmetrized:
    the adjoint butterfly on per-index weights."""
    d = 2**num_qubits
    if num_qubits <= 3:
        return (weights @ _ADJOINT[num_qubits]).reshape(d, d)
    m = _butterfly(weights, _BLOCKS[num_qubits], _ADJOINT).reshape(_MERGED[num_qubits])
    return m.transpose(_DEINTERLEAVE[num_qubits]).reshape(d, d)
