"""Shared test oracles: independent reference implementations used to freeze
expected values (power iteration, naive pair sums, Bloch-parametrized grid
searches for d = 2 projections, rank scans that build every truncation, the
two-branch RSS radius)."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

import lowrank_uq as lq

# spectra of 1 to 16 eigenvalues; the sampled values make repeated, zero and
# negative eigenvalues (and so exactly low-rank matrices) common
spectra = st.lists(
    st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.0]),
              st.floats(min_value=-5.0, max_value=5.0)),
    min_size=1, max_size=16,
)


def random_hermitian(d, rng, real=False, scale=1.0):
    a = rng.standard_normal((d, d))
    if not real:
        a = a + 1j * rng.standard_normal((d, d))
    return lq.hermitize(scale * a)


def hermitian_with_spectrum(eigenvalues, rng, real=False):
    """V diag(eigenvalues) V^dagger for a random orthogonal (``real``) or
    unitary V, so repeated, zero and negative eigenvalues are exact."""
    d = len(eigenvalues)
    if real:
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        v = q * np.sign(np.diagonal(r))
    else:
        v = lq.haar_orthonormal_columns(d, d, rng)
    return lq.hermitize((v * np.asarray(eigenvalues, dtype=float)) @ v.conj().T)


def loop_select_k_hat(pilot, est, rate):
    """k_hat by building every truncation best_rank_k(pilot, k) in turn."""
    d, n = rate.dim, rate.n
    root_dn = math.sqrt(d / n)
    slack = 1e-10 * max(1.0, lq.frobenius_norm(pilot))
    for k in range(1, d + 1):
        witness = lq.best_rank_k(pilot, k)
        if lq.frobenius_norm(pilot - witness) > rate(k) + slack:
            continue
        if 1.0 - float(np.sum(est.lambdas[:k])) <= 2.0 * k * root_dn:
            return k
    return d


def loop_rank_reduce(pilot, rate):
    """rank_reduce by building every truncation best_rank_k(pilot, k) in turn."""
    d = np.asarray(pilot).shape[0]
    slack = 1e-10 * max(1.0, lq.frobenius_norm(pilot))
    for k in range(1, d + 1):
        candidate = lq.best_rank_k(pilot, k)
        if lq.frobenius_norm(pilot - candidate) <= rate(k) / 2.0 + slack:
            return candidate, k
    raise AssertionError("unreachable: rank-d truncation is exact")


def two_branch_rss_radius_sq(stat, n, d, sigma, alpha, z=0.0, error_model="gaussian"):
    """rss_radius_sq by solving each regime of max(3x, 4 z d / n) on its own
    and keeping the roots that fall in their regime (up to 1e-12)."""
    if error_model == "gaussian":
        xi = lq.chi_square_deviation_quantile(alpha / 3.0, sigma, n)
        zlog = lq.log_tail_constant(alpha / 3.0)
    else:
        xi = zlog = lq.bernoulli_deviation_quantile(alpha / 3.0)
    zd_term = z * d / n
    b = 2.0 * (stat + zd_term + xi / math.sqrt(n))
    a = 2.0 * sigma * math.sqrt(zlog) / math.sqrt(n)
    candidates = [0.0]
    # regime where the max is 3x: x = b + a sqrt(3) sqrt(x), a quadratic in sqrt(x)
    a3 = a * math.sqrt(3.0)
    disc = a3 * a3 + 4.0 * b
    root = 0.5 * (a3 + math.sqrt(disc)) if disc >= 0 else 0.0
    x_quad = root * root
    if 3.0 * x_quad >= 4.0 * zd_term * (1 - 1e-12):
        candidates.append(x_quad)
    # regime where the max is 4 z d / n
    x_const = b + a * math.sqrt(4.0 * zd_term)
    if 3.0 * x_const <= 4.0 * zd_term * (1 + 1e-12):
        candidates.append(x_const)
    return max(candidates)


def power_iteration_opnorm(a, iters=8000, tol=1e-13):
    """Operator norm of a Hermitian matrix by power iteration on a^2 (avoids
    sign issues), independent of any eigensolver."""
    a = np.asarray(a, dtype=complex)
    sq = a @ a
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = sq @ v
        lam = float(np.real(np.vdot(v, w)))
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        v = w / nrm
        if abs(lam - prev) <= tol * max(lam, 1e-300):
            break
        prev = lam
    return float(np.sqrt(max(lam, 0.0)))


def naive_ustat(batch, center):
    """Literal O(n^2) double sum over pairs of Re<a_i, a_j>_F."""
    plan = batch.plan
    n, d = plan.n, plan.dim
    if plan.ensemble.kind == "gaussian":
        mats = plan.matrices.astype(complex)
    else:
        basis = lq.pauli_basis(plan.ensemble.num_qubits)
        mats = d * basis[plan.indices]
    a = batch.y[:, None, None] * mats - np.asarray(center, dtype=complex)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.vdot(a[i], a[j]).real
    return 2.0 * total / (n * (n - 1))


def naive_ustat_entrywise(batch, center):
    """Entrywise double sum (no conjugation), the real-design form."""
    plan = batch.plan
    n = plan.n
    a = batch.y[:, None, None] * plan.matrices - np.asarray(center)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += float(np.sum(a[i] * a[j]).real)
    return 2.0 * total / (n * (n - 1))


def _bloch_mixed_values(a, xs, ys, zs):
    """||a - rho(v)||_F^2 on a grid of Bloch vectors, vectorized; vectors with
    ||v|| > 1 are radially clipped onto the ball."""
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nrm = np.sqrt(gx**2 + gy**2 + gz**2)
    scale = np.where(nrm > 1.0, 1.0 / np.maximum(nrm, 1e-300), 1.0)
    gx, gy, gz = gx * scale, gy * scale, gz * scale
    r00 = 0.5 * (1.0 + gz)
    r11 = 0.5 * (1.0 - gz)
    r01 = 0.5 * (gx - 1j * gy)
    vals = (
        np.abs(a[0, 0] - r00) ** 2
        + np.abs(a[1, 1] - r11) ** 2
        + 2.0 * np.abs(a[0, 1] - r01) ** 2
    )
    return vals, (gx, gy, gz)


def bloch_grid_state_projection(a, stages=6, pts=21):
    """Grid-search oracle for the Frobenius projection of a 2x2 Hermitian
    matrix onto the state space, via coarse-to-fine refinement over the Bloch
    ball (the objective is convex, so refinement is safe)."""
    a = np.asarray(a, dtype=complex)
    center = np.zeros(3)
    half = 1.0
    best = None
    for _ in range(stages):
        axes = [np.linspace(c - half, c + half, pts) for c in center]
        vals, (gx, gy, gz) = _bloch_mixed_values(a, *axes)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([gx[idx], gy[idx], gz[idx]])
        center = best
        half *= 2.2 / (pts - 1)
    x, y, z = best
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def bloch_grid_pure_projection(a, stages=6, pts=61):
    """Grid-search oracle for the closest pure state (rank-1 projector) to a
    2x2 Hermitian matrix, over spherical angles."""
    a = np.asarray(a, dtype=complex)
    center = np.array([np.pi / 2, np.pi])
    half = np.array([np.pi / 2, np.pi])
    best = None
    for _ in range(stages):
        thetas = np.linspace(center[0] - half[0], center[0] + half[0], pts)
        phis = np.linspace(center[1] - half[1], center[1] + half[1], pts)
        gt, gp = np.meshgrid(thetas, phis, indexing="ij")
        c, s = np.cos(gt / 2.0), np.sin(gt / 2.0)
        r00 = c**2
        r11 = s**2
        r01 = c * s * np.exp(-1j * gp)
        vals = (
            np.abs(a[0, 0] - r00) ** 2
            + np.abs(a[1, 1] - r11) ** 2
            + 2.0 * np.abs(a[0, 1] - r01) ** 2
        )
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([gt[idx], gp[idx]])
        center = best
        half = half * 2.2 / (pts - 1)
    th, ph = best
    psi = np.array([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)])
    return np.outer(psi, psi.conj())


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
