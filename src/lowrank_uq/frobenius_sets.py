"""Frobenius-norm confidence sets from unbiased risk estimation.

Four statistics, all with conditional mean ||theta - center||_F^2:

* RSS: residual sum of squares minus the noise level,
* UStat: a U-statistic over pairs of measurements (isotropic designs),
* ReAvg: a re-averaged full-basis statistic for Pauli designs with n >= d^2,
* PairedRSS: paired residuals, which need no knowledge of the noise level.

:func:`frobenius_ball` is the one map from a method and a constants regime
to a statistic and a ball.  Radii that depend on the unknown distance
||v - center||_F are resolved by taking the largest root of the induced
quadratic in sqrt(x), which yields the smallest ball containing every matrix
satisfying the defining inequality.  Negative statistics are clamped to zero
inside square roots.

Two constant regimes exist: "theory" uses the explicit non-asymptotic
quantile constants, "simulation" the Monte-Carlo calibrated constants of
:data:`DEFAULT_SIMULATION_CONSTANTS` (the values with which the paper's
Table 1 is reproduced; not a calibration at a coverage level).  The
sequential certificate compares the radius with its target accuracy in the
simulation regime and the diameter 2 * radius in the theory regime, whose
quantiles are the standard library's: ``statistics.NormalDist`` and the
chi-square Newton inverse :func:`_chi_square_isf`.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .matrices import check_hermitian
from .measurement import BernoulliPauliNoise, MeasurementBatch, noise_scale
from .reports import ConfidenceReport
from .sensing import apply_sampling, pauli_coefficients

__all__ = [
    "log_tail_constant",
    "chi_square_deviation_quantile",
    "bernoulli_deviation_quantile",
    "pauli_coverage_rate",
    "pauli_deviation_constant",
    "rss_statistic",
    "rss_radius_sq",
    "calibrated_bound",
    "ustat_statistic",
    "ustat_radius_sq",
    "reavg_statistic",
    "reavg_radius_sq",
    "paired_rss_statistic",
    "frobenius_ball",
    "DEFAULT_SIMULATION_CONSTANTS",
]

# The constants of the simulation regime's balls.  What the tests check of
# these values: with them the isotropic Table-1 diameters of the paper are
# reproduced within acceptance criterion 1's 15%, and the certificates pass
# criterion 7.  No code calibrates them, and they are not a calibration at a
# coverage level.
DEFAULT_SIMULATION_CONSTANTS = {
    "rss_c": 1.0,
    "rss_c_prime": 6.0,
    "ustat_c": 2.5,
    "ustat_c_prime": 6.0,
}


def log_tail_constant(alpha: float) -> float:
    """log(3 / alpha), the exponential-tail quantile constant."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return math.log(3.0 / alpha)


def _chi_square_isf(alpha: float, n: int) -> float:
    """Upper-alpha chi-square_n quantile by Newton's method, from the
    Wilson-Hilferty start, on the log of the exact survival function at
    x = 2t: the sum of t^e exp(-t) / Gamma(e + 1) over e = n/2 - 1, n/2 - 2,
    ... >= 0, plus erfc(sqrt t) for odd n; the top term is twice the density.
    x - n is within about 1e-12 relative for alpha <= 0.9."""
    c = 2.0 / (9.0 * n)
    x = n * max(1.0 - c - NormalDist().inv_cdf(alpha) * math.sqrt(c), 0.1) ** 3
    for _ in range(50):
        t, e = x / 2.0, n / 2.0 - 1.0
        if e < 32:
            log_top = e * math.log(t) - t - math.lgamma(e + 1.0)
        else:  # Stirling's form, where e log t, t and lgamma(e + 1) would cancel
            v, ee = (t - e) / e, e * e
            log_top = (-e * (v - math.log1p(v)) - 0.5 * math.log(2 * math.pi * e)
                       - (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * ee)) / ee) / ee) / e)
        term, sf = math.exp(log_top), (math.erfc(math.sqrt(t)) if n % 2 else 0.0)
        while e >= 0 and term > 0:  # from the top term down, by the ratio e / t
            sf += term
            if e < t and term <= 1e-20 * sf:
                break
            term, e = term * e / t, e - 1.0
        step = 2.0 * math.log(sf / alpha) * sf / math.exp(log_top)
        x = max(x + step, x / 2.0)  # a step past 0 (n = 1, alpha near 1) halves x
        if abs(step) <= 1e-12 * x:
            break
    return x


def chi_square_deviation_quantile(alpha: float, sigma: float, n: int) -> float:
    """Upper-alpha quantile of (1/sqrt(n)) sum_i (eps_i^2 - sigma^2).

    For eps_i i.i.d. N(0, sigma^2) the sum of squares is sigma^2 times a
    chi-square with n degrees of freedom, so the quantile is
    sigma^2 (Q_{chi2,n}(1 - alpha) - n) / sqrt(n).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if sigma == 0:
        return 0.0
    return sigma**2 * (_chi_square_isf(alpha, n) - n) / math.sqrt(n)


def bernoulli_deviation_quantile(alpha: float) -> float:
    """Chebyshev-type quantile sqrt(1/alpha) for the bounded Bernoulli errors
    (valid once the preparation count satisfies T >= 4 d^2)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(1.0 / alpha)


def pauli_coverage_rate(coherence: float) -> float:
    """Exponential coverage rate C(K) = 1 / ((16 + 8/3) K^2)."""
    if coherence <= 0:
        raise ValueError("coherence constant must be positive")
    return 1.0 / ((16.0 + 8.0 / 3.0) * coherence**2)


def pauli_deviation_constant(alpha: float, coherence: float = 1.0) -> float:
    """Deviation constant z with 2 exp(-C(K) z) = alpha / 3."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return math.log(6.0 / alpha) / pauli_coverage_rate(coherence)


# --- RSS ----------------------------------------------------------------------

def _centering(batch: MeasurementBatch) -> float:
    """sigma^2 under Gaussian noise; 0 under Bernoulli noise, whose variance is only bounded."""
    return 0.0 if isinstance(batch.noise, BernoulliPauliNoise) else batch.noise.sigma**2


def rss_statistic(batch: MeasurementBatch, center) -> float:
    """(1/n) ||y - X(center)||^2 - sigma^2 (see :func:`_centering`); may be negative."""
    center = check_hermitian(center)
    resid = batch.y - apply_sampling(batch.plan, center)
    return float(np.mean(resid**2)) - _centering(batch)


def _largest_root_sqrt_quadratic(a: float, b: float) -> float:
    """Largest nonnegative root of x = b + a sqrt(x) (0 if none exists)."""
    disc = a * a + 4.0 * b
    if disc < 0:
        return 0.0
    root = 0.5 * (a + math.sqrt(disc))
    return max(root * root, 0.0)


def rss_radius_sq(stat: float, n: int, d: int, sigma: float, alpha: float,
                  z: float = 0.0, error_model: str = "gaussian") -> float:
    """Squared radius of the RSS-type ball for a given statistic value.

    The defining inequality is

        ||v - center||^2 <= 2 (stat + z d/n + (zbar + xi) / sqrt(n)),

    with zbar^2 = z_{alpha/3} sigma^2 max(3 ||v - center||^2, 4 z d / n).
    The radius is the largest fixed point of x -> b + a max(sqrt(3x),
    sqrt(4 z d / n)), the larger of two nondecreasing maps, so it is the
    larger of their largest fixed points (and at least 0).  With
    ``error_model="bernoulli"`` the chi-square and log quantiles are replaced
    by the Chebyshev constants sqrt(3/alpha) (requires T >= 4 d^2) and
    ``sigma`` should be the variance bound sqrt(d/T).
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if error_model == "gaussian":
        xi = chi_square_deviation_quantile(alpha / 3.0, sigma, n)
        zlog = log_tail_constant(alpha / 3.0)
    elif error_model == "bernoulli":
        xi = bernoulli_deviation_quantile(alpha / 3.0)
        zlog = bernoulli_deviation_quantile(alpha / 3.0)
    else:
        raise ValueError(f"unknown error model {error_model!r}")

    zd_term = z * d / n
    b = 2.0 * (stat + zd_term + xi / math.sqrt(n))
    a = 2.0 * sigma * math.sqrt(zlog) / math.sqrt(n)
    return max(0.0, _largest_root_sqrt_quadratic(a * math.sqrt(3.0), b),
               b + a * math.sqrt(4.0 * zd_term))


def calibrated_bound(kind: str, stat, root, n: int, d: int | None = None):
    """Right-hand side stat + dev + c' root / sqrt(n) of the calibrated balls.

    ``dev`` is c d / n for the pair statistic (``kind="ustat"``) and
    c / sqrt(n) for RSS (``kind="rss"``); ``root`` stands for the unknown
    distance ||v - center||_F.  Works elementwise on arrays with constants
    from :data:`DEFAULT_SIMULATION_CONSTANTS`.  Two forms: the tables pass
    the raw ``stat`` with root sqrt(max(stat, 0)), :func:`frobenius_ball`
    the clamped s = max(stat, 0) for both; they differ when stat < 0.
    """
    if kind == "ustat":
        dev = DEFAULT_SIMULATION_CONSTANTS["ustat_c"] * d / n
    elif kind == "rss":
        dev = DEFAULT_SIMULATION_CONSTANTS["rss_c"] / math.sqrt(n)
    else:
        raise ValueError(f"unknown calibrated ball {kind!r}")
    return stat + dev + DEFAULT_SIMULATION_CONSTANTS[f"{kind}_c_prime"] * root / math.sqrt(n)


# --- U-statistic ----------------------------------------------------------------

def ustat_statistic(batch: MeasurementBatch, center) -> float:
    """Pair statistic (2 / n(n-1)) sum_{i<j} Re<a_i, a_j>_F, a_i = Y_i X^i - center.

    Computed through the identity 2 sum_{i<j} <a_i, a_j> = ||sum_i a_i||^2 -
    sum_i ||a_i||^2, which is exactly the naive double sum at O(n d^2) cost.
    Both Gaussian designs take the Frobenius inner product (with conjugation),
    the reading that keeps the statistic unbiased for the squared distance;
    for real designs it coincides with the entrywise double sum.
    """
    n = batch.n
    if n < 2:
        raise ValueError("the pair statistic needs n >= 2")
    center = check_hermitian(center)
    plan = batch.plan
    y = batch.y
    d = plan.dim
    if plan.ensemble.kind == "gaussian":
        flat = plan.matrices.reshape(n, -1)
        draw_sq = np.einsum("ij,ij->i", flat, flat.conj()).real
        cross = (flat.conj() @ center.ravel()).real
        total = (y @ flat).reshape(d, d) - n * center
        total_sq = float(np.sum(np.abs(total) ** 2))
        per_draw = y**2 * draw_sq - 2.0 * y * cross + float(np.sum(np.abs(center) ** 2))
    else:
        # work in the orthonormal-basis coefficient space (Parseval)
        nq = plan.ensemble.num_qubits
        c0 = pauli_coefficients(center, nq).real
        w = np.bincount(plan.indices, weights=y, minlength=d * d)
        total_coeff = d * w - n * c0
        total_sq = float(np.sum(total_coeff**2))
        per_draw = (
            d * d * y**2
            - 2.0 * d * y * c0[plan.indices]
            + float(np.sum(c0**2))
        )
    return (total_sq - float(np.sum(per_draw))) / (n * (n - 1))


def ustat_radius_sq(stat: float, n: int, d: int, c1: float, c2: float) -> float:
    """Squared radius of the pair-statistic ball: largest x solving
    x = max(stat, 0) + c1 sqrt(x)/sqrt(n) + c2 d/n."""
    base = max(stat, 0.0) + c2 * d / n
    return _largest_root_sqrt_quadratic(c1 / math.sqrt(n), base)


# --- re-averaged full-basis statistic -------------------------------------------

def _grouped_coefficient_sums(batch: MeasurementBatch):
    plan = batch.plan
    if plan.ensemble.kind != "pauli":
        raise ValueError("re-averaging applies to Pauli designs only")
    d2 = plan.dim**2
    if plan.n % d2:
        raise ValueError(f"n = {plan.n} is not a multiple of d^2 = {d2}")
    m = plan.n // d2
    counts = np.bincount(plan.indices, minlength=d2)
    if not np.all(counts == m):
        raise ValueError("every basis index must be measured equally often")
    sums = np.bincount(plan.indices, weights=batch.y, minlength=d2)
    return sums, m


def reavg_statistic(batch: MeasurementBatch, center) -> float:
    """Full-basis statistic (1/n) ||ztilde||^2 - sigma^2 d^2 / n (:func:`_centering`).

    The batch must measure each basis coefficient exactly m = n / d^2 times;
    the averaged coefficient measurements are centered at the basis expansion
    of ``center``.
    """
    center = check_hermitian(center)
    sums, m = _grouped_coefficient_sums(batch)
    plan = batch.plan
    n, d = batch.n, batch.dim
    z = sums / math.sqrt(m)
    coeffs = pauli_coefficients(center, plan.ensemble.num_qubits).real
    ztilde = z - math.sqrt(n) * coeffs
    return float(np.sum(ztilde**2)) / n - _centering(batch) * d * d / n


def reavg_radius_sq(stat: float, n: int, d: int, sigma: float, alpha: float) -> float:
    """Squared radius of the re-averaged ball: largest x solving
    x = stat + z_{alpha/2} sigma sqrt(x)/sqrt(n) + xi_{alpha/2} d/n, with the
    chi-square quantile taken at d^2 degrees of freedom."""
    z_norm = -NormalDist().inv_cdf(alpha / 2.0)
    xi = chi_square_deviation_quantile(alpha / 2.0, sigma, d * d)
    a = z_norm * sigma / math.sqrt(n)
    b = stat + xi * d / n
    return _largest_root_sqrt_quadratic(a, b)


# --- paired residuals (variance-free) -------------------------------------------

def paired_rss_statistic(batch: MeasurementBatch, center) -> float:
    """(2/n) sum_{i <= n/2} resid_i resid_{i+n/2} over a duplicated design.

    Unbiased for the squared distance without knowledge of the noise level;
    requires draws i and i + n/2 to share the same design matrix.
    """
    plan = batch.plan
    n = plan.n
    if n % 2:
        raise ValueError("the paired statistic needs an even number of draws")
    half = n // 2
    if plan.ensemble.kind == "pauli":
        paired = np.array_equal(plan.indices[:half], plan.indices[half:])
    else:
        paired = np.array_equal(plan.matrices[:half], plan.matrices[half:])
    if not paired:
        raise ValueError("draw i and draw i + n/2 must share the same design")
    center = check_hermitian(center)
    resid = batch.y - apply_sampling(batch.plan, center)
    return 2.0 * float(np.dot(resid[:half], resid[half:])) / n


# --- the ball: one dispatch over method and regime ------------------------------

def frobenius_ball(method: str, batch: MeasurementBatch, center, alpha: float,
                   regime: str) -> ConfidenceReport:
    """Frobenius ball around ``center`` at level ``alpha`` from the statistic
    ``method`` under the constants ``regime`` ("theory" or "simulation").

    The noise level is ``noise_scale(batch)``; under Bernoulli noise it is
    only the bound sqrt(d/T), so RSS and ReAvg drop their centering and the
    theory RSS radius takes the Chebyshev constants.  Theory UStat takes
    c1 = c2 = sqrt(1/alpha) (unit Frobenius bound on the target), theory RSS
    and PairedRSS the Pauli deviation constant on Pauli designs.  The
    simulation radius_sq is :func:`calibrated_bound` at s = max(stat, 0).
    """
    if regime not in ("theory", "simulation"):
        raise ValueError(f"unknown constants regime {regime!r}")
    center = check_hermitian(center)
    ensemble = batch.plan.ensemble
    n, d = batch.n, batch.dim
    sigma = noise_scale(batch)
    bernoulli = isinstance(batch.noise, BernoulliPauliNoise)
    # the statistics are looked up by name at call time, so that rebinding a
    # module attribute (as a profiler does) reaches this dispatch too
    if method == "RSS":
        stat = rss_statistic(batch, center)
    elif method == "UStat":
        if ensemble.kind != "gaussian":
            raise ValueError("the U-statistic ball is only supported for isotropic designs")
        stat = ustat_statistic(batch, center)
    elif method == "ReAvg":
        stat = reavg_statistic(batch, center)
    elif method == "PairedRSS":
        stat = paired_rss_statistic(batch, center)
    else:
        raise ValueError(f"unknown Frobenius ball {method!r}")

    if regime == "simulation":
        s = max(stat, 0.0)
        kind = "ustat" if method == "UStat" else "rss"
        # squared from the radius, the quantity the certificate compares
        radius_sq = math.sqrt(calibrated_bound(kind, s, math.sqrt(s), n, d)) ** 2
    elif method == "ReAvg":
        radius_sq = reavg_radius_sq(stat, n, d, sigma, alpha)
    elif method == "UStat":
        zeta = math.sqrt(1.0 / alpha)
        radius_sq = ustat_radius_sq(stat, n, d, zeta, zeta)
    else:
        z = 0.0
        if ensemble.kind == "pauli":
            z = pauli_deviation_constant(alpha, ensemble.coherence)
        radius_sq = rss_radius_sq(stat, n, d, sigma, alpha, z=z,
                                  error_model="bernoulli" if bernoulli else "gaussian")
    return ConfidenceReport(center=center, radius_sq=radius_sq, norm_kind="frobenius",
                            level_alpha=alpha, method=method, statistic_value=stat, n=n)
