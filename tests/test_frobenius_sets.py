import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowrank_uq as lq

from conftest import naive_ustat, naive_ustat_entrywise, random_hermitian


class TestQuantiles:
    def test_log_tail_constant_exact(self):
        assert lq.log_tail_constant(0.05) == math.log(3 / 0.05)

    def test_chi_square_closed_form_zero(self):
        # P(chi2_2 > 2) = exp(-1), so the centered quantile vanishes there
        xi = lq.chi_square_deviation_quantile(math.exp(-1), 1.0, 2)
        assert abs(xi) <= 1e-6

    def test_single_dof_value(self):
        # chi2_1 0.95-quantile is 3.8415, minus one degree of freedom
        xi = lq.chi_square_deviation_quantile(0.05, 1.0, 1)
        assert xi == pytest.approx(2.8415, abs=2e-4)

    def test_degenerate_noise(self):
        assert lq.chi_square_deviation_quantile(0.3, 0.0, 10) == 0.0

    def test_sigma_scaling(self):
        base = lq.chi_square_deviation_quantile(0.1, 1.0, 7)
        assert lq.chi_square_deviation_quantile(0.1, 2.0, 7) == pytest.approx(4 * base)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            lq.chi_square_deviation_quantile(1.2, 1.0, 5)

    def test_bernoulli_quantile(self):
        assert lq.bernoulli_deviation_quantile(0.25) == pytest.approx(2.0)


class TestPauliConstants:
    def test_coverage_rate_at_unit_coherence(self):
        assert lq.pauli_coverage_rate(1.0) == pytest.approx(3 / 56)

    def test_deviation_constant_value(self):
        z = lq.pauli_deviation_constant(0.05, 1.0)
        assert z == pytest.approx(56 / 3 * math.log(120), rel=1e-12)
        assert z == pytest.approx(89.37, abs=0.01)

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError):
            lq.pauli_deviation_constant(6 / math.e, 1.0)  # > 1, degenerate


def _manual_batch(matrices, y, sigma=1.0):
    ens = lq.gaussian_design(matrices.shape[1])
    plan = lq.SensingPlan(ens, matrices.shape[0], matrices=matrices)
    return lq.MeasurementBatch(plan, np.asarray(y, dtype=float), lq.GaussianNoise(sigma))


class TestRssStatistic:
    def test_noiseless_at_truth(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 30, 0)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        assert lq.rss_statistic(batch, rho, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        # n = 1, Y = 2, tr(X c) = 1, sigma = 1: (2 - 1)^2 - 1 = 0
        mats = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        batch = _manual_batch(mats, [2.0])
        center = np.diag([1.0, 0.0])
        assert lq.rss_statistic(batch, center, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_monte_carlo_mean(self, rng):
        rho = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        center = np.eye(4) / 4
        target = lq.frobenius_norm(rho - center) ** 2
        vals = np.empty(600)
        for rep in range(600):
            g = np.random.default_rng((21, rep))
            plan = lq.draw_plan(lq.pauli_design(2), 40, g)
            batch = lq.measure_gaussian(plan, rho, 0.5, g)
            vals[rep] = lq.rss_statistic(batch, center, 0.5)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se


class TestRssConfidenceSet:
    def test_radius_is_twice_statistic_when_deviations_vanish(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        center = np.eye(4) / 4
        plan = lq.draw_plan(lq.gaussian_design(4, hermitian=True), 50, 1)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        rep = lq.frobenius_ball("RSS", batch, center, 0.05, "theory")
        assert rep.radius_sq == pytest.approx(2 * rep.statistic_value, rel=1e-12)
        assert rep.statistic_value > 0

    def test_implicit_solution_is_fixed_point(self, rng):
        for _ in range(50):
            stat = float(rng.uniform(-0.5, 3.0))
            n = int(rng.integers(10, 500))
            d = int(rng.integers(2, 33))
            sigma = float(rng.uniform(0.05, 1.5))
            alpha = float(rng.uniform(0.01, 0.5))
            z = float(rng.choice([0.0, 1.0, 30.0]))
            x = lq.rss_radius_sq(stat, n, d, sigma, alpha, z=z)
            xi = lq.chi_square_deviation_quantile(alpha / 3, sigma, n)
            zlog = lq.log_tail_constant(alpha / 3)

            def rhs(v):
                zbar = sigma * math.sqrt(zlog * max(3 * v, 4 * z * d / n))
                return 2 * (stat + z * d / n + (xi + zbar) / math.sqrt(n))

            if x > 0:
                assert x == pytest.approx(rhs(x), rel=1e-9)
                # largest root: strictly above it the map falls below identity
                probe = 1.5 * x + 1.0
                assert rhs(probe) < probe

    def test_bernoulli_variant_uses_chebyshev_constants(self):
        stat, n, d, alpha, z = 0.2, 64, 4, 0.1, 5.0
        sigma_bound = math.sqrt(d / 256)
        x = lq.rss_radius_sq(stat, n, d, sigma_bound, alpha, z=z, error_model="bernoulli")
        # both the chi-square and the log quantile become sqrt(3 / alpha)
        cheb = math.sqrt(3 / alpha)
        zbar = sigma_bound * math.sqrt(cheb * max(3 * x, 4 * z * d / n))
        assert x == pytest.approx(2 * (stat + z * d / n + (cheb + zbar) / math.sqrt(n)),
                                  rel=1e-12)
        assert x > lq.rss_radius_sq(stat, n, d, sigma_bound, alpha, z=z)

    def test_radius_clamped_at_zero(self):
        x = lq.rss_radius_sq(-50.0, 100, 2, 0.1, 0.05, z=0.0)
        assert x == 0.0


def _calibrated_radius(kind, stat, n, d=None):
    s = max(stat, 0.0)
    return math.sqrt(lq.calibrated_bound(kind, s, math.sqrt(s), n, d))


def _exact_batch(sigma, n=100):
    """Noiseless outcomes at the state, declared under noise level ``sigma``:
    the RSS statistic at the state is exactly -sigma^2."""
    rho = lq.random_rank_k_state(2, 1, np.random.default_rng(8))
    plan = lq.draw_plan(lq.pauli_design(1), n, 0)
    clean = lq.measure_gaussian(plan, rho, 0.0, 0)
    return lq.MeasurementBatch(plan, clean.y, lq.GaussianNoise(sigma)), rho


class TestCalibratedRadii:
    def test_rss_value_at_zero_statistic(self):
        batch, rho = _exact_batch(0.0)
        rep = lq.frobenius_ball("RSS", batch, rho, 0.05, "simulation")
        assert rep.statistic_value == 0.0
        assert rep.radius_sq == pytest.approx(0.1)

    def test_negative_statistic_clamped(self):
        batch, rho = _exact_batch(1.0)
        rep = lq.frobenius_ball("RSS", batch, rho, 0.05, "simulation")
        assert rep.statistic_value == pytest.approx(-1.0)
        assert rep.radius_sq == pytest.approx(0.1)

    def test_monotone_in_statistic_and_sample_size(self):
        stats = np.linspace(-1, 4, 40)
        for radius in (
            lambda s, n: _calibrated_radius("rss", s, n),
            lambda s, n: _calibrated_radius("ustat", s, n, 32),
            lambda s, n: lq.rss_radius_sq(s, n, 8, 0.4, 0.05, z=3.0),
            lambda s, n: lq.reavg_radius_sq(s, n, 8, 0.4, 0.05),
        ):
            vals = [radius(s, 200) for s in stats]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert radius(1.0, 100) >= radius(1.0, 400) - 1e-12


def _ball_batch(method, design, noise):
    rng = np.random.default_rng(12)
    state = lq.random_rank_k_state(4, 1, rng)
    ens = lq.pauli_design(2) if design == "pauli" else lq.gaussian_design(4, hermitian=True)
    if method == "ReAvg":
        plan = lq.full_basis_plan(ens, 2)
    elif method == "PairedRSS":
        plan = lq.draw_paired_plan(ens, 40, rng)
    else:
        plan = lq.draw_plan(ens, 40, rng)
    if noise == "gaussian":
        return lq.measure_gaussian(plan, state, 0.2, rng)
    return lq.measure_bernoulli_pauli(plan, state, 64, rng)


class TestFrobeniusBall:
    @pytest.mark.parametrize("regime", ["theory", "simulation"])
    @pytest.mark.parametrize("method,design,noise", [
        ("RSS", "gaussian", "gaussian"),
        ("RSS", "pauli", "gaussian"),
        ("RSS", "pauli", "bernoulli"),
        ("UStat", "gaussian", "gaussian"),
        ("ReAvg", "pauli", "gaussian"),
        ("ReAvg", "pauli", "bernoulli"),
        ("PairedRSS", "gaussian", "gaussian"),
        ("PairedRSS", "pauli", "bernoulli"),
    ])
    def test_matches_closed_form(self, method, design, noise, regime):
        batch = _ball_batch(method, design, noise)
        center = np.eye(4) / 4
        n, d, alpha = batch.n, 4, 0.01
        # Bernoulli noise: the variance is only bounded by d/T, so the
        # statistics drop their centering and the radius takes the bound
        sigma = 0.2 if noise == "gaussian" else math.sqrt(d / 64)
        stat_sigma = 0.2 if noise == "gaussian" else 0.0
        stat = {
            "RSS": lambda: lq.rss_statistic(batch, center, stat_sigma),
            "UStat": lambda: lq.ustat_statistic(batch, center),
            "ReAvg": lambda: lq.reavg_statistic(batch, center, stat_sigma),
            "PairedRSS": lambda: lq.paired_rss_statistic(batch, center),
        }[method]()
        if regime == "simulation":
            expect = _calibrated_radius("ustat" if method == "UStat" else "rss", stat, n, d) ** 2
        elif method == "ReAvg":
            expect = lq.reavg_radius_sq(stat, n, d, sigma, alpha)
        elif method == "UStat":
            c = math.sqrt(1 / alpha)
            expect = lq.ustat_radius_sq(stat, n, d, c, c)
        else:
            z = lq.pauli_deviation_constant(alpha) if design == "pauli" else 0.0
            expect = lq.rss_radius_sq(stat, n, d, sigma, alpha, z=z, error_model=noise)

        rep = lq.frobenius_ball(method, batch, center, alpha, regime)
        assert rep.statistic_value == pytest.approx(stat, rel=1e-12)
        assert rep.radius_sq == pytest.approx(expect, rel=1e-12)
        assert (rep.method, rep.norm_kind, rep.level_alpha, rep.n, rep.d) == (
            method, "frobenius", alpha, n, d)
        np.testing.assert_array_equal(rep.center, center)

    @pytest.mark.parametrize("method,regime,match", [
        ("NuclearS1", "theory", "unknown Frobenius ball"),
        ("RSS", "calibrated", "unknown constants regime"),
    ])
    def test_rejects_unknown_method_or_regime(self, method, regime, match):
        batch = _ball_batch("RSS", "pauli", "gaussian")
        with pytest.raises(ValueError, match=match):
            lq.frobenius_ball(method, batch, np.eye(4) / 4, 0.05, regime)


class TestUstatStatistic:
    def test_matches_naive_double_sum_pauli(self, rng):
        center = random_hermitian(4, rng)
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 11, 3)
        batch = lq.measure_gaussian(plan, rho, 0.4, rng)
        a, b = lq.ustat_statistic(batch, center), naive_ustat(batch, center)
        assert a == pytest.approx(b, rel=1e-10)

    def test_matches_entrywise_sum_real_design(self, rng):
        center = random_hermitian(3, rng, real=True)
        plan = lq.draw_plan(lq.gaussian_design(3), 8, 5)
        state = random_hermitian(3, rng, real=True, scale=0.5)
        batch = lq.measure_gaussian(plan, state, 0.2, rng)
        a = lq.ustat_statistic(batch, center)
        assert a == pytest.approx(naive_ustat_entrywise(batch, center), rel=1e-10)
        assert a == pytest.approx(naive_ustat(batch, center), rel=1e-10)

    @pytest.mark.parametrize("design", ["real", "hermitian", "pauli"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=20),
           size=st.integers(min_value=1, max_value=3))
    def test_pair_sum_identity_property(self, design, seed, n, size):
        # ||sum a_i||^2 - sum ||a_i||^2 equals the literal double sum over pairs
        g = np.random.default_rng(seed)
        d = 2**size
        if design == "pauli":
            plan = lq.draw_plan(lq.pauli_design(size), n, g)
            mats = d * lq.pauli_basis(size)[plan.indices]
        else:
            plan = lq.draw_plan(lq.gaussian_design(d, hermitian=(design == "hermitian")), n, g)
            mats = plan.matrices
        center = random_hermitian(d, g, real=(design == "real"))
        y = g.standard_normal(n)
        batch = lq.MeasurementBatch(plan, y, lq.GaussianNoise(1.0))
        a = y[:, None, None] * mats - center
        scale = float(np.sum(np.abs(a) ** 2)) / n  # bounds |statistic|
        assert abs(lq.ustat_statistic(batch, center) - naive_ustat(batch, center)) <= (
            1e-12 * scale)

    def test_zero_data_zero_center(self):
        plan = lq.draw_plan(lq.gaussian_design(2), 6, 0)
        batch = lq.MeasurementBatch(plan, np.zeros(6), lq.GaussianNoise(1.0))
        assert lq.ustat_statistic(batch, np.zeros((2, 2))) == 0.0

    def test_needs_two_draws(self):
        plan = lq.draw_plan(lq.gaussian_design(2), 1, 0)
        batch = lq.MeasurementBatch(plan, np.zeros(1), lq.GaussianNoise(1.0))
        with pytest.raises(ValueError, match="n >= 2"):
            lq.ustat_statistic(batch, np.zeros((2, 2)))

    def test_monte_carlo_mean(self):
        rho = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        center = np.eye(4) / 4
        target = lq.frobenius_norm(rho - center) ** 2
        vals = np.empty(600)
        for rep in range(600):
            g = np.random.default_rng((22, rep))
            plan = lq.draw_plan(lq.gaussian_design(4, hermitian=True), 30, g)
            batch = lq.measure_gaussian(plan, rho, 0.5, g)
            vals[rep] = lq.ustat_statistic(batch, center)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se


class TestUstatConfidenceSet:
    def test_no_implicit_term(self):
        stat = 0.3
        assert lq.ustat_radius_sq(stat, 20, 4, 0.0, 2.0) == pytest.approx(
            stat + 2.0 * 4 / 20, rel=1e-12)
        assert lq.ustat_radius_sq(-stat, 20, 4, 0.0, 2.0) == pytest.approx(2.0 * 4 / 20)

    def test_theory_root_is_fixed_point(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(4), 25, 2)
        state = random_hermitian(4, rng, real=True, scale=0.4)
        batch = lq.measure_gaussian(plan, state, 0.3, rng)
        alpha = 0.05
        rep = lq.frobenius_ball("UStat", batch, np.zeros((4, 4)), alpha, "theory")
        x = rep.radius_sq
        c = math.sqrt(1 / alpha)  # Chebyshev level for both constants
        base = max(rep.statistic_value, 0.0) + c * 4 / 25
        assert x == pytest.approx(base + c * math.sqrt(x) / math.sqrt(25), rel=1e-10)

    def test_simulation_mode_matches_calibrated_radius(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(4), 25, 2)
        state = random_hermitian(4, rng, real=True, scale=0.4)
        batch = lq.measure_gaussian(plan, state, 0.3, rng)
        rep = lq.frobenius_ball("UStat", batch, np.zeros((4, 4)), 0.05, "simulation")
        assert rep.radius_sq == pytest.approx(
            _calibrated_radius("ustat", rep.statistic_value, 25, 4) ** 2, rel=1e-12
        )

    def test_rejects_pauli_design(self, rng):
        plan = lq.draw_plan(lq.pauli_design(2), 10, 0)
        batch = lq.measure_gaussian(plan, np.eye(4) / 4, 0.1, rng)
        with pytest.raises(ValueError, match="isotropic"):
            lq.frobenius_ball("UStat", batch, np.zeros((4, 4)), 0.05, "theory")


class TestReavgStatistic:
    def test_noiseless_at_truth(self, rng):
        rho = lq.random_rank_k_state(2, 1, rng)
        plan = lq.full_basis_plan(lq.pauli_design(1), 3)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        assert lq.reavg_statistic(batch, rho, 0.0) == pytest.approx(0.0, abs=1e-12)
        rep = lq.frobenius_ball("ReAvg", batch, rho, 0.05, "theory")
        assert rep.radius_sq == pytest.approx(0.0, abs=1e-12)

    def test_multiplicity_one_equals_direct_expansion(self, rng):
        # m = 1 reduces to a full-basis residual statistic, expanded by hand
        rho = lq.random_rank_k_state(2, 1, rng)
        center = np.eye(2) / 2
        plan = lq.full_basis_plan(lq.pauli_design(1), 1)
        batch = lq.measure_gaussian(plan, rho, 0.3, rng)
        coeffs = lq.pauli_coefficients(center, 1).real
        direct = float(np.sum((batch.y - 2 * coeffs[plan.indices]) ** 2)) / 4 - 0.09 * 4 / 4
        assert lq.reavg_statistic(batch, center, 0.3) == pytest.approx(direct, rel=1e-12)

    def test_monte_carlo_mean(self):
        rho = lq.random_rank_k_state(2, 1, np.random.default_rng(5))
        center = np.eye(2) / 2
        target = lq.frobenius_norm(rho - center) ** 2
        vals = np.empty(600)
        for rep in range(600):
            g = np.random.default_rng((23, rep))
            plan = lq.full_basis_plan(lq.pauli_design(1), 8)
            batch = lq.measure_gaussian(plan, rho, 0.5, g)
            vals[rep] = lq.reavg_statistic(batch, center, 0.5)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se

    def test_rejects_wrong_sample_size(self, rng):
        plan = lq.draw_plan(lq.pauli_design(1), 7, 0)
        batch = lq.measure_gaussian(plan, np.eye(2) / 2, 0.1, rng)
        with pytest.raises(ValueError, match="multiple"):
            lq.reavg_statistic(batch, np.eye(2) / 2, 0.1)

    def test_rejects_unequal_multiplicities(self, rng):
        ens = lq.pauli_design(1)
        plan = lq.SensingPlan(ens, 4, indices=np.array([0, 0, 1, 2]))
        batch = lq.measure_gaussian(plan, np.eye(2) / 2, 0.1, rng)
        with pytest.raises(ValueError, match="equally often"):
            lq.reavg_statistic(batch, np.eye(2) / 2, 0.1)

    def test_radius_solves_quadratic(self):
        stat, n, d, sigma, alpha = 0.7, 64, 2, 0.4, 0.1
        x = lq.reavg_radius_sq(stat, n, d, sigma, alpha)
        from scipy import stats as sstats

        znorm = float(sstats.norm.ppf(1 - alpha / 2))
        xi = lq.chi_square_deviation_quantile(alpha / 2, sigma, d * d)
        assert x == pytest.approx(stat + znorm * sigma * math.sqrt(x) / math.sqrt(n) + xi * d / n,
                                  rel=1e-10)


class TestPairedStatistic:
    def test_noiseless_at_truth(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_paired_plan(lq.pauli_design(2), 20, 0)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        assert lq.paired_rss_statistic(batch, rho) == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        mats = np.array([[[1.0, 0.0], [0.0, 0.0]]] * 2)
        batch = _manual_batch(mats, [1.0, 2.0])
        center = np.diag([1.0, 0.0])
        # residuals (0, 1): (2/2) * 0 * 1 = 0
        assert lq.paired_rss_statistic(batch, center) == 0.0

    def test_rejects_unpaired_designs(self, rng):
        plan = lq.draw_plan(lq.pauli_design(2), 20, 0)
        batch = lq.measure_gaussian(plan, np.eye(4) / 4, 0.1, rng)
        with pytest.raises(ValueError, match="share the same design"):
            lq.paired_rss_statistic(batch, np.eye(4) / 4)

    def test_monte_carlo_mean_without_variance_knowledge(self):
        rho = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        center = np.eye(4) / 4
        target = lq.frobenius_norm(rho - center) ** 2
        vals = np.empty(600)
        for rep in range(600):
            g = np.random.default_rng((24, rep))
            plan = lq.draw_paired_plan(lq.gaussian_design(4, hermitian=True), 40, g)
            batch = lq.measure_gaussian(plan, rho, 0.7, g)
            vals[rep] = lq.paired_rss_statistic(batch, center)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * se


class TestMembership:
    def test_exact_inequality_frobenius(self, rng):
        center = np.eye(4) / 4
        report = lq.ConfidenceReport(center, 0.25, "frobenius", 0.05, "RSS", 0.2, 10, 4)
        inside = center + np.diag([0.2, -0.2, 0.2, -0.2])  # distance 0.4, sq 0.16
        outside = center + np.diag([0.3, -0.3, 0.3, -0.3])  # sq 0.36
        assert report.contains(inside)
        assert not report.contains(outside)
        boundary = center + np.diag([0.25, -0.25, 0.25, -0.25])  # sq 0.25 exactly
        assert report.contains(boundary)

    def test_nuclear_membership(self):
        center = np.eye(2) / 2
        report = lq.ConfidenceReport(center, 0.25, "nuclear", 0.05, "NuclearS1", 0.0, 10, 2)
        shift = np.diag([0.2, -0.2])  # nuclear norm 0.4, squared 0.16
        assert report.contains(center + shift)
        assert not report.contains(center + 2 * shift)

    def test_csv_row(self):
        center = np.eye(2) / 2
        report = lq.ConfidenceReport(center, 0.25, "frobenius", 0.05, "RSS", -0.1, 10, 2)
        row = lq.report_csv_row(report, truth=center)
        fields = row.split(",")
        assert fields[0] == "RSS" and fields[7] == "1" and fields[8] == ""
        assert lq.report_csv_header().split(",")[7] == "covered"
