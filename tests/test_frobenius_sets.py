import math

import numpy as np
import pytest

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
        for mode in ("shape_constrained", "implicit_solve"):
            rep = lq.rss_confidence_set(batch, center, 0.0, 0.05, mode=mode, z=0.0)
            assert rep.radius_sq == pytest.approx(2 * rep.statistic_value, rel=1e-12)
            assert rep.statistic_value > 0

    def test_modes_agree_when_max_at_dimension_term(self):
        # negative statistic pushes the implicit solution into the regime where
        # the deviation term is independent of the candidate distance
        n, d, sigma, alpha, z = 100, 2, 0.5, 0.3, 1000.0
        stat = -15.0
        shape = lq.rss_radius_sq(stat, n, d, sigma, alpha, mode="shape_constrained", z=z)
        implicit = lq.rss_radius_sq(stat, n, d, sigma, alpha, mode="implicit_solve", z=z)
        assert 4 * z * d / n >= 12.0  # the shape-constrained max is at 4zd/n too
        assert shape == pytest.approx(implicit, rel=1e-12)

    def test_implicit_solution_is_fixed_point(self, rng):
        for _ in range(50):
            stat = float(rng.uniform(-0.5, 3.0))
            n = int(rng.integers(10, 500))
            d = int(rng.integers(2, 33))
            sigma = float(rng.uniform(0.05, 1.5))
            alpha = float(rng.uniform(0.01, 0.5))
            z = float(rng.choice([0.0, 1.0, 30.0]))
            x = lq.rss_radius_sq(stat, n, d, sigma, alpha, mode="implicit_solve", z=z)
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
        stat, n, d, alpha = 0.2, 64, 4, 0.1
        sigma_bound = math.sqrt(d / 256)
        x = lq.rss_radius_sq(stat, n, d, sigma_bound, alpha, mode="shape_constrained",
                             z=5.0, error_model="bernoulli")
        xi = math.sqrt(3 / alpha)
        zbar = sigma_bound * math.sqrt(math.sqrt(3 / alpha) * max(12.0, 4 * 5.0 * d / n))
        expect = 2 * (stat + 5.0 * d / n + (xi + zbar) / math.sqrt(n))
        assert x == pytest.approx(expect, rel=1e-12)

    def test_radius_clamped_at_zero(self):
        x = lq.rss_radius_sq(-50.0, 100, 2, 0.1, 0.05, mode="implicit_solve", z=0.0)
        assert x == 0.0


class TestCalibratedRadii:
    def test_rss_value_at_zero_statistic(self):
        assert lq.rss_calibrated_radius(0.0, 100) == pytest.approx(math.sqrt(0.1))

    def test_negative_statistic_clamped(self):
        assert lq.rss_calibrated_radius(-2.0, 100) == lq.rss_calibrated_radius(0.0, 100)

    def test_monotone_in_statistic_and_sample_size(self):
        stats = np.linspace(-1, 4, 40)
        for radius in (
            lambda s, n: lq.rss_calibrated_radius(s, n),
            lambda s, n: lq.ustat_calibrated_radius(s, n, 32),
            lambda s, n: lq.rss_radius_sq(s, n, 8, 0.4, 0.05, mode="implicit_solve", z=3.0),
            lambda s, n: lq.rss_radius_sq(s, n, 8, 0.4, 0.05, mode="shape_constrained", z=3.0),
            lambda s, n: lq.reavg_radius_sq(s, n, 8, 0.4, 0.05),
        ):
            vals = [radius(s, 200) for s in stats]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert radius(1.0, 100) >= radius(1.0, 400) - 1e-12


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
    def test_no_implicit_term(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(4), 20, 1)
        state = random_hermitian(4, rng, real=True, scale=0.4)
        batch = lq.measure_gaussian(plan, state, 0.3, rng)
        rep = lq.ustat_confidence_set(batch, np.zeros((4, 4)), 0.05,
                                      constants={"c1": 0.0, "c2": 2.0}, mode="theory")
        expect = max(rep.statistic_value, 0.0) + 2.0 * 4 / 20
        assert rep.radius_sq == pytest.approx(expect, rel=1e-12)

    def test_theory_root_is_fixed_point(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(4), 25, 2)
        state = random_hermitian(4, rng, real=True, scale=0.4)
        batch = lq.measure_gaussian(plan, state, 0.3, rng)
        c1, c2 = 1.7, 2.3
        rep = lq.ustat_confidence_set(batch, np.zeros((4, 4)), 0.05,
                                      constants={"c1": c1, "c2": c2}, mode="theory")
        x = rep.radius_sq
        base = max(rep.statistic_value, 0.0) + c2 * 4 / 25
        assert x == pytest.approx(base + c1 * math.sqrt(x) / math.sqrt(25), rel=1e-10)

    def test_simulation_mode_matches_calibrated_radius(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(4), 25, 2)
        state = random_hermitian(4, rng, real=True, scale=0.4)
        batch = lq.measure_gaussian(plan, state, 0.3, rng)
        rep = lq.ustat_confidence_set(batch, np.zeros((4, 4)), 0.05, mode="simulation")
        assert rep.radius_sq == pytest.approx(
            lq.ustat_calibrated_radius(rep.statistic_value, 25, 4) ** 2, rel=1e-12
        )

    def test_rejects_pauli_design(self, rng):
        plan = lq.draw_plan(lq.pauli_design(2), 10, 0)
        batch = lq.measure_gaussian(plan, np.eye(4) / 4, 0.1, rng)
        with pytest.raises(ValueError, match="isotropic"):
            lq.ustat_confidence_set(batch, np.zeros((4, 4)), 0.05)


class TestReavgStatistic:
    def test_noiseless_at_truth(self, rng):
        rho = lq.random_rank_k_state(2, 1, rng)
        plan = lq.full_basis_plan(lq.pauli_design(1), 3)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        assert lq.reavg_statistic(batch, rho, 0.0) == pytest.approx(0.0, abs=1e-12)
        rep = lq.reavg_confidence_set(batch, rho, 0.0, 0.05)
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
