import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lowrank_uq as lq
from lowrank_uq.experiments import _orthogonal_pair_sum, _replication_seed, replication_statistic


def _materialized_ustat(error_kind, r_sq, d, n, gen):
    """Oracle: one Gaussian-design replication with its plan drawn in full."""
    eta = lq.make_error_matrix(error_kind, r_sq, d, gen)
    plan = lq.draw_plan(lq.gaussian_design(d, hermitian=error_kind == "pauli"), n, gen)
    batch = lq.measure_gaussian(plan, eta, 1.0, gen)
    return lq.ustat_statistic(batch, np.zeros((d, d), dtype=complex))


class TestErrorMatrix:
    def test_dirac_two_dim(self, rng):
        seen = set()
        for _ in range(40):
            eta = lq.make_error_matrix("dirac", 1.0, 2, rng)
            assert eta.shape == (2, 2)
            pos = int(np.argmax(np.abs(np.diag(eta))))
            seen.add(pos)
            expected = np.zeros((2, 2))
            expected[pos, pos] = 1.0
            assert np.allclose(eta, expected)
        assert seen == {0, 1}

    def test_pauli_norm_exact(self, rng):
        for norm_sq in (0.1, 1.0):
            eta = lq.make_error_matrix("pauli", norm_sq, 8, rng)
            assert lq.frobenius_norm(eta) ** 2 == pytest.approx(norm_sq, abs=1e-12)

    def test_pauli_nuclear_norm(self, rng):
        # normalized Pauli words have nuclear norm sqrt(d): the
        # constraint-violating error direction
        eta = lq.make_error_matrix("pauli", 0.1, 8, rng)
        assert lq.nuclear_norm(eta) == pytest.approx(math.sqrt(0.1) * math.sqrt(8), rel=1e-9)

    def test_dirac_norm(self, rng):
        eta = lq.make_error_matrix("dirac", 0.1, 8, rng)
        assert lq.frobenius_norm(eta) ** 2 == pytest.approx(0.1, abs=1e-14)


class TestReplicationStatistics:
    def test_pauli_path_matches_library(self):
        # the harness evaluates the same statistic as reconstructing the
        # replication from its derived seed by hand
        spec = lq.ExperimentSpec(design="pauli", error_kind="dirac", error_norm_sq=1.0,
                                 n_grid=(50,), reps=4, d=4, seed=3)
        for method in ("UStat", "RSS"):
            for rep in range(4):
                got = replication_statistic(spec, method, 50, rep)
                gen = np.random.default_rng(_replication_seed(spec, method, 50, rep))
                eta = lq.make_error_matrix("dirac", 1.0, 4, gen)
                plan = lq.draw_plan(lq.pauli_design(2), 50, gen)
                batch = lq.measure_gaussian(plan, eta, 1.0, gen)
                center = np.zeros((4, 4), dtype=complex)
                want = (
                    lq.ustat_statistic(batch, center)
                    if method == "UStat"
                    else lq.rss_statistic(batch, center, 1.0)
                )
                assert got == want

    @pytest.mark.parametrize("error_kind,d,n,r_sq,reps", [
        ("dirac", 1, 5, 0.5, 3000),  # D = 1: no orthogonal part
        # d = 2, n = 4 is where a wrong chi^2 degree of freedom shows most
        ("dirac", 2, 4, 0.1, 20000),
        ("pauli", 2, 4, 0.1, 20000),
        ("dirac", 4, 30, 1.0, 3000),
        ("pauli", 4, 20, 0.5, 3000),
        ("dirac", 8, 2, 2.0, 2000),
        ("pauli", 8, 60, 0.2, 2000),
    ])
    def test_gaussian_ustat_matches_materialized_distribution(self, error_kind, d, n, r_sq,
                                                              reps):
        # the O(n) isotropic sampler against the materialized design path
        # (two-sample Kolmogorov-Smirnov), real and Hermitian designs
        spec = lq.ExperimentSpec(design="gaussian", error_kind=error_kind, error_norm_sq=r_sq,
                                 n_grid=(n,), reps=reps, d=d, seed=9)
        fast = [replication_statistic(spec, "UStat", n, rep) for rep in range(reps)]
        gen = np.random.default_rng((555, d, n))
        slow = [_materialized_ustat(error_kind, r_sq, d, n, gen) for _ in range(reps)]
        assert stats.ks_2samp(fast, slow).pvalue > 1e-3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=12),
           dim=st.integers(min_value=1, max_value=6),
           leading_zeros=st.integers(min_value=0, max_value=3))
    def test_orthogonal_chain_identity_property(self, seed, n, dim, leading_zeros):
        # fed the component h_m of z_m along S_{m-1} and the squared norm c_m
        # of the rest, the chain reproduces ||sum y z||^2 - sum y^2 ||z||^2
        # for explicit z's; leading zero y's keep S = 0 for several steps
        g = np.random.default_rng(seed)
        y = g.standard_normal(n)
        y[:leading_zeros] = 0.0
        z = g.standard_normal((n, dim))
        h, c = np.empty(n), np.empty(n)
        partial = np.zeros(dim)
        for m in range(n):
            norm = np.linalg.norm(partial)
            h[m] = z[m, 0] if norm == 0 else partial @ z[m] / norm
            c[m] = max(z[m] @ z[m] - h[m] ** 2, 0.0)
            partial += y[m] * z[m]
        total = float(partial @ partial)
        diag = float(np.sum(y**2 * np.sum(z**2, axis=1)))
        # relative to the size of the two terms whose difference it is
        assert abs(_orthogonal_pair_sum(y, h, c) - (total - diag)) <= 1e-10 * (total + diag)

    def test_gaussian_rss_shortcut_distribution(self):
        # the direct observation sampler agrees in distribution with the
        # materialized design path (first two moments, standard errors)
        reps, n, r_sq = 500, 40, 0.5
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=r_sq,
                                 n_grid=(n,), reps=reps, d=4, seed=21)
        fast = np.array([replication_statistic(spec, "RSS", n, rep) for rep in range(reps)])
        slow = np.empty(reps)
        for rep in range(reps):
            g = np.random.default_rng((555, rep))
            eta = lq.make_error_matrix("dirac", r_sq, 4, g)
            plan = lq.draw_plan(lq.gaussian_design(4), n, g)
            batch = lq.measure_gaussian(plan, eta, 1.0, g)
            slow[rep] = lq.rss_statistic(batch, np.zeros((4, 4)), 1.0)
        se = math.sqrt(fast.var() / reps + slow.var() / reps)
        assert abs(fast.mean() - slow.mean()) <= 4 * se
        assert fast.mean() == pytest.approx(r_sq, abs=4 * fast.std() / math.sqrt(reps))


class TestRunExperiment:
    def test_rows_complete_and_deterministic(self):
        spec = lq.ExperimentSpec(design="pauli", error_kind="pauli", error_norm_sq=0.1,
                                 n_grid=(20, 40), reps=50, d=4, seed=5)
        rows = lq.run_experiment(spec)
        assert [(r.method, r.n) for r in rows] == [
            ("UStat", 20), ("UStat", 40), ("RSS", 20), ("RSS", 40)
        ]
        assert all(0.0 <= r.coverage <= 1.0 for r in rows)
        assert rows == lq.run_experiment(spec)

    def test_parallel_matches_serial(self):
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=1.0,
                                 n_grid=(25,), reps=40, d=4, seed=6)
        assert lq.run_experiment(spec, workers=1) == lq.run_experiment(spec, workers=2)

    def test_csv_layout(self):
        spec = lq.ExperimentSpec(design="pauli", error_kind="dirac", error_norm_sq=0.1,
                                 n_grid=(20,), reps=30, d=4, seed=5)
        rows = lq.run_experiment(spec)
        text = lq.result_rows_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("method,n,error_norm_sq,coverage")
        assert len(lines) == 1 + len(rows)
        merged = lq.merged_table_rows(spec, rows)
        labels = [m[3] for m in merged]
        assert labels == ["coverage_ustat", "mean_diameter_ustat", "coverage_rss",
                          "mean_diameter_rss"]

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            lq.ExperimentSpec(design="pauli", error_kind="dirac", error_norm_sq=0.1,
                              n_grid=(40, 20), reps=10, d=4, seed=1)
        with pytest.raises(ValueError):
            lq.ExperimentSpec(design="foo", error_kind="dirac", error_norm_sq=0.1,
                              n_grid=(20,), reps=10, d=4, seed=1)

    @pytest.mark.parametrize("n_grid", [(1, 20), (0,), (5, 5), ()])
    def test_n_grid_must_increase_strictly_from_two(self, n_grid):
        # n = 1 used to fail mid-run inside the pair statistic, n = 0 inside
        # draw_plan, and (5, 5) returned duplicated cells
        with pytest.raises(ValueError, match="n_grid"):
            lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=0.1,
                              n_grid=n_grid, reps=10, d=4, seed=1)

    @pytest.mark.parametrize("design,error_kind", [("pauli", "dirac"), ("gaussian", "pauli")])
    def test_pauli_dimension_must_be_power_of_two(self, design, error_kind):
        # d = 12 used to build a d = 8 design and fail later on a shape mismatch
        with pytest.raises(ValueError, match="power of 2"):
            lq.ExperimentSpec(design=design, error_kind=error_kind, error_norm_sq=0.1,
                              n_grid=(20,), reps=10, d=12, seed=1)


class TestIsotropyOfGaussianDesign:
    @pytest.mark.slow
    def test_pauli_error_coverage_matches_benchmark(self):
        # isotropic design is insensitive to the error direction: the pair
        # statistic covers a Pauli-word error at the same rate as a one-entry
        # error (benchmark reports 0.98 at this cell)
        spec = lq.ExperimentSpec(design="gaussian", error_kind="pauli", error_norm_sq=1.0,
                                 n_grid=(5000,), reps=400, d=32, seed=11)
        rows = {(r.method, r.n): r for r in lq.run_experiment(spec)}
        cov = rows[("UStat", 5000)].coverage
        assert abs(cov - 0.98) <= 0.03


class TestCalibration:
    def test_ustat_constant_in_expected_window(self):
        # reproducing the benchmark's own choice: the calibrated pair-statistic
        # constant at the 95% level lands in [1.5, 4]
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=0.1,
                                 n_grid=(100,), reps=400, d=32, seed=77)
        grid = np.arange(0.5, 6.01, 0.25)
        c = lq.calibrate_ball_constant(spec, "UStat", (100,), 0.95, grid)
        assert 1.5 <= c <= 4.0

    def test_unreachable_target_raises_diagnostic(self):
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=1.0,
                                 n_grid=(100,), reps=200, d=32, seed=77)
        with pytest.raises(lq.CalibrationError, match="best achieved"):
            lq.calibrate_ball_constant(spec, "UStat", (100,), 1.0, [2.5])

    def test_deterministic(self):
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac", error_norm_sq=0.1,
                                 n_grid=(100,), reps=150, d=16, seed=4)
        grid = np.arange(0.5, 6.01, 0.5)
        a = lq.calibrate_ball_constant(spec, "RSS", (100,), 0.9, grid)
        b = lq.calibrate_ball_constant(spec, "RSS", (100,), 0.9, grid)
        assert a == b

    def test_pilot_risk_quantile(self):
        fix = lq.PilotFixture(ensemble=lq.pauli_design(2), sigma=0.1, n=256, rank=1, reps=30)
        d_const = lq.calibrate_pilot_risk(fix, 0.1, 42)
        assert d_const > 0

    def test_constants_file_roundtrip(self, tmp_path):
        path = tmp_path / "constants.txt"
        values = {"rss_c": 1.0, "ustat_c": 2.5, "pilot_D": 4.25}
        lq.save_constants(path, values, header="test")
        assert lq.load_constants(path) == values
