import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lowrank_uq as lq

from conftest import hermitian_with_spectrum, loop_select_k_hat, spectra


def _cfg(rate, C=2.0, c_v=1.0):
    return lq.NuclearSetConfig(C=C, c_v=c_v, rate=rate, delta=0.1)


class TestEigenvalueEstimator:
    def test_full_basis_noiseless_recovers_spectrum(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        plan = lq.full_basis_plan(lq.pauli_design(2), 1)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=batch.n)
        est = lq.eigenvalue_estimator(batch, np.zeros((4, 4)), _cfg(rate))
        truth = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert_allclose(est.lambdas, truth, atol=1e-10)

    def test_zero_residuals_return_center(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 32, 0)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=32)
        est = lq.eigenvalue_estimator(batch, rho, _cfg(rate))
        truth = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert_allclose(est.lambdas, truth, atol=1e-10)

    def test_spectrum_is_nonnegative_and_sorted(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 64, 1)
        batch = lq.measure_gaussian(plan, rho, 0.3, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.3, dim=4, n=64)
        est = lq.eigenvalue_estimator(batch, np.zeros((4, 4)), _cfg(rate))
        assert est.lambdas.min() >= -1e-12
        assert np.all(np.diff(est.lambdas) <= 1e-12)

    def test_deviation_scale_formula(self, rng):
        rate = lq.RateFunction(D=2.0, sigma=0.1, dim=4, n=64)
        plan = lq.draw_plan(lq.pauli_design(2), 64, 1)
        batch = lq.measure_gaussian(plan, lq.random_rank_k_state(4, 1, rng), 0.1, rng)
        est = lq.eigenvalue_estimator(batch, np.zeros((4, 4)), _cfg(rate, c_v=1.7))
        expect = 1.7 * (rate(4) * lq.rip_rate(4, 4, 64) + math.sqrt(4 / 64))
        assert est.deviation_scale == pytest.approx(expect, rel=1e-12)

    def test_sample_splitting_checked(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 16, 0)
        batch = lq.measure_gaussian(plan, rho, 0.1, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=16)
        with pytest.raises(ValueError, match="independent"):
            lq.eigenvalue_estimator(batch, rho, _cfg(rate), pilot_batch=batch)


class TestSelectKHat:
    def test_pure_state_selects_one(self, rng):
        pilot = lq.random_rank_k_state(4, 1, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=100)
        est = lq.EigenvalueEstimate(np.array([1.0, 0.0, 0.0, 0.0]), 0.01)
        assert lq.select_k_hat(pilot, est, rate) == 1

    def test_maximally_mixed_forces_full_rank(self):
        d, n = 4, 10**8
        pilot = np.eye(d) / d
        rate = lq.RateFunction(D=1.0, sigma=1e-9, dim=d, n=n)
        est = lq.EigenvalueEstimate(np.full(d, 1 / d), 1e-9)
        # 1 - k/d > 2 k sqrt(d/n) for every k < d at this sample size
        assert lq.select_k_hat(pilot, est, rate) == d

    def test_huge_radius_with_concentrated_spectrum(self, rng):
        pilot = lq.hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rate = lq.RateFunction(D=1e6, sigma=10.0, dim=4, n=4)  # rate(1) >> ||pilot||
        assert rate(1) >= lq.frobenius_norm(pilot)
        est = lq.EigenvalueEstimate(np.array([1.0, 0.0, 0.0, 0.0]), 0.01)
        assert lq.select_k_hat(pilot, est, rate) == 1


    def test_dimension_mismatch_rejected(self, rng):
        pilot = lq.random_rank_k_state(4, 1, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=8, n=100)
        est = lq.EigenvalueEstimate(np.full(8, 1 / 8), 0.01)
        with pytest.raises(ValueError, match="4x4"):
            lq.select_k_hat(pilot, est, rate)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spectrum=spectra, seed=st.integers(min_value=0, max_value=2**32 - 1),
           real=st.booleans(),
           sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
           D=st.floats(min_value=0.01, max_value=10.0),
           n=st.integers(min_value=1, max_value=10**5))
    def test_matches_loop_over_best_rank_k(self, spectrum, seed, real, sigma, D, n):
        pilot = hermitian_with_spectrum(spectrum, np.random.default_rng(seed), real=real)
        d = pilot.shape[0]
        rate = lq.RateFunction(D=D, sigma=sigma, dim=d, n=n)
        mass = np.sort(np.maximum(spectrum, 0.0))[::-1]
        est = lq.EigenvalueEstimate(mass / max(1.0, mass.sum()), 0.0)
        assert lq.select_k_hat(pilot, est, rate) == loop_select_k_hat(pilot, est, rate)

    @pytest.mark.parametrize("d, r", [(1, 1), (4, 1), (6, 2), (8, 3), (16, 5)])
    def test_exactly_low_rank_at_zero_rate(self, rng, d, r):
        pilot = lq.random_rank_k_state(d, r, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.0, dim=d, n=10**6)
        est = lq.EigenvalueEstimate(np.sort(np.linalg.eigvalsh(pilot))[::-1], 0.0)
        assert lq.select_k_hat(pilot, est, rate) == loop_select_k_hat(pilot, est, rate) == r


class TestNuclearConfidenceSet:
    def test_exact_pure_pilot_zero_radius(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.0, dim=4, n=100)
        est = lq.EigenvalueEstimate(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        report = lq.nuclear_confidence_set(rho, est, _cfg(rate))
        assert report.k_hat == 1
        assert report.radius_sq == 0.0
        assert lq.frobenius_norm(report.center - rho) <= 1e-9
        assert report.norm_kind == "nuclear"

    def test_center_in_rank_constrained_state_space(self, rng):
        pilot = lq.random_rank_k_state(6, 2, rng) + 0.005 * lq.hermitize(
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        )
        # n small enough that the asymptotic-regime warning fires
        rate = lq.RateFunction(D=4.0, sigma=0.05, dim=6, n=100)
        est = lq.EigenvalueEstimate(np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0]), 0.05)
        with pytest.warns(RuntimeWarning, match="asymptotic"):
            report = lq.nuclear_confidence_set(pilot, est, _cfg(rate))
        lq.check_quantum_state(report.center)
        assert report.k_hat == 2
        lam = np.linalg.eigvalsh(report.center)
        assert np.sum(lam > 1e-10) <= 2 * report.k_hat

    def test_radius_formula(self, rng):
        pilot = lq.random_rank_k_state(4, 2, rng)
        rate = lq.RateFunction(D=2.0, sigma=0.1, dim=4, n=4096)
        est = lq.EigenvalueEstimate(np.array([0.6, 0.4, 0.0, 0.0]), 0.02)
        cfg = _cfg(rate, C=3.0)
        report = lq.nuclear_confidence_set(pilot, est, cfg)
        k = report.k_hat
        assert math.sqrt(report.radius_sq) == pytest.approx(3.0 * math.sqrt(k) * rate(k), rel=1e-12)
        assert report.method == "NuclearS1"

    def test_radius_monotone_in_k_hat(self):
        rate = lq.RateFunction(D=2.0, sigma=0.1, dim=8, n=4096)
        radii = [math.sqrt(k) * rate(k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))
