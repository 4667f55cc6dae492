import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lowrank_uq as lq
from lowrank_uq.matrices import _eigh, _truncation_errors

from conftest import (
    bloch_grid_pure_projection,
    bloch_grid_state_projection,
    hermitian_with_spectrum,
    power_iteration_opnorm,
    random_hermitian,
    spectra,
)


class TestNorms:
    def test_frobenius_identity(self):
        assert lq.frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2))

    def test_frobenius_zero(self):
        for d in (1, 3, 7):
            assert lq.frobenius_norm(np.zeros((d, d))) == 0.0

    def test_frobenius_pythagorean(self):
        assert lq.frobenius_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_nuclear_rank_one_equals_frobenius(self, rng):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = np.outer(u, u.conj())
        assert lq.nuclear_norm(a) == pytest.approx(lq.frobenius_norm(a), rel=1e-12)

    def test_nuclear_identity(self):
        assert lq.nuclear_norm(np.eye(4)) == pytest.approx(4.0)

    def test_nuclear_signed_diagonal(self):
        assert lq.nuclear_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_norm_sandwich_on_low_rank(self, rng):
        # ||A||_F <= ||A||_S1 <= sqrt(rank) ||A||_F
        for d, r in [(3, 1), (4, 2), (6, 3), (8, 8)]:
            cols = lq.haar_orthonormal_columns(d, r, rng)
            lam = rng.standard_normal(r)
            a = lq.hermitize((cols * lam) @ cols.conj().T)
            fro, nuc = lq.frobenius_norm(a), lq.nuclear_norm(a)
            assert fro <= nuc + 1e-10
            assert nuc <= np.sqrt(r) * fro + 1e-10

    def test_operator_norm_identity(self):
        assert lq.operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_operator_norm_signed(self):
        assert lq.operator_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)

    def test_operator_norm_vs_power_iteration(self, rng):
        a = random_hermitian(3, rng)
        assert lq.operator_norm(a) == pytest.approx(power_iteration_opnorm(a), abs=1e-8)


class TestEigh:
    def test_diagonal_sorted_descending(self):
        dec = lq.eigh(np.diag([1.0, 2.0, 3.0]))
        assert_allclose(dec.eigenvalues, [3.0, 2.0, 1.0])

    def test_pauli_x_spectrum(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert_allclose(lq.eigh(sx).eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_reconstruction_residual(self, rng):
        a = random_hermitian(8, rng)
        dec = lq.eigh(a)
        resid = lq.frobenius_norm(dec.reconstruct() - a)
        assert resid <= 1e-9 * lq.frobenius_norm(a)

    def test_reconstruction_residual_many(self, rng):
        # invariant batch: 1000 random matrices up to d = 64
        for _ in range(1000):
            d = int(rng.integers(2, 65))
            a = random_hermitian(d, rng, scale=float(rng.uniform(0.1, 10)))
            dec = lq.eigh(a)
            assert lq.frobenius_norm(dec.reconstruct() - a) <= 1e-9 * lq.frobenius_norm(a)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            lq.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("decompose", [lq.eigh, lq.nuclear_norm, lq.operator_norm])
    def test_infinite_entry_raises(self, decompose):
        # LAPACK does not converge on the inf in the lower triangle; the norms
        # used to raise numpy's bare LinAlgError
        a = np.eye(4, dtype=complex)
        a[3, 0] = a[0, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(lq.EigendecompositionError,
                                                          match="did not converge"):
            decompose(a)


class TestEigensolverEntryPoint:
    """``_eigh`` is numpy's eigensolver without its wrapper: the same LAPACK
    routine on the same triangle, so the same bits."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32])
    def test_bitwise_equal_to_numpy(self, d, real):
        rng = np.random.default_rng((d, real))
        for _ in range(20):
            a = random_hermitian(d, rng, real=real, scale=float(rng.uniform(0.1, 10)))
            lam, vec = _eigh(a)
            ref_lam, ref_vec = np.linalg.eigh(a)
            assert np.array_equal(lam, ref_lam) and np.array_equal(vec, ref_vec)
            assert np.array_equal(_eigh(a, vectors=False), np.linalg.eigvalsh(a))


class TestBestRankK:
    def test_rank_one_input_unchanged(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = np.outer(u, u.conj())
        assert_allclose(lq.best_rank_k(a, 1), a, atol=1e-10)

    def test_diagonal_truncation(self):
        assert_allclose(
            lq.best_rank_k(np.diag([3.0, 2.0, 1.0]), 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12
        )

    def test_truncation_error_is_spectral_tail(self, rng):
        a = random_hermitian(4, rng)
        lam = np.sort(np.abs(np.linalg.eigvalsh(a)))  # ascending magnitudes
        err = lq.frobenius_norm(a - lq.best_rank_k(a, 2))
        assert err == pytest.approx(np.sqrt(lam[0] ** 2 + lam[1] ** 2), rel=1e-10)

    def test_error_nonincreasing_in_k(self, rng):
        a = random_hermitian(6, rng)
        errs = [lq.frobenius_norm(a - lq.best_rank_k(a, k)) for k in range(1, 7)]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_keeps_largest_magnitude(self):
        a = np.diag([1.0, -3.0, 0.5])
        assert_allclose(lq.best_rank_k(a, 1), np.diag([0.0, -3.0, 0.0]), atol=1e-12)

    def test_beats_randomized_rank_k_search(self, rng):
        # the truncation is the exact Frobenius minimizer over rank <= k
        for d in (3, 4):
            a = random_hermitian(d, rng)
            for k in (1, 2):
                best = lq.frobenius_norm(a - lq.best_rank_k(a, k))
                for _ in range(200):
                    cols = lq.haar_orthonormal_columns(d, k, rng)
                    # optimal coefficients for a fixed eigenbasis guess
                    lam = np.real(np.einsum("ij,jk,ki->i", cols.conj().T, a, cols))
                    cand = (cols * lam) @ cols.conj().T
                    assert lq.frobenius_norm(a - cand) >= best - 1e-10


class TestTruncationErrors:
    @staticmethod
    def _assert_matches_best_rank_k(a):
        errors = _truncation_errors(a)
        d = a.shape[0]
        assert errors.shape == (d,)
        tol = 1e-12 * max(1.0, lq.frobenius_norm(a))
        for k in range(1, d + 1):
            assert abs(errors[k - 1] - lq.frobenius_norm(a - lq.best_rank_k(a, k))) <= tol
        assert errors[-1] == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spectrum=spectra, seed=st.integers(min_value=0, max_value=2**32 - 1),
           real=st.booleans())
    def test_matches_best_rank_k_on_given_spectrum(self, spectrum, seed, real):
        rng = np.random.default_rng(seed)
        self._assert_matches_best_rank_k(hermitian_with_spectrum(spectrum, rng, real=real))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           d=st.integers(min_value=1, max_value=16),
           scale=st.floats(min_value=1e-3, max_value=1e3),
           real=st.booleans())
    def test_matches_best_rank_k_on_random_hermitian(self, seed, d, scale, real):
        rng = np.random.default_rng(seed)
        self._assert_matches_best_rank_k(random_hermitian(d, rng, real=real, scale=scale))

    def test_zero_matrix(self):
        assert np.array_equal(_truncation_errors(np.zeros((3, 3))), np.zeros(3))


class TestStateSpaceProjection:
    def test_state_unchanged(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        assert lq.frobenius_norm(lq.project_state_space(rho) - rho) <= 1e-10

    def test_two_dim_hand_case(self):
        assert_allclose(lq.project_state_space(np.diag([2.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_goes_to_maximally_mixed(self):
        assert_allclose(lq.project_state_space(np.zeros((3, 3))), np.eye(3) / 3, atol=1e-12)

    def test_matches_bloch_grid_oracle(self, rng):
        for _ in range(10):
            a = random_hermitian(2, rng)
            proj = lq.project_state_space(a)
            oracle = bloch_grid_state_projection(a)
            assert lq.frobenius_norm(proj - oracle) <= 1e-4

    def test_idempotent(self, rng):
        a = random_hermitian(2, rng, scale=2.0)
        once = lq.project_state_space(a)
        assert lq.frobenius_norm(lq.project_state_space(once) - once) <= 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           d=st.integers(min_value=1, max_value=16),
           scale=st.floats(min_value=1e-3, max_value=1e3),
           real=st.booleans())
    def test_idempotent_property(self, seed, d, scale, real):
        a = random_hermitian(d, np.random.default_rng(seed), real=real, scale=scale)
        once = lq.check_quantum_state(lq.project_state_space(a))
        assert lq.frobenius_norm(lq.project_state_space(once) - once) <= 1e-12

    def test_nonexpansive_toward_states(self, rng):
        for d in (2, 4):
            a = random_hermitian(d, rng, scale=1.5)
            proj = lq.project_state_space(a)
            for _ in range(5):
                s = lq.random_rank_k_state(d, int(rng.integers(1, d + 1)), rng)
                assert lq.frobenius_norm(proj - s) <= lq.frobenius_norm(a - s) + 1e-10

    def test_error_degradation_factor_below_three(self, rng):
        # projecting an estimate onto the state space at most triples the error
        for _ in range(20):
            d = int(rng.integers(2, 9))
            truth = lq.random_rank_k_state(d, 1, rng)
            noisy = truth + random_hermitian(d, rng, scale=float(rng.uniform(0.01, 0.5)))
            before = lq.frobenius_norm(noisy - truth)
            after = lq.frobenius_norm(lq.project_state_space(noisy) - truth)
            assert after <= 3.0 * before + 1e-12


class TestRankConstrainedProjection:
    def test_pure_state_unchanged(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        assert lq.frobenius_norm(lq.project_rank_k_state_space(rho, 1) - rho) <= 1e-9

    def test_maximally_mixed_full_rank_unchanged(self):
        rho = np.eye(4) / 4
        assert_allclose(lq.project_rank_k_state_space(rho, 4), rho, atol=1e-12)

    def test_matches_pure_state_grid_oracle(self, rng):
        for _ in range(8):
            a = random_hermitian(2, rng)
            proj = lq.project_rank_k_state_space(a, 1)
            oracle = bloch_grid_pure_projection(a)
            assert lq.frobenius_norm(proj - oracle) <= 1e-3

    def test_result_in_rank_k_state_space(self, rng):
        a = random_hermitian(5, rng)
        out = lq.project_rank_k_state_space(a, 2)
        lam = np.linalg.eigvalsh(out)
        assert np.sum(lam > 1e-10) <= 2
        lq.check_quantum_state(out)


class TestRandomStates:
    def test_rank_one_is_pure(self, rng):
        rho = lq.random_rank_k_state(5, 1, rng)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_rank_two_has_two_eigenvalues(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        lam = np.linalg.eigvalsh(rho)
        assert np.sum(lam > 1e-8) == 2

    def test_valid_state(self, rng):
        lq.check_quantum_state(lq.random_rank_k_state(8, 3, rng))
