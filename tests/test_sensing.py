import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lowrank_uq as lq

from conftest import random_hermitian


class TestPauliBasis:
    def test_single_qubit_z(self):
        el = lq.pauli_basis_element(1, (3,))
        assert_allclose(el, np.diag([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    def test_single_qubit_identity_word(self):
        el = lq.pauli_basis_element(1, (0,))
        assert_allclose(el, np.eye(2) / np.sqrt(2), atol=1e-15)
        # operator norm hits the coherence bound K / sqrt(d) with K = 1
        assert lq.operator_norm(el) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_two_qubit_orthonormality(self):
        flat = lq.pauli_basis(2).reshape(16, -1)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12

    def test_three_qubit_gram_identity(self):
        flat = lq.pauli_basis(3).reshape(64, -1)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(64))) <= 1e-12

    def test_unit_frobenius_norm(self):
        for word in [(1, 2), (3, 0), (2, 2)]:
            assert lq.frobenius_norm(lq.pauli_basis_element(2, word)) == pytest.approx(1.0)

    def test_rejects_bad_symbol(self):
        with pytest.raises(ValueError, match="invalid Pauli symbol"):
            lq.pauli_basis_element(2, (0, 4))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            lq.pauli_basis_element(2, (0,))

    def test_coherence_bound_all_elements(self):
        ens = lq.pauli_design(3)
        basis = lq.pauli_basis(3)
        bound = ens.coherence / np.sqrt(ens.dim)
        for el in basis:
            assert lq.operator_norm(el) <= bound + 1e-12

    def test_coherence_follows_kind(self):
        assert lq.pauli_design(2).coherence == 1.0
        assert np.isnan(lq.gaussian_design(4).coherence)
        assert lq.gaussian_design(4) == lq.gaussian_design(4)

    def test_word_index_roundtrip(self):
        for idx in (0, 1, 5, 63):
            assert lq.word_to_index(lq.index_to_word(idx, 3)) == idx


# Property tests of the Pauli transform (forward: pauli_coefficients and
# apply_sampling; adjoint: adjoint_average) at each of 1-8 qubits.
# Derandomized, so a run of the suite is reproducible; the seed feeds numpy.
_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)
_QUBITS = pytest.mark.parametrize("nq", range(1, 9))
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _rel(x, ref):
    return float(np.max(np.abs(np.asarray(x) - ref))) / max(float(np.linalg.norm(ref)), 1e-300)


class TestPauliTransformProperties:
    @_QUBITS
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=300))
    def test_adjointness(self, nq, seed, n):
        g = np.random.default_rng(seed)
        a = random_hermitian(2**nq, g)
        plan = lq.draw_plan(lq.pauli_design(nq), n, g)
        y = g.standard_normal(n)
        vals = lq.apply_sampling(plan, a)
        lhs = float(np.dot(y, vals))
        rhs = n * float(np.real(np.vdot(lq.adjoint_average(plan, y), a)))
        scale = float(np.linalg.norm(y) * np.linalg.norm(vals))
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    @_QUBITS
    @_PROPERTY
    @given(seed=_SEEDS)
    def test_parseval_and_real_coefficients(self, nq, seed):
        a = random_hermitian(2**nq, np.random.default_rng(seed))
        coeffs = lq.pauli_coefficients(a, nq)
        fsq = lq.frobenius_norm(a) ** 2
        assert abs(float(np.sum(np.abs(coeffs) ** 2)) - fsq) <= 1e-12 * fsq
        assert float(np.max(np.abs(coeffs.imag))) <= 1e-12 * np.sqrt(fsq)

    @_QUBITS
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=12))
    def test_matches_dense_and_per_word_oracles(self, nq, seed, n):
        # forward and adjoint against the dense basis up to 5 qubits, and
        # against single materialized words on the plan's indices above that
        g = np.random.default_rng(seed)
        d = 2**nq
        a = random_hermitian(d, g)
        plan = lq.draw_plan(lq.pauli_design(nq), n, g)
        y = g.standard_normal(n)
        if nq <= 5:
            flat = lq.pauli_basis(nq).reshape(4**nq, -1)
            assert _rel(lq.pauli_coefficients(a, nq), flat.conj() @ a.ravel()) <= 1e-12
            words = flat[plan.indices].reshape(n, d, d)
        else:
            words = np.array([lq.pauli_basis_element(nq, lq.index_to_word(int(j), nq))
                              for j in plan.indices])
        direct = np.array([np.vdot(w, a) for w in words])
        assert _rel(lq.pauli_coefficients(a, nq, plan.indices), direct) <= 1e-12
        expected = lq.hermitize(d * np.tensordot(y, words, axes=1) / n)
        assert _rel(lq.adjoint_average(plan, y), expected) <= 1e-12

    @pytest.mark.parametrize("nq", [0, 9])
    def test_rejects_qubit_count_out_of_range(self, nq):
        with pytest.raises(ValueError, match="number of qubits"):
            lq.pauli_coefficients(np.eye(2**nq), nq)


class TestDrawPlan:
    def test_gaussian_entry_mean(self):
        plan = lq.draw_plan(lq.gaussian_design(2), 10**4, 7)
        entries = plan.matrices.ravel()
        assert abs(entries.mean()) <= 4 / np.sqrt(entries.size)

    def test_pauli_index_frequencies(self):
        plan = lq.draw_plan(lq.pauli_design(1), 4 * 10**4, 7)
        freq = np.bincount(plan.indices, minlength=4) / plan.n
        assert np.all(np.abs(freq - 0.25) <= 0.02)

    def test_single_draw(self):
        plan = lq.draw_plan(lq.pauli_design(2), 1, 0)
        assert plan.n == 1 and plan.indices.shape == (1,)

    def test_hermitian_variant_unit_entry_variance(self):
        plan = lq.draw_plan(lq.gaussian_design(2, hermitian=True), 2 * 10**4, 3)
        m = plan.matrices
        assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) <= 1e-12
        second_moment = np.mean(np.abs(m) ** 2, axis=0)
        assert np.all(np.abs(second_moment - 1.0) <= 0.05)

    def test_requires_positive_n(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                lq.draw_plan(lq.pauli_design(1), n, 0)
            with pytest.raises(ValueError):
                lq.draw_plan(lq.gaussian_design(2), n, 0)
            with pytest.raises(ValueError):
                lq.full_basis_plan(lq.pauli_design(1), n)


class TestPlanArrays:
    """A plan's size is its number of draws, and its array must fit its kind."""

    def test_size_is_the_draw_count(self):
        assert lq.SensingPlan(lq.pauli_design(1), indices=np.arange(3)).n == 3
        assert lq.SensingPlan(lq.gaussian_design(2), matrices=np.zeros((5, 2, 2))).n == 5

    @pytest.mark.parametrize("ensemble, arrays", [
        (lq.pauli_design(1), {}),
        (lq.pauli_design(1), {"indices": np.arange(0)}),
        (lq.pauli_design(1), {"indices": np.zeros((2, 2), dtype=int)}),
        (lq.pauli_design(1), {"matrices": np.zeros((2, 2, 2))}),
        (lq.pauli_design(1), {"indices": np.arange(2), "matrices": np.zeros((2, 2, 2))}),
        (lq.gaussian_design(2), {"indices": np.arange(2)}),
        (lq.gaussian_design(2), {"matrices": np.zeros((2, 3, 3))}),
        (lq.gaussian_design(2), {"matrices": np.zeros((0, 2, 2))}),
    ])
    def test_array_must_match_kind(self, ensemble, arrays):
        with pytest.raises(ValueError, match=f"a {ensemble.kind} plan takes only"):
            lq.SensingPlan(ensemble, **arrays)

    @pytest.mark.parametrize("index", [-1, 4, 99])
    def test_out_of_range_index_rejected(self, index):
        # index -1 used to read coefficient 3 and measure it without a word
        with pytest.raises(ValueError, match=f"Pauli index {index} outside"):
            lq.SensingPlan(lq.pauli_design(1), indices=np.array([0, index]))

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            lq.SensingPlan(lq.pauli_design(1), indices=np.array([0.0, 1.0]))


class TestSamplingOperator:
    def test_zero_matrix(self):
        plan = lq.draw_plan(lq.gaussian_design(3), 5, 0)
        assert_allclose(lq.apply_sampling(plan, np.zeros((3, 3))), np.zeros(5))

    def test_pauli_orthonormality_picks_coefficient(self):
        ens = lq.pauli_design(2)
        target_idx = 6
        plan = lq.SensingPlan(ens, indices=np.array([6, 2, 6]))
        el = lq.pauli_basis(2)[target_idx]
        vals = lq.apply_sampling(plan, el)
        assert_allclose(vals, [4.0, 0.0, 4.0], atol=1e-12)

    def test_gaussian_identity_trace(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(2), 6, 1)
        vals = lq.apply_sampling(plan, np.eye(2))
        direct = np.array([float(np.trace(x)) for x in plan.matrices])
        assert_allclose(vals, direct, atol=1e-12)

    def test_linearity(self, rng):
        for ens in (lq.gaussian_design(4, hermitian=True), lq.pauli_design(2)):
            plan = lq.draw_plan(ens, 9, 5)
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            lhs = lq.apply_sampling(plan, 0.7 * a - 1.3 * b)
            rhs = 0.7 * lq.apply_sampling(plan, a) - 1.3 * lq.apply_sampling(plan, b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_dimension_mismatch(self):
        plan = lq.draw_plan(lq.pauli_design(2), 4, 0)
        with pytest.raises(ValueError, match="does not match"):
            lq.apply_sampling(plan, np.eye(3))

    def test_complex_target_needs_hermitian_design(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(2), 4, 0)
        with pytest.raises(ValueError, match="not real"):
            lq.apply_sampling(plan, random_hermitian(2, rng))


class TestAdjointAverage:
    def test_zero_weights(self):
        plan = lq.draw_plan(lq.pauli_design(2), 5, 0)
        assert_allclose(lq.adjoint_average(plan, np.zeros(5)), np.zeros((4, 4)))

    def test_single_pauli_draw(self):
        ens = lq.pauli_design(2)
        plan = lq.SensingPlan(ens, indices=np.array([9]))
        out = lq.adjoint_average(plan, np.array([1.0]))
        assert_allclose(out, 4 * lq.pauli_basis(2)[9], atol=1e-12)

    def test_matches_naive_loop(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(2), 3, 11)
        y = rng.standard_normal(3)
        naive = sum(y[i] * plan.matrices[i] for i in range(3)) / 3
        naive = 0.5 * (naive + naive.T)
        assert np.max(np.abs(lq.adjoint_average(plan, y) - naive)) <= 1e-12

    def test_adjoint_relation(self, rng):
        for ens in (lq.gaussian_design(4), lq.pauli_design(2), lq.gaussian_design(4, hermitian=True)):
            plan = lq.draw_plan(ens, 8, 3)
            a = random_hermitian(4, rng, real=(ens.kind == "gaussian" and not ens.hermitian))
            y = rng.standard_normal(8)
            lhs = float(np.dot(lq.apply_sampling(plan, a), y)) / 8
            rhs = float(np.real(np.vdot(a, lq.adjoint_average(plan, y))))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_length_mismatch(self):
        plan = lq.draw_plan(lq.pauli_design(1), 3, 0)
        with pytest.raises(ValueError, match="plan size"):
            lq.adjoint_average(plan, np.zeros(4))


class TestExpectedIsometry:
    @pytest.mark.parametrize("kind", ["gaussian", "hermitian", "pauli"])
    def test_mean_over_fresh_plans(self, kind, rng):
        d, n, plans = 4, 50, 2000
        if kind == "pauli":
            ens = lq.pauli_design(2)
            theta = lq.random_rank_k_state(d, 2, rng)
        elif kind == "hermitian":
            ens = lq.gaussian_design(d, hermitian=True)
            theta = lq.random_rank_k_state(d, 2, rng)
        else:
            ens = lq.gaussian_design(d)
            theta = random_hermitian(d, rng, real=True, scale=0.3)
        fsq = lq.frobenius_norm(theta) ** 2
        acc = 0.0
        for rep in range(plans):
            plan = lq.draw_plan(ens, n, np.random.default_rng((99, rep)))
            acc += float(np.mean(lq.apply_sampling(plan, theta) ** 2))
        assert acc / plans == pytest.approx(fsq, rel=0.02)

    def test_full_basis_is_exact(self, rng):
        # every index measured 3 times: (1/n) ||X(theta)||^2 = ||theta||_F^2
        plan = lq.full_basis_plan(lq.pauli_design(2), 3)
        for theta in (np.eye(4) / 2.0, random_hermitian(4, rng)):
            fsq = lq.frobenius_norm(theta) ** 2
            assert abs(np.mean(lq.apply_sampling(plan, theta) ** 2) / fsq - 1.0) <= 1e-12


class TestPlanSerialization:
    """A plan has no file form: it is recorded as its ensemble, its size and
    the integer seed it was drawn from, and ``draw_plan`` re-derives it."""

    def test_pauli_roundtrip(self):
        plan = lq.draw_plan(lq.pauli_design(2), 17, 42)
        back = lq.draw_plan(plan.ensemble, plan.n, 42)
        assert back.ensemble == plan.ensemble
        assert np.array_equal(back.indices, plan.indices)

    def test_gaussian_rederived_from_seed(self):
        plan = lq.draw_plan(lq.gaussian_design(3), 6, 42)
        back = lq.draw_plan(lq.gaussian_design(3), 6, np.random.default_rng(42))
        assert np.array_equal(back.matrices, plan.matrices)

    def test_gaussian_hermitian_token(self):
        plan = lq.draw_plan(lq.gaussian_design(2, hermitian=True), 4, 9)
        back = lq.draw_plan(lq.gaussian_design(2, hermitian=True), 4, 9)
        assert back.ensemble.hermitian
        assert np.array_equal(back.matrices, plan.matrices)
