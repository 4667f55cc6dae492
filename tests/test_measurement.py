import numpy as np
import pytest
from numpy.testing import assert_allclose

import lowrank_uq as lq


class TestGaussianChannel:
    def test_noiseless_equals_clean_traces(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 20, 0)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        assert_allclose(batch.y, lq.apply_sampling(plan, rho))

    def test_unit_variance_noise(self):
        plan = lq.draw_plan(lq.pauli_design(1), 10**5, 0)
        batch = lq.measure_gaussian(plan, np.zeros((2, 2)), 1.0, 3)
        assert np.var(batch.y) == pytest.approx(1.0, abs=0.02)

    def test_fixed_seed_replay(self, rng):
        rho = lq.random_rank_k_state(2, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(1), 50, 0)
        a = lq.measure_gaussian(plan, rho, 0.3, 987)
        b = lq.measure_gaussian(plan, rho, 0.3, 987)
        assert np.array_equal(a.y, b.y)

    def test_negative_sigma_rejected(self, rng):
        plan = lq.draw_plan(lq.pauli_design(1), 4, 0)
        with pytest.raises(ValueError):
            lq.measure_gaussian(plan, np.eye(2) / 2, -0.1, rng)


class TestBernoulliChannel:
    def test_maximally_mixed_gives_half_probability(self):
        # any non-identity word has tr(E theta) = 0 at theta = I/d
        plan = lq.SensingPlan(lq.pauli_design(2), 3, indices=np.array([1, 7, 15]))
        p = lq.pauli_outcome_probabilities(plan, np.eye(4) / 4)
        assert_allclose(p, [0.5, 0.5, 0.5], atol=1e-14)

    def test_forced_outcome(self):
        # theta = |0><0|, measuring the z word: success probability is 1
        plan = lq.SensingPlan(lq.pauli_design(1), 4, indices=np.array([3, 3, 3, 3]))
        state = np.diag([1.0, 0.0]).astype(complex)
        p = lq.pauli_outcome_probabilities(plan, state)
        assert_allclose(p, np.ones(4), atol=1e-12)
        batch = lq.measure_bernoulli_pauli(plan, state, shots=16, rng=5)
        assert_allclose(batch.y, np.full(4, np.sqrt(2.0)), atol=1e-12)

    def test_error_support_and_variance_bounds(self, rng):
        d, shots, reps = 4, 8, 10**4
        state = lq.random_rank_k_state(d, 2, rng)
        plan = lq.SensingPlan(lq.pauli_design(2), 1, indices=np.array([5]))
        clean = float(lq.apply_sampling(plan, state)[0])
        ys = np.empty(reps)
        for rep in range(reps):
            ys[rep] = lq.measure_bernoulli_pauli(plan, state, shots, (11, rep)).y[0]
        eps = ys - clean
        assert np.max(np.abs(eps)) <= 2 * np.sqrt(d) + 1e-12
        assert np.var(ys) <= d / shots * 1.05  # bound plus Monte Carlo slack

    def test_unbiasedness(self, rng):
        d, shots, reps = 4, 4, 10**4
        state = lq.random_rank_k_state(d, 1, rng)
        plan = lq.SensingPlan(lq.pauli_design(2), 1, indices=np.array([9]))
        clean = float(lq.apply_sampling(plan, state)[0])
        ys = np.array(
            [lq.measure_bernoulli_pauli(plan, state, shots, (13, rep)).y[0] for rep in range(reps)]
        )
        assert abs(ys.mean() - clean) <= 4 * np.sqrt(d / (shots * reps))

    def test_rejects_non_state(self):
        plan = lq.SensingPlan(lq.pauli_design(1), 1, indices=np.array([3]))
        bad = np.diag([1.5, -0.5]).astype(complex)  # Hermitian but not PSD
        with pytest.raises(ValueError, match="probability outside"):
            lq.measure_bernoulli_pauli(plan, bad, shots=4, rng=0)

    def test_requires_pauli_plan(self, rng):
        plan = lq.draw_plan(lq.gaussian_design(2), 3, 0)
        with pytest.raises(ValueError, match="Pauli plans"):
            lq.measure_bernoulli_pauli(plan, np.eye(2) / 2, 4, rng)


class TestNoiseModels:
    def test_bernoulli_variance_bound(self):
        assert lq.BernoulliPauliNoise(16).variance_bound(4) == pytest.approx(0.25)

    def test_noise_scale(self, rng):
        plan = lq.draw_plan(lq.pauli_design(2), 3, 0)
        state = np.eye(4) / 4
        gauss = lq.measure_gaussian(plan, state, 0.2, rng)
        assert lq.noise_scale(gauss) == pytest.approx(0.2)
        bern = lq.measure_bernoulli_pauli(plan, state, 16, rng)
        assert lq.noise_scale(bern) == pytest.approx(0.5)


class TestBatchCsv:
    def test_pauli_roundtrip(self, rng, tmp_path):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 12, 33)
        batch = lq.measure_gaussian(plan, rho, 0.1, rng, tag="fixture-a")
        path = tmp_path / "batch.csv"
        lq.write_batch_csv(batch, path)
        back = lq.read_batch_csv(path)
        assert np.array_equal(back.y, batch.y)
        assert np.array_equal(back.plan.indices, plan.indices)
        assert back.noise == batch.noise
        assert back.true_state_tag == "fixture-a"

    def test_gaussian_roundtrip_via_seed(self, rng, tmp_path):
        plan = lq.draw_plan(lq.gaussian_design(3), 7, 55)
        batch = lq.measure_gaussian(plan, np.eye(3).astype(complex) / 3, 0.2, rng)
        path = tmp_path / "batch.csv"
        lq.write_batch_csv(batch, path)
        back = lq.read_batch_csv(path)
        assert np.array_equal(back.y, batch.y)
        assert np.array_equal(back.plan.matrices, plan.matrices)

    def test_bernoulli_descriptor_roundtrip(self, rng, tmp_path):
        plan = lq.draw_plan(lq.pauli_design(1), 5, 1)
        batch = lq.measure_bernoulli_pauli(plan, np.eye(2) / 2, 32, rng)
        path = tmp_path / "batch.csv"
        lq.write_batch_csv(batch, path)
        back = lq.read_batch_csv(path)
        assert back.noise == lq.BernoulliPauliNoise(32)
        assert np.array_equal(back.y, batch.y)

    @pytest.mark.parametrize("d, index, match", [
        (12, 7, "power of 2"), (4, -1, "out of range"), (4, 16, "out of range"),
    ])
    def test_bad_pauli_dimension_or_index_rejected(self, tmp_path, d, index, match):
        path = tmp_path / "batch.csv"
        path.write_text(f"# kind=pauli d={d} n=2 noise=gaussian:0.1 seed=- tag=-\n"
                        f"i,design_index_or_file,y_i\n0,3,0.5\n1,{index},0.25\n")
        with pytest.raises(ValueError, match=match):
            lq.read_batch_csv(path)

    def test_distinct_batch_identities(self, rng):
        plan = lq.draw_plan(lq.pauli_design(1), 5, 1)
        a = lq.measure_gaussian(plan, np.eye(2) / 2, 0.1, rng)
        b = lq.measure_gaussian(plan, np.eye(2) / 2, 0.1, rng)
        assert a.batch_id != b.batch_id
