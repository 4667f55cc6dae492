import numpy as np
import pytest

import lowrank_uq as lq


def _pauli_cfg(**kw):
    defaults = dict(
        epsilon=0.5, delta=0.1, ensemble=lq.pauli_design(2), noise=lq.GaussianNoise(0.05)
    )
    defaults.update(kw)
    return lq.CertificateConfig(**defaults)


class TestRunCertificate:
    def test_trivial_accuracy_stops_immediately(self, rng):
        # eps >= 2 is at least the Frobenius diameter of state space
        cfg = _pauli_cfg(epsilon=2.0, ensemble=lq.pauli_design(1), noise=lq.GaussianNoise(0.0))
        state = lq.random_rank_k_state(2, 1, rng)
        cert = lq.run_certificate(state, cfg, rng)
        assert cert.stopped
        assert len(cert.epochs) == 1
        assert cert.n_hat == 4

    def test_budget_identity(self, rng):
        cfg = _pauli_cfg()
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 11)
        assert cert.n_hat == sum(2 ** (e.m + 1) for e in cert.epochs)
        assert [e.m for e in cert.epochs] == list(range(1, len(cert.epochs) + 1))

    def test_monotone_trigger(self, rng):
        cfg = _pauli_cfg()
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 13)
        assert cert.stopped
        assert all(e.diameter > cfg.epsilon for e in cert.epochs[:-1])
        assert cert.epochs[-1].diameter <= cfg.epsilon

    def test_epoch_methods_switch_at_dimension_squared(self, rng):
        cfg = _pauli_cfg(epsilon=0.2)
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 5)
        for e in cert.epochs:
            if e.n_half < 16:
                assert e.method == "RSS"
            else:
                assert e.method == "ReAvg"

    def test_epoch_cap_reports_not_stopped(self, rng):
        cfg = _pauli_cfg(epsilon=1e-6, t_max=3)
        state = lq.random_rank_k_state(4, 2, rng)
        cert = lq.run_certificate(state, cfg, 7)
        assert not cert.stopped
        assert len(cert.epochs) == 3

    def test_per_epoch_level(self, rng):
        cfg = _pauli_cfg()
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 3)
        alpha = cfg.delta / (3 * cfg.num_epochs_planned)
        assert all(e.alpha == pytest.approx(alpha) for e in cert.epochs)

    def test_estimate_is_a_state(self, rng):
        cfg = _pauli_cfg()
        state = lq.random_rank_k_state(4, 2, rng)
        cert = lq.run_certificate(state, cfg, 19)
        lq.check_quantum_state(cert.theta_hat)

    def test_live_oracle_callback(self, rng):
        state = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        sampler = np.random.default_rng(17)
        calls = []

        def oracle(plan):
            calls.append(plan.n)
            return lq.measure_gaussian(plan, state, 0.05, sampler)

        cfg = _pauli_cfg()
        cert = lq.run_certificate(oracle, cfg, 23)
        assert cert.stopped
        # two disjoint halves per epoch, each of size 2^m
        assert calls == [h for m in range(1, len(cert.epochs) + 1) for h in (2**m, 2**m)]

    @pytest.mark.parametrize("answer", [
        lambda plan: lq.draw_plan(plan.ensemble, plan.n, 99),
        lambda plan: lq.draw_plan(plan.ensemble, plan.n + 1, 99),
        lambda plan: lq.draw_plan(lq.gaussian_design(4, hermitian=True), plan.n, 99),
    ], ids=["indices", "size", "ensemble"])
    def test_live_oracle_rejects_another_plan(self, answer):
        state = lq.random_rank_k_state(4, 1, np.random.default_rng(5))

        def oracle(plan):
            return lq.measure_gaussian(answer(plan), state, 0.05, 17)

        # three epochs stay below d^2, where no statistic checks the plan itself
        with pytest.raises(ValueError, match="different plan"):
            lq.run_certificate(oracle, _pauli_cfg(t_max=3), 23)

    @pytest.mark.parametrize("measure", [
        lambda plan, state: lq.measure_gaussian(plan, state, 0.2, 17),
        lambda plan, state: lq.measure_bernoulli_pauli(plan, state, 64, 17),
    ], ids=["sigma", "bernoulli"])
    def test_live_oracle_rejects_another_noise(self, measure):
        # the ball reads the noise level from the batch, so it must be the
        # configured one
        state = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        with pytest.raises(ValueError, match="noise"):
            lq.run_certificate(lambda plan: measure(plan, state), _pauli_cfg(), 23)

    def test_bernoulli_large_budget_drops_centering(self, rng):
        cfg = _pauli_cfg(noise=lq.BernoulliPauliNoise(4096))
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 29)
        assert cert.stopped
        assert cert.epochs[0].method == "RSS"

    def test_bernoulli_small_budget_uses_paired_statistic(self, rng):
        cfg = _pauli_cfg(noise=lq.BernoulliPauliNoise(1), epsilon=0.9)
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 31)
        assert all(e.method == "PairedRSS" for e in cert.epochs)

    def test_theory_regime_is_conservative_below_d_squared(self, rng):
        # the explicit Pauli deviation constant makes the theory RSS ball far
        # wider than the calibrated one at desk scale
        state = lq.random_rank_k_state(4, 1, np.random.default_rng(5))
        sim = lq.run_certificate(state, _pauli_cfg(t_max=3), 37)
        theory = lq.run_certificate(state, _pauli_cfg(t_max=3, constants_regime="theory"), 37)
        for e_sim, e_th in zip(sim.epochs, theory.epochs):
            if e_th.method == "RSS":
                assert e_th.diameter >= e_sim.diameter

    def test_simulation_regime_spends_no_delta(self):
        # the simulation balls do not depend on alpha, so delta changes only
        # the reported alpha: the epochs and the stopping time are the same
        state = lq.random_rank_k_state(8, 2, np.random.default_rng(13))
        loose = lq.run_certificate(state, _pauli_cfg(ensemble=lq.pauli_design(3)), 47)
        tight = lq.run_certificate(state, _pauli_cfg(ensemble=lq.pauli_design(3),
                                                     delta=1e-6), 47)

        def fields(cert):
            return [(e.m, e.method, e.statistic, e.radius_sq, e.diameter) for e in cert.epochs]

        assert loose.stopped and fields(loose) == fields(tight)
        assert loose.n_hat == tight.n_hat
        assert all(e.alpha > t.alpha for e, t in zip(loose.epochs, tight.epochs))

    def test_diameter_capped_by_state_space(self, rng):
        cfg = _pauli_cfg(t_max=2, constants_regime="theory")
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 41)
        assert all(e.diameter <= 2.0 for e in cert.epochs)

    def test_json_payload(self, rng):
        import dataclasses
        import json

        cfg = _pauli_cfg()
        state = lq.random_rank_k_state(4, 1, rng)
        cert = lq.run_certificate(state, cfg, 43)
        payload = json.loads(cert.to_json())
        assert payload["n_hat"] == cert.n_hat
        assert cert.config is cfg
        assert (payload["epsilon"], payload["delta"], payload["constants"]) == (
            cfg.epsilon, cfg.delta, cfg.constants_regime)
        assert len(payload["epochs"]) == len(cert.epochs)
        for record, e in zip(payload["epochs"], cert.epochs):
            # each epoch is written from its own fields, all of them
            assert record == dataclasses.asdict(e)
            assert record["pilot_iterations"] == e.pilot_iterations >= 1
            assert record["pilot_converged"] is e.pilot_converged
            assert record["pilot_gap"] == e.pilot_gap
            assert e.pilot_converged == (e.pilot_gap <= lq.PilotConfig().gap_tol)


class TestConfigValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            lq.CertificateConfig(epsilon=0.0, delta=0.1, ensemble=lq.pauli_design(1),
                                 noise=lq.GaussianNoise(0.1))

    @pytest.mark.parametrize("epsilon", [-0.5, float("nan"), float("inf")])
    def test_unusable_epsilon_named(self, epsilon):
        # nan and inf used to fail in the epoch horizon, naming no field
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            _pauli_cfg(epsilon=epsilon)

    def test_bad_regime(self):
        with pytest.raises(ValueError):
            lq.CertificateConfig(epsilon=0.5, delta=0.1, ensemble=lq.pauli_design(1),
                                 noise=lq.GaussianNoise(0.1), constants_regime="other")

    @pytest.mark.parametrize("noise", [0.05, "gaussian", None])
    def test_noise_must_be_a_channel(self, noise):
        # a float used to fail in epoch 1 on a missing .shots
        with pytest.raises(ValueError, match="GaussianNoise or BernoulliPauliNoise"):
            _pauli_cfg(noise=noise)

    def test_bernoulli_noise_needs_a_pauli_design(self):
        with pytest.raises(ValueError, match="Pauli designs only"):
            _pauli_cfg(ensemble=lq.gaussian_design(4, hermitian=True),
                       noise=lq.BernoulliPauliNoise(64))

    def test_planned_horizon(self):
        cfg = _pauli_cfg(epsilon=0.5)
        # ceil(log2(4 / 0.5)) + 2 = 3 + 2
        assert cfg.num_epochs_planned == 5
