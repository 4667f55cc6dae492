import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lowrank_uq as lq
from lowrank_uq import recovery
from lowrank_uq.recovery import _least_squares, _relative_gap

from conftest import (
    bloch_grid_state_projection,
    hermitian_with_spectrum,
    loop_rank_reduce,
    random_hermitian,
    spectra,
)

# Derandomized property tests: a run of the suite is reproducible, and the
# seed feeds numpy.
_PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _pauli_plan(kind, nq, n, g):
    ensemble = lq.pauli_design(nq)
    if kind == "random":
        return lq.draw_plan(ensemble, n, g)
    if kind == "paired":
        return lq.draw_paired_plan(ensemble, 2 * n, g)
    return lq.full_basis_plan(ensemble, 1 + n % 3)


def _gaussian_batch(hermitian, d, n, g):
    """Batch of a Gaussian plan at a random state (real for the real design,
    whose measurements of a complex matrix are not real)."""
    plan = lq.draw_plan(lq.gaussian_design(d, hermitian=hermitian), n, g)
    if hermitian:
        state = lq.random_rank_k_state(d, 1, g)
    else:
        v = g.standard_normal(d)
        state = np.outer(v, v).astype(complex) / float(v @ v)
    return lq.measure_gaussian(plan, state, 0.1, g)


def _soft_threshold(a, tau):
    lam, v = np.linalg.eigh(lq.hermitize(a))
    lam = np.sign(lam) * np.maximum(np.abs(lam) - tau, 0.0)
    return lq.hermitize((v * lam) @ v.conj().T)


def _objective(batch, theta, lam):
    resid = lq.apply_sampling(batch.plan, theta) - batch.y
    return 0.5 * float(np.mean(resid**2)) + lam * lq.nuclear_norm(theta)


def _gap(batch, theta, lam):
    """Relative duality gap of the Hermitian matrix theta, from the summary,
    with the solver's floor eps P(0)."""
    ls = _least_squares(batch)
    floor = np.finfo(float).eps * 0.5 * float(np.mean(batch.y**2))
    return _relative_gap(ls, ls.coordinates(theta), _objective(batch, theta, lam), lam, floor)


def _proximal_gradient(batch, lam, step, tol=1e-13, max_iters=200_000):
    """Reference: plain proximal gradient at a fixed step, run until the
    move per step falls to ``tol``."""
    d = batch.plan.dim
    theta = np.zeros((d, d), dtype=complex)
    for _ in range(max_iters):
        grad = lq.adjoint_average(batch.plan, lq.apply_sampling(batch.plan, theta) - batch.y)
        new = _soft_threshold(theta - step * grad, step * lam)
        move = lq.frobenius_norm(new - theta)
        theta = new
        if move / step <= tol:
            return theta
    raise AssertionError("the reference did not converge")


class TestPilotEstimate:
    def test_parseval_inversion(self, rng):
        # noiseless full-basis sample, vanishing penalty: exact recovery
        rho = lq.random_rank_k_state(4, 2, rng)
        plan = lq.full_basis_plan(lq.pauli_design(2), 1)
        batch = lq.measure_gaussian(plan, rho, 0.0, rng)
        pilot, info = lq.pilot_estimate(batch, return_info=True)
        assert lq.frobenius_norm(pilot - rho) <= 1e-6
        # the exact fit drives the objective to its rounding level, where the
        # gap still certifies it
        assert info.converged

    def test_zero_data_heavy_penalty_returns_zero(self):
        self._check_zero_solve(lq.pauli_design(2))

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_zero_data_heavy_penalty_returns_zero_gaussian(self, hermitian):
        self._check_zero_solve(lq.gaussian_design(4, hermitian=hermitian))

    @staticmethod
    def _check_zero_solve(ensemble):
        plan = lq.draw_plan(ensemble, 16, 0)
        batch = lq.MeasurementBatch(plan, np.zeros(16), lq.GaussianNoise(1.0))
        pilot, info = lq.pilot_estimate(batch, lq.PilotConfig(lambda_scale=50.0),
                                        return_info=True)
        assert lq.frobenius_norm(pilot) == 0.0
        assert info.gap == 0.0 and info.converged and info.iterations == 1

    @pytest.mark.parametrize("ensemble", [lq.pauli_design(2),
                                          lq.gaussian_design(4, hermitian=True)])
    def test_infinite_observation_raises_eigendecomposition_error(self, ensemble):
        # the solver's eigensolver used to raise numpy's bare LinAlgError
        plan = lq.draw_plan(ensemble, 32, 0)
        y = np.zeros(32)
        y[0] = np.inf
        batch = lq.MeasurementBatch(plan, y, lq.GaussianNoise(1.0))
        with np.errstate(all="ignore"), pytest.raises(lq.EigendecompositionError):
            lq.pilot_estimate(batch)

    def test_objective_monotone(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.gaussian_design(4, hermitian=True), 60, 3)
        batch = lq.measure_gaussian(plan, rho, 0.2, rng)
        _, info = lq.pilot_estimate(batch, return_info=True)
        obj = np.array(info.objective)
        assert np.all(np.diff(obj) <= 1e-12)

    def test_solver_info(self, rng):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 200, 5)
        batch = lq.measure_gaussian(plan, rho, 0.1, rng)
        _, info = lq.pilot_estimate(batch, return_info=True)
        assert isinstance(info, lq.SolverInfo)
        assert info.converged and info.gap <= lq.PilotConfig().gap_tol
        assert 1 <= info.iterations < lq.PilotConfig().max_iters
        assert len(info.objective) <= info.iterations + 1
        assert info.step == pytest.approx(1 / (1.1 * info.lipschitz))
        assert info.lambda_ > 0 and info.restarts >= 0
        # the cap is reported, not hidden
        _, capped = lq.pilot_estimate(batch, lq.PilotConfig(max_iters=2), return_info=True)
        assert capped.iterations == 2 and not capped.converged
        assert capped.gap > lq.PilotConfig().gap_tol

    def test_divergence_detector(self, rng, monkeypatch):
        rho = lq.random_rank_k_state(4, 1, rng)
        plan = lq.draw_plan(lq.gaussian_design(4), 50, 3)
        state = np.diag([1.0, 0, 0, 0]).astype(complex)
        batch = lq.measure_gaussian(plan, state, 0.1, rng)

        def understated(batch):
            # a Lipschitz constant for which the step 1 / (1.1 L) is 50, far
            # beyond 1/L
            ls = _least_squares(batch)
            ls.lipschitz = 1.0 / (1.1 * 50.0)
            return ls

        monkeypatch.setattr(recovery, "_least_squares", understated)
        with pytest.raises(lq.SolverDivergenceError):
            lq.pilot_estimate(batch)

    def test_result_is_hermitian(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        plan = lq.draw_plan(lq.pauli_design(2), 64, 4)
        batch = lq.measure_gaussian(plan, rho, 0.1, rng)
        lq.check_hermitian(lq.pilot_estimate(batch))

    @pytest.mark.slow
    def test_rank_one_risk_budget(self):
        # isotropic benchmark: squared error within 5 sigma^2 d / n on >= 90%
        # of replications; the realized risk constant is printed for the record
        d, n, sigma, reps = 32, 2000, 0.1, 200
        errs = np.empty(reps)
        for rep in range(reps):
            g = np.random.default_rng((1405, rep))
            u = g.standard_normal(d)
            u /= np.linalg.norm(u)
            state = np.outer(u, u).astype(complex)
            plan = lq.draw_plan(lq.gaussian_design(d), n, g)
            batch = lq.measure_gaussian(plan, state, sigma, g)
            pilot = lq.pilot_estimate(batch)
            errs[rep] = lq.frobenius_norm(pilot - state) ** 2
        bound = 5 * sigma**2 * d / n
        frac = float(np.mean(errs <= bound))
        measured_d = float(np.quantile(errs, 1 - 2 * 0.1 / 3) * n / (sigma**2 * d))
        print(f"rank-1 benchmark: frac within budget {frac:.3f}, measured D {measured_d:.2f}")
        assert frac >= 0.90


class TestLeastSquaresSummary:
    @pytest.mark.parametrize("nq", range(1, 6))
    @pytest.mark.parametrize("kind", ["random", "paired", "full"])
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=200))
    def test_pauli_value_gradient_and_lipschitz(self, kind, nq, seed, n):
        g = np.random.default_rng(seed)
        plan = _pauli_plan(kind, nq, n, g)
        batch = lq.MeasurementBatch(plan, g.standard_normal(plan.n), lq.GaussianNoise(1.0))
        self._check_value_and_gradient(batch, random_hermitian(plan.dim, g))
        counts = np.bincount(plan.indices, minlength=plan.dim**2)
        assert _least_squares(batch).lipschitz == plan.dim**2 * counts.max() / plan.n

    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=60))
    def test_gaussian_value_and_gradient(self, d, hermitian, seed, n):
        g = np.random.default_rng(seed)
        batch = _gaussian_batch(hermitian, d, n, g)
        self._check_value_and_gradient(batch, random_hermitian(d, g, real=not hermitian))

    @staticmethod
    def _check_value_and_gradient(batch, theta):
        ls = _least_squares(batch)
        resid = lq.apply_sampling(batch.plan, theta) - batch.y
        x = ls.coordinates(theta)
        assert lq.frobenius_norm(ls.matrix(x) - theta) <= 1e-12 * lq.frobenius_norm(theta)
        want = 0.5 * float(np.mean(resid**2))
        assert abs(ls.value(x) - want) <= 1e-12 * want
        grad = lq.adjoint_average(batch.plan, resid)
        got = ls.matrix(ls.gradient(x))
        assert lq.frobenius_norm(got - grad) <= 1e-12 * lq.frobenius_norm(grad)


class TestRestartedFista:
    # On well-posed fixtures (n >= 4 d^2, and every Pauli index observed)
    # the objective is strongly convex, so the restarted solver and a long
    # plain proximal-gradient run reach the same minimizer.
    _TIGHT = lq.PilotConfig(gap_tol=1e-12, max_iters=20_000)

    def _check_against_reference(self, batch):
        theta, info = lq.pilot_estimate(batch, self._TIGHT, return_info=True)
        assert info.converged
        ref = _proximal_gradient(batch, info.lambda_, info.step)
        want = _objective(batch, ref, info.lambda_)
        assert abs(_objective(batch, theta, info.lambda_) - want) <= 1e-10 * want
        assert lq.frobenius_norm(theta - ref) <= 1e-6
        # the gap certifies the reference solution too
        assert -1e-12 <= _gap(batch, ref, info.lambda_) <= 1e-10

    @pytest.mark.parametrize("nq", [1, 2, 3])
    @_PROPERTY
    @given(seed=_SEEDS, extra=st.integers(min_value=0, max_value=200))
    def test_pauli_matches_proximal_gradient(self, nq, seed, extra):
        g = np.random.default_rng(seed)
        ensemble = lq.pauli_design(nq)
        d2 = ensemble.dim**2
        random = lq.draw_plan(ensemble, 3 * d2 + extra, g).indices
        plan = lq.SensingPlan(ensemble, indices=np.concatenate([np.arange(d2), random]))
        state = lq.random_rank_k_state(ensemble.dim, 1 + seed % 2, g)
        self._check_against_reference(lq.measure_gaussian(plan, state, 0.1, g))

    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("d", [2, 4])
    @_PROPERTY
    @given(seed=_SEEDS, extra=st.integers(min_value=0, max_value=100))
    def test_gaussian_matches_proximal_gradient(self, d, hermitian, seed, extra):
        g = np.random.default_rng(seed)
        self._check_against_reference(_gaussian_batch(hermitian, d, 4 * d * d + extra, g))


class TestDualityGap:
    @pytest.mark.parametrize("nq", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "paired", "full"])
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=200),
           lam=st.floats(min_value=0.0, max_value=10.0),
           scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_pauli_weak_duality(self, kind, nq, seed, n, lam, scale):
        g = np.random.default_rng(seed)
        plan = _pauli_plan(kind, nq, n, g)
        batch = lq.MeasurementBatch(plan, g.standard_normal(plan.n), lq.GaussianNoise(1.0))
        assert _gap(batch, scale * random_hermitian(plan.dim, g), lam) >= -1e-12

    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=1, max_value=60),
           lam=st.floats(min_value=0.0, max_value=10.0),
           scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_gaussian_weak_duality(self, d, hermitian, seed, n, lam, scale):
        g = np.random.default_rng(seed)
        batch = _gaussian_batch(hermitian, d, n, g)
        theta = scale * random_hermitian(d, g, real=not hermitian)
        assert _gap(batch, theta, lam) >= -1e-12

    @pytest.mark.parametrize("design", ["pauli", "gaussian"])
    @_PROPERTY
    @given(seed=_SEEDS, n=st.integers(min_value=4, max_value=120),
           max_iters=st.integers(min_value=1, max_value=60),
           gap_tol=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    def test_converged_iff_gap_within_tolerance(self, design, seed, n, max_iters, gap_tol):
        g = np.random.default_rng(seed)
        if design == "pauli":
            plan = lq.draw_plan(lq.pauli_design(2), n, g)
            batch = lq.measure_gaussian(plan, lq.random_rank_k_state(4, 1, g), 0.1, g)
        else:
            batch = _gaussian_batch(True, 4, n, g)
        cfg = lq.PilotConfig(gap_tol=gap_tol, max_iters=max_iters)
        theta, info = lq.pilot_estimate(batch, cfg, return_info=True)
        assert info.converged == (info.gap <= gap_tol)
        assert info.converged or info.iterations == max_iters
        # the reported gap is that of the returned iterate
        assert info.gap >= -1e-12
        assert abs(info.gap - _gap(batch, theta, info.lambda_)) <= 1e-9


class TestRateFunction:
    def test_nondecreasing_in_rank(self):
        rate = lq.RateFunction(D=4.0, sigma=0.1, dim=8, n=256)
        vals = [rate(k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_value(self):
        rate = lq.RateFunction(D=2.0, sigma=0.5, dim=4, n=128)
        assert rate(2) == pytest.approx(2 * 0.5 * np.sqrt(2 * 2 * 4 / 128))

    def test_validation(self):
        with pytest.raises(ValueError):
            lq.RateFunction(D=-1.0, sigma=0.1, dim=4, n=16)


class TestRankReduce:
    def test_exact_rank_one_pilot(self, rng):
        pilot = lq.random_rank_k_state(4, 1, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=100)
        reduced, k = lq.rank_reduce(pilot, rate)
        assert k == 1
        assert_allclose(reduced, pilot, atol=1e-9)

    def test_small_tail_truncated(self):
        rate = lq.RateFunction(D=1.0, sigma=0.1, dim=4, n=100)
        eps_tail = 0.9 * rate(1) / 2
        pilot = np.diag([1.0, eps_tail, 0.0, 0.0])
        reduced, k = lq.rank_reduce(pilot, rate)
        assert k == 1
        assert_allclose(reduced, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_zero_rate_returns_full_rank(self, rng):
        pilot = lq.random_rank_k_state(4, 3, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.0, dim=4, n=100)
        reduced, k = lq.rank_reduce(pilot, rate)
        assert k == 3
        assert_allclose(reduced, pilot, atol=1e-10)


    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spectrum=spectra, seed=st.integers(min_value=0, max_value=2**32 - 1),
           real=st.booleans(),
           sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
           D=st.floats(min_value=0.01, max_value=10.0),
           n=st.integers(min_value=1, max_value=10**5))
    def test_matches_loop_over_best_rank_k(self, spectrum, seed, real, sigma, D, n):
        pilot = hermitian_with_spectrum(spectrum, np.random.default_rng(seed), real=real)
        rate = lq.RateFunction(D=D, sigma=sigma, dim=pilot.shape[0], n=n)
        reduced, k = lq.rank_reduce(pilot, rate)
        expected, k_loop = loop_rank_reduce(pilot, rate)
        assert k == k_loop
        assert np.array_equal(reduced, expected)

    @pytest.mark.parametrize("d, r", [(1, 1), (4, 2), (8, 3), (16, 5)])
    def test_exactly_low_rank_at_zero_rate(self, rng, d, r):
        pilot = lq.random_rank_k_state(d, r, rng)
        rate = lq.RateFunction(D=1.0, sigma=0.0, dim=d, n=100)
        reduced, k = lq.rank_reduce(pilot, rate)
        assert k == loop_rank_reduce(pilot, rate)[1] == r
        assert_allclose(reduced, pilot, atol=1e-10)


class TestRankReductionChain:
    @pytest.mark.slow
    def test_reduced_estimator_error_bounds(self):
        # once D is calibrated at the 1 - 2 delta / 3 quantile, the reduced
        # estimator stays within rate(k) in Frobenius norm and within
        # sqrt(2k) rate(k) in nuclear norm, with roughly that frequency
        d, n, sigma, k0, delta = 8, 512, 0.1, 2, 0.1
        ensemble = lq.pauli_design(3)
        fix = lq.PilotFixture(ensemble=ensemble, sigma=sigma, n=n, rank=k0, reps=100)
        risk_d = lq.calibrate_pilot_risk(fix, delta, 31415)
        rate = lq.RateFunction(risk_d, sigma, d, n)
        hits_f, hits_s1, hits_rank = 0, 0, 0
        reps = 100
        for rep in range(reps):
            g = np.random.default_rng((1406, rep))
            state = lq.random_rank_k_state(d, k0, g)
            batch = lq.measure_gaussian(lq.draw_plan(ensemble, n, g), state, sigma, g)
            pilot = lq.pilot_estimate(batch)
            reduced, k_sel = lq.rank_reduce(pilot, rate)
            hits_f += lq.frobenius_norm(reduced - state) <= rate(k0)
            hits_s1 += lq.nuclear_norm(reduced - state) <= np.sqrt(2 * k0) * rate(k0)
            hits_rank += k_sel <= k0
        floor = (1 - 2 * delta / 3) - 0.08  # binomial margin at 100 replications
        assert hits_f / reps >= floor
        assert hits_s1 / reps >= floor
        assert hits_rank / reps >= floor


class TestPilotToState:
    def test_state_unchanged(self, rng):
        rho = lq.random_rank_k_state(4, 2, rng)
        assert lq.frobenius_norm(lq.pilot_to_state(rho) - rho) <= 1e-10

    def test_zero_pilot_maps_to_maximally_mixed(self):
        assert_allclose(lq.pilot_to_state(np.zeros((4, 4))), np.eye(4) / 4, atol=1e-12)

    def test_matches_grid_oracle(self, rng):
        a = random_hermitian(2, rng)
        assert lq.frobenius_norm(lq.pilot_to_state(a) - bloch_grid_state_projection(a)) <= 1e-4
