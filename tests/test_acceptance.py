"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``.  The table-reproduction
tests take a few minutes (1000 replications at d = 32); everything is seeded
and deterministic.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lowrank_uq as lq

from conftest import bloch_grid_state_projection, naive_ustat, random_hermitian


def _report(num: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# benchmark values: isotropic design with a random one-entry error matrix
TABLE1 = {
    0.1: {
        ("UStat", "coverage"): [0.97, 0.98, 0.99, 1.00, 1.00, 1.00],
        ("UStat", "diameter"): [1.10, 0.64, 0.34, 0.24, 0.18, 0.14],
        ("RSS", "coverage"): [0.97, 0.97, 0.98, 0.98, 0.98, 0.98],
        ("RSS", "diameter"): [0.38, 0.31, 0.23, 0.19, 0.16, 0.14],
    },
    1.0: {
        ("UStat", "coverage"): [0.93, 0.96, 0.97, 0.98, 0.98, 0.98],
        ("UStat", "diameter"): [2.43, 1.84, 1.44, 1.27, 1.17, 1.10],
        ("RSS", "coverage"): [0.99, 0.99, 0.99, 0.99, 0.99, 0.99],
        ("RSS", "diameter"): [1.69, 1.49, 1.32, 1.22, 1.16, 1.10],
    },
}
N_GRID = (100, 200, 500, 1000, 2000, 5000)


@pytest.mark.slow
def test_criterion_1_isotropic_table_reproduction():
    worst_cov, worst_diam = 0.0, 0.0
    for r_sq, refs in TABLE1.items():
        spec = lq.ExperimentSpec(design="gaussian", error_kind="dirac",
                                 error_norm_sq=r_sq, n_grid=N_GRID, reps=1000,
                                 d=32, seed=11)
        rows = lq.run_experiment(spec)
        for method in ("UStat", "RSS"):
            for j, n in enumerate(N_GRID):
                row = next(r for r in rows if r.method == method and r.n == n)
                cov_gap = abs(row.coverage - refs[(method, "coverage")][j])
                ref_diam = refs[(method, "diameter")][j]
                diam_gap = abs(row.mean_diameter - ref_diam) / ref_diam
                worst_cov = max(worst_cov, cov_gap)
                worst_diam = max(worst_diam, diam_gap)
                assert cov_gap <= 0.03, (
                    f"coverage {method} n={n} R={r_sq}: {row.coverage:.3f} vs "
                    f"{refs[(method, 'coverage')][j]}"
                )
                assert diam_gap <= 0.15, (
                    f"diameter {method} n={n} R={r_sq}: {row.mean_diameter:.3f} vs {ref_diam}"
                )
    _report(1, True, f"24 coverage cells within {worst_cov:.3f} (tol 0.03), "
                     f"24 diameters within {worst_diam * 100:.1f}% (tol 15%)")


@pytest.mark.slow
def test_criterion_2_pauli_design_honesty_failure():
    spec = lq.ExperimentSpec(design="pauli", error_kind="pauli", error_norm_sq=1.0,
                             n_grid=(100, 200), reps=1000, d=32, seed=11)
    rows = {(r.method, r.n): r for r in lq.run_experiment(spec)}
    rss_100 = rows[("RSS", 100)].coverage
    rss_200 = rows[("RSS", 200)].coverage
    ustat_200 = rows[("UStat", 200)].coverage
    ok = (
        rss_100 < 0.25
        and abs(rss_100 - 0.12) <= 0.06
        and ustat_200 < 0.35
        and abs(ustat_200 - 0.22) <= 0.06
        and rss_200 < 0.5
    )
    _report(2, ok, f"RSS n=100 coverage {rss_100:.3f} (ref 0.12), "
                   f"U-stat n=200 coverage {ustat_200:.3f} (ref 0.22), "
                   f"RSS n=200 coverage {rss_200:.3f} < 0.5")


@pytest.mark.slow
def test_criterion_3_pauli_design_ustat_failure():
    spec = lq.ExperimentSpec(design="pauli", error_kind="dirac", error_norm_sq=1.0,
                             n_grid=(200,), reps=1000, d=32, seed=11)
    rows = {(r.method, r.n): r for r in lq.run_experiment(spec)}
    cov = rows[("UStat", 200)].coverage
    _report(3, abs(cov - 0.54) <= 0.06, f"U-stat coverage at n=200: {cov:.3f} (ref 0.54)")


_STAT_CODE = {"rss_statistic": 0, "ustat_statistic": 1, "reavg_statistic": 2,
              "paired_rss_statistic": 3}


def _unbiasedness_run(statistic, make_plan, sigma, theta, center, reps=2000):
    code = _STAT_CODE[statistic.__name__]
    vals = np.empty(reps)
    for rep in range(reps):
        gen = np.random.default_rng((1404, code, int(sigma * 1000), rep))
        plan = make_plan(gen)
        batch = lq.measure_gaussian(plan, theta, sigma, gen)
        vals[rep] = statistic(batch, center)
    return vals


@pytest.mark.slow
def test_criterion_4_unbiasedness_suite():
    d = 4
    theta = lq.random_rank_k_state(d, 1, np.random.default_rng(77))
    center = np.eye(d) / d
    target = lq.frobenius_norm(theta - center) ** 2
    gaussian = lq.gaussian_design(d, hermitian=True)
    pauli = lq.pauli_design(2)

    rss, ustat = lq.rss_statistic, lq.ustat_statistic
    reavg, paired = lq.reavg_statistic, lq.paired_rss_statistic

    cases = []
    for sigma in (0.0, 0.1, 1.0):
        cases.append(("rss/gaussian", rss, lambda g, e=gaussian: lq.draw_plan(e, 40, g), sigma))
        cases.append(("rss/pauli", rss, lambda g, e=pauli: lq.draw_plan(e, 40, g), sigma))
        cases.append(("ustat/gaussian", ustat, lambda g, e=gaussian: lq.draw_plan(e, 40, g), sigma))
        cases.append(("reavg/pauli", reavg, lambda g, e=pauli: lq.full_basis_plan(e, 2), sigma))
        cases.append(("paired/gaussian", paired,
                      lambda g, e=gaussian: lq.draw_paired_plan(e, 40, g), sigma))
        cases.append(("paired/pauli", paired,
                      lambda g, e=pauli: lq.draw_paired_plan(e, 40, g), sigma))
    worst = 0.0
    for name, stat_fn, make_plan, sigma in cases:
        vals = _unbiasedness_run(stat_fn, make_plan, sigma, theta, center)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        gap = abs(vals.mean() - target)
        assert gap <= 3 * se + 1e-9, f"{name} sigma={sigma}: gap {gap:.4f} vs 3se {3 * se:.4f}"
        worst = max(worst, gap / max(se, 1e-12))
    _report(4, True, f"all {len(cases)} statistic/fixture pairs unbiased "
                     f"(worst deviation {worst:.2f} standard errors, limit 3)")


def test_criterion_5_exactness_oracles(rng):
    # (a) pair statistic equals the naive double sum
    worst_rel = 0.0
    for trial in range(100):
        g = np.random.default_rng((1501, trial))
        d = int(g.integers(2, 5))
        n = int(g.integers(2, 21))
        kind = trial % 3
        if kind == 0:
            ens, real = lq.gaussian_design(d), True
        elif kind == 1:
            ens, real = lq.gaussian_design(d, hermitian=True), False
        else:
            ens, real = lq.pauli_design(1 if d == 2 else 2), False
            d = ens.dim
        center = random_hermitian(d, g, real=real)
        state = random_hermitian(d, g, real=real, scale=0.5)
        plan = lq.draw_plan(ens, n, g)
        batch = lq.measure_gaussian(plan, state, 0.5, g)
        fast = lq.ustat_statistic(batch, center)
        slow = naive_ustat(batch, center)
        rel = abs(fast - slow) / max(abs(slow), 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10
    # (b) basis Gram matrices are the identity
    worst_gram = 0.0
    for nq in range(1, 6):
        flat = lq.pauli_basis(nq).reshape(4**nq, -1)
        gram = flat.conj() @ flat.T
        dev = float(np.max(np.abs(gram - np.eye(4**nq))))
        worst_gram = max(worst_gram, dev)
        assert dev <= 1e-12
    # (c) state-space projection against the Bloch grid oracle
    worst_proj = 0.0
    for trial in range(50):
        g = np.random.default_rng((1502, trial))
        a = random_hermitian(2, g, scale=float(g.uniform(0.3, 2.0)))
        gap = lq.frobenius_norm(lq.project_state_space(a) - bloch_grid_state_projection(a))
        worst_proj = max(worst_proj, gap)
        assert gap <= 1e-3
    _report(5, True, f"pair-statistic identity to {worst_rel:.1e} rel (tol 1e-10); "
                     f"Gram deviation {worst_gram:.1e} (tol 1e-12); "
                     f"projection oracle gap {worst_proj:.1e} (tol 1e-3)")


def test_criterion_6_quantile_correctness():
    # closed-form zero: P(chi2_2 > 2) = e^{-1}
    zero = lq.chi_square_deviation_quantile(math.exp(-1), 1.0, 2)
    assert abs(zero) <= 1e-6
    # Monte-Carlo oracle; draw counts scale with sigma^4 so the oracle noise
    # stays well below the 0.01 comparison tolerance at every scale
    worst = 0.0
    rng = np.random.default_rng(np.random.SeedSequence(0xC6F))
    for n in (1, 10, 100):
        for alpha in (0.05, 0.5):
            for sigma in (0.5, 1.0, 2.0):
                draws = int(10**7 * max(1.0, sigma**4))
                sample = rng.chisquare(n, size=draws)
                q = float(np.quantile(sample, 1.0 - alpha, overwrite_input=True))
                del sample
                mc = sigma**2 * (q - n) / math.sqrt(n)
                gap = abs(mc - lq.chi_square_deviation_quantile(alpha, sigma, n))
                worst = max(worst, gap)
                assert gap <= 0.01, f"n={n} alpha={alpha} sigma={sigma}: gap {gap:.4f}"
    _report(6, True, f"closed-form zero at 1e-6; Monte-Carlo gaps at most {worst:.4f} "
                     f"(tol 0.01) over 18 parameter points")


@pytest.mark.slow
def test_criterion_7_certificate_validity():
    eps, delta, sigma, runs = 0.5, 0.1, 0.05, 200
    medians = {}
    fail_rates = {}
    for d in (4, 8):
        ensemble = lq.pauli_design(int(math.log2(d)))
        cfg = lq.CertificateConfig(epsilon=eps, delta=delta, ensemble=ensemble,
                                   noise=lq.GaussianNoise(sigma))
        for k in (1, 2):
            n_hats = np.empty(runs)
            fails = 0
            for rep in range(runs):
                g = np.random.default_rng((1407, d, k, rep))
                state = lq.random_rank_k_state(d, k, g)
                cert = lq.run_certificate(state, cfg, g)
                n_hats[rep] = cert.n_hat
                err = lq.frobenius_norm(cert.theta_hat - state)
                fails += int((not cert.stopped) or err > eps)
            medians[(d, k)] = float(np.median(n_hats))
            fail_rates[(d, k)] = fails / runs
            assert fails / runs <= delta + 0.05, f"d={d} k={k}: failure rate {fails / runs}"
    assert medians[(4, 2)] >= medians[(4, 1)]
    assert medians[(8, 2)] >= medians[(8, 1)]
    assert medians[(8, 1)] <= 4 * medians[(4, 1)]
    assert medians[(8, 2)] <= 4 * medians[(4, 2)]
    _report(7, True, f"failure rates {fail_rates} (limit {delta + 0.05}); "
                     f"median budgets {medians}: nondecreasing in rank, "
                     f"d-scaling factor <= 4")


@pytest.mark.slow
def test_criterion_8_nuclear_set_properties():
    d, n, k0, sigma, delta = 16, 8192, 2, 0.1, 0.1
    ensemble = lq.pauli_design(4)
    fixture = lq.PilotFixture(ensemble=ensemble, sigma=sigma, n=n, rank=k0, reps=150)
    constants = lq.calibrate_nuclear(fixture, delta, np.random.SeedSequence((1408, 0)))
    rate = lq.RateFunction(constants["pilot_D"], sigma, d, n)
    cfg = lq.NuclearSetConfig(C=constants["nuclear_C"], c_v=constants["nuclear_c_v"],
                              rate=rate, delta=delta)
    reps = 500
    covered = np.empty(reps, dtype=bool)
    small_rank = np.empty(reps, dtype=bool)
    spectrum_ok = np.empty(reps, dtype=bool)
    center_close = np.empty(reps, dtype=bool)
    j = np.arange(1, d + 1)
    for rep in range(reps):
        g = np.random.default_rng((1409, rep))
        state = lq.random_rank_k_state(d, k0, g)
        pilot_batch = lq.measure_gaussian(lq.draw_plan(ensemble, n, g), state, sigma, g)
        pilot = lq.pilot_estimate(pilot_batch)
        second = lq.measure_gaussian(lq.draw_plan(ensemble, n, g), state, sigma, g)
        est = lq.eigenvalue_estimator(second, pilot, cfg, pilot_batch=pilot_batch)
        report = lq.nuclear_confidence_set(pilot, est, cfg)
        covered[rep] = report.contains(state)
        small_rank[rep] = report.k_hat <= 2 * k0
        truth = np.sort(np.linalg.eigvalsh(state))[::-1]
        gaps = np.abs(np.cumsum(est.lambdas) - np.cumsum(truth))
        spectrum_ok[rep] = bool(np.all(gaps <= 2.0 * j * est.deviation_scale))
        center_close[rep] = (
            lq.frobenius_norm(pilot - report.center) <= rate(report.k_hat) + 1e-9
        )
        # adaptivity: the ball never scales past the rank-2k0 radius
        assert math.sqrt(report.radius_sq) <= cfg.C * math.sqrt(2 * k0) * rate(2 * k0) + 1e-12
    cov = covered.mean()
    ok = (
        cov >= 1 - delta - 0.04
        and small_rank.mean() >= 0.90
        and spectrum_ok.mean() >= 0.95
        and center_close.all()
    )
    _report(8, ok, f"coverage {cov:.3f} (>= {1 - delta - 0.04}); k_hat <= {2 * k0} on "
                   f"{small_rank.mean():.3f} (>= 0.90); partial-sum bound on "
                   f"{spectrum_ok.mean():.3f} (>= 0.95); center within rate on all reps")


# one top-level config, one seed, all four design/error tables
CLI_CONFIG = """design = pauli,gaussian
eta = dirac,pauli
R = 0.1
n_grid = 20,40
reps = 25
d = 4
seed = 33
constants = simulation
"""


def _run_cli(args, cwd):
    # The child runs in another cwd, where a relative PYTHONPATH entry (such
    # as ``src``) no longer resolves; put the absolute root of the package
    # this process imported first, so both run the same code.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(lq.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "lowrank_uq.cli", *args],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": "0"},
    )


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(CLI_CONFIG)
    outputs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        res = _run_cli(["simulate", "--config", str(cfg), "--out", str(outdir)], tmp_path)
        assert res.returncode == 0, res.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert outputs[0] == outputs[1]

    payloads = []
    for tag in ("ca", "cb"):
        workdir = tmp_path / tag
        workdir.mkdir()
        res = _run_cli(
            ["certify", "--d", "4", "--rank", "1", "--eps", "0.5", "--seed", "5",
             "--design", "pauli"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        payloads.append((res.stdout, (workdir / "certify_epochs.csv").read_bytes()))
    assert payloads[0] == payloads[1]
    json.loads(payloads[0][0].strip().split("\n")[-1])  # valid one-object JSON
    _report(9, True, "byte-identical CSV and JSON under repeated seeded CLI runs")
