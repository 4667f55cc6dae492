"""The benchmark's workloads, their inputs and their output checks.

Every workload is a closed loop over a fixed round of op classes: one caller
issues the next op after the previous one returns.  Op ``i`` belongs to class
``classes[i % len(classes)]`` and draws its inputs from the seed sequence
(workload seed, workload code, i), so an op's inputs and outputs depend on
the seed and its index only, never on timing or on the ops run before it.

The package is driven through its public names, looked up on ``lowrank_uq``
at call time so that a traced run sees every call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import lowrank_uq as lq

D_TABLES = 32
N_GRID = (100, 200, 500, 1000, 2000, 5000)
WARMUP_INDEX = 2**32  # seed index of the warm-up op, outside any run's range
# per-cell false-alarm level of the aggregate reference checks
CHECK_ALPHA = 1e-6
DIAMETER_Z = 5.0

# Reference cells of the acceptance suite at R = ||eta||_F^2 = 1: TABLE1 for
# the isotropic design (coverage within 0.03, diameter within 15%) and the
# Pauli-design honesty failures of criteria 2 and 3 (coverage within 0.06).
_TABLE1_R1 = {
    ("UStat", "coverage"): (0.93, 0.96, 0.97, 0.98, 0.98, 0.98),
    ("UStat", "diameter"): (2.43, 1.84, 1.44, 1.27, 1.17, 1.10),
    ("RSS", "coverage"): (0.99, 0.99, 0.99, 0.99, 0.99, 0.99),
    ("RSS", "diameter"): (1.69, 1.49, 1.32, 1.22, 1.16, 1.10),
}
REFERENCES = {}  # (design, eta, method, n) -> (coverage, tol, diameter or None)
for _j, _n in enumerate(N_GRID):
    for _method in ("UStat", "RSS"):
        REFERENCES[("gaussian", "dirac", _method, _n)] = (
            _TABLE1_R1[(_method, "coverage")][_j], 0.03, _TABLE1_R1[(_method, "diameter")][_j])
REFERENCES[("pauli", "pauli", "RSS", 100)] = (0.12, 0.06, None)
REFERENCES[("pauli", "pauli", "UStat", 200)] = (0.22, 0.06, None)
REFERENCES[("pauli", "dirac", "UStat", 200)] = (0.54, 0.06, None)
DIAMETER_TOL = 0.15


class OpResult:
    """One op's label, the outputs that must repeat exactly at a fixed seed,
    the raw values the aggregate checks need, and its failed checks."""

    __slots__ = ("label", "outputs", "values", "problems")

    def __init__(self, label, outputs, values, problems):
        self.label = label
        self.outputs = outputs
        self.values = values
        self.problems = problems


class Workload:
    name = ""
    code = 0
    classes = ()
    rounds_per_s = 1.0  # rounds per second on a 2-core box; sizes traced runs

    def __init__(self, seed: int):
        self.seed = seed

    def label(self, index: int) -> str:
        return self.label_of(self.classes[index % len(self.classes)])

    @staticmethod
    def label_of(cls) -> str:
        return str(cls)

    def failed_op(self, index: int, exc: Exception) -> OpResult:
        """Result of an op that raised: it fails and feeds no aggregate."""
        return OpResult(self.label(index), ("raised", repr(exc)), None,
                        [f"{self.label(index)}: op {index} raised {exc!r}"])

    def op_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.code, index)))

    def setup(self) -> None:
        """Build the inputs every op shares (timed as part of set-up)."""

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def aggregate(self, results) -> tuple:
        """Checks over all ops of a run: (indices of ops failing them, problem
        messages, quality figures)."""
        return set(), [], {}


# --- tables ------------------------------------------------------------------

class Tables(Workload):
    """One op is one ``run_experiment`` call at one (design, eta, n) with
    R = 1, reps = 1 and workers = 1: one replication of each statistic."""

    designs = ()

    def __init__(self, seed):
        super().__init__(seed)
        self.classes = tuple((design, eta, n) for design, eta in self.designs for n in N_GRID)

    @staticmethod
    def label_of(cls):
        design, eta, n = cls
        return f"{design}/{eta} n={n}"

    def run_op(self, index):
        design, eta, n = self.classes[index % len(self.classes)]
        spec_seed = int(self.op_rng(index).integers(2**63))
        spec = lq.ExperimentSpec(design=design, error_kind=eta, error_norm_sq=1.0,
                                 n_grid=(n,), reps=1, d=D_TABLES, seed=spec_seed)
        rows = lq.run_experiment(spec, workers=1)
        label = self.label(index)
        problems = []
        values = {}
        for row in rows:
            fields = (row.coverage, row.mean_diameter, row.median_norm_err, row.q05, row.q95)
            if row.n != n or row.coverage not in (0.0, 1.0) or not all(map(math.isfinite, fields)):
                problems.append(f"{label}: malformed {row.method} row {row}")
            values[row.method] = (row.coverage, row.mean_diameter)
        if sorted(values) != ["RSS", "UStat"]:
            problems.append(f"{label}: rows for {sorted(values)}, expected RSS and UStat")
        outputs = tuple((r.method, r.coverage, r.mean_diameter, r.median_norm_err) for r in rows)
        return OpResult(label, outputs, values, problems)

    def aggregate(self, results):
        cells = {}  # (design, eta, method, n) -> [op indices, coverages, diameters]
        for index, res in enumerate(results):
            if res.values is None:
                continue
            design, eta, n = self.classes[index % len(self.classes)]
            for method, (coverage, diameter) in res.values.items():
                cell = cells.setdefault((design, eta, method, n), ([], [], []))
                cell[0].append(index)
                cell[1].append(coverage)
                cell[2].append(diameter)
        failed, problems = set(), []
        for key, (indices, coverages, diameters) in cells.items():
            why = _reference_mismatch(key, coverages, diameters)
            if why:
                failed.update(indices)
                problems.append(why)
        honest = [np.mean(c[1]) for key, c in cells.items() if key[0] == "gaussian"]
        quality = {"cells": len(cells),
                   "replications_per_cell_min": min((len(c[0]) for c in cells.values()), default=0),
                   "table_coverage_min": min(honest) if honest else None}
        return failed, problems, quality


def _reference_mismatch(key, coverages, diameters):
    """Compare a cell with its acceptance reference, the tolerance widened by
    the Monte-Carlo error of the replications this run made.

    Coverage fails only when the count of covered replications is implausible
    (two-sided binomial tail below CHECK_ALPHA) for every coverage within the
    reference tolerance; the mean diameter fails when it is off the reference
    by more than the relative tolerance plus DIAMETER_Z standard errors.
    """
    ref = REFERENCES.get(key)
    if ref is None:
        return None
    ref_cov, tol, ref_diam = ref
    reps = len(coverages)
    covered = int(round(sum(coverages)))
    p_lo, p_hi = max(ref_cov - tol, 0.0), min(ref_cov + tol, 1.0)
    if stats.binom.cdf(covered, reps, p_lo) < CHECK_ALPHA or (
            stats.binom.sf(covered - 1, reps, p_hi) < CHECK_ALPHA):
        return f"{key}: coverage {covered}/{reps} vs reference {ref_cov} +- {tol}"
    if ref_diam is not None and reps >= 3:
        mean = float(np.mean(diameters))
        sem = float(np.std(diameters, ddof=1)) / math.sqrt(reps)
        if abs(mean - ref_diam) > DIAMETER_TOL * ref_diam + DIAMETER_Z * sem:
            return f"{key}: mean diameter {mean:.4f} vs reference {ref_diam} ({reps} reps)"
    return None


class TablesPauli(Tables):
    name = "tables_pauli"
    code = 1
    rounds_per_s = 3.5
    designs = (("pauli", "pauli"), ("pauli", "dirac"))


class TablesGaussian(Tables):
    name = "tables_gaussian"
    code = 2
    rounds_per_s = 0.75
    designs = (("gaussian", "dirac"), ("gaussian", "pauli"))


# --- certificates ------------------------------------------------------------

EPSILON, DELTA, SIGMA = 0.5, 0.1, 0.05


class Certify(Workload):
    """One op is one ``run_certificate`` on a fresh random state.

    The first four classes are the criterion-7 fixture (Pauli d in {4, 8},
    rank in {1, 2}); then a Pauli d = 4 slice under the Bernoulli channel
    with 64 preparations, whose later epochs use the paired statistic, and a
    Hermitian-Gaussian d = 4 slice (the CLI's ``--design gaussian``).
    """

    name = "certify"
    code = 3
    rounds_per_s = 1.3
    classes = (("pauli", 4, 1, "gaussian"), ("pauli", 4, 2, "gaussian"),
               ("pauli", 8, 1, "gaussian"), ("pauli", 8, 2, "gaussian"),
               ("pauli", 4, 1, "bernoulli:64"), ("gaussian", 4, 1, "gaussian"))

    def setup(self):
        self.configs = []
        for design, d, _, noise in self.classes:
            ensemble = (lq.pauli_design(int(math.log2(d))) if design == "pauli"
                        else lq.gaussian_design(d, hermitian=True))
            channel = (lq.GaussianNoise(SIGMA) if noise == "gaussian"
                       else lq.BernoulliPauliNoise(int(noise.split(":")[1])))
            self.configs.append(lq.CertificateConfig(
                epsilon=EPSILON, delta=DELTA, ensemble=ensemble, noise=channel))

    @staticmethod
    def label_of(cls):
        design, d, k, noise = cls
        return f"{design} d={d} k={k} {noise}"

    def run_op(self, index):
        slot = index % len(self.classes)
        design, d, k, noise = self.classes[slot]
        label = self.label(index)
        g = self.op_rng(index)
        state = lq.random_rank_k_state(d, k, g)
        cert = lq.run_certificate(state, self.configs[slot], g)
        problems = []
        try:
            lq.check_quantum_state(cert.theta_hat)
        except ValueError as exc:
            problems.append(f"{label}: theta_hat is not a state ({exc})")
        budgets = sum(e.budget for e in cert.epochs)
        if cert.n_hat != budgets:
            problems.append(f"{label}: n_hat {cert.n_hat} != sum of epoch budgets {budgets}")
        if cert.stopped and not cert.epochs[-1].diameter <= EPSILON:
            problems.append(f"{label}: stopped at diameter {cert.epochs[-1].diameter} > {EPSILON}")
        err = lq.frobenius_norm(cert.theta_hat - state)
        missed = (not cert.stopped) or err > EPSILON
        outputs = (cert.n_hat, cert.stopped, len(cert.epochs), err)
        return OpResult(label, outputs, {"n_hat": cert.n_hat, "missed": missed}, problems)

    def aggregate(self, results):
        values = [r.values for r in results if r.values is not None]
        missed = sum(v["missed"] for v in values)
        quality = {"certificates": len(values),
                   "certificate_coverage": 1.0 - missed / len(values) if values else 0.0,
                   "n_hat_median": float(np.median([v["n_hat"] for v in values])) if values else 0.0}
        return set(), [], quality


# --- nuclear-norm sets ---------------------------------------------------------

NUC_D, NUC_N, NUC_RANK, NUC_SIGMA = 16, 8192, 2, 0.1
CALIBRATION_REPS = 40  # criterion 8 calibrates on 150 replications


class Nuclear(Workload):
    """Criterion-8 fixture.  Set-up calibrates the set's constants once on a
    reduced fixture; one op is pilot sample, pilot, second sample, spectrum
    estimate and nuclear-norm set for a fresh rank-2 state."""

    name = "nuclear"
    code = 4
    rounds_per_s = 70.0
    classes = ("pauli d=16 n=8192 k=2",)

    def setup(self):
        self.ensemble = lq.pauli_design(int(math.log2(NUC_D)))
        fixture = lq.PilotFixture(ensemble=self.ensemble, sigma=NUC_SIGMA, n=NUC_N,
                                  rank=NUC_RANK, reps=CALIBRATION_REPS)
        constants = lq.calibrate_nuclear(
            fixture, DELTA, np.random.SeedSequence((self.seed, self.code, WARMUP_INDEX + 1)))
        rate = lq.RateFunction(constants["pilot_D"], NUC_SIGMA, NUC_D, NUC_N)
        self.config = lq.NuclearSetConfig(C=constants["nuclear_C"], c_v=constants["nuclear_c_v"],
                                          rate=rate, delta=DELTA)

    def run_op(self, index):
        g = self.op_rng(index)
        state = lq.random_rank_k_state(NUC_D, NUC_RANK, g)
        pilot_batch = lq.measure_gaussian(lq.draw_plan(self.ensemble, NUC_N, g), state, NUC_SIGMA, g)
        pilot = lq.pilot_estimate(pilot_batch)
        second = lq.measure_gaussian(lq.draw_plan(self.ensemble, NUC_N, g), state, NUC_SIGMA, g)
        est = lq.eigenvalue_estimator(second, pilot, self.config, pilot_batch=pilot_batch)
        report = lq.nuclear_confidence_set(pilot, est, self.config)
        problems = []
        if not (isinstance(report.k_hat, (int, np.integer)) and 1 <= report.k_hat <= NUC_D):
            problems.append(f"k_hat {report.k_hat} outside [1, {NUC_D}]")
        if not math.isfinite(report.radius_sq):
            problems.append(f"radius_sq {report.radius_sq} is not finite")
        covered = report.contains(state)
        outputs = (int(report.k_hat), report.radius_sq, covered)
        return OpResult(self.label(index), outputs, {"covered": covered}, problems)

    def aggregate(self, results):
        values = [r.values for r in results if r.values is not None]
        covered = sum(v["covered"] for v in values)
        return set(), [], {"sets": len(values),
                           "set_coverage": covered / len(values) if values else 0.0}


WORKLOADS = {w.name: w for w in (TablesPauli, TablesGaussian, Certify, Nuclear)}
