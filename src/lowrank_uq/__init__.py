"""Low-rank matrix recovery from trace measurements, with honest data-driven
confidence sets (Frobenius and nuclear norm) and a sequential stopping
certificate."""

from .calibration import (
    CalibrationError,
    PilotFixture,
    calibrate_ball_constant,
    calibrate_nuclear,
    calibrate_pilot_risk,
    run_calibration,
)
from .certificates import Certificate, CertificateConfig, EpochRecord, run_certificate
from .constants_io import load_constants, save_constants
from .experiments import (
    ExperimentSpec,
    ResultRow,
    make_error_matrix,
    merged_table_rows,
    result_rows_csv,
    run_experiment,
)
from .frobenius_sets import (
    DEFAULT_SIMULATION_CONSTANTS,
    bernoulli_deviation_quantile,
    calibrated_bound,
    chi_square_deviation_quantile,
    frobenius_ball,
    log_tail_constant,
    paired_rss_statistic,
    pauli_coverage_rate,
    pauli_deviation_constant,
    reavg_radius_sq,
    reavg_statistic,
    rss_radius_sq,
    rss_statistic,
    ustat_radius_sq,
    ustat_statistic,
)
from .matrices import (
    EigendecompositionError,
    SpectralDecomposition,
    best_rank_k,
    check_hermitian,
    check_quantum_state,
    eigh,
    frobenius_norm,
    haar_orthonormal_columns,
    hermitize,
    nuclear_norm,
    operator_norm,
    project_rank_k_state_space,
    project_state_space,
    project_to_simplex,
    random_rank_k_state,
    read_matrix_text,
    write_matrix_text,
)
from .measurement import (
    BernoulliPauliNoise,
    GaussianNoise,
    MeasurementBatch,
    measure_bernoulli_pauli,
    measure_gaussian,
    noise_scale,
    pauli_outcome_probabilities,
    read_batch_csv,
    write_batch_csv,
)
from .nuclear_sets import (
    EigenvalueEstimate,
    NuclearSetConfig,
    eigenvalue_estimator,
    nuclear_confidence_set,
    rip_rate,
    select_k_hat,
)
from .recovery import (
    PilotConfig,
    RateFunction,
    SolverDivergenceError,
    pilot_estimate,
    pilot_to_state,
    rank_reduce,
)
from .reports import ConfidenceReport, report_csv_header, report_csv_row
from .sensing import (
    DesignEnsemble,
    SensingPlan,
    adjoint_average,
    apply_sampling,
    draw_paired_plan,
    draw_plan,
    empirical_rip,
    full_basis_plan,
    gaussian_design,
    index_to_word,
    pauli_basis,
    pauli_basis_element,
    pauli_coefficients,
    pauli_design,
    random_rank_k_direction,
    read_plan,
    rip_statistic,
    word_to_index,
    write_plan,
)

__version__ = "0.1.0"
