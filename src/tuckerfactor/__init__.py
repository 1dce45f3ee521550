"""Estimation toolkit for Tucker tensor factor models.

A numpy library for decomposing samples of D-way tensor observations
into a low-rank signal part (core tensors times per-mode loading
matrices) plus noise: mode-wise PCA, projected and iteratively projected
refinements, eigenvalue-ratio rank selection, an auto-covariance
baseline, a simulation engine, evaluation metrics, and a binary file
format with a small CLI.
"""

from .baseline import estimate_ranks_tipup, itipup_fit, tipup_mode_matrix
from .estimation import (
    FactorFit,
    SeriesMoments,
    estimate_ranks,
    extract_factors,
    ipmopca_fit,
    mode_covariance,
    mopca_fit,
    pmopca_fit,
    projected_mode_covariance,
    projected_series,
    reconstruct_signals,
    select_rank_from_eigenvalues,
    series_moments,
    varimax,
)
from .experiment import (
    EstimatorConfig,
    EvalReport,
    ExperimentConfig,
    parse_experiment_config,
    run_experiment,
)
from .io import (
    BadMagicError,
    PayloadSizeError,
    TensorSeriesFormatError,
    VersionMismatchError,
    read_loadings,
    read_tensor_series,
    write_loadings,
    write_tensor_series,
)
from .metrics import (
    column_space_distance,
    rank_accuracy,
    reconstruction_error,
    signal_rmse,
)
from .simulation import (
    SCENARIOS,
    SimConfig,
    SimTruth,
    generate_loadings,
    noiseless_dataset,
    replication_rng,
    scenario_config,
    simulate_core_path,
    simulate_dataset,
    simulate_noise_path,
)
from .spectral import (
    subspace_distance,
    thin_left_singular,
    top_k_eigensystem,
)
from .tensor import (
    fold,
    frobenius_norm,
    kronecker,
    mode_product,
    multi_mode_product,
    unfold,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "EstimatorConfig",
    "EvalReport",
    "ExperimentConfig",
    "FactorFit",
    "PayloadSizeError",
    "SCENARIOS",
    "SeriesMoments",
    "SimConfig",
    "SimTruth",
    "TensorSeriesFormatError",
    "VersionMismatchError",
    "column_space_distance",
    "estimate_ranks",
    "estimate_ranks_tipup",
    "extract_factors",
    "fold",
    "frobenius_norm",
    "generate_loadings",
    "ipmopca_fit",
    "itipup_fit",
    "kronecker",
    "mode_covariance",
    "mode_product",
    "mopca_fit",
    "multi_mode_product",
    "noiseless_dataset",
    "parse_experiment_config",
    "pmopca_fit",
    "projected_mode_covariance",
    "projected_series",
    "rank_accuracy",
    "read_loadings",
    "read_tensor_series",
    "reconstruct_signals",
    "reconstruction_error",
    "replication_rng",
    "run_experiment",
    "scenario_config",
    "select_rank_from_eigenvalues",
    "series_moments",
    "signal_rmse",
    "simulate_core_path",
    "simulate_dataset",
    "simulate_noise_path",
    "subspace_distance",
    "thin_left_singular",
    "tipup_mode_matrix",
    "top_k_eigensystem",
    "unfold",
    "varimax",
    "vectorize",
    "write_loadings",
    "write_tensor_series",
]
