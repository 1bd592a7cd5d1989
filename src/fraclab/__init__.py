"""fraclab: simulation, calibration and estimation for fractional diffusions.

Submodules by topic:

* :mod:`fraclab.grids` - grids, trajectories, parameter/seed containers
* :mod:`fraclab.fgn` - fGn autocovariance and Toeplitz likelihood machinery
* :mod:`fraclab.simulate` - exact node-level samplers for the processes studied
* :mod:`fraclab.signatures` - truncated signature algebra and p-variation
* :mod:`fraclab.calibration` - driver calibrations and the forward solution map
* :mod:`fraclab.likelihood` - approximate log-likelihood, scores, profile MLE
* :mod:`fraclab.estimators` - subsampled variance and Hurst estimators
* :mod:`fraclab.traces` - shifted-window trace diagnostics and Wick moments
* :mod:`fraclab.tfe` - two-timescale averaging loss and estimator
* :mod:`fraclab.experiments` - reproducible experiment harness
* :mod:`fraclab.cli` - command line interface
"""

# loaded for bench/tracing.py, which patches golden_section_minimize by name
from . import optimize  # noqa: F401
from .calibration import (
    CalibrationDiagnostic,
    CalibrationLevel,
    convergence_diagnostic,
    forward_map,
    interpolation_calibration,
    inverse_calibration,
    phi_ratio,
)
from .estimators import (
    admissible_alpha,
    decimated,
    expected_bias_h_half,
    hurst_hat,
    sigma2_hat,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    experiment_defaults,
    experiment_names,
    load_config,
    parse_config_text,
    read_csv,
    run_config,
    write_csv,
    write_outputs,
)
from .fgn import (
    FgnCovariance,
    fgn_autocovariance,
    fou_autocovariance_expansion,
    stationary_fou_variance,
    unit_autocovariance,
    unit_fou_autocovariance,
)
from .grids import (
    FouParams,
    IncrementVector,
    MultiscaleParams,
    NumericFailure,
    SamplingGrid,
    SeedSpec,
    Trajectory,
    increments,
    make_grid,
    second_order_increments,
)
from .likelihood import (
    ExpansionTerms,
    FouLikelihood,
    ProfileMleResult,
    ScoreVector,
    expansion_terms,
    log_likelihood,
    profile_mle,
    score,
)
from .signatures import (
    ScalarRoughLift,
    TruncatedTensor,
    holder_distance,
    lift_level_for_hurst,
    lift_scalar_path,
    p_variation_norm,
    pwl_signature,
    rough_pvar_distance,
    segment_signature,
    shuffle_residual,
    shuffle_residuals,
    shuffles,
    tensor_multiply,
    tensor_unit,
)
from .simulate import (
    PhysicalFbmSample,
    TfeSystemSample,
    sample_approximate_model,
    sample_fgn,
    sample_physical_fbm,
    sample_slow_component,
    sample_stationary_fou,
    sample_tfe_system,
)
from .tfe import (
    TfeInstance,
    averaged_trajectory,
    sup_node_error,
    tfe_estimate,
    tfe_loss,
)
from .traces import (
    ConjectureCell,
    QMomentResult,
    ScanReport,
    conjecture_scan,
    q_moment,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationDiagnostic",
    "CalibrationLevel",
    "ConfigError",
    "ConjectureCell",
    "ExpansionTerms",
    "ExperimentConfig",
    "ExperimentResult",
    "FgnCovariance",
    "FouLikelihood",
    "FouParams",
    "IncrementVector",
    "MultiscaleParams",
    "NumericFailure",
    "PhysicalFbmSample",
    "ProfileMleResult",
    "QMomentResult",
    "ResultRow",
    "SamplingGrid",
    "ScalarRoughLift",
    "ScanReport",
    "ScoreVector",
    "SeedSpec",
    "TfeInstance",
    "TfeSystemSample",
    "Trajectory",
    "TruncatedTensor",
    "admissible_alpha",
    "averaged_trajectory",
    "conjecture_scan",
    "convergence_diagnostic",
    "decimated",
    "expansion_terms",
    "expected_bias_h_half",
    "experiment_defaults",
    "experiment_names",
    "fgn_autocovariance",
    "forward_map",
    "fou_autocovariance_expansion",
    "holder_distance",
    "hurst_hat",
    "increments",
    "interpolation_calibration",
    "inverse_calibration",
    "lift_level_for_hurst",
    "lift_scalar_path",
    "load_config",
    "log_likelihood",
    "make_grid",
    "p_variation_norm",
    "parse_config_text",
    "phi_ratio",
    "profile_mle",
    "pwl_signature",
    "q_moment",
    "read_csv",
    "rough_pvar_distance",
    "run_config",
    "sample_approximate_model",
    "sample_fgn",
    "sample_physical_fbm",
    "sample_slow_component",
    "sample_stationary_fou",
    "sample_tfe_system",
    "score",
    "second_order_increments",
    "segment_signature",
    "shuffle_residual",
    "shuffle_residuals",
    "shuffles",
    "sigma2_hat",
    "stationary_fou_variance",
    "sup_node_error",
    "tensor_multiply",
    "tensor_unit",
    "tfe_estimate",
    "tfe_loss",
    "unit_autocovariance",
    "unit_fou_autocovariance",
    "write_csv",
    "write_outputs",
    "__version__",
]
