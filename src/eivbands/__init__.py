"""Debiased inference for linear regression with noisy or missing covariates.

The pipeline: `fit_corrected_lasso` solves the measurement-error-corrected
lasso pilot, `run_inference` turns it into debiased per-coordinate estimates
with standard errors, and `simultaneous_bands` widens those into a joint
confidence band via a multiplier bootstrap.  `simstudy` wraps the whole chain
in reproducible Monte Carlo designs, and `eivbands.cli` exposes everything as
a command line.
"""

from .bootstrap import (
    BandResult,
    MultiplierDraws,
    band_covers,
    critical_value,
    multiplier_maxima,
    simultaneous_bands,
)
from .dataio import read_dataset_csv, read_noise_csv, write_dataset_csv
from .debias import (
    DebiasCell,
    DebiasTable,
    PreparedPilot,
    debias_coordinate,
    prepare_pilot,
    run_inference,
)
from .errors import DegeneracyError, EivbandsError, InputError, NumericalError
from .lasso import (
    Dataset,
    FitResult,
    NoiseSpec,
    SolverConfig,
    corrected_gram,
    default_penalty,
    default_radius,
    fit_corrected_lasso,
    hard_threshold,
)
from .mar import MarEstimate
from .mar import estimate as estimate_mar
from .nodewise import NodewiseResult, fit_nodewise
from .simstudy import (
    SimConfig,
    SimReport,
    generate,
    multi_target_study,
    run_study,
    single_target_study,
)

__version__ = "0.1.0"

__all__ = [
    "BandResult",
    "DebiasCell",
    "DebiasTable",
    "Dataset",
    "DegeneracyError",
    "EivbandsError",
    "FitResult",
    "InputError",
    "MarEstimate",
    "MultiplierDraws",
    "NodewiseResult",
    "NoiseSpec",
    "NumericalError",
    "PreparedPilot",
    "SimConfig",
    "SimReport",
    "SolverConfig",
    "band_covers",
    "corrected_gram",
    "critical_value",
    "debias_coordinate",
    "default_penalty",
    "default_radius",
    "estimate_mar",
    "fit_corrected_lasso",
    "fit_nodewise",
    "generate",
    "hard_threshold",
    "multi_target_study",
    "multiplier_maxima",
    "prepare_pilot",
    "read_dataset_csv",
    "read_noise_csv",
    "run_inference",
    "run_study",
    "simultaneous_bands",
    "single_target_study",
    "write_dataset_csv",
    "__version__",
]
