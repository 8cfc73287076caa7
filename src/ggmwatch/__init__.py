"""Online detection of local precision-matrix changes in streaming Gaussian data.

The package covers model generation, the standardized sup-norm deviation
statistic, exact and closed-form critical values, CLIME precision estimation,
the sequential detector, and a Monte Carlo experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .clime import (
    ClimeConfig,
    PrecisionEstimate,
    clime_column,
    clime_estimate,
    normalized_error,
    psd_project,
    sample_covariance,
)
from .detector import DetectionEvent, Detector, DetectorConfig, run_offline
from .modelgen import (
    AssumptionReport,
    ChangeScenario,
    GaussianStream,
    PrecisionMatrix,
    assess,
    cholesky_factor,
    gen_chain_precision,
    gen_hub_precision,
    gen_random_sparse,
    invert_spd,
    make_antidiag_change,
    make_block_change,
    make_uniform_change,
    sym_eig,
)
from .statistic import (
    ChangeSignal,
    DeviationMatrix,
    change_signal,
    detectability_margin,
    oracle_statistic,
    plugin_statistic,
    scale_entries,
)
from .threshold import (
    InnerProductTail,
    critical_value,
    critical_value_asymptotic,
    critical_value_exact,
    critical_value_union,
    inner_product_tail,
)

__all__ = [
    "__version__",
    "AssumptionReport",
    "ChangeScenario",
    "ChangeSignal",
    "ClimeConfig",
    "DetectionEvent",
    "Detector",
    "DetectorConfig",
    "DeviationMatrix",
    "GaussianStream",
    "InnerProductTail",
    "PrecisionEstimate",
    "PrecisionMatrix",
    "assess",
    "change_signal",
    "cholesky_factor",
    "clime_column",
    "clime_estimate",
    "critical_value",
    "critical_value_asymptotic",
    "critical_value_exact",
    "critical_value_union",
    "detectability_margin",
    "gen_chain_precision",
    "gen_hub_precision",
    "gen_random_sparse",
    "inner_product_tail",
    "invert_spd",
    "make_antidiag_change",
    "make_block_change",
    "make_uniform_change",
    "normalized_error",
    "oracle_statistic",
    "plugin_statistic",
    "psd_project",
    "run_offline",
    "sample_covariance",
    "scale_entries",
    "sym_eig",
]
