"""Regime analysis of multivariate gold-silver price series.

Three complementary views of the same weekly data:

* a SOM periodization of the full 14-dimensional quotation record,
* a Markov-switching autoregression, with two or more regimes, of the
  spread between the highest and lowest gold-silver price, fitted by EM,
* penalized-contrast change-point detection on that spread, in mean or in
  mean and variance,

plus a pipeline/CLI that wires them together and cross-tabulates the views.
"""

from .changepoint import (
    SegCostTable,
    SegMode,
    Segmentation,
    detect,
    optimal_segmentation_for_k,
)
from .data import (
    FeatureSet,
    QuotationTable,
    SpreadSeries,
    build_features,
    compute_spread,
    impute_missing,
    parse_dataset,
    write_dataset,
)
from .errors import (
    BimetalError,
    DataError,
    DegenerateModelError,
    ImputationError,
    MonotonicityError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .pipeline import (
    AnalysisBundle,
    RunConfig,
    load_bundle,
    run_analyze,
    run_report,
)
from .regression import LinearMean, MlpMean, make_design
from .simulate import run_simulate
from .som import (
    MacroClassification,
    SomGrid,
    bmu_indices,
    hac_macro_classes,
    periodize,
    quantization_error,
    train_som,
)
from .switching import (
    EmResult,
    MsParams,
    MsSpec,
    RegimeProbabilities,
    em_fit,
    hamilton_filter,
    kim_smoother,
    stationary_distribution,
    transition_from_pq,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisBundle",
    "BimetalError",
    "DataError",
    "DegenerateModelError",
    "EmResult",
    "FeatureSet",
    "ImputationError",
    "LinearMean",
    "MacroClassification",
    "MlpMean",
    "MonotonicityError",
    "MsParams",
    "MsSpec",
    "NumericalError",
    "ParseError",
    "QuotationTable",
    "RegimeProbabilities",
    "RunConfig",
    "SegCostTable",
    "SegMode",
    "Segmentation",
    "SomGrid",
    "SpreadSeries",
    "ValidationError",
    "__version__",
    "bmu_indices",
    "build_features",
    "compute_spread",
    "detect",
    "em_fit",
    "hac_macro_classes",
    "hamilton_filter",
    "impute_missing",
    "kim_smoother",
    "load_bundle",
    "make_design",
    "optimal_segmentation_for_k",
    "parse_dataset",
    "periodize",
    "quantization_error",
    "run_analyze",
    "run_report",
    "run_simulate",
    "stationary_distribution",
    "train_som",
    "transition_from_pq",
    "write_dataset",
]
