"""sigfit: fixed-length coefficient vectors from variable-length pen-capture
time series, via chi-square curve fitting with model-family selection and a
verification-quality harness."""

from ._kernels import BACKEND
from .errors import SigfitError
from .gof import GofReport, gof_report
from .ingest import (
    ChannelSeries,
    SignatureSample,
    extract_channel,
    load_dataset,
    parse_sample,
)
from .models import FAMILIES, evaluate, initial_guess, jacobian
from .pipeline import (
    FeatureVector,
    PipelineConfig,
    preprocess_sample,
    uniformize_dataset,
)
from .selection import AreaReport, area_between, rank_families, segment
from .solver import (
    FitProblem,
    FitResult,
    SolverConfig,
    fit,
    fit_series,
)
from .verify import Protocol, compare_preprocessors, roc_and_eer, score_trials

__version__ = "0.1.0"

__all__ = [
    "AreaReport",
    "BACKEND",
    "ChannelSeries",
    "FAMILIES",
    "FeatureVector",
    "FitProblem",
    "FitResult",
    "GofReport",
    "PipelineConfig",
    "Protocol",
    "SigfitError",
    "SignatureSample",
    "SolverConfig",
    "__version__",
    "area_between",
    "compare_preprocessors",
    "evaluate",
    "extract_channel",
    "fit",
    "fit_series",
    "gof_report",
    "initial_guess",
    "jacobian",
    "load_dataset",
    "parse_sample",
    "preprocess_sample",
    "rank_families",
    "roc_and_eer",
    "score_trials",
    "segment",
    "uniformize_dataset",
]
