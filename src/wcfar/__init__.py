"""Worst-case false alarm rate estimation and extrapolation for
verification score corpora.

Given non-target detection scores grouped by speaker pair, this package
estimates the probability of falsely accepting the closest of N candidate
impostors, fits a hierarchical Bayesian model of the pair score
distributions by variational EM, and uses the fitted model to extrapolate
that probability to impostor populations far larger than the corpus.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InfeasibleMomentsError, NumericError, ParseError
from .estimators import (
    DiagnosticsReport,
    EstimateWithCI,
    EstimatorConfig,
    confidence_interval,
    diagnose,
    estimate_pfa_worst_case,
    estimate_pfa_zero_effort,
)
from .inference import FitReport, PosteriorFactors, SufficientStats, elbo, fit
from .metrics import DcfParams, ThresholdSpec, eer_threshold, empirical_pfa, min_dcf_threshold
from .model import (
    Hyperparameters,
    PairDraw,
    TargetDraw,
    marginal_score_samples,
    predict_pfa_closed_form,
    predict_pfa_sampling,
    sample_pair,
    sample_scores,
    sample_target,
)
from .score_data import (
    CorpusSummary,
    LabeledScoreSet,
    PackedCorpus,
    corpus_stats,
    load_corpus,
    load_labeled_scores,
)
from .special_math import (
    GammaParams,
    GaussianParams,
    InvGammaParams,
    digamma,
    fit_gamma_from_expectations,
    fit_inv_gamma_from_expectations,
    normal_cdf,
    sample_gamma,
    sample_inv_gamma,
)
from .streams import RngStream
from .synthetic import SyntheticSpec, ToyAsvSpec, generate_model_corpus, generate_toy_asv_corpus

__all__ = [
    "ConfigError",
    "CorpusSummary",
    "DcfParams",
    "DiagnosticsReport",
    "EstimateWithCI",
    "EstimatorConfig",
    "FitReport",
    "GammaParams",
    "GaussianParams",
    "Hyperparameters",
    "InfeasibleMomentsError",
    "InvGammaParams",
    "LabeledScoreSet",
    "NumericError",
    "PackedCorpus",
    "PairDraw",
    "ParseError",
    "PosteriorFactors",
    "RngStream",
    "SufficientStats",
    "SyntheticSpec",
    "TargetDraw",
    "ThresholdSpec",
    "ToyAsvSpec",
    "confidence_interval",
    "corpus_stats",
    "diagnose",
    "digamma",
    "eer_threshold",
    "elbo",
    "empirical_pfa",
    "estimate_pfa_worst_case",
    "estimate_pfa_zero_effort",
    "fit",
    "fit_gamma_from_expectations",
    "fit_inv_gamma_from_expectations",
    "generate_model_corpus",
    "generate_toy_asv_corpus",
    "load_corpus",
    "load_labeled_scores",
    "marginal_score_samples",
    "min_dcf_threshold",
    "normal_cdf",
    "predict_pfa_closed_form",
    "predict_pfa_sampling",
    "sample_gamma",
    "sample_inv_gamma",
    "sample_pair",
    "sample_scores",
    "sample_target",
]
