"""Worst-case false alarm rate estimation and extrapolation for
verification score corpora.

Given non-target detection scores grouped by speaker pair, this package
estimates the probability of falsely accepting the closest of N candidate
impostors, fits a hierarchical Bayesian model of the pair score
distributions by variational EM, and uses the fitted model to extrapolate
that probability to impostor populations far larger than the corpus.
"""

__version__ = "0.1.0"

from .errors import NumericError
from .estimators import (
    EstimateWithCI,
    EstimatorConfig,
    diagnose,
    estimate_pfa_worst_case,
    estimate_pfa_zero_effort,
)
from .inference import PosteriorFactors, e_step, fit, sufficient_stats
from .metrics import DcfParams, eer_threshold, min_dcf_threshold
from .model import (
    Hyperparameters,
    marginal_score_samples,
    predict_pfa_closed_form,
    predict_pfa_sampling,
)
from .score_data import PackedCorpus, load_corpus, load_labeled_scores
from .special_math import fit_gamma_from_expectations, fit_inv_gamma_from_expectations
from .streams import RngStream
from .synthetic import SyntheticSpec, ToyAsvSpec, generate_model_corpus, generate_toy_asv_corpus

# the names the command line and the acceptance suite use
__all__ = [
    "DcfParams",
    "EstimateWithCI",
    "EstimatorConfig",
    "Hyperparameters",
    "NumericError",
    "PackedCorpus",
    "PosteriorFactors",
    "RngStream",
    "SyntheticSpec",
    "ToyAsvSpec",
    "diagnose",
    "e_step",
    "eer_threshold",
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
    "predict_pfa_closed_form",
    "predict_pfa_sampling",
    "sufficient_stats",
]
