"""Worst-case false alarm rate estimation and extrapolation for
verification score corpora.

Given non-target detection scores grouped by speaker pair, this package
estimates the probability of falsely accepting the closest of N candidate
impostors, fits a hierarchical Bayesian model of the pair score
distributions by variational EM, and uses the fitted model to extrapolate
that probability to impostor populations far larger than the corpus.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ["NumericError"],
    "estimators": ["EstimateWithCI", "diagnose", "estimate_pfa_worst_case", "estimate_pfa_zero_effort"],
    "inference": ["PosteriorFactors", "e_step", "fit"],
    "metrics": ["DcfParams", "eer_threshold", "min_dcf_threshold"],
    "model": ["Hyperparameters", "predict_pfa"],
    "score_data": ["PackedCorpus", "load_corpus", "load_labeled_scores"],
    "special_math": ["gamma_shape"],
    "streams": ["RngStream"],
    "synthetic": ["SyntheticSpec", "ToyAsvSpec"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the names the command line and the acceptance suite use
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import `name` of `__all__` from its module on first use (PEP 562), so `import wcfar` loads no submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return globals().setdefault(name, getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name))
