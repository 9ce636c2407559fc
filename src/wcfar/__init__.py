"""Worst-case false alarm rate estimation and extrapolation for
verification score corpora.

Given non-target detection scores grouped by speaker pair, this package
estimates the probability of falsely accepting the closest of N candidate
impostors, fits a hierarchical Bayesian model of the pair score
distributions by variational EM, and uses the fitted model to extrapolate
that probability to impostor populations far larger than the corpus.
"""

__version__ = "0.1.0"
