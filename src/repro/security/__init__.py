"""Obliviousness validation: the adversary's view and statistical tests."""

from repro.security.statistics import (
    adversary_view,
    chi_square_uniformity,
    lag_autocorrelation,
    sequences_indistinguishable,
    windowed_uniformity,
)

__all__ = [
    "adversary_view",
    "chi_square_uniformity",
    "lag_autocorrelation",
    "sequences_indistinguishable",
    "windowed_uniformity",
]
