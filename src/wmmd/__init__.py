"""Optimal-transport and kernel discrepancies between probability measures.

The package computes Wasserstein distances (exact discrete solvers and 1-D
closed forms) and maximum mean discrepancies (double sums,
Gaussian-mixture closed forms, spectral quadrature, smoothed-L2 identity),
implements random-Fourier-feature sketching with mergeable sketches and a
greedy Dirac-mixture decoder, and ships a set of numerical experiments
probing how the two families of distances control each other.
"""

from .measures import (
    DiscreteMeasure,
    GaussianMixture,
    RegularizerSpec,
    project,
    sample,
)
from .kernels import KernelSpec
from .discrepancy import mmd_discrete, mmd_gaussian_kernel, mmd_sliced, smoothed_l2
from .transport import w1d, w_exact, w_brute, translation_split
from .sketch import draw_features, sketch_samples, sketch_measure, merge, sketch_distance

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure",
    "GaussianMixture",
    "RegularizerSpec",
    "KernelSpec",
    "project",
    "sample",
    "mmd_discrete",
    "mmd_gaussian_kernel",
    "mmd_sliced",
    "smoothed_l2",
    "w1d",
    "w_exact",
    "w_brute",
    "translation_split",
    "draw_features",
    "sketch_samples",
    "sketch_measure",
    "merge",
    "sketch_distance",
    "__version__",
]
