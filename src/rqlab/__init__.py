"""rqlab: spectral laboratory for clamped higher-order Rayleigh-quotient problems.

Computes the eigenvalue spectra of the quotient
``<(u^(n))^2> / <(u^(n-p))^2>`` over functions on [-1, 1] clamped to order
n-1 at both endpoints, and verifies the stone/moment identity apparatus and
spectral-disjointness facts on the computed eigenpairs at machine precision.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads it, so this
# must precede the first submodule import.  The largest matrix rqlab factors is
# 64 x 64, far below where a second thread pays; OpenBLAS's worker busy-waits
# through the import, on the importing CPU more often than not; and a threaded
# process is unsafe to fork.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .exppoly import ExpPoly, SigmaPolynomial, inner_product, l2_norm_sq
from .invariants import antisym_equals_next_sym
from .problem import ProblemSpec, RootSystem, build_operator, root_system
from .ritz import RitzSystem, assemble, ritz_values
from .solver import EigenPair, SpectrumSlice, scan_spectrum

__all__ = [
    "ExpPoly",
    "SigmaPolynomial",
    "inner_product",
    "l2_norm_sq",
    "ProblemSpec",
    "RootSystem",
    "build_operator",
    "root_system",
    "RitzSystem",
    "assemble",
    "ritz_values",
    "EigenPair",
    "SpectrumSlice",
    "antisym_equals_next_sym",
    "scan_spectrum",
    "__version__",
]
