"""Spectral theory of a periodic string with point masses.

Computes Floquet discriminants, auxiliary (Dirichlet) spectra, and
multipliers for psi'' = psi/4 - lambda m psi with a 1-periodic momentum m
that may combine a smooth density with delta atoms, builds the explicit
gradients of the spectral data, and verifies numerically that the pairs
(mu_i, f_i) and (mu_i, g_i) are canonically conjugate under the two
Poisson structures of the underlying water-wave hierarchy.

The package namespace holds the documented API below; every other name is
importable from its module.
"""

from .coefficient import CoefficientError, load_coefficient, make_coefficient
from .shooting import BlowUpError
from .floquet import JordanGapError, auxiliary_spectrum, second_floquet
from .brackets import conjugacy_matrix, conjugacy_target
from .variations import gradient_bundle
from .suites import run_suite

__version__ = "0.1.0"
