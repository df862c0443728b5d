"""Spectral theory of a periodic string with point masses.

Computes Floquet discriminants, auxiliary (Dirichlet) spectra, and
multipliers for psi'' = psi/4 - lambda m psi with a 1-periodic momentum m
that may combine a smooth density with delta atoms, builds the explicit
gradients of the spectral data, and verifies numerically that the pairs
(mu_i, f_i) and (mu_i, g_i) are canonically conjugate under the two
Poisson structures of the underlying water-wave hierarchy.
"""

from .coefficient import (
    Atom,
    CoefficientError,
    PeriodicCoefficient,
    load_coefficient,
    make_coefficient,
    velocity_from_momentum,
)
from .shooting import (
    DEFAULT_STEPS,
    BlowUpError,
    fundamental_matrix,
    solve_fundamental,
)
from .floquet import (
    JordanGapError,
    auxiliary_spectrum,
    discriminant,
    discriminant_sweep,
    periodic_spectrum,
    refine_point,
    second_floquet,
)
from .brackets import (
    BracketDomainError,
    ProductField,
    bracket1,
    bracket2,
    conjugacy_matrix,
    conjugacy_target,
    lemma_residual,
    log_multiplier_matrix,
)
from .variations import (
    gradient_bundle,
    gradient_table,
    verify_gradients,
)
from .hamiltonians import (
    SmoothDomainError,
    bihamiltonian_residual,
    h2,
    h2_energy,
    hamiltonian_fields,
)
from .corpus import CorpusMember, default_corpus
from .report import VerificationReport
from .suites import (
    run_suite,
    suite_gradients,
    suite_hamiltonian,
    suite_lemma,
    suite_theorem1,
    suite_theorem2,
)

__version__ = "0.1.0"
