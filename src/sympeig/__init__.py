"""Symplectic spectral theory of real positive definite matrices.

Williamson normal forms and symplectic eigenbases, Euler decompositions of
symplectic matrices, Riemannian geometry of the positive definite cone, and a
seeded verification suite for the inequality theorems relating all of these.
"""

from .errors import DomainError, FormatError, InputError, NumericalError, SympeigError
from .majorization import MajorizationVerdict, log_majorizes, supermajorizes
from .matfun import NormTriple, norms, sym_log, sym_pow
from .means import KarcherResult, geodesic, karcher_mean, karcher_residual, riemannian_distance
from .sops import s_direct_sum, s_pinching, s_principal_submatrix
from .symplectic import (
    EulerForm,
    SuperstochasticCheck,
    SymplecticCheck,
    associated_matrix,
    convention_permutation,
    euler_decompose,
    is_doubly_stochastic,
    is_doubly_superstochastic,
    is_symplectic,
    mtilde_identity_check,
    orthosymplectic_to_unitary,
    random_posdef,
    random_symplectic,
    standard_J,
    unitary_to_orthosymplectic,
)
from .theorems import (
    DEFAULT_TOLERANCES,
    THEOREM_IDS,
    SuiteConfig,
    TheoremReport,
    check_corollary8,
    check_interlacing,
    check_minmax,
    check_pinching,
    check_superadditivity,
    check_theorem1,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    check_theorem11,
    run_suite,
    summarize,
)
from .williamson import (
    SymplecticSpectrum,
    WilliamsonForm,
    is_gaussian,
    sharp_spectrum,
    symplectic_spectrum,
    validate_posdef,
    williamson_form,
)

__version__ = "0.1.0"
