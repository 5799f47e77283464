"""Symplectic spectral theory of real positive definite matrices.

Williamson normal forms and symplectic eigenbases, Euler decompositions of
symplectic matrices, Riemannian geometry of the positive definite cone, and a
seeded verification suite for the inequality theorems relating all of these.

Every public name and submodule loads on first use (PEP 562), so
``import sympeig`` imports neither numpy nor any submodule.
"""

import importlib

# The public names of each submodule; ``cli`` and ``matio`` export none here.
_EXPORTS = {
    "cli": "",
    "errors": "DomainError FormatError InputError NumericalError SympeigError",
    "majorization": "MajorizationVerdict log_majorizes supermajorizes",
    "matfun": "sym_log sym_pow",
    "matio": "",
    "means": "KarcherResult geodesic karcher_mean karcher_residual riemannian_distance",
    "sops": "s_pinching s_principal_submatrix",
    "symplectic": "EulerForm SuperstochasticCheck SymplecticCheck associated_matrix convention_permutation "
    "euler_decompose is_doubly_superstochastic is_symplectic random_posdef random_symplectic standard_J",
    "theorems": "DEFAULT_TOLERANCES THEOREM_IDS SuiteConfig TheoremReport check_corollary8 check_interlacing "
    "check_minmax check_pinching check_superadditivity check_theorem1 check_theorem3 check_theorem4 "
    "check_theorem5 check_theorem6 check_theorem7 check_theorem11 run_suite summarize",
    "williamson": "SymplecticSpectrum WilliamsonForm is_gaussian symplectic_spectrum "
    "validate_posdef williamson_form",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_ORIGIN)
__version__ = "0.2.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
