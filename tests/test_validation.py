"""The validation contract shared by every public entry point that takes a
positive definite matrix: one gate decides symmetry, positive definiteness
and (for the refusing operations) near-singularity, and eigensolver failures
surface as NumericalError."""

import numpy as np
import pytest

from sympeig import (
    DomainError,
    InputError,
    NumericalError,
    euler_decompose,
    geodesic,
    karcher_mean,
    karcher_residual,
    random_symplectic,
    riemannian_distance,
    s_pinching,
    sharp_spectrum,
    sym_log,
    sym_pow,
    symplectic_spectrum,
    validate_posdef,
    williamson_form,
)

I4 = np.eye(4)

ENTRY_POINTS = {
    "validate_posdef": validate_posdef,
    "symplectic_spectrum": symplectic_spectrum,
    "williamson_form": williamson_form,
    "sharp_spectrum": sharp_spectrum,
    "sym_pow": lambda X: sym_pow(X, 0.5),
    "sym_log": sym_log,
    "geodesic": lambda X: geodesic(X, I4, 0.5),
    "riemannian_distance": lambda X: riemannian_distance(X, I4),
    "karcher_mean": lambda X: karcher_mean([X, I4]),
    "karcher_residual": lambda X: karcher_residual(X, [I4]),
    "s_pinching": lambda X: s_pinching(X, [1, 1]),
}
REFUSE_NEAR_SINGULAR = {"symplectic_spectrum", "williamson_form", "sym_pow", "sym_log"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_gate_contract(name):
    call = ENTRY_POINTS[name]
    asymmetric = I4.copy()
    asymmetric[0, 1] = 0.5
    with pytest.raises(InputError, match="not symmetric"):
        call(asymmetric)
    with pytest.raises(DomainError, match="lambda_min"):
        call(np.diag([1.0, 1.0, -1.0, 1.0]))
    near_singular = np.diag([1.0, 1.0, 1.0, 1e-14])
    if name in REFUSE_NEAR_SINGULAR:
        with pytest.raises(DomainError, match="near-singular"):
            call(near_singular)
    else:
        call(near_singular)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS) + ["euler_decompose"])
def test_solver_failure_is_numerical_error(name, monkeypatch):
    call = euler_decompose if name == "euler_decompose" else ENTRY_POINTS[name]
    X = random_symplectic(np.random.default_rng(3), 2) if name == "euler_decompose" else 2.0 * I4

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError, match="eigensolver failed"):
        call(X)
