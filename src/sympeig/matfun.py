"""Functional calculus for real symmetric matrices and basic matrix norms.

The one place that decides positive definiteness and forms f(S) = Q f(L) Q^T:
``_posdef`` is the gate for outside input, ``_eigh`` the eigen-kernel, and
the other underscore helpers trust their inputs. The refusing operations
(fractional powers, logarithms, symplectic spectra) reject near-singular
input instead of regularizing it, so inequality margins are never silently
corrupted.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError, NumericalError

# Default relative tolerance for reconstruction residuals.
RTOL = 1e-9
# Allowed relative asymmetry of "symmetric" inputs before they are rejected.
SYMTOL = 1e-8
# The refusing operations reject lambda_min <= PD_RELCUT * lambda_max.
PD_RELCUT = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition S = Q diag(eigenvalues) Q^T of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (m,)
        Real eigenvalues in ascending order.
    eigenvectors : ndarray, shape (m, m)
        Orthogonal matrix whose columns are the matching eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class NormTriple(NamedTuple):
    """Operator (spectral), Frobenius and trace (nuclear) norms."""

    operator: float
    frobenius: float
    trace: float


def require_square(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return X as a float array, raising InputError unless it is a finite
    square 2-d matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise InputError(f"{name} must be square, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError(f"{name} has non-finite entries")
    return X


def require_nonnegative(value: float, name: str) -> None:
    """Raise InputError unless value (a tolerance, spread or budget) is finite and >= 0."""
    if not (np.isfinite(value) and value >= 0.0):
        raise InputError(f"{name} must be finite and >= 0, got {value}")


def symmetrize(S: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that S is symmetric within tolerance and return (S + S^T)/2.

    Raises
    ------
    InputError
        If S is not square, not finite, or max|S_ij - S_ji| exceeds
        SYMTOL * max|S_ij|.
    """
    S = require_square(S, name)
    scale = np.max(np.abs(S)) if S.size else 0.0
    asym = np.max(np.abs(S - S.T)) if S.size else 0.0
    if asym > SYMTOL * max(scale, np.finfo(float).tiny):
        raise InputError(
            f"{name} is not symmetric: max asymmetry {asym:.3e} exceeds "
            f"{SYMTOL:.1e} * max|entry| = {SYMTOL * scale:.3e}"
        )
    return (S + S.T) / 2.0


def _eigh(S: np.ndarray, values_only: bool = False):
    """Ascending eigenvalues of the trusted symmetric or Hermitian S (lower
    triangle read), with eigenvectors as ``(w, Q)`` unless ``values_only``.
    Solver failure raises NumericalError."""
    try:
        return np.linalg.eigvalsh(S) if values_only else np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc


def _check_posdef(w: np.ndarray, refuse_near_singular: bool = False) -> None:
    """Raise DomainError unless the ascending spectrum w is positive and, with
    ``refuse_near_singular``, lambda_min > PD_RELCUT * lambda_max."""
    wmin, wmax = w[0], w[-1]
    if wmin <= 0.0:
        raise DomainError(f"matrix is not positive definite: lambda_min = {wmin:.6e}")
    if refuse_near_singular and wmin <= PD_RELCUT * wmax:
        raise DomainError(
            f"near-singular input refused: lambda_min = {wmin:.6e} <= "
            f"{PD_RELCUT:.0e} * lambda_max = {PD_RELCUT * wmax:.6e}"
        )


def _posdef(S: np.ndarray, refuse_near_singular: bool = False, values_only: bool = True):
    """Symmetrize nonempty outside input, decompose it once and check the
    spectrum; returns ``(S, _eigh(S, values_only))`` for the symmetrized S."""
    S = symmetrize(S, name="positive definite matrix")
    if not S.size:
        raise InputError("positive definite matrix must be nonempty")
    spectrum = _eigh(S, values_only)
    _check_posdef(spectrum if values_only else spectrum[0], refuse_near_singular)
    return S, spectrum


def _posdef_cholesky(S: np.ndarray) -> np.ndarray:
    """Cholesky factor of the symmetrized S, deciding as ``_posdef(S,
    refuse_near_singular=True)``. A factor of S - tau I, tau = (PD_RELCUT + m^2
    eps) s ||S / s||_F, s = max|S_ij| (m^2 eps: Cholesky's backward error, Higham
    ASNA 10.1), certifies lambda_min > PD_RELCUT * lambda_max; else the spectrum decides."""
    S = symmetrize(S, name="positive definite matrix")
    scale = np.max(np.abs(S)) or 1.0
    tau = (PD_RELCUT + S.size * np.finfo(float).eps) * scale * np.linalg.norm(S / scale)
    try:
        np.linalg.cholesky(S - np.diag(np.full(len(S), tau)))
    except np.linalg.LinAlgError:
        _check_posdef(_eigh(S, values_only=True), refuse_near_singular=True)
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc


def _sym_log(S: np.ndarray) -> np.ndarray:
    """log S for a trusted, nearly symmetric S, symmetrized first."""
    w, Q = _eigh((S + S.T) / 2.0)
    _check_posdef(w)
    return (Q * np.log(w)) @ Q.T


def _sym_exp(S: np.ndarray) -> np.ndarray:
    """exp S for a trusted, nearly symmetric S, symmetrized first."""
    w, Q = _eigh((S + S.T) / 2.0)
    return (Q * np.exp(w)) @ Q.T


def sym_eig(S: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    S : array_like, shape (m, m)
        Symmetric matrix (asymmetry up to SYMTOL relative is symmetrized
        away; more raises InputError).

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and an orthogonal eigenvector matrix.

    Raises
    ------
    InputError
        Non-symmetric or non-finite input.
    NumericalError
        If the underlying eigensolver fails to converge.
    """
    w, Q = _eigh(symmetrize(S))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=Q)


def sym_pow(S: np.ndarray, t: float) -> np.ndarray:
    """Fractional power S^t of a symmetric positive definite matrix.

    Computed as Q diag(lambda^t) Q^T. ``sym_pow(S, 1) == S`` and
    ``sym_pow(S, 0) == I`` up to roundoff.

    Raises
    ------
    DomainError
        If S is not positive definite, or lambda_min <= 1e-12 * lambda_max
        (near-singular input is refused rather than regularized).
    """
    _, (w, Q) = _posdef(S, refuse_near_singular=True, values_only=False)
    return (Q * w**t) @ Q.T


def sym_log(S: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix; refuses
    near-singular input like :func:`sym_pow`."""
    _, (w, Q) = _posdef(S, refuse_near_singular=True, values_only=False)
    return (Q * np.log(w)) @ Q.T


def sym_exp(S: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (always positive definite)."""
    return _sym_exp(symmetrize(S))


def norms(X: np.ndarray) -> NormTriple:
    """Operator, Frobenius and trace norms of a square matrix.

    The operator norm is the largest singular value, the trace norm the sum
    of all singular values.
    """
    X = require_square(X, "norms input")
    if not X.size:
        raise InputError("norms input must be nonempty")
    s = np.linalg.svd(X, compute_uv=False)
    return NormTriple(
        operator=float(s[0]),
        frobenius=float(np.sqrt(np.sum(X * X))),
        trace=float(np.sum(s)),
    )
