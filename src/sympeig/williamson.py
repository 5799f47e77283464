"""Symplectic eigenvalues, symplectic eigenbases, and the Williamson normal
form of a real positive definite matrix of even order.

For positive definite A of order 2n there is a symplectic M with
M^T A M = diag(d, d), where d_1 <= ... <= d_n are the symplectic eigenvalues.
They are computed here as the moduli of the (purely imaginary, paired)
eigenvalues of K = L^T J L, A = L L^T (K is orthogonally similar to
A^{1/2} J A^{1/2}), and M = J L [V, -U] diag(d, d)^{-1/2}, with no solve, from
the orthogonal [U, V] that brings K to canonical skew form.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .matfun import _eigh, _posdef, _posdef_cholesky, require_nonnegative, require_square
from .symplectic import standard_J


def _even_order(A: np.ndarray) -> np.ndarray:
    A = require_square(A, "positive definite matrix")
    if A.shape[0] % 2 != 0 or A.shape[0] == 0:
        raise InputError(f"positive definite input must have even order >= 2, got {A.shape[0]}")
    return A


def validate_posdef(A: np.ndarray) -> np.ndarray:
    """Validate a real symmetric positive definite matrix of even order 2n
    and return its symmetrized copy.

    Raises
    ------
    InputError
        Not square, odd order, non-finite, or asymmetric beyond
        ``matfun.SYMTOL`` (1e-8) relative to max|A_ij|.
    DomainError
        Not positive definite (smallest eigenvalue reported).
    """
    return _posdef(_even_order(A))[0]


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues d (ascending) together with the doubled vector
    d_hat of length 2n: every d_j counted twice, sorted descending, so that
    d_hat[0] = d_hat[1] = d_n."""

    d: np.ndarray
    d_hat: np.ndarray

    @classmethod
    def from_ascending(cls, d: np.ndarray) -> "SymplecticSpectrum":
        d = np.asarray(d, dtype=float)
        return cls(d=d, d_hat=np.repeat(d[::-1], 2))


@dataclass(frozen=True)
class WilliamsonForm:
    """Symplectic M and ascending d with M^T A M = diag(d, d).

    ``warnings`` flags conditioning issues (near-degenerate symplectic
    spectrum); the factorization is still valid in that case.
    """

    M: np.ndarray
    d: np.ndarray
    warnings: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class SymplecticEigenbasis:
    """Columns u[:, j], v[:, j] form the eigenvector pair of d[j]:
    A u_j = d_j J v_j,  A v_j = -d_j J u_j,  <u_i, J v_j> = delta_ij,
    <u_i, J u_j> = <v_i, J v_j> = 0."""

    u: np.ndarray
    v: np.ndarray
    d: np.ndarray

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.u[:, j], self.v[:, j]) for j in range(self.u.shape[1])]


def _skew_core(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (K, J L) with K = L^T J L exactly skew, from the Cholesky factor
    A = L L^T that also validates A; J L is a row swap and sign flip of L."""
    L = _posdef_cholesky(_even_order(A))
    n = L.shape[0] // 2
    JL = np.concatenate([L[n:], -L[:n]])
    K = L.T @ JL
    return (K - K.T) / 2.0, JL


def symplectic_spectrum(A: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a positive definite matrix of order 2n.

    The eigenvalues of the skew-symmetric K = L^T J L, A = L L^T, are +-i d_j;
    the moduli d_j are reported once each, ascending, together with the
    doubled descending vector. The product of the d_j^2 equals det A.
    """
    K, _ = _skew_core(A)
    n = K.shape[0] // 2
    d = _eigh(1j * K, values_only=True)[n:]
    if d[0] <= 0:
        raise NumericalError(f"non-positive symplectic eigenvalue {d[0]:.6e} on positive definite input")
    return SymplecticSpectrum.from_ascending(d)


def williamson_form(A: np.ndarray) -> WilliamsonForm:
    """Williamson normal form: symplectic M with M^T A M = diag(d, d).

    Construction: with K = L^T J L, A = L L^T, each unit eigenvector x of the
    Hermitian matrix iK for eigenvalue d_j > 0 yields the real orthonormal
    pair u = sqrt(2) Re x, v = -sqrt(2) Im x satisfying K u = -d_j v and
    K v = d_j u. Stacking O = [u_1..u_n | v_1..v_n] gives the canonical skew
    form O^T K O = [[0, D], [-D, 0]] = Omega. M = L^{-T} O diag(d, d)^{1/2} is
    symplectic with M^T A M = diag(d, d); K O = O Omega gives it, with no
    solve, as J L [V, -U] diag(d, d)^{-1/2}. Conjugate eigenvectors of iK live
    in the opposite-sign eigenspace, so pairs stay orthonormal for repeated d_j.

    M is not unique; only the defining invariants are promised. A
    near-degenerate spectrum (gap below 1e-10 * d_n) is flagged in
    ``warnings`` but still succeeds.
    """
    K, JL = _skew_core(A)
    n = K.shape[0] // 2
    w, Z = _eigh(1j * K)
    d = w[n:]
    if d[0] <= 0:
        raise NumericalError(f"non-positive symplectic eigenvalue {d[0]:.6e} on positive definite input")
    X = Z[:, n:]
    U = math.sqrt(2.0) * X.real
    V = -math.sqrt(2.0) * X.imag
    # Sign guard: <u_j, K v_j> = 2 d_j must be positive for every pair.
    cross = np.einsum("ij,ij->j", U, K @ V)
    if np.any(cross <= 0):
        raise NumericalError("eigenvector pairing produced an inverted sign; eigensolver output inconsistent")
    M = JL @ (np.hstack([V, -U]) / np.sqrt(np.concatenate([d, d])))

    warnings: tuple[str, ...] = ()
    if n >= 2:
        gap = float(np.min(np.diff(d)))
        if gap < 1e-10 * d[-1]:
            warnings = (
                f"near-degenerate symplectic spectrum: smallest gap {gap:.3e} "
                f"below 1e-10 * d_max = {1e-10 * d[-1]:.3e}",
            )
    return WilliamsonForm(M=M, d=d, warnings=warnings)


def symplectic_eigenbasis(A: np.ndarray) -> SymplecticEigenbasis:
    """Symplectic eigenvector pairs of A, normalized so <u_j, J v_j> = 1.

    The pairs are the columns of the Williamson M: u_j = M[:, j],
    v_j = M[:, n + j]. The residual sign freedom (u, v) -> (-u, -v) is not
    fixed.
    """
    form = williamson_form(A)
    n = form.d.shape[0]
    return SymplecticEigenbasis(u=form.M[:, :n], v=form.M[:, n:], d=form.d)


def sharp_spectrum(A: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of i A^{-1} J.

    That operator is Hermitian in the inner product weighted by A, so its
    spectrum is real and equals {+-1/d_j(A)}. Computed with a general complex
    eigensolver on i A^{-1} J itself, it provides a path to the symplectic
    spectrum independent of :func:`symplectic_spectrum`, which is how the
    minmax principle is verified.
    """
    A = validate_posdef(A)
    n = A.shape[0] // 2
    W = np.linalg.solve(A, standard_J(n))
    ev = np.linalg.eigvals(1j * W)
    scale = float(np.max(np.abs(ev)))
    if float(np.max(np.abs(ev.imag))) > 1e-6 * scale:
        raise NumericalError("eigenvalues of i A^{-1} J are not numerically real")
    return np.sort(ev.real)[::-1]


def is_gaussian(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True when d_1(A) >= 1/2 - tol (tol finite, >= 0), i.e. A is a valid
    Gaussian-state covariance matrix (equivalently A + (i/2) J >= 0)."""
    require_nonnegative(tol, "tol")
    return bool(symplectic_spectrum(A).d[0] >= 0.5 - tol)
