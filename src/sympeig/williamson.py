"""Symplectic eigenvalues and the Williamson normal form of a real positive
definite matrix of even order; the columns of the Williamson M are its
symplectic eigenvector pairs.

For positive definite A of order 2n there is a symplectic M with
M^T A M = diag(d, d), where d_1 <= ... <= d_n are the symplectic eigenvalues.
They are the moduli of the eigenvalues +-i d_j of the real skew
K = L^T J L, A = L L^T (K is orthogonally similar to A^{1/2} J A^{1/2}), so the
singular values of K are d_1, ..., d_n, each twice. K is formed as P - P^T from
the row halves of L, P = L[:n]^T L[n:], and J enters only the form, as a row
swap and sign flip. One real SVD of K,
``_skew_svd``, serves both results, and every kernel takes a stack of matrices
behind the one gate ``_gate``; a public function is a batch of one. The
spectrum reads the values only. The form takes one singular triple
(d_j, u_j, v_j) per pair: K v_j = d_j u_j and K u_j = -d_j v_j, so the triple
is a symplectic eigenvector pair, and M = J L [V, -U] diag(d, d)^{-1/2}.

Computed singular subspaces are accurate only to about eps d_n / gap, so a
triple is a clean pair only when its d_j stands apart. Consecutive d_j closer
than CLUSTER_RELGAP * d_n = 1e-3 d_n form a cluster, and each cluster is solved
exactly on its 2m-dimensional singular subspace Q: the Hermitian eigenvectors
of i Q^T K Q give its pairs, the only complex arithmetic left, on 2m x 2m
blocks. A much finer cut would leave triples paired at small relative gaps
with symplecticity residuals far above roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matfun import _cholesky, _lapack, _one, _posdef, _same_order, _svd, require_square
from .symplectic import _hermitian_pairs, standard_J

# Consecutive d_j closer than this fraction of d_n are paired as one cluster.
CLUSTER_RELGAP = 1e-3
# The slack of the one Gaussian rule d_1 >= 1/2 - GAUSSIAN_TOL (see _gaussian).
GAUSSIAN_TOL = 1e-9


def _even_order(A: np.ndarray) -> np.ndarray:
    """The stack A (one leading axis), after an InputError unless its matrices are square of even order."""
    A = require_square(A, "positive definite matrix")
    if A.shape[-1] % 2 != 0 or A.shape[-1] == 0:
        raise InputError(f"positive definite input must have even order >= 2, got {A.shape[-1]}")
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
    return _posdef(_even_order(_one(A)))[0]


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues d (ascending) together with the doubled vector
    d_hat of length 2n: every d_j counted twice, sorted descending, so that
    d_hat[0] = d_hat[1] = d_n."""

    d: np.ndarray
    d_hat: np.ndarray


def _doubled(d: np.ndarray) -> np.ndarray:
    """d_hat of an ascending d, or the rows d_hat of a stack of them: every d_j
    twice, descending."""
    return np.repeat(d[..., ::-1], 2, axis=-1)


@dataclass(frozen=True)
class WilliamsonForm:
    """Symplectic M and ascending d with M^T A M = diag(d, d)."""

    M: np.ndarray
    d: np.ndarray


def _skew(F: np.ndarray) -> np.ndarray:
    """K = F^T J F of a square factor F of even order, A = F F^T, or of each
    factor of a stack along leading axes (each such K is orthogonally similar to
    the Cholesky one). With P = F[:n]^T F[n:], the product of F's row halves,
    K = P - P^T: half the flops of the full product, and exactly skew."""
    n = F.shape[-1] // 2
    P = F[..., :n, :].swapaxes(-1, -2) @ F[..., n:, :]
    return P - P.swapaxes(-1, -2)


def _gate(*stacks):
    """``(S, L)`` of each stack of inputs: the symmetrized S, refused when any
    matrix is near-singular, and its Cholesky factors S = L L^T; InputError on
    mixed orders. The one gate of spectra, forms and the theorem checkers."""
    gated = [_posdef(_even_order(A), refuse_near_singular=True) for A in stacks]
    return [(S, _cholesky(S)) for S in _same_order(gated)]


def _factor(A) -> np.ndarray:
    """L of a public function's A through :func:`_gate`, as a batch of one; S is dropped before the eigensolve."""
    return _gate(_one(A))[0][1]


def symplectic_spectrum(A: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a positive definite matrix of order 2n.

    The eigenvalues of the skew-symmetric K = L^T J L, A = L L^T, are +-i d_j,
    so its singular values are the d_j in equal pairs; each d_j is reported
    once, ascending, together with the doubled descending vector. The product
    of the d_j^2 equals det A.
    """
    d = _factor_spectrum(_factor(A))[0]
    return SymplecticSpectrum(d=d, d_hat=_doubled(d))


def _factor_spectrum(F: np.ndarray) -> np.ndarray:
    """Symplectic spectra, one ascending row per matrix, of F F^T for a stack of
    square F of even order (see :func:`_skew`)."""
    return _skew_svd(_skew(F))


def _skew_svd(K: np.ndarray, vectors: bool = False):
    """The SVD of each skew K = F^T J F of a stack, the one solver behind spectra and forms.

    Returns d, the smaller singular value of each equal pair, ascending, one
    contiguous row per matrix; with ``vectors``, ``(d, U, V)``, where the
    orthogonal U and V hold the left and right singular vectors of all 2n
    values in ascending order (K V = U diag(s), pair j in columns 2j and
    2j + 1). K is reversed in both axes first: factors built from an ascending
    eigendecomposition (Q w^{t/2} of A^t) put its largest entries in the
    bottom-right corner, and Householder bidiagonalization is more accurate
    when they come first (on widely spread, strongly squeezed A^t with t > 1).
    Solver failure raises NumericalError.
    """
    usv = _svd(K[..., ::-1, ::-1], compute_uv=vectors)
    d = np.ascontiguousarray((usv[1] if vectors else usv)[..., ::-2])
    if (d[..., 0] <= 0).any():
        raise NumericalError(f"non-positive symplectic eigenvalue {d[..., 0].min():.6e} on positive definite input")
    return (d, usv[0][..., ::-1, ::-1], usv[2][..., ::-1, ::-1].swapaxes(-1, -2)) if vectors else d


def williamson_form(A: np.ndarray) -> WilliamsonForm:
    """Williamson normal form: symplectic M with M^T A M = diag(d, d).

    Construction: with K = L^T J L, A = L L^T, each singular triple
    (d_j, u_j, v_j) of K is a real orthonormal pair with K u_j = -d_j v_j and
    K v_j = d_j u_j; one triple per equal pair of singular values is taken.
    Stacking O = [u_1..u_n | v_1..v_n] gives the canonical skew form
    O^T K O = [[0, D], [-D, 0]] = Omega. M = L^{-T} O diag(d, d)^{1/2} is
    symplectic with M^T A M = diag(d, d); K O = O Omega gives it, with no
    solve, as J L [V, -U] diag(d, d)^{-1/2}. Pairs of d_j closer than
    1e-3 d_n are ill-determined one by one, so each such cluster of m values is
    re-paired exactly by the Hermitian eigenvectors of i Q^T K Q, Q its 2m
    singular vectors, whose pairs stay orthonormal for repeated d_j.

    The columns u_j = M[:, j], v_j = M[:, n + j] are the symplectic eigenvector
    pairs of d_j: A u_j = d_j J v_j, A v_j = -d_j J u_j, <u_i, J v_j> = delta_ij,
    <u_i, J u_j> = <v_i, J v_j> = 0.

    M is not unique; only the defining invariants are promised.
    """
    L = _factor(A)
    form = _williamson(_skew(L), L)
    return WilliamsonForm(M=form.M[0], d=form.d[0])


def _williamson(K: np.ndarray, L: np.ndarray) -> WilliamsonForm:
    """:func:`williamson_form` of each gated A = L L^T of a stack, from K = :func:`_skew`
    of L and L, M and d keeping the leading axis: one singular triple of K per pair,
    and in a matrix whose consecutive d_j come closer than CLUSTER_RELGAP * d_n the
    clusters re-paired by :func:`_resolve_clusters`. M = J (L [V, -U] diag(d, d)^{-1/2}),
    J applied to the product as a row swap and sign flip, so J L is never formed."""
    d, U, V = _skew_svd(K, vectors=True)
    close = np.diff(d) < CLUSTER_RELGAP * d[..., -1:]
    Up, Vp = U[..., ::2], V[..., ::2]
    for i in np.flatnonzero(close.any(axis=-1)):
        d[i], Up[i], Vp[i] = _resolve_clusters(K[i], d[i], U[i], V[i], close[i])
    n = L.shape[-1] // 2
    LX = L @ (np.concatenate([Vp, -Up], axis=-1) / np.sqrt(np.concatenate([d, d], axis=-1))[..., None, :])
    M = np.concatenate([LX[..., n:, :], -LX[..., :n, :]], axis=-2)
    return WilliamsonForm(M=M, d=d)


def _resolve_clusters(
    K: np.ndarray, d: np.ndarray, U: np.ndarray, V: np.ndarray, close: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending d and one pair (U, V) per d_j from the singular values and
    vectors (d, U, V) of :func:`_skew_svd`, with each cluster of m close d_j
    (``close[j]``: d_j and d_{j+1} share one) solved exactly on the orthonormal
    2m columns Q of U that span its singular subspace by :func:`_hermitian_pairs`.
    Clusters of one size m share one stacked solve."""
    edge = np.flatnonzero(np.diff(close, prepend=False, append=False))
    start, size = edge[::2], edge[1::2] - edge[::2] + 1
    d, Up, Vp = d.copy(), U[:, ::2].copy(), V[:, ::2].copy()
    for m in set(size.tolist()):
        j = start[size == m, None] + np.arange(m)
        Q = U[:, (2 * j[..., None] + (0, 1)).ravel()]
        # One product with K per size, then one (2n, 2m) slice per cluster.
        Q, KQ = (np.moveaxis(Y.reshape(-1, len(j), 2 * m), 1, 0) for Y in (Q, K @ Q))
        C = Q.swapaxes(1, 2) @ KQ
        w, X, u, v = _hermitian_pairs(Q, C)
        # Sign guard: u_j^T K v_j = -2 Re(x_j)^T C Im(x_j) = d_j must be positive.
        if np.any(np.sum(X.real * (C @ X.imag), axis=1) >= 0):
            raise NumericalError("eigenvector pairing produced an inverted sign; eigensolver output inconsistent")
        d[j], Up[:, j], Vp[:, j] = w, np.moveaxis(u, 0, 1), np.moveaxis(v, 0, 1)
    return d, Up, Vp


def _sharp(S: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of i S^{-1} J for the gated S, or one row per matrix
    of a stack; solver failure raises NumericalError. The operator is Hermitian in
    the S-weighted inner product, so its spectrum is real and equals {+-1/d_j(S)}:
    from a general complex eigensolve, a path to the symplectic spectrum independent
    of :func:`symplectic_spectrum`, which is how the minmax principle is verified."""
    n = S.shape[-1] // 2
    ev = _lapack(np.linalg.eigvals, 1j * _lapack(np.linalg.solve, S, np.broadcast_to(standard_J(n), S.shape)))
    scale = np.max(np.abs(ev), axis=-1)
    if np.any(np.max(np.abs(ev.imag), axis=-1) > 1e-6 * scale):
        raise NumericalError("eigenvalues of i A^{-1} J are not numerically real")
    return np.sort(ev.real, axis=-1)[..., ::-1]


def _gaussian(d1):
    """The one Gaussian rule, d_1 >= 1/2 - GAUSSIAN_TOL, of a d_1 or of each
    entry of an array of them: of ``is_gaussian``, the ``gaussian`` command and
    corollary 8's inputs."""
    return d1 >= 0.5 - GAUSSIAN_TOL


def is_gaussian(A: np.ndarray) -> bool:
    """True when d_1(A) >= 1/2 - GAUSSIAN_TOL (1e-9), i.e. A is a valid
    Gaussian-state covariance matrix (equivalently A + (i/2) J >= 0)."""
    return bool(_gaussian(symplectic_spectrum(A).d[0]))
