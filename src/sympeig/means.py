"""Riemannian geometry of the positive definite cone: distance, geodesics,
the two-matrix geometric mean, and the weighted Karcher mean.

All whiten by one A = Q D Q^T: with G = Q D^{-1/2} and F = Q D^{1/2}, G^T B G
is orthogonally similar to A^{-1/2} B A^{-1/2}, delta(A, B) = ||log G^T B G||_F
and A #_t B = F (G^T B G)^t F^T. No A^{-1/2} or inverse is formed, so accuracy
degrades far less with kappa(A) * kappa(B). The Karcher mean starts at
A_0 #_{w_1} A_1 (m = 2) or at exp(sum_j w_j log A_j) (m >= 3) and polishes
sum_j w_j log(G^T A_j G) = 0, G whitening the iterate; the norm of that sum is
the reported certificate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matfun import _eigh, _posdef, _sym_exp, _sym_log, require_nonnegative


def validate_weights(w, m: int) -> np.ndarray:
    """Positive finite weights of length m summing to 1 within 1e-12."""
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise InputError(f"expected {m} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise InputError("weights must all be positive and finite")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InputError(f"weights must sum to 1, got {float(w.sum()):.17g}")
    return w


def _whitened_eig(G: np.ndarray, B: np.ndarray):
    """``(mu, V)`` with G^T B G = V diag(mu) V^T, G = Q diag(w)^{-1/2} for
    A = Q diag(w) Q^T; NumericalError unless it is numerically positive definite."""
    C = G.T @ B @ G
    mu, V = _eigh((C + C.T) / 2.0)
    if mu[0] <= 0.0:
        raise NumericalError(f"A^-1/2 B A^-1/2 is not numerically positive definite: lambda_min = {mu[0]:.6e}")
    return mu, V


def riemannian_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Affine-invariant Riemannian distance ||log(A^{-1/2} B A^{-1/2})||_F;
    NumericalError when that matrix is not numerically positive definite."""
    A, (w, Q) = _posdef(A, values_only=False)
    B = _posdef(B)[0]
    if A.shape != B.shape:
        raise InputError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    mu = _whitened_eig(Q / np.sqrt(w), B)[0]
    return float(np.sqrt(np.sum(np.log(mu) ** 2)))


def geodesic(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """Point A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} on the geodesic
    from A (t = 0) to B (t = 1).

    Raises
    ------
    InputError
        If t is outside [0, 1] (extrapolation is out of scope) or the orders
        differ.
    NumericalError
        If A^{-1/2} B A^{-1/2} is not numerically positive definite.
    """
    if not 0.0 <= t <= 1.0:
        raise InputError(f"geodesic parameter must lie in [0, 1], got {t}")
    A, (w, Q) = _posdef(A, values_only=False)
    B = _posdef(B)[0]
    if A.shape != B.shape:
        raise InputError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    if t in (0.0, 1.0):
        return B if t else A
    return _geodesic(w, Q, B, t)


def _geodesic(w: np.ndarray, Q: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """A #_t B = P P^T, P = F V diag(mu^{t/2}), for validated A = Q diag(w) Q^T, B."""
    mu, V = _whitened_eig(Q / np.sqrt(w), B)
    P = ((Q * np.sqrt(w)) @ V) * mu ** (t / 2.0)
    return P @ P.T


def geometric_mean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Geometric mean A # B, the midpoint of the geodesic from A to B."""
    return geodesic(A, B, 0.5)


@dataclass(frozen=True)
class KarcherResult:
    """Karcher mean solve outcome.

    ``residual`` is the Frobenius norm of
    sum_j w_j log(mean^{1/2} A_j^{-1} mean^{1/2}) at the returned mean;
    ``converged`` is False when the iteration budget ran out, in which case
    the best iterate found is still returned.
    """

    mean: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _karcher_inputs(mats, weights, order: int | None = None):
    """Validated matrices of one order (``order``, else the first's) and weights."""
    mats = [_posdef(A)[0] for A in mats]
    if not mats:
        raise InputError("need at least one matrix")
    order = mats[0].shape[0] if order is None else order
    for A in mats:
        if A.shape[0] != order:
            raise InputError(f"order mismatch: {A.shape[0]} vs {order}")
    m = len(mats)
    return mats, np.full(m, 1.0 / m) if weights is None else validate_weights(weights, m)


def _log_sum(G: np.ndarray, mats, w: np.ndarray) -> np.ndarray:
    """S = sum_j w_j log(G^T A_j G) for X = Q diag(lam) Q^T, G = Q diag(lam)^{-1/2};
    S = -Q^T grad Q for grad = sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2})."""
    total = np.zeros_like(G)
    for wj, A in zip(w, mats):
        mu, V = _whitened_eig(G, A)
        total += wj * ((V * np.log(mu)) @ V.T)
    return total


def karcher_residual(X: np.ndarray, mats, weights=None) -> float:
    """Frobenius norm of sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2})."""
    X, (lam, Q) = _posdef(X, values_only=False)
    mats, w = _karcher_inputs(mats, weights, X.shape[0])
    return float(np.linalg.norm(_log_sum(Q / np.sqrt(lam), mats, w)))


def karcher_mean(mats, weights=None, tol: float | None = None, max_iter: int = 200) -> KarcherResult:
    """Weighted Karcher (Riemannian barycenter) mean of positive definite
    matrices.

    The start is the exact mean A_0 #_{w_1} A_1 for m = 2 and the
    log-Euclidean mean exp(sum_j w_j log A_j), exact for commuting inputs,
    for m >= 3. The polish X <- F exp(theta * S) F^T, X = F F^T with
    F = Q diag(lam)^{1/2} and S the whitened log-sum (the step
    X^{1/2} exp(-theta * grad) X^{1/2} for grad = -Q S Q^T), halves theta from
    1 whenever the residual would increase and grows it gently after accepted
    steps (spread-out inputs are badly under-relaxed at theta = 1).

    Parameters
    ----------
    mats : sequence of ndarray
        m >= 1 positive definite matrices of equal order.
    weights : sequence of float, optional
        Positive weights summing to 1; uniform when omitted.
    tol : float, optional
        Finite residual target >= 0. Defaults to 1e-9 times the operator norm
        of the current iterate.
    max_iter : int
        Polish iteration budget, finite and >= 0.

    Returns
    -------
    KarcherResult
        With ``converged=False`` and the best iterate when the budget of
        ``max_iter`` polish iterations is exhausted.
    """
    require_nonnegative(max_iter, "max_iter")
    require_nonnegative(0.0 if tol is None else tol, "tol")
    mats, w = _karcher_inputs(mats, weights)
    if len(mats) == 1:
        return KarcherResult(mean=mats[0], residual=0.0, iterations=0, converged=True)
    if len(mats) == 2:
        X = _geodesic(*_eigh(mats[0]), mats[1], w[1])
    else:
        X = _sym_exp(sum(wj * _sym_log(A) for wj, A in zip(w, mats)))

    def _state(X):
        lam, Q = _eigh(X)
        S = _log_sum(Q / np.sqrt(lam), mats, w)
        return Q * np.sqrt(lam), S, float(np.linalg.norm(S)), float(lam[-1])

    F, S, resid, opnorm = _state(X)
    target = (1e-9 * opnorm) if tol is None else tol
    theta = 1.0
    iterations = 0
    while resid > target and iterations < max_iter:
        step = F @ _sym_exp(theta * S) @ F.T
        step = (step + step.T) / 2.0
        new_F, new_S, new_resid, new_opnorm = _state(step)
        if new_resid >= resid and theta > 1e-8:
            theta /= 2.0
        else:
            X, F, S, resid, opnorm = step, new_F, new_S, new_resid, new_opnorm
            theta = min(theta * 1.2, 8.0)
            if tol is None:
                target = 1e-9 * opnorm
        iterations += 1
    return KarcherResult(mean=X, residual=resid, iterations=iterations, converged=resid <= target)
