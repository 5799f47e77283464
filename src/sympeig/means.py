"""Riemannian geometry of the positive definite cone: distance, geodesics,
the two-matrix geometric mean, and the weighted Karcher mean.

The Karcher mean starts at A_0 #_{w_1} A_1 (m = 2) or at the log-Euclidean
mean exp(sum_j w_j log A_j) (m >= 3), then polishes the barycenter equation
sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2}) = 0 by a fixed-point iteration whose
residual is the reported convergence certificate.

Geodesics and distances go through A^{-1/2} B A^{-1/2}, with A^{-1/2} from one
eigendecomposition of A; their relative accuracy degrades with
kappa(A) * kappa(B), the distance's far less (see riemannian_distance).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matfun import _eigh, _posdef, _sqrt_eig, _sym_exp, _sym_log


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


def riemannian_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Affine-invariant Riemannian distance
    delta(A, B) = ||log(A^{-1/2} B A^{-1/2})||_F.

    With A = Q D Q^T it decomposes the similar D^{-1/2} Q^T B Q D^{-1/2}:
    forming A^{-1/2} explicitly would lose accuracy in proportion to
    kappa(A) * kappa(B), the scaled form far less. NumericalError when that
    matrix is not numerically positive definite.
    """
    A, (w, Q) = _posdef(A, values_only=False)
    B = _posdef(B)[0]
    if A.shape != B.shape:
        raise InputError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    r = 1.0 / np.sqrt(w)
    C = (Q.T @ B @ Q) * np.outer(r, r)
    lam = _eigh((C + C.T) / 2.0, values_only=True)
    if lam[0] <= 0.0:
        raise NumericalError(f"A^-1/2 B A^-1/2 is not numerically positive definite: lambda_min = {lam[0]:.6e}")
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def geodesic(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """Point A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} on the geodesic
    from A (t = 0) to B (t = 1).

    Raises
    ------
    InputError
        If t is outside [0, 1] (extrapolation is out of scope) or the orders
        differ.
    """
    if not 0.0 <= t <= 1.0:
        raise InputError(f"geodesic parameter must lie in [0, 1], got {t}")
    A = _posdef(A)[0]
    B = _posdef(B)[0]
    if A.shape != B.shape:
        raise InputError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    return _geodesic(A, B, t)


def _geodesic(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """A #_t B for validated positive definite A, B of equal order."""
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    Ah, w, Q = _sqrt_eig(A)
    Aih = (Q * (1.0 / np.sqrt(w))) @ Q.T
    mid = Aih @ B @ Aih
    w, Q = _eigh((mid + mid.T) / 2.0)
    powed = (Q * np.maximum(w, 0.0) ** t) @ Q.T
    out = Ah @ powed @ Ah
    return (out + out.T) / 2.0


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


def karcher_residual(X: np.ndarray, mats, weights=None) -> float:
    """Frobenius norm of sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2})."""
    X = _posdef(X)[0]
    mats = [_posdef(A)[0] for A in mats]
    if not mats:
        raise InputError("need at least one matrix")
    for A in mats:
        if A.shape != X.shape:
            raise InputError(f"order mismatch: {A.shape[0]} vs {X.shape[0]}")
    m = len(mats)
    w = np.full(m, 1.0 / m) if weights is None else validate_weights(weights, m)
    invs = [np.linalg.inv(A) for A in mats]
    Xh = _sqrt_eig(X)[0]
    grad = _weighted_log_sum(Xh, invs, w)
    return float(np.linalg.norm(grad))


def _weighted_log_sum(Xh: np.ndarray, invs, w: np.ndarray) -> np.ndarray:
    total = np.zeros_like(Xh)
    for wj, inv in zip(w, invs):
        total += wj * _sym_log(Xh @ inv @ Xh)
    return total


def karcher_mean(mats, weights=None, tol: float | None = None, max_iter: int = 200) -> KarcherResult:
    """Weighted Karcher (Riemannian barycenter) mean of positive definite
    matrices.

    The start is the exact mean A_0 #_{w_1} A_1 for m = 2 and the
    log-Euclidean mean exp(sum_j w_j log A_j), exact for commuting inputs,
    for m >= 3. The polish X <- X^{1/2} exp(-theta * grad) X^{1/2}, grad the
    weighted log-sum, starts at theta = 1, halves theta whenever the residual
    would increase and grows it gently after accepted steps (spread-out
    inputs are badly under-relaxed at theta = 1).

    Parameters
    ----------
    mats : sequence of ndarray
        m >= 1 positive definite matrices of equal order.
    weights : sequence of float, optional
        Positive weights summing to 1; uniform when omitted.
    tol : float, optional
        Residual target. Defaults to 1e-9 times the operator norm of the
        current iterate.

    Returns
    -------
    KarcherResult
        With ``converged=False`` and the best iterate when the budget of
        ``max_iter`` polish iterations is exhausted.
    """
    mats = [_posdef(A)[0] for A in mats]
    if not mats:
        raise InputError("need at least one matrix")
    for A in mats[1:]:
        if A.shape != mats[0].shape:
            raise InputError(f"order mismatch: {A.shape[0]} vs {mats[0].shape[0]}")
    m = len(mats)
    w = np.full(m, 1.0 / m) if weights is None else validate_weights(weights, m)
    if m == 1:
        return KarcherResult(mean=mats[0], residual=0.0, iterations=0, converged=True)

    if m == 2:
        X = _geodesic(mats[0], mats[1], w[1])
    else:
        X = _sym_exp(sum(wj * _sym_log(A) for wj, A in zip(w, mats)))

    invs = [np.linalg.inv(A) for A in mats]

    def _state(X):
        Xh, lam, _ = _sqrt_eig(X)
        grad = _weighted_log_sum(Xh, invs, w)
        return Xh, grad, float(np.linalg.norm(grad)), float(lam[-1])

    Xh, grad, resid, opnorm = _state(X)
    target = (1e-9 * opnorm) if tol is None else tol
    theta = 1.0
    iterations = 0
    while resid > target and iterations < max_iter:
        step = Xh @ _sym_exp(-theta * grad) @ Xh
        step = (step + step.T) / 2.0
        new_Xh, new_grad, new_resid, new_opnorm = _state(step)
        if new_resid >= resid and theta > 1e-8:
            theta /= 2.0
        else:
            X, Xh, grad, resid, opnorm = step, new_Xh, new_grad, new_resid, new_opnorm
            theta = min(theta * 1.2, 8.0)
            if tol is None:
                target = 1e-9 * opnorm
        iterations += 1
    return KarcherResult(mean=X, residual=resid, iterations=iterations, converged=resid <= target)
