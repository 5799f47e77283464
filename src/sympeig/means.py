"""Riemannian geometry of the positive definite cone: distance, geodesics
(the geometric mean A # B is the midpoint t = 1/2), and the weighted Karcher mean.

All whiten by one A = Q D Q^T: with G = Q D^{-1/2} and F = Q D^{1/2}, G^T B G
is orthogonally similar to A^{-1/2} B A^{-1/2}, delta(A, B) = ||log G^T B G||_F
and A #_t B = F (G^T B G)^t F^T. No A^{-1/2} or inverse is formed, so accuracy
degrades far less with kappa(A) * kappa(B). The Karcher mean starts at
A_0 #_{w_1} A_1 (m = 2) or at exp(sum_j w_j log A_j) (m >= 3) and solves
sum_j w_j log(G^T A_j G) = 0, G whitening the iterate, by Riemannian Newton
steps; the norm of that sum is the reported certificate. One walk serves a
batch of instances (theorem 4's groups), each row stepping as it would alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .matfun import (
    _dot, _eigh, _one, _posdef, _same_order, _spectral, _sym, _sym_exp, require_between, require_integer,
    require_matrices, require_nonnegative, require_numeric
)

KARCHER_TOL = 1e-9  # the Karcher walk's default target for its dimensionless residual


def validate_weights(w, m: int) -> np.ndarray:
    """Positive finite weights of length m summing to 1 within 1e-12; uniform when None."""
    if w is None:
        return np.full(m, 1.0 / m)
    w = require_numeric(w, "weights")
    if w.shape != (m,):
        raise InputError(f"expected {m} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise InputError("weights must all be positive and finite")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise InputError(f"weights must sum to 1, got {float(w.sum()):.17g}")
    return w


def _whitened_eig(G: np.ndarray, B: np.ndarray):
    """``(mu, V)`` with G^T B G = V diag(mu) V^T, G = Q diag(w)^{-1/2} for
    A = Q diag(w) Q^T, for one B or a stack of them along the leading axis (and
    one G or a stack of them); NumericalError unless each is numerically
    positive definite."""
    return _spd_eigh(_sym(np.swapaxes(G, -1, -2) @ B @ G))


def _spd_eigh(S: np.ndarray):
    """``(w, Q)`` of the gated S, or of each matrix of a stack, whose eigensolve may
    still put w_min <= 0 when S is singular to working precision: NumericalError
    then, before any sqrt or log."""
    w, Q = _eigh(S)
    low = np.min(w[..., 0])
    if low <= 0.0:
        raise NumericalError(f"matrix is not numerically positive definite: lambda_min = {low:.6e}")
    return w, Q


def _binary_scaled(S: np.ndarray):
    """``(e, S / 2^e)`` with max|S / 2^e| in [1/2, 1). Dividing by a power of two
    is exact, and it keeps the whitening's products of inputs whose scales lie
    far apart from overflowing or underflowing."""
    e = int(np.frexp(np.max(np.abs(S)))[1])
    return e, np.ldexp(S, -e)


def riemannian_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Affine-invariant Riemannian distance ||log(A^{-1/2} B A^{-1/2})||_F;
    NumericalError when that matrix is not numerically positive definite.
    For A = 2^a A', B = 2^b B' scaled to unit size, each log mu_j of the pair
    (A', B') gains (b - a) log 2."""
    (a, A), (b, B) = map(_binary_scaled, _same_order([_posdef(_one(A))[0], _posdef(_one(B))[0]]))
    w, Q = _spd_eigh(A)
    mu = _whitened_eig(Q / np.sqrt(w), B)[0]
    return float(np.sqrt(np.sum((np.log(mu) + (b - a) * math.log(2.0)) ** 2)))


def geodesic(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """Point A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} on the geodesic
    from A (t = 0) to B (t = 1); for A = 2^a A', B = 2^b B' scaled to unit
    size, A #_t B is 2^((1 - t) a + t b) (A' #_t B'). InputError unless t is a
    number in [0, 1] (extrapolation is out of scope) and the orders agree;
    NumericalError unless A^{-1/2} B A^{-1/2} is numerically positive definite.
    """
    require_between(t, "geodesic parameter", 0, 1)
    A, B = _same_order([_posdef(_one(A))[0], _posdef(_one(B))[0]])
    if t in (0.0, 1.0):
        return B if t else A
    (a, A), (b, B) = _binary_scaled(A), _binary_scaled(B)
    P = _geodesic(*_spd_eigh(A), B, t)
    e = (1.0 - t) * a + t * b
    k = math.floor(e)
    return np.ldexp((P @ P.T) * 2.0 ** (e - k), k)


def _geodesic(w: np.ndarray, Q: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """Factor P = F V diag(mu^{t/2}) of A #_t B = P P^T for validated A = Q diag(w) Q^T, B;
    for stacks of them, t is a column of one parameter per matrix."""
    root = np.sqrt(w)[..., None, :]
    mu, V = _whitened_eig(Q / root, B)
    return ((Q * root) @ V) * (mu ** (t / 2.0))[..., None, :]


@dataclass(frozen=True)
class KarcherResult:
    """Karcher mean solve outcome.

    ``residual`` is the Frobenius norm of
    sum_j w_j log(mean^{1/2} A_j^{-1} mean^{1/2}) at the returned mean;
    ``converged`` is False when the iteration budget ran out, in which case
    the best iterate found is still returned (a step is taken only when it
    lowers the residual). ``residual_history`` holds the start's residual and
    then that of each iteration's trial point, accepted or not, so it has
    ``iterations + 1`` entries.
    """

    mean: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: tuple[float, ...] = ()


def _log_sum(G: np.ndarray, stack: np.ndarray, w: np.ndarray):
    """``(S, ell, V)`` per row of a batch: S = sum_j w_j log(G^T A_j G) for the row's
    G, its stacked A_j (``stack`` has shape (batch, m, N, N)) and weights (``w``
    (batch, m)), with G^T A_j G = V_j diag(exp ell_j) V_j^T. For X = Q diag(lam) Q^T
    and G = Q diag(lam)^{-1/2}, S = -Q^T grad Q for
    grad = sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2})."""
    mu, V = _whitened_eig(G[:, None], stack)
    ell = np.log(mu)
    return np.einsum("bj,bjik,bjlk->bil", w, V * ell[..., None, :], V), ell, V


def karcher_residual(X: np.ndarray, mats, weights=None) -> float:
    """Frobenius norm of sum_j w_j log(X^{1/2} A_j^{-1} X^{1/2})."""
    X, *mats = _same_order([_posdef(_one(S))[0] for S in (X, *require_matrices(mats))])
    w = validate_weights(weights, len(mats))
    lam, Q = _spd_eigh(X)
    return float(np.linalg.norm(_log_sum((Q / np.sqrt(lam))[None], np.array(mats)[None], w[None])[0][0]))


def _newton_direction(S: np.ndarray, ell: np.ndarray, V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H with Hess[H] = S for each row of a batch (the rows of :func:`_log_sum`),
    by conjugate gradients on the symmetric matrices.

    Hess[H] = sum_j w_j V_j ((V_j^T H V_j) o Gamma_j) V_j^T is the derivative
    of the whitened log-sum S along X <- F exp(H) F^T: the Daleckii-Krein
    divided differences of log at exp(ell_j), taken under the congruence
    exp(-H/2) . exp(-H/2), give Gamma_j[i, k] = g(ell_ji - ell_jk) with
    g(x) = (x/2) coth(x/2) and g(0) = 1. So Hess is symmetric positive
    definite with eigenvalues >= 1. Each row's CG, with its own step sizes,
    stops once its residual is below min(1, ||S||) ||S|| / 10, so the steps
    converge quadratically; a stopped row leaves the batch.
    """
    half = (ell[..., :, None] - ell[..., None, :]) / 2.0
    gamma = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half != 0.0)
    gamma *= w[..., None, None]
    H = np.zeros_like(S)
    rows = np.arange(len(S))
    r = p = S
    rr = _dot(r, r)
    stop = 1e-2 * np.minimum(1.0, rr) * rr
    for _ in range(S[0].size):
        go = rr > stop
        if not go.all():
            rows, r, p, rr, stop, V, gamma = (x[go] for x in (rows, r, p, rr, stop, V, gamma))
            if not rows.size:
                break
        Vt = np.swapaxes(V, -1, -2)
        Hp = ((V @ ((Vt @ p[:, None] @ V) * gamma)) @ Vt).sum(axis=1)
        alpha = (rr / _dot(p, Hp))[:, None, None]
        H[rows] += alpha * p
        r = r - alpha * Hp
        rr, previous = _dot(r, r), rr
        p = r + (rr / previous)[:, None, None] * p
    return H


def karcher_mean(mats, weights=None, tol: float = KARCHER_TOL, max_iter: int = 200) -> KarcherResult:
    """Weighted Karcher (Riemannian barycenter) mean of positive definite
    matrices.

    The start is the exact mean A_0 #_{w_1} A_1 for m = 2 and the
    log-Euclidean mean exp(sum_j w_j log A_j), exact for commuting inputs,
    for m >= 3. Each iteration then takes a Riemannian Newton step
    X <- F exp(theta * H) F^T, X = F F^T with F = Q diag(lam)^{1/2}, where H
    solves Hess[H] = S for the whitened log-sum S (see
    :func:`_newton_direction`). A step is taken only when it lowers the
    residual, so the current iterate is always the best one found: theta
    starts at 1, halves after each rejected trial point and grows by 1.2,
    capped at 1, after each accepted step. This is the batch of one of the
    stacked walk behind theorem 4, whose rows have the bits of this call.

    Parameters
    ----------
    mats : sequence of ndarray
        m >= 1 positive definite matrices of equal order.
    weights : sequence of float, optional
        Positive weights summing to 1; uniform when omitted.
    tol : float
        Finite target >= 0 of the dimensionless residual, at every scale.
    max_iter : int
        Newton iteration budget, an integer >= 0.

    Returns
    -------
    KarcherResult
        With ``converged=False`` and the best iterate when the budget of
        ``max_iter`` Newton iterations is exhausted.
    """
    require_nonnegative(max_iter, "max_iter")
    require_integer(max_iter, "max_iter")
    require_nonnegative(tol, "tol")
    mats = [_posdef(_one(A))[0] for A in require_matrices(mats)]
    w = validate_weights(weights, len(mats))
    return _karcher(np.array(_same_order(mats))[None], w[None], float(tol), max_iter)[0]


def _karcher(stack: np.ndarray, w: np.ndarray, tol: float = KARCHER_TOL, max_iter: int = 200) -> list[KarcherResult]:
    """:func:`karcher_mean` of each row of a batch: ``stack`` (batch, m, N, N) holds
    each row's validated matrices of one order, ``w`` (batch, m) its weights.

    Every row walks as it would alone: the start, the Newton direction and the
    theta accept/halve rule run per row, on the rows still walking, and
    each row's scalars are dot products as the single call takes them, so a row's
    iterations, residual history and mean do not depend on its batch. Each live
    row's direction is solved on every iteration, after a halved step too: its
    conjugate gradients are deterministic, so the direction is the one it had.
    """
    b, m = w.shape
    if m == 1:
        return [
            KarcherResult(mean=X, residual=0.0, iterations=0, converged=True, residual_history=(0.0,))
            for X in stack[:, 0]
        ]
    if m == 2:
        X = stack[:, 1].copy()
        walk = np.flatnonzero(w[:, 1] != 1.0)
        if walk.size:
            P = _geodesic(*_spd_eigh(stack[walk, 0]), stack[walk, 1], w[walk, 1:])
            X[walk] = P @ np.swapaxes(P, -1, -2)
    else:
        logs = _spectral(np.log, *_spd_eigh(stack))
        X = _sym_exp(sum(w[:, j, None, None] * logs[:, j] for j in range(m)))

    def _state(X, rows):
        lam, Q = _spd_eigh(X)
        root = np.sqrt(lam)[..., None, :]
        S, ell, V = _log_sum(Q / root, stack[rows], w[rows])
        return [X, Q * root, S, ell, V, np.sqrt(_dot(S, S))]

    state = _state(X, np.arange(b))
    X, F, S, ell, V, resid = state  # updated in place, row by row
    history = [[r] for r in resid.tolist()]
    theta, count = np.ones(b), np.zeros(b, dtype=int)
    while True:
        live = np.flatnonzero((resid > tol) & (count < max_iter))
        if not live.size:
            break
        count[live] += 1
        H = _newton_direction(S[live], ell[live], V[live], w[live])
        step = F[live] @ _sym_exp(theta[live, None, None] * H) @ np.swapaxes(F[live], -1, -2)
        trial = _state(_sym(step), live)
        tried = trial[5]  # the residuals at the trial points
        for i, r in zip(live.tolist(), tried.tolist()):
            history[i].append(r)
        halve = tried >= resid[live]
        theta[live[halve]] /= 2.0
        moved = live[~halve]
        for x, y in zip(state, trial):
            x[moved] = y[~halve]
        theta[moved] = np.minimum(theta[moved] * 1.2, 1.0)
    return [
        KarcherResult(mean=X[i], residual=r, iterations=c, converged=r <= tol, residual_history=tuple(h))
        for i, (r, c, h) in enumerate(zip(resid.tolist(), count.tolist(), history))
    ]
