"""Symplectic-group utilities.

Covers the standard form J, symplecticity testing, the associated nonnegative
matrix of a symplectic matrix, the doubly stochastic kernel and a dense numpy
max-flow for the doubly superstochastic test, the Euler decomposition into
orthogonal-symplectic factors and a squeezing diagonal, and seeded random
generators used by the property suites, whose orthogonal-symplectic draws are
the real forms [[X, -Y], [Y, X]] of Haar unitaries X + iY.

Symplectic input has one stacked gate, ``_symplectic``, judged by the one
relative rule of ``_relative``; the public tests are its batch of one, and the
kernels behind them trust their inputs.

Block convention throughout: J = [[0, I], [-I, 0]]. Data in the interleaved
convention (J_2 + ... + J_2 on the diagonal) can be mapped to this one with
:func:`convention_permutation`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matfun import (
    _dot, _eigh, _one, _svd, _sym, require_integer, require_nonnegative, require_numeric, require_seed, require_square
)

# The one symplecticity threshold, relative to 1 + ||M||_F^2 (see _relative).
SYMPLECTIC_TOL = 1e-9
# The slack of each capacity b_ij + SUPERSTOCHASTIC_TOL in the doubly
# superstochastic max-flow, of is_doubly_superstochastic and theorem 6.
SUPERSTOCHASTIC_TOL = 1e-9
# Singular values of M within this multiple of max(1, s_1) of 1 form the
# unit block (gamma = 1) of the Euler decomposition.
_UNIT_CLUSTER_TOL = 1e-10


def _half_order(n) -> int:
    """n as an int, after an InputError unless it is an integer >= 1."""
    n = require_integer(n, "half-order")
    if n < 1:
        raise InputError(f"half-order must be >= 1, got {n}")
    return n


def standard_J(n: int) -> np.ndarray:
    """The 2n x 2n standard symplectic form [[0, I], [-I, 0]]."""
    n = _half_order(n)
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def convention_permutation(n: int) -> np.ndarray:
    """Permutation matrix P mapping block-convention coordinates to the
    interleaved (q1, p1, ..., qn, pn) convention.

    P^T (J_2 + ... + J_2) P equals ``standard_J(n)``, and ``P.T @ A @ P``
    converts a matrix given in the interleaved convention to the block
    convention used everywhere else in this package.
    """
    n = _half_order(n)
    return np.eye(2 * n)[:, np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]]


@dataclass(frozen=True)
class SymplecticCheck:
    """Outcome of a symplecticity test; truthiness follows ``ok``."""

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def _relative(R: np.ndarray, X: np.ndarray):
    """``(ok, residual)`` of each matrix of the real stack R and the stack X: the
    Frobenius norm of R, one :func:`matfun._dot` per matrix as ``np.linalg.norm``
    takes it, and the one relative rule residual <= SYMPLECTIC_TOL * (1 + ||X||_F^2),
    which fails closed: an overflowed, non-finite residual is not accepted."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.sqrt(_dot(R, R))
        bound = SYMPLECTIC_TOL * (1.0 + np.sum(np.abs(X) ** 2, axis=(-2, -1)))
    return np.isfinite(residual) & (residual <= bound), residual


def _symplecticity(M):
    """``(M, ok, residual)`` of a stack of candidates (b, 2n, 2n), after an InputError
    unless square of even order: per matrix ||M^T J M - J||_F from one stacked product."""
    M = require_square(M, "symplectic candidate")
    if M.shape[-1] % 2 != 0:
        raise InputError(f"symplectic matrices have even order, got {M.shape[-1]}")
    J = standard_J(M.shape[-1] // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.swapaxes(M, -1, -2) @ J @ M - J
    return (M, *_relative(R, M))


def _symplectic(M) -> np.ndarray:
    """The one symplectic gate: the stack M as floats, after an InputError
    naming the residual of its first matrix that is not symplectic."""
    M, ok, residual = _symplecticity(M)
    if not ok.all():
        raise InputError(f"matrix is not symplectic: residual {residual[np.argmin(ok)]:.3e} exceeds tolerance")
    return M


def is_symplectic(M: np.ndarray) -> SymplecticCheck:
    """Test M^T J M = J, reporting the Frobenius residual: M passes when
    ``||M^T J M - J||_F <= SYMPLECTIC_TOL * (1 + ||M||_F^2)``. InputError unless
    M is square of even order."""
    _, ok, residual = _symplecticity([M])
    return SymplecticCheck(ok=bool(ok[0]), residual=float(residual[0]))


def validate_symplectic(M: np.ndarray) -> np.ndarray:
    """Return M as an array, raising InputError if it fails ``is_symplectic``."""
    return _symplectic([M])[0]


def associated_matrix(M: np.ndarray) -> np.ndarray:
    """The nonnegative n x n matrix with entries (a_ij^2 + b_ij^2 + c_ij^2 +
    g_ij^2) / 2 built from the blocks of a symplectic M.

    Every row and column sum is >= 1; the matrix is doubly stochastic exactly
    when M is orthogonal.
    """
    return _associated(validate_symplectic(M))


def _associated(M: np.ndarray) -> np.ndarray:
    """:func:`associated_matrix` of the trusted symplectic M, or of each matrix of a stack."""
    n = M.shape[-1] // 2
    return 0.5 * (M[..., :n, :n] ** 2 + M[..., :n, n:] ** 2 + M[..., n:, :n] ** 2 + M[..., n:, n:] ** 2)


def _doubly_stochastic(B: np.ndarray, tol: float) -> np.ndarray:
    """Whether the trusted B, or each matrix of a stack, is doubly stochastic: entries
    >= -tol, row and column sums within tol of 1 (theorem 6's test of orthogonal M)."""
    row, col = np.abs(B.sum(axis=-1) - 1.0), np.abs(B.sum(axis=-2) - 1.0)
    return (np.min(B, axis=(-2, -1)) >= -tol) & (np.max(row, axis=-1) <= tol) & (np.max(col, axis=-1) <= tol)


@dataclass(frozen=True)
class SuperstochasticCheck:
    """Outcome of the transportation-feasibility test.

    ``witness`` is a doubly stochastic matrix dominated entrywise by the
    input (up to the tolerance) when ``ok``, else None. ``flow_value`` is
    the attained maximum flow (equals n exactly when feasible).
    """

    ok: bool
    flow_value: float
    witness: np.ndarray | None

    def __bool__(self) -> bool:
        return self.ok


def is_doubly_superstochastic(B: np.ndarray) -> SuperstochasticCheck:
    """Decide whether B dominates some doubly stochastic matrix entrywise: the
    batch of one of the max-flow :func:`_superstochastic`, with the fixed
    SUPERSTOCHASTIC_TOL (1e-9) added to each capacity. InputError unless B is
    nonempty, finite and square."""
    name = "doubly superstochastic candidate"
    B = require_square(_one(B, name), name)
    if B.size == 0:
        raise InputError(f"{name} must be nonempty")
    return _superstochastic(B, SUPERSTOCHASTIC_TOL)[0]


def _superstochastic(B: np.ndarray, tol: float) -> list[SuperstochasticCheck]:
    """:func:`is_doubly_superstochastic` of each matrix of the trusted stack B
    (batch, n, n) and the trusted tol, one check per matrix.

    Max-flow on one dense (2n+2) x (2n+2) residual-capacity matrix per row:
    source 2n feeds rows 0..n-1 with capacity 1, row i feeds column n+j with
    b_ij + tol, columns drain into sink 2n+1 with capacity 1, and B is doubly
    superstochastic iff the flow reaches n. A greedy start fills rows in order,
    columns left to right, as n^2 steps over the batch; breadth-first searches,
    one numpy step per level for every row still searching and keeping the
    lowest-index parent, then add one shortest augmenting path per row. A row
    leaves once no path is left, so its flow is final. No hashing and
    index-order choices make each row's result depend on its B and tol alone.
    The witness is the reverse row-to-column residual, clamped to the capacity
    against the roundoff of the residual updates, so that p_ij <= b_ij + tol.
    """
    b, n = B.shape[:2]
    source, sink = 2 * n, 2 * n + 1
    R = np.zeros((b, 2 * n + 2, 2 * n + 2))
    supply, demand = np.ones((b, n)), np.ones((b, n))
    cap = B + tol
    for i in range(n):
        for j in range(n):
            R[:, n + j, i] = push = np.minimum(np.minimum(supply[:, i], demand[:, j]), cap[:, i, j])
            R[:, i, n + j] = cap[:, i, j] - push
            supply[:, i] -= push
            demand[:, j] -= push
    R[:, source, :n], R[:, :n, source] = supply, 1.0 - supply
    R[:, n:source, sink], R[:, sink, n:source] = demand, 1.0 - demand
    feasible = np.min(B, axis=(-2, -1)) >= -tol
    live = np.flatnonzero(feasible)
    while live.size:
        open_ = R[live] > 0.0
        parent = np.full((live.size, 2 * n + 2), -1)
        parent[:, source] = source
        frontier = parent >= 0
        while True:
            frontier &= (parent[:, sink] < 0)[:, None]
            if not frontier.any():
                break
            reach = open_ & frontier[:, :, None] & (parent < 0)[:, None, :]
            frontier = reach.any(axis=1)
            parent = np.where(frontier, reach.argmax(axis=1), parent)
        found = parent[:, sink] >= 0
        live, parent, rows = live[found], parent[found], np.arange(np.count_nonzero(found))
        # Each row's path as a mask of its edges, walked back from the sink.
        path, v = np.zeros((rows.size, 2 * n + 2, 2 * n + 2), dtype=bool), np.full(rows.size, sink)
        while (v != source).any():
            path[rows, parent[rows, v], v] = v != source
            v = parent[rows, v]
        push = np.min(np.where(path, R[live], np.inf), axis=(1, 2))[:, None, None]
        R[live] += (np.swapaxes(path, 1, 2) - path.astype(float)) * push
    checks = []
    for Ri, ok, capi in zip(R, feasible, cap):
        flow_value = float(Ri[:n, source].sum()) if ok else 0.0
        ok = bool(ok and flow_value >= n - 1e-9 * max(1, n))
        witness = np.minimum(Ri[n:source, :n].T, capi) if ok else None
        checks.append(SuperstochasticCheck(ok=ok, flow_value=flow_value, witness=witness))
    return checks


@dataclass(frozen=True)
class EulerForm:
    """Factorization M = o1 @ diag(gamma, 1/gamma) @ o2.T with o1, o2
    orthogonal-symplectic and gamma descending with gamma_n >= 1."""

    o1: np.ndarray
    gamma: np.ndarray
    o2: np.ndarray

    def middle(self) -> np.ndarray:
        """The diagonal factor diag(gamma_1..gamma_n, 1/gamma_1..1/gamma_n)."""
        return np.diag(np.concatenate([self.gamma, 1.0 / self.gamma]))

    def reconstruct(self) -> np.ndarray:
        return self.o1 @ self.middle() @ self.o2.T


def _hermitian_pairs(Q: np.ndarray, C: np.ndarray):
    """``(w, z, u, v)`` for C = Q^T K Q, K skew and the orthonormal 2m columns Q
    spanning a K-invariant subspace (or stacks of Q and C): z are the unit
    eigenvectors of the Hermitian i C for its m positive eigenvalues w,
    ascending, and u = sqrt(2) Q Re z, v = -sqrt(2) Q Im z are orthonormal
    pairs with K u = -w v, K v = w u, also for repeated w."""
    w, Z = _eigh(1j * C)
    m = C.shape[-1] // 2
    Z = Z[..., m:]
    UV = math.sqrt(2.0) * (Q @ np.concatenate([Z.real, Z.imag], axis=-1))
    return w[..., m:], Z, UV[..., :m], -UV[..., m:]


def euler_decompose(M: np.ndarray) -> EulerForm:
    """Euler (Bloch-Messiah) decomposition of a symplectic matrix.

    Returns orthogonal-symplectic o1, o2 and gamma_1 >= ... >= gamma_n >= 1
    with ``M = o1 @ diag(gamma, 1/gamma) @ o2.T``.

    From one SVD of M: since M J M^T = J, M (-J x) = -J y / gamma for each
    singular triple (gamma, x, y). The singular values above 1 + tol,
    tol = 1e-10 max(1, s_1), are the squeezed gamma, and their right and left
    singular vectors X and Y give o2 = [X, -J X] and o1 = [Y, -J Y]. The other
    right singular vectors W span a J-invariant subspace; the Hermitian
    eigenvectors of i W^T J W pair it into columns (u, -J u) of o2 with
    gamma = 1, and there o1 = M o2. The factors are orthogonal to about
    eps gamma_1 / (gamma - 1/gamma), gamma the smallest squeezed value.

    Raises
    ------
    InputError
        If M fails ``is_symplectic``.
    NumericalError
        If the SVD, or the eigensolve of the unit block, fails.
    """
    M = validate_symplectic(M)
    n = M.shape[0] // 2
    J = standard_J(n)
    Y, s, Xt = _svd(M)
    k = int(np.count_nonzero(s[:n] > 1.0 + _UNIT_CLUSTER_TOL * max(1.0, s[0])))
    X = Xt[:k].T
    if k < n:
        W = Xt[k : 2 * n - k].T
        X = np.hstack([X, _hermitian_pairs(W, W.T @ J @ W)[2]])
    o2 = np.hstack([X, -J @ X])
    o1 = np.hstack([Y[:, :k], M @ o2[:, k:n], -J @ Y[:, :k], M @ o2[:, n + k :]])
    return EulerForm(o1=o1, gamma=np.concatenate([s[:k], np.ones(n - k)]), o2=o2)


def _orthosymplectic(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The real form [[X, -Y], [Y, X]] of the unitary X + iY, for one n x n
    pair or a stack of them along the leading axes."""
    n = X.shape[-1]
    O = np.empty(X.shape[:-2] + (2 * n, 2 * n))
    O[..., :n, :n] = O[..., n:, n:] = X
    O[..., :n, n:] = -Y
    O[..., n:, :n] = Y
    return O


def _haar(N: np.ndarray) -> np.ndarray:
    """Random orthogonal-symplectic matrices from normals N of shape (..., 2, n, n).

    Each is the real form of a Haar unitary, the QR factor of the complex
    Gaussian (N[..., 0, :, :] + i N[..., 1, :, :]) / sqrt 2 with its phases fixed
    by the diagonal of R. One stacked QR serves every leading axis.
    """
    Q, R = np.linalg.qr((N[..., 0, :, :] + 1j * N[..., 1, :, :]) / math.sqrt(2.0))
    phases = np.diagonal(R, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    U = Q * phases[..., None, :]
    return _orthosymplectic(U.real, U.imag)


def _squeezed(N: np.ndarray, log_gamma: np.ndarray) -> np.ndarray:
    """o1 diag(gamma, 1/gamma) o2^T with gamma = exp(log_gamma) sorted descending
    and o1, o2 the orthogonal-symplectic matrices of the normals N[..., 0, :, :, :]
    and N[..., 1, :, :, :] (see :func:`_haar`); N has shape (..., 2, 2, n, n) and
    log_gamma (..., n), so stacks of draws give stacks of matrices."""
    O = _haar(N)
    gamma = np.sort(np.exp(log_gamma), axis=-1)[..., ::-1]
    scale = np.concatenate([gamma, 1.0 / gamma], axis=-1)[..., None, :]
    return (O[..., 0, :, :] * scale) @ np.swapaxes(O[..., 1, :, :], -1, -2)


def _congruence(S: np.ndarray, d: np.ndarray) -> np.ndarray:
    """S^T diag(d, d) S, symmetrized, for one S and d or stacks of them. The
    diagonal factor is a dense matrix, as it is for a single S, so each
    matrix of a stack has the bits it has alone."""
    dd = np.concatenate([d, d], axis=-1)
    m = dd.shape[-1]
    D = np.zeros(dd.shape + (m,))
    D[..., np.arange(m), np.arange(m)] = dd
    return _sym(np.swapaxes(S, -1, -2) @ D @ S)


def random_orthosymplectic_rng(rng: "np.random.Generator", n: int) -> np.ndarray:
    """Random orthogonal-symplectic matrix drawn through the unitary
    correspondence, so both structures hold by construction."""
    n = _half_order(n)
    return _haar(rng.standard_normal((2, n, n)))


def _seeded(seed) -> "np.random.Generator":
    """The generator of a seeded draw: of an integer seed >= 0 (InputError
    otherwise), or a numpy Generator, drawn from as given."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(require_seed(seed))


def random_symplectic(seed: int, n: int, spread: float = 1.0) -> np.ndarray:
    """Seeded random symplectic matrix O1 diag(gamma, 1/gamma) O2^T.

    O1, O2 are independent random orthogonal-symplectic matrices and
    log(gamma_j) is uniform on [0, spread]. spread = 0 yields an orthogonal
    symplectic matrix. Deterministic in ``seed``, an integer >= 0 (or a numpy
    Generator, drawn from as given).
    """
    rng = _seeded(seed)
    n = _half_order(n)
    require_nonnegative(spread, "spread")
    N = rng.standard_normal((2, 2, n, n))
    return _squeezed(N, rng.uniform(0.0, spread, size=n))


def random_posdef(
    seed: int, n: int, condition_spread: float = 1.0, spread: float = 1.0, d: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random positive definite matrix with a planted symplectic
    spectrum.

    Returns ``(A, d)`` where A = S^T diag(d, d) S for a random symplectic S
    and log(d_j) uniform on [-condition_spread, condition_spread], unless
    ``d``, n finite positive entries, is given. Symplectic congruence
    preserves the symplectic spectrum, so ``d`` (sorted ascending) is exactly
    the symplectic spectrum of A, which makes it a planted oracle for spectrum
    computations. Deterministic in ``seed``, an integer >= 0 (or a numpy
    Generator, drawn from as given).
    """
    rng = _seeded(seed)
    n = _half_order(n)
    require_nonnegative(condition_spread, "condition_spread")
    if d is not None:
        d = require_numeric(d, "d")
        if d.shape != (n,) or not np.all(np.isfinite(d) & (d > 0.0)):
            raise InputError(f"d must hold {n} finite positive entries, got {d.tolist()}")
    S = random_symplectic(rng, n, spread)
    if d is None:
        d = np.exp(rng.uniform(-condition_spread, condition_spread, size=n))
    d = np.sort(d)
    return _congruence(S, d), d
