"""Functional calculus for real symmetric matrices.

The one place that decides positive definiteness and owns each numerical
rule: ``_posdef`` is the gate for outside input, a shifted-Cholesky
certificate with the spectrum as its fallback, ``_same_order`` the one rule
for inputs that must share an order, ``_lapack`` the one map of a
``numpy.linalg`` failure to NumericalError (behind ``_eigh``, ``_svd``,
``_cholesky`` and ``williamson._sharp``), ``_spectral`` the one
f(S) = Q diag(f(w)) Q^T and ``_sym`` the one symmetric part (X + X^T)/2 of a
computed product. ``_eigh`` and ``_svd`` are the eigen-kernels (``_svd`` is
behind the Euler decomposition and ``williamson._skew_svd``, the SVD of the
skew K = F^T J F = P - P^T, P = F[:n]^T F[n:] the product of the factor's row
halves, for symplectic spectra and Williamson forms), and the other
underscore helpers trust their inputs. ``require_numeric`` is the one
conversion of outside arrays, and the other ``require_*`` check parameters:
a scalar is one real number, a seed an integer >= 0 and a matrix sequence an
iterable of at least one (or two) matrices.
The refusing operations (fractional powers, logarithms, symplectic spectra)
reject near-singular input instead of regularizing it.
"""

import operator

import numpy as np

from .errors import DomainError, InputError, NumericalError

# Allowed relative asymmetry of "symmetric" inputs before they are rejected.
SYMTOL = 1e-8
# The refusing operations reject lambda_min <= PD_RELCUT * lambda_max.
PD_RELCUT = 1e-12


def require_square(X: np.ndarray, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Return X as a float array, raising InputError unless it is a finite
    square 2-d matrix, or with ``stacked`` a stack of them along one leading
    axis (the message then names the shape of one matrix)."""
    X = require_numeric(X, name)
    if X.ndim != 2 + stacked or X.shape[-1] != X.shape[-2]:
        raise InputError(f"{name} must be square, got shape {X.shape[int(stacked):]}")
    if not np.all(np.isfinite(X)):
        raise InputError(f"{name} has non-finite entries")
    return X


def require_numeric(x, name: str) -> np.ndarray:
    """x as a float array, after an InputError unless numpy can convert it:
    the one conversion of outside array input."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be numeric: {exc}") from exc


def _real(value) -> bool:
    """True when value is one real number: a Python or numpy int or float, or a
    0-d array of one; a bool, a complex value, a string or an array is not."""
    try:
        value = np.asarray(value)
    except (TypeError, ValueError):
        return False
    return value.ndim == 0 and value.dtype.kind in "iuf"


def require_finite(value, name: str) -> None:
    """Raise InputError unless value (a power) is a finite real number."""
    if not (_real(value) and np.isfinite(value)):
        raise InputError(f"{name} must be a finite real number, got {value}")


def require_nonnegative(value: float, name: str) -> None:
    """Raise InputError unless value (a tolerance, spread or budget) is a finite real number >= 0."""
    if not (_real(value) and np.isfinite(value) and value >= 0.0):
        raise InputError(f"{name} must be finite and >= 0, got {value}")


def require_integer(value, name: str) -> int:
    """value as an int, raising InputError unless it is one (numpy integers
    included, bools not)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {value}")


def require_seed(value) -> int:
    """value as an int, after an InputError unless it is an integer >= 0: the
    one rule for the seed of the suite and of the seeded generators."""
    seed = require_integer(value, "seed")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return seed


def require_between(value, name: str, lo, hi):
    """value, after an InputError unless it is a real number in [lo, hi]."""
    if _real(value) and lo <= value <= hi:
        return value
    raise InputError(f"{name} must lie in [{lo}, {hi}], got {value}")


def require_matrices(mats, m: int = 1) -> list:
    """The matrices of mats as a list, after an InputError unless it is an
    iterable of at least m of them (m = 1 or 2)."""
    count = "one matrix" if m == 1 else "two matrices"
    try:
        mats = list(mats)
    except TypeError:
        raise InputError(f"need an iterable of at least {count}, got {mats!r}") from None
    if len(mats) < m:
        raise InputError(f"need at least {count}")
    return mats


def require_index(value, name: str, lo: int, hi: int) -> int:
    """value as an int, after an InputError unless it is an integer in [lo, hi]."""
    return require_between(require_integer(value, name), name, lo, hi)


def symmetrize(S: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Validate that S is symmetric within tolerance and return (S + S^T)/2;
    with ``stacked``, each matrix of a stack along one leading axis.

    Raises
    ------
    InputError
        If S is not square, not finite, or max|S_ij - S_ji| exceeds
        SYMTOL * max|S_ij| (the first such matrix of a stack is named).
    """
    S = require_square(S, "positive definite matrix", stacked)
    # One contiguous transpose, read by the test and holding the mean.
    St = np.swapaxes(S, -1, -2).copy()
    if S.size:
        D = S - St
        asym = np.max(np.abs(D, out=D), axis=(-2, -1)).ravel()
        scale = np.max(np.abs(S, out=D), axis=(-2, -1)).ravel()
        for a, s in zip(asym, scale):
            if a > SYMTOL * max(s, np.finfo(float).tiny):
                raise InputError(
                    f"positive definite matrix is not symmetric: max asymmetry {a:.3e} exceeds "
                    f"{SYMTOL:.1e} * max|entry| = {SYMTOL * s:.3e}"
                )
    St += S
    St /= 2.0
    return St


def _lapack(solver, *args, what: str = "eigensolver", **kwargs):
    """``solver(*args, **kwargs)`` for a ``numpy.linalg`` function that its caller
    looks up at call time; its LinAlgError raises NumericalError("{what} failed: ...")."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} failed: {exc}") from exc


def _eigh(S: np.ndarray, values_only: bool = False):
    """Ascending eigenvalues of the trusted symmetric or Hermitian S (lower
    triangle read), with eigenvectors as ``(w, Q)`` unless ``values_only``."""
    return _lapack(np.linalg.eigvalsh if values_only else np.linalg.eigh, S)


def _svd(X: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of the trusted X or stack."""
    return _lapack(np.linalg.svd, X, compute_uv=compute_uv)


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


def _posdef(S: np.ndarray, refuse_near_singular: bool = False, stacked: bool = False) -> np.ndarray:
    """The symmetrized S of nonempty outside input, once it is certified positive
    definite (with ``refuse_near_singular``: lambda_min > PD_RELCUT * lambda_max);
    with ``stacked``, every matrix of a stack along one leading axis.

    A Cholesky factor of S - tau I, tau = (cut + m^2 eps) s ||S / s||_F with
    s = max|S_ij| and cut = PD_RELCUT or 0 (m^2 eps: Cholesky's backward error,
    Higham ASNA 10.1), certifies lambda_min > cut * lambda_max; when S - tau I
    does not factor, the spectrum decides. Callers that need a factor or an
    eigendecomposition compute it afterwards. A stack is factored in one call,
    and when any of its matrices does not factor, the spectra decide for all.
    Each ||.||_F is one :func:`_dot`, as ``np.linalg.norm`` takes it.
    """
    S = symmetrize(S, stacked=stacked)
    if not S.size:
        raise InputError("positive definite matrix must be nonempty")
    m = S.shape[-1]
    scale = np.max(np.abs(S), axis=(-2, -1), keepdims=True)
    scale[scale == 0.0] = 1.0
    cut = PD_RELCUT if refuse_near_singular else 0.0
    T = S / scale
    tau = (cut + m * m * np.finfo(float).eps) * scale * np.sqrt(_dot(T, T))[..., None, None]
    # S - tau I in T's buffer, its diagonal shifted through a strided view.
    T[...] = S
    T.reshape(S.shape[:-2] + (m * m,))[..., :: m + 1] -= tau[..., 0]
    try:
        np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        for w in _eigh(S, values_only=True).reshape(-1, m):
            _check_posdef(w, refuse_near_singular)
    return S


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The Frobenius inner product of each pair of matrices of the stacks X and Y:
    one dot product per matrix through matmul's vector case, which takes the
    product as ``np.vdot`` and ``np.linalg.norm`` do, so a stacked row has the
    bits of the single call."""
    return (X.reshape(X.shape[:-2] + (1, -1)) @ Y.reshape(Y.shape[:-2] + (-1, 1)))[..., 0, 0]


def _same_order(mats: list) -> list:
    """The gated matrices (or stacks of them), after an InputError unless all have
    the first one's order."""
    first = mats[0].shape[-1]
    for S in mats:
        if S.shape[-1] != first:
            raise InputError(f"order mismatch: {first} vs {S.shape[-1]}")
    return mats


def _cholesky(S: np.ndarray) -> np.ndarray:
    """Cholesky factor L, S = L L^T, of the trusted S."""
    return _lapack(np.linalg.cholesky, S, what="Cholesky factorization")


def _sym(X: np.ndarray) -> np.ndarray:
    """(X + X^T)/2 of a trusted, nearly symmetric X, or of each matrix of a stack."""
    return (X + np.swapaxes(X, -1, -2)) / 2.0


def _spectral(f, w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Q diag(f(w)) Q^T from an eigendecomposition (w, Q), or of each one of a stack."""
    return (Q * f(w)[..., None, :]) @ np.swapaxes(Q, -1, -2)


def _sym_exp(S: np.ndarray) -> np.ndarray:
    """exp S for a trusted, nearly symmetric S, or each matrix of a stack, symmetrized first."""
    return _spectral(np.exp, *_eigh(_sym(S)))


def sym_pow(S: np.ndarray, t: float) -> np.ndarray:
    """Fractional power S^t = Q diag(lambda^t) Q^T of a symmetric positive
    definite matrix (``sym_pow(S, 1) == S`` and ``sym_pow(S, 0) == I`` up to
    roundoff). InputError unless t is a finite real number; DomainError unless
    S is positive definite with lambda_min > 1e-12 * lambda_max: near-singular
    input is refused rather than regularized.
    """
    require_finite(t, "power")
    return _spectral(lambda w: w**t, *_eigh(_posdef(S, refuse_near_singular=True)))


def sym_log(S: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a symmetric positive definite matrix; refuses
    near-singular input like :func:`sym_pow`."""
    return _spectral(np.log, *_eigh(_posdef(S, refuse_near_singular=True)))

