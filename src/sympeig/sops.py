"""Structural operations adapted to the symplectic block layout:
s-pinchings and s-principal submatrices.

Each of these acts simultaneously on the four n x n quadrants of a 2n x 2n
matrix, which is what keeps the symplectic structure (and positive
definiteness) intact.
"""

import numpy as np

from .errors import InputError
from .matfun import require_integer
from .williamson import _even_order, validate_posdef


def _integers(values, name: str) -> tuple[int, ...]:
    """The integers of the iterable values, after an InputError unless it is one."""
    try:
        values = iter(values)
    except TypeError:
        raise InputError(f"{name}: expected a sequence of integers, got {values!r}") from None
    return tuple(require_integer(v, name) for v in values)


def validate_partition(sizes, n: int) -> tuple[int, ...]:
    """Positive block sizes summing to the half-order n."""
    sizes = _integers(sizes, "partition size")
    if not sizes or any(s < 1 for s in sizes):
        raise InputError(f"partition sizes must be positive integers, got {sizes}")
    if sum(sizes) != n:
        raise InputError(f"partition {sizes} does not sum to the half-order {n}")
    return sizes


def s_pinching(A: np.ndarray, sizes) -> np.ndarray:
    """Apply the block-diagonal pinching along ``sizes`` to each quadrant.

    Idempotent for a fixed partition; the result equals the s-direct sum of
    the s-principal submatrices along the partition and is positive definite
    whenever A is.
    """
    sizes = validate_partition(sizes, _even_order(A).shape[0] // 2)
    return _s_pinching(validate_posdef(A)[None], [sizes])[0]


def _s_pinching(S: np.ndarray, sizes) -> np.ndarray:
    """:func:`s_pinching` of each gated matrix of the stack S along its own
    validated partition: an entry survives when its row and column fall in
    the same block of the doubled partition."""
    ids = np.array([np.tile(np.repeat(np.arange(len(s)), s), 2) for s in sizes])
    return np.where(ids[:, :, None] == ids[:, None, :], S, 0.0)


def s_principal_submatrix(A: np.ndarray, keep) -> np.ndarray:
    """Keep the rows/columns i and n+i for i in ``keep`` (0-based), deleting
    both members of every dropped index pair.

    The result is positive definite of half-order len(keep). The CLI exposes
    this with 1-based indices.
    """
    n = _even_order(A).shape[0] // 2
    idx = sorted(set(_integers(keep, "keep index")))
    if not idx:
        raise InputError("keep must contain at least one index")
    if idx[0] < 0 or idx[-1] >= n:
        raise InputError(f"keep indices must lie in [0, {n - 1}], got {idx}")
    return _s_principal(validate_posdef(A)[None], np.array([idx]))[0]


def _s_principal(S: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """:func:`s_principal_submatrix` of each gated matrix of the stack S, keeping
    the ascending indices of its row of ``keep``."""
    n = S.shape[-1] // 2
    sel = np.concatenate([keep, keep + n], axis=-1)
    return S[np.arange(len(S))[:, None, None], sel[:, :, None], sel[:, None, :]]
