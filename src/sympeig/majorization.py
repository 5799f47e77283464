"""Vector pre-order predicates: log-majorization and supermajorization, with
signed margins.

All log-majorization arithmetic happens in log space so that products of many
entries cannot overflow; its tolerance is therefore absolute in log space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .matfun import require_numeric

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class MajorizationVerdict:
    """holds is equivalent to worst_margin >= -DEFAULT_TOL; failing_index is the
    1-based prefix length of the worst violated inequality (None when the
    relation holds)."""

    holds: bool
    worst_margin: float
    failing_index: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def _vector(x, name: str, positive: bool = False) -> np.ndarray:
    """x flattened to a vector, after an error unless it is nonempty, finite
    and, if asked, positive."""
    x = require_numeric(x, name).ravel()
    if x.size == 0:
        raise InputError(f"{name} must be nonempty")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} has non-finite entries")
    if positive and np.any(x <= 0.0):
        raise DomainError(f"{name} must be entrywise positive")
    return x


def _pair(y, x, positive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    y = _vector(y, "y", positive)
    x = _vector(x, "x", positive)
    if x.shape != y.shape:
        raise InputError(f"length mismatch: x has {x.size} entries, y has {y.size}")
    return y, x


def _verdict(margins: np.ndarray) -> MajorizationVerdict:
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    holds = worst_margin >= -DEFAULT_TOL
    return MajorizationVerdict(
        holds=holds,
        worst_margin=worst_margin,
        failing_index=None if holds else worst + 1,
    )


def _worst(margins: np.ndarray) -> np.ndarray:
    """Each row's worst margin: the first of its smallest entries, as argmin picks it."""
    return np.take_along_axis(margins, np.argmin(margins, axis=-1)[..., None], axis=-1)[..., 0]


def _log_margins(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The margins of x ≺_log y for validated vectors, or row by row for stacks:
    cumulative log gaps of the descending entries, the last one negated in size."""
    cx = np.cumsum(np.log(np.sort(x, axis=-1))[..., ::-1], axis=-1)
    cy = np.cumsum(np.log(np.sort(y, axis=-1))[..., ::-1], axis=-1)
    margins = cy - cx
    margins[..., -1] = -np.abs(margins[..., -1])
    return margins


def _super_margins(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The margins of x ≺^w y for validated vectors, or row by row for stacks."""
    return np.cumsum(np.sort(x, axis=-1), axis=-1) - np.cumsum(np.sort(y, axis=-1), axis=-1)


def log_majorizes(y, x) -> MajorizationVerdict:
    """Test x ≺_log y: every top-k product of x is at most that of y, and the
    full products agree.

    Margins are differences of cumulative logs; the final coordinate carries
    the equality constraint as -(absolute log-product gap), so worst_margin
    is 0 for x = y and the verdict holds iff worst_margin >= -DEFAULT_TOL.
    """
    return _verdict(_log_margins(*_pair(y, x, positive=True)))


def supermajorizes(y, x) -> MajorizationVerdict:
    """Test x ≺^w y: every bottom-k sum of x is at least that of y."""
    return _verdict(_super_margins(*_pair(y, x)))

