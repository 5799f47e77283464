"""One checker per inequality theorem, plus the seeded verification suite.

Every checker computes both sides of its statement on a concrete instance and
returns a TheoremReport whose margin is recomputable from the recorded
quantities. Each checker runs on a batch, its inputs stacked along a leading
axis: one gate per input stack (the positive definite gate's certificate and
Cholesky factor, or the symplectic gate's stacked residual) and one stacked
call per step (the SVD of K, eigh, the restriction products, row-wise
majorization, theorem 4's Karcher walk, theorem 6's max-flow) serve the whole
batch. A public ``check_*`` is that path on a batch of one, and every row
takes the same elementwise path, so a record does not depend on its group.
Only the cluster re-pairing of theorem 5's rows runs one instance at a time.

The suite reads the table ``THEOREMS = {id: (tolerance, draw, check)}``. Each
instance is drawn from its own generator, seeded by (seed, theorem, trial),
never from a computed value. Instances of one theorem and half-order (and,
for theorem 5, one k) form a group, assembled in one stacked pass and checked
in one call. A SympeigError in a group re-runs it one instance at a time, so
a refusal stays the record of its own instance.

Log-space comparisons of products and spectra carry raw log-domain margins;
linear ones (traces, sums, norms) are normalized by max(1, largest quantity
compared), so one absolute tolerance applies across scales. A report holds
exactly when margin >= -tolerance; a margin is the smallest of its
components, and a NaN component makes it NaN, which fails. Theorem 4 reports
``inconclusive`` instead of failing when its Karcher solve did not converge.
A public ``check_*`` judges at its theorem's DEFAULT_TOLERANCES entry; only the
suite's ``SuiteConfig.tol`` sets another, through the batch checkers' ``tol``.
Each parameter (k, t, weights, a drop index, a partition) is validated once,
by the public ``check_*`` that receives it, before its matrices; the batch
checkers and kernels trust theirs, and the suite draws valid ones. A matrix X
derived from the inputs passes no second gate: its symplectic spectrum is
read from a square factor X = F F^T.
"""

import json
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from . import majorization, means, sops
from .errors import InputError, SympeigError
from .matfun import (
    _cholesky, _eigh, _one, _svd, _sym, require_between, require_index, require_integer, require_matrices,
    require_nonnegative, require_numeric, require_seed
)
from .symplectic import (
    SUPERSTOCHASTIC_TOL,
    _associated,
    _congruence,
    _doubly_stochastic,
    _relative,
    _squeezed,
    _superstochastic,
    _symplectic,
    random_orthosymplectic_rng,
    standard_J,
)
from .williamson import _doubled, _even_order, _factor_spectrum, _gate, _gaussian, _sharp, _skew, _williamson

# Orthogonality threshold used by the theorem-6 cross-check.
ORTHOGONALITY_TOL = 1e-7
# Restrictions sampled by the theorem-5 check when no M is given, and their step
# from its minimizer: the Williamson M times two random shears of this size
# (see _near_minimizer).
THEOREM5_SAMPLES = 20
THEOREM5_STEP = 1e-4
# Most suite instances drawn and held at once, which bounds the suite's memory;
# groups form within a chunk, and records do not depend on its size.
SUITE_CHUNK = 600
# The one encoder of every record line: json.dumps(record, sort_keys=True) without a new encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class TheoremReport:
    """Structured record of one theorem check.

    holds is equivalent to margin >= -tolerance; for inconclusive reports the
    margin is NaN and holds is False, but the report is not counted as a
    failure.
    """

    theorem_id: str
    digest: str
    quantities: dict
    margin: float
    tolerance: float
    holds: bool
    inconclusive: bool = False
    trial: int | None = None
    n: int | None = None

    def to_record(self) -> dict:
        margin = self.margin if math.isfinite(self.margin) else None
        return {
            "theorem_id": self.theorem_id,
            "trial": self.trial,
            "n": self.n,
            "holds": self.holds,
            "inconclusive": self.inconclusive,
            "margin": margin,
            "tolerance": self.tolerance,
            "digest": self.digest,
        }

    def to_json_line(self) -> str:
        return _ENCODER.encode(self.to_record())


def _report(theorem_id, quantities, margin, tol, inconclusive=False, digest="", trial=None, n=None):
    margin = float(margin)
    holds = bool(math.isfinite(margin) and margin >= -tol) and not inconclusive
    return TheoremReport(
        theorem_id=theorem_id,
        digest=digest,
        quantities=quantities,
        margin=margin,
        tolerance=float(tol),
        holds=holds,
        inconclusive=inconclusive,
        trial=trial,
        n=n,
    )


def _lowest(*columns) -> np.ndarray:
    """Each row's smallest margin over columns and blocks of columns; a NaN wins."""
    return np.min(np.column_stack(columns), axis=-1)


def _lin(margin, *scale_values):
    """Normalize linear-domain margins by max(1, |quantities compared|), entrywise; a NaN propagates."""
    return margin / reduce(np.maximum, map(np.abs, scale_values), 1.0)


def _log_worst(y, x) -> np.ndarray:
    """Each row's worst margin of x ≺_log y."""
    return majorization._worst(majorization._log_margins(y, x))


def _reports(theorem_id, tol, margins, stamps=None, **columns) -> list[TheoremReport]:
    """One report per row: its margin, its quantities read row by row from the
    columns (arrays become lists of Python floats), and the suite's digest,
    trial and n from its stamp, when the suite gives ``stamps``."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
    stamps = stamps or [{}] * len(margins)
    return [_report(theorem_id, dict(zip(columns, row)), m, tol, **s) for row, m, s in zip(rows, margins, stamps)]


def _half(A) -> int:
    """The half-order of a public checker's matrix, after an InputError unless it is square of even order."""
    return _even_order(_one(A)).shape[-1] // 2


def _theorem1(A, t, *, tol, stamps=None):
    [(A, L)] = _gate(A)
    tt = np.array(t, dtype=float)[:, None]
    da = _factor_spectrum(L)
    w, Q = _eigh(A)
    dt = _factor_spectrum(Q * (w ** (tt / 2.0))[:, None, :])
    small = tt <= 1.0
    da_t, dt_hat = _doubled(da) ** tt, _doubled(dt)
    worst = _log_worst(np.where(small, da_t, dt_hat), np.where(small, dt_hat, da_t))
    bottom_t = np.cumsum(np.log(dt), axis=-1)
    bottom_a = np.cumsum(tt * np.log(da), axis=-1)
    margins = _lowest(worst, np.where(small, bottom_t - bottom_a, bottom_a - bottom_t))
    return _reports("1", tol, margins, stamps, t=t, d_of_A=da, d_of_A_pow_t=dt)


def check_theorem1(A: np.ndarray, t: float) -> TheoremReport:
    """Symplectic spectrum of a matrix power: for 0 <= t <= 1 the doubled
    spectrum of A^t is log-majorized by the t-th power of that of A, and the
    order reverses for t >= 1. Also checks the bottom-k product inequalities
    for the plain (ascending) spectra."""
    require_nonnegative(t, "power")
    return _theorem1(_one(A), [t], tol=DEFAULT_TOLERANCES["1"])[0]


def _theorem3(A, B, t, *, tol, stamps=None):
    (A, LA), (B, LB) = _gate(A, B)
    tt = np.array(t, dtype=float)[:, None]
    lhs = _doubled(_factor_spectrum(means._geodesic(*_eigh(A), B, tt)))
    rhs = _doubled(_factor_spectrum(LA)) ** (1.0 - tt) * _doubled(_factor_spectrum(LB)) ** tt
    return _reports("3", tol, _log_worst(rhs, lhs), stamps, t=t, dhat_geodesic=lhs, rhs_vector=rhs)


def check_theorem3(A: np.ndarray, B: np.ndarray, t: float) -> TheoremReport:
    """Doubled spectrum of the geodesic point A #_t B is log-majorized by the
    coordinatewise product d_hat(A)^(1-t) * d_hat(B)^t."""
    require_between(t, "geodesic parameter", 0, 1)
    return _theorem3(_one(A), _one(B), [t], tol=DEFAULT_TOLERANCES["3"])[0]


def _theorem4(mats, weights, *, tol, stamps=None):
    w = np.array(weights)
    gated = _gate(*mats)
    results = means._karcher(np.stack([S for S, _ in gated], axis=1), w)
    quantities = [{"residual": r.residual, "iterations": r.iterations} for r in results]
    margins = np.full(len(results), np.nan)
    done = np.flatnonzero([r.converged for r in results])
    if done.size:
        lhs = _doubled(_factor_spectrum(_cholesky(np.array([results[i].mean for i in done]))))
        rhs = np.ones_like(lhs)
        for j, (_, L) in enumerate(gated):
            rhs *= _doubled(_factor_spectrum(L[done])) ** w[done, j, None]
        margins[done] = _log_worst(rhs, lhs)
        for i, x, y in zip(done, lhs.tolist(), rhs.tolist()):
            quantities[i] = {"weights": w[i].tolist(), "dhat_mean": x, "rhs_vector": y, **quantities[i]}
    stamps = stamps or [{}] * len(results)
    return [_report("4", q, m, tol, not r.converged, **s) for q, m, r, s in zip(quantities, margins, results, stamps)]


def check_theorem4(mats, weights=None) -> TheoremReport:
    """Doubled spectrum of the weighted Karcher mean is log-majorized by the
    weighted coordinatewise product of the inputs' doubled spectra. A
    non-converged mean yields an inconclusive report, never a failure."""
    mats = require_matrices(mats, 2)
    weights = means.validate_weights(weights, len(mats))
    return _theorem4([_one(A) for A in mats], [weights], tol=DEFAULT_TOLERANCES["4"])[0]


def _restricted(A, S, k):
    """Traces and log-determinants of R^T A R, over stacks, where R holds the
    first k columns of each half of the even-width S (all of them when S is
    2n x 2k); InputError unless each R^T A R is positive definite."""
    h = S.shape[-1] // 2
    # Column selections of a stack keep the layout R[:, cols] has alone (column-major), as gemm sees it.
    R = S[..., [*range(k), *range(h, h + k)]]
    C = np.swapaxes(R, -1, -2) @ A @ R
    sign, logdet = np.linalg.slogdet(C)
    if np.any(sign <= 0):
        raise InputError("restricted matrix is not positive definite")
    return np.trace(C, axis1=-2, axis2=-1), logdet


def _near_minimizer(M, N, k):
    """The first k column pairs of M C, over stacks: for each row's Williamson M
    (batch, 2n, 2n) and each pair of normal blocks of its N (batch, samples, 2,
    n, n), C = [[I, 0], [S_2, I]] [[I, S_1], [0, I]], two shears by the symmetric
    S_i = THEOREM5_STEP (N_i + N_i^T) / 2. C is symplectic and I + O(THEOREM5_STEP),
    so each restriction's trace and log-determinant exceed the minimizer's by
    O(THEOREM5_STEP^2)."""
    n = M.shape[-1] // 2
    S = _sym(N) * THEOREM5_STEP
    M = M[:, None]
    P = M[..., :n] + M[..., n:] @ S[..., 1, :, :]  # the first half of M C
    return np.concatenate([P[..., :k], M[..., n : n + k] + P @ S[..., 0, :, :k]], axis=-1)


def _theorem5(A, k, normals, *, tol, restriction=None, stamps=None):
    """Reports with THEOREM5_SAMPLES restrictions near each row's minimizer, drawn
    from its normal block, or with the one explicit ``restriction`` for all rows."""
    [(A, L)] = _gate(A)
    (k,) = set(k)  # one k per batch: the suite groups by it
    form = _williamson(_skew(L), L)
    target_tr = 2.0 * np.sum(form.d[:, :k], axis=-1)
    target_logdet = 2.0 * np.sum(np.log(form.d[:, :k]), axis=-1)
    tr_min, logdet_min = _restricted(A, form.M, k)
    samples = _near_minimizer(form.M, np.array(normals), k) if restriction is None else restriction[None, None]
    tr, logdet = _restricted(A[:, None], samples, k)
    margins = _lowest(
        -np.abs(_lin(tr_min - target_tr, tr_min, target_tr)),
        -np.abs(logdet_min - target_logdet),
        _lin(tr - target_tr[:, None], tr, target_tr[:, None]),
        logdet - target_logdet[:, None],
    )
    return _reports(
        "5",
        tol,
        margins,
        stamps,
        k=[k] * len(A),
        d=form.d,
        target_trace=target_tr,
        target_logdet=target_logdet,
        minimizer_trace=tr_min,
        minimizer_logdet=logdet_min,
        sampled=np.stack([tr, logdet], axis=-1),
    )


def check_theorem5(
    A: np.ndarray,
    k: int,
    M: np.ndarray | None = None,
    rng: "np.random.Generator | None" = None,
) -> TheoremReport:
    """Extremal characterization of spectral sums and products: over 2n x 2k
    restrictions M with M^T J_2n M = J_2k, the trace of M^T A M is minimized
    at 2 * sum of the k smallest symplectic eigenvalues and its determinant
    at the squared product.

    The minimizer formed by the first k eigenvector pairs (columns of the
    Williamson M) must attain both bounds with equality, and each sampled
    restriction must satisfy both inequalities: the explicit M when one is
    given, else THEOREM5_SAMPLES restrictions near the minimizer. Each is the
    first k column pairs of M C for the product of shears
    C = [[I, 0], [S_2, I]] [[I, S_1], [0, I]], S_i = eps (N_i + N_i^T) / 2 with
    eps = THEOREM5_STEP = 1e-4 and N_1, N_2 standard normal n x n blocks, all
    drawn in one call from ``rng``'s ``standard_normal`` (a numpy Generator,
    ``default_rng(0)`` when omitted; InputError for an object without one). C is
    symplectic for any symmetric S_i and within O(eps) of I, so the samples
    exceed both bounds by only O(eps^2) (trace minimization near the
    minimizer: Son, Absil, Gao & Stykel, SIMAX 42, 2021), and an error of 1e-6
    in d_1 fails them. Their traces and log-determinants are the quantities
    ``sampled``, the minimizer's ``minimizer_trace`` and ``minimizer_logdet``.
    An explicit M must be 2n x 2k and finite, and pass the one symplecticity
    rule ||M^T J_2n M - J_2k||_F <= SYMPLECTIC_TOL (1 + ||M||_F^2) of
    ``symplectic._relative``, which refuses an overflowed residual; InputError
    otherwise.
    """
    tol = DEFAULT_TOLERANCES["5"]
    if rng is not None and not callable(getattr(rng, "standard_normal", None)):
        raise InputError(f"rng must be a numpy Generator, got {rng!r}")
    A, n = _one(A), _half(A)
    k = require_index(k, "k", 1, n)
    if M is None:
        normals = (rng or np.random.default_rng(0)).standard_normal((THEOREM5_SAMPLES, 2, n, n))
        return _theorem5(A, [k], [normals], tol=tol)[0]
    M = require_numeric(M, "restriction")
    if M.shape != (2 * n, 2 * k):
        raise InputError(f"restriction must be {2 * n} x {2 * k}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("restriction has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        ok, residual = _relative(M.T @ standard_J(n) @ M - standard_J(k), M)
    if not ok:
        raise InputError(f"matrix fails the restriction condition: residual {residual:.3e}")
    return _theorem5(A, [k], None, tol=tol, restriction=M)[0]


def _superadditivity(A, B, ks=None, *, tol, stamps=None):
    """Reports for the k in ``ks``, or for every k when None."""
    (A, LA), (B, LB) = _gate(A, B)
    da, db = _factor_spectrum(LA), _factor_spectrum(LB)
    ds = _factor_spectrum(_cholesky(A + B))
    ks = np.arange(1, ds.shape[-1] + 1) if ks is None else np.array(ks)
    sum_lhs, sum_a, sum_b = (np.cumsum(d, axis=-1)[:, ks - 1] for d in (ds, da, db))
    prod_lhs, prod_a, prod_b = (np.cumprod(d**2, axis=-1)[:, ks - 1] for d in (ds, da, db))
    margins = _lowest(
        _lin(sum_lhs - (sum_a + sum_b), sum_lhs, sum_a + sum_b),
        _lin(prod_lhs - (prod_a + prod_b), prod_lhs, prod_a + prod_b),
    )
    return _reports("superadditivity", tol, margins, stamps, k=[ks.tolist()] * len(ds), d_sumAB=ds, d_A=da, d_B=db)


def check_superadditivity(A: np.ndarray, B: np.ndarray, k: int | None = None) -> TheoremReport:
    """Superadditivity of spectral sums and squared products: the k smallest
    symplectic eigenvalues of A + B dominate, in sum and squared product, the
    corresponding quantities of A and B added. Checks one k or, when k is
    None, all of them."""
    if k is not None:
        k = require_index(k, "k", 1, _half(A))
    return _superadditivity(_one(A), _one(B), None if k is None else [k], tol=DEFAULT_TOLERANCES["superadditivity"])[0]


def _theorem6(M, *, tol, stamps=None):
    """One report per matrix of the stack M, through one gate and one stacked max-flow."""
    M = _symplectic(M)
    mt = _associated(M)
    n = mt.shape[-1]
    row_min, col_min = np.min(mt.sum(axis=-1), axis=-1), np.min(mt.sum(axis=-2), axis=-1)
    flow = np.array([check.flow_value for check in _superstochastic(mt, SUPERSTOCHASTIC_TOL)])
    stochastic = _doubly_stochastic(mt, tol)
    orth_residual = np.linalg.norm(M.swapaxes(-1, -2) @ M - np.eye(2 * n), axis=(-2, -1))
    consistent = stochastic == (orth_residual <= ORTHOGONALITY_TOL)
    # 0 when the stochastic/orthogonal cross-check agrees, else -1: a definite failure
    margins = _lowest(_lin(np.minimum(row_min, col_min) - 1.0, row_min, col_min), _lin(flow - n, n), consistent - 1.0)
    return _reports(
        "6",
        tol,
        margins,
        stamps,
        min_row_sum=row_min,
        min_col_sum=col_min,
        flow_value=flow,
        doubly_stochastic=stochastic,
        orthogonality_residual=orth_residual,
    )


def check_theorem6(M: np.ndarray) -> TheoremReport:
    """The associated matrix of a symplectic M has row and column sums >= 1,
    is doubly superstochastic (with a transportation-flow witness), and is
    doubly stochastic exactly when M is orthogonal."""
    return _theorem6([M], tol=DEFAULT_TOLERANCES["6"])[0]


def _theorem7(A, B, *, tol, stamps=None):
    (A, LA), (B, LB) = _gate(A, B)
    da, db = _factor_spectrum(LA), _factor_spectrum(LB)
    diff = _svd(A - B, compute_uv=False)
    factor = np.sqrt(_svd(A, compute_uv=False)[:, 0]) + np.sqrt(_svd(B, compute_uv=False)[:, 0])
    gap = da - db
    lhs_op = np.max(np.abs(gap), axis=-1)
    rhs_op = factor * np.sqrt(diff[:, 0])
    lhs_fro = math.sqrt(2.0) * np.linalg.norm(gap, axis=-1)
    rhs_fro = factor * np.sqrt(np.sum(diff, axis=-1))
    margins = _lowest(_lin(rhs_op - lhs_op, rhs_op, lhs_op), _lin(rhs_fro - lhs_fro, rhs_fro, lhs_fro))
    return _reports(
        "7",
        tol,
        margins,
        stamps,
        d_A=da,
        d_B=db,
        lhs_operator=lhs_op,
        rhs_operator=rhs_op,
        lhs_frobenius=lhs_fro,
        rhs_frobenius=rhs_fro,
    )


def check_theorem7(A: np.ndarray, B: np.ndarray) -> TheoremReport:
    """Perturbation bounds: symplectic eigenvalue differences are controlled
    by (||A||^1/2 + ||B||^1/2) times square roots of norms of A - B, in the
    operator and Frobenius/trace norm versions."""
    return _theorem7(_one(A), _one(B), tol=DEFAULT_TOLERANCES["7"])[0]


def _interlacing(A, drop_index, *, tol, stamps=None):
    [(A, L)] = _gate(A)
    da = _factor_spectrum(L)
    kept = np.arange(da.shape[-1] - 1)
    db = _factor_spectrum(_cholesky(sops._s_principal(A, kept + (kept >= np.array(drop_index)[:, None]))))
    margins = _lin(np.hstack([db - da[:, :-1], da[:, 2:] - db[:, :-1]]), da[:, -1:])
    return _reports("interlacing", tol, _lowest(margins), stamps, drop_index=drop_index, d_A=da, d_B=db)


def check_interlacing(A: np.ndarray, drop_index: int) -> TheoremReport:
    """Cauchy-type interlacing for the s-principal submatrix obtained by
    deleting one index pair: d_j(A) <= d_j(B) <= d_{j+2}(A), with the
    convention that d_{n+1}(A) is infinite."""
    n = _half(A)
    if n < 2:
        raise InputError("interlacing needs half-order n >= 2")
    drop_index = require_index(drop_index, "drop index", 0, n - 1)
    return _interlacing(_one(A), [drop_index], tol=DEFAULT_TOLERANCES["interlacing"])[0]


def _elementary_symmetric(x: np.ndarray) -> np.ndarray:
    """Rows of the elementary symmetric polynomials e_1..e_n of each row of x."""
    e = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    e[..., 0] = 1.0
    for j in range(x.shape[-1]):
        e[..., 1:] = e[..., 1:] + x[..., j, None] * e[..., :-1]
    return e[..., 1:]


_POWER_MEAN_EXPONENTS = (0.5, -1.0)


def _pinching(A, sizes, *, tol, stamps=None):
    [(A, L)] = _gate(A)
    dc = _factor_spectrum(_cholesky(sops._s_pinching(A, sizes)))
    da = _factor_spectrum(L)
    n = da.shape[-1]
    ya = _doubled(da)
    worst = majorization._worst(majorization._super_margins(ya, _doubled(dc)))
    ec, ea = _elementary_symmetric(dc), _elementary_symmetric(da)
    rc, ra = (e ** (1.0 / np.arange(1, n + 1)) for e in (ec, ea))
    margins = [
        _lin(worst, np.sum(ya, axis=-1)),
        _lin(ec - ea, ec, ea),
        _lin(rc - ra, rc, ra),
        _lin(np.sum(dc / (1 + dc), axis=-1) - np.sum(da / (1 + da), axis=-1), n),
        np.sum(np.log(dc), axis=-1) - np.sum(np.log(da), axis=-1),
    ]
    for r in _POWER_MEAN_EXPONENTS:
        pc, pa = (np.mean(d**r, axis=-1) ** (1.0 / r) for d in (dc, da))
        margins.append(_lin(pc - pa, pc, pa))
    return _reports("pinching", tol, _lowest(*margins), stamps, sizes=[list(s) for s in sizes], d_pinched=dc, d_A=da)


def check_pinching(A: np.ndarray, sizes) -> TheoremReport:
    """An s-pinching shifts the doubled spectrum upward in the
    supermajorization order, and every permutation-invariant concave
    increasing function of the plain spectrum does not decrease (elementary
    symmetric polynomials and their roots, sum of x/(1+x), sum of logs,
    power means with exponent below 1)."""
    sizes = sops.validate_partition(sizes, _half(A))
    return _pinching(_one(A), [sizes], tol=DEFAULT_TOLERANCES["pinching"])[0]


def _theorem11(A, *, tol, stamps=None):
    [(A, L)] = _gate(A)
    lam = _eigh(A, values_only=True)
    n = A.shape[-1] // 2
    d = _factor_spectrum(L)
    margins = _lowest(_log_worst(lam, _doubled(d)), _lin(np.hstack([d - lam[:, :n], lam[:, n:] - d]), lam[:, -1:]))
    return _reports("11", tol, margins, stamps, d=d, eigenvalues=lam)


def check_theorem11(A: np.ndarray) -> TheoremReport:
    """Symplectic versus ordinary eigenvalues: the doubled symplectic spectrum
    is log-majorized by the eigenvalue vector, and each d_j is bracketed by
    the j-th and (n+j)-th smallest eigenvalues."""
    return _theorem11(_one(A), tol=DEFAULT_TOLERANCES["11"])[0]


def _corollary8(A, B, t, *, tol, stamps=None):
    (A, LA), (B, LB) = _gate(A, B)
    for which, L in (("first", LA), ("second", LB)):
        if not _gaussian(_factor_spectrum(L)[:, 0]).all():
            raise InputError(f"{which} input is not Gaussian (d_1 < 1/2)")
    tt = np.array(t, dtype=float)[:, None]
    w, Q = _eigh(A)
    d1_pow = _factor_spectrum(Q * (w ** (tt / 2.0))[:, None, :])[:, 0]
    d1_geo = _factor_spectrum(means._geodesic(w, Q, B, tt))[:, 0]
    # The equal-weight Karcher mean of two matrices is their geodesic midpoint.
    d1_mean = _factor_spectrum(means._geodesic(w, Q, B, 0.5))[:, 0]
    margins = _lowest(d1_pow, d1_geo, d1_mean) - 0.5
    return _reports("corollary8", tol, margins, stamps, t=t, d1_power=d1_pow, d1_geodesic=d1_geo, d1_mean=d1_mean)


def check_corollary8(A: np.ndarray, B: np.ndarray, t: float) -> TheoremReport:
    """Geodesic convexity of Gaussian covariance matrices: powers A^t for
    t in [0, 1], geodesic points, and the Karcher mean of Gaussian matrices
    stay Gaussian (smallest symplectic eigenvalue >= 1/2). The mean of the
    two inputs is their geodesic midpoint A #_{1/2} B. Each input must be
    Gaussian by the rule of :func:`williamson.is_gaussian`,
    d_1 >= 1/2 - GAUSSIAN_TOL; InputError otherwise."""
    require_between(t, "power/geodesic parameter", 0, 1)
    return _corollary8(_one(A), _one(B), [t], tol=DEFAULT_TOLERANCES["corollary8"])[0]


def _minmax(A, *, tol, stamps=None):
    [(A, L)] = _gate(A)
    observed = _sharp(A)
    d = _factor_spectrum(L)
    expected = np.concatenate([1.0 / d, -1.0 / d[:, ::-1]], axis=-1)
    scale = np.max(np.abs(expected), axis=-1)
    margins = -np.max(np.abs(observed - expected), axis=-1) / scale
    return _reports("minmax", tol, margins, stamps, observed=observed, expected=expected)


def check_minmax(A: np.ndarray) -> TheoremReport:
    """Minmax principle, verified through the equivalent eigenvalue statement:
    the spectrum of i A^{-1} J must equal {+-1/d_j(A)} as a multiset."""
    return _minmax(_one(A), tol=DEFAULT_TOLERANCES["minmax"])[0]


class _Draw(NamedTuple):
    """The generator output behind one planted positive definite matrix
    S^T diag(d, d) S, S = o1 diag(gamma, 1/gamma) o2^T (see ``symplectic._squeezed``)."""

    normals: np.ndarray
    log_gamma: np.ndarray
    d: np.ndarray


def _planted(rng, n, cfg, trial, offset=0.0) -> _Draw:
    """A suite matrix with a planted spectrum, drawing d before the normals and log
    gamma (``random_posdef`` draws d last); every fifth trial plants repeated entries."""
    c = cfg.condition_spread
    if trial % 5 == 4 and n >= 2:
        base = np.exp(rng.uniform(-c, c, size=(n + 1) // 2))
        d = np.concatenate([base, base])[:n]
    else:
        d = np.exp(rng.uniform(-c, c, size=n))
    return _Draw(rng.standard_normal((2, 2, n, n)), rng.uniform(0.0, cfg.spread, size=n), np.sort(offset + d))


# Each draw(rng, n, cfg, trial) returns the instance's group key (its half-order
# first) and the checker's arguments, with _Draw values in place of matrices.


def _draw_power(rng, n, cfg, trial):
    A = _planted(rng, n, cfg, trial)
    u = float(rng.uniform(0.0, 1.0))
    return (n,), (A, u if trial % 2 == 0 else 1.0 + 2.0 * u)


def _draw_geodesic(rng, n, cfg, trial, offset=0.0):
    A = _planted(rng, n, cfg, trial, offset)
    B = _planted(rng, n, cfg, trial, offset)
    return (n,), (A, B, float(rng.uniform(0.0, 1.0)))


def _draw_mean(rng, n, cfg, trial):
    mats = [_planted(rng, n, cfg, trial) for _ in range(3)]
    if trial % 2 == 0:
        return (n,), (mats, np.full(3, 1.0 / 3))
    raw = rng.uniform(0.2, 1.0, size=3)
    return (n,), (mats, raw / raw.sum())


def _draw_extremal(rng, n, cfg, trial):
    A = _planted(rng, n, cfg, trial)
    k = int(rng.integers(1, n + 1))
    return (n, k), (A, k, rng.standard_normal((THEOREM5_SAMPLES, 2, n, n)))


def _draw_pair(rng, n, cfg, trial):
    return (n,), (_planted(rng, n, cfg, trial), _planted(rng, n, cfg, trial))


def _draw_symplectic(rng, n, cfg, trial):
    if trial % 2 == 0:
        return (n,), (random_orthosymplectic_rng(rng, n),)
    # A planted squeezing floor keeps the instance decisively outside
    # the tolerance band of the stochastic/orthogonal cross-check.
    log_gamma = rng.uniform(0.2, 0.2 + cfg.spread, size=n)
    return (n,), (_squeezed(rng.standard_normal((2, 2, n, n)), log_gamma),)


def _draw_submatrix(rng, n, cfg, trial):
    n = max(2, n)
    A = _planted(rng, n, cfg, trial)
    return (n,), (A, int(rng.integers(0, n)))


def _draw_pinching(rng, n, cfg, trial):
    A = _planted(rng, n, cfg, trial)
    if n == 1:
        return (n,), (A, (1,))
    m1 = int(rng.integers(1, n))
    return (n,), (A, (m1, n - m1))


def _draw_one(rng, n, cfg, trial):
    return (n,), (_planted(rng, n, cfg, trial),)


THEOREMS = {
    "1": (1e-9, _draw_power, _theorem1),
    "3": (1e-9, _draw_geodesic, _theorem3),
    "4": (1e-8, _draw_mean, _theorem4),
    "5": (1e-9, _draw_extremal, _theorem5),
    "superadditivity": (1e-9, _draw_pair, _superadditivity),
    "6": (1e-8, _draw_symplectic, _theorem6),
    "7": (1e-9, _draw_pair, _theorem7),
    "interlacing": (1e-9, _draw_submatrix, _interlacing),
    "pinching": (1e-8, _draw_pinching, _pinching),
    "11": (1e-9, _draw_one, _theorem11),
    "corollary8": (1e-8, partial(_draw_geodesic, offset=0.5), _corollary8),
    "minmax": (1e-8, _draw_one, _minmax),
}
DEFAULT_TOLERANCES = {theorem_id: tol for theorem_id, (tol, _, _) in THEOREMS.items()}
THEOREM_IDS = tuple(THEOREMS)


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of the seeded verification suite; ``tol``, when set,
    replaces the default tolerance of every selected theorem."""

    seed: int = 0
    trials: int = 100
    nmin: int = 1
    nmax: int = 6
    condition_spread: float = 1.5
    spread: float = 1.0
    tol: float | None = None
    theorems: tuple[str, ...] = THEOREM_IDS

    def __post_init__(self):
        require_seed(self.seed)
        for name in ("trials", "nmin", "nmax"):
            require_integer(getattr(self, name), name)
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.nmin < 1 or self.nmax < self.nmin:
            raise InputError(f"need 1 <= nmin <= nmax, got [{self.nmin}, {self.nmax}]")
        for name in ("condition_spread", "spread"):
            require_nonnegative(getattr(self, name), name)
        require_nonnegative(0.0 if self.tol is None else self.tol, "tol")
        if isinstance(self.theorems, str):
            raise InputError(f"theorems must be a sequence of theorem ids, got the string {self.theorems!r}")
        unknown = [t for t in self.theorems if t not in THEOREM_IDS]
        if unknown:
            raise InputError(f"unknown theorem ids: {unknown}; known: {list(THEOREM_IDS)}")
        if len(set(self.theorems)) != len(self.theorems):
            raise InputError(f"duplicate theorem ids: {list(self.theorems)}")


def _draw_task(cfg: SuiteConfig, theorem_id: str, trial: int):
    """Group key and checker arguments of one suite instance, drawn from a
    generator seeded by (suite seed, theorem index, trial) alone."""
    rng = np.random.default_rng([cfg.seed, THEOREM_IDS.index(theorem_id), trial])
    return THEOREMS[theorem_id][1](rng, int(rng.integers(cfg.nmin, cfg.nmax + 1)), cfg, trial)


def _assemble(column):
    """One checker argument over a group: its _Draw values as one stack of
    matrices, a list of them as a list of stacks, other values as a list."""
    first = column[0]
    if isinstance(first, _Draw):
        S = _squeezed(np.array([x.normals for x in column]), np.array([x.log_gamma for x in column]))
        return _congruence(S, np.array([x.d for x in column]))
    if isinstance(first, list):
        return [_assemble(c) for c in zip(*column)]
    return list(column)


def _check_group(cfg: SuiteConfig, theorem_id: str, draws: list, stamps: list) -> list[TheoremReport]:
    """Reports of one group's instances, each with its stamp (digest, trial
    and n), from one batched checker call. A SympeigError re-runs the group
    one instance at a time; alone, an instance's SympeigError becomes its
    record (NaN margin, message in quantities)."""
    tol = DEFAULT_TOLERANCES[theorem_id] if cfg.tol is None else cfg.tol
    try:
        return THEOREMS[theorem_id][2](*map(_assemble, zip(*draws)), tol=tol, stamps=stamps)
    except SympeigError as exc:
        if len(draws) == 1:
            return [_report(theorem_id, {"error": str(exc)}, float("nan"), tol, **stamps[0])]
    return [rep for draw, stamp in zip(draws, stamps) for rep in _check_group(cfg, theorem_id, [draw], [stamp])]


def run_suite(cfg: SuiteConfig) -> list[TheoremReport]:
    """Run the seeded verification suite: ``cfg.trials`` instances per theorem,
    deterministic in the seed (see the module docstring), every fifth with a
    repeated planted spectrum. SUITE_CHUNK instances at a time are drawn and
    checked group by group; reports come back in (theorem, trial) order. An
    instance that raises a SympeigError is recorded as a failure (NaN margin,
    message in quantities). The records do not depend on the CPU count.
    """
    tasks = [(theorem_id, trial) for theorem_id in cfg.theorems for trial in range(cfg.trials)]
    reports = [None] * len(tasks)
    for start in range(0, len(tasks), SUITE_CHUNK):
        groups: dict = {}
        for i in range(start, min(start + SUITE_CHUNK, len(tasks))):
            theorem_id, trial = tasks[i]
            key, args = _draw_task(cfg, theorem_id, trial)
            groups.setdefault((theorem_id, key), []).append((i, trial, args))
        for (theorem_id, (n, *_)), members in groups.items():
            stamps = [
                {"digest": f"seed={cfg.seed};theorem={theorem_id};trial={trial};n={n}", "trial": trial, "n": n}
                for _, trial, _ in members
            ]
            for (i, *_), rep in zip(members, _check_group(cfg, theorem_id, [args for *_, args in members], stamps)):
                reports[i] = rep
    return reports


def summarize(reports) -> dict:
    """Aggregate reports per theorem: trials, failures, inconclusives and the
    worst finite margin."""
    summary: dict = {}
    for rep in reports:
        entry = summary.setdefault(
            rep.theorem_id,
            {"trials": 0, "failures": 0, "inconclusive": 0, "worst_margin": float("inf")},
        )
        entry["trials"] += 1
        if rep.inconclusive:
            entry["inconclusive"] += 1
        elif not rep.holds:
            entry["failures"] += 1
        if math.isfinite(rep.margin):
            entry["worst_margin"] = min(entry["worst_margin"], rep.margin)
    return summary
