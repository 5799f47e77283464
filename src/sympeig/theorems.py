"""One checker per inequality theorem, plus the seeded verification suite.

Every checker computes both sides of its statement on a concrete instance and
returns a TheoremReport whose margin is recomputable from the recorded
quantities. Margin conventions:

- comparisons of products/spectra in log space carry raw log-domain margins
  (absolute tolerance);
- linear comparisons (traces, sums, norms) are normalized by
  max(1, largest quantity in the comparison), so one absolute tolerance
  applies across scales.

A report holds exactly when margin >= -tolerance. A checker that depends on
an iterative solve (the Karcher mean) reports ``inconclusive`` instead of
failing when the solve did not converge. Each input passes one gate; the
kernels behind the public functions then use its symmetrized matrix and factor.
A matrix X derived from the inputs passes no second gate: its symplectic
spectrum is read from a square factor X = F F^T.
"""

import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import majorization, means, sops
from .errors import InputError, SympeigError
from .matfun import _cholesky, _eigh, _posdef, _same_order, norms, require_integer, require_nonnegative
from .symplectic import (
    _haar_orthosymplectic,
    associated_matrix,
    is_doubly_stochastic,
    is_doubly_superstochastic,
    random_orthosymplectic_rng,
    random_posdef_rng,
    random_symplectic_rng,
    standard_J,
)
from .williamson import _even_order, _sharp, _skew, _spectrum, _williamson

DEFAULT_TOLERANCES = {
    "1": 1e-9,
    "3": 1e-9,
    "4": 1e-8,
    "5": 1e-9,
    "superadditivity": 1e-9,
    "6": 1e-8,
    "7": 1e-9,
    "interlacing": 1e-9,
    "pinching": 1e-8,
    "11": 1e-9,
    "corollary8": 1e-8,
    "minmax": 1e-8,
}
THEOREM_IDS = tuple(DEFAULT_TOLERANCES)

# Orthogonality threshold used by the theorem-6 cross-check.
ORTHOGONALITY_TOL = 1e-7
# Random restrictions sampled by the theorem-5 check when no M is given.
THEOREM5_SAMPLES = 20
# Fewest suite instances per process; on two CPUs, forking gains from about 400.
SUITE_TASKS_PER_PROCESS = 200


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
        return json.dumps(self.to_record(), sort_keys=True)


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of the seeded verification suite."""

    seed: int = 0
    trials: int = 100
    nmin: int = 1
    nmax: int = 6
    condition_spread: float = 1.5
    spread: float = 1.0
    tolerances: dict = field(default_factory=dict)
    theorems: tuple[str, ...] = THEOREM_IDS

    def __post_init__(self):
        for name in ("seed", "trials", "nmin", "nmax"):
            require_integer(getattr(self, name), name)
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.nmin < 1 or self.nmax < self.nmin:
            raise InputError(f"need 1 <= nmin <= nmax, got [{self.nmin}, {self.nmax}]")
        for name in ("condition_spread", "spread"):
            require_nonnegative(getattr(self, name), name)
        for tol in self.tolerances.values():
            require_nonnegative(tol, "tolerances")
        if isinstance(self.theorems, str):
            raise InputError(f"theorems must be a sequence of theorem ids, got the string {self.theorems!r}")
        unknown = [t for t in (*self.theorems, *self.tolerances) if t not in THEOREM_IDS]
        if unknown:
            raise InputError(f"unknown theorem ids: {unknown}; known: {list(THEOREM_IDS)}")
        if len(set(self.theorems)) != len(self.theorems):
            raise InputError(f"duplicate theorem ids: {list(self.theorems)}")

    def tolerance_for(self, theorem_id: str) -> float:
        return self.tolerances.get(theorem_id, DEFAULT_TOLERANCES[theorem_id])


def _tolerance(theorem_id: str, tol: float | None) -> float:
    """A checker's tol, its theorem's default when None; InputError unless finite and >= 0."""
    tol = DEFAULT_TOLERANCES[theorem_id] if tol is None else tol
    require_nonnegative(tol, "tol")
    return float(tol)


def _report(theorem_id, quantities, margin, tol, inconclusive=False):
    margin = float(margin)
    holds = bool(math.isfinite(margin) and margin >= -tol) and not inconclusive
    return TheoremReport(
        theorem_id=theorem_id,
        digest="",
        quantities=quantities,
        margin=margin,
        tolerance=float(tol),
        holds=holds,
        inconclusive=inconclusive,
    )


def _lin(margin: float, *scale_values: float) -> float:
    """Normalize a linear-domain margin by the largest quantity compared."""
    scale = max([1.0] + [abs(float(s)) for s in scale_values])
    return float(margin) / scale


def _gate(*mats):
    """``(S, L)`` of each input: the symmetrized S, refused when near-singular, and
    its Cholesky factor S = L L^T; InputError on mixed orders."""
    gated = _same_order([_posdef(_even_order(A), refuse_near_singular=True) for A in mats])
    return [(S, _cholesky(S)) for S in gated]


def _factor_spectrum(F: np.ndarray):
    """Symplectic spectrum of F F^T for a square F of even order (see :func:`_skew`)."""
    return _spectrum(_skew(F)[0])


def check_theorem1(A: np.ndarray, t: float, tol: float | None = None) -> TheoremReport:
    """Symplectic spectrum of a matrix power: for 0 <= t <= 1 the doubled
    spectrum of A^t is log-majorized by the t-th power of that of A, and the
    order reverses for t >= 1. Also checks the bottom-k product inequalities
    for the plain (ascending) spectra."""
    tol = _tolerance("1", tol)
    require_nonnegative(t, "power")
    [(A, L)] = _gate(A)
    spec_a = _factor_spectrum(L)
    w, Q = _eigh(A)
    spec_t = _factor_spectrum(Q * w ** (t / 2.0))
    if t <= 1.0:
        verdict = majorization.log_majorizes(y=spec_a.d_hat**t, x=spec_t.d_hat)
    else:
        verdict = majorization.log_majorizes(y=spec_t.d_hat, x=spec_a.d_hat**t)
    bottom_t = np.cumsum(np.log(spec_t.d))
    bottom_a = np.cumsum(t * np.log(spec_a.d))
    corollary = bottom_t - bottom_a if t <= 1.0 else bottom_a - bottom_t
    margin = min(verdict.worst_margin, float(np.min(corollary)))
    quantities = {
        "t": t,
        "d_of_A": spec_a.d.tolist(),
        "d_of_A_pow_t": spec_t.d.tolist(),
    }
    return _report("1", quantities, margin, tol)


def check_theorem3(A: np.ndarray, B: np.ndarray, t: float, tol: float | None = None) -> TheoremReport:
    """Doubled spectrum of the geodesic point A #_t B is log-majorized by the
    coordinatewise product d_hat(A)^(1-t) * d_hat(B)^t."""
    tol = _tolerance("3", tol)
    if not 0.0 <= t <= 1.0:
        raise InputError(f"geodesic parameter must lie in [0, 1], got {t}")
    (A, LA), (B, LB) = _gate(A, B)
    lhs = _factor_spectrum(means._geodesic(*_eigh(A), B, t))
    da = _factor_spectrum(LA).d_hat
    db = _factor_spectrum(LB).d_hat
    rhs = da ** (1.0 - t) * db**t
    verdict = majorization.log_majorizes(y=rhs, x=lhs.d_hat)
    quantities = {
        "t": t,
        "dhat_geodesic": lhs.d_hat.tolist(),
        "rhs_vector": rhs.tolist(),
    }
    return _report("3", quantities, verdict.worst_margin, tol)


def check_theorem4(mats, weights=None, tol: float | None = None) -> TheoremReport:
    """Doubled spectrum of the weighted Karcher mean is log-majorized by the
    weighted coordinatewise product of the inputs' doubled spectra. A
    non-converged mean yields an inconclusive report, never a failure."""
    tol = _tolerance("4", tol)
    mats = list(mats)
    if len(mats) < 2:
        raise InputError("need at least two matrices")
    w = means.validate_weights(weights, len(mats))
    gated = _gate(*mats)
    result = means._karcher([S for S, _ in gated], w)
    if not result.converged:
        quantities = {"residual": result.residual, "iterations": result.iterations}
        return _report("4", quantities, float("nan"), tol, inconclusive=True)
    lhs = _factor_spectrum(_cholesky(result.mean)).d_hat
    rhs = np.ones_like(lhs)
    for wj, (_, L) in zip(w, gated):
        rhs *= _factor_spectrum(L).d_hat ** wj
    verdict = majorization.log_majorizes(y=rhs, x=lhs)
    quantities = {
        "weights": w.tolist(),
        "dhat_mean": lhs.tolist(),
        "rhs_vector": rhs.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
    }
    return _report("4", quantities, verdict.worst_margin, tol)


def check_theorem5(
    A: np.ndarray,
    k: int,
    M: np.ndarray | None = None,
    tol: float | None = None,
    rng: np.random.Generator | None = None,
) -> TheoremReport:
    """Extremal characterization of spectral sums and products: over 2n x 2k
    restrictions M with M^T J_2n M = J_2k, the trace of M^T A M is minimized
    at 2 * sum of the k smallest symplectic eigenvalues and its determinant
    at the squared product.

    With an explicit M the two inequalities are checked. Without one, the
    minimizer formed by the first k eigenvector pairs (columns of the
    Williamson M) must attain both bounds with equality, and
    THEOREM5_SAMPLES random restrictions (first k columns of each block of a
    random symplectic matrix) must satisfy the inequalities.
    """
    tol = _tolerance("5", tol)
    [(A, L)] = _gate(A)
    n = A.shape[0] // 2
    k = require_integer(k, "k")
    if not 1 <= k <= n:
        raise InputError(f"k must lie in [1, {n}], got {k}")
    form = _williamson(*_skew(L))
    d = form.d
    target_tr = 2.0 * float(np.sum(d[:k]))
    target_logdet = 2.0 * float(np.sum(np.log(d[:k])))

    def _values(R):
        C = R.T @ A @ R
        sign, logdet = np.linalg.slogdet(C)
        if sign <= 0:
            raise InputError("restricted matrix is not positive definite")
        return float(np.trace(C)), float(logdet)

    quantities = {"k": k, "d": d.tolist(), "target_trace": target_tr, "target_logdet": target_logdet}
    if M is not None:
        M = np.asarray(M, dtype=float)
        if M.shape != (2 * n, 2 * k):
            raise InputError(f"restriction must be {2 * n} x {2 * k}, got {M.shape}")
        residual = float(np.linalg.norm(M.T @ standard_J(n) @ M - standard_J(k)))
        if residual > 1e-8 * (1.0 + float(np.sum(M * M))):
            raise InputError(f"matrix fails the restriction condition: residual {residual:.3e}")
        tr_val, logdet_val = _values(M)
        margin = min(_lin(tr_val - target_tr, tr_val, target_tr), logdet_val - target_logdet)
        quantities.update({"trace": tr_val, "logdet": logdet_val})
        return _report("5", quantities, margin, tol)

    rng = np.random.default_rng(0) if rng is None else rng
    cols = list(range(k)) + list(range(n, n + k))
    minimizer = form.M[:, cols]
    tr_min, logdet_min = _values(minimizer)
    margins = [
        -abs(_lin(tr_min - target_tr, tr_min, target_tr)),
        -abs(logdet_min - target_logdet),
    ]
    sampled = []
    for _ in range(THEOREM5_SAMPLES):
        L = random_symplectic_rng(rng, n, spread=1.0)
        tr_val, logdet_val = _values(L[:, cols])
        sampled.append((tr_val, logdet_val))
        margins.append(_lin(tr_val - target_tr, tr_val, target_tr))
        margins.append(logdet_val - target_logdet)
    quantities.update(
        {
            "minimizer_trace": tr_min,
            "minimizer_logdet": logdet_min,
            "sampled": [[t, g] for t, g in sampled],
        }
    )
    return _report("5", quantities, min(margins), tol)


def check_superadditivity(A: np.ndarray, B: np.ndarray, k: int | None = None, tol: float | None = None) -> TheoremReport:
    """Superadditivity of spectral sums and squared products: the k smallest
    symplectic eigenvalues of A + B dominate, in sum and squared product, the
    corresponding quantities of A and B added. Checks one k or, when k is
    None, all of them."""
    tol = _tolerance("superadditivity", tol)
    (A, LA), (B, LB) = _gate(A, B)
    da = _factor_spectrum(LA).d
    db = _factor_spectrum(LB).d
    ds = _factor_spectrum(_cholesky(A + B)).d
    n = da.shape[0]
    ks = range(1, n + 1) if k is None else [require_integer(k, "k")]
    margins = []
    for kk in ks:
        if not 1 <= kk <= n:
            raise InputError(f"k must lie in [1, {n}], got {kk}")
        sum_lhs = float(np.sum(ds[:kk]))
        sum_rhs = float(np.sum(da[:kk]) + np.sum(db[:kk]))
        prod_lhs = float(np.prod(ds[:kk] ** 2))
        prod_rhs = float(np.prod(da[:kk] ** 2) + np.prod(db[:kk] ** 2))
        margins.append(_lin(sum_lhs - sum_rhs, sum_lhs, sum_rhs))
        margins.append(_lin(prod_lhs - prod_rhs, prod_lhs, prod_rhs))
    quantities = {
        "k": list(ks),
        "d_sumAB": ds.tolist(),
        "d_A": da.tolist(),
        "d_B": db.tolist(),
    }
    return _report("superadditivity", quantities, min(margins), tol)


def check_theorem6(M: np.ndarray, tol: float | None = None) -> TheoremReport:
    """The associated matrix of a symplectic M has row and column sums >= 1,
    is doubly superstochastic (with a transportation-flow witness), and is
    doubly stochastic exactly when M is orthogonal."""
    tol = _tolerance("6", tol)
    mt = associated_matrix(M)
    n = mt.shape[0]
    row_min = float(np.min(mt.sum(axis=1)))
    col_min = float(np.min(mt.sum(axis=0)))
    super_check = is_doubly_superstochastic(mt)
    stochastic = is_doubly_stochastic(mt, tol=tol)
    orth_residual = float(np.linalg.norm(np.asarray(M, dtype=float).T @ np.asarray(M, dtype=float) - np.eye(2 * n)))
    consistent = stochastic == (orth_residual <= ORTHOGONALITY_TOL)
    margins = [
        _lin(min(row_min, col_min) - 1.0, row_min, col_min),
        _lin(super_check.flow_value - n, n),
        # a failed stochastic/orthogonal cross-check forces a definite failure
        0.0 if consistent else -1.0,
    ]
    quantities = {
        "min_row_sum": row_min,
        "min_col_sum": col_min,
        "flow_value": super_check.flow_value,
        "doubly_stochastic": stochastic,
        "orthogonality_residual": orth_residual,
    }
    return _report("6", quantities, min(margins), tol)


def check_theorem7(A: np.ndarray, B: np.ndarray, tol: float | None = None) -> TheoremReport:
    """Perturbation bounds: symplectic eigenvalue differences are controlled
    by (||A||^1/2 + ||B||^1/2) times square roots of norms of A - B, in the
    operator and Frobenius/trace norm versions."""
    tol = _tolerance("7", tol)
    (A, LA), (B, LB) = _gate(A, B)
    da = _factor_spectrum(LA).d
    db = _factor_spectrum(LB).d
    diff_norms = norms(A - B)
    factor = math.sqrt(norms(A).operator) + math.sqrt(norms(B).operator)
    lhs_op = float(np.max(np.abs(da - db)))
    rhs_op = factor * math.sqrt(diff_norms.operator)
    lhs_fro = math.sqrt(2.0) * float(np.linalg.norm(da - db))
    rhs_fro = factor * math.sqrt(diff_norms.trace)
    margin = min(
        _lin(rhs_op - lhs_op, rhs_op, lhs_op),
        _lin(rhs_fro - lhs_fro, rhs_fro, lhs_fro),
    )
    quantities = {
        "d_A": da.tolist(),
        "d_B": db.tolist(),
        "lhs_operator": lhs_op,
        "rhs_operator": rhs_op,
        "lhs_frobenius": lhs_fro,
        "rhs_frobenius": rhs_fro,
    }
    return _report("7", quantities, margin, tol)


def check_interlacing(A: np.ndarray, drop_index: int, tol: float | None = None) -> TheoremReport:
    """Cauchy-type interlacing for the s-principal submatrix obtained by
    deleting one index pair: d_j(A) <= d_j(B) <= d_{j+2}(A), with the
    convention that d_{n+1}(A) is infinite."""
    tol = _tolerance("interlacing", tol)
    [(A, L)] = _gate(A)
    da = _factor_spectrum(L).d
    n = da.shape[0]
    if n < 2:
        raise InputError("interlacing needs half-order n >= 2")
    drop_index = require_integer(drop_index, "drop index")
    if not 0 <= drop_index < n:
        raise InputError(f"drop index must lie in [0, {n - 1}], got {drop_index}")
    keep = [i for i in range(n) if i != drop_index]
    db = _factor_spectrum(_cholesky(sops._s_principal(A, keep))).d
    scale = max(1.0, float(da[-1]))
    margins = [(db[j] - da[j]) / scale for j in range(n - 1)]
    margins += [(da[j + 2] - db[j]) / scale for j in range(n - 2)]
    quantities = {"drop_index": drop_index, "d_A": da.tolist(), "d_B": db.tolist()}
    return _report("interlacing", quantities, min(margins), tol)


def _elementary_symmetric(x: np.ndarray) -> np.ndarray:
    e = np.zeros(x.size + 1)
    e[0] = 1.0
    for v in x:
        e[1:] = e[1:] + v * e[:-1]
    return e[1:]


_POWER_MEAN_EXPONENTS = (0.5, -1.0)


def check_pinching(A: np.ndarray, sizes, tol: float | None = None) -> TheoremReport:
    """An s-pinching shifts the doubled spectrum upward in the
    supermajorization order, and every permutation-invariant concave
    increasing function of the plain spectrum does not decrease (elementary
    symmetric polynomials and their roots, sum of x/(1+x), sum of logs,
    power means with exponent below 1)."""
    tol = _tolerance("pinching", tol)
    [(A, L)] = _gate(A)
    sc = _factor_spectrum(_cholesky(sops._s_pinching(A, sizes)))
    sa = _factor_spectrum(L)
    verdict = majorization.supermajorizes(y=sa.d_hat, x=sc.d_hat)
    margins = [_lin(verdict.worst_margin, float(np.sum(sa.d_hat)))]

    dc, da = sc.d, sa.d
    ec, ea = _elementary_symmetric(dc), _elementary_symmetric(da)
    for k in range(dc.size):
        margins.append(_lin(ec[k] - ea[k], ec[k], ea[k]))
        rc, ra = ec[k] ** (1.0 / (k + 1)), ea[k] ** (1.0 / (k + 1))
        margins.append(_lin(rc - ra, rc, ra))
    margins.append(_lin(float(np.sum(dc / (1 + dc)) - np.sum(da / (1 + da))), dc.size))
    margins.append(float(np.sum(np.log(dc)) - np.sum(np.log(da))))
    for r in _POWER_MEAN_EXPONENTS:
        pc = float(np.mean(dc**r) ** (1.0 / r))
        pa = float(np.mean(da**r) ** (1.0 / r))
        margins.append(_lin(pc - pa, pc, pa))
    quantities = {
        "sizes": list(sizes),
        "d_pinched": dc.tolist(),
        "d_A": da.tolist(),
    }
    return _report("pinching", quantities, min(margins), tol)


def check_theorem11(A: np.ndarray, tol: float | None = None) -> TheoremReport:
    """Symplectic versus ordinary eigenvalues: the doubled symplectic spectrum
    is log-majorized by the eigenvalue vector, and each d_j is bracketed by
    the j-th and (n+j)-th smallest eigenvalues."""
    tol = _tolerance("11", tol)
    [(A, L)] = _gate(A)
    lam = _eigh(A, values_only=True)
    n = A.shape[0] // 2
    d = _factor_spectrum(L)
    verdict = majorization.log_majorizes(y=lam, x=d.d_hat)
    scale = max(1.0, float(lam[-1]))
    margins = [verdict.worst_margin]
    margins += [(d.d[j] - lam[j]) / scale for j in range(n)]
    margins += [(lam[n + j] - d.d[j]) / scale for j in range(n)]
    quantities = {"d": d.d.tolist(), "eigenvalues": lam.tolist()}
    return _report("11", quantities, min(margins), tol)


def check_corollary8(A: np.ndarray, B: np.ndarray, t: float, tol: float | None = None) -> TheoremReport:
    """Geodesic convexity of Gaussian covariance matrices: powers A^t for
    t in [0, 1], geodesic points, and the Karcher mean of Gaussian matrices
    stay Gaussian (smallest symplectic eigenvalue >= 1/2)."""
    tol = _tolerance("corollary8", tol)
    if not 0.0 <= t <= 1.0:
        raise InputError(f"power/geodesic parameter must lie in [0, 1], got {t}")
    (A, LA), (B, LB) = _gate(A, B)
    if _factor_spectrum(LA).d[0] < 0.5 - tol:
        raise InputError("first input is not Gaussian (d_1 < 1/2)")
    if _factor_spectrum(LB).d[0] < 0.5 - tol:
        raise InputError("second input is not Gaussian (d_1 < 1/2)")
    w, Q = _eigh(A)
    d1_pow = float(_factor_spectrum(Q * w ** (t / 2.0)).d[0])
    d1_geo = float(_factor_spectrum(means._geodesic(w, Q, B, t)).d[0])
    result = means._karcher([A, B], np.full(2, 0.5))
    if not result.converged:
        quantities = {"t": t, "d1_power": d1_pow, "d1_geodesic": d1_geo}
        return _report("corollary8", quantities, float("nan"), tol, inconclusive=True)
    d1_mean = float(_factor_spectrum(_cholesky(result.mean)).d[0])
    margin = min(d1_pow, d1_geo, d1_mean) - 0.5
    quantities = {"t": t, "d1_power": d1_pow, "d1_geodesic": d1_geo, "d1_mean": d1_mean}
    return _report("corollary8", quantities, margin, tol)


def check_minmax(A: np.ndarray, tol: float | None = None) -> TheoremReport:
    """Minmax principle, verified through the equivalent eigenvalue statement:
    the spectrum of i A^{-1} J must equal {+-1/d_j(A)} as a multiset."""
    tol = _tolerance("minmax", tol)
    [(A, L)] = _gate(A)
    observed = _sharp(A)
    d = _factor_spectrum(L).d
    expected = np.concatenate([1.0 / d, -1.0 / d[::-1]])
    scale = float(np.max(np.abs(expected)))
    margin = -float(np.max(np.abs(observed - expected))) / scale
    quantities = {"observed": observed.tolist(), "expected": expected.tolist()}
    return _report("minmax", quantities, margin, tol)


def _planted_spectrum(rng, n, spread_log, duplicates, offset=0.0):
    if duplicates and n >= 2:
        base = np.exp(rng.uniform(-spread_log, spread_log, size=(n + 1) // 2))
        vals = np.concatenate([base, base])[:n]
    else:
        vals = np.exp(rng.uniform(-spread_log, spread_log, size=n))
    return np.sort(offset + vals)


def _instance_posdef(rng, n, cfg, duplicates, offset=0.0):
    d = _planted_spectrum(rng, n, cfg.condition_spread, duplicates, offset)
    A, _ = random_posdef_rng(rng, n, spread=cfg.spread, d=d)
    return A


def _run_instance(theorem_id: str, trial: int, rng, cfg: SuiteConfig) -> tuple[TheoremReport, int]:
    tol = cfg.tolerance_for(theorem_id)
    duplicates = trial % 5 == 4
    n = int(rng.integers(cfg.nmin, cfg.nmax + 1))

    if theorem_id == "1":
        A = _instance_posdef(rng, n, cfg, duplicates)
        u = float(rng.uniform(0.0, 1.0))
        t = u if trial % 2 == 0 else 1.0 + 2.0 * u
        return check_theorem1(A, t, tol), n
    if theorem_id == "3":
        A = _instance_posdef(rng, n, cfg, duplicates)
        B = _instance_posdef(rng, n, cfg, duplicates)
        return check_theorem3(A, B, float(rng.uniform(0.0, 1.0)), tol), n
    if theorem_id == "4":
        mats = [_instance_posdef(rng, n, cfg, duplicates) for _ in range(3)]
        if trial % 2 == 0:
            w = None
        else:
            raw = rng.uniform(0.2, 1.0, size=3)
            w = raw / raw.sum()
        return check_theorem4(mats, w, tol), n
    if theorem_id == "5":
        A = _instance_posdef(rng, n, cfg, duplicates)
        k = int(rng.integers(1, n + 1))
        return check_theorem5(A, k, tol=tol, rng=rng), n
    if theorem_id == "superadditivity":
        A = _instance_posdef(rng, n, cfg, duplicates)
        B = _instance_posdef(rng, n, cfg, duplicates)
        return check_superadditivity(A, B, None, tol), n
    if theorem_id == "6":
        if trial % 2 == 0:
            M = random_orthosymplectic_rng(rng, n)
        else:
            # A planted squeezing floor keeps the instance decisively outside
            # the tolerance band of the stochastic/orthogonal cross-check.
            gamma = np.sort(np.exp(rng.uniform(0.2, 0.2 + cfg.spread, size=n)))[::-1]
            o1, o2 = _haar_orthosymplectic(rng, n, 2)
            M = (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T
        return check_theorem6(M, tol), n
    if theorem_id == "7":
        A = _instance_posdef(rng, n, cfg, duplicates)
        B = _instance_posdef(rng, n, cfg, duplicates)
        return check_theorem7(A, B, tol), n
    if theorem_id == "interlacing":
        n = max(2, n)
        A = _instance_posdef(rng, n, cfg, duplicates)
        return check_interlacing(A, int(rng.integers(0, n)), tol), n
    if theorem_id == "pinching":
        A = _instance_posdef(rng, n, cfg, duplicates)
        if n == 1:
            sizes = (1,)
        else:
            m1 = int(rng.integers(1, n))
            sizes = (m1, n - m1)
        return check_pinching(A, sizes, tol), n
    if theorem_id == "11":
        A = _instance_posdef(rng, n, cfg, duplicates)
        return check_theorem11(A, tol), n
    if theorem_id == "corollary8":
        A = _instance_posdef(rng, n, cfg, duplicates, offset=0.5)
        B = _instance_posdef(rng, n, cfg, duplicates, offset=0.5)
        return check_corollary8(A, B, float(rng.uniform(0.0, 1.0)), tol), n
    if theorem_id == "minmax":
        A = _instance_posdef(rng, n, cfg, duplicates)
        return check_minmax(A, tol), n
    raise InputError(f"unknown theorem id {theorem_id!r}")


def _suite_task(cfg: SuiteConfig, theorem_id: str, trial: int) -> TheoremReport:
    """One suite instance, seeded by (suite seed, theorem index, trial) alone."""
    rng = np.random.default_rng([cfg.seed, THEOREM_IDS.index(theorem_id), trial])
    digest = f"seed={cfg.seed};theorem={theorem_id};trial={trial}"
    try:
        rep, n = _run_instance(theorem_id, trial, rng, cfg)
        return replace(rep, digest=f"{digest};n={n}", trial=trial, n=n)
    except SympeigError as exc:
        rep = _report(theorem_id, {"error": str(exc)}, float("nan"), cfg.tolerance_for(theorem_id))
        return replace(rep, digest=digest, trial=trial)


def _forked_suite(cfg: SuiteConfig, tasks: list, workers: int) -> list[TheoremReport]:
    """Process k runs tasks[k::workers]; forked children pickle theirs into a pipe."""
    pids, pipes = [], []
    try:
        for k in range(1, workers):
            fd_read, fd_write = os.pipe()
            pipes.append(open(fd_read, "rb"))
            pids.append(os.fork())
            if pids[-1] == 0:  # the child sends its slice and exits here
                try:
                    for pipe in pipes:
                        pipe.close()
                    try:
                        part = [_suite_task(cfg, *task) for task in tasks[k::workers]]
                    except Exception as exc:
                        part = exc
                    with open(fd_write, "wb") as pipe:
                        pipe.write(pickle.dumps(part))
                finally:
                    os._exit(0)
            os.close(fd_write)
        parts = [[_suite_task(cfg, *task) for task in tasks[::workers]]]
        for pipe in pipes:
            data = pipe.read()  # empty when the child died before sending
            parts.append(pickle.loads(data) if data else ChildProcessError("a forked suite process sent no reports"))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    for part in parts:
        if isinstance(part, Exception):
            raise part
    return [parts[i % workers][i // workers] for i in range(len(tasks))]


def run_suite(cfg: SuiteConfig) -> list[TheoremReport]:
    """Run the seeded verification suite.

    For each requested theorem, ``cfg.trials`` instances are generated from
    per-instance generators seeded by (suite seed, theorem index, trial), so
    the full report list is deterministic in the seed. Every fifth instance
    plants a spectrum with duplicate entries to exercise degeneracy.
    An instance that raises a SympeigError is recorded as a failure (NaN
    margin, message in quantities) and the suite continues. Large suites fork
    one process per usable CPU (see SUITE_TASKS_PER_PROCESS), with the same reports.
    """
    tasks = [(theorem_id, trial) for theorem_id in cfg.theorems for trial in range(cfg.trials)]
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    workers = min(len(os.sched_getaffinity(0)), len(tasks) // SUITE_TASKS_PER_PROCESS) if forkable else 1
    if workers < 2:
        return [_suite_task(cfg, *task) for task in tasks]
    return _forked_suite(cfg, tasks, workers)


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
