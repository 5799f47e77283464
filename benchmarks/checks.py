"""Independent correctness checks of the program's outputs.

Each check recomputes what it needs with numpy from the benchmark's own
inputs and raises CheckFailed on a wrong result. None of them calls sympeig
or trusts a residual the program reports.
"""

import json
import math

import numpy as np

EPS = np.finfo(float).eps
# Relative error allowed on a symplectic spectrum, in units of eps * cond(A).
SPECTRUM_C = 1024.0
# Normalized residuals of M^T J M = J and M^T A M = diag(d, d).
RESIDUAL_TOL = 1e-10
# Relative agreement of means, geodesic points and distances with their
# closed forms.
CLOSED_FORM_TOL = 1e-8


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def standard_J(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def _spd_function(A: np.ndarray, f) -> np.ndarray:
    w, Q = np.linalg.eigh((A + A.T) / 2.0)
    return (Q * f(w)) @ Q.T


def condition(A: np.ndarray) -> float:
    w = np.linalg.eigvalsh(A)
    return float(w[-1] / w[0])


def check_spectrum(d, planted_d: np.ndarray, A: np.ndarray) -> None:
    """d matches the planted spectrum within SPECTRUM_C * eps * cond(A),
    relative to the largest symplectic eigenvalue."""
    d = np.asarray(d, dtype=float)
    _require(d.shape == planted_d.shape, f"spectrum has shape {d.shape}, expected {planted_d.shape}")
    error = float(np.max(np.abs(d - planted_d))) / float(planted_d[-1])
    tol = SPECTRUM_C * EPS * condition(A)
    _require(error <= tol, f"spectrum off the planted one by {error:.3e} (relative), tolerance {tol:.3e}")


def check_williamson(M, d, planted_d: np.ndarray, A: np.ndarray) -> None:
    """M is symplectic and M^T A M = diag(d, d), both recomputed here, and d
    is the planted spectrum."""
    check_spectrum(d, planted_d, A)
    M = np.asarray(M, dtype=float)
    n = planted_d.size
    _require(M.shape == A.shape, f"M has shape {M.shape}, expected {A.shape}")
    J = standard_J(n)
    sympl = float(np.linalg.norm(M.T @ J @ M - J)) / (1.0 + float(np.sum(M * M)))
    _require(sympl <= RESIDUAL_TOL, f"M is not symplectic: normalized residual {sympl:.3e}")
    dd = np.diag(np.concatenate([d, d]))
    scale = np.linalg.norm(A, 2) * np.linalg.norm(M, 2) ** 2
    congr = float(np.linalg.norm(M.T @ A @ M - dd)) / scale
    _require(congr <= RESIDUAL_TOL, f"M^T A M is not diag(d, d): normalized residual {congr:.3e}")


def barycenter_residual(X: np.ndarray, mats, weights) -> float:
    """Frobenius norm of sum_j w_j log(X^{-1/2} A_j X^{-1/2})."""
    Xih = _spd_function(X, lambda w: 1.0 / np.sqrt(w))
    total = np.zeros_like(X)
    for w, A in zip(weights, mats):
        total += w * _spd_function(Xih @ A @ Xih, np.log)
    return float(np.linalg.norm(total))


def check_mean(X, mats, weights=None) -> None:
    """X solves the barycenter equation of the Karcher mean."""
    X = np.asarray(X, dtype=float)
    weights = np.full(len(mats), 1.0 / len(mats)) if weights is None else weights
    residual = barycenter_residual(X, mats, weights)
    tol = CLOSED_FORM_TOL * max(1.0, float(np.linalg.norm(X, 2)))
    _require(residual <= tol, f"mean is off the barycenter: residual {residual:.3e}, tolerance {tol:.3e}")


def geodesic_point(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}."""
    Ah = _spd_function(A, np.sqrt)
    Aih = _spd_function(A, lambda w: 1.0 / np.sqrt(w))
    return Ah @ _spd_function(Aih @ B @ Aih, lambda w: w**t) @ Ah


def _close(X, Y: np.ndarray, what: str) -> None:
    X = np.asarray(X, dtype=float)
    _require(X.shape == Y.shape, f"{what} has shape {X.shape}, expected {Y.shape}")
    error = float(np.linalg.norm(X - Y)) / float(np.linalg.norm(Y))
    _require(error <= CLOSED_FORM_TOL, f"{what} off its closed form by {error:.3e} (relative)")


def check_two_mean(X, A: np.ndarray, B: np.ndarray) -> None:
    """The mean of two matrices is A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}."""
    _close(X, geodesic_point(A, B, 0.5), "two-matrix mean")


def check_geodesic(P, A: np.ndarray, B: np.ndarray, t: float) -> None:
    _close(P, geodesic_point(A, B, t), "geodesic point")


def check_distance(dist: float, A: np.ndarray, B: np.ndarray) -> None:
    """(sum_i log^2 lambda_i(A^{-1/2} B A^{-1/2}))^{1/2}."""
    Aih = _spd_function(A, lambda w: 1.0 / np.sqrt(w))
    expected = float(np.sqrt(np.sum(np.log(np.linalg.eigvalsh(Aih @ B @ Aih)) ** 2)))
    error = abs(float(dist) - expected) / expected
    _require(error <= CLOSED_FORM_TOL, f"distance {dist!r} off its closed form {expected!r} by {error:.3e}")


def check_euler(o1, gamma, o2, M: np.ndarray) -> None:
    """o1, o2 orthogonal and symplectic, gamma descending and >= 1, and
    o1 diag(gamma, 1/gamma) o2^T reconstructs M."""
    o1, o2 = np.asarray(o1, dtype=float), np.asarray(o2, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = M.shape[0] // 2
    J, I = standard_J(n), np.eye(2 * n)
    for name, O in (("o1", o1), ("o2", o2)):
        _require(O.shape == M.shape, f"{name} has shape {O.shape}, expected {M.shape}")
        orth = float(np.linalg.norm(O.T @ O - I))
        _require(orth <= RESIDUAL_TOL * 2 * n, f"{name} is not orthogonal: residual {orth:.3e}")
        sympl = float(np.linalg.norm(O.T @ J @ O - J))
        _require(sympl <= RESIDUAL_TOL * 2 * n, f"{name} is not symplectic: residual {sympl:.3e}")
    _require(gamma.shape == (n,), f"gamma has shape {gamma.shape}, expected {(n,)}")
    _require(bool(np.all(np.diff(gamma) <= 0.0)), "gamma is not descending")
    _require(float(gamma[-1]) >= 1.0 - RESIDUAL_TOL, f"gamma_n = {gamma[-1]!r} is below 1")
    middle = np.concatenate([gamma, 1.0 / gamma])
    error = float(np.linalg.norm((o1 * middle) @ o2.T - M)) / float(np.linalg.norm(M))
    _require(error <= RESIDUAL_TOL, f"o1 diag(gamma, 1/gamma) o2^T misses M by {error:.3e} (relative)")


def check_gaussian(exit_code: int, verdict: bool, planted_d1: float) -> None:
    """The verdict and the exit code agree with the planted d_1 >= 1/2."""
    expected = planted_d1 >= 0.5
    _require(verdict is expected, f"gaussian verdict {verdict!r} but planted d_1 = {planted_d1!r}")
    _require(exit_code == (0 if expected else 1), f"gaussian exit code {exit_code} for verdict {expected}")


def check_matrix_file(path: str, matrix) -> None:
    """A file the program wrote reloads to exactly the matrix it printed."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    data = np.asarray(record["data"], dtype=float)
    expected = np.asarray(matrix, dtype=float)
    _require(record.get("convention", "block") == "block", f"{path}: unexpected convention")
    _require(data.shape == expected.shape and bool(np.array_equal(data, expected)), f"{path} differs from stdout")


def verify_failures(records: list[dict], theorem_ids, trials: int, exit_code: int) -> int:
    """Check the records of ``verify --json`` and return how many did not
    hold (failed, inconclusive or errored): those are failed operations.

    A record that holds must have a finite margin, every conclusive record
    with a finite margin must have holds == (margin >= -tolerance), and the
    exit code must be 0 exactly when no conclusive record failed.
    """
    _require(len(records) == len(theorem_ids) * trials, f"{len(records)} records, expected {len(theorem_ids) * trials}")
    expected = [(tid, trial) for tid in theorem_ids for trial in range(trials)]
    got = [(rec.get("theorem_id"), rec.get("trial")) for rec in records]
    _require(got == expected, "records are not one per (theorem, trial) in suite order")
    failed = 0
    outright = 0
    for rec in records:
        margin, tol, holds = rec.get("margin"), rec.get("tolerance"), rec.get("holds")
        inconclusive = bool(rec.get("inconclusive"))
        if not inconclusive:
            finite = isinstance(margin, (int, float)) and math.isfinite(margin)
            _require(finite or not holds, f"{rec.get('digest')}: holds with a non-finite margin {margin!r}")
            _require(
                not finite or holds == (margin >= -tol),
                f"{rec.get('digest')}: holds={holds!r} but margin {margin!r} against tolerance {tol!r}",
            )
        if inconclusive or not holds:
            failed += 1
            outright += not inconclusive
    _require(exit_code == (0 if outright == 0 else 1), f"verify exit code {exit_code} with {outright} failures")
    return failed
