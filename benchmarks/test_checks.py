"""The benchmark's checks accept right answers and reject wrong ones.

Run from the repository root with ``python -m pytest benchmarks``. The right
answers are built from the benchmark's own inputs, without sympeig.
"""

import json

import numpy as np
import pytest

import checks
import inputs


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(7)
    A = inputs.planted(rng, inputs.log_uniform(rng, 4, 0.4, 3.0))
    B = inputs.planted(rng, inputs.log_uniform(rng, 4, 0.4, 3.0))
    return A, B


def test_spectrum_scaled_by_one_part_per_million_is_rejected(case):
    A, _ = case
    checks.check_spectrum(A.d, A.d, A.A)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectrum(A.d * (1 + 1e-6), A.d, A.A)


def test_williamson_with_a_negated_column_is_rejected(case):
    A, _ = case
    M = np.linalg.inv(A.S)  # M^T A M = diag(d, d) and M is symplectic
    checks.check_williamson(M, A.d, A.d, A.A)
    bad = M.copy()
    bad[:, 0] *= -1.0  # the congruence still holds; symplecticity does not
    with pytest.raises(checks.CheckFailed, match="not symplectic"):
        checks.check_williamson(bad, A.d, A.d, A.A)


def test_williamson_with_a_wrong_spectrum_is_rejected(case):
    A, _ = case
    M = np.linalg.inv(A.S)
    with pytest.raises(checks.CheckFailed):
        checks.check_williamson(M, A.d * (1 + 1e-6), A.d, A.A)


def test_mean_moved_off_the_barycenter_is_rejected(case):
    A, B = case
    X = checks.geodesic_point(A.A, B.A, 0.5)
    checks.check_mean(X, [A.A, B.A])
    checks.check_two_mean(X, A.A, B.A)
    moved = X * (1 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="barycenter"):
        checks.check_mean(moved, [A.A, B.A])
    with pytest.raises(checks.CheckFailed):
        checks.check_two_mean(moved, A.A, B.A)


def test_geodesic_and_distance_off_their_closed_forms_are_rejected(case):
    A, B = case
    P = checks.geodesic_point(A.A, B.A, 0.3)
    checks.check_geodesic(P, A.A, B.A, 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_geodesic(checks.geodesic_point(A.A, B.A, 0.3 + 1e-6), A.A, B.A, 0.3)
    lam = np.linalg.eigvals(np.linalg.solve(A.A, B.A)).real
    dist = float(np.sqrt(np.sum(np.log(lam) ** 2)))
    checks.check_distance(dist, A.A, B.A)
    with pytest.raises(checks.CheckFailed):
        checks.check_distance(dist * (1 + 1e-6), A.A, B.A)


def test_euler_factors_that_do_not_reconstruct_are_rejected():
    rng = np.random.default_rng(3)
    o1, o2 = inputs.orthosymplectic(rng, 3), inputs.orthosymplectic(rng, 3)
    gamma = np.array([3.0, 2.0, 1.5])
    M = (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T
    checks.check_euler(o1, gamma, o2, M)
    with pytest.raises(checks.CheckFailed, match="misses M"):
        checks.check_euler(o1, gamma * np.array([1.0, 1.0 + 1e-6, 1.0]), o2, M)
    swapped = o1[:, [1, 0, 2, 3, 4, 5]]  # orthogonal, no longer symplectic
    with pytest.raises(checks.CheckFailed, match="o1 is not symplectic"):
        checks.check_euler(swapped, gamma, o2, M)


def test_gaussian_verdict_and_exit_code_follow_the_planted_d1():
    checks.check_gaussian(0, True, 0.7)
    checks.check_gaussian(1, False, 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_gaussian(0, True, 0.3)
    with pytest.raises(checks.CheckFailed):
        checks.check_gaussian(0, False, 0.3)


def test_written_file_that_differs_from_stdout_is_rejected(tmp_path):
    X = np.arange(16.0).reshape(4, 4) / 7.0
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "convention": "block", "data": X.tolist()}))
    checks.check_matrix_file(str(path), X.tolist())
    Y = X.copy()
    Y[1, 2] = np.nextafter(Y[1, 2], 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_matrix_file(str(path), Y.tolist())


def _records(margin_of_last: float, holds_last: bool, inconclusive_last: bool = False):
    ids = ("1", "4")
    records = []
    for tid in ids:
        for trial in range(2):
            records.append(
                {"theorem_id": tid, "trial": trial, "holds": True, "inconclusive": False,
                 "margin": 1e-3, "tolerance": 1e-9, "digest": f"{tid}/{trial}"}
            )  # fmt: skip
    records[-1].update(margin=margin_of_last, holds=holds_last, inconclusive=inconclusive_last)
    return ids, records


def test_verify_record_that_holds_below_minus_tolerance_is_rejected():
    ids, records = _records(1e-3, True)
    assert checks.verify_failures(records, ids, 2, 0) == 0
    ids, records = _records(-1e-6, True)
    with pytest.raises(checks.CheckFailed, match="holds=True"):
        checks.verify_failures(records, ids, 2, 0)


def test_verify_failures_and_inconclusives_are_failed_operations():
    ids, records = _records(-1e-6, False)
    assert checks.verify_failures(records, ids, 2, 1) == 1
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.verify_failures(records, ids, 2, 0)
    ids, records = _records(None, False, inconclusive_last=True)
    assert checks.verify_failures(records, ids, 2, 0) == 1


def test_verify_with_missing_records_is_rejected():
    ids, records = _records(1e-3, True)
    with pytest.raises(checks.CheckFailed, match="records"):
        checks.verify_failures(records[:-1], ids, 2, 0)
