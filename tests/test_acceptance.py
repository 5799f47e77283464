"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np

from sympeig import (
    associated_matrix,
    geodesic,
    is_doubly_superstochastic,
    karcher_mean,
    karcher_residual,
    standard_J,
    symplectic_spectrum,
    williamson_form,
)
from sympeig.cli import main
from sympeig.symplectic import _doubly_stochastic, random_orthosymplectic_rng, random_posdef

from oracles import mtilde_deviation


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _planted(rng, n, duplicates):
    if duplicates and n >= 2:
        base = np.exp(rng.uniform(-1.5, 1.5, size=(n + 1) // 2))
        return np.sort(np.concatenate([base, base])[:n])
    return np.sort(np.exp(rng.uniform(-1.5, 1.5, size=n)))


def test_criterion_1_williamson_reconstruction():
    """500 seeded random PD matrices, n in [1, 6], planted spectra."""
    start = time.time()
    worst_j, worst_a, worst_d = 0.0, 0.0, 0.0
    for trial in range(500):
        rng = np.random.default_rng([1000, trial])
        n = int(rng.integers(1, 7))
        d = _planted(rng, n, trial % 5 == 4)
        A, _ = random_posdef(rng, n, d=d)
        form = williamson_form(A)
        J = standard_J(n)
        dd = np.diag(np.concatenate([form.d, form.d]))
        worst_j = max(worst_j, float(np.linalg.norm(form.M.T @ J @ form.M - J)))
        worst_a = max(
            worst_a,
            float(np.linalg.norm(form.M.T @ A @ form.M - dd)) / float(np.linalg.norm(A)),
        )
        worst_d = max(worst_d, float(np.max(np.abs(form.d - d) / d)))
    elapsed = time.time() - start
    ok = worst_j <= 1e-8 and worst_a <= 1e-8 and worst_d <= 1e-7 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"500 instances: symplectic residual {worst_j:.2e} (<=1e-8), congruence "
        f"{worst_a:.2e} (<=1e-8 rel), spectrum error {worst_d:.2e} (<=1e-7), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_worked_example():
    """gamma = 100 example: spectra, operator-norm gap 9, bound 11*sqrt(99)."""
    gamma = 100.0
    n = 3
    A = np.diag([gamma] * n + [1.0] * n)
    B = np.eye(2 * n)
    da = symplectic_spectrum(A)
    db = symplectic_spectrum(B)
    lhs = float(np.max(np.abs(da.d_hat - db.d_hat)))
    rhs = (math.sqrt(np.linalg.norm(A, 2)) + math.sqrt(np.linalg.norm(B, 2))) * math.sqrt(
        np.linalg.norm(A - B, 2)
    )
    spectra_ok = np.allclose(da.d, 10.0, atol=1e-9) and np.allclose(db.d, 1.0, atol=1e-12)
    values_ok = abs(lhs - 9.0) <= 1e-9 and abs(rhs - 11.0 * math.sqrt(99.0)) <= 1e-9
    # both sides are of order sqrt(gamma)
    order_ok = 0.5 <= lhs / math.sqrt(gamma) <= 2.0 and 1.0 <= rhs / math.sqrt(gamma) <= 20.0
    ok = spectra_ok and values_ok and lhs <= rhs and order_ok
    _verdict(2, ok, f"spectra 10 vs 1, |gap| = {lhs} vs bound {rhs:.6f} = 11*sqrt(99)")


def test_criterion_3_verify_suite(capsys, tmp_path):
    """cmd_verify --theorem all, 100 trials, deterministic, zero failures."""
    args = [
        "verify",
        "--theorem",
        "all",
        "--trials",
        "100",
        "--nmin",
        "1",
        "--nmax",
        "6",
        "--seed",
        "0",
        "--json",
    ]
    start = time.time()
    code1 = main(list(args))
    out1 = capsys.readouterr().out
    elapsed = time.time() - start
    code2 = main(list(args))
    out2 = capsys.readouterr().out

    records = [json.loads(line) for line in out1.strip().splitlines()]
    failures = [r for r in records if not r["holds"] and not r["inconclusive"]]
    inconclusive = [r for r in records if r["inconclusive"]]
    t4_inconclusive = [r for r in inconclusive if r["theorem_id"] == "4"]
    ok = (
        code1 == 0
        and code2 == 0
        and out1 == out2
        and len(records) == 1200
        and not failures
        and len(inconclusive) == len(t4_inconclusive)
        and len(t4_inconclusive) <= 1  # <= 1% of 100 theorem-4 instances
        and elapsed < 60.0
    )
    with capsys.disabled():
        _verdict(
            3,
            ok,
            f"1200 reports, {len(failures)} failures, {len(inconclusive)} inconclusive "
            f"(theorem 4: {len(t4_inconclusive)}), byte-identical rerun, {elapsed:.1f}s (<60s)",
        )


def test_criterion_4_spectrum_oracle_equivalence():
    """symplectic_spectrum vs the independent J A eigenvalue oracle, 200 runs."""
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng([4000, trial])
        n = int(rng.integers(1, 7))
        A, _ = random_posdef(rng, n, condition_spread=1.5)
        d = symplectic_spectrum(A).d
        ev = np.linalg.eigvals(standard_J(n) @ A)
        oracle = np.sort(ev.imag[ev.imag > 0])
        worst = max(worst, float(np.max(np.abs(d - oracle) / oracle)))
    ok = worst <= 1e-8
    _verdict(4, ok, f"200 instances, worst relative deviation {worst:.2e} (<=1e-8)")


def test_criterion_5_inverse_and_scaling():
    """d_j(A^-1) * d_(n+1-j)(A) = 1 and d(cA) = c d(A), 200 instances."""
    worst_inv, worst_scale = 0.0, 0.0
    for trial in range(200):
        rng = np.random.default_rng([5000, trial])
        n = int(rng.integers(1, 7))
        A, _ = random_posdef(rng, n, condition_spread=1.5)
        d = symplectic_spectrum(A).d
        dinv = symplectic_spectrum(np.linalg.inv(A)).d
        worst_inv = max(worst_inv, float(np.max(np.abs(dinv * d[::-1] - 1.0))))
        c = float(rng.uniform(0.1, 10.0))
        dc = symplectic_spectrum(c * A).d
        worst_scale = max(worst_scale, float(np.max(np.abs(dc - c * d) / (c * d))))
    ok = worst_inv <= 1e-8 and worst_scale <= 1e-8
    _verdict(5, ok, f"200 instances, inverse law {worst_inv:.2e}, scaling law {worst_scale:.2e} (<=1e-8)")


def test_criterion_6_karcher_correctness():
    """100 random triples: the dimensionless residual <= 1e-9, also <= 1e-9 * ||mean||; pairs match A # B."""
    worst_resid = worst_abs = 0.0
    for trial in range(100):
        rng = np.random.default_rng([6000, trial])
        n = int(rng.integers(1, 4))
        mats = [random_posdef(rng, n, condition_spread=1.0)[0] for _ in range(3)]
        result = karcher_mean(mats)
        assert result.converged
        opnorm = float(np.linalg.eigvalsh(result.mean)[-1])
        worst_resid = max(worst_resid, karcher_residual(result.mean, mats) / (1e-9 * opnorm))
        worst_abs = max(worst_abs, karcher_residual(result.mean, mats) / 1e-9)
    worst_pair = 0.0
    for trial in range(20):
        rng = np.random.default_rng([6100, trial])
        A, _ = random_posdef(rng, 2, condition_spread=1.0)
        B, _ = random_posdef(rng, 2, condition_spread=1.0)
        result = karcher_mean([A, B])
        G = geodesic(A, B, 0.5)
        worst_pair = max(
            worst_pair, float(np.linalg.norm(result.mean - G) / np.linalg.norm(G))
        )
    ok = worst_resid <= 1.0 and worst_abs <= 1.0 and worst_pair <= 1e-7
    _verdict(
        6,
        ok,
        f"100 triples: worst residual {worst_abs:.3f} of 1e-9 and {worst_resid:.3f} of 1e-9 * ||mean||;"
        f" pair-vs-# deviation {worst_pair:.2e} (<=1e-7)",
    )


def test_criterion_7_theorem6_both_directions():
    """200 superstochastic with witness; 50 orthogonal stochastic; 50 squeezed not."""
    all_super = True
    for trial in range(200):
        rng = np.random.default_rng([7000, trial])
        n = int(rng.integers(1, 7))
        M = (
            random_orthosymplectic_rng(rng, n)
            if trial % 4 == 0
            else _squeezed(rng, n, floor=0.0)
        )
        check = is_doubly_superstochastic(associated_matrix(M))
        valid_witness = check.ok and _doubly_stochastic(check.witness, 1e-6)
        all_super = all_super and valid_witness
    all_stochastic = True
    for trial in range(50):
        rng = np.random.default_rng([7100, trial])
        M = random_orthosymplectic_rng(rng, int(rng.integers(1, 7)))
        all_stochastic = all_stochastic and _doubly_stochastic(associated_matrix(M), 1e-8)
    none_stochastic = True
    for trial in range(50):
        rng = np.random.default_rng([7200, trial])
        M = _squeezed(rng, int(rng.integers(1, 7)), floor=0.2)
        none_stochastic = none_stochastic and not _doubly_stochastic(associated_matrix(M), 1e-8)
    ok = all_super and all_stochastic and none_stochastic
    _verdict(
        7,
        ok,
        f"superstochastic+witness on 200: {all_super}; orthogonal stochastic on 50: "
        f"{all_stochastic}; squeezed non-stochastic on 50: {none_stochastic}",
    )


def _squeezed(rng, n, floor):
    gamma = np.sort(np.exp(rng.uniform(floor, floor + 1.0, size=n)))[::-1]
    o1 = random_orthosymplectic_rng(rng, n)
    o2 = random_orthosymplectic_rng(rng, n)
    return (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T


def test_criterion_8_entrywise_identity():
    """Associated-matrix identity deviation <= 1e-8 on 100 symplectic, n <= 4."""
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([8000, trial])
        n = int(rng.integers(1, 5))
        M = _squeezed(rng, n, floor=0.0) if trial % 3 else random_orthosymplectic_rng(rng, n)
        worst = max(worst, mtilde_deviation(M))
    ok = worst <= 1e-8
    _verdict(8, ok, f"100 symplectic matrices (n<=4), max entrywise deviation {worst:.2e} (<=1e-8)")


def test_criterion_9_degenerate_spectra():
    """Planted repeated symplectic eigenvalues pass everything at full tolerance."""
    worst_recon, worst_oracle, worst_inv = 0.0, 0.0, 0.0
    for trial in range(100):
        rng = np.random.default_rng([9000, trial])
        n = int(rng.integers(2, 7))
        d = _planted(rng, n, duplicates=True)
        A, _ = random_posdef(rng, n, d=d)
        form = williamson_form(A)
        J = standard_J(n)
        dd = np.diag(np.concatenate([form.d, form.d]))
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm(form.M.T @ J @ form.M - J)),
            float(np.linalg.norm(form.M.T @ A @ form.M - dd)) / float(np.linalg.norm(A)),
        )
        got = symplectic_spectrum(A).d
        worst_oracle = max(worst_oracle, float(np.max(np.abs(got - d) / d)))
        dinv = symplectic_spectrum(np.linalg.inv(A)).d
        worst_inv = max(worst_inv, float(np.max(np.abs(dinv * got[::-1] - 1.0))))
    ok = worst_recon <= 1e-8 and worst_oracle <= 1e-7 and worst_inv <= 1e-8
    _verdict(
        9,
        ok,
        f"100 duplicate-spectrum instances: reconstruction {worst_recon:.2e} (<=1e-8), "
        f"planted recovery {worst_oracle:.2e} (<=1e-7), inverse law {worst_inv:.2e} (<=1e-8)",
    )
