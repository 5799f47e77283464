"""Tests for the theorem checkers and the verification suite."""

import json
import math
import os

import numpy as np
import pytest

import sympeig.means
import sympeig.theorems
from sympeig import (
    InputError,
    SuiteConfig,
    check_corollary8,
    check_interlacing,
    check_minmax,
    check_pinching,
    check_superadditivity,
    check_theorem1,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    check_theorem11,
    random_posdef,
    random_symplectic,
    run_suite,
    standard_J,
    summarize,
)
from sympeig.means import KarcherResult


def spd(seed, n=2, cs=1.0):
    return random_posdef(seed, n, condition_spread=cs)[0]


def diagonal(d):
    d = np.asarray(d, dtype=float)
    return np.diag(np.concatenate([d, d]))


# Wide planted spectra and strong squeezing: kappa(A^t) for t up to 3 is far
# beyond what an explicitly formed A^t keeps accurate.
STRESS = {"condition_spread": 4.0, "spread": 3.0, "trials": 20, "theorems": ("1",)}


class TestTheorem1:
    def test_equality_at_t_one(self):
        rep = check_theorem1(spd(0), 1.0)
        assert rep.holds
        assert abs(rep.margin) <= 1e-10

    def test_diagonal_equality(self):
        A = diagonal([0.5, 2.0, 3.0])
        for t in (0.3, 2.5):
            rep = check_theorem1(A, t)
            assert rep.holds
            assert abs(rep.margin) <= 1e-10

    @pytest.mark.parametrize("t", [0.25, 0.5, 2.0, 3.0])
    def test_random_instances(self, t):
        for seed in range(4):
            rep = check_theorem1(spd(seed, 3, 1.5), t)
            assert rep.holds
            assert rep.margin >= -1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_stress_regime_holds(self, seed):
        reports = run_suite(SuiteConfig(seed=seed, **STRESS))
        assert len(reports) == 20
        assert all(r.holds and "error" not in r.quantities for r in reports)

    def test_stress_power_spectrum_matches_mpmath(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        seen = []

        def spy(A, t, tol):
            seen.append((A, t))
            return check_theorem1(A, t, tol)

        monkeypatch.setattr(sympeig.theorems, "check_theorem1", spy)
        # A forked child's calls would never reach the spy: run serially.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_suite(SuiteConfig(seed=0, **STRESS))
        powers = [(A, t) for A, t in seen if t > 1.0]
        assert len(powers) == 10
        for A, t in powers:
            d = np.array(check_theorem1(A, t).quantities["d_of_A_pow_t"])
            with mp.workdps(60):
                # The moduli of the eigenvalues of i A^{t/2} J A^{t/2}.
                w, Q = mp.eigsy(mp.matrix(A.tolist()))
                half = Q * mp.diag([x ** (mp.mpf(t) / 2) for x in w]) * Q.T
                K = half * mp.matrix(standard_J(len(d)).tolist()) * half
                ev = mp.eighe(mp.mpc(0, 1) * K, eigvals_only=True)
                exact = sorted(float(mp.log(x)) for x in ev if x > 0)
            assert np.max(np.abs(np.log(d) - exact)) <= 1e-9

    def test_rejects_negative_power(self):
        with pytest.raises(InputError, match=">= 0"):
            check_theorem1(spd(1), -0.5)

    def test_does_not_mutate_input(self):
        A = spd(2)
        copy = A.copy()
        check_theorem1(A, 0.5)
        assert np.array_equal(A, copy)


class TestTheorem3:
    def test_same_matrix(self):
        A = spd(3)
        rep = check_theorem3(A, A, 0.4)
        assert rep.holds
        assert abs(rep.margin) <= 1e-9

    def test_commuting_equality(self):
        A = diagonal([1.0, 4.0])
        B = diagonal([2.0, 0.5])
        rep = check_theorem3(A, B, 0.5)
        assert rep.holds
        assert abs(rep.margin) <= 1e-10

    def test_random_instances(self):
        for seed, t in ((4, 0.2), (5, 0.5), (6, 0.9)):
            rep = check_theorem3(spd(seed, 3, 1.5), spd(seed + 50, 3, 1.5), t)
            assert rep.holds
            assert rep.margin >= -1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            check_theorem3(spd(7), spd(8), 1.2)


class TestTheorem4:
    def test_equal_inputs_equality(self):
        A = spd(9)
        rep = check_theorem4([A, A, A])
        assert rep.holds
        assert abs(rep.margin) <= 1e-8

    def test_pair_agrees_with_theorem3(self):
        A, B = spd(10, 3), spd(11, 3)
        t = 0.3
        rep4 = check_theorem4([A, B], [1.0 - t, t])
        rep3 = check_theorem3(A, B, t)
        assert rep4.holds and rep3.holds
        lhs4 = np.array(rep4.quantities["dhat_mean"])
        lhs3 = np.array(rep3.quantities["dhat_geodesic"])
        assert np.max(np.abs(lhs4 - lhs3) / lhs3) <= 1e-7

    def test_random_triple(self):
        mats = [spd(seed, 3, 1.5) for seed in (12, 13, 14)]
        rep = check_theorem4(mats)
        assert rep.holds
        assert rep.margin >= -1e-8

    def test_nonconverged_is_inconclusive(self, monkeypatch):
        mats = [spd(15), spd(16), spd(17)]

        def fake_mean(ms, *args, **kwargs):
            return KarcherResult(mean=ms[0], residual=1.0, iterations=0, converged=False)

        monkeypatch.setattr(sympeig.means, "_karcher", fake_mean)
        monkeypatch.setattr("sympeig.theorems.means._karcher", fake_mean)
        rep = check_theorem4(mats)
        assert rep.inconclusive
        assert not rep.holds
        assert math.isnan(rep.margin)


class TestTheorem5:
    def test_diagonal_full_restriction_identity(self):
        A = diagonal([1.0, 2.0, 3.0])
        rep = check_theorem5(A, k=3, M=np.eye(6))
        assert rep.holds
        assert rep.quantities["trace"] == pytest.approx(2 * (1 + 2 + 3))
        assert abs(rep.margin) <= 1e-10

    def test_full_random_symplectic_restriction(self):
        A = spd(18, 3, 1.0)
        M = random_symplectic(19, 3, 1.0)
        rep = check_theorem5(A, k=3, M=M)
        assert rep.holds

    def test_partial_restriction_from_symplectic(self):
        A = spd(20, 4, 1.0)
        L = random_symplectic(21, 4, 1.0)
        k = 2
        cols = [0, 1, 4, 5]
        rep = check_theorem5(A, k=k, M=L[:, cols])
        assert rep.holds

    def test_constructed_minimizer_attains_equality(self):
        for seed in range(4):
            n = 2 + seed % 3
            A = spd(22 + seed, n, 1.5)
            k = 1 + seed % n
            rep = check_theorem5(A, k=k, rng=np.random.default_rng(seed))
            assert rep.holds
            assert rep.margin >= -1e-9

    def test_rejects_bad_restriction(self):
        A = spd(26, 2, 1.0)
        with pytest.raises(InputError, match="restriction"):
            check_theorem5(A, k=2, M=2.0 * np.eye(4))

    def test_rejects_bad_k(self):
        with pytest.raises(InputError, match="k must lie"):
            check_theorem5(spd(27), k=5)


class TestSuperadditivity:
    def test_scaling_equality(self):
        A = spd(28)
        rep = check_superadditivity(A, A, k=2)
        assert rep.holds

    def test_commuting_diagonals(self):
        A = diagonal([1.0, 2.0])
        B = diagonal([3.0, 4.0])
        rep = check_superadditivity(A, B)
        # direct arithmetic: d(A+B) = (4, 6); sums and squared products dominate
        assert rep.holds
        assert np.allclose(rep.quantities["d_sumAB"], [4.0, 6.0])

    def test_random_all_k(self):
        for seed in range(5):
            rep = check_superadditivity(spd(seed + 29, 4, 1.5), spd(seed + 60, 4, 1.5))
            assert rep.holds
            assert rep.margin >= -1e-9


class TestTheorem6:
    def test_orthogonal_is_doubly_stochastic(self):
        M = random_symplectic(30, 3, spread=0.0)
        rep = check_theorem6(M)
        assert rep.holds
        assert rep.quantities["doubly_stochastic"] is True

    def test_squeeze_is_superstochastic_not_stochastic(self):
        rep = check_theorem6(np.diag([2.0, 0.5]))
        assert rep.holds
        assert rep.quantities["doubly_stochastic"] is False
        assert rep.quantities["min_row_sum"] == pytest.approx(2.125)

    def test_random_symplectic(self):
        for seed in range(5):
            M = random_symplectic(31 + seed, 3, spread=1.0)
            rep = check_theorem6(M)
            assert rep.holds


class TestTheorem7:
    def test_equal_inputs(self):
        A = spd(36)
        rep = check_theorem7(A, A)
        assert rep.holds
        assert rep.quantities["lhs_operator"] <= 1e-10

    def test_large_gamma_bound_order(self):
        gamma = 100.0
        n = 2
        A = np.diag([gamma] * n + [1.0] * n)
        B = np.eye(2 * n)
        rep = check_theorem7(A, B)
        assert rep.holds
        assert rep.quantities["lhs_operator"] == pytest.approx(9.0, abs=1e-9)
        assert rep.quantities["rhs_operator"] == pytest.approx(11.0 * math.sqrt(99.0), abs=1e-9)

    def test_random_pairs(self):
        for seed in range(5):
            rep = check_theorem7(spd(seed + 37, 3, 1.5), spd(seed + 70, 3, 1.5))
            assert rep.holds
            assert rep.margin >= -1e-9


class TestInterlacing:
    def test_diagonal(self):
        A = diagonal([1.0, 2.0, 3.0])
        for drop in range(3):
            rep = check_interlacing(A, drop)
            assert rep.holds

    def test_random_all_drops(self):
        for seed in range(3):
            n = 3 + seed
            A = spd(40 + seed, n, 1.5)
            for drop in range(n):
                rep = check_interlacing(A, drop)
                assert rep.holds
                assert rep.margin >= -1e-9

    def test_exhaustive_n2(self):
        A = spd(44, 2, 1.0)
        for drop in (0, 1):
            assert check_interlacing(A, drop).holds

    def test_rejects_n1(self):
        with pytest.raises(InputError, match="n >= 2"):
            check_interlacing(spd(45, 1), 0)


class TestPinching:
    def test_trivial_partition_equality(self):
        A = spd(46, 3, 1.0)
        rep = check_pinching(A, (3,))
        assert rep.holds
        assert abs(rep.margin) <= 1e-10

    def test_already_block_equality(self):
        from sympeig import s_pinching

        A = s_pinching(spd(47, 3, 1.0), (1, 2))
        rep = check_pinching(A, (1, 2))
        assert rep.holds
        assert abs(rep.margin) <= 1e-10

    def test_random_partitions(self):
        for seed in range(4):
            n = 2 + seed
            A = spd(48 + seed, n, 1.5)
            rep = check_pinching(A, (1, n - 1))
            assert rep.holds
            assert rep.margin >= -1e-8


class TestTheorem11:
    def test_diagonal_equality(self):
        A = diagonal([1.0, 2.0, 5.0])
        rep = check_theorem11(A)
        assert rep.holds
        assert abs(rep.margin) <= 1e-10

    def test_scaled_identity_brackets(self):
        A = np.diag([4.0, 4.0, 1.0, 1.0])
        rep = check_theorem11(A)
        assert rep.holds
        assert np.allclose(rep.quantities["d"], [2.0, 2.0])
        assert np.allclose(rep.quantities["eigenvalues"], [1.0, 1.0, 4.0, 4.0])

    def test_random(self):
        for seed in range(5):
            rep = check_theorem11(spd(52 + seed, 3, 1.5))
            assert rep.holds
            assert rep.margin >= -1e-9


class TestCorollary8:
    def test_boundary_matrix(self):
        A = 0.5 * np.eye(4)
        rep = check_corollary8(A, A, 0.7)
        assert rep.holds

    def test_identity_power(self):
        rep = check_corollary8(np.eye(4), np.eye(4), 0.5)
        assert rep.holds

    def test_random_gaussian_pairs(self):
        from sympeig.symplectic import random_posdef_rng

        rng = np.random.default_rng(57)
        for t in (0.0, 0.3, 0.8, 1.0):
            d1 = 0.5 + np.sort(rng.uniform(0.0, 2.0, size=3))
            d2 = 0.5 + np.sort(rng.uniform(0.0, 2.0, size=3))
            A, _ = random_posdef_rng(rng, 3, d=d1)
            B, _ = random_posdef_rng(rng, 3, d=d2)
            rep = check_corollary8(A, B, t)
            assert rep.holds

    def test_rejects_non_gaussian(self):
        with pytest.raises(InputError, match="not Gaussian"):
            check_corollary8(0.1 * np.eye(2), np.eye(2), 0.5)


class TestMinmax:
    def test_identity(self):
        rep = check_minmax(np.eye(4))
        assert rep.holds
        assert np.allclose(rep.quantities["observed"], [1.0, 1.0, -1.0, -1.0])

    def test_scaled_identity(self):
        A = np.diag([4.0, 4.0, 1.0, 1.0])
        rep = check_minmax(A)
        assert rep.holds
        assert np.allclose(rep.quantities["observed"], [0.5, 0.5, -0.5, -0.5])

    def test_random(self):
        for seed in range(5):
            rep = check_minmax(spd(58 + seed, 4, 1.5))
            assert rep.holds
            assert rep.margin >= -1e-8


class TestReports:
    def test_margin_recomputable_theorem3(self):
        from sympeig import log_majorizes
        from sympeig.majorization import DEFAULT_TOL

        rep = check_theorem3(spd(63, 3), spd(64, 3), 0.4)
        verdict = log_majorizes(
            y=np.array(rep.quantities["rhs_vector"]),
            x=np.array(rep.quantities["dhat_geodesic"]),
        )
        assert verdict.worst_margin == pytest.approx(rep.margin, abs=1e-15)
        # The predicate judges at DEFAULT_TOL, theorem 3's default tolerance.
        assert rep.tolerance == DEFAULT_TOL
        assert verdict.holds == rep.holds

    def test_holds_iff_margin_within_tolerance(self):
        rep = check_theorem1(spd(65), 0.5)
        assert rep.holds == (rep.margin >= -rep.tolerance)

    def test_zero_tolerance_boundary_behavior(self):
        # Equality cases sit on the boundary at tolerance 0: the verdict is
        # exactly margin >= 0, so roundoff may flip it either way.
        A = diagonal([1.0, 3.0])
        rep = check_theorem1(A, 0.5, tol=0.0)
        assert rep.holds == (rep.margin >= 0.0)


def cpus(monkeypatch, count):
    """Make run_suite see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes run_suite forks."""
    forked = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the suite forks only where os.fork exists")
# 5 trials of all 12 theorems: 60 tasks, which 3 CPUs split in 3 when a
# process needs at least 20.
FORK_CFG = SuiteConfig(seed=9, trials=5, nmax=4)


def allow_three_processes(monkeypatch):
    cpus(monkeypatch, 3)
    monkeypatch.setattr(sympeig.theorems, "SUITE_TASKS_PER_PROCESS", 20)


class TestRunSuite:
    def test_deterministic(self):
        cfg = SuiteConfig(seed=5, trials=2, nmax=3)
        first = run_suite(cfg)
        second = run_suite(cfg)
        assert [r.to_json_line() for r in first] == [r.to_json_line() for r in second]
        # bit-for-bit identical quantities under decimal serialization
        q1 = [json.dumps(r.quantities, sort_keys=True) for r in first]
        q2 = [json.dumps(r.quantities, sort_keys=True) for r in second]
        assert q1 == q2

    def test_small_run_all_pass(self):
        cfg = SuiteConfig(seed=1, trials=5, nmax=3)
        reports = run_suite(cfg)
        summary = summarize(reports)
        assert sum(e["failures"] for e in summary.values()) == 0
        assert len(reports) == 5 * len(summary)

    def test_reports_ordered_and_tagged(self):
        cfg = SuiteConfig(seed=2, trials=3, nmax=2, theorems=("1", "6"))
        reports = run_suite(cfg)
        assert [r.theorem_id for r in reports] == ["1"] * 3 + ["6"] * 3
        assert [r.trial for r in reports] == [0, 1, 2, 0, 1, 2]
        assert all(r.digest.startswith("seed=2;") for r in reports)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(InputError, match="unknown theorem"):
            SuiteConfig(theorems=("nope",))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("condition_spread", math.nan),
            ("condition_spread", -2.0),
            ("spread", math.inf),
            ("spread", -1.0),
            ("tolerances", {"7": math.nan}),
            ("tolerances", {"1": math.inf}),
            ("tolerances", {"4": -1e-9}),
        ],
    )
    def test_bad_spread_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be finite and >= 0"):
            SuiteConfig(**{field: value})

    def test_tolerance_override(self):
        cfg = SuiteConfig(seed=3, trials=1, theorems=("7",), tolerances={"7": 0.123})
        (rep,) = run_suite(cfg)
        assert rep.tolerance == 0.123


    @needs_fork
    def test_forked_reports_equal_serial(self, monkeypatch, forks):
        allow_three_processes(monkeypatch)
        parallel = run_suite(FORK_CFG)
        assert len(forks) == 2
        assert_no_child_left()
        cpus(monkeypatch, 1)
        serial = run_suite(FORK_CFG)
        assert len(forks) == 2
        assert [r.to_json_line() for r in parallel] == [r.to_json_line() for r in serial]
        q_parallel = [json.dumps(r.quantities, sort_keys=True) for r in parallel]
        assert q_parallel == [json.dumps(r.quantities, sort_keys=True) for r in serial]

    @needs_fork
    def test_small_suite_stays_serial(self, monkeypatch, forks):
        cpus(monkeypatch, 64)
        cfg = SuiteConfig(trials=1)
        assert len(cfg.theorems) < 2 * sympeig.theorems.SUITE_TASKS_PER_PROCESS
        assert len(run_suite(cfg)) == len(cfg.theorems)
        assert forks == []

    @needs_fork
    @pytest.mark.parametrize("raiser", ["child", "parent"])
    def test_exception_propagates_and_children_are_reaped(self, monkeypatch, forks, raiser):
        allow_three_processes(monkeypatch)
        parent = os.getpid()
        real = sympeig.theorems.check_theorem7

        def checker(*args):
            if (os.getpid() == parent) == (raiser == "parent"):
                raise RuntimeError(f"checker broke in the {raiser}")
            return real(*args)

        monkeypatch.setattr(sympeig.theorems, "check_theorem7", checker)
        with pytest.raises(RuntimeError, match=f"checker broke in the {raiser}"):
            run_suite(FORK_CFG)
        assert len(forks) == 2
        assert_no_child_left()

    @needs_fork
    def test_child_that_dies_is_reported_and_reaped(self, monkeypatch, forks):
        allow_three_processes(monkeypatch)
        parent = os.getpid()
        real = sympeig.theorems.check_theorem7

        def checker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(sympeig.theorems, "check_theorem7", checker)
        with pytest.raises(ChildProcessError, match="sent no reports"):
            run_suite(FORK_CFG)
        assert_no_child_left()
