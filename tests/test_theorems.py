"""Tests for the theorem checkers and the verification suite."""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

import sympeig.means
import sympeig.theorems
from sympeig import (
    THEOREM_IDS,
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
    karcher_mean,
    random_posdef,
    random_symplectic,
    run_suite,
    standard_J,
    summarize,
    symplectic_spectrum,
)
from sympeig.cli import main
from sympeig.means import KarcherResult
from sympeig.symplectic import SYMPLECTIC_TOL
from sympeig.theorems import THEOREM5_SAMPLES, THEOREM5_STEP, _near_minimizer
from sympeig.williamson import WilliamsonForm


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

    def test_stress_power_spectrum_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        # The stress suite's instances, from theorem 1's table draw.
        seen = []
        for seed in range(4):
            cfg = SuiteConfig(seed=seed, **STRESS)
            for trial in range(cfg.trials):
                _, (A, t) = sympeig.theorems._draw_task(cfg, "1", trial)
                seen.append((sympeig.theorems._assemble([A])[0], t))
        powers = [(A, t) for A, t in seen if t > 1.0]
        assert len(powers) == 40
        worst = 0.0
        for A, t in powers:
            quantities = check_theorem1(A, t).quantities
            J = mp.matrix(standard_J(len(A) // 2).tolist())
            with mp.workdps(60):
                w, Q = mp.eigsy(mp.matrix(A.tolist()))
                # d of the Cholesky factor of A, and of the factor Q w^{t/2} of A^t.
                for key, s in (("d_of_A", 1), ("d_of_A_pow_t", t)):
                    # The moduli of the eigenvalues of i A^{s/2} J A^{s/2}.
                    half = Q * mp.diag([x ** (mp.mpf(s) / 2) for x in w]) * Q.T
                    ev = mp.eighe(mp.mpc(0, 1) * (half * J * half), eigvals_only=True)
                    exact = sorted(float(mp.log(x)) for x in ev if x > 0)
                    worst = max(worst, float(np.max(np.abs(np.log(quantities[key]) - exact))))
        assert worst <= 1e-9

    def test_rejects_negative_power(self):
        with pytest.raises(InputError, match=">= 0"):
            check_theorem1(spd(1), -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_power(self, t):
        with pytest.raises(InputError) as info:
            check_theorem1(spd(1), t)
        assert str(info.value) == f"power must be finite and >= 0, got {t}"

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

        def fake_mean(stack, *args, **kwargs):
            return [KarcherResult(mean=ms[0], residual=1.0, iterations=0, converged=False) for ms in stack]

        monkeypatch.setattr(sympeig.means, "_karcher", fake_mean)
        monkeypatch.setattr("sympeig.theorems.means._karcher", fake_mean)
        rep = check_theorem4(mats)
        assert rep.inconclusive
        assert not rep.holds
        assert math.isnan(rep.margin)

    def test_summary_counts_nonconverged_means_as_inconclusive(self, monkeypatch, capsys):
        # With no Newton step allowed, no suite mean converges: every report is
        # inconclusive, none fails, and verify's text shows them in its column.
        monkeypatch.setattr(sympeig.means, "_karcher", partial(sympeig.means._karcher, max_iter=0))
        reports = run_suite(SuiteConfig(trials=3, theorems=("4",)))
        assert [r.inconclusive for r in reports] == [True] * 3
        assert summarize(reports) == {"4": {"trials": 3, "failures": 0, "inconclusive": 3, "worst_margin": math.inf}}
        assert main(["verify", "--theorem", "4", "--trials", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["4", "3", "0", "0", "3", "n/a"]


class TestTheorem5:
    def test_diagonal_full_restriction_identity(self):
        A = diagonal([1.0, 2.0, 3.0])
        rep = check_theorem5(A, k=3, M=np.eye(6))
        assert rep.holds
        assert rep.quantities["sampled"] == [[pytest.approx(2 * (1 + 2 + 3)), pytest.approx(2 * math.log(6))]]
        assert rep.quantities["minimizer_trace"] == pytest.approx(2 * (1 + 2 + 3))
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

    @staticmethod
    def raise_d1(monkeypatch):
        """Make theorem 5's stacked Williamson forms report each d_1 raised by 1e-6."""
        williamson = sympeig.theorems._williamson

        def shifted(K, JL):
            form = williamson(K, JL)
            return WilliamsonForm(M=form.M, d=np.concatenate([form.d[..., :1] + 1e-6, form.d[..., 1:]], axis=-1))

        monkeypatch.setattr(sympeig.theorems, "_williamson", shifted)

    @pytest.mark.parametrize("seed", range(10))
    def test_explicit_restriction_checks_the_minimizer(self, monkeypatch, seed):
        # d_1 raised by 1e-6: the sampled restriction still satisfies both
        # inequalities, so only the minimizer's equality can catch it.
        self.raise_d1(monkeypatch)
        rep = check_theorem5(random_posdef(seed, 3, 1.5)[0], 1, M=random_symplectic(100 + seed, 3, 1.0)[:, [0, 3]])
        assert not rep.holds

    def test_suite_groups_check_every_minimizer(self, monkeypatch):
        # The suite's stacked groups: with each d_1 raised, every record fails
        # on its margin, not on an error.
        self.raise_d1(monkeypatch)
        reports = run_suite(SuiteConfig(seed=0, trials=13, theorems=("5",)))
        assert all(math.isfinite(r.margin) and not r.holds for r in reports)

    def test_rejects_bad_restriction(self):
        A = spd(26, 2, 1.0)
        infinite = np.eye(4)[:, [0, 2]]
        infinite[1, 0] = np.inf
        for k, M in [(2, 2.0 * np.eye(4)), (1, np.full((4, 2), np.nan)), (1, infinite)]:
            with pytest.raises(InputError, match="restriction"):
                check_theorem5(A, k=k, M=M)

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e200])
    def test_rejects_an_overflowing_restriction(self, scale):
        # From 1e160 both sides of residual <= 1e-8 (1 + ||M||_F^2) overflow to
        # inf: an infinite residual is refused, and no overflow warning escapes.
        A = random_posdef(0, 3)[0]
        R = random_symplectic(1, 3, 0.5)[:, [0, 3]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="fails the restriction condition"):
                check_theorem5(A, 1, M=scale * R)

    @pytest.mark.parametrize("relative", [3e-9, 5e-10])
    def test_restriction_is_judged_by_the_one_symplecticity_rule(self, relative):
        # Scaling one column of a restriction by 1 + delta leaves
        # M^T J_6 M - J_2 = [[0, delta], [-delta, 0]]: a relative residual
        # above SYMPLECTIC_TOL (1e-9) is refused, one below it accepted.
        A = random_posdef(0, 3)[0]
        M = random_symplectic(1, 3, 0.5)[:, [0, 3]]
        M[:, 0] *= 1.0 + relative * (1.0 + np.sum(M * M)) / math.sqrt(2.0)
        residual = np.linalg.norm(M.T @ standard_J(3) @ M - standard_J(1)) / (1.0 + np.sum(M * M))
        assert residual == pytest.approx(relative, rel=0.02)
        if relative < SYMPLECTIC_TOL:
            assert check_theorem5(A, 1, M=M).holds
        else:
            with pytest.raises(InputError, match="fails the restriction condition"):
                check_theorem5(A, 1, M=M)

    def test_rejects_bad_k(self):
        with pytest.raises(InputError, match="k must lie"):
            check_theorem5(spd(27), k=5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_samples_are_restrictions_near_the_minimizer(self, k):
        # Each sample is a 2n x 2k restriction, R^T J R = J_2k to roundoff, whose
        # trace and log-determinant exceed the minimizer's by O(step^2) at most.
        A = spd(28, 3, 1.5)
        form = sympeig.williamson_form(A)
        normals = np.random.default_rng(k).standard_normal((THEOREM5_SAMPLES, 2, 3, 3))
        R = _near_minimizer(form.M[None], normals[None], k)[0]
        assert R.shape == (THEOREM5_SAMPLES, 6, 2 * k)
        residual = np.linalg.norm(R.swapaxes(-1, -2) @ standard_J(3) @ R - standard_J(k), axis=(-2, -1))
        assert np.max(residual) <= 1e-13 * np.max(np.sum(R * R, axis=(-2, -1)))
        C = R.swapaxes(-1, -2) @ A @ R
        excess = np.trace(C, axis1=-2, axis2=-1) - 2.0 * np.sum(form.d[:k])
        assert np.all(excess >= -1e-13) and np.all(excess <= 1e2 * THEOREM5_STEP**2)
        assert np.max(excess) > 1e-3 * THEOREM5_STEP**2

    def test_sampled_restrictions_catch_a_raised_d1(self, monkeypatch):
        # d_1 raised by 1e-6: on every seed-0 draw the samples near the
        # minimizer fail on their own, apart from the minimizer's equality.
        self.raise_d1(monkeypatch)
        for rep in run_suite(SuiteConfig(seed=0, theorems=("5",))):
            q = rep.quantities
            tr, logdet = np.array(q["sampled"]).T
            trace_margin = (tr - q["target_trace"]) / np.maximum(1.0, np.maximum(tr, q["target_trace"]))
            assert min(np.min(trace_margin), np.min(logdet - q["target_logdet"])) < -rep.tolerance


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

    def test_margins_match_the_per_k_reference(self):
        # The checker reads every k from one cumulative sum and product; the
        # per-k reference below sums each prefix on its own. numpy's pairwise
        # sum adds 8 or more terms in another order, so from k = 8 on the two
        # agree to a few ulps of the normalized margin, and bit for bit below.
        A, B = spd(71, 12, 1.5), spd(72, 12, 1.5)
        rep = check_superadditivity(A, B)
        ds, da, db = (np.array(rep.quantities[key]) for key in ("d_sumAB", "d_A", "d_B"))
        per_k = []
        for k in range(1, 13):
            sums = (np.sum(ds[:k]), np.sum(da[:k]) + np.sum(db[:k]))
            prods = (np.prod(ds[:k] ** 2), np.prod(da[:k] ** 2) + np.prod(db[:k] ** 2))
            per_k.append(min((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) for lhs, rhs in (sums, prods)))
        assert rep.quantities["k"] == list(range(1, 13))
        assert rep.margin == pytest.approx(min(per_k), abs=16 * np.finfo(float).eps)
        for k in (1, 3, 7):
            assert check_superadditivity(A, B, k=k).margin == per_k[k - 1]


class TestTheorem6:
    def test_overflowing_input_is_refused(self):
        # 1e200 M overflows its symplecticity residual: an InputError, not a NaN margin.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputError, match="not symplectic"):
                check_theorem6(1e200 * random_symplectic(29, 2, 1.0))

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
            # The submatrix deletes exactly the pair (drop, n + drop).
            assert np.allclose(rep.quantities["d_B"], np.delete([1.0, 2.0, 3.0], drop), rtol=1e-12, atol=0.0)

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
    def test_non_iterable_partition_is_an_input_error(self):
        with pytest.raises(InputError, match="expected a sequence of integers"):
            check_pinching(spd(45, 2, 1.0), 2)

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

    @staticmethod
    def gaussian_pairs():
        rng = np.random.default_rng(57)
        for t in (0.0, 0.3, 0.8, 1.0):
            d1 = 0.5 + np.sort(rng.uniform(0.0, 2.0, size=3))
            d2 = 0.5 + np.sort(rng.uniform(0.0, 2.0, size=3))
            A, _ = random_posdef(rng, 3, d=d1)
            B, _ = random_posdef(rng, 3, d=d2)
            yield A, B, t

    def test_random_gaussian_pairs(self):
        for A, B, t in self.gaussian_pairs():
            rep = check_corollary8(A, B, t)
            assert rep.holds

    def test_mean_is_the_karcher_mean(self):
        # The mean clause reads the geodesic midpoint, which is the two-matrix
        # Karcher mean, so no solve can leave the report inconclusive.
        for A, B, t in self.gaussian_pairs():
            rep = check_corollary8(A, B, t)
            assert not rep.inconclusive
            expected = symplectic_spectrum(karcher_mean([A, B]).mean).d[0]
            assert rep.quantities["d1_mean"] == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_gaussian(self):
        with pytest.raises(InputError, match="not Gaussian"):
            check_corollary8(0.1 * np.eye(2), np.eye(2), 0.5)

    def test_suite_tolerance_does_not_move_the_gaussian_rule(self):
        # The suite's tol judges margins only: the inputs are Gaussian by the
        # one rule d_1 >= 1/2 - GAUSSIAN_TOL whatever it is.
        A = random_posdef(np.random.default_rng(39), 3, d=[0.5 - 3e-9, 1.0, 2.0])[0][None]
        for tol in (0.0, 1e-8, 0.5):
            with pytest.raises(InputError, match="first input is not Gaussian"):
                sympeig.theorems._corollary8(A, A, [0.5], tol=tol)


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

    @pytest.mark.parametrize(
        "check, scale",
        [
            (check_superadditivity, 1e150),
            (lambda A, B: check_pinching(A, (1, 2)), 1e150),
            (check_theorem7, 1e200),
        ],
        ids=["superadditivity", "pinching", "7"],
    )
    def test_nan_margin_never_holds(self, check, scale):
        # Products, elementary symmetric polynomials or squared gaps of the
        # scaled spectra overflow, and a margin component is inf - inf.
        A, B = random_posdef(0, 3, 1.5)[0], random_posdef(1, 3, 1.5)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check(scale * A, scale * B)
        assert math.isnan(rep.margin)
        assert rep.holds is False
        assert not rep.inconclusive

    def test_log_margin_of_a_zero_or_infinite_entry_never_holds(self):
        # The batch checkers trust their spectra; should a zero or an infinite
        # entry reach the log-majorization margin, the margin is -inf or NaN.
        y = np.array([[4.0, 2.0], [np.inf, 1.0], [4.0, 2.0], [np.inf, 1.0]])
        x = np.array([[4.0, 2.0], [2.0, 1.0], [2.0, 0.0], [np.inf, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = sympeig.theorems._log_worst(y, x)
        assert worst[0] == 0.0
        assert worst[1] == worst[2] == -np.inf
        assert math.isnan(worst[3])
        reports = sympeig.theorems._reports("3", 1e-9, worst, rhs_vector=y, dhat_geodesic=x)
        assert [r.holds for r in reports] == [True, False, False, False]

    def test_zero_tolerance_boundary_behavior(self):
        # Equality cases sit on the boundary at tolerance 0, which only the
        # suite's tol sets: the verdict is exactly margin >= 0, so roundoff may
        # flip it either way. A public checker judges at its default.
        rep = check_theorem1(diagonal([1.0, 3.0]), 0.5)
        assert rep.tolerance == 1e-9 and rep.holds == (rep.margin >= -1e-9)
        for rep in run_suite(SuiteConfig(trials=10, theorems=("1",), tol=0.0)):
            assert rep.tolerance == 0.0 and rep.holds == (rep.margin >= 0.0)


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
            ("tol", math.nan),
            ("tol", math.inf),
            ("tol", -1e-9),
            ("condition_spread", "a"),
            ("tol", "x"),
        ],
    )
    def test_bad_spread_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be finite and >= 0"):
            SuiteConfig(**{field: value})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"theorems": "11", "trials": 2}, "theorems must be a sequence of theorem ids, got the string '11'"),
            ({"theorems": ("1", "7", "1")}, "duplicate theorem ids: ['1', '7', '1']"),
            ({"theorems": ("zz",)}, "unknown theorem ids: ['zz']; known: " + str(list(THEOREM_IDS))),
            ({"trials": 1.5}, "trials must be an integer, got 1.5"),
            ({"seed": 0.5}, "seed must be an integer, got 0.5"),
            ({"nmax": 2.0}, "nmax must be an integer, got 2.0"),
            ({"tol": [1e-9]}, "tol must be finite and >= 0, got [1e-09]"),
            ({"trials": True}, "trials must be an integer, got True"),
        ],
    )
    def test_malformed_config_rejected(self, kwargs, message):
        with pytest.raises(InputError) as info:
            SuiteConfig(**kwargs)
        assert str(info.value) == message

    def test_tolerance_override(self):
        cfg = SuiteConfig(seed=3, trials=1, theorems=("7",), tol=0.123)
        (rep,) = run_suite(cfg)
        assert rep.tolerance == 0.123

    def test_unexpected_exception_propagates(self, monkeypatch):
        tol, draw, _ = sympeig.theorems.THEOREMS["7"]

        def checker(*args, **kwargs):
            raise RuntimeError("checker broke")

        monkeypatch.setitem(sympeig.theorems.THEOREMS, "7", (tol, draw, checker))
        with pytest.raises(RuntimeError, match="checker broke"):
            run_suite(SuiteConfig(trials=2, theorems=("1", "7")))
