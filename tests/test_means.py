"""Tests for the Riemannian distance, geodesics, and Karcher means."""

import warnings

import numpy as np
import pytest

from sympeig import (
    InputError,
    NumericalError,
    geodesic,
    karcher_mean,
    karcher_residual,
    random_posdef,
    riemannian_distance,
)
from sympeig.cli import main
from sympeig.matfun import sym_log, sym_pow
from sympeig.matio import save_matrix
from sympeig.means import _karcher
from sympeig.theorems import SuiteConfig, _assemble, _draw_task, run_suite


def spd(seed, n=2, cs=1.0):
    return random_posdef(seed, n, condition_spread=cs)[0]


BREAKDOWNS = {
    "riemannian_distance": riemannian_distance,
    "geodesic": lambda A, B: geodesic(A, B, 0.5),
    "karcher_mean": lambda A, B: karcher_mean([A, B]),
    "karcher_residual": lambda A, B: karcher_residual(A, [B]),
}
CLI_BREAKDOWNS = {"cli_distance": ["distance"], "cli_geodesic": ["geodesic", "--t", "0.5"], "cli_mean": ["mean"]}


class TestRiemannianDistance:
    def test_zero_on_equal(self):
        A = spd(0)
        assert riemannian_distance(A, A) <= 1e-9

    def test_exponential_diagonal(self):
        B = np.diag([np.e, 1.0 / np.e])
        assert riemannian_distance(np.eye(2), B) == pytest.approx(np.sqrt(2.0))

    def test_matches_log_norm_oracle(self):
        A, B = spd(1), spd(2)
        direct = riemannian_distance(A, B)
        Aih = sym_pow(A, -0.5)
        oracle = np.linalg.norm(sym_log(Aih @ B @ Aih))
        assert abs(direct - oracle) <= 1e-9 * max(1.0, oracle)

    def test_symmetry(self):
        A, B = spd(3), spd(4)
        assert riemannian_distance(A, B) == pytest.approx(riemannian_distance(B, A), abs=1e-10)

    def test_order_mismatch(self):
        with pytest.raises(InputError, match="order mismatch"):
            riemannian_distance(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("name", sorted(BREAKDOWNS) + sorted(CLI_BREAKDOWNS))
    def test_numerically_singular_pair_is_a_breakdown(self, name, tmp_path, capsys):
        # B passes the gate (lambda_min = 1e-20 > 0), but its small direction is
        # below roundoff relative to A: the whitened D^{-1/2} Q^T B Q D^{-1/2}
        # comes out singular, so no distance (truly 46.76), geodesic point or
        # mean can be resolved.
        c, s = np.cos(1.5), np.sin(1.5)
        R = np.array([[c, -s], [s, c]])
        A = R @ np.diag([2.0, 3.0]) @ R.T
        A, B = (A + A.T) / 2.0, np.diag([1.0, 1e-20])
        if name in CLI_BREAKDOWNS:
            paths = [str(tmp_path / f"{label}.json") for label in "ab"]
            for path, X in zip(paths, (A, B)):
                save_matrix(path, X, kind="posdef")
            assert main(CLI_BREAKDOWNS[name] + paths) == 4
            assert "not numerically positive definite" in capsys.readouterr().err
        else:
            with pytest.raises(NumericalError, match="not numerically positive definite"):
                BREAKDOWNS[name](A, B)

    def test_scales_beyond_the_float_range(self):
        # Whitening 1e150 B by 1e-170 A would overflow: mu_j reads 1e320 mu_j(A, B).
        A, B = spd(0, 2, 1.5), spd(1, 2, 1.5)
        log_mu = np.log(np.linalg.eigvals(np.linalg.solve(A, B)).real) + 320.0 * np.log(10.0)
        expected = float(np.sqrt(np.sum(log_mu**2)))
        assert riemannian_distance(1e-170 * A, 1e150 * B) == pytest.approx(expected, rel=1e-12)
        assert riemannian_distance(1e150 * B, 1e-170 * A) == pytest.approx(expected, rel=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        A, B = spd(6, 3), spd(7, 3)
        T = rng.standard_normal((6, 6)) + 2 * np.eye(6)
        d1 = riemannian_distance(A, B)
        d2 = riemannian_distance(T.T @ A @ T, T.T @ B @ T)
        assert abs(d1 - d2) <= 1e-8 * max(1.0, d1)


class TestGeodesic:
    def test_endpoints_exact(self):
        A, B = spd(8), spd(9)
        assert np.array_equal(geodesic(A, B, 0.0), A)
        assert np.array_equal(geodesic(A, B, 1.0), B)

    def test_commuting_midpoint(self):
        A = np.diag([1.0, 9.0])
        B = np.diag([9.0, 1.0])
        assert np.allclose(geodesic(A, B, 0.5), np.diag([3.0, 3.0]))

    def test_constant_speed(self):
        A, B = spd(10), spd(11)
        total = riemannian_distance(A, B)
        for t in (0.25, 0.5, 0.7):
            travelled = riemannian_distance(A, geodesic(A, B, t))
            assert abs(travelled - t * total) <= 1e-8 * max(1.0, total)

    def test_rejects_out_of_range(self):
        A, B = spd(12), spd(13)
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            geodesic(A, B, 1.5)
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            geodesic(A, B, -0.1)

    def test_congruence_equivariance(self):
        rng = np.random.default_rng(14)
        A, B = spd(15, 3), spd(16, 3)
        T = rng.standard_normal((6, 6)) + 2 * np.eye(6)
        t = 0.3
        left = T.T @ geodesic(A, B, t) @ T
        right = geodesic(T.T @ A @ T, T.T @ B @ T, t)
        assert np.linalg.norm(left - right) <= 1e-8 * np.linalg.norm(right)

    @pytest.mark.parametrize("t", [0.3, 0.5])
    def test_scales_beyond_the_float_range(self, t):
        # (1e-170 A) #_t (1e150 B) = 10^(320 t - 170) (A #_t B), representable.
        A, B = spd(0, 2, 1.5), spd(1, 2, 1.5)
        expected = 10.0 ** (320.0 * t - 170.0) * geodesic(A, B, t)
        point = geodesic(1e-170 * A, 1e150 * B, t)
        assert np.linalg.norm(point - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("seed", [47, 48])
    def test_accurate_at_kappa_1e8(self, seed):
        # A and B share the eigenvectors T, so A #_t B = T diag(a^{1-t} b^t) T^T
        # exactly; a and b are log-uniform on [1, 1e8], where an explicit
        # A^{-1/2} loses up to ~1e-5 relative accuracy.
        rng = np.random.default_rng(seed)
        for _ in range(20):
            T = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            a, b = 10.0 ** rng.uniform(0.0, 8.0, (2, 6))
            t = rng.uniform(0.1, 0.9)
            A, B = (T * a) @ T.T, (T * b) @ T.T
            exact = (T * (a ** (1.0 - t) * b**t)) @ T.T
            points = [geodesic(A, B, t)]
            res = karcher_mean([A, B], [1.0 - t, t])
            if res.converged:
                points.append(res.mean)
            for point in points:
                assert np.linalg.norm(point - exact) <= 1e-10 * np.linalg.norm(exact)


class TestGeometricMean:
    def test_idempotent(self):
        A = spd(17)
        assert np.allclose(geodesic(A, A, 0.5), A, atol=1e-12)

    def test_diagonal(self):
        D = np.diag([2.0, 3.0])
        assert np.allclose(geodesic(np.eye(2), D @ D, 0.5), D)

    def test_symmetric_in_arguments(self):
        A, B = spd(18), spd(19)
        G1 = geodesic(A, B, 0.5)
        G2 = geodesic(B, A, 0.5)
        assert np.linalg.norm(G1 - G2) <= 1e-9 * np.linalg.norm(G1)


class TestKarcherResidual:
    def test_zero_at_single_input(self):
        A = spd(20)
        assert karcher_residual(A, [A], [1.0]) <= 1e-12

    def test_zero_at_commuting_geometric_mean(self):
        A = np.diag([1.0, 4.0])
        B = np.diag([4.0, 16.0])
        C = np.diag([16.0, 1.0])
        X = np.diag([(1 * 4 * 16) ** (1 / 3), (4 * 16 * 1) ** (1 / 3)])
        assert karcher_residual(X, [A, B, C]) <= 1e-12

    def test_positive_away_from_mean(self):
        mats = [spd(21), spd(22), spd(23)]
        assert karcher_residual(2.0 * np.eye(4), mats) > 1e-3

    def test_empty_list_rejected(self):
        with pytest.raises(InputError, match="at least one matrix"):
            karcher_residual(np.eye(2), [])


class TestKarcherMean:
    def test_equal_inputs(self):
        A = spd(24)
        res = karcher_mean([A, A, A])
        assert res.converged
        assert np.linalg.norm(res.mean - A) <= 1e-8 * np.linalg.norm(A)

    def test_single_input(self):
        A = spd(25)
        res = karcher_mean([A])
        assert res.converged and res.residual == 0.0
        assert np.array_equal(res.mean, A)

    def test_commuting_diagonals(self):
        mats = [np.diag([1.0, 8.0]), np.diag([2.0, 1.0]), np.diag([4.0, 1.0])]
        expected = np.diag([2.0, 2.0])
        res = karcher_mean(mats)
        assert res.converged
        assert np.linalg.norm(res.mean - expected) <= 1e-8

    def test_pair_matches_geometric_mean(self):
        A, B = spd(26, 3), spd(27, 3)
        res = karcher_mean([A, B])
        G = geodesic(A, B, 0.5)
        assert res.converged
        assert np.linalg.norm(res.mean - G) <= 1e-7 * np.linalg.norm(G)

    def test_weighted_pair_matches_geodesic(self):
        A, B = spd(28), spd(29)
        t = 0.3
        res = karcher_mean([A, B], [1.0 - t, t])
        assert res.converged
        point = geodesic(A, B, t)
        assert np.linalg.norm(res.mean - point) <= 1e-7 * np.linalg.norm(point)

    def test_random_triple_residual(self):
        mats = [spd(seed, 3, 1.5) for seed in (30, 31, 32)]
        res = karcher_mean(mats)
        assert res.converged
        opnorm = float(np.linalg.eigvalsh(res.mean)[-1])
        assert karcher_residual(res.mean, mats) <= 1e-9 * opnorm
        assert karcher_residual(res.mean, mats) <= 1e-9

    @pytest.mark.parametrize("j", [-200, -20, 20, 200])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seeds", [(50, 51, 52), (60, 61, 62)])
    def test_scaled_inputs_walk_as_the_unscaled(self, seeds, m, j):
        # The residual is dimensionless: the mean of 4^j A_k is 4^j times
        # their mean, reached in as many Newton iterations.
        mats = [spd(seed, 3, 1.5) for seed in seeds[:m]]
        base = karcher_mean(mats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = karcher_mean([4.0**j * A for A in mats])
        assert res.converged and res.iterations == base.iterations
        expected = 4.0**j * base.mean
        assert np.linalg.norm(res.mean - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_exhausted_budget_returns_the_best_iterate(self):
        # A step is taken only when it lowers the residual, also once theta is tiny.
        worse = []
        for seed in range(40):
            rng = np.random.default_rng([7000, seed])
            mats = [random_posdef(rng, 3, condition_spread=1.5)[0] for _ in range(3)]
            res = karcher_mean(mats, tol=0.0, max_iter=60)
            assert not res.converged and res.iterations == 60
            if res.residual != min(res.residual_history):
                worse.append((seed, res.residual, min(res.residual_history)))
        assert not worse

    def test_budget_exhaustion_returns_best(self):
        mats = [spd(33), spd(34), spd(35)]
        res = karcher_mean(mats, max_iter=1)
        assert not res.converged and res.iterations == 1
        assert len(res.residual_history) == 2
        assert res.residual == min(res.residual_history)
        assert karcher_residual(res.mean, mats) == pytest.approx(res.residual, rel=1e-6)
        assert np.min(np.linalg.eigvalsh(res.mean)) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_newton_solves_suite_triples_in_few_iterations(self, seed):
        reports = run_suite(SuiteConfig(seed=seed, theorems=("4",)))
        assert not any(rep.inconclusive for rep in reports)
        assert max(rep.quantities["iterations"] for rep in reports) <= 6

    @pytest.mark.parametrize("cs, spread", [(1.5, 1.0), (4.0, 3.0)])
    def test_accepted_residuals_do_not_increase(self, cs, spread):
        rng = np.random.default_rng(49)
        for m in (3, 5):
            mats = [random_posdef(rng, 4, condition_spread=cs, spread=spread)[0] for _ in range(m)]
            res = karcher_mean(mats)
            history = res.residual_history
            assert res.converged and len(history) == res.iterations + 1
            # Replay the step rule: a trial point is kept when it lowers the residual.
            accepted = [history[0]]
            for value in history[1:]:
                if value < accepted[-1]:
                    accepted.append(value)
            assert res.residual == accepted[-1] == min(history)
            assert karcher_residual(res.mean, mats) == pytest.approx(res.residual, rel=1e-3, abs=1e-12)

    @pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
    def test_pair_is_closed_form(self, weights):
        A, B = spd(44, 3, 1.5), spd(45, 3, 1.5)
        res = karcher_mean([A, B], weights)
        assert res.converged and res.iterations == 0
        point = geodesic(A, B, 0.5 if weights is None else weights[1])
        assert np.linalg.norm(res.mean - point) <= 1e-12 * np.linalg.norm(point)

    def test_commuting_triple_needs_no_polish(self):
        mats = [np.diag([1.0, 8.0, 3.0]), np.diag([2.0, 1.0, 5.0]), np.diag([4.0, 1.0, 0.5])]
        res = karcher_mean(mats, [0.2, 0.3, 0.5])
        assert res.converged and res.iterations == 0

    def test_spread_out_inputs_converge(self):
        rng = np.random.default_rng(46)
        mats = [random_posdef(rng, 16, condition_spread=4.0, spread=3.0)[0] for _ in range(10)]
        res = karcher_mean(mats)
        assert res.converged
        opnorm = float(np.linalg.eigvalsh(res.mean)[-1])
        assert karcher_residual(res.mean, mats) <= 1e-9 * opnorm
        assert karcher_residual(res.mean, mats) <= 1e-9

    def test_weight_degeneration(self):
        mats = [spd(36), spd(37), spd(38)]
        eps = 1e-6
        w = np.array([1.0 - 2 * eps, eps, eps])
        res = karcher_mean(mats, w)
        assert res.converged
        assert riemannian_distance(res.mean, mats[0]) <= 1e-4

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gate_eigendecompositions_are_reused(self, m, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):

            def spy(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        karcher_mean([spd(40 + j) for j in range(m)], max_iter=0)
        # The gate certifies by Cholesky, with no eigensolve. The start takes
        # A_0's and one whitening (m = 2) or one stacked call for the inputs and
        # one for the exponential (m >= 3); then one for the iterate and one
        # stacked whitening of the m inputs.
        assert len(calls) == 2 + 2

    def test_weight_validation(self):
        A, B = spd(42), spd(43)
        with pytest.raises(InputError, match="sum to 1"):
            karcher_mean([A, B], [0.5, 0.6])
        with pytest.raises(InputError, match="positive"):
            karcher_mean([A, B], [1.5, -0.5])
        with pytest.raises(InputError, match="finite"):
            karcher_mean([A, B], [np.nan, np.nan])

    def test_order_mismatch(self):
        with pytest.raises(InputError, match="order mismatch"):
            karcher_mean([np.eye(2), np.eye(4)])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": np.inf}, "tol must be finite"),
            ({"tol": np.nan}, "tol must be finite"),
            ({"tol": -1e-9}, "tol must be finite and >= 0"),
            ({"max_iter": -3}, "max_iter must be finite and >= 0"),
            ({"tol": None}, "tol must be finite and >= 0"),
        ],
    )
    def test_bad_tol_or_budget_rejected(self, kwargs, message):
        mats = [spd(33), spd(34), spd(35)]
        with pytest.raises(InputError, match=message):
            karcher_mean(mats, **kwargs)
        res = karcher_mean(mats, tol=0.0, max_iter=0)
        assert not res.converged and res.iterations == 0


def _theorem4_groups(seed):
    """The stacks (batch, 3, N, N) and weight rows of a suite seed's theorem-4 groups."""
    groups: dict = {}
    for trial in range(100):
        (n,), (mats, w) = _draw_task(SuiteConfig(seed=seed), "4", trial)
        groups.setdefault(n, []).append((mats, w))
    for members in groups.values():
        yield np.stack(_assemble([m for m, _ in members]), axis=1), np.array([w for _, w in members])


def _solve(result):
    return result.iterations, result.converged, result.residual, result.residual_history, result.mean.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_stacked_karcher_rows_equal_solves_alone(seed):
    for stack, w in _theorem4_groups(seed):
        for row, S, wi in zip(_karcher(stack, w), stack, w):
            assert _solve(row) == _solve(karcher_mean(list(S), wi))


def test_stacked_karcher_rows_stop_on_their_own():
    # Rows of one group that converge after different numbers of Newton steps,
    # and a budget of one step, which some rows exhaust and some do not.
    spread = [{r.iterations for r in _karcher(stack, w)} for stack, w in _theorem4_groups(0)]
    assert any(len(its) > 1 for its in spread)
    for stack, w in _theorem4_groups(0):
        rows = _karcher(stack, w, max_iter=1)
        assert {r.iterations for r in rows} == {1}
        for row, S, wi in zip(rows, stack, w):
            assert _solve(row) == _solve(karcher_mean(list(S), wi, max_iter=1))
    assert not all(r.converged for stack, w in _theorem4_groups(0) for r in _karcher(stack, w, max_iter=1))
