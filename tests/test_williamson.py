"""Tests for symplectic spectra, Williamson normal forms and eigenbases."""

import numpy as np
import pytest

from sympeig import (
    DomainError,
    InputError,
    is_gaussian,
    random_posdef,
    random_symplectic,
    sharp_spectrum,
    standard_J,
    symplectic_eigenbasis,
    symplectic_spectrum,
    validate_posdef,
    williamson_form,
)
from sympeig.symplectic import random_posdef_rng


def spectrum_by_ja_oracle(A):
    """Independent oracle: J A is similar to A^{1/2} J A^{1/2}, so its
    eigenvalues are +-i d_j; read the d_j off the positive imaginary parts."""
    n = A.shape[0] // 2
    ev = np.linalg.eigvals(standard_J(n) @ A)
    pos = np.sort(ev.imag[ev.imag > 0])
    assert pos.size == n
    return pos


class TestSymplecticSpectrum:
    def test_identity(self):
        spec = symplectic_spectrum(np.eye(6))
        assert np.allclose(spec.d, np.ones(3))
        assert np.allclose(spec.d_hat, np.ones(6))

    def test_scaled_identity_block(self):
        # A = diag(gamma I, I) with gamma = 4 has all symplectic eigenvalues 2.
        A = np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0])
        assert np.allclose(symplectic_spectrum(A).d, [2.0, 2.0, 2.0])

    def test_n1_is_sqrt_det(self):
        assert symplectic_spectrum(np.diag([4.0, 9.0])).d[0] == pytest.approx(6.0)

    def test_dhat_shape_and_order(self):
        A, d = random_posdef(seed=10, n=3, condition_spread=1.0)
        spec = symplectic_spectrum(A)
        assert np.all(np.diff(spec.d) >= 0)
        assert np.all(np.diff(spec.d_hat) <= 0)
        assert spec.d_hat[0] == spec.d_hat[1] == spec.d[-1]
        assert np.allclose(np.sort(spec.d_hat), np.sort(np.repeat(spec.d, 2)))

    def test_matches_ja_oracle(self):
        for seed in range(5):
            A, _ = random_posdef(seed=seed, n=4, condition_spread=1.5)
            d = symplectic_spectrum(A).d
            oracle = spectrum_by_ja_oracle(A)
            assert np.max(np.abs(d - oracle) / oracle) <= 1e-8

    def test_det_consistency(self):
        A, _ = random_posdef(seed=11, n=4, condition_spread=1.5)
        d = symplectic_spectrum(A).d
        sign, logdet = np.linalg.slogdet(A)
        assert sign > 0
        assert 2.0 * np.sum(np.log(d)) == pytest.approx(logdet, abs=1e-8)

    def test_congruence_invariance(self):
        A, _ = random_posdef(seed=12, n=3, condition_spread=1.0)
        S = random_symplectic(seed=13, n=3, spread=0.8)
        d1 = symplectic_spectrum(A).d
        d2 = symplectic_spectrum(S.T @ A @ S).d
        assert np.max(np.abs(d1 - d2) / d1) <= 1e-7

    def test_inverse_relation(self):
        A, _ = random_posdef(seed=14, n=4, condition_spread=1.5)
        d = symplectic_spectrum(A).d
        dinv = symplectic_spectrum(np.linalg.inv(A)).d
        assert np.max(np.abs(dinv * d[::-1] - 1.0)) <= 1e-8

    def test_scaling(self):
        A, _ = random_posdef(seed=15, n=3, condition_spread=1.0)
        c = 3.7
        d = symplectic_spectrum(A).d
        dc = symplectic_spectrum(c * A).d
        assert np.max(np.abs(dc - c * d) / (c * d)) <= 1e-10

    def test_planted_spectrum_recovered(self):
        A, d = random_posdef(seed=16, n=5, condition_spread=2.0)
        got = symplectic_spectrum(A).d
        assert np.max(np.abs(got - d) / d) <= 1e-7


class TestWilliamsonForm:
    def test_diagonal_input_invariants(self):
        d = np.array([1.0, 2.0, 5.0])
        A = np.diag(np.concatenate([d, d]))
        form = williamson_form(A)
        J = standard_J(3)
        dd = np.diag(np.concatenate([form.d, form.d]))
        assert np.allclose(form.d, d)
        assert np.linalg.norm(form.M.T @ J @ form.M - J) <= 1e-10
        assert np.linalg.norm(form.M.T @ A @ form.M - dd) <= 1e-10

    def test_scaled_identity_congruence(self):
        A = np.diag([4.0, 4.0, 1.0, 1.0])
        form = williamson_form(A)
        assert np.allclose(form.M.T @ A @ form.M, 2.0 * np.eye(4), atol=1e-12)

    def test_random_residuals(self):
        for seed in range(8):
            n = 1 + seed % 6
            A, d = random_posdef(seed=100 + seed, n=n, condition_spread=1.5)
            form = williamson_form(A)
            J = standard_J(n)
            dd = np.diag(np.concatenate([form.d, form.d]))
            assert np.linalg.norm(form.M.T @ J @ form.M - J) <= 1e-8
            assert np.linalg.norm(form.M.T @ A @ form.M - dd) <= 1e-8 * np.linalg.norm(A)
            assert np.max(np.abs(form.d - d) / d) <= 1e-7

    def test_degenerate_spectrum_warns_but_succeeds(self):
        rng = np.random.default_rng(17)
        d = np.array([0.7, 0.7, 1.3])
        A, _ = random_posdef_rng(rng, 3, d=d)
        form = williamson_form(A)
        assert form.warnings
        J = standard_J(3)
        assert np.linalg.norm(form.M.T @ J @ form.M - J) <= 1e-8
        dd = np.diag(np.concatenate([form.d, form.d]))
        assert np.linalg.norm(form.M.T @ A @ form.M - dd) <= 1e-8 * np.linalg.norm(A)

    def test_rejects_not_positive_definite(self):
        with pytest.raises(DomainError, match="not positive definite"):
            williamson_form(np.diag([1.0, -1.0]))

    def test_rejects_odd_order(self):
        with pytest.raises(InputError, match="even order"):
            validate_posdef(np.eye(3))


class TestSymplecticEigenbasis:
    def test_identity_n1(self):
        basis = symplectic_eigenbasis(np.eye(2))
        u, v = basis.pairs[0]
        J = standard_J(1)
        assert basis.d[0] == pytest.approx(1.0)
        assert np.allclose(np.eye(2) @ u, basis.d[0] * J @ v)
        assert u @ (J @ v) == pytest.approx(1.0)

    def test_hand_checked_2x2(self):
        A = np.diag([4.0, 9.0])
        basis = symplectic_eigenbasis(A)
        u, v = basis.pairs[0]
        J = standard_J(1)
        assert basis.d[0] == pytest.approx(6.0)
        assert np.allclose(A @ u, 6.0 * J @ v, atol=1e-12)
        assert np.allclose(A @ v, -6.0 * J @ u, atol=1e-12)

    def test_defining_relations_random(self):
        A, _ = random_posdef(seed=18, n=4, condition_spread=1.0)
        basis = symplectic_eigenbasis(A)
        n = basis.d.shape[0]
        J = standard_J(n)
        for j, (u, v) in enumerate(basis.pairs):
            dj = basis.d[j]
            assert np.linalg.norm(A @ u - dj * J @ v) <= 1e-8 * dj
            assert np.linalg.norm(A @ v + dj * J @ u) <= 1e-8 * dj
        M = np.hstack([basis.u, basis.v])
        gram = M.T @ J @ M
        assert np.linalg.norm(gram - J) <= 1e-8

    def test_consistent_with_williamson(self):
        A, _ = random_posdef(seed=19, n=3, condition_spread=1.0)
        form = williamson_form(A)
        basis = symplectic_eigenbasis(A)
        assert np.allclose(np.hstack([basis.u, basis.v]), form.M)


class TestSharpSpectrum:
    def test_identity(self):
        s = sharp_spectrum(np.eye(6))
        assert np.allclose(s, [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])

    def test_scaled_identity_reciprocals(self):
        A = np.diag([4.0, 4.0, 1.0, 1.0])
        assert np.allclose(sharp_spectrum(A), [0.5, 0.5, -0.5, -0.5])

    def test_matches_symplectic_spectrum(self):
        A, _ = random_posdef(seed=20, n=4, condition_spread=1.5)
        d = symplectic_spectrum(A).d
        expected = np.concatenate([1.0 / d, -1.0 / d[::-1]])
        got = sharp_spectrum(A)
        assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


class TestIsGaussian:
    def test_identity(self):
        assert is_gaussian(np.eye(4))

    def test_small_matrix_not_gaussian(self):
        assert not is_gaussian(np.diag([1 / 16, 1 / 16]))

    def test_boundary(self):
        assert is_gaussian(0.5 * np.eye(4), tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(InputError, match="tol must be finite and >= 0"):
            is_gaussian(np.eye(4), tol=tol)


EPS = np.finfo(float).eps


def _normalized_residuals(A, form):
    """Symplecticity and congruence residuals of a Williamson form, normalized
    by 1 + ||M||_F^2 and by ||A||_2 ||M||_2^2."""
    M = form.M
    J = standard_J(form.d.size)
    sympl = np.linalg.norm(M.T @ J @ M - J) / (1.0 + np.sum(M * M))
    dd = np.diag(np.concatenate([form.d, form.d]))
    congr = np.linalg.norm(M.T @ A @ M - dd) / (np.linalg.norm(A, 2) * np.linalg.norm(M, 2) ** 2)
    return sympl, congr


class TestAccuracy:
    """Planted A = S^T diag(d, d) S with kappa(A) up to 1e10 and n up to 64.
    The spectrum is held to 1024 eps kappa(A) d_n everywhere. Residuals are
    pinned for d_n / d_1 up to 2e6 only: the symplecticity residual grows
    with d_n / d_1 and exceeds 1e-10 from about 1e8 (at 7.7e7 it read
    1.5e-10), where only the spectrum is checked."""

    # (n, condition_spread, spread): kappa(A) from ~10 to ~5e9.
    CASES = [(1, 0.5, 5.5), (2, 1.0, 5.5), (8, 1.0, 5.5), (16, 3.0, 4.5), (64, 1.0, 5.5), (64, 5.0, 3.5), (16, 9.0, 1.0)]

    @pytest.mark.parametrize("n, condition_spread, spread", CASES)
    def test_planted_spectrum_and_residuals(self, n, condition_spread, spread):
        for seed in range(2):
            A, d = random_posdef(seed=seed, n=n, condition_spread=condition_spread, spread=spread)
            kappa = np.linalg.cond(A)
            assert kappa <= 1e10
            assert np.max(np.abs(symplectic_spectrum(A).d - d)) <= 1024 * EPS * kappa * d[-1]
            form = williamson_form(A)
            assert np.max(np.abs(form.d - d)) <= 1024 * EPS * kappa * d[-1]
            assert max(_normalized_residuals(A, form)) <= 1e-10

    def test_cases_reach_kappa_1e9(self):
        kappas = [np.linalg.cond(random_posdef(seed=0, n=n, condition_spread=c, spread=s)[0]) for n, c, s in self.CASES]
        assert max(kappas) >= 1e9

    def test_spectrum_wide_symplectic_spread(self):
        # d_n / d_1 up to e^22: the spectrum still meets its bound.
        for n in (8, 32):
            A, d = random_posdef(seed=0, n=n, condition_spread=11.0, spread=0.5)
            kappa = np.linalg.cond(A)
            assert np.max(np.abs(symplectic_spectrum(A).d - d)) <= 1024 * EPS * kappa * d[-1]

    def test_residuals_wide_symplectic_spread(self):
        # d_n / d_1 = 2.4e9, kappa(A) = 4.1e9: symplecticity reads 8.6e-8 here
        # (1e-10 is not met); the bound keeps it from growing unnoticed.
        A, _ = random_posdef(seed=0, n=8, condition_spread=11.0, spread=0.5)
        sympl, congr = _normalized_residuals(A, williamson_form(A))
        assert sympl <= 2e-7
        assert congr <= 1e-10

    @pytest.mark.parametrize("d", [[0.5, 0.5, 0.5, 2.0, 2.0, 7.0], [1.3] * 16])
    def test_repeated_values_give_orthonormal_pairs(self, d):
        d = np.array(d)
        A, _ = random_posdef_rng(np.random.default_rng(21), d.size, spread=2.0, d=d)
        form = williamson_form(A)
        assert np.max(np.abs(form.d - d)) <= 1e-10 * d[-1]
        assert max(_normalized_residuals(A, form)) <= 1e-10
        # Columns of M diag(d, d)^{-1/2} are orthonormal in the A inner product.
        W = form.M / np.sqrt(np.concatenate([form.d, form.d]))
        assert np.linalg.norm(W.T @ A @ W - np.eye(2 * d.size)) <= 1e-9
