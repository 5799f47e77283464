"""Unit tests for the symmetric functional calculus."""

import numpy as np
import pytest

from sympeig import matfun
from sympeig.errors import DomainError


def random_spd(rng, m, shift=0.5):
    X = rng.standard_normal((m, m))
    return X @ X.T + shift * np.eye(m)


class TestSymPow:
    def test_identity_half(self):
        assert np.allclose(matfun.sym_pow(np.eye(4), 0.5), np.eye(4))

    def test_diagonal_square_root(self):
        assert np.allclose(matfun.sym_pow(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_square_matches_multiplication(self):
        rng = np.random.default_rng(1)
        S = random_spd(rng, 4)
        assert np.allclose(matfun.sym_pow(S, 2.0), S @ S, rtol=1e-10, atol=1e-10 * np.linalg.norm(S @ S))

    def test_power_one_and_zero(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 3)
        assert np.allclose(matfun.sym_pow(S, 1.0), S)
        assert np.allclose(matfun.sym_pow(S, 0.0), np.eye(3))

    @pytest.mark.parametrize("s,t", [(0.5, 0.5), (2.0, -1.0), (1.5, 2.0), (-0.5, -0.5)])
    def test_power_composition(self, s, t):
        rng = np.random.default_rng(3)
        S = random_spd(rng, 4)
        left = matfun.sym_pow(matfun.sym_pow(S, s), t)
        right = matfun.sym_pow(S, s * t)
        assert np.linalg.norm(left - right) <= 1e-8 * np.linalg.norm(right)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError, match="lambda_min"):
            matfun.sym_pow(np.diag([1.0, -1.0]), 0.5)

    def test_refuses_near_singular(self):
        with pytest.raises(DomainError, match="near-singular"):
            matfun.sym_pow(np.diag([1.0, 1e-14]), 0.5)


class TestSymLogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(matfun.sym_log(np.eye(3)), np.zeros((3, 3)))

    def test_log_diagonal(self):
        S = np.diag([np.e, np.e**2])
        assert np.allclose(matfun.sym_log(S), np.diag([1.0, 2.0]))

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(4)
        S = random_spd(rng, 5)
        back = matfun._sym_exp(matfun.sym_log(S))
        assert np.linalg.norm(back - S) <= 1e-9 * np.linalg.norm(S)

