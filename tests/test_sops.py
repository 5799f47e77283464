"""Tests for s-pinchings and s-principal submatrices, against the s-direct sum oracle."""

import numpy as np
import pytest

from sympeig import (
    InputError,
    is_symplectic,
    random_posdef,
    random_symplectic,
    s_pinching,
    s_principal_submatrix,
    standard_J,
    symplectic_spectrum,
)
from sympeig.sops import _s_pinching, _s_principal
from sympeig.symplectic import random_posdef_rng

from oracles import s_direct_sum


class TestSDirectSum:
    """The s-direct sum oracle's block layout, and the spectrum of its result."""

    def test_standard_forms_combine(self):
        assert np.array_equal(s_direct_sum([standard_J(1), standard_J(1)]), standard_J(2))

    def test_single_input_identity_operation(self):
        A, _ = random_posdef(0, 2, 1.0)
        assert np.array_equal(s_direct_sum([A]), A)

    def test_planted_spectrum_union(self):
        # union oracle: spectra (2,) and (3, 5) combine to (2, 3, 5)
        rng = np.random.default_rng(1)
        A, _ = random_posdef_rng(rng, 1, d=np.array([2.0]))
        B, _ = random_posdef_rng(rng, 2, d=np.array([3.0, 5.0]))
        out = s_direct_sum([A, B])
        got = symplectic_spectrum(out).d
        assert np.max(np.abs(got - [2.0, 3.0, 5.0])) <= 1e-8 * 5.0

    def test_symplectic_inputs_give_symplectic(self):
        out = s_direct_sum([random_symplectic(2, 1, 1.0), random_symplectic(3, 2, 1.0)])
        assert is_symplectic(out).ok


class TestSPinching:
    def test_trivial_partition_is_identity(self):
        A, _ = random_posdef(5, 3, 1.0)
        assert np.array_equal(s_pinching(A, (3,)), A)

    def test_idempotent(self):
        A, _ = random_posdef(6, 4, 1.0)
        once = s_pinching(A, (1, 1, 1, 1))
        twice = s_pinching(once, (1, 1, 1, 1))
        assert np.array_equal(once, twice)

    def test_zero_pattern_and_diagonal_preserved(self):
        A, _ = random_posdef(7, 3, 1.0)
        out = s_pinching(A, (1, 2))
        n = 3
        for qi in range(2):
            for qj in range(2):
                quad_in = A[qi * n : (qi + 1) * n, qj * n : (qj + 1) * n]
                quad_out = out[qi * n : (qi + 1) * n, qj * n : (qj + 1) * n]
                assert np.array_equal(np.diag(quad_out), np.diag(quad_in))
                assert np.all(quad_out[0, 1:] == 0.0)
                assert np.all(quad_out[1:, 0] == 0.0)
                assert np.array_equal(quad_out[1:, 1:], quad_in[1:, 1:])

    def test_equals_direct_sum_of_principal_blocks(self):
        A, _ = random_posdef(8, 4, 1.0)
        pinched = s_pinching(A, (1, 3))
        head = s_principal_submatrix(A, [0])
        tail = s_principal_submatrix(A, [1, 2, 3])
        assert np.allclose(pinched, s_direct_sum([head, tail]), atol=1e-14)

    def test_result_positive_definite(self):
        A, _ = random_posdef(9, 3, 1.5)
        out = s_pinching(A, (2, 1))
        assert np.min(np.linalg.eigvalsh(out)) > 0

    def test_partition_mismatch(self):
        A, _ = random_posdef(10, 3, 1.0)
        with pytest.raises(InputError, match="does not sum"):
            s_pinching(A, (1, 1))

    def test_non_iterable_partition_rejected(self):
        A, _ = random_posdef(10, 2, 1.0)
        with pytest.raises(InputError, match="partition size: expected a sequence of integers, got 2"):
            s_pinching(A, 2)


class TestSPrincipalSubmatrix:
    def test_keep_all(self):
        A, _ = random_posdef(11, 3, 1.0)
        assert np.array_equal(s_principal_submatrix(A, [0, 1, 2]), A)

    def test_diagonal_case(self):
        d = np.array([1.0, 2.0, 3.0])
        A = np.diag(np.concatenate([d, d]))
        out = s_principal_submatrix(A, [0])
        assert np.array_equal(out, np.diag([1.0, 1.0]))

    def test_deletes_index_pairs(self):
        A, _ = random_posdef(12, 3, 1.0)
        out = s_principal_submatrix(A, [0, 2])
        sel = [0, 2, 3, 5]
        assert np.array_equal(out, A[np.ix_(sel, sel)])

    def test_empty_keep_rejected(self):
        A, _ = random_posdef(13, 2, 1.0)
        with pytest.raises(InputError, match="at least one"):
            s_principal_submatrix(A, [])

    def test_out_of_range_rejected(self):
        A, _ = random_posdef(14, 2, 1.0)
        with pytest.raises(InputError, match="indices must lie"):
            s_principal_submatrix(A, [5])

    def test_non_iterable_keep_rejected(self):
        A, _ = random_posdef(14, 2, 1.0)
        with pytest.raises(InputError, match="keep index: expected a sequence of integers, got 1"):
            s_principal_submatrix(A, 1)


class TestStackedKernels:
    """The batch kernels behind the public functions, on a stack of matrices
    that each carry their own partition or kept indices."""

    STACK = np.array([random_posdef(40 + i, 4, 1.5)[0] for i in range(4)])

    def test_s_pinching_matches_each_matrix(self):
        sizes = [(4,), (1, 3), (2, 1, 1), (1, 1, 1, 1)]
        stacked = _s_pinching(self.STACK, sizes)
        for A, s, out in zip(self.STACK, sizes, stacked):
            assert np.array_equal(out, s_pinching(A, s))

    def test_s_principal_matches_each_matrix(self):
        keep = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        stacked = _s_principal(self.STACK, keep)
        for A, k, out in zip(self.STACK, keep, stacked):
            assert np.array_equal(out, s_principal_submatrix(A, k.tolist()))

