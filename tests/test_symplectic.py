"""Tests for the symplectic-group utilities."""

import itertools
import math

import numpy as np
import pytest

from sympeig import (
    InputError,
    associated_matrix,
    convention_permutation,
    euler_decompose,
    is_doubly_superstochastic,
    is_symplectic,
    random_posdef,
    random_symplectic,
    standard_J,
)
from sympeig.symplectic import (
    SYMPLECTIC_TOL,
    _doubly_stochastic,
    _orthosymplectic,
    _superstochastic,
    _symplectic,
    random_orthosymplectic_rng,
    random_posdef_rng,
    validate_symplectic,
)
from sympeig.theorems import SuiteConfig, _draw_task, _theorem6

from oracles import mtilde_deviation


class TestStandardJ:
    def test_n1(self):
        assert np.array_equal(standard_J(1), [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_square_is_minus_identity(self, n):
        J = standard_J(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        assert np.array_equal(J.T @ J, np.eye(2 * n))

    @pytest.mark.parametrize("n", [1, 3])
    def test_is_symplectic(self, n):
        assert is_symplectic(standard_J(n)).ok

    def test_rejects_bad_order(self):
        # Every function of a half-order n shares one check: an integer >= 1.
        rng = np.random.default_rng(0)
        calls = [
            standard_J,
            convention_permutation,
            lambda n: random_posdef(0, n),
            lambda n: random_symplectic(0, n),
            lambda n: random_posdef_rng(rng, n),
            lambda n: random_orthosymplectic_rng(rng, n),
        ]
        cases = [(0, ">= 1, got 0"), (-1, ">= 1, got -1"), (2.5, "an integer, got 2.5"), (True, "an integer, got True")]
        for call in calls:
            for n, message in cases:
                with pytest.raises(InputError) as info:
                    call(n)
                assert str(info.value) == f"half-order must be {message}"


class TestConventionPermutation:
    def test_n1_identity(self):
        assert np.array_equal(convention_permutation(1), np.eye(2))

    def test_n2_maps_interleaved_to_block(self):
        J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        interleaved = np.kron(np.eye(2), J2)
        P = convention_permutation(2)
        assert np.array_equal(P.T @ interleaved @ P, standard_J(2))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_is_permutation(self, n):
        P = convention_permutation(n)
        assert np.all((P == 0) | (P == 1))
        assert np.array_equal(P.sum(axis=0), np.ones(2 * n))
        assert np.array_equal(P.sum(axis=1), np.ones(2 * n))


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4)).ok

    def test_n1_squeeze(self):
        assert is_symplectic(np.diag([2.0, 0.5])).ok

    def test_uniform_scaling_fails(self):
        check = is_symplectic(np.diag([2.0, 2.0]))
        assert not check.ok
        assert check.residual > 1.0

    def test_rejects_odd_order(self):
        with pytest.raises(InputError, match="even order"):
            is_symplectic(np.eye(3))

    def test_overflowing_residual_fails_closed(self):
        # M^T J M overflows: an infinite residual is refused, not accepted.
        M = 1e160 * random_symplectic(0, 2, 1.0)
        with np.errstate(over="ignore"):
            check = is_symplectic(M)
            assert (check.ok, check.residual) == (False, math.inf)
            with pytest.raises(InputError, match="not symplectic"):
                validate_symplectic(M)


class TestAssociatedMatrix:
    def test_identity(self):
        assert np.allclose(associated_matrix(np.eye(4)), np.eye(2))

    def test_n1_squeeze(self):
        got = associated_matrix(np.diag([2.0, 0.5]))
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(2.125)

    def test_n1_rotation(self):
        c, s = np.cos(0.7), np.sin(0.7)
        got = associated_matrix(np.array([[c, -s], [s, c]]))
        assert got[0, 0] == pytest.approx(1.0)

    def test_row_column_sums_at_least_one(self):
        for seed in range(5):
            M = random_symplectic(seed=40 + seed, n=3, spread=1.2)
            mt = associated_matrix(M)
            assert np.min(mt) >= 0.0
            assert np.min(mt.sum(axis=0)) >= 1.0 - 1e-9
            assert np.min(mt.sum(axis=1)) >= 1.0 - 1e-9


class TestDoublyStochastic:
    def test_identity(self):
        assert _doubly_stochastic(np.eye(3), 1e-8)

    def test_uniform(self):
        assert _doubly_stochastic(np.full((2, 2), 0.5), 1e-8)

    def test_scalar_two(self):
        assert not _doubly_stochastic(np.array([[2.0]]), 1e-8)

    def test_negative_entry(self):
        assert not _doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]), 1e-8)

    def test_stack_matches_one_matrix_at_a_time(self):
        # Entries and sums on both sides of the tolerance 0.25, every one exact
        # in binary: a negative entry at -tol passes and one below it fails, a
        # row or column sum off by exactly tol passes and one off by more fails.
        tol = 0.25
        B = np.array(
            [
                [[0.5, 0.5], [0.5, 0.5]],
                [[1.25, -0.25], [-0.25, 1.25]],
                [[1.5, -0.5], [-0.5, 1.5]],
                [[1.0, 0.25], [0.0, 0.75]],
                [[0.75, 0.0], [0.25, 0.75]],
                [[1.0, 0.5], [0.0, 0.5]],
                [[0.5, 0.0], [0.5, 1.25]],
            ]
        )
        expected = [bool(_doubly_stochastic(Bi, tol)) for Bi in B]
        assert expected == [True, True, False, True, True, False, False]
        assert _doubly_stochastic(B, tol).tolist() == expected


class TestDoublySuperstochastic:
    def test_scalar_two(self):
        check = is_doubly_superstochastic(np.array([[2.0]]))
        assert check.ok
        assert np.allclose(check.witness, [[1.0]], atol=1e-9)

    def test_scalar_half(self):
        assert not is_doubly_superstochastic(np.array([[0.5]]))

    def test_infeasible_2x2(self):
        # The only doubly stochastic matrix dominated in the first row is the
        # identity, whose (2, 2) entry exceeds 0.7: max flow is 1.7 < 2.
        check = is_doubly_superstochastic(np.array([[1.0, 0.0], [0.4, 0.7]]))
        assert not check.ok
        assert check.flow_value == pytest.approx(1.7, abs=1e-8)

    def test_feasible_2x2_with_witness(self):
        B = np.array([[1.0, 0.0], [0.4, 1.0]])
        check = is_doubly_superstochastic(B)
        assert check.ok
        assert _doubly_stochastic(check.witness, 1e-7)
        assert np.all(check.witness <= B + 1e-8)

    def test_random_symplectic_associated(self):
        for seed in range(5):
            M = random_symplectic(seed=50 + seed, n=4, spread=1.0)
            check = is_doubly_superstochastic(associated_matrix(M))
            assert check.ok
            assert _doubly_stochastic(check.witness, 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            is_doubly_superstochastic(np.zeros((0, 0)))


@pytest.mark.parametrize("test", [is_doubly_superstochastic])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_stochastic_tests_need_a_finite_nonnegative_tol(test, tol):
    with pytest.raises(InputError) as info:
        test(0.1 * np.ones((2, 2)), tol=tol)
    assert str(info.value) == f"tol must be finite and >= 0, got {tol}"


def _brute_force_min_cut(B, tol):
    """Least capacity over every source side {source} + rows X + columns Y."""
    n = B.shape[0]
    best = np.inf
    for mask in range(1 << (2 * n)):
        bits = np.array([(mask >> k) & 1 for k in range(2 * n)], dtype=bool)
        rows, cols = bits[:n], bits[n:]
        cut = np.sum(~rows) + np.sum(cols) + np.sum((B + tol)[np.ix_(rows, ~cols)])
        best = min(best, cut)
    return best


def _oracle_instances():
    """Seeded nonnegative B at n <= 4 with zero entries, zero rows, and both
    feasible and infeasible cases."""
    rng = np.random.default_rng(70)
    cases = []
    for k in range(60):
        n = 1 + k % 4
        B = rng.uniform(0.0, 4.0 / n, size=(n, n)) * (rng.random((n, n)) > 0.3)
        if k % 10 == 9:
            B[rng.integers(n)] = 0.0
        cases.append(B)
    return cases


class TestMaxFlowOracle:
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_flow_value_is_min_cut(self, tol):
        outcomes = set()
        for B in _oracle_instances():
            check = is_doubly_superstochastic(B, tol=tol)
            assert abs(check.flow_value - _brute_force_min_cut(B, tol)) <= 1e-12
            assert (check.witness is None) == (not check.ok)
            outcomes.add(check.ok)
        assert outcomes == {True, False}

    def test_witness_when_feasible(self):
        tol = 1e-9
        feasible = 0
        for B in _oracle_instances():
            check = is_doubly_superstochastic(B, tol=tol)
            if not check.ok:
                continue
            feasible += 1
            P = check.witness
            assert np.all(P >= 0.0)
            assert np.all(P <= B + tol)
            assert np.max(np.abs(P.sum(axis=0) - 1.0)) <= 1e-9
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9
        assert feasible >= 10

    @pytest.mark.parametrize("seed,n", [(71, 1), (72, 3), (73, 6)])
    def test_permutation_witness(self, seed, n):
        P = np.eye(n)[np.random.default_rng(seed).permutation(n)]
        exact = is_doubly_superstochastic(P, tol=0.0)
        assert exact.ok
        assert exact.flow_value == n
        assert np.array_equal(exact.witness, P)
        padded = is_doubly_superstochastic(P)
        assert padded.ok
        assert np.allclose(padded.witness, P, rtol=0.0, atol=n * 1e-9)


class TestEulerDecompose:
    def test_orthosymplectic_input(self):
        M = random_symplectic(seed=60, n=3, spread=0.0)
        form = euler_decompose(M)
        assert np.allclose(form.gamma, np.ones(3))
        assert np.linalg.norm(form.reconstruct() - M) <= 1e-8

    def test_n1_squeeze(self):
        form = euler_decompose(np.diag([2.0, 0.5]))
        assert form.gamma[0] == pytest.approx(2.0)
        prod = form.o1 @ form.o2.T
        assert np.allclose(prod, np.eye(2), atol=1e-10) or np.allclose(prod, -np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("seed,n", [(61, 1), (62, 2), (63, 3), (64, 4), (65, 5)])
    def test_random_invariants(self, seed, n):
        M = random_symplectic(seed=seed, n=n, spread=1.3)
        form = euler_decompose(M)
        J = standard_J(n)
        assert np.linalg.norm(form.reconstruct() - M) <= 1e-8 * np.linalg.norm(M)
        assert np.all(np.diff(form.gamma) <= 1e-12)
        assert form.gamma[-1] >= 1.0 - 1e-12
        for O in (form.o1, form.o2):
            assert np.linalg.norm(O.T @ O - np.eye(2 * n)) <= 1e-8
            assert np.linalg.norm(O.T @ J @ O - J) <= 1e-8

    def test_mixed_unit_and_squeezed(self):
        # Planted gamma with an exact unit block alongside squeezed pairs.
        gamma = np.array([3.0, 1.0, 1.0])
        rng = np.random.default_rng(66)
        o1 = random_orthosymplectic_rng(rng, 3)
        o2 = random_orthosymplectic_rng(rng, 3)
        M = (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T
        form = euler_decompose(M)
        assert np.allclose(form.gamma, gamma, atol=1e-9)
        assert np.linalg.norm(form.reconstruct() - M) <= 1e-8 * np.linalg.norm(M)

    @pytest.mark.parametrize("gamma", [(3.0, 3.0, 1.5), (4.0, 4.0, 1.0, 1.0), (2.0, 2.0, 2.0)])
    def test_repeated_squeezing(self, gamma):
        # A repeated gamma leaves its singular vectors free within the
        # eigenspace; any orthonormal basis of it is isotropic.
        gamma = np.array(gamma)
        n = gamma.size
        rng = np.random.default_rng(67)
        o1, o2 = random_orthosymplectic_rng(rng, n), random_orthosymplectic_rng(rng, n)
        M = (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T
        form = euler_decompose(M)
        J = standard_J(n)
        assert np.allclose(form.gamma, gamma, rtol=1e-13, atol=0.0)
        assert np.linalg.norm(form.reconstruct() - M) <= 1e-13 * np.linalg.norm(M)
        for O in (form.o1, form.o2):
            assert np.linalg.norm(O.T @ O - np.eye(2 * n)) <= 1e-13
            assert np.linalg.norm(O.T @ J @ O - J) <= 1e-13

    def test_rejects_non_symplectic(self):
        with pytest.raises(InputError, match="not symplectic"):
            euler_decompose(np.diag([2.0, 2.0]))


class TestUnitaryCorrespondence:
    def test_identity(self):
        assert np.array_equal(_orthosymplectic(np.eye(2), np.zeros((2, 2))), np.eye(4))

    def test_standard_form_sign_convention(self):
        # With the block form [[X, -Y], [Y, X]], J is the real form of U = -iI.
        assert np.array_equal(_orthosymplectic(np.zeros((2, 2)), -np.eye(2)), standard_J(2))

    def test_random_unitarity_and_round_trip(self):
        # A Haar draw is the real form of the unitary read from its left blocks.
        rng = np.random.default_rng(67)
        O = random_orthosymplectic_rng(rng, 4)
        X, Y = O[:4, :4], O[4:, :4]
        U = X + 1j * Y
        assert np.linalg.norm(U @ U.conj().T - np.eye(4)) <= 1e-9
        assert np.allclose(_orthosymplectic(X, Y), O)


class TestMtildeIdentity:
    def test_identity(self):
        assert mtilde_deviation(np.eye(4)) <= 1e-14

    def test_n1_squeeze(self):
        # Hand expansion: o1 = o2 = I, so the right-hand side is
        # ((g - 1/g)/2)^2 + ((g + 1/g)/2)^2 = 2.125 for g = 2.
        assert mtilde_deviation(np.diag([2.0, 0.5])) <= 1e-10

    @pytest.mark.parametrize("seed,n", [(70, 1), (71, 2), (72, 3), (73, 4)])
    def test_random(self, seed, n):
        M = random_symplectic(seed=seed, n=n, spread=1.2)
        assert mtilde_deviation(M) <= 1e-8

    def test_wide_spread_trusts_euler_factors(self):
        # gamma up to e^spread. The factors are singular vectors of M, whose
        # isotropy is lost as about eps * gamma_1 / (gamma - 1/gamma) for the
        # smallest squeezed gamma; measured worst 3.9e-13, 1.3e-11 and 8.5e-10
        # at spreads 8, 12 and 16, each bound about ten times that. No valid
        # input is refused, and the identity check trusts the factors.
        for spread, bound in ((8.0, 4e-12), (12.0, 1.3e-10), (16.0, 9e-9)):
            worst = 0.0
            for seed in range(40):
                for n in (1, 2, 3, 5):
                    M = random_symplectic(seed=seed, n=n, spread=spread)
                    assert mtilde_deviation(M) <= 1e-12 * np.max(np.abs(associated_matrix(M)))
                    form = euler_decompose(M)
                    assert np.linalg.norm(form.reconstruct() - M) <= 1e-13 * np.linalg.norm(M)
                    J = standard_J(n)
                    for O in (form.o1, form.o2):
                        worst = max(worst, np.linalg.norm(O.T @ O - np.eye(2 * n)), np.linalg.norm(O.T @ J @ O - J))
            assert worst <= bound, spread


class TestRandomGenerators:
    def test_zero_spread_is_orthogonal(self):
        M = random_symplectic(seed=80, n=3, spread=0.0)
        assert np.linalg.norm(M.T @ M - np.eye(6)) <= 1e-9

    def test_always_symplectic(self):
        for seed in range(5):
            M = random_symplectic(seed=seed, n=4, spread=1.5)
            assert is_symplectic(M).ok

    def test_deterministic(self):
        assert np.array_equal(random_symplectic(81, 3, 1.0), random_symplectic(81, 3, 1.0))
        A1, d1 = random_posdef(82, 3, 1.0)
        A2, d2 = random_posdef(82, 3, 1.0)
        assert np.array_equal(A1, A2)
        assert np.array_equal(d1, d2)

    def test_posdef_zero_spreads_give_unit_spectrum(self):
        from sympeig import symplectic_spectrum

        A, d = random_posdef(83, 3, condition_spread=0.0, spread=0.0)
        assert np.allclose(d, np.ones(3))
        assert np.allclose(symplectic_spectrum(A).d, np.ones(3), atol=1e-12)

    def test_posdef_planted_recovery(self):
        from sympeig import symplectic_spectrum

        A, d = random_posdef(84, 5, condition_spread=2.0)
        got = symplectic_spectrum(A).d
        assert np.max(np.abs(got - d) / d) <= 1e-7

    def test_orthosymplectic_structure(self):
        rng = np.random.default_rng(85)
        O = random_orthosymplectic_rng(rng, 3)
        assert np.linalg.norm(O.T @ O - np.eye(6)) <= 1e-12
        assert is_symplectic(O).residual <= 1e-12 * (1 + np.sum(O * O))


def _reference_orthosymplectic(rng, n):
    """One Haar unitary's real form, drawn matrix by matrix and assembled with
    np.block: the reference the stacked draw must reproduce bit for bit."""
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    phases = np.diagonal(R).copy()
    phases /= np.abs(phases)
    U = Q * phases
    return np.block([[U.real, -U.imag], [U.imag, U.real]])


def _reference_symplectic(rng, n, spread):
    o1 = _reference_orthosymplectic(rng, n)
    o2 = _reference_orthosymplectic(rng, n)
    gamma = np.sort(np.exp(rng.uniform(0.0, spread, size=n)))[::-1]
    return (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T


@pytest.mark.parametrize("n", range(1, 7))
def test_generators_match_the_matrix_by_matrix_reference(n):
    # The stacked draw keeps both the rng stream and every bit of the output.
    for seed in range(50):
        for spread in (0.0, 1.0, 8.0):
            reference = _reference_symplectic(np.random.default_rng(seed), n, spread)
            assert np.array_equal(random_symplectic(seed, n, spread), reference)
            rng = np.random.default_rng(seed)
            S = _reference_symplectic(rng, n, spread)
            d = np.sort(np.exp(rng.uniform(-1.0, 1.0, size=n)))
            B = S.T @ np.diag(np.concatenate([d, d])) @ S
            A, got_d = random_posdef(seed, n, 1.0, spread)
            assert np.array_equal(got_d, d)
            assert np.array_equal(A, (B + B.T) / 2.0)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_orthosymplectic_rng(ours, n), _reference_orthosymplectic(reference, n))
        assert ours.random() == reference.random()


def test_planted_spectrum_must_hold_n_finite_positive_entries():
    for d in ([-1.0, 2.0], [0.0, 2.0], [1.0, np.inf], [1.0], [[1.0, 2.0]], [1.0, 2.0, 3.0]):
        with pytest.raises(InputError) as info:
            random_posdef_rng(np.random.default_rng(0), 2, d=d)
        assert str(info.value) == f"d must hold 2 finite positive entries, got {np.asarray(d, dtype=float).tolist()}"
    A, d = random_posdef_rng(np.random.default_rng(0), 2, d=[3.0, 0.5])
    assert d.tolist() == [0.5, 3.0]
    assert A.shape == (4, 4)


class TestTheoremSixCharacterization:
    """Doubly stochastic iff orthogonal, on generated matrices clear of the
    tolerance band."""

    def test_orthogonal_gives_doubly_stochastic(self):
        for seed in range(5):
            M = random_symplectic(seed=90 + seed, n=3, spread=0.0)
            assert _doubly_stochastic(associated_matrix(M), 1e-8)

    def test_squeezed_is_not_doubly_stochastic(self):
        rng = np.random.default_rng(95)
        for _ in range(5):
            gamma = np.sort(np.exp(rng.uniform(0.2, 1.2, size=3)))[::-1]
            o1 = random_orthosymplectic_rng(rng, 3)
            o2 = random_orthosymplectic_rng(rng, 3)
            M = (o1 * np.concatenate([gamma, 1.0 / gamma])) @ o2.T
            assert not _doubly_stochastic(associated_matrix(M), 1e-8)
            assert is_doubly_superstochastic(associated_matrix(M), tol=1e-9).ok


class TestStackedSymplecticGate:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bits_of_the_single_matrix_formula(self, n):
        # The 2-d formula the gate replaced: one np.linalg.norm and one np.sum per matrix.
        J = standard_J(n)
        for seed in range(40):
            M = random_symplectic(seed, n, 1.5)
            residual = float(np.linalg.norm(M.T @ J @ M - J))
            check = is_symplectic(M)
            assert check.residual == residual
            assert check.ok == (residual <= SYMPLECTIC_TOL * (1.0 + float(np.sum(M * M))))

    def test_stack_raises_the_message_of_its_first_bad_matrix(self):
        good = [random_symplectic(seed, 3, 1.0) for seed in range(4)]
        bad = good[1] + 1e-3
        with pytest.raises(InputError) as alone:
            validate_symplectic(bad)
        assert str(alone.value).startswith("matrix is not symplectic: residual")
        stack = np.array([good[0], bad, good[2], 2.0 * good[3]])
        for call in (_symplectic, lambda M: _theorem6(M, tol=1e-8)):
            with pytest.raises(InputError) as stacked:
                call(stack)
            assert str(stacked.value) == str(alone.value)
        assert np.array_equal(_symplectic(np.array(good)), good)


def _theorem6_associated():
    """The associated matrices of the seed-0 suite's theorem-6 draws."""
    return [associated_matrix(_draw_task(SuiteConfig(), "6", trial)[1][0]) for trial in range(100)]


HALL_VIOLATING = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def _min_cut(B, tol):
    """The minimum cut of the max-flow network, by enumeration: a cut keeps the
    rows S on the source side, and pays 1 per other row plus, per column j,
    the smaller of its sink edge (1) and the capacities b_ij + tol from S."""
    n = B.shape[0]
    return min(
        (n - len(S)) + sum(min(1.0, sum(B[i, j] + tol for i in S)) for j in range(n))
        for size in range(n + 1)
        for S in itertools.combinations(range(n), size)
    )


@pytest.mark.parametrize("B", [*_theorem6_associated(), HALL_VIOLATING])
def test_max_flow_kernel_equals_the_public_test(B):
    # The kernel behind the public test against an independent oracle: max-flow
    # equals min-cut, and a witness is a doubly stochastic matrix under B + tol.
    tol, n = 1e-9, B.shape[0]
    [kernel], public = _superstochastic(B[None], tol), is_doubly_superstochastic(B, tol)
    assert (kernel.ok, kernel.flow_value) == (public.ok, public.flow_value)
    cut = _min_cut(B, tol)
    assert abs(public.flow_value - cut) <= 1e-9
    assert public.ok == (cut >= n - 1e-9 * max(1, n))
    assert (public.witness is None) == (not public.ok)
    if public.witness is not None:
        P = public.witness
        assert np.all(np.abs(P.sum(axis=0) - 1.0) <= 1e-9) and np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(P >= 0.0) and np.all(P <= B + tol)
    if B is HALL_VIOLATING:
        assert cut == pytest.approx(2.0, abs=1e-8) and not public.ok


@pytest.mark.parametrize("seed", range(12))
def test_stacked_max_flow_rows_equal_single_calls(seed):
    # Each half-order's theorem-6 draws as one stack, the Hall-violating matrix
    # (no perfect matching) inside the half-order-3 one.
    groups: dict = {3: [HALL_VIOLATING]}
    for trial in range(100):
        (n,), (M,) = _draw_task(SuiteConfig(seed=seed), "6", trial)
        groups.setdefault(n, []).insert(0, associated_matrix(M))
    for Bs in groups.values():
        for row, B in zip(_superstochastic(np.array(Bs), 1e-9), Bs):
            single = is_doubly_superstochastic(B)
            assert (row.ok, row.flow_value) == (single.ok, single.flow_value)
            assert (row.witness is None) == (single.witness is None)
            assert single.witness is None or np.array_equal(row.witness, single.witness)
    assert not is_doubly_superstochastic(HALL_VIOLATING)
