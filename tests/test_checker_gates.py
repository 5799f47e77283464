"""The theorem checkers' input contract: which error, with which message, each
checker raises for a faulty positive definite input in each position, and that
it gates each input once and none of the matrices it derives from them."""

import numpy as np
import pytest

import sympeig
from sympeig import (
    DomainError,
    InputError,
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
)

# Each checker that takes positive definite matrices: a call on that many of
# them. The valid inputs are Gaussian (A + I has d_1 >= 1), as corollary 8 needs.
CHECKERS = {
    "1": (lambda A: check_theorem1(A, 0.5), 1),
    "3": (lambda A, B: check_theorem3(A, B, 0.5), 2),
    "4": (lambda A, B, C: check_theorem4([A, B, C]), 3),
    "5": (lambda A: check_theorem5(A, 1), 1),
    "superadditivity": (check_superadditivity, 2),
    "7": (check_theorem7, 2),
    "interlacing": (lambda A: check_interlacing(A, 0), 1),
    "pinching": (lambda A: check_pinching(A, (1, 1)), 1),
    "11": (check_theorem11, 1),
    "corollary8": (lambda A, B: check_corollary8(A, B, 0.5), 2),
    "minmax": (check_minmax, 1),
}
VALID = [random_posdef(70 + i, 2, 1.0)[0] + np.eye(4) for i in range(3)]
EVEN_ORDER = "positive definite input must have even order >= 2, got 3"
# Faulty inputs beside valid order-4 ones, with the error class and message.
FAULTS = {
    "asymmetric": (
        np.eye(4) + np.triu(np.ones((4, 4)), 1),
        InputError,
        "positive definite matrix is not symmetric: max asymmetry 1.000e+00 exceeds 1.0e-08 * max|entry| = 1.000e-08",
    ),
    "not_posdef": (
        np.diag([1.0, -1.0, 1.0, 1.0]),
        DomainError,
        "matrix is not positive definite: lambda_min = -1.000000e+00",
    ),
    "near_singular": (
        np.diag([1.0, 1.0, 1.0, 1e-14]),
        DomainError,
        "near-singular input refused: lambda_min = 1.000000e-14 <= 1e-12 * lambda_max = 1.000000e-12",
    ),
    "odd_order": (np.eye(3), InputError, EVEN_ORDER),
    "order_mismatch": (random_posdef(80, 3, 1.0)[0] + np.eye(6), InputError, None),
}


def mismatch_message(checker, orders) -> str:
    """The pair checkers name A's order, then B's; theorem 4 names the first
    order that differs from the first matrix's, then that one (as karcher_mean)."""
    if checker != "4":
        return f"order mismatch: {orders[0]} vs {orders[1]}"
    offending = next(o for o in orders if o != orders[0])
    return f"order mismatch: {offending} vs {orders[0]}"


CASES = [
    (checker, fault, position)
    for checker, (_, count) in CHECKERS.items()
    for fault in FAULTS
    for position in range(count)
    if fault != "order_mismatch" or count > 1
]


@pytest.mark.parametrize("checker, fault, position", CASES)
def test_faulty_input_raises_the_gate_error(checker, fault, position):
    call, count = CHECKERS[checker]
    bad, error, message = FAULTS[fault]
    args = VALID[:count]
    args[position] = bad
    expected = {message}
    orders = [len(A) for A in args]
    if fault == "order_mismatch":
        expected = {mismatch_message(checker, orders)}
    elif fault == "odd_order" and count > 1:
        # Odd beside even is two faults; either may be reported first.
        expected = {EVEN_ORDER, mismatch_message(checker, orders)}
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) in expected


def test_theorem4_needs_two_matrices():
    with pytest.raises(InputError) as info:
        check_theorem4([VALID[0]])
    assert str(info.value) == "need at least two matrices"


def test_corollary8_rejects_a_non_gaussian_second_input():
    with pytest.raises(InputError) as info:
        check_corollary8(VALID[0], 0.1 * np.eye(4), 0.5)
    assert str(info.value) == "second input is not Gaussian (d_1 < 1/2)"


# Calls of each checker and the gate calls they make: one symmetrize per
# distinct positive definite input, one is_symplectic per symplectic input.
# The matrices a checker derives (A^t, A #_t B, the mean, A + B, a pinching, a
# submatrix) pass no gate: their spectra are read from a factor.
GATE_CALLS = {
    "1": (lambda: check_theorem1(VALID[0], 0.5), 1, 0),
    "3": (lambda: check_theorem3(VALID[0], VALID[1], 0.5), 2, 0),
    "4": (lambda: check_theorem4(VALID), 3, 0),
    "5": (lambda: check_theorem5(VALID[0], 1), 1, 0),
    "superadditivity": (lambda: check_superadditivity(VALID[0], VALID[1]), 2, 0),
    "6": (lambda: check_theorem6(random_symplectic(81, 2, spread=1.0)), 0, 1),
    "7": (lambda: check_theorem7(VALID[0], VALID[1]), 2, 0),
    "interlacing": (lambda: check_interlacing(VALID[0], 0), 1, 0),
    "pinching": (lambda: check_pinching(VALID[0], (1, 1)), 1, 0),
    "11": (lambda: check_theorem11(VALID[0]), 1, 0),
    "corollary8": (lambda: check_corollary8(VALID[0], VALID[1], 0.5), 2, 0),
    "minmax": (lambda: check_minmax(VALID[0]), 1, 0),
}


@pytest.mark.parametrize("checker", sorted(GATE_CALLS))
def test_one_gate_per_matrix(monkeypatch, checker):
    call, symmetrize, is_symplectic = GATE_CALLS[checker]
    calls = {"symmetrize": 0, "is_symplectic": 0}
    for module, name in ((sympeig.matfun, "symmetrize"), (sympeig.symplectic, "is_symplectic")):

        def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert call().holds
    assert calls == {"symmetrize": symmetrize, "is_symplectic": is_symplectic}
