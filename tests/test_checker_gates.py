"""The theorem checkers' input contract: which error, with which message, each
checker raises for a faulty positive definite input in each position, and that
it gates each input once and none of the matrices it derives from them."""

import math

import numpy as np
import pytest

import sympeig
from sympeig import (
    DEFAULT_TOLERANCES,
    DomainError,
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
    geodesic,
    karcher_mean,
    random_posdef,
    random_symplectic,
    run_suite,
    s_pinching,
    s_principal_submatrix,
)
from sympeig.sops import validate_partition

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


def mismatch_message(orders) -> str:
    """Every checker names the first matrix's order, then the first order that
    differs from it."""
    offending = next(o for o in orders if o != orders[0])
    return f"order mismatch: {orders[0]} vs {offending}"


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
    if fault == "order_mismatch":
        message = mismatch_message([len(A) for A in args])
    # Each input, even order included, is checked before orders are compared,
    # so an odd order beside even ones is reported as odd.
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_theorem4_needs_two_matrices():
    with pytest.raises(InputError) as info:
        check_theorem4([VALID[0]])
    assert str(info.value) == "need at least two matrices"


def test_corollary8_rejects_a_non_gaussian_second_input():
    with pytest.raises(InputError) as info:
        check_corollary8(VALID[0], 0.1 * np.eye(4), 0.5)
    assert str(info.value) == "second input is not Gaussian (d_1 < 1/2)"


# Calls of each checker and the gate calls they make: one symmetrize per
# distinct positive definite input, one symplecticity test per symplectic input.
# The matrices a checker derives (A^t, A #_t B, the mean, A + B, a pinching, a
# submatrix) pass no gate: their spectra are read from a factor. Each call
# passes its keywords (a tolerance) on to the checker. A stacked gate call
# certifies every matrix of its stack, so it counts as its batch size; the
# symplecticity test behind the symplectic gate always takes a stack.
GATE_CALLS = {
    "1": (lambda **kw: check_theorem1(VALID[0], 0.5, **kw), 1, 0),
    "3": (lambda **kw: check_theorem3(VALID[0], VALID[1], 0.5, **kw), 2, 0),
    "4": (lambda **kw: check_theorem4(VALID, **kw), 3, 0),
    "5": (lambda **kw: check_theorem5(VALID[0], 1, **kw), 1, 0),
    "superadditivity": (lambda **kw: check_superadditivity(VALID[0], VALID[1], **kw), 2, 0),
    "6": (lambda **kw: check_theorem6(random_symplectic(81, 2, spread=1.0), **kw), 0, 1),
    "7": (lambda **kw: check_theorem7(VALID[0], VALID[1], **kw), 2, 0),
    "interlacing": (lambda **kw: check_interlacing(VALID[0], 0, **kw), 1, 0),
    "pinching": (lambda **kw: check_pinching(VALID[0], (1, 1), **kw), 1, 0),
    "11": (lambda **kw: check_theorem11(VALID[0], **kw), 1, 0),
    "corollary8": (lambda **kw: check_corollary8(VALID[0], VALID[1], 0.5, **kw), 2, 0),
    "minmax": (lambda **kw: check_minmax(VALID[0], **kw), 1, 0),
}


def spy_on_gates(monkeypatch) -> dict:
    """Count the matrices that pass symmetrize and the stacked symplecticity
    test (a stack counts its batch size)."""
    calls = {"symmetrize": 0, "_symplecticity": 0}
    for module, name in ((sympeig.matfun, "symmetrize"), (sympeig.symplectic, "_symplecticity")):

        def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
            stacked = kwargs.get("stacked") or _name == "_symplecticity"
            calls[_name] += len(args[0]) if stacked else 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("checker", sorted(GATE_CALLS))
def test_one_gate_per_matrix(monkeypatch, checker):
    call, symmetrize, symplectic = GATE_CALLS[checker]
    calls = spy_on_gates(monkeypatch)
    assert call().holds
    assert calls == {"symmetrize": symmetrize, "_symplecticity": symplectic}


@pytest.mark.parametrize("checker", sorted(GATE_CALLS))
def test_suite_gates_each_input_of_each_instance_once(monkeypatch, checker):
    # 7 trials over half-orders 2 and 3 give stacked groups.
    _, symmetrize, symplectic = GATE_CALLS[checker]
    calls = spy_on_gates(monkeypatch)
    reports = run_suite(SuiteConfig(seed=4, trials=7, nmin=2, nmax=3, theorems=(checker,)))
    assert all(r.holds for r in reports)
    assert calls == {"symmetrize": 7 * symmetrize, "_symplecticity": 7 * symplectic}


@pytest.mark.parametrize("checker", sorted(GATE_CALLS))
def test_tolerance_is_the_default_or_finite_and_nonnegative(checker):
    call = GATE_CALLS[checker][0]
    assert call().tolerance == DEFAULT_TOLERANCES[checker]
    assert call(tol=0.5).tolerance == 0.5
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError) as info:
            call(tol=tol)
        assert str(info.value) == f"tol must be finite and >= 0, got {tol}"


# A bad parameter beside a matrix that is not positive definite: each public
# function checks its parameters before its matrices.
PARAMETER_FIRST = {
    "theorem 4 weights": (lambda A: check_theorem4([A, A], [0.5, 0.6]), "weights must sum to 1"),
    "theorem 5 k": (lambda A: check_theorem5(A, 3), "k must lie in [1, 2], got 3"),
    "superadditivity k": (lambda A: check_superadditivity(A, A, 3), "k must lie in [1, 2], got 3"),
    "interlacing drop index": (lambda A: check_interlacing(A, 2), "drop index must lie in [0, 1], got 2"),
    "pinching partition": (lambda A: check_pinching(A, (1, 2)), "partition (1, 2) does not sum to the half-order 2"),
    "s-pinching partition": (lambda A: s_pinching(A, (3,)), "partition (3,) does not sum to the half-order 2"),
    "s-principal keep": (lambda A: s_principal_submatrix(A, [2]), "keep indices must lie in [0, 1], got [2]"),
}


@pytest.mark.parametrize("parameter", sorted(PARAMETER_FIRST))
def test_parameter_is_checked_before_the_matrix(parameter):
    call, message = PARAMETER_FIRST[parameter]
    with pytest.raises(InputError) as info:
        call(FAULTS["not_posdef"][0])
    assert str(info.value).startswith(message)


INTEGER_PARAMETERS = {
    "interlacing drop index": (lambda x: check_interlacing(VALID[0], x), 0.5, "drop index"),
    "superadditivity k": (lambda x: check_superadditivity(VALID[0], VALID[1], x), 1.9, "k"),
    "theorem 5 k": (lambda x: check_theorem5(VALID[0], x), 1.5, "k"),
    "theorem 5 k as a bool": (lambda x: check_theorem5(VALID[0], x), True, "k"),
    "s-principal keep": (lambda x: s_principal_submatrix(VALID[0], [x]), 0.7, "keep index"),
    "partition size": (lambda x: validate_partition((x, 2 - x), 2), 1.7, "partition size"),
    "Karcher budget": (lambda x: karcher_mean(VALID[:2], max_iter=x), 1.5, "max_iter"),
}


@pytest.mark.parametrize("parameter", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_must_be_integers(parameter):
    call, bad, name = INTEGER_PARAMETERS[parameter]
    with pytest.raises(InputError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be an integer, got {bad}"
    with pytest.raises(InputError, match="must be an integer"):
        call(1.0)
    call(np.int64(1))


# The parameter t in [0, 1] of geodesics and of theorem 3 and corollary 8: out
# of range or not a number, it is an InputError with the entry point's name.
UNIT_PARAMETERS = {
    "theorem 3": (lambda t: check_theorem3(VALID[0], VALID[1], t), "geodesic parameter"),
    "corollary 8": (lambda t: check_corollary8(VALID[0], VALID[1], t), "power/geodesic parameter"),
    "geodesic": (lambda t: geodesic(VALID[0], VALID[1], t), "geodesic parameter"),
}


@pytest.mark.parametrize("t", ["0.5", None, 1.5])
@pytest.mark.parametrize("entry", sorted(UNIT_PARAMETERS))
def test_unit_parameter_must_be_a_number_in_the_unit_interval(entry, t):
    call, name = UNIT_PARAMETERS[entry]
    with pytest.raises(InputError) as info:
        call(t)
    assert str(info.value) == f"{name} must lie in [0, 1], got {t}"
