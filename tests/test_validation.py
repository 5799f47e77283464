"""The validation contract shared by every public entry point that takes a
positive definite matrix: one gate decides symmetry, positive definiteness
and (for the refusing operations) near-singularity, and eigensolver failures
surface as NumericalError."""

import numpy as np
import pytest

from sympeig import (
    DomainError,
    InputError,
    NumericalError,
    SuiteConfig,
    check_minmax,
    check_theorem1,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    euler_decompose,
    geodesic,
    is_gaussian,
    is_symplectic,
    karcher_mean,
    karcher_residual,
    log_majorizes,
    random_posdef,
    random_symplectic,
    riemannian_distance,
    run_suite,
    s_pinching,
    standard_J,
    sym_log,
    supermajorizes,
    sym_pow,
    symplectic_spectrum,
    validate_posdef,
    williamson_form,
)
from sympeig.cli import main
from sympeig.matfun import PD_RELCUT, SYMTOL, _check_posdef, symmetrize
from sympeig.matio import save_matrix
from sympeig.sops import validate_partition
from sympeig.symplectic import random_posdef_rng
from sympeig.williamson import _sharp

I4 = np.eye(4)

ENTRY_POINTS = {
    "validate_posdef": validate_posdef,
    "symplectic_spectrum": symplectic_spectrum,
    "williamson_form": williamson_form,
    "sym_pow": lambda X: sym_pow(X, 0.5),
    "sym_log": sym_log,
    "geodesic": lambda X: geodesic(X, I4, 0.5),
    "riemannian_distance": lambda X: riemannian_distance(X, I4),
    "karcher_mean": lambda X: karcher_mean([X, I4]),
    "karcher_residual": lambda X: karcher_residual(X, [I4]),
    "s_pinching": lambda X: s_pinching(X, [1, 1]),
}
REFUSE_NEAR_SINGULAR = {"symplectic_spectrum", "williamson_form", "sym_pow", "sym_log"}
# Entry points whose well-conditioned input passes the gate's Cholesky
# certificate and then needs no real symmetric eigensolve.
NO_EIGENSOLVE = {"validate_posdef", "s_pinching"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_gate_contract(name):
    call = ENTRY_POINTS[name]
    asymmetric = I4.copy()
    asymmetric[0, 1] = 0.5
    with pytest.raises(InputError, match="not symmetric"):
        call(asymmetric)
    # The symmetry tolerance is SYMTOL * max|entry|, with max|entry| = 2 here.
    nearly_symmetric = 2.0 * I4
    nearly_symmetric[0, 1] = 0.5 * SYMTOL * 2.0
    call(nearly_symmetric)
    nearly_symmetric[0, 1] = 2.0 * SYMTOL * 2.0
    with pytest.raises(InputError, match="not symmetric"):
        call(nearly_symmetric)
    with pytest.raises(InputError):
        call(np.zeros((0, 0)))
    with pytest.raises(InputError, match="non-finite"):
        call(np.diag([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(InputError, match="must be square"):
        call(np.ones((4, 2)))
    with pytest.raises(DomainError, match="lambda_min"):
        call(np.diag([1.0, 1.0, -1.0, 1.0]))
    near_singular = np.diag([1.0, 1.0, 1.0, 1e-14])
    if name in REFUSE_NEAR_SINGULAR:
        with pytest.raises(DomainError, match="near-singular"):
            call(near_singular)
    else:
        call(near_singular)


# Entry points outside the positive definite gate, each with a valid input.
NON_POSDEF = {
    "euler_decompose": (euler_decompose, random_symplectic(np.random.default_rng(3), 2)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS) + sorted(NON_POSDEF))
def test_solver_failure_is_numerical_error(name, monkeypatch):
    call, X = NON_POSDEF[name] if name in NON_POSDEF else (ENTRY_POINTS[name], 2.0 * I4)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    # The symplectic spectrum is read from the singular values of K.
    monkeypatch.setattr(np.linalg, "svd", fail)
    if name in NO_EIGENSOLVE:
        # A failed certificate sends the gate to the spectrum, which fails here.
        monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NumericalError, match="eigensolver failed"):
        call(X)


# Only np.linalg.svd fails: the singular triples of K, the only solve for a
# simple spectrum. Only np.linalg.eigh fails: the repeated spectrum of 2 I sends
# its cluster through the Hermitian block solve.
@pytest.mark.parametrize("solver, X", [("svd", random_posdef(0, 2)[0]), ("eigh", 2.0 * I4)])
def test_williamson_single_solver_failure(solver, X, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalError, match="eigensolver failed"):
        williamson_form(X)


# Only np.linalg.svd fails: the singular triples of M, the only solve for a
# squeezed input. Only np.linalg.eigh fails: spread 0 makes M orthogonal, so all
# of it is the unit block that the Hermitian pairing solves.
@pytest.mark.parametrize("solver, spread", [("svd", 1.0), ("eigh", 0.0)])
def test_euler_single_solver_failure(solver, spread, monkeypatch):
    M = random_symplectic(4, 2, spread)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalError, match="eigensolver failed: did not converge"):
        euler_decompose(M)


def _fail_eigvals(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


# Only np.linalg.eigvals fails: the general eigensolve of i A^{-1} J, which only
# the minmax path runs.
@pytest.mark.parametrize("call", [check_minmax])
def test_eigvals_failure_is_numerical_error(call, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", _fail_eigvals)
    with pytest.raises(NumericalError, match="eigensolver failed: did not converge"):
        call(2.0 * I4)


def test_suite_records_an_eigvals_failure(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", _fail_eigvals)
    reports = run_suite(SuiteConfig(trials=3, theorems=("minmax",)))
    assert [r.to_record()["margin"] for r in reports] == [None] * 3
    assert all(r.quantities == {"error": "eigensolver failed: did not converge"} for r in reports)
    assert main(["verify", "--theorem", "minmax", "--trials", "3"]) == 1
    assert capsys.readouterr().out


def _spd_with_ratio(m, ratio, seed=0):
    """Exactly symmetric S = Q diag(lam) Q^T with lambda_max = 1 and
    lambda_min = ratio, eigenvalues log-spaced (linear when ratio <= 0)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = np.geomspace(ratio, 1.0, m) if ratio > 0 else np.linspace(ratio, 1.0, m)
    S = (Q * lam) @ Q.T
    return (S + S.T) / 2.0


REFUSAL_RATIOS = [f * PD_RELCUT for f in (0.5, 0.9, 1.1, 2.0, 10.0, 1e3)] + [-1e-3, 0.0]
# About the non-refusing cut 0, down to singular at working precision.
ACCEPTANCE_RATIOS = [1e-8, 1e-14, 1e-16, 1e-17, 1e-20, -1e-16, -1e-13]


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e150])
@pytest.mark.parametrize("m", [4, 64, 256])
@pytest.mark.parametrize("ratio", REFUSAL_RATIOS + ACCEPTANCE_RATIOS)
def test_refusal_matches_spectrum_rule(m, ratio, scale):
    # Scales at which ||S||_F, summed unscaled, would underflow or overflow.
    S = scale * _spd_with_ratio(m, ratio)

    def geodesic_to_scaled_identity(X):
        return geodesic(X, scale * np.eye(m), 0.5)

    for refuse, calls in (
        (True, (symplectic_spectrum, williamson_form)),
        (False, (validate_posdef, geodesic_to_scaled_identity)),
    ):
        try:
            _check_posdef(np.linalg.eigvalsh(S), refuse)
            expected = None
        except DomainError as exc:
            expected = str(exc)
        for call in calls:
            if expected is not None:
                with pytest.raises(DomainError) as info:
                    call(S)
                assert str(info.value) == expected
            elif call is geodesic_to_scaled_identity and ratio < PD_RELCUT:
                # An accepted S singular at working precision may break the
                # whitening: that is reported, never returned as non-finite.
                try:
                    assert np.all(np.isfinite(call(S)))
                except NumericalError:
                    pass
            else:
                call(S)


def _identity_shift(S, cut):
    """S - tau I for the symmetrized S as the certificate's definition reads,
    with an explicit identity: tau = (cut + m^2 eps) s ||S / s||_F, s = max|S_ij|."""
    m = S.shape[-1]
    s = np.max(np.abs(S))
    T = S / s
    return S - (cut + m * m * np.finfo(float).eps) * s * np.sqrt(np.vdot(T, T)) * np.eye(m)


def test_gate_keeps_its_decisions_about_the_cut(monkeypatch):
    # A seeded sweep of unsymmetrized S = Q diag(lam) Q^T with lambda_min /
    # lambda_max around PD_RELCUT: the gate returns (S + S^T)/2 bit for bit,
    # hands the certificate Cholesky the bits of S - tau I, and accepts or
    # refuses as that certificate and the spectrum rule decide, message included.
    certified, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: certified.append(a.copy()) or cholesky(a))
    outcomes = set()
    rng = np.random.default_rng(34)
    for ratio in np.geomspace(1e-13, 1e-11, 13):
        for m in (4, 16, 64):
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            S = (Q * rng.permutation(np.geomspace(ratio, 1.0, m))) @ Q.T
            half = (S + S.T) / 2.0
            assert np.array_equal(symmetrize(S), half)
            for refuse, call in ((False, validate_posdef), (True, symplectic_spectrum)):
                shifted = _identity_shift(half, PD_RELCUT if refuse else 0.0)
                try:
                    cholesky(shifted)
                    expected = None
                except np.linalg.LinAlgError:
                    try:
                        _check_posdef(np.linalg.eigvalsh(half), refuse)
                        expected = None
                    except DomainError as exc:
                        expected = str(exc)
                certified.clear()
                try:
                    call(S)
                    got = None
                except DomainError as exc:
                    got = str(exc)
                assert got == expected
                assert np.array_equal(certified[0].reshape(m, m), shifted)
                outcomes.add((refuse, expected is None))
    # Both verdicts of the refusing gate occur; the non-refusing one accepts all.
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_well_conditioned_input_skips_real_eigensolve(monkeypatch):
    real_calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def spy(a, *args, _original=original, _name=name, **kwargs):
            if not np.iscomplexobj(a):
                real_calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    A, _ = random_posdef(5, 6, condition_spread=1.5)
    symplectic_spectrum(A)
    williamson_form(A)
    validate_posdef(A)
    s_pinching(A, [3, 3])
    _sharp(validate_posdef(A))
    assert real_calls == []
    with pytest.raises(DomainError, match="near-singular"):
        symplectic_spectrum(np.diag([1.0, 1.0, 1.0, 1e-14]))
    assert real_calls == ["eigvalsh"]


def test_cholesky_failure_is_numerical_error(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    for call in (symplectic_spectrum, williamson_form):
        with pytest.raises(NumericalError, match="Cholesky factorization failed"):
            call(2.0 * I4)
    path = tmp_path / "a.json"
    save_matrix(str(path), 2.0 * I4, kind="posdef")
    assert main(["williamson", str(path), "--form"]) == 4
    assert "Cholesky factorization failed" in capsys.readouterr().err


# Array arguments that numpy cannot convert to float: each is an InputError
# (exit 3) at its entry point, not numpy's ValueError.
NON_NUMERIC = {
    "spectrum": lambda: symplectic_spectrum([["a", "b"], ["c", "d"]]),
    "theorem 4 weights": lambda: check_theorem4([I4, I4], ["x", "y"]),
    "theorem 5 restriction": lambda: check_theorem5(random_posdef(0, 2)[0], 1, M=[["a", "b"]] * 4),
    "log-majorization": lambda: log_majorizes(["a"], ["b"]),
    "ragged symplectic": lambda: check_theorem6([[1, 2], [3]]),
    "planted spectrum": lambda: random_posdef_rng(np.random.default_rng(0), 2, d=["a", "b"]),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC))
def test_non_numeric_array_is_an_input_error(case):
    with pytest.raises(InputError, match="must be numeric: "):
        NON_NUMERIC[case]()


# A seed is an integer >= 0, the rule SuiteConfig applies; anything else is an
# InputError rather than numpy's ValueError or TypeError, or fresh OS entropy.
BAD_SEEDS = {
    "negative": (-1, "seed must be >= 0, got -1"),
    "negative numpy integer": (np.int64(-3), "seed must be >= 0, got -3"),
    "float": (1.5, "seed must be an integer, got 1.5"),
    "string": ("a", "seed must be an integer, got a"),
    "None": (None, "seed must be an integer, got None"),
    "bool": (True, "seed must be an integer, got True"),
}
SEEDED = {
    "random_posdef": lambda seed: random_posdef(seed, 2)[0],
    "random_symplectic": lambda seed: random_symplectic(seed, 2),
}


@pytest.mark.parametrize("seed", sorted(BAD_SEEDS))
@pytest.mark.parametrize("draw", sorted(SEEDED))
def test_seed_must_be_an_integer_at_least_zero(draw, seed):
    value, message = BAD_SEEDS[seed]
    with pytest.raises(InputError) as info:
        SEEDED[draw](value)
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        SuiteConfig(seed=value)
    assert str(info.value) == message
    assert np.array_equal(SEEDED[draw](np.int64(5)), SEEDED[draw](5))


_A, _B = random_posdef(0, 2)[0], random_posdef(1, 2)[0]
# Scalar parameters are real numbers: no bool, complex value or array; a power is finite.
BAD_SCALARS = {
    "theorem 1 power as a bool": (lambda: check_theorem1(_A, True), "power must be finite and >= 0, got True"),
    "theorem 1 power as an array": (
        lambda: check_theorem1(_A, np.array([0.5])),
        "power must be finite and >= 0, got [0.5]",
    ),
    "geodesic parameter as a bool": (
        lambda: geodesic(_A, _B, True),
        "geodesic parameter must lie in [0, 1], got True",
    ),
    "Gaussian tol as a bool": (lambda: is_gaussian(_A, True), "tol must be finite and >= 0, got True"),
    "theorem 3 parameter as an array": (
        lambda: check_theorem3(_A, _B, np.array([0.5])),
        "geodesic parameter must lie in [0, 1], got [0.5]",
    ),
    "NaN power": (lambda: sym_pow(_A, np.nan), "power must be a finite real number, got nan"),
    "infinite power": (lambda: sym_pow(_A, np.inf), "power must be a finite real number, got inf"),
    "complex power": (lambda: sym_pow(_A, 1j), "power must be a finite real number, got 1j"),
    "array power": (
        lambda: sym_pow(_A, np.array([1.0, 2.0])),
        "power must be a finite real number, got [1. 2.]",
    ),
    "theorem 5 rng": (lambda: check_theorem5(_A, 1, rng=5), "rng must be a numpy Generator, got 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_scalar_parameters_are_real_numbers(case):
    call, message = BAD_SCALARS[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# Each function that takes a sequence of matrices refuses one that is not iterable.
SEQUENCES = {
    "karcher_mean": (lambda mats: karcher_mean(mats), "one matrix"),
    "karcher_residual": (lambda mats: karcher_residual(I4, mats), "one matrix"),
    "check_theorem4": (lambda mats: check_theorem4(mats), "two matrices"),
}


@pytest.mark.parametrize("mats", [5, None])
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_matrix_sequence_must_be_iterable(name, mats):
    call, count = SEQUENCES[name]
    with pytest.raises(InputError) as info:
        call(mats)
    assert str(info.value) == f"need an iterable of at least {count}, got {mats}"


# Refusals of malformed input, each with its error class and message.
REFUSALS = {
    "empty vector": (lambda: log_majorizes([], []), InputError, "y must be nonempty"),
    "non-finite vector": (lambda: supermajorizes([1.0, np.inf], [1.0, 1.0]), DomainError, "y has non-finite entries"),
    "weights of the wrong length": (
        lambda: karcher_mean([_A, _B], [0.5, 0.25, 0.25]),
        InputError,
        "expected 2 weights, got shape (3,)",
    ),
    "no matrix to average": (lambda: karcher_mean([]), InputError, "need at least one matrix"),
    "empty partition": (
        lambda: validate_partition((), 2),
        InputError,
        "partition sizes must be positive integers, got ()",
    ),
    "restriction of the wrong shape": (
        lambda: check_theorem5(_A, 1, M=np.eye(4)),
        InputError,
        "restriction must be 4 x 2, got (4, 4)",
    ),
    "no trials": (lambda: SuiteConfig(trials=0), InputError, "trials must be >= 1, got 0"),
    "no half-order": (lambda: SuiteConfig(nmin=0), InputError, "need 1 <= nmin <= nmax, got [0, 6]"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_input_is_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_truthiness_follows_the_verdict():
    assert bool(log_majorizes([2.0, 1.0], [2.0, 1.0])) is True
    assert bool(log_majorizes([2.0, 1.0], [3.0, 1.0])) is False
    assert bool(is_symplectic(standard_J(2))) is True
    assert bool(is_symplectic(2.0 * I4)) is False
