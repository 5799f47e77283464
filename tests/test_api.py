"""Guards on the public API: the exported names are pinned, and tolerance
knobs exist only where a caller sets them."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sympeig

# Every name sympeig exports besides its submodules. A new export is added
# here on purpose, and a removal is a public-API break.
PUBLIC_NAMES = [
    "DEFAULT_TOLERANCES",
    "DomainError",
    "EulerForm",
    "FormatError",
    "InputError",
    "KarcherResult",
    "MajorizationVerdict",
    "NumericalError",
    "SuiteConfig",
    "SuperstochasticCheck",
    "SympeigError",
    "SymplecticCheck",
    "SymplecticSpectrum",
    "THEOREM_IDS",
    "TheoremReport",
    "WilliamsonForm",
    "associated_matrix",
    "check_corollary8",
    "check_interlacing",
    "check_minmax",
    "check_pinching",
    "check_superadditivity",
    "check_theorem1",
    "check_theorem11",
    "check_theorem3",
    "check_theorem4",
    "check_theorem5",
    "check_theorem6",
    "check_theorem7",
    "convention_permutation",
    "euler_decompose",
    "geodesic",
    "is_doubly_superstochastic",
    "is_gaussian",
    "is_symplectic",
    "karcher_mean",
    "karcher_residual",
    "log_majorizes",
    "random_posdef",
    "random_symplectic",
    "riemannian_distance",
    "run_suite",
    "s_pinching",
    "s_principal_submatrix",
    "standard_J",
    "summarize",
    "supermajorizes",
    "sym_log",
    "sym_pow",
    "symplectic_spectrum",
    "validate_posdef",
    "williamson_form",
]

KNOB = re.compile(r"^(tol|symtol|samples|.*_tol)$")

# Each entry is set by a library caller or a CLI flag. Every other threshold
# is a fixed module constant (SYMPLECTIC_TOL, majorization.DEFAULT_TOL,
# matfun.SYMTOL, THEOREM5_SAMPLES, ...).
ALLOWED = {
    "sympeig.means.karcher_mean": {"tol"},
    "sympeig.symplectic.is_doubly_superstochastic": {"tol"},
    "sympeig.williamson.is_gaussian": {"tol"},
    **{
        f"sympeig.theorems.check_{name}": {"tol"}
        for name in (
            "theorem1",
            "theorem3",
            "theorem4",
            "theorem5",
            "superadditivity",
            "theorem6",
            "theorem7",
            "interlacing",
            "pinching",
            "theorem11",
            "corollary8",
            "minmax",
        )
    },
}


def _public_functions():
    """Every public function and public-class method defined in sympeig."""
    for info in pkgutil.iter_modules(sympeig.__path__):
        module = importlib.import_module(f"sympeig.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_public_names_are_pinned():
    # dir, not vars: the package binds a name only when it is first used.
    exported = sorted(
        name for name in dir(sympeig) if not name.startswith("_") and not inspect.ismodule(getattr(sympeig, name))
    )
    assert exported == PUBLIC_NAMES
    assert sorted(sympeig.__all__) == PUBLIC_NAMES


def test_star_import_yields_exactly_the_public_names():
    namespace: dict = {}
    exec("from sympeig import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_object_of_its_module(name):
    obj = getattr(sympeig, name)
    # The two constants without a __module__ are the suite's.
    module = importlib.import_module(getattr(obj, "__module__", "sympeig.theorems"))
    assert obj is getattr(module, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        sympeig.nope


def test_tolerance_knobs_only_on_allow_list():
    found = {}
    for qualname, fn in _public_functions():
        knobs = {p for p in inspect.signature(fn).parameters if KNOB.match(p)}
        if knobs:
            found[qualname] = knobs
    assert found == ALLOWED


def test_theorem5_keeps_explicit_restriction_and_rng():
    # The sample count stays the module constant THEOREM5_SAMPLES.
    params = list(inspect.signature(sympeig.check_theorem5).parameters)
    assert params == ["A", "k", "M", "tol", "rng"]


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == sympeig.__version__
