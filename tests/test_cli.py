"""End-to-end tests of the command-line interface."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympeig
from sympeig import (
    InputError,
    check_corollary8,
    geodesic,
    is_gaussian,
    karcher_mean,
    random_posdef,
    random_symplectic,
    symplectic_spectrum,
)
from sympeig.cli import _build_parser, main
from sympeig.matio import load_matrix, save_matrix
from sympeig.symplectic import convention_permutation


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(workdir, name, A, kind=None):
    path = workdir / name
    save_matrix(str(path), A, kind=kind)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestWilliamsonCommand:
    def test_identity(self, workdir, capsys):
        path = write(workdir, "id.json", np.eye(4), kind="posdef")
        code, out = run(capsys, "williamson", path, "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["d"] == [1.0, 1.0]
        assert rec["d_hat"] == [1.0, 1.0, 1.0, 1.0]

    def test_scaled_block_identity(self, workdir, capsys):
        path = write(workdir, "a.json", np.diag([4.0, 4.0, 1.0, 1.0]))
        code, out = run(capsys, "williamson", path, "--json")
        assert code == 0
        assert np.allclose(json.loads(out)["d"], [2.0, 2.0])

    def test_planted_fixture_with_form(self, workdir, capsys):
        A, d = random_posdef(7, 3, condition_spread=1.5)
        path = write(workdir, "r.json", A, kind="posdef")
        code, out = run(capsys, "williamson", path, "--form", "--json")
        assert code == 0
        rec = json.loads(out)
        assert np.max(np.abs(np.array(rec["d"]) - d) / d) <= 1e-7
        assert rec["residual_symplectic"] <= 1e-8
        assert rec["residual_congruence"] <= 1e-8 * np.linalg.norm(A)

    def test_form_output_is_loadable_symplectic(self, workdir, capsys):
        A, _ = random_posdef(8, 2, condition_spread=1.0)
        path = write(workdir, "in.json", A)
        out_path = str(workdir / "m.json")
        code, _ = run(capsys, "williamson", path, "--form", "--output", out_path)
        assert code == 0
        mf = load_matrix(out_path)
        assert mf.kind == "symplectic"

    def test_form_gates_once_and_reports_the_d_of_m(self, workdir, capsys, monkeypatch):
        A, _ = random_posdef(9, 3, condition_spread=1.5)
        path = write(workdir, "a.json", A, kind="posdef")
        calls = []
        original = sympeig.williamson._posdef

        def counting(S, *args, **kwargs):
            calls.append(1)
            return original(S, *args, **kwargs)

        monkeypatch.setattr(sympeig.williamson, "_posdef", counting)
        code, out = run(capsys, "williamson", path, "--form", "--json")
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        rec = json.loads(out)
        d = sympeig.williamson_form(load_matrix(path).data).d
        assert np.array_equal(np.array(rec["d"]), d)
        assert rec["d_hat"] == np.repeat(d[::-1], 2).tolist()

    def test_not_posdef_exits_3(self, workdir, capsys):
        path = write(workdir, "bad.json", np.diag([1.0, -1.0]))
        code, _ = run(capsys, "williamson", path)
        assert code == 3

    def test_parse_error_exits_2(self, workdir, capsys):
        path = workdir / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2

    # Malformed files: the JSON content (None: no file) and the loader's
    # message, in which {path} is the file's path.
    MALFORMED = {
        "missing_data": ({"n": 1}, "{path}: missing required field 'data'"),
        "not_an_object": ([1, 2], "{path}: expected a JSON object with a 'data' field"),
        "ragged": ({"data": [[1.0, 0.0], [0.0]]}, "{path}: 'data' is not a numeric array: "),
        "not_square": (
            {"data": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            "{path}: 'data' must be a square matrix, got shape (2, 3)",
        ),
        "odd_order": ({"data": np.eye(3).tolist()}, "{path}: matrix order must be even and positive, got 3"),
        "unknown_convention": (
            {"convention": "rowmajor", "data": np.eye(2).tolist()},
            "{path}: unknown convention 'rowmajor'; expected one of ('block', 'interleaved')",
        ),
        "unreadable": (None, "cannot read {path}: "),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_missing_data_field_exits_2(self, workdir, capsys, case):
        content, message = self.MALFORMED[case]
        path = workdir / f"{case}.json"
        if content is not None:
            path.write_text(json.dumps(content))
        code = main(["williamson", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(path=path))
        assert captured.err.count("\n") == 1


class TestEulerCommand:
    def test_identity(self, workdir, capsys):
        path = write(workdir, "id.json", np.eye(4), kind="symplectic")
        code, out = run(capsys, "euler", path, "--json")
        assert code == 0
        assert json.loads(out)["gamma"] == [1.0, 1.0]

    def test_squeeze(self, workdir, capsys):
        path = write(workdir, "sq.json", np.diag([2.0, 0.5]))
        code, out = run(capsys, "euler", path, "--json")
        assert code == 0
        assert np.allclose(json.loads(out)["gamma"], [2.0])

    def test_random_fixture_residual(self, workdir, capsys):
        M = random_symplectic(9, 3, spread=1.2)
        path = write(workdir, "m.json", M, kind="symplectic")
        code, out = run(capsys, "euler", path, "--json")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-8

    def test_non_symplectic_exits_3(self, workdir, capsys):
        path = write(workdir, "ns.json", np.diag([2.0, 2.0]))
        code, _ = run(capsys, "euler", path)
        assert code == 3


class TestMeanCommand:
    def test_two_equal_files(self, workdir, capsys):
        A, _ = random_posdef(10, 2, 1.0)
        path = write(workdir, "a.json", A)
        code, out = run(capsys, "mean", path, path, "--json")
        assert code == 0
        rec = json.loads(out)
        assert np.linalg.norm(np.array(rec["mean"]) - A) <= 1e-7 * np.linalg.norm(A)

    def test_uniform_pair_is_geometric_mean(self, workdir, capsys):
        A, _ = random_posdef(11, 2, 1.0)
        B, _ = random_posdef(12, 2, 1.0)
        pa, pb = write(workdir, "a.json", A), write(workdir, "b.json", B)
        code, out = run(capsys, "mean", pa, pb, "--json")
        assert code == 0
        G = geodesic(A, B, 0.5)
        assert np.linalg.norm(np.array(json.loads(out)["mean"]) - G) <= 1e-7 * np.linalg.norm(G)

    def test_three_files_residual_and_output(self, workdir, capsys):
        paths = [write(workdir, f"m{i}.json", random_posdef(13 + i, 2, 1.0)[0]) for i in range(3)]
        out_path = str(workdir / "mean.json")
        code, out = run(capsys, "mean", *paths, "--json", "--output", out_path)
        assert code == 0
        rec = json.loads(out)
        assert rec["converged"] is True
        mean = load_matrix(out_path).data
        assert rec["residual"] <= 1e-9 * np.linalg.eigvalsh(mean)[-1]
        assert rec["residual"] <= 1e-9

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaled_files_converge(self, workdir, capsys, scale):
        # The target of the dimensionless residual does not move with the scale.
        paths = [write(workdir, f"s{s}.json", scale * random_posdef(s, 3)[0]) for s in (1, 2, 3)]
        code, out = run(capsys, "mean", *paths, "--json")
        rec = json.loads(out)
        assert code == 0 and rec["converged"] is True
        assert rec["iterations"] >= 1 and rec["residual"] <= 1e-9

    def test_tol_default_is_the_library_default(self):
        # The parser is built without loading sympeig.means, so it keeps a literal.
        tol = _build_parser().parse_args(["mean", "a", "b"]).tol
        assert tol == inspect.signature(karcher_mean).parameters["tol"].default

    def test_weights_flag(self, workdir, capsys):
        A, _ = random_posdef(16, 2, 1.0)
        B, _ = random_posdef(17, 2, 1.0)
        pa, pb = write(workdir, "a.json", A), write(workdir, "b.json", B)
        code, out = run(capsys, "mean", pa, pb, "--weights", "0.7,0.3", "--json")
        assert code == 0
        expected = geodesic(A, B, 0.3)
        got = np.array(json.loads(out)["mean"])
        assert np.linalg.norm(got - expected) <= 1e-7 * np.linalg.norm(expected)

    def test_budget_exhaustion_exits_5(self, workdir, capsys):
        paths = [write(workdir, f"e{i}.json", random_posdef(18 + i, 2, 1.5)[0]) for i in range(3)]
        code, out = run(capsys, "mean", *paths, "--json", "--max-iter", "0", "--tol", "1e-15")
        assert code == 5
        assert json.loads(out)["converged"] is False

    def test_dimension_mismatch_exits_3(self, workdir, capsys):
        pa = write(workdir, "a.json", np.eye(2))
        pb = write(workdir, "b.json", np.eye(4))
        code, _ = run(capsys, "mean", pa, pb)
        assert code == 3

    def test_parse_errors_come_before_validation(self, workdir, capsys):
        bad = write(workdir, "bad.json", -np.eye(4), kind="posdef")
        broken = workdir / "broken.json"
        broken.write_text("{not json")
        code, _ = run(capsys, "mean", bad, str(broken))
        assert code == 2

    def test_nan_weights_exit_3(self, workdir, capsys):
        pa = write(workdir, "a.json", random_posdef(26, 2, 1.0)[0])
        pb = write(workdir, "b.json", random_posdef(27, 2, 1.0)[0])
        code, _ = run(capsys, "mean", pa, pb, "--weights", "nan,nan")
        assert code == 3


class TestDistanceGeodesic:
    def test_distance(self, workdir, capsys):
        pa = write(workdir, "a.json", np.eye(2))
        pb = write(workdir, "b.json", np.diag([np.e, 1 / np.e]))
        code, out = run(capsys, "distance", pa, pb, "--json")
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(np.sqrt(2.0))

    def test_geodesic_endpoint(self, workdir, capsys):
        A, _ = random_posdef(21, 2, 1.0)
        B, _ = random_posdef(22, 2, 1.0)
        pa, pb = write(workdir, "a.json", A), write(workdir, "b.json", B)
        code, out = run(capsys, "geodesic", pa, pb, "--t", "0", "--json")
        assert code == 0
        assert np.allclose(json.loads(out)["point"], A)

    def test_geodesic_bad_t_exits_3(self, workdir, capsys):
        pa = write(workdir, "a.json", np.eye(2))
        code, _ = run(capsys, "geodesic", pa, pa, "--t", "2.0")
        assert code == 3

    @pytest.mark.parametrize("t", [["--t", "-5e-1"], ["--t=-5e-1"], ["--t", "-.5"], ["--t", "-5E-1"]])
    def test_negative_exponent_t_reaches_the_check(self, workdir, capsys, t):
        # argparse alone reads "-5e-1" as an option flag and exits 2.
        pa = write(workdir, "a.json", np.eye(2))
        assert main(["geodesic", pa, pa, *t]) == 3
        assert "geodesic parameter must lie in [0, 1], got -0.5" in capsys.readouterr().err


class TestGaussianCommand:
    def test_identity_is_gaussian(self, workdir, capsys):
        path = write(workdir, "id.json", np.eye(2))
        code, out = run(capsys, "gaussian", path, "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["gaussian"] is True
        assert rec["d1"] == pytest.approx(1.0)

    def test_quarter_identity_is_not(self, workdir, capsys):
        path = write(workdir, "q.json", 0.25 * np.eye(2))
        code, out = run(capsys, "gaussian", path, "--json")
        assert code == 1
        assert json.loads(out)["d1"] == pytest.approx(0.25)

    def test_boundary_half_identity(self, workdir, capsys):
        path = write(workdir, "h.json", 0.5 * np.eye(4))
        code, _ = run(capsys, "gaussian", path)
        assert code == 0


@pytest.mark.parametrize("gap, gaussian", [(3e-9, False), (5e-10, True)])
def test_one_gaussian_rule(workdir, capsys, gap, gaussian):
    # d_1 = 1/2 - gap against the one rule d_1 >= 1/2 - GAUSSIAN_TOL (1e-9):
    # is_gaussian, the gaussian command and corollary 8's input check agree.
    A, d = random_posdef(np.random.default_rng(39), 3, d=[0.5 - gap, 1.0, 2.0])
    assert abs(symplectic_spectrum(A).d[0] - d[0]) <= 1e-12
    assert is_gaussian(A) is gaussian
    code, out = run(capsys, "gaussian", write(workdir, "a.json", A), "--json")
    assert (code, json.loads(out)["gaussian"]) == (0 if gaussian else 1, gaussian)
    if gaussian:
        assert check_corollary8(A, A, 0.5).holds
    else:
        with pytest.raises(InputError, match="first input is not Gaussian"):
            check_corollary8(A, A, 0.5)


class TestStructuralCommands:
    def test_spinch_trivial(self, workdir, capsys):
        A, _ = random_posdef(23, 3, 1.0)
        path = write(workdir, "a.json", A)
        code, out = run(capsys, "spinch", path, "--partition", "3", "--json")
        assert code == 0
        assert np.array_equal(np.array(json.loads(out)["matrix"]), A)

    def test_spinch_bad_partition_exits_3(self, workdir, capsys):
        path = write(workdir, "a.json", np.eye(4))
        code, _ = run(capsys, "spinch", path, "--partition", "3")
        assert code == 3

    def test_sprincipal_one_based(self, workdir, capsys):
        d = np.array([1.0, 2.0, 3.0])
        A = np.diag(np.concatenate([d, d]))
        path = write(workdir, "a.json", A)
        code, out = run(capsys, "sprincipal", path, "--keep", "1", "--json")
        assert code == 0
        assert np.array_equal(np.array(json.loads(out)["matrix"]), np.diag([1.0, 1.0]))

    def test_sprincipal_zero_index_rejected(self, workdir, capsys):
        path = write(workdir, "a.json", np.eye(4))
        code, _ = run(capsys, "sprincipal", path, "--keep", "0")
        assert code == 3

    def test_sprincipal_index_past_the_half_order_rejected(self, workdir, capsys):
        # The range is 1-based, as the flag is; the library's is 0-based.
        path = write(workdir, "a.json", np.eye(6))
        assert main(["sprincipal", path, "--keep", "1,4"]) == 3
        assert capsys.readouterr().err == "error: keep indices must lie in [1, 3], got [1, 4]\n"


class TestVerifyCommand:
    def test_single_theorem_deterministic_and_clean(self, workdir, capsys):
        args = ["verify", "--theorem", "6", "--trials", "50", "--seed", "7", "--json"]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 50
        assert all(json.loads(line)["holds"] for line in lines)

    def test_all_theorems_smoke(self, workdir, capsys):
        code, out = run(capsys, "verify", "--theorem", "all", "--trials", "5", "--nmax", "3")
        assert code == 0
        assert "theorem" in out

    def test_breakdown_counts_as_failure(self, workdir, capsys, monkeypatch):
        from sympeig.errors import NumericalError
        from sympeig.theorems import SuiteConfig, _draw_task

        def broken(F):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr("sympeig.theorems._factor_spectrum", broken)
        code, out = run(capsys, "verify", "--theorem", "11", "--trials", "3", "--json")
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        # Each instance is drawn before it is checked, so its error record
        # carries its half-order.
        orders = [_draw_task(SuiteConfig(), "11", trial)[0][0] for trial in range(3)]
        assert records == [
            {
                "theorem_id": "11",
                "trial": trial,
                "n": n,
                "holds": False,
                "inconclusive": False,
                "margin": None,
                "tolerance": 1e-9,
                "digest": f"seed=0;theorem=11;trial={trial};n={n}",
            }
            for trial, n in enumerate(orders)
        ]

    def test_output_independent_of_hash_seed(self):
        src = str(Path(sympeig.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "sympeig.cli", "verify", "--theorem", "6", "--json"],
                env=env,
                capture_output=True,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_unknown_theorem_exits_2(self, workdir, capsys):
        code, _ = run(capsys, "verify", "--theorem", "nope")
        assert code == 2

    def test_output_file(self, workdir, capsys):
        out_path = str(workdir / "report.jsonl")
        code, out = run(capsys, "verify", "--theorem", "minmax", "--trials", "3", "--json", "--output", out_path)
        assert code == 0
        assert out == ""
        with open(out_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3



def _numbers(values) -> str:
    return " ".join(format(x, ".17g") for x in values)


def text_layout(items) -> str:
    """The text form of (label, JSON value) pairs: a list of lists prints as
    ``label:`` and two-space indented rows, a list on the label's line, a
    float with ``.17g`` and any other value with ``str``."""
    lines = []
    for label, value in items:
        if isinstance(value, list) and isinstance(value[0], list):
            lines += [f"{label}:"] + ["  " + _numbers(row) for row in value]
        elif isinstance(value, list):
            lines.append(f"{label}: {_numbers(value)}")
        elif isinstance(value, float):
            lines.append(f"{label}: {format(value, '.17g')}")
        else:
            lines.append(f"{label}: {value}")
    return "\n".join(lines) + "\n"


def _williamson_items(rec):
    return [("d", rec["d"]), ("d_hat", rec["d_hat"])]


def _form_items(rec):
    return _williamson_items(rec) + [
        ("M", rec["M"]),
        ("residual_symplectic", rec["residual_symplectic"]),
        ("residual_congruence", rec["residual_congruence"]),
    ]


def _mean_items(rec):
    return [(k, rec[k]) for k in ("mean", "residual", "iterations", "converged")]


# Per case: matrices to write (posdef unless "symplectic"), the command and
# flags, its exit code, and the text items built from its JSON record.
LAYOUTS = {
    "williamson": ([random_posdef(40, 3, 1.5)[0]], ["williamson"], 0, _williamson_items),
    "williamson_form": ([random_posdef(41, 2, 1.5)[0]], ["williamson", "--form"], 0, _form_items),
    "williamson_form_repeated": ([np.eye(4)], ["williamson", "--form"], 0, _form_items),
    "euler": (
        ["symplectic"],
        ["euler"],
        0,
        lambda rec: [("gamma", rec["gamma"]), ("o1", rec["o1"]), ("o2", rec["o2"]), ("residual", rec["residual"])],
    ),
    "distance": (
        [random_posdef(42, 2, 1.0)[0], random_posdef(43, 2, 1.0)[0]],
        ["distance"],
        0,
        lambda rec: [("distance", rec["distance"])],
    ),
    "mean": ([random_posdef(44 + i, 2, 1.0)[0] for i in range(3)], ["mean"], 0, _mean_items),
    "mean_budget": ([random_posdef(18 + i, 2, 1.5)[0] for i in range(3)], ["mean", "--max-iter", "1"], 5, _mean_items),
    "geodesic": (
        [random_posdef(47, 2, 1.0)[0], random_posdef(48, 2, 1.0)[0]],
        ["geodesic", "--t", "0.3"],
        0,
        lambda rec: [(f"geodesic point t={format(rec['t'], '.17g')}", rec["point"])],
    ),
    "gaussian": ([np.eye(2)], ["gaussian"], 0, lambda rec: [("d1", rec["d1"]), ("gaussian", rec["gaussian"])]),
    "not_gaussian": ([0.25 * np.eye(2)], ["gaussian"], 1, lambda rec: [("d1", rec["d1"]), ("gaussian", rec["gaussian"])]),
    "spinch": (
        [random_posdef(49, 3, 1.0)[0]],
        ["spinch", "--partition", "1,2"],
        0,
        lambda rec: [("s-pinching", rec["matrix"])],
    ),
    "sprincipal": (
        [random_posdef(50, 3, 1.0)[0]],
        ["sprincipal", "--keep", "1,3"],
        0,
        lambda rec: [("s-principal submatrix", rec["matrix"])],
    ),
}


@pytest.mark.parametrize("case", sorted(LAYOUTS))
def test_text_layout_matches_the_json_record(workdir, capsys, case):
    matrices, argv, expected_code, items = LAYOUTS[case]
    paths = [
        write(workdir, f"in{i}.json", random_symplectic(51, 2, spread=1.2), kind="symplectic")
        if isinstance(A, str)
        else write(workdir, f"in{i}.json", A, kind="posdef")
        for i, A in enumerate(matrices)
    ]
    command = [argv[0], *paths, *argv[1:]]
    code_json, out_json = run(capsys, *command, "--json")
    code_text, out_text = run(capsys, *command)
    assert code_json == code_text == expected_code
    rec = json.loads(out_json)
    assert out_text == text_layout(items(rec))


# Each subcommand that reads matrix files: the number of files and its flags.
GATED = [
    ("williamson", 1, []),
    ("williamson", 1, ["--form"]),
    ("gaussian", 1, []),
    ("spinch", 1, ["--partition", "2"]),
    ("sprincipal", 1, ["--keep", "1"]),
    ("distance", 2, []),
    ("geodesic", 2, ["--t", "0.5"]),
    ("mean", 2, []),
    ("mean", 3, []),
    ("euler", 1, []),
]
# Invalid order-4 files and the gate's message for a posdef and for a symplectic input.
NAN = np.eye(4)
NAN[0, 1] = np.nan
FAULTS = {
    "not_posdef": (np.diag([1.0, -1.0, 1.0, 1.0]), "matrix is not positive definite", "matrix is not symplectic"),
    "asymmetric": (np.eye(4) + np.triu(np.ones((4, 4)), 1), "matrix is not symmetric", "matrix is not symplectic"),
    "nan": (NAN, "has non-finite entries", "has non-finite entries"),
}


def valid_inputs(workdir, command, count):
    if command == "euler":
        return [write(workdir, "m.json", random_symplectic(30, 2, spread=1.2), kind="symplectic")]
    return [write(workdir, f"a{i}.json", random_posdef(30 + i, 2, 1.0)[0], kind="posdef") for i in range(count)]


@pytest.mark.parametrize("command, count, flags", GATED)
def test_one_gate_per_file(workdir, capsys, monkeypatch, command, count, flags):
    paths = valid_inputs(workdir, command, count)
    calls = {"symmetrize": 0, "_symplecticity": 0}
    for module, name in ((sympeig.matfun, "symmetrize"), (sympeig.symplectic, "_symplecticity")):

        # Both gates take a stack: a call counts its batch size.
        def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += len(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    code, _ = run(capsys, command, *paths, *flags)
    assert code in (0, 1)  # gaussian's verdict on a random matrix may be 1
    gate = "_symplecticity" if command == "euler" else "symmetrize"
    assert calls == {"symmetrize": 0, "_symplecticity": 0, gate: count}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("command, count, flags", GATED)
def test_invalid_file_exits_3_with_the_gate_message(workdir, capsys, command, count, flags, fault):
    A, posdef_message, symplectic_message = FAULTS[fault]
    bad = write(workdir, "bad.json", A, kind="symplectic" if command == "euler" else "posdef")
    paths = valid_inputs(workdir, command, count)[:-1] + [bad]
    code = main([command, *paths, *flags])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert (symplectic_message if command == "euler" else posdef_message) in captured.err


# Each command that takes --output: its input files and flags.
OUTPUT_COMMANDS = [
    ("williamson", 1, ["--form"]),
    ("euler", 1, []),
    ("mean", 2, []),
    ("geodesic", 2, ["--t", "0.5"]),
    ("spinch", 1, ["--partition", "2"]),
    ("sprincipal", 1, ["--keep", "1"]),
    ("verify", 0, ["--theorem", "6", "--trials", "2"]),
]


@pytest.mark.parametrize("command, count, flags", OUTPUT_COMMANDS)
def test_unwritable_output_exits_2(workdir, capsys, command, count, flags):
    target = workdir / "nodir" / "out.json"
    code = main([command, *valid_inputs(workdir, command, count), *flags, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


# Flags and file counts rejected before any output: the arguments after the
# input files, the number of files, the exit code and the message.
@pytest.mark.parametrize(
    "argv, files, expected, message",
    [
        (["mean", "--weights", "a,b"], 2, 2, "argument --weights: expected comma-separated numbers, got 'a,b'"),
        (["spinch", "--partition", "x"], 1, 2, "argument --partition: expected comma-separated integers, got 'x'"),
        (["williamson", "--output", "m.json"], 1, 3, "error: --output stores the congruence matrix and needs --form"),
        (["mean"], 1, 3, "error: mean needs at least two input files"),
        (["gaussian", "--tol", "0"], 1, 2, "unrecognized arguments: --tol 0"),
    ],
)
def test_rejected_flags_and_file_counts(workdir, capsys, monkeypatch, argv, files, expected, message):
    monkeypatch.chdir(workdir)
    paths = valid_inputs(workdir, argv[0], files)
    try:
        code = main([argv[0], *paths, *argv[1:]])
    except SystemExit as exc:  # argparse exits on a malformed flag value
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert message in captured.err
    assert not (workdir / "m.json").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["mean", "--tol", "inf"], 3),
        (["mean", "--tol", "nan"], 3),
        (["mean", "--tol", "-1"], 3),
        (["mean", "--max-iter", "-3"], 3),
        (["mean", "--tol", "0", "--max-iter", "0"], 5),
        (["mean", "--tol=-inf"], 3),
        (["verify", "--tol", "inf"], 3),
        (["mean", "--tol", "1e-6"], 0),
        (["verify", "--tol", "nan"], 3),
        (["verify", "--tol", "-1"], 3),
        (["verify", "--tol", "-1e-9"], 3),
        (["verify", "--tol=-1e-9"], 3),
        (["mean", "--tol", "-1e-9"], 3),
        (["mean", "--tol", "-1E-3"], 3),
        (["verify", "--seed", "-1"], 3),
    ],
)
def test_tolerance_and_budget_validated(workdir, capsys, argv, expected):
    # A negative exponent-form value must reach the library check (exit 3),
    # not stop in argparse as a missing argument (exit 2).
    inputs = {"mean": 3, "verify": 0}[argv[0]]
    paths = [write(workdir, f"m{i}.json", random_posdef(18 + i, 2, 1.5)[0] + np.eye(4)) for i in range(inputs)]
    code, out = run(capsys, argv[0], *paths, *argv[1:])
    assert code == expected
    assert (out == "") == (expected == 3)


@pytest.mark.parametrize("command", ["mean", "verify"])
@pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan")])
def test_bad_tolerance_names_the_flag(workdir, capsys, command, value, shown):
    inputs = {"mean": 2, "verify": 0}[command]
    paths = [write(workdir, f"m{i}.json", random_posdef(18 + i, 2, 1.5)[0] + np.eye(4)) for i in range(inputs)]
    assert main([command, *paths, "--tol", value]) == 3
    assert capsys.readouterr().err == f"error: tol must be finite and >= 0, got {shown}\n"


class TestMatrixFiles:
    def test_round_trip_exact(self, workdir):
        A, _ = random_posdef(24, 3, 2.0)
        path = write(workdir, "rt.json", A, kind="posdef")
        back = load_matrix(path).data
        assert np.array_equal(back, A)

    def test_interleaved_convention(self, workdir, capsys):
        A, _ = random_posdef(25, 2, 1.0)
        P = convention_permutation(2)
        interleaved = P @ A @ P.T
        path = workdir / "inter.json"
        path.write_text(
            json.dumps({"n": 2, "convention": "interleaved", "data": interleaved.tolist()})
        )
        code, out = run(capsys, "williamson", str(path), "--json")
        assert code == 0
        expected = symplectic_spectrum(A).d
        assert np.max(np.abs(np.array(json.loads(out)["d"]) - expected)) <= 1e-10

    def test_kind_is_parsed_not_validated(self, workdir, capsys):
        path = workdir / "claimed.json"
        path.write_text(json.dumps({"kind": "symplectic", "data": np.diag([2.0, 2.0]).tolist()}))
        assert load_matrix(str(path)).kind == "symplectic"
        path.write_text(json.dumps({"kind": "hermitian", "data": np.eye(2).tolist()}))
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2

    # A declared n must be a JSON number, not a bool, equal to the half-order.
    @pytest.mark.parametrize("n, order", [(3, 4), (2.9, 4), ("2", 4), (True, 2)])
    def test_wrong_half_order_exits_2(self, workdir, capsys, n, order):
        path = workdir / "wrong.json"
        path.write_text(json.dumps({"n": n, "data": np.eye(order).tolist()}))
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2

    # Every data entry must be a JSON number: strings and bools are refused,
    # also a bool among numbers, which numpy would read as an integer array.
    @pytest.mark.parametrize(
        "data",
        [[["4", "0"], ["0", "1"]], [[True, False], [False, True]], [[True, 0], [0, 1]], [[4.0, 0.0], [0.0, "1"]]],
    )
    def test_non_number_data_exits_2(self, workdir, capsys, data):
        path = workdir / "strings.json"
        path.write_text(json.dumps({"data": data}))
        code = main(["williamson", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'data' entries must be JSON numbers" in captured.err


# The package loads on use: its import loads no numpy and, besides itself, no
# sympeig module.
@pytest.mark.parametrize("package", ["scipy", "networkx", "numpy", "sympeig"])
def test_import_loads_no(package):
    src = str(Path(sympeig.__file__).resolve().parents[1])
    loaded = f"m.split('.')[0] == {package!r} and m != 'sympeig'"
    code = f"import sys, sympeig; print(sorted(m for m in sys.modules if {loaded}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_import_of_the_cli_leaves_numpy_random_unloaded():
    # No matrix command draws random numbers, so numpy.random (with hmac and
    # hashlib) loads only when a generator is asked for.
    src = str(Path(sympeig.__file__).resolve().parents[1])
    code = "import sys, sympeig.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_overflowing_symplectic_file_exits_3(workdir, capsys):
    path = write(workdir, "M.json", 1e160 * random_symplectic(0, 2, 1.0), kind="symplectic")
    code = main(["euler", path])
    assert code == 3
    assert "matrix is not symplectic: residual inf" in capsys.readouterr().err


def test_overflowing_symplectic_file_prints_only_the_refusal(workdir):
    # A fresh process under the default warning filters: no numpy overflow
    # warning precedes the refusal.
    path = write(workdir, "M.json", 1e160 * random_symplectic(0, 2, 1.0), kind="symplectic")
    src = str(Path(sympeig.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "sympeig.cli", "euler", path],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: matrix is not symplectic: residual inf exceeds tolerance\n"


# Per command: its input files and flags, the library module it runs, and
# those a fresh process of it must not load.
SUITE_ONLY = ("theorems", "majorization", "sops")
LOADS = {
    "williamson": ("posdef", ["--form"], "williamson", SUITE_ONLY),
    "euler": ("symplectic", [], "symplectic", SUITE_ONLY),
    "gaussian": ("posdef", [], "williamson", SUITE_ONLY),
    "mean": ("posdef posdef", [], "means", SUITE_ONLY + ("symplectic", "williamson")),
    "geodesic": ("posdef posdef", ["--t", "0.5"], "means", SUITE_ONLY + ("symplectic", "williamson")),
    "distance": ("posdef posdef", [], "means", SUITE_ONLY + ("symplectic", "williamson")),
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_a_command_loads_only_the_modules_it_runs(workdir, command):
    kinds, flags, runs, never = LOADS[command]
    draw = {"symplectic": lambda i: random_symplectic(i, 2, 1.0), "posdef": lambda i: random_posdef(i, 2)[0]}
    paths = [write(workdir, f"{i}.json", draw[kind](i), kind) for i, kind in enumerate(kinds.split())]
    code = (
        "import contextlib, io, json, sys; from sympeig.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('sympeig.'))]))"
    )
    src = str(Path(sympeig.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, command, *paths, *flags],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code in (0, 1)  # gaussian's verdict on a random matrix may be 1
    assert f"sympeig.{runs}" in loaded
    assert not {f"sympeig.{m}" for m in never} & set(loaded)


def test_closed_stdout_exits_141_without_a_traceback(workdir):
    # The read end is closed before the child starts, so its first write to
    # stdout fails as it does under `| head` once head has exited.
    path = write(workdir, "A.json", random_posdef(0, 3)[0], kind="posdef")
    src = str(Path(sympeig.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sympeig.cli", "williamson", path, "--form"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
