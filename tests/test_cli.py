"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympeig
from sympeig import geometric_mean, random_posdef, random_symplectic, symplectic_spectrum
from sympeig.cli import main
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

    def test_not_posdef_exits_3(self, workdir, capsys):
        path = write(workdir, "bad.json", np.diag([1.0, -1.0]))
        code, _ = run(capsys, "williamson", path)
        assert code == 3

    def test_parse_error_exits_2(self, workdir, capsys):
        path = workdir / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2

    def test_missing_data_field_exits_2(self, workdir, capsys):
        path = workdir / "nodata.json"
        path.write_text(json.dumps({"n": 1}))
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2


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
        G = geometric_mean(A, B)
        assert np.linalg.norm(np.array(json.loads(out)["mean"]) - G) <= 1e-7 * np.linalg.norm(G)

    def test_three_files_residual_and_output(self, workdir, capsys):
        paths = [write(workdir, f"m{i}.json", random_posdef(13 + i, 2, 1.0)[0]) for i in range(3)]
        out_path = str(workdir / "mean.json")
        code, out = run(capsys, "mean", *paths, "--json", "--output", out_path)
        assert code == 0
        rec = json.loads(out)
        assert rec["converged"] is True
        mean = load_matrix(out_path, expect_kind="posdef").data
        assert rec["residual"] <= 1e-9 * np.linalg.eigvalsh(mean)[-1]

    def test_weights_flag(self, workdir, capsys):
        A, _ = random_posdef(16, 2, 1.0)
        B, _ = random_posdef(17, 2, 1.0)
        pa, pb = write(workdir, "a.json", A), write(workdir, "b.json", B)
        code, out = run(capsys, "mean", pa, pb, "--weights", "0.7,0.3", "--json")
        assert code == 0
        from sympeig import geodesic

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

        def broken(A):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr("sympeig.theorems.symplectic_spectrum", broken)
        code, out = run(capsys, "verify", "--theorem", "11", "--trials", "3", "--json")
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert all(not r["holds"] and not r["inconclusive"] and r["margin"] is None for r in records)

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
        code, _ = run(capsys, "verify", "--theorem", "minmax", "--trials", "3", "--json", "--output", out_path)
        assert code == 0
        with open(out_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["mean", "--tol", "inf"], 3),
        (["mean", "--tol", "nan"], 3),
        (["mean", "--tol", "-1"], 3),
        (["mean", "--max-iter", "-3"], 3),
        (["mean", "--tol", "0", "--max-iter", "0"], 5),
        (["gaussian", "--tol", "nan"], 3),
        (["gaussian", "--tol", "inf"], 3),
        (["gaussian", "--tol", "0"], 0),
        (["verify", "--tol", "nan"], 3),
        (["verify", "--tol", "-1"], 3),
    ],
)
def test_tolerance_and_budget_validated(workdir, capsys, argv, expected):
    inputs = {"mean": 3, "gaussian": 1, "verify": 0}[argv[0]]
    paths = [write(workdir, f"m{i}.json", random_posdef(18 + i, 2, 1.5)[0] + np.eye(4)) for i in range(inputs)]
    code, out = run(capsys, argv[0], *paths, *argv[1:])
    assert code == expected
    assert (out == "") == (expected == 3)


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

    def test_wrong_half_order_exits_2(self, workdir, capsys):
        path = workdir / "wrong.json"
        path.write_text(json.dumps({"n": 3, "data": np.eye(4).tolist()}))
        code, _ = run(capsys, "williamson", str(path))
        assert code == 2

    def test_declared_kind_validated_on_load(self, workdir):
        from sympeig.errors import InputError

        path = workdir / "claimed.json"
        path.write_text(json.dumps({"kind": "symplectic", "data": np.diag([2.0, 2.0]).tolist()}))
        with pytest.raises(InputError, match="not symplectic"):
            load_matrix(str(path))


@pytest.mark.parametrize("package", ["scipy", "networkx"])
def test_import_loads_no(package):
    src = str(Path(sympeig.__file__).resolve().parents[1])
    code = f"import sys, sympeig; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
