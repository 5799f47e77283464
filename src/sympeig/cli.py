"""Command-line interface.

One command per computation, machine-readable output via --json, matrices
exchanged through the JSON matrix-file format of :mod:`sympeig.matio`.

Exit codes: 0 success (for ``gaussian``: the matrix is Gaussian; for
``verify``: zero failures), 1 negative verdict (non-Gaussian input, or
verification failures), 2 parse errors (files or flags), 3 validation errors
(not positive definite / not symmetric / not symplectic / dimension
mismatch), 4 numerical failures, 5 iteration budget exhausted (``mean``; the
best iterate is still emitted).
"""

import argparse
import json
import sys

import numpy as np

from . import matio, means, sops, theorems
from .errors import DomainError, FormatError, InputError, NumericalError
from .matfun import require_nonnegative
from .symplectic import euler_decompose, standard_J
from .williamson import SymplecticSpectrum, symplectic_spectrum, williamson_form


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(v) -> str:
    return " ".join(_fmt(x) for x in v)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _print_matrix(name: str, A: np.ndarray, lines: list[str]) -> None:
    lines.append(f"{name}:")
    for row in np.asarray(A):
        lines.append("  " + _fmt_vector(row))


def cmd_williamson(args) -> int:
    if args.output is not None and not args.form:
        raise InputError("--output stores the congruence matrix and needs --form")
    mf = matio.load_matrix(args.input)
    # With --form, d is the one M diagonalizes: one gate and one eigensolve.
    form = williamson_form(mf.data) if args.form else None
    spec = SymplecticSpectrum.from_ascending(form.d) if args.form else symplectic_spectrum(mf.data)
    result = {"n": mf.n, "d": spec.d.tolist(), "d_hat": spec.d_hat.tolist()}
    if args.form:
        J = standard_J(mf.n)
        dd = np.diag(np.concatenate([form.d, form.d]))
        res_sympl = float(np.linalg.norm(form.M.T @ J @ form.M - J))
        # Against the symmetrized matrix williamson_form factors, not the file's asymmetry.
        res_congr = float(np.linalg.norm(form.M.T @ ((mf.data + mf.data.T) / 2.0) @ form.M - dd))
        result.update(
            {
                "M": form.M.tolist(),
                "residual_symplectic": res_sympl,
                "residual_congruence": res_congr,
                "warnings": list(form.warnings),
            }
        )
    if args.output is not None:
        matio.save_matrix(args.output, np.asarray(result["M"]), kind="symplectic")
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        lines = [f"d: {_fmt_vector(result['d'])}", f"d_hat: {_fmt_vector(result['d_hat'])}"]
        if args.form:
            _print_matrix("M", result["M"], lines)
            lines.append(f"residual_symplectic: {_fmt(result['residual_symplectic'])}")
            lines.append(f"residual_congruence: {_fmt(result['residual_congruence'])}")
            for w in result["warnings"]:
                lines.append(f"warning: {w}")
        print("\n".join(lines))
    return 0


def cmd_euler(args) -> int:
    mf = matio.load_matrix(args.input)
    form = euler_decompose(mf.data)
    residual = float(np.linalg.norm(form.reconstruct() - mf.data))
    result = {
        "n": mf.n,
        "gamma": form.gamma.tolist(),
        "o1": form.o1.tolist(),
        "o2": form.o2.tolist(),
        "residual": residual,
    }
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        lines = [f"gamma: {_fmt_vector(form.gamma)}"]
        _print_matrix("o1", form.o1, lines)
        _print_matrix("o2", form.o2, lines)
        lines.append(f"residual: {_fmt(residual)}")
        print("\n".join(lines))
    return 0


def cmd_mean(args) -> int:
    mats = [matio.load_matrix(path).data for path in args.inputs]
    if len(mats) < 2:
        raise InputError("mean needs at least two input files")
    result = means.karcher_mean(mats, args.weights, tol=args.tol, max_iter=args.max_iter)
    if args.output is not None:
        matio.save_matrix(args.output, result.mean, kind="posdef")
    record = {
        "mean": result.mean.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        lines: list[str] = []
        _print_matrix("mean", result.mean, lines)
        lines.append(f"residual: {_fmt(result.residual)}")
        lines.append(f"iterations: {result.iterations}")
        lines.append(f"converged: {result.converged}")
        print("\n".join(lines))
    return 0 if result.converged else 5


def cmd_distance(args) -> int:
    A = matio.load_matrix(args.input_a).data
    B = matio.load_matrix(args.input_b).data
    dist = means.riemannian_distance(A, B)
    if args.json:
        print(json.dumps({"distance": dist}))
    else:
        print(f"distance: {_fmt(dist)}")
    return 0


def cmd_geodesic(args) -> int:
    A = matio.load_matrix(args.input_a).data
    B = matio.load_matrix(args.input_b).data
    point = means.geodesic(A, B, args.t)
    if args.output is not None:
        matio.save_matrix(args.output, point, kind="posdef")
    if args.json:
        print(json.dumps({"t": args.t, "point": point.tolist()}, sort_keys=True))
    else:
        lines: list[str] = []
        _print_matrix(f"geodesic point t={_fmt(args.t)}", point, lines)
        print("\n".join(lines))
    return 0


def cmd_gaussian(args) -> int:
    require_nonnegative(args.tol, "tol")
    mf = matio.load_matrix(args.input)
    d1 = float(symplectic_spectrum(mf.data).d[0])
    gaussian = d1 >= 0.5 - args.tol
    if args.json:
        print(json.dumps({"d1": d1, "gaussian": gaussian}, sort_keys=True))
    else:
        print(f"d1: {_fmt(d1)}")
        print(f"gaussian: {gaussian}")
    return 0 if gaussian else 1


def cmd_spinch(args) -> int:
    mf = matio.load_matrix(args.input)
    out = sops.s_pinching(mf.data, args.partition)
    if args.output is not None:
        matio.save_matrix(args.output, out, kind="posdef")
    if args.json:
        print(json.dumps({"partition": args.partition, "matrix": out.tolist()}, sort_keys=True))
    else:
        lines: list[str] = []
        _print_matrix("s-pinching", out, lines)
        print("\n".join(lines))
    return 0


def cmd_sprincipal(args) -> int:
    mf = matio.load_matrix(args.input)
    if any(i < 1 for i in args.keep):
        raise InputError(f"keep indices are 1-based, got {args.keep}")
    out = sops.s_principal_submatrix(mf.data, [i - 1 for i in args.keep])
    if args.output is not None:
        matio.save_matrix(args.output, out, kind="posdef")
    if args.json:
        print(json.dumps({"keep": args.keep, "matrix": out.tolist()}, sort_keys=True))
    else:
        lines: list[str] = []
        _print_matrix("s-principal submatrix", out, lines)
        print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    if args.theorem != "all" and args.theorem not in theorems.THEOREM_IDS:
        print(
            f"unknown theorem id {args.theorem!r}; known: all, {', '.join(theorems.THEOREM_IDS)}",
            file=sys.stderr,
        )
        return 2
    selected = theorems.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    overrides = {tid: args.tol for tid in selected} if args.tol is not None else {}
    cfg = theorems.SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        nmin=args.nmin,
        nmax=args.nmax,
        tolerances=overrides,
        theorems=selected,
    )
    reports = theorems.run_suite(cfg)
    output_lines: list[str] = []
    if args.json:
        output_lines = [rep.to_json_line() for rep in reports]
    else:
        summary = theorems.summarize(reports)
        header = f"{'theorem':>16} {'trials':>7} {'pass':>6} {'fail':>6} {'inconcl':>8} {'worst margin':>22}"
        output_lines.append(header)
        for tid in selected:
            entry = summary[tid]
            passed = entry["trials"] - entry["failures"] - entry["inconclusive"]
            worst = entry["worst_margin"]
            worst_text = _fmt(worst) if np.isfinite(worst) else "n/a"
            output_lines.append(
                f"{tid:>16} {entry['trials']:>7} {passed:>6} {entry['failures']:>6} "
                f"{entry['inconclusive']:>8} {worst_text:>22}"
            )
    text = "\n".join(output_lines)
    _emit(text, args.output)
    failures = sum(1 for rep in reports if not rep.holds and not rep.inconclusive)
    return 0 if failures == 0 else 1


def _add_common(sub, output: bool = True) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable JSON output")
    if output:
        sub.add_argument("--output", help="also write the result to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympeig",
        description="Symplectic spectral computations on positive definite matrices and the inequality verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("williamson", help="symplectic spectrum and Williamson normal form")
    p.add_argument("input", help="positive definite matrix file")
    p.add_argument("--form", action="store_true", help="also compute the symplectic congruence M")
    _add_common(p)
    p.set_defaults(func=cmd_williamson)

    p = sub.add_parser("euler", help="Euler decomposition of a symplectic matrix")
    p.add_argument("input", help="symplectic matrix file")
    _add_common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("mean", help="Karcher mean of two or more positive definite matrices")
    p.add_argument("inputs", nargs="+", help="positive definite matrix files")
    p.add_argument("--weights", type=_csv_floats, help="comma-separated positive weights summing to 1")
    p.add_argument("--tol", type=float, default=None, help="residual target (default 1e-9 * operator norm)")
    p.add_argument("--max-iter", type=int, default=200, help="polish iteration budget")
    _add_common(p)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("distance", help="Riemannian distance between two positive definite matrices")
    p.add_argument("input_a")
    p.add_argument("input_b")
    _add_common(p, output=False)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("geodesic", help="point on the Riemannian geodesic between two matrices")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--t", type=float, required=True, help="geodesic parameter in [0, 1]")
    _add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("verify", help="run the seeded theorem verification suite")
    p.add_argument("--theorem", default="all", help="theorem id or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=None, help="tolerance override for the selected theorems")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gaussian", help="test whether d_1 >= 1/2 (Gaussian covariance matrix)")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, output=False)
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("spinch", help="s-pinching along a partition of the half-order")
    p.add_argument("input")
    p.add_argument("--partition", type=_csv_ints, required=True, help="comma-separated block sizes")
    _add_common(p)
    p.set_defaults(func=cmd_spinch)

    p = sub.add_parser("sprincipal", help="s-principal submatrix keeping the given 1-based indices")
    p.add_argument("input")
    p.add_argument("--keep", type=_csv_ints, required=True, help="comma-separated 1-based indices")
    _add_common(p)
    p.set_defaults(func=cmd_sprincipal)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
