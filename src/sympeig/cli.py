"""Command-line interface.

One command per computation, machine-readable output via --json, matrices
exchanged through the JSON matrix-file format of :mod:`sympeig.matio`.
Each matrix command only computes: it returns its JSON record, its text items
and what --output stores, and one runner prints and writes them. Only what
every command uses (argparse, json, numpy, errors, matio) is imported here;
each command imports its library modules where it runs them, so
``williamson`` never loads the verification suite and ``mean`` never loads
the symplectic modules.

Exit codes: 0 success (for ``gaussian``: the matrix is Gaussian; for
``verify``: zero failures), 1 negative verdict (non-Gaussian input, or
verification failures), 2 parse errors (files or flags) and --output files
that cannot be written, 3 validation errors (not positive definite / not
symmetric / not symplectic / dimension mismatch), 4 numerical failures, 5
iteration budget exhausted (``mean``; the best iterate is still emitted),
141 stdout closed before the output was written (as in ``| head``; 128 +
SIGPIPE, what a shell reports for a command a closed pipe stopped), with
nothing on stderr.
"""

import argparse
import json
import os
import re
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from . import matio
from .errors import DomainError, FormatError, InputError, NumericalError, SympeigError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(v) -> str:
    return " ".join(_fmt(x) for x in v)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        matio._write(path, text)


def _csv(convert, what: str, text: str) -> list:
    """The comma-separated values of ``text``, each read by ``convert``."""
    try:
        return [convert(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from exc


class _Outcome(NamedTuple):
    """What a matrix command computed: its JSON record, its text items as
    (label, value) pairs in print order, the (matrix, kind) that --output
    stores (None: the record itself) and its exit code."""

    record: dict
    items: list
    stored: tuple | None = None
    code: int = 0


def _text(items) -> str:
    """A matrix prints as ``label:`` and rows indented two spaces, a vector on
    the label's line, a float with ``.17g`` and any other value with ``str``."""
    lines = []
    for label, value in items:
        if np.ndim(value) == 2:
            lines.append(f"{label}:")
            lines += ["  " + _fmt_vector(row) for row in value]
        elif np.ndim(value) == 1:
            lines.append(f"{label}: {_fmt_vector(value)}")
        else:
            lines.append(f"{label}: {_fmt(value) if isinstance(value, float) else value}")
    return "\n".join(lines)


def _run(args) -> int:
    """Run a matrix command, write its --output, then print JSON or text."""
    out = args.compute(args)
    line = json.dumps(out.record, sort_keys=True)
    if getattr(args, "output", None) is not None:
        if out.stored is None:
            _emit(line, args.output)
        else:
            matio.save_matrix(args.output, *out.stored)
    print(line if args.json else _text(out.items))
    return out.code


def cmd_williamson(args) -> _Outcome:
    if args.output is not None and not args.form:
        raise InputError("--output stores the congruence matrix and needs --form")
    from .matfun import _sym
    from .symplectic import standard_J
    from .williamson import _doubled, symplectic_spectrum, williamson_form
    mf = matio.load_matrix(args.input)
    # With --form, d is the one M diagonalizes: one gate and one eigensolve.
    form = williamson_form(mf.data) if args.form else None
    d = form.d if args.form else symplectic_spectrum(mf.data).d
    record = {"n": mf.n, "d": d.tolist(), "d_hat": _doubled(d).tolist()}
    if not args.form:
        return _Outcome(record, [(k, v) for k, v in record.items() if k != "n"])
    J = standard_J(mf.n)
    dd = np.diag(np.concatenate([form.d, form.d]))
    record["M"] = form.M.tolist()
    record["residual_symplectic"] = float(np.linalg.norm(form.M.T @ J @ form.M - J))
    # Against the symmetrized matrix williamson_form factors, not the file's asymmetry.
    record["residual_congruence"] = float(np.linalg.norm(form.M.T @ _sym(mf.data) @ form.M - dd))
    return _Outcome(record, [(k, v) for k, v in record.items() if k != "n"], (form.M, "symplectic"))


def cmd_euler(args) -> _Outcome:
    from .symplectic import euler_decompose
    mf = matio.load_matrix(args.input)
    form = euler_decompose(mf.data)
    residual = float(np.linalg.norm(form.reconstruct() - mf.data))
    record = {
        "n": mf.n,
        "gamma": form.gamma.tolist(),
        "o1": form.o1.tolist(),
        "o2": form.o2.tolist(),
        "residual": residual,
    }
    return _Outcome(record, [(k, v) for k, v in record.items() if k != "n"])


def cmd_mean(args) -> _Outcome:
    from . import means
    mats = [matio.load_matrix(path).data for path in args.inputs]
    if len(mats) < 2:
        raise InputError("mean needs at least two input files")
    result = means.karcher_mean(mats, args.weights, tol=args.tol, max_iter=args.max_iter)
    record = {
        "mean": result.mean.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return _Outcome(record, list(record.items()), (result.mean, "posdef"), 0 if result.converged else 5)


def cmd_distance(args) -> _Outcome:
    from . import means
    A = matio.load_matrix(args.input_a).data
    B = matio.load_matrix(args.input_b).data
    dist = means.riemannian_distance(A, B)
    return _Outcome({"distance": dist}, [("distance", dist)])


def cmd_geodesic(args) -> _Outcome:
    from . import means
    A = matio.load_matrix(args.input_a).data
    B = matio.load_matrix(args.input_b).data
    point = means.geodesic(A, B, args.t)
    return _Outcome(
        {"t": args.t, "point": point.tolist()}, [(f"geodesic point t={_fmt(args.t)}", point)], (point, "posdef")
    )


def cmd_gaussian(args) -> _Outcome:
    from .matfun import require_nonnegative
    from .williamson import symplectic_spectrum
    require_nonnegative(args.tol, "tol")
    mf = matio.load_matrix(args.input)
    d1 = float(symplectic_spectrum(mf.data).d[0])
    gaussian = d1 >= 0.5 - args.tol
    return _Outcome({"d1": d1, "gaussian": gaussian}, [("d1", d1), ("gaussian", gaussian)], code=0 if gaussian else 1)


def cmd_spinch(args) -> _Outcome:
    from . import sops
    mf = matio.load_matrix(args.input)
    out = sops.s_pinching(mf.data, args.partition)
    return _Outcome({"partition": args.partition, "matrix": out.tolist()}, [("s-pinching", out)], (out, "posdef"))


def cmd_sprincipal(args) -> _Outcome:
    from . import sops, williamson
    mf = matio.load_matrix(args.input)
    n = williamson._even_order(mf.data).shape[0] // 2
    if not all(1 <= i <= n for i in args.keep):
        raise InputError(f"keep indices must lie in [1, {n}], got {args.keep}")
    out = sops.s_principal_submatrix(mf.data, [i - 1 for i in args.keep])
    return _Outcome({"keep": args.keep, "matrix": out.tolist()}, [("s-principal submatrix", out)], (out, "posdef"))


def cmd_verify(args) -> int:
    from . import theorems
    from .matfun import require_nonnegative
    if args.theorem != "all" and args.theorem not in theorems.THEOREM_IDS:
        known = ", ".join(theorems.THEOREM_IDS)
        print(f"unknown theorem id {args.theorem!r}; known: all, {known}", file=sys.stderr)
        return 2
    selected = theorems.THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    if args.tol is not None:
        require_nonnegative(args.tol, "tol")
    tols = {tid: args.tol for tid in selected} if args.tol is not None else {}
    cfg = theorems.SuiteConfig(
        seed=args.seed, trials=args.trials, nmin=args.nmin, nmax=args.nmax, tolerances=tols, theorems=selected
    )
    reports = theorems.run_suite(cfg)
    if args.json:
        lines = [rep.to_json_line() for rep in reports]
    else:
        lines = [f"{'theorem':>16} {'trials':>7} {'pass':>6} {'fail':>6} {'inconcl':>8} {'worst margin':>22}"]
        for tid, entry in theorems.summarize(reports).items():
            passed = entry["trials"] - entry["failures"] - entry["inconclusive"]
            worst = _fmt(entry["worst_margin"]) if np.isfinite(entry["worst_margin"]) else "n/a"
            lines.append(
                f"{tid:>16} {entry['trials']:>7} {passed:>6} {entry['failures']:>6} "
                f"{entry['inconclusive']:>8} {worst:>22}"
            )
    _emit("\n".join(lines), args.output)
    return 0 if all(rep.holds or rep.inconclusive for rep in reports) else 1


def _add_matrix_command(sub, compute, output: bool = True) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable JSON output")
    if output:
        sub.add_argument("--output", help="also write the result to this file")
    sub.set_defaults(func=_run, compute=compute)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympeig",
        description="Symplectic spectral computations on positive definite matrices and the inequality verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    floats, ints = partial(_csv, float, "numbers"), partial(_csv, int, "integers")

    p = sub.add_parser("williamson", help="symplectic spectrum and Williamson normal form")
    p.add_argument("input", help="positive definite matrix file")
    p.add_argument("--form", action="store_true", help="also compute the symplectic congruence M")
    _add_matrix_command(p, cmd_williamson)

    p = sub.add_parser("euler", help="Euler decomposition of a symplectic matrix")
    p.add_argument("input", help="symplectic matrix file")
    _add_matrix_command(p, cmd_euler)

    p = sub.add_parser("mean", help="Karcher mean of two or more positive definite matrices")
    p.add_argument("inputs", nargs="+", help="positive definite matrix files")
    p.add_argument("--weights", type=floats, help="comma-separated positive weights summing to 1")
    p.add_argument("--tol", type=float, default=None, help="residual target (default 1e-9 * operator norm)")
    p.add_argument("--max-iter", type=int, default=200, help="Newton iteration budget")
    _add_matrix_command(p, cmd_mean)

    p = sub.add_parser("distance", help="Riemannian distance between two positive definite matrices")
    p.add_argument("input_a")
    p.add_argument("input_b")
    _add_matrix_command(p, cmd_distance, output=False)

    p = sub.add_parser("geodesic", help="point on the Riemannian geodesic between two matrices")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--t", type=float, required=True, help="geodesic parameter in [0, 1]")
    _add_matrix_command(p, cmd_geodesic)

    p = sub.add_parser("verify", help="run the seeded theorem verification suite")
    p.add_argument("--theorem", default="all", help="theorem id or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tol", type=float, default=None, help="tolerance override for the selected theorems")
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p.add_argument("--output", help="write the report to this file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gaussian", help="test whether d_1 >= 1/2 (Gaussian covariance matrix)")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_matrix_command(p, cmd_gaussian, output=False)

    p = sub.add_parser("spinch", help="s-pinching along a partition of the half-order")
    p.add_argument("input")
    p.add_argument("--partition", type=ints, required=True, help="comma-separated block sizes")
    _add_matrix_command(p, cmd_spinch)

    p = sub.add_parser("sprincipal", help="s-principal submatrix keeping the given 1-based indices")
    p.add_argument("input")
    p.add_argument("--keep", type=ints, required=True, help="comma-separated 1-based indices")
    _add_matrix_command(p, cmd_sprincipal)

    return parser


# The exit code of each error class; see the module docstring.
_EXIT_CODES = {FormatError: 2, InputError: 3, DomainError: 3, NumericalError: 4}
_EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads -0.5 as a number but -1e-9 as a flag: join such a value
    # to the float option before it, as in --tol=-1e-9.
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--t", "--tol") and re.fullmatch(r"-[\d.]+(e[-+]?\d+)?", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SympeigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    except BrokenPipeError:
        # The reader closed stdout; point it at devnull so that the flush at
        # interpreter shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
