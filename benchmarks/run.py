#!/usr/bin/env python3
"""Benchmark of sympeig: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 35 --trace 0

The checkout's ``src/`` is measured: the CLI runs as ``python -m sympeig.cli``
with ``src`` on PYTHONPATH, and in-process calls import from ``src``. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. See benchmarks/README.md for the workloads and metrics.
"""

import os

# One BLAS thread for this process and its children, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

if not (SRC / "sympeig" / "__init__.py").is_file():
    sys.exit(f"benchmark: no sympeig sources under {SRC}; run from the root of a full checkout")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import LINALG_COUNTERS, Tracer, span_table  # noqa: E402

sys.path.insert(0, str(SRC))
import sympeig  # noqa: E402
import sympeig.cli  # noqa: E402

WORKLOADS = ("verify-default", "spectra-large", "cli-oneshot")
# The checker of each theorem id, in the order ``sympeig verify --theorem all``
# runs them, and its default trial count, as the package README documents.
CHECKERS = {
    "check_theorem1": "1",
    "check_theorem3": "3",
    "check_theorem4": "4",
    "check_theorem5": "5",
    "check_superadditivity": "superadditivity",
    "check_theorem6": "6",
    "check_theorem7": "7",
    "check_interlacing": "interlacing",
    "check_pinching": "pinching",
    "check_theorem11": "11",
    "check_corollary8": "corollary8",
    "check_minmax": "minmax",
}
VERIFY_IDS = tuple(CHECKERS.values())
VERIFY_DEFAULT_TRIALS = 100
# Trials of the short verify runs that workloads other than verify-default
# carry, so that every run reports every end-to-end metric.
VERIFY_SLICE_TRIALS = 10
# A traced round is the main part at a fixed size plus small in-process
# companions (layer metrics have no bound, so they need not be long).
TRACED_SPECTRA_PASSES = 8
TRACED_VERIFY_TRIALS = 5
# Fresh interpreters started for the import breakdown of a traced run.
SETUP_IMPORTS = 5
CHILD_TIMEOUT = 150
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
MODULES = ("cli", "majorization", "matfun", "matio", "means", "sops", "symplectic", "theorems", "williamson")
CLI_COMMANDS = ("williamson", "mean", "euler", "geodesic", "distance", "gaussian", "verify")


class Bench:
    """One run's inputs, operation accounting and samples."""

    def __init__(self, seed: int, run_dir: Path):
        self.run_dir = run_dir
        self.mix = inputs.spectra_mix(seed)
        self.files = inputs.cli_inputs(seed, run_dir / "inputs")
        self.geodesic_t = float(np.random.default_rng([seed, 3]).uniform(0.1, 0.9))
        (run_dir / "outputs").mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.verify_rates: list[float] = []
        self.cli_ms: list[float] = []
        self.spectrum_rates: list[float] = []
        self.form_rates: list[float] = []
        # In-process calls through sympeig.cli.main instead of fresh
        # processes, and the tracer that records them (traced runs only).
        self.inprocess = False
        self.tracer: Tracer | None = None

    def _check(self, what: str, check, *args) -> None:
        try:
            check(*args)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")

    # -- program calls --------------------------------------------------------

    def cli(self, label: str, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI command; return (exit code, stdout, wall seconds)."""
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if self.tracer is None:
                        code = sympeig.cli.main(argv)
                    else:
                        code = self.tracer.span(f"bench.cli.{label}", sympeig.cli.main, argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    code = -1
            wall = time.perf_counter() - start
            if code not in (0, 1):
                print(f"failed: {' '.join(argv)}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
            return code, out.getvalue(), wall
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sympeig.cli", *argv],
                cwd=ROOT,
                env=CHILD_ENV,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return -1, "", time.perf_counter() - start
        return proc.returncode, proc.stdout, time.perf_counter() - start

    # -- operations -----------------------------------------------------------

    def setup(self) -> None:
        """Time one fresh interpreter importing sympeig (not an operation)."""
        self.setup_times.append(_fresh_import([])[0])

    def verify(self, trials: int | None = None) -> None:
        """One ``verify --theorem all --json`` run; each record is an operation."""
        argv = ["verify", "--theorem", "all", "--json"]
        if trials is not None:
            argv += ["--trials", str(trials)]
        trials = VERIFY_DEFAULT_TRIALS if trials is None else trials
        expected = len(VERIFY_IDS) * trials
        self.attempted += expected
        code, out, wall = self.cli("verify", argv)
        try:
            records = [json.loads(line) for line in out.splitlines() if line.strip()]
        except json.JSONDecodeError:
            records = None
        if code not in (0, 1) or records is None:
            self.failed += expected
            return
        try:
            self.failed += checks.verify_failures(records, VERIFY_IDS, trials, code)
        except checks.CheckFailed as exc:
            self.problems.append(f"verify: {exc}")
        if not self.inprocess:
            self.verify_rates.append(expected / wall)

    def spectra(self, passes: int) -> None:
        """``symplectic_spectrum`` and ``williamson_form`` on every matrix of
        the size mix; each call is an operation, timed on its own."""
        for _ in range(passes):
            spent = {"spectrum": 0.0, "form": 0.0}
            done = {"spectrum": 0, "form": 0}
            for item in self.mix:
                for kind, fn in (("spectrum", sympeig.symplectic_spectrum), ("form", sympeig.williamson_form)):
                    self.attempted += 1
                    start = time.perf_counter()
                    try:
                        result = fn(item.A)
                    except Exception as exc:  # counted as a failed operation
                        self.failed += 1
                        print(f"failed: {kind} n={item.d.size}: {type(exc).__name__}: {exc}", file=sys.stderr)
                        continue
                    spent[kind] += time.perf_counter() - start
                    done[kind] += 1
                    if kind == "spectrum":
                        self._check(f"spectrum n={item.d.size}", checks.check_spectrum, result.d, item.d, item.A)
                    else:
                        self._check(
                            f"williamson_form n={item.d.size}",
                            checks.check_williamson,
                            result.M,
                            result.d,
                            item.d,
                            item.A,
                        )
            if done["spectrum"] and done["form"]:
                self.spectrum_rates.append(done["spectrum"] / spent["spectrum"])
                self.form_rates.append(done["form"] / spent["form"])

    def cli_mix(self, part: slice = slice(None)) -> None:
        """The one-shot CLI commands, or a slice of them; each command is an
        operation."""
        f = self.files
        p = f.paths
        out = self.run_dir / "outputs"
        mean_out, geo_out = str(out / "mean.json"), str(out / "geodesic.json")
        t = self.geodesic_t
        commands = [
            (
                "williamson",
                ["williamson", p["A"], "--form", "--json"],
                lambda rec, code: checks.check_williamson(rec["M"], rec["d"], f.A.d, f.A.A),
            ),
            (
                "mean",
                ["mean", p["A"], p["B"], p["C"], "--output", mean_out, "--json"],
                lambda rec, code: (
                    checks.check_mean(rec["mean"], [f.A.A, f.B.A, f.C.A]),
                    checks.check_matrix_file(mean_out, rec["mean"]),
                ),
            ),
            ("mean", ["mean", p["A"], p["B"], "--json"], lambda rec, code: checks.check_two_mean(rec["mean"], f.A.A, f.B.A)),
            ("euler", ["euler", p["M"], "--json"], lambda rec, code: checks.check_euler(rec["o1"], rec["gamma"], rec["o2"], f.M)),
            (
                "geodesic",
                ["geodesic", p["A"], p["B"], "--t", repr(t), "--output", geo_out, "--json"],
                lambda rec, code: (
                    checks.check_geodesic(rec["point"], f.A.A, f.B.A, t),
                    checks.check_matrix_file(geo_out, rec["point"]),
                ),
            ),
            ("distance", ["distance", p["A"], p["C"], "--json"], lambda rec, code: checks.check_distance(rec["distance"], f.A.A, f.C.A)),
            (
                "gaussian",
                ["gaussian", p["G"], "--json"],
                lambda rec, code: checks.check_gaussian(code, rec["gaussian"], float(f.gaussian.d[0])),
            ),
            (
                "gaussian",
                ["gaussian", p["N"], "--json"],
                lambda rec, code: checks.check_gaussian(code, rec["gaussian"], float(f.non_gaussian.d[0])),
            ),
        ]
        for path in (mean_out, geo_out):
            Path(path).unlink(missing_ok=True)
        for label, argv, check in commands[part]:
            self.attempted += 1
            code, stdout, wall = self.cli(label, argv)
            # gaussian exits 1 on a non-Gaussian input: a verdict, not a failure.
            if code not in ((0, 1) if label == "gaussian" else (0,)):
                self.failed += 1
                continue
            if not self.inprocess:
                self.cli_ms.append(wall * 1e3)
            try:
                record = json.loads(stdout)
            except json.JSONDecodeError as exc:
                self.problems.append(f"{label}: stdout is not JSON: {exc}")
                continue
            self._check(" ".join(argv), check, record, code)


# One round of each workload, repeated until --seconds have passed: a fresh
# import, the workload's own operations, and small parts of the other two
# workloads, so that the samples of every metric spread over the whole run.
ROUNDS = {
    "verify-default": (
        lambda b: b.setup(),
        lambda b: b.verify(),
        lambda b: b.spectra(3),
        lambda b: b.cli_mix(slice(0, 2)),
    ),
    "spectra-large": (
        lambda b: b.setup(),
        lambda b: b.spectra(6),
        lambda b: b.cli_mix(slice(0, 1)),
        lambda b: b.verify(VERIFY_SLICE_TRIALS),
    ),
    "cli-oneshot": (
        lambda b: b.setup(),
        lambda b: b.cli_mix(slice(0, 4)),
        lambda b: b.verify(VERIFY_SLICE_TRIALS),
        lambda b: b.spectra(1),
        lambda b: b.cli_mix(slice(4, None)),
        lambda b: b.verify(VERIFY_SLICE_TRIALS),
        lambda b: b.spectra(1),
    ),
}
TRACED_ROUNDS = {
    "verify-default": (lambda b: b.verify(), lambda b: b.spectra(1), lambda b: b.cli_mix()),
    "spectra-large": (
        lambda b: b.spectra(TRACED_SPECTRA_PASSES),
        lambda b: b.verify(TRACED_VERIFY_TRIALS),
        lambda b: b.cli_mix(),
    ),
    "cli-oneshot": (lambda b: b.cli_mix(), lambda b: b.verify(TRACED_VERIFY_TRIALS), lambda b: b.spectra(1)),
}


def traced_round(bench: Bench, workload: str) -> None:
    for step in TRACED_ROUNDS[workload]:
        step(bench)


# -- set-up -------------------------------------------------------------------


def _fresh_import(extra: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import sympeig"],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )
    return time.perf_counter() - start, proc.stderr


def import_breakdown(count: int) -> dict[str, float]:
    """Median seconds of ``-X importtime`` self times, summed per top-level
    package."""
    _fresh_import([])
    totals: dict[str, list[float]] = {"numpy": [], "scipy": [], "networkx": [], "sympeig": []}
    for _ in range(count):
        _, stderr = _fresh_import(["-X", "importtime"])
        sums = dict.fromkeys(totals, 0.0)
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:") :].split("|")
            if not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in sums:
                sums[package] += int(fields[0]) * 1e-6
        for package, value in sums.items():
            totals[package].append(value)
    return {package: statistics.median(values) for package, values in totals.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child. At
    most one child runs at a time, so the sum bounds the workload's footprint."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- runs ---------------------------------------------------------------------


def untraced_run(bench: Bench, workload: str, seconds: float) -> dict:
    _fresh_import([])  # warm-up: the first import after a checkout compiles bytecode
    start = time.perf_counter()
    # Whole rounds only; stop before a round that would likely end past the
    # deadline, judged by the length of the last one.
    while True:
        round_start = time.perf_counter()
        for step in ROUNDS[workload]:
            step(bench)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verify.checks_per_s": (statistics.median(bench.verify_rates), "checks/s"),
        "spectra.spectrum_per_s": (statistics.median(bench.spectrum_rates), "matrices/s"),
        "spectra.form_per_s": (statistics.median(bench.form_rates), "matrices/s"),
        "cli.call_ms": (statistics.median(bench.cli_ms), "ms"),
    }


def traced_run(bench: Bench, workload: str, seconds: float) -> dict:
    """Alternate untraced and traced in-process rounds; the layer metrics are
    per traced round, averaged, and the tracing overhead compares the two."""
    imports = import_breakdown(SETUP_IMPORTS)
    modules = [sympeig] + [getattr(sympeig, name) for name in MODULES]
    tracer = Tracer(modules)
    bench.inprocess = True
    untraced, traced, ops = [], [], []
    run_start = time.perf_counter()
    while True:
        pair_start = start = time.perf_counter()
        traced_round(bench, workload)
        untraced.append(time.perf_counter() - start)
        tracer.install()
        tracer.begin_round()
        bench.tracer = tracer
        before = bench.attempted
        start = time.perf_counter()
        try:
            traced_round(bench, workload)
        finally:
            traced.append(time.perf_counter() - start)
            bench.tracer = None
            tracer.end_round()
            tracer.uninstall()
        ops.append(bench.attempted - before)
        now = time.perf_counter()
        if now - run_start + (now - pair_start) > seconds:
            break
    tracer.write(bench.run_dir / "spans.jsonl.gz")
    per_round = [round_metrics(rnd, n_ops) for rnd, n_ops in zip(tracer.rounds, ops)]
    metrics = {name: (statistics.fmean(r[name][0] for r in per_round), unit) for name, (_, unit) in per_round[0].items()}
    for package, value in imports.items():
        name = "sympeig_own" if package == "sympeig" else package
        metrics[f"setup.{name}_s"] = (value, "s")
    # Each traced round is compared with the untraced round just before it,
    # so that the host's drift between pairs cancels.
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def round_metrics(rnd: dict, ops: int) -> dict:
    """Layer metrics of one traced round."""
    inclusive, self_time, calls, child_time = span_table(rnd["spans"])

    def ms_per_call(label):
        return 1e3 * inclusive[label] / calls[label] if calls[label] else 0.0

    def self_ms(prefix):
        return 1e3 * sum(value for label, value in self_time.items() if label.startswith(prefix))

    m = {}
    for checker, tid in CHECKERS.items():
        m[f"theorems.{tid}.ms_per_check"] = (ms_per_call(f"theorems.{checker}"), "ms")
    for fn in ("symplectic_spectrum", "williamson_form", "validate_posdef"):
        m[f"williamson.{fn}.calls"] = (calls[f"williamson.{fn}"], "count")
        m[f"williamson.{fn}.self_ms"] = (1e3 * self_time[f"williamson.{fn}"], "ms")
    validations = rnd["validations"]
    m["williamson.validate_posdef.distinct_ratio"] = (
        len(rnd["validated"]) / validations if validations else 0.0,
        "ratio",
    )
    karcher = inclusive["means.karcher_mean"]
    m["means.karcher_mean.calls"] = (calls["means.karcher_mean"], "count")
    m["means.karcher_mean.self_ms"] = (1e3 * self_time["means.karcher_mean"], "ms")
    m["means.karcher_mean.iterations"] = (rnd["karcher_iterations"], "count")
    m["means.karcher_mean.geodesic_share"] = (
        child_time["means.karcher_mean"]["means.geodesic"] / karcher if karcher else 0.0,
        "ratio",
    )
    m["means.geodesic.calls"] = (calls["means.geodesic"], "count")
    m["means.geodesic.self_ms"] = (1e3 * self_time["means.geodesic"], "ms")
    m["means.riemannian_distance.self_ms"] = (1e3 * self_time["means.riemannian_distance"], "ms")
    for fn in ("is_doubly_superstochastic", "euler_decompose"):
        m[f"symplectic.{fn}.self_ms"] = (1e3 * self_time[f"symplectic.{fn}"], "ms")
    m["symplectic.generators.self_ms"] = (self_ms("symplectic.random_"), "ms")
    for fn in ("sym_pow", "norms"):
        m[f"matfun.{fn}.self_ms"] = (1e3 * self_time[f"matfun.{fn}"], "ms")
    m["majorization.self_ms"] = (self_ms("majorization."), "ms")
    m["sops.self_ms"] = (self_ms("sops."), "ms")
    for fn in ("load_matrix", "save_matrix"):
        m[f"matio.{fn}.ms"] = (1e3 * inclusive[f"matio.{fn}"], "ms")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.ms"] = (ms_per_call(f"bench.cli.{command}"), "ms")
    for fn in LINALG_COUNTERS:
        m[f"linalg.{fn}.calls"] = (rnd["linalg"][fn] / ops, "calls/op")
    m["linalg.work_n3"] = (rnd["work_n3"] / ops, "n3/op")
    m["trace.spans"] = (len(rnd["spans"]), "count")
    return m


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "networkx": importlib.metadata.version("networkx"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": {"spectra": [args.seed, 1], "cli": [args.seed, 2], "geodesic_t": [args.seed, 3], "verify": 0},
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print("manifest " + json.dumps(manifest(args), sort_keys=True), flush=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(args.seed, run_dir)
    run = traced_run if args.trace else untraced_run
    metrics = run(bench, args.workload, args.seconds)

    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    print(f"operations: attempted {bench.attempted}, failed {bench.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
