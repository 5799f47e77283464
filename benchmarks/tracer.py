"""Spans and counters around sympeig's public functions, installed from the
benchmark's side without changing the package.

``Tracer.install`` rebinds every public function of every sympeig module in
each module that holds it by name (``theorems`` and ``cli`` import
``symplectic_spectrum`` directly, for example), so calls between modules and
within a module are both seen. Private helpers are not wrapped. The LAPACK
entry points of ``numpy.linalg`` and ``scipy.linalg.eigh`` are counted, not
timed, so a module's self time includes the kernels it calls.
"""

import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

NUMPY_LINALG = ("eigh", "eigvalsh", "eigvals", "svd", "inv", "solve", "slogdet")
LINALG_COUNTERS = NUMPY_LINALG + ("scipy_eigh",)


class Tracer:
    """Records spans ``[name, start, end, parent]`` in memory, one list per
    round, plus per-round counters."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.rounds: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._round: dict | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        labels = {}
        for mod in self.modules:
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and not obj.__name__.startswith("_")
                    and obj.__module__.startswith("sympeig")
                ):
                    labels.setdefault(obj, f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}")
        wrappers = {fn: self._wrap(fn, label) for fn, label in labels.items()}
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, name, wrappers[obj])
        for name in NUMPY_LINALG:
            self._rebind(np.linalg, name, self._count(getattr(np.linalg, name), name))
        self._rebind(scipy.linalg, "eigh", self._count(scipy.linalg.eigh, "scipy_eigh"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _rebind(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- rounds and spans ---------------------------------------------------

    def begin_round(self) -> None:
        self._round = {
            "spans": [],
            "linalg": Counter(),
            "work_n3": 0,
            "validated": set(),
            "validations": 0,
            "karcher_iterations": 0,
        }
        self.rounds.append(self._round)
        self._stack.clear()

    def span(self, label: str, fn, /, *args, **kwargs):
        """Call fn inside a span named ``label``, a child of the innermost
        open span."""
        spans = self._round["spans"]
        index = len(spans)
        record = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, label: str):
        tracer = self
        if label == "williamson.validate_posdef":

            def observe_args(args, kwargs):
                # A matrix counts once per top-level call (the root span).
                A = np.asarray(args[0] if args else kwargs["A"], dtype=float)
                root = tracer._stack[0] if tracer._stack else len(tracer._round["spans"])
                tracer._round["validations"] += 1
                tracer._round["validated"].add((root, A.shape, hash(A.tobytes())))

        else:
            observe_args = None
        observe_result = self._observe_karcher if label == "means.karcher_mean" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._round is None:
                return fn(*args, **kwargs)
            if observe_args is not None:
                observe_args(args, kwargs)
            result = tracer.span(label, fn, *args, **kwargs)
            if observe_result is not None:
                observe_result(result)
            return result

        return wrapper

    def _observe_karcher(self, result) -> None:
        self._round["karcher_iterations"] += int(result.iterations)

    def _count(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # Count only calls made by the program, not the benchmark's checks.
            if tracer._round is not None and tracer._stack:
                order = np.shape(args[0] if args else next(iter(kwargs.values())))[-1]
                tracer._round["linalg"][name] += 1
                tracer._round["work_n3"] += order**3
            return fn(*args, **kwargs)

        return counted

    def end_round(self) -> None:
        self._round = None

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans of all rounds, one JSON line per round, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, rnd in enumerate(self.rounds):
                fh.write(json.dumps({"round": index, "spans": rnd["spans"]}) + "\n")


def span_table(spans) -> tuple[dict, dict, Counter, dict]:
    """Per label: inclusive seconds, self seconds, calls; and, per parent
    label, the inclusive seconds of its direct children by label."""
    inclusive: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent in spans:
        duration = end - start
        inclusive[name] += duration
        self_time[name] += duration
        calls[name] += 1
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] -= duration
            child_time[parent_name][name] += duration
    return inclusive, self_time, calls, child_time
