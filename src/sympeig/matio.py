"""Matrix file format: one JSON object per file with explicit fields.

Fields: ``n`` (half-order), ``data`` (2n x 2n row-major array), optional
``kind`` ("posdef" | "symplectic"; it records what the file holds, and each
command validates the matrices it uses) and ``convention``
("block", the default, or "interleaved"; interleaved data is converted to the
block convention on load). Floats survive a write/read round trip exactly:
Python serializes them with the shortest representation that reconstructs the
double bit for bit.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

KINDS = ("posdef", "symplectic")
CONVENTIONS = ("block", "interleaved")


@dataclass(frozen=True)
class MatrixFile:
    """A loaded matrix, already converted to the block convention."""

    n: int
    data: np.ndarray
    kind: str | None
    convention: str


def _parse(obj: dict, source: str) -> MatrixFile:
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object with a 'data' field")
    if "data" not in obj:
        raise FormatError(f"{source}: missing required field 'data'")
    try:
        data = np.asarray(obj["data"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{source}: 'data' is not a numeric array: {exc}") from exc
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise FormatError(f"{source}: 'data' must be a square matrix, got shape {data.shape}")
    if data.shape[0] % 2 != 0 or data.shape[0] == 0:
        raise FormatError(f"{source}: matrix order must be even and positive, got {data.shape[0]}")
    # Every entry a JSON number, as for 'n' below (bool is an int subclass).
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for row in obj["data"] for x in row):
        raise FormatError(f"{source}: 'data' entries must be JSON numbers")
    n = data.shape[0] // 2
    if "n" in obj:
        declared = obj["n"]
        # A JSON number (bool is an int subclass); a non-integral one never equals n.
        if isinstance(declared, bool) or not isinstance(declared, (int, float)):
            raise FormatError(f"{source}: 'n' must be an integer, got {declared!r}")
        if declared != n:
            raise FormatError(f"{source}: declared half-order {declared} does not match data order {2 * n}")
    kind = obj.get("kind")
    if kind is not None and kind not in KINDS:
        raise FormatError(f"{source}: unknown kind {kind!r}; expected one of {KINDS}")
    convention = obj.get("convention", "block")
    if convention not in CONVENTIONS:
        raise FormatError(f"{source}: unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if convention == "interleaved":
        from .symplectic import convention_permutation
        P = convention_permutation(n)
        data = P.T @ data @ P
    return MatrixFile(n=n, data=data, kind=kind, convention=convention)


def load_matrix(path: str) -> MatrixFile:
    """Parse a matrix file, raising FormatError on a malformed one.

    The declared ``kind`` records what the file holds and is not checked
    against the data; each command validates the matrices it uses.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return _parse(obj, path)


def matrix_record(A: np.ndarray, kind: str | None = None) -> dict:
    """JSON-ready representation of a matrix in the block convention."""
    A = np.asarray(A, dtype=float)
    record = {"n": A.shape[0] // 2, "convention": "block", "data": A.tolist()}
    if kind is not None:
        record["kind"] = kind
    return record


def _write(path: str, text: str) -> None:
    """Write text to path, raising FormatError on a path that cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def save_matrix(path: str, A: np.ndarray, kind: str | None = None) -> None:
    """Write a matrix file (block convention)."""
    _write(path, json.dumps(matrix_record(A, kind)))
