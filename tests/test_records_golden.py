"""The seed-0 suite's records against a stored golden file.

``records_seed0.json`` holds theorem, trial, n, holds, inconclusive and margin
of every record of ``run_suite(SuiteConfig())``. holds and inconclusive must
match exactly, margins within MARGIN_ATOL absolute: numpy and BLAS builds
differ in the last bits, and exact bytes are checked by comparing
``sympeig verify --json`` outputs. Regenerate the file, and say so in
CHANGES.md, only when a change moves records on purpose:

    PYTHONPATH=src python tests/test_records_golden.py
"""

import json
import math
import pathlib

from sympeig import SuiteConfig, run_suite

GOLDEN = pathlib.Path(__file__).with_name("records_seed0.json")
MARGIN_ATOL = 1e-12


def _rows(reports) -> list:
    """[theorem, trial, n, holds, inconclusive, margin] per report; a NaN margin is None."""
    return [
        [r.theorem_id, r.trial, r.n, r.holds, r.inconclusive, r.margin if math.isfinite(r.margin) else None]
        for r in reports
    ]


def _mismatches(rows, golden) -> list:
    """The rows that differ from their golden row, and a length mismatch as one entry."""
    if len(rows) != len(golden):
        return [("length", len(rows), len(golden))]
    return [
        (row, gold)
        for row, gold in zip(rows, golden)
        if row[:5] != gold[:5]
        or (row[5] is None) != (gold[5] is None)
        or (row[5] is not None and abs(row[5] - gold[5]) > MARGIN_ATOL)
    ]


def test_seed0_records_match_the_golden_file():
    assert _mismatches(_rows(run_suite(SuiteConfig())), json.loads(GOLDEN.read_text())) == []


def test_a_planted_margin_change_fails_the_comparison():
    golden = json.loads(GOLDEN.read_text())
    rows = [list(row) for row in golden]
    rows[517][5] += 10 * MARGIN_ATOL
    assert _mismatches(rows, golden) == [(rows[517], golden[517])]
    flipped = [list(row) for row in golden]
    flipped[3][3] = not flipped[3][3]
    assert len(_mismatches(flipped, golden)) == 1


if __name__ == "__main__":
    rows = _rows(run_suite(SuiteConfig()))
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
