"""The verification suite checks each group of instances (one theorem, one
half-order) in one batched call. Its records must be those of the public
checkers called one instance at a time, and a refusal inside a group must stay
the record of its own instance."""

import json
from dataclasses import replace

import numpy as np
import pytest

import sympeig.theorems
from sympeig import (
    THEOREM_IDS,
    SuiteConfig,
    SympeigError,
    check_corollary8,
    check_interlacing,
    check_minmax,
    check_pinching,
    check_superadditivity,
    check_theorem1,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    check_theorem11,
    run_suite,
)
from sympeig.theorems import THEOREMS, _assemble, _draw_task

# The public checker of each theorem, called with one instance's arguments;
# theorem 5 draws the normal blocks of its restrictions from the generator it
# is given.
PUBLIC = {
    "1": check_theorem1,
    "3": check_theorem3,
    "4": check_theorem4,
    "5": lambda A, k, rng: check_theorem5(A, k, rng=rng),
    "superadditivity": check_superadditivity,
    "6": check_theorem6,
    "7": check_theorem7,
    "interlacing": check_interlacing,
    "pinching": check_pinching,
    "11": check_theorem11,
    "corollary8": check_corollary8,
    "minmax": check_minmax,
}
# 13 trials leave groups of uneven size and include the duplicate-planted
# trials 4 and 9; half-order 1 alone is the smallest case.
CONFIGS = [{"seed": seed, "trials": 13} for seed in range(3)] + [{"seed": 3, "trials": 13, "nmin": 1, "nmax": 1}]


def instance(arg):
    """One drawn checker argument as the public checker takes it."""
    if isinstance(arg, list):
        return [instance(a) for a in arg]
    return _assemble([arg])[0]


class Replay:
    """A generator that hands back the one normal block the suite drew."""

    def __init__(self, block):
        self.block = block

    def standard_normal(self, shape):
        assert shape == self.block.shape
        return self.block


def one_at_a_time(cfg, theorem_id):
    """Each suite instance, drawn as the suite draws it, checked alone by its
    public checker and tagged as the suite tags it."""
    reports = []
    for trial in range(cfg.trials):
        (n, *_), args = _draw_task(cfg, theorem_id, trial)
        args = [instance(a) for a in args]
        if theorem_id == "5":
            args[2] = Replay(args[2])
        digest = f"seed={cfg.seed};theorem={theorem_id};trial={trial};n={n}"
        reports.append(replace(PUBLIC[theorem_id](*args), digest=digest, trial=trial, n=n))
    return reports


def records(reports):
    return [(r.to_json_line(), json.dumps(r.quantities, sort_keys=True)) for r in reports]


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c['seed']}-n{c.get('nmax', 6)}")
def test_batched_suite_matches_public_checkers(theorem_id, config):
    cfg = SuiteConfig(theorems=(theorem_id,), **config)
    suite = run_suite(cfg)
    assert all(r.holds for r in suite)
    assert records(suite) == records(one_at_a_time(cfg, theorem_id))


# Planted spectra that make an instance's first positive definite input
# indefinite (trial 3) and near-singular (trial 8), with the gate's messages.
FAULTS = {
    3: (lambda d: np.concatenate([-d[:1], d[1:]]), "matrix is not positive definite"),
    8: (lambda d: np.concatenate([1e-14 * d[-1:], d[1:]]), "near-singular input refused"),
}


def with_fault(arg, plant):
    if isinstance(arg, list):
        return [with_fault(arg[0], plant), *arg[1:]]
    return arg._replace(d=plant(arg.d))


@pytest.mark.parametrize("theorem_id", ["1", "4", "7", "11"])
def test_refusals_fall_back_to_their_own_records(monkeypatch, theorem_id):
    # Half-order 2 only: all 13 instances form one group.
    cfg = SuiteConfig(seed=1, trials=13, nmin=2, nmax=2, theorems=(theorem_id,))
    clean = run_suite(cfg)
    tol, draw, check = THEOREMS[theorem_id]

    def faulty_draw(rng, n, cfg, trial):
        key, args = draw(rng, n, cfg, trial)
        if trial in FAULTS:
            args = (with_fault(args[0], FAULTS[trial][0]), *args[1:])
        return key, args

    monkeypatch.setitem(THEOREMS, theorem_id, (tol, faulty_draw, check))
    reports = run_suite(cfg)
    for trial, (_, message) in FAULTS.items():
        args = [instance(a) for a in _draw_task(cfg, theorem_id, trial)[1]]
        with pytest.raises(SympeigError, match=message) as info:
            PUBLIC[theorem_id](*args)
        rep = reports[trial]
        assert json.loads(rep.to_json_line()) == {
            "theorem_id": theorem_id,
            "trial": trial,
            "n": 2,
            "holds": False,
            "inconclusive": False,
            "margin": None,
            "tolerance": tol,
            "digest": f"seed=1;theorem={theorem_id};trial={trial};n=2",
        }
        assert rep.quantities == {"error": str(info.value)}
    kept = [r for r in reports if r.trial not in FAULTS]
    assert records(kept) == records([r for r in clean if r.trial not in FAULTS])


def test_chunks_do_not_change_records(monkeypatch):
    # 108 instances; chunks of 7 split groups and theorems.
    cfg = SuiteConfig(seed=5, trials=9, nmax=3)
    whole = run_suite(cfg)
    monkeypatch.setattr(sympeig.theorems, "SUITE_CHUNK", 7)
    assert records(run_suite(cfg)) == records(whole)
