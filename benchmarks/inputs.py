"""Seeded benchmark inputs, built with numpy alone.

Every positive definite input is A = S^T diag(d, d) S with S symplectic.
Symplectic congruence keeps the symplectic spectrum, so the planted d is the
spectrum of A whatever the program under test computes: an oracle that does
not depend on sympeig.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Half-orders of the spectra workload, each drawn SPECTRA_PER_SIZE times.
SPECTRA_SIZES = (16, 32, 48, 64, 96, 128)
SPECTRA_PER_SIZE = 2
# Half-order of the matrices in the CLI files.
CLI_N = 3


@dataclass(frozen=True)
class Planted:
    """A = S^T diag(d, d) S with S symplectic; d is the planted spectrum."""

    A: np.ndarray
    d: np.ndarray
    S: np.ndarray


def orthosymplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal-symplectic [[X, -Y], [Y, X]] from a Haar unitary X + iY."""
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R)
    U = Q * (diag / np.abs(diag))
    return np.block([[U.real, -U.imag], [U.imag, U.real]])


def symplectic(rng: np.random.Generator, n: int, squeeze: float) -> np.ndarray:
    """O1 diag(g, 1/g) O2^T with log g uniform on [0, squeeze]."""
    g = np.exp(rng.uniform(0.0, squeeze, size=n))
    return (orthosymplectic(rng, n) * np.concatenate([g, 1.0 / g])) @ orthosymplectic(rng, n).T


def planted(rng: np.random.Generator, d: np.ndarray, squeeze: float = 0.5) -> Planted:
    """A = S^T diag(d, d) S for a random symplectic S."""
    d = np.sort(np.asarray(d, dtype=float))
    S = symplectic(rng, d.size, squeeze)
    A = S.T @ (np.concatenate([d, d])[:, None] * S)
    return Planted(A=(A + A.T) / 2.0, d=d, S=S)


def log_uniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return np.sort(np.exp(rng.uniform(np.log(lo), np.log(hi), size=n)))


def spectra_mix(seed: int) -> list[Planted]:
    """The size mix of the spectra workload: d log-uniform on [e^-1, e]."""
    rng = np.random.default_rng([seed, 1])
    return [
        planted(rng, log_uniform(rng, n, np.exp(-1.0), np.exp(1.0)))
        for n in SPECTRA_SIZES
        for _ in range(SPECTRA_PER_SIZE)
    ]


@dataclass(frozen=True)
class CliInputs:
    """Matrices written as JSON files for the one-shot CLI commands."""

    A: Planted
    B: Planted
    C: Planted
    M: np.ndarray
    gaussian: Planted
    non_gaussian: Planted
    paths: dict


def cli_inputs(seed: int, directory: Path) -> CliInputs:
    """Small matrices for the CLI mix, written to ``directory``.

    The Gaussian input has d_1 >= 0.6 and the non-Gaussian one d_1 <= 0.4, so
    the verdict of ``gaussian`` is decided well away from the 1/2 threshold.
    """
    rng = np.random.default_rng([seed, 2])
    n = CLI_N
    A, B, C = (planted(rng, log_uniform(rng, n, 0.5, 2.0)) for _ in range(3))
    M = symplectic(rng, n, 1.0)
    gaussian = planted(rng, log_uniform(rng, n, 0.6, 3.0))
    low = log_uniform(rng, n, 0.6, 3.0)
    low[0] = rng.uniform(0.1, 0.4)
    non_gaussian = planted(rng, low)
    matrices = {
        "A": (A.A, "posdef"),
        "B": (B.A, "posdef"),
        "C": (C.A, "posdef"),
        "M": (M, "symplectic"),
        "G": (gaussian.A, "posdef"),
        "N": (non_gaussian.A, "posdef"),
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (data, kind) in matrices.items():
        path = directory / f"{name}.json"
        record = {"n": n, "kind": kind, "convention": "block", "data": data.tolist()}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return CliInputs(A=A, B=B, C=C, M=M, gaussian=gaussian, non_gaussian=non_gaussian, paths=paths)
