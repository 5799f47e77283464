"""Reference constructions that the tests check the library against."""

import numpy as np

from sympeig import associated_matrix, euler_decompose


def s_direct_sum(mats) -> np.ndarray:
    """s-direct sum of the 2k x 2k matrices: the four quadrants of the result
    are the ordinary direct sums of the inputs' quadrants."""
    n = sum(A.shape[0] // 2 for A in mats)
    out = np.zeros((2 * n, 2 * n))
    start = 0
    for A in mats:
        k = A.shape[0] // 2
        idx = np.r_[start : start + k, n + start : n + start + k]
        out[np.ix_(idx, idx)] = A
        start += k
    return out


def mtilde_deviation(M) -> float:
    """Maximum entrywise deviation between the associated matrix of the
    symplectic M and its closed form in terms of the Euler factors.

    With U, V the unitaries X + iY read from the left blocks [X; Y] of o1, o2
    and s = (gamma + 1/gamma)/2, d = (gamma - 1/gamma)/2, each entry of the
    associated matrix equals |(U diag(d) V^T)_ij|^2 + |(U diag(s) V^*)_ij|^2.
    """
    form = euler_decompose(M)
    g, n = form.gamma, form.gamma.size
    U, V = (o[:n, :n] + 1j * o[n:, :n] for o in (form.o1, form.o2))
    rhs = np.abs((U * ((g - 1.0 / g) / 2.0)) @ V.T) ** 2 + np.abs((U * ((g + 1.0 / g) / 2.0)) @ V.conj().T) ** 2
    return float(np.max(np.abs(associated_matrix(M) - rhs)))
