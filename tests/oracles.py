"""The Fejer lattice oracle: test-only, independent of ``spectrunc.fejer``'s
chain form, which the tests pin to it."""

import itertools

import numpy as np

from spectrunc.errors import BudgetError
from spectrunc.fejer import ORACLE_MAX_Q

ORACLE_MAX_N = 8
LATTICE_MAX_M = 4


def _window_maxabs(r) -> float:
    """max over 1 <= l <= k <= len(r) of |sum_{i=l}^{k} r_i|."""
    best = 0
    for l in range(len(r)):
        s = 0
        for k in range(l, len(r)):
            s += r[k]
            a = abs(s)
            if a > best:
                best = a
    return best


def polyhedron_contains(r, scale: float = 1.0) -> bool:
    """Membership in the dilate scale*P of the polyhedron of bounded partial
    sums: every contiguous window sum of r is at most scale in modulus."""
    if scale < 0:
        raise ValueError(f"dilation scale must be >= 0, got {scale}")
    return _window_maxabs(tuple(r)) <= scale


def fejer_multi_oracle(n: int, q: int, t) -> np.ndarray | float:
    """Independent evaluation of the Fejer kernel by lattice enumeration.

    For each shell j = 0..n-1, sums e^{i r.t} over every integer vector r
    in [-(n-1), n-1]^{2q} whose partial-sum windows are all bounded by j,
    then divides by n.  Guarded to n <= 8, q <= 2.
    """
    if n > ORACLE_MAX_N or q > ORACLE_MAX_Q:
        raise BudgetError(f"oracle guarded to n<={ORACLE_MAX_N}, q<={ORACLE_MAX_Q}")
    if q < 1 or n < 1:
        raise ValueError("need n >= 1 and q >= 1")
    t_arr = np.atleast_2d(np.asarray(t, dtype=float))
    if t_arr.shape[-1] != 2 * q:
        raise ValueError(f"expected points in T^{2 * q}")
    vectors = np.array(
        list(itertools.product(range(-(n - 1), n), repeat=2 * q)), dtype=int
    )
    window = np.array([_window_maxabs(tuple(r)) for r in vectors])
    phases = np.exp(1j * vectors @ t_arr.reshape(-1, 2 * q).T)
    acc = np.zeros(t_arr.reshape(-1, 2 * q).shape[0], dtype=complex)
    for j in range(n):
        acc += phases[window <= j].sum(axis=0)
    out = (acc / n).real.reshape(np.shape(t)[:-1])
    return out if out.ndim else float(out)


def lattice_points_mP(m: int, q: int) -> set[tuple[int, ...]]:
    """Integer points of the dilate m*P: vectors in [-m, m]^{2q} whose
    partial-sum windows are all bounded by m."""
    if m > LATTICE_MAX_M or q > ORACLE_MAX_Q:
        raise BudgetError(f"guarded to m<={LATTICE_MAX_M}, q<={ORACLE_MAX_Q}")
    if m < 0 or q < 1:
        raise ValueError("need m >= 0 and q >= 1")
    return {
        r
        for r in itertools.product(range(-m, m + 1), repeat=2 * q)
        if polyhedron_contains(r, m)
    }


def q_set_union(m: int, q: int) -> set[tuple[int, ...]]:
    """The same set built the other way: difference vectors of integer paths
    r_0..r_{2q} in [0, m]^{2q+1} that touch the ceiling (some r_j = m)."""
    if m > LATTICE_MAX_M or q > ORACLE_MAX_Q:
        raise BudgetError(f"guarded to m<={LATTICE_MAX_M}, q<={ORACLE_MAX_Q}")
    if m < 0 or q < 1:
        raise ValueError("need m >= 0 and q >= 1")
    out: set[tuple[int, ...]] = set()
    for path in itertools.product(range(m + 1), repeat=2 * q + 1):
        if max(path) == m:
            out.add(tuple(path[i + 1] - path[i] for i in range(2 * q)))
    return out
