"""Test-only oracles, each independent of the code the tests pin to it.

- The Fejer lattice enumeration, for ``spectrunc.fejer``'s chain form.
- The dense n x n matrix calculus of the kernel definitions (``k_poly``,
  ``k_prod``, ``k_sep``, ``dense_evaluate``), for the batched kernel core:
  it multiplies the truncations R_n as dense Toeplitz matrices, O(n^3) per
  value, and maps the product back by ``sn_map``.
- Direct sums for single Fourier coefficients, window integrals and the
  classical Fejer kernel on T.
"""

import itertools

import numpy as np

from spectrunc.errors import BudgetError, ConfigError
from spectrunc.fejer import ORACLE_MAX_Q, dirichlet
from spectrunc.kernels import PolyKernel, ProdKernel, SepKernel, _base_values, _values
from spectrunc.torus import (FunctionTuple, SampledFunction, TorusGrid, check_alias_free,
                             integrate, window_membership)
from spectrunc.truncation import smooth, sn_map_at, truncate

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


# ---------------------------------------------------------------------------
# direct sums on the torus
# ---------------------------------------------------------------------------


def fourier_coeff(f: SampledFunction, k: int) -> complex:
    """k-th Fourier coefficient (1/m) sum_p f(z_p) e^{-ik z_p}.

    Raises
    ------
    AliasingError
        If |k| >= m/2: the rectangle rule folds coefficient k onto
        k mod m and the result would be corrupted by aliasing.
    """
    check_alias_free(abs(k), f.grid.m, False)
    return complex(np.mean(f.values * np.exp(-1j * k * f.grid.points)))


def window_integral(f: SampledFunction, z: float, delta: float) -> complex:
    """Unnormalized windowed integral int_{z-delta}^{z+delta} f(t) dt,
    approximated by (2*pi/m) * sum over grid points within circular
    distance delta of z."""
    if not 0.0 < delta < np.pi:
        raise ValueError(f"window half-width must satisfy 0 < delta < pi, got {delta}")
    mask = window_membership(f.grid, z, delta)
    return complex(f.grid.spacing * np.sum(f.values[mask]))


def fejer_1d(n: int, t) -> np.ndarray | float:
    """Classical Fejer kernel F_n(t) = (1/n) |D_n(t)|^2; real and nonnegative."""
    d = np.asarray(dirichlet(n, t))
    out = (d.real**2 + d.imag**2) / n
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the dense matrix calculus of the kernel definitions
# ---------------------------------------------------------------------------


def sn_map(A: np.ndarray, grid: TorusGrid) -> SampledFunction:
    """S_n(A) sampled on the grid."""
    return SampledFunction(grid, sn_map_at(A, grid.points))


def _dense_chain(fs1, fs2, n: int, allow_aliasing: bool) -> np.ndarray:
    """prod_j R_n(fs1[j])^* prod_j R_n(fs2[j]), multiplied left to right: the
    n x n matrix whose S_n map is a finite-n truncated kernel value."""
    left = np.eye(n, dtype=complex)
    for f in fs1:
        left = left @ truncate(f, n, allow_aliasing).dense().conj().T
    right = np.eye(n, dtype=complex)
    for f in fs2:
        right = right @ truncate(f, n, allow_aliasing).dense()
    return left @ right


def k_poly(spec: PolyKernel, x: FunctionTuple, y: FunctionTuple,
           allow_aliasing: bool = False) -> SampledFunction:
    _values(spec, [x, y], allow_aliasing)
    grid = x.grid
    if spec.is_infinite:
        vals = np.zeros(grid.m, dtype=complex)
        for a, xc, yc in zip(spec.alpha, x.components, y.components):
            vals += a * (np.conj(xc.values) * yc.values) ** spec.q
        return SampledFunction(grid, vals)
    n = int(spec.n)
    acc = np.zeros((n, n), dtype=complex)
    for a, xc, yc in zip(spec.alpha, x.components, y.components):
        acc += a * _dense_chain([xc] * spec.q, [yc] * spec.q, n, allow_aliasing)
    return sn_map(acc, grid)


def prod_offset(spec: ProdKernel, x: FunctionTuple, y: FunctionTuple) -> complex:
    """The factorized 2q-fold integral multiplying beta:
    prod_j int conj(g_{1,j}) dt * int g_{2,j} dt (normalized measure)."""
    grid = x.grid
    out = 1.0 + 0.0j
    for b1, b2 in zip(spec.bases1, spec.bases2):
        g1 = SampledFunction(grid, _base_values(b1, x, y))
        g2 = SampledFunction(grid, _base_values(b2, x, y))
        out *= integrate(g1.conj()) * integrate(g2)
    return out


def k_prod(spec: ProdKernel, x: FunctionTuple, y: FunctionTuple,
           allow_aliasing: bool = False) -> SampledFunction:
    _values(spec, [x, y], allow_aliasing)
    grid = x.grid
    g1 = [SampledFunction(grid, _base_values(b, x, y)) for b in spec.bases1]
    g2 = [SampledFunction(grid, _base_values(b, x, y)) for b in spec.bases2]
    if spec.is_infinite:
        vals = np.ones(grid.m, dtype=complex)
        for f1, f2 in zip(g1, g2):
            vals *= np.conj(f1.values) * f2.values
        return SampledFunction(grid, vals)
    vals = sn_map(_dense_chain(g1, g2, int(spec.n), allow_aliasing), grid).values
    if spec.beta:
        vals = vals + spec.beta * prod_offset(spec, x, y)
    return SampledFunction(grid, vals)


def sep_weight_matrix(spec: SepKernel, allow_aliasing: bool = False) -> np.ndarray:
    """prod_j R_n(a_j)^* prod_j R_n(a_j) for finite n."""
    return _dense_chain(spec.weights, spec.weights, int(spec.n), allow_aliasing)


def k_sep(spec: SepKernel, x: FunctionTuple, y: FunctionTuple,
          allow_aliasing: bool = False) -> SampledFunction:
    _values(spec, [x, y], allow_aliasing)
    grid = x.grid
    if spec.is_infinite:
        weights = np.ones(grid.m, dtype=complex)
        for a in spec.weights:
            weights *= np.conj(a.values) * a.values
    else:
        n = int(spec.n)
        x, y = (FunctionTuple(tuple(smooth(c, n, allow_aliasing) for c in t.components))
                for t in (x, y))
        weights = sn_map(sep_weight_matrix(spec, allow_aliasing), grid).values
    return SampledFunction(grid, spec.base(x, y) * weights)


def dense_evaluate(spec, x: FunctionTuple, y: FunctionTuple,
                   allow_aliasing: bool = False) -> SampledFunction:
    """One kernel value k(x, y) by the dense calculus of its family."""
    if isinstance(spec, PolyKernel):
        return k_poly(spec, x, y, allow_aliasing)
    if isinstance(spec, ProdKernel):
        return k_prod(spec, x, y, allow_aliasing)
    if isinstance(spec, SepKernel):
        return k_sep(spec, x, y, allow_aliasing)
    raise ConfigError(f"unknown kernel spec {type(spec).__name__}")
