r"""The three truncated kernel families and their commutative limits.

Each family maps a pair of function tuples to a function on the torus:

    poly:  S_n( sum_i alpha_i (R_n(x_i)^*)^q R_n(y_i)^q )
    prod:  S_n( prod_j R_n(g_{1,j})^* prod_j R_n(g_{2,j}) ) + beta * offset,
           where g_{i,j}(z) = base_{i,j}(x(z), y(z)) and the offset is the
           factorized 2q-fold integral prod_j int conj(g_{1,j}) int g_{2,j}
    sep:   base(smooth(x), smooth(y)) * S_n( prod_j R_n(a_j)^* prod_j R_n(a_j) )

Setting ``n = INF`` selects the pointwise commutative limits the truncated
kernels converge to:

    poly:  sum_i alpha_i (conj(x_i) y_i)^q
    prod:  prod_j conj(g_{1,j}) g_{2,j}          (offset forced to 0)
    sep:   base(x, y) * prod_j conj(a_j) a_j

Single-pair evaluation (``evaluate``) goes through the dense matrix calculus
and is the oracle the tests pin the batched route to.  Gram and cross-kernel
blocks share one block core with a single family dispatch.  Poly and the
q > 1 product chains take a mathematically identical matrix-free route,
S_n(A^* B)(z) = (1/n) (A u(z))^* (B u(z)) with u(z)_r = e^{-irz}, which turns
each Toeplitz-times-u product into windowed prefix sums.  A q = 1 product
pair is a weighted correlation of the two DFT bin rows: one cached table of
window counts K[u, v] (``_folded_reduce_matrix``), summed by frequency offset
(v - u) mod m and sent back to the grid by one inverse FFT, serves the strict
and the folded regime alike.  The separable family smooths its inputs with
``truncation.smooth``, one FFT pair per component.  ``gram_values`` runs the
core with the same samples on both sides, so the pair routes evaluate only
the upper triangle, and fills the lower one in place by the Hermitian law
k(x, y) = k(y, x)^*.

Some specs are real-valued whatever the data, because both sides of their
chain are one operator B and S_n(B^* B)(z) = (1/n) |B u(z)|^2: prod with
``bases1`` reversed equal to ``bases2`` (with or without beta, whose offset
is then |prod_j int g_{2,j}|^2) and sep with a palindromic weight tuple, at
finite n and at n = INF.  ``_real_valued`` reads this off the spec, and
their blocks are float64: a q = 1 pair sums only the half of the weight
table with offset delta <= m/2 and returns through ``irfft``, a q > 1 pair
builds its chain once and keeps the real part, and the sep and limit blocks
are real from the start.  Poly and every other spec stay complex128.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .fejer import BETA_POLICIES
from .torus import FunctionTuple, SampledFunction, TorusGrid, check_alias_free, integrate
from .truncation import grid_coefficients, sn_map, smooth, truncate

__all__ = [
    "INF",
    "GaussianKernel",
    "LinearKernel",
    "PolynomialKernel",
    "L2GaussianTupleKernel",
    "PolyKernel",
    "ProdKernel",
    "SepKernel",
    "KernelSpec",
    "evaluate",
    "k_poly",
    "k_prod",
    "k_sep",
    "kernel_limit_gap",
    "gram_values",
    "cross_values",
    "poly_factors",
]

INF = float("inf")


# ---------------------------------------------------------------------------
# base scalar kernels on pairs of complex d-vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianKernel:
    """k(u, v) = exp(-gamma |u - v|^2); values in (0, 1]."""

    gamma: float

    kind = "gaussian"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigError(f"gaussian scale must be positive, got {self.gamma}")

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        d2 = np.sum(np.abs(u - v) ** 2, axis=-1)
        return np.exp(-self.gamma * d2).astype(complex)


@dataclass(frozen=True)
class LinearKernel:
    """Sesquilinear inner product k(u, v) = sum_i conj(u_i) v_i."""

    kind = "linear"

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sum(np.conj(u) * v, axis=-1)


@dataclass(frozen=True)
class PolynomialKernel:
    """k(u, v) = (sum_i conj(u_i) v_i + offset)^degree, offset >= 0."""

    degree: int
    offset: float = 1.0

    kind = "polynomial"

    def __post_init__(self):
        object.__setattr__(self, "degree", _integer("polynomial degree", self.degree, 1))
        if self.offset < 0:
            raise ConfigError(f"polynomial offset must be >= 0, got {self.offset}")

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (np.sum(np.conj(u) * v, axis=-1) + self.offset) ** self.degree


BaseScalarKernel = GaussianKernel | LinearKernel | PolynomialKernel


@dataclass(frozen=True)
class L2GaussianTupleKernel:
    """Function-tuple kernel exp(-scale * sum_i ||x_i - y_i||^2_{L2})."""

    scale: float

    kind = "l2_gaussian"

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError(f"tuple-kernel scale must be positive, got {self.scale}")

    def __call__(self, x: FunctionTuple, y: FunctionTuple) -> complex:
        d2 = self.distance_sq(x.value_matrix()[None], y.value_matrix()[None])
        return complex(np.exp(-self.scale * d2[0]))

    def distance_sq(self, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
        """Summed squared L2 distances for stacks of value matrices (..., m, d)."""
        return np.mean(np.abs(xv - yv) ** 2, axis=-2).sum(axis=-1)


# ---------------------------------------------------------------------------
# kernel specifications
# ---------------------------------------------------------------------------


def _integer(name: str, value, low: int | None) -> int:
    """``value`` as an int >= low (any int if low is None); 2.0 counts, 2.5,
    True or "2" is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or None is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_n_q(spec: KernelSpec) -> None:
    object.__setattr__(spec, "q", _integer("degree q", spec.q, 1))
    if spec.n != INF:
        object.__setattr__(spec, "n", _integer("truncation n", spec.n, 1))


@dataclass(frozen=True)
class PolyKernel:
    """Truncated polynomial family; alpha holds one weight per component."""

    n: int | float
    q: int
    alpha: tuple[float, ...]

    family = "poly"

    def __post_init__(self):
        _check_n_q(self)
        weights = (self.alpha,) if isinstance(self.alpha, str) else self.alpha
        alpha = tuple(_real("alpha weight", a) for a in weights)
        if not alpha or any(a < 0 for a in alpha):
            raise ConfigError("alpha must be a nonempty tuple of weights >= 0")
        object.__setattr__(self, "alpha", alpha)

    @property
    def is_infinite(self) -> bool:
        return self.n == INF


@dataclass(frozen=True)
class ProdKernel:
    """Truncated product family with the positive-definiteness offset beta.

    ``bases1``/``bases2`` each hold q base scalar kernels.  beta is forced
    to 0 at n = INF, where the offset is not part of the limit kernel.
    ``beta_policy`` names one of the policies ``fejer.beta_from_policy``
    knows.  beta is always the value used: ``serialize.kernel_from_json``
    resolves a ``bound`` or ``estimate`` policy into beta when the document
    gives none, and an explicit beta wins.
    """

    n: int | float
    q: int
    bases1: tuple[BaseScalarKernel, ...]
    bases2: tuple[BaseScalarKernel, ...]
    beta: float = 0.0
    beta_policy: str = "manual"

    family = "prod"

    def __post_init__(self):
        _check_n_q(self)
        if len(self.bases1) != self.q or len(self.bases2) != self.q:
            raise ConfigError(f"need exactly q={self.q} base kernels per row")
        object.__setattr__(self, "bases1", tuple(self.bases1))
        object.__setattr__(self, "bases2", tuple(self.bases2))
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.beta_policy not in BETA_POLICIES:
            raise ConfigError(f"beta_policy must be one of {BETA_POLICIES}, "
                              f"got {self.beta_policy!r}")
        if self.n == INF:
            object.__setattr__(self, "beta", 0.0)

    @property
    def is_infinite(self) -> bool:
        return self.n == INF


@dataclass(frozen=True)
class SepKernel:
    """Truncated separable family: a tuple-level scalar kernel times the
    fixed weight function built from a_1..a_q."""

    n: int | float
    q: int
    weights: tuple[SampledFunction, ...]
    base: L2GaussianTupleKernel

    family = "sep"

    def __post_init__(self):
        _check_n_q(self)
        if len(self.weights) != self.q:
            raise ConfigError(f"need exactly q={self.q} weight functions")
        object.__setattr__(self, "weights", tuple(self.weights))
        grid = self.weights[0].grid
        if any(w.grid != grid for w in self.weights):
            raise GridMismatchError("weight functions live on different grids")

    @property
    def is_infinite(self) -> bool:
        return self.n == INF


KernelSpec = PolyKernel | ProdKernel | SepKernel


def _real_valued(spec: KernelSpec) -> bool:
    """Whether ``spec`` is real-valued for all data (see the module docstring):
    prod with bases1 reversed equal to bases2, sep with palindromic weights."""
    if isinstance(spec, ProdKernel):
        return tuple(reversed(spec.bases1)) == spec.bases2
    if isinstance(spec, SepKernel):
        return all(np.array_equal(a.values, b.values)
                   for a, b in zip(spec.weights, reversed(spec.weights)))
    return False


def _check_pair(spec: KernelSpec, x: FunctionTuple, y: FunctionTuple) -> TorusGrid:
    if x.grid != y.grid:
        raise GridMismatchError("input tuples live on different grids")
    if isinstance(spec, PolyKernel) and x.d != len(spec.alpha):
        raise ConfigError(f"alpha has {len(spec.alpha)} weights but inputs have d={x.d}")
    if x.d != y.d:
        raise ConfigError(f"input tuples have different d: {x.d} vs {y.d}")
    if isinstance(spec, SepKernel) and spec.weights[0].grid != x.grid:
        raise GridMismatchError("separable weights live on a different grid than the inputs")
    return x.grid


def _check_samples(spec: KernelSpec, samples) -> TorusGrid:
    """The one grid of a block's samples, all of one d that ``spec`` accepts."""
    grid = _check_pair(spec, samples[0], samples[0])
    for i, t in enumerate(samples):
        if t.grid != grid:
            raise GridMismatchError(f"block sample {i} is on an m={t.grid.m} grid, not m={grid.m}")
        if t.d != samples[0].d:
            raise ConfigError(f"block sample {i} has d={t.d}, not d={samples[0].d}")
    return grid


def _base_values(base: BaseScalarKernel, x: FunctionTuple, y: FunctionTuple) -> np.ndarray:
    """Grid samples of z -> base(x(z), y(z))."""
    return base.pairwise(x.value_matrix(), y.value_matrix())


# ---------------------------------------------------------------------------
# single-pair evaluation (dense reference route)
# ---------------------------------------------------------------------------


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
    grid = _check_pair(spec, x, y)
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
    grid = _check_pair(spec, x, y)
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


def _smooth_tuple(t: FunctionTuple, n: int, allow_aliasing: bool) -> FunctionTuple:
    return FunctionTuple(tuple(smooth(c, n, allow_aliasing) for c in t.components))


def k_sep(spec: SepKernel, x: FunctionTuple, y: FunctionTuple,
          allow_aliasing: bool = False) -> SampledFunction:
    grid = _check_pair(spec, x, y)
    if spec.is_infinite:
        scalar = spec.base(x, y)
        vals = np.ones(grid.m, dtype=complex)
        for a in spec.weights:
            vals *= np.conj(a.values) * a.values
        return SampledFunction(grid, scalar * vals)
    n = int(spec.n)
    scalar = spec.base(_smooth_tuple(x, n, allow_aliasing),
                       _smooth_tuple(y, n, allow_aliasing))
    wvals = sn_map(sep_weight_matrix(spec, allow_aliasing), grid).values
    return SampledFunction(grid, scalar * wvals)


def evaluate(spec: KernelSpec, x: FunctionTuple, y: FunctionTuple,
             allow_aliasing: bool = False) -> SampledFunction:
    """Evaluate one kernel value k(x, y) as a sampled function."""
    if isinstance(spec, PolyKernel):
        return k_poly(spec, x, y, allow_aliasing)
    if isinstance(spec, ProdKernel):
        return k_prod(spec, x, y, allow_aliasing)
    if isinstance(spec, SepKernel):
        return k_sep(spec, x, y, allow_aliasing)
    raise ConfigError(f"unknown kernel spec {type(spec).__name__}")


def kernel_limit_gap(spec: KernelSpec, x: FunctionTuple, y: FunctionTuple,
                     n_list, allow_aliasing: bool = False) -> list[tuple[int, float, float]]:
    """Pointwise gaps |k_n(x,y) - k_INF(x,y)| for each n in n_list.

    Returns (n, sup_gap, mean_gap) rows.  All finite-n specs share every
    parameter with the limit spec; each value is a 1 x 1 block of the batched
    core, ``cross_values``.
    """
    limit = cross_values(dataclasses.replace(spec, n=INF), [x], [y])[:, 0, 0]
    rows = []
    for n in n_list:
        if n == INF:
            raise ConfigError("gaps to the limit are taken at finite n; drop inf from n_list")
        fin = cross_values(dataclasses.replace(spec, n=int(n)), [x], [y], allow_aliasing)
        gap = np.abs(fin[:, 0, 0] - limit)
        rows.append((int(n), float(np.max(gap)), float(np.mean(gap))))
    return rows


# ---------------------------------------------------------------------------
# batched evaluation: Gram fields and cross-kernel blocks
#
# Everything below computes the same values as `evaluate`, the dense oracle
# the tests pin it to, restructured as S_n(A^* B)(z) = (1/n) (A u(z))^* (B u(z))
# with u(z)_r = e^{-irz} (O(n m) per chain factor instead of O(n^3)), or for
# q = 1 products as a DFT-domain weight table (O(nnz + m log m) per pair).
# `_block` is the one family dispatch behind both entry points.
# ---------------------------------------------------------------------------


# complex elements per (chunk, width) pair workspace; width is the q = 1 table
# size plus m, (2n-1)*m for the q > 1 chains, m*d for the n = INF limits
_PAIR_CHUNK_BUDGET = 1 << 18


def _toeplitz_times_phase(coeffs: np.ndarray, grid: TorusGrid, n: int) -> np.ndarray:
    """T u(z_p) for a stack of Toeplitz coefficient rows.

    coeffs (..., 2n-1) -> (..., n, m):  (T u(z))_r = e^{-irz} *
    (prefix-sum window r..r+n-1 of t_k e^{ikz}).
    """
    z = grid.points
    ks = np.arange(-(n - 1), n)
    phase = np.exp(1j * ks[:, None] * z[None, :])          # (2n-1, m)
    s = coeffs[..., :, None] * phase                        # (..., 2n-1, m)
    p = np.cumsum(s, axis=-2)
    win = p[..., n - 1:, :].copy()
    win[..., 1:, :] -= p[..., : n - 1, :]
    rows = np.exp(-1j * np.arange(n)[:, None] * z[None, :])
    return win * rows


def _chain_columns(coeff_stacks: list[np.ndarray], grid: TorusGrid, n: int) -> np.ndarray:
    """Columns (F_1 (F_2 (... (F_K u(z))))) for per-item factor stacks.

    coeff_stacks[k] has shape (B, 2n-1); the innermost factor uses the
    windowed prefix-sum route, outer factors apply dense Toeplitz matvecs.
    Returns (B, n, m).
    """
    cols = _toeplitz_times_phase(coeff_stacks[-1], grid, n)
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1
    for coeffs in reversed(coeff_stacks[:-1]):
        cols = np.matmul(coeffs[..., idx], cols)
    return cols


def _poly_columns(spec: PolyKernel, samples, allow_aliasing: bool) -> np.ndarray:
    """Per-sample columns W[i, c] = R_n(x_{i,c})^q u(z); shape (N, d, n, m)."""
    grid = samples[0].grid
    n = int(spec.n)
    vals = np.stack([t.value_matrix().T for t in samples])   # (N, d, m)
    coeffs = grid_coefficients(vals, n - 1, allow_aliasing)
    cols = _chain_columns([coeffs.reshape(-1, 2 * n - 1)] * spec.q, grid, n)
    return cols.reshape(len(samples), samples[0].d, n, grid.m)


def poly_factors(spec: PolyKernel, samples, allow_aliasing: bool = False) -> np.ndarray:
    """Per-point factors F[p] of a finite-n poly kernel, shape (m, d*n, N):
    row (c, r) of F[p] holds sqrt(alpha_c / n) (R_n(x_c)^q u(z_p))_r for each
    sample, so k(x_i, x_j)(z_p) = (F[p]^* F[p])[i, j].  The Gram matrix at
    every grid point thus has rank at most d*n."""
    _check_samples(spec, samples)
    w = _poly_columns(spec, samples, allow_aliasing)          # (N, d, n, m)
    N, d, n, m = w.shape
    w *= np.sqrt(np.asarray(spec.alpha) / n)[None, :, None, None]
    return w.transpose(3, 1, 2, 0).reshape(m, d * n, N)


def _inf_values_block(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, m) commutative-limit values for paired sample values a, b of
    shape (B, m, d)."""
    if isinstance(spec, PolyKernel):
        alpha = np.asarray(spec.alpha)
        return np.einsum("bmd,d->bm", (np.conj(a) * b) ** spec.q, alpha)
    if isinstance(spec, ProdKernel) and _real_valued(spec):
        # both sides hold the same factors: the value is |prod_j g_{2,j}|^2
        prod = np.ones(a.shape[:2], dtype=complex)
        for base in spec.bases2:
            prod *= base.pairwise(a, b)
        return prod.real ** 2 + prod.imag ** 2
    if isinstance(spec, ProdKernel):
        out = np.ones(a.shape[:2], dtype=complex)
        for b1, b2 in zip(spec.bases1, spec.bases2):
            out *= np.conj(b1.pairwise(a, b)) * b2.pairwise(a, b)
        return out
    raise ConfigError("no pointwise-limit block for this family")


def _folded_reduce_matrix(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Window counts K with S_n(R(g1)^* R(g2))(z_p) = (1/n) S1^* K S2, on
    their support only: returns (cols, K[cols][:, cols]).

    On the uniform grid both the folded coefficients c_k = bins[k mod m]
    and the phases e^{ikz_p} are m-periodic in k, so the length-n window
    sums W_r of s_k = c_k e^{ikz} are m-periodic in the row index r:
    W = M S with M = alpha * ones + (circular window of length n mod m),
    where S_j = bins_j e^{ijz} and n = alpha*m + rho.  Summing the row
    products with their residue multiplicities cnt gives K = M^T diag(cnt) M;
    K[u, v] counts the length-n windows holding a frequency k1 = u and a
    frequency k2 = v (mod m), for every n, strict or folded.  Only the
    min(n, m) rows with cnt > 0 and the min(2n-1, m) residues cols of
    |k| < n enter, so building K costs O(n * min(2n-1, m)^2), never O(m^3).
    Its row 0 is not the folded Fejer weight of ``truncation.smooth`` once
    n > m.
    """
    alpha, rho = divmod(n, m)
    rows = np.arange(min(n, m))
    cols = np.unique(np.mod(np.arange(-(n - 1), n), m))
    M = alpha + (np.mod(rows[:, None] - cols[None, :], m) < rho)
    cnt = (alpha + (rows < rho)).astype(float)
    return cols, M.T @ (cnt[:, None] * M)


@functools.lru_cache(maxsize=64)
def _band_table(n: int, m: int, half: bool = False) -> tuple[np.ndarray, ...]:
    """The q = 1 weight table: the nonzero entries (u, v, w) of
    ``_folded_reduce_matrix(n, m)`` sorted by delta = (v - u) mod m, with
    the start of each delta run and that run's delta.  It holds at most
    min(2n-1, m)^2 entries (3n^2 - 3n + 1 while 2n-1 <= m).  The ``half``
    table keeps only the runs with delta <= m/2, about half the entries:
    for a real-valued pair, K symmetric makes c_{-delta} = conj(c_delta), so
    those runs determine the rest."""
    cols, K = _folded_reduce_matrix(n, m)
    iu, iv = np.nonzero(K)
    u, v = cols[iu], cols[iv]
    delta = np.mod(v - u, m)
    order = np.argsort(delta, kind="stable")
    if half:
        order = order[: np.searchsorted(delta[order], m // 2, side="right")]
    u, v, delta, w = u[order], v[order], delta[order], K[iu[order], iv[order]]
    starts = np.flatnonzero(np.diff(delta, prepend=-1))
    table = (u, v, w, starts, delta[starts])
    for arr in table:
        arr.setflags(write=False)
    return table


def _band_pair_sn(bins1: np.ndarray, bins2: np.ndarray, n: int, real: bool) -> np.ndarray:
    """(B, m) values of S_n(R(g1)^* R(g2)) from raw DFT bin rows (B, m).

    S_n(z_p) = (1/n) sum_{u,v} K[u, v] conj(bins1_u) bins2_v e^{2 pi i (v-u) p/m}
    is a weighted correlation of the bin rows: summing the table by delta
    gives its DFT-domain coefficients c_delta, and one inverse FFT returns
    the grid values.  O(nnz + m log m) per item, exact in both regimes.
    A ``real`` pair (g1 = g2) sums only the half table and returns float64
    values through ``irfft``, which is exact since c_{-delta} = conj(c_delta).
    """
    m = bins1.shape[-1]
    u, v, w, starts, deltas = _band_table(n, m, real)
    terms = np.take(np.conj(bins1), u, axis=1)
    terms *= w
    terms *= np.take(bins2, v, axis=1)
    c = np.zeros((len(bins1), m // 2 + 1 if real else m), dtype=complex)
    c[:, deltas] = np.add.reduceat(terms, starts, axis=1)
    if real:
        return np.fft.irfft(c, m, axis=1) * (m / n)
    return np.fft.ifft(c, axis=1) * (m / n)


def _folded_pair_sn(bins1: np.ndarray, bins2: np.ndarray, n: int, real: bool) -> np.ndarray:
    """The folded-regime (m < n) entry to ``_band_pair_sn``, where every
    residue pair (u, v) carries weight; strict pairs call ``_band_pair_sn``
    themselves."""
    return _band_pair_sn(bins1, bins2, n, real)


def _prod_pair_values(spec: ProdKernel, a: np.ndarray, b: np.ndarray, grid: TorusGrid,
                      allow_aliasing: bool) -> np.ndarray:
    """(B, m) finite-n product-kernel values for paired sample values a, b
    of shape (B, m, d); float64 for a real-valued spec."""
    n = int(spec.n)
    m = grid.m
    real = _real_valued(spec)
    check_alias_free(n - 1, m, allow_aliasing)
    # (B, m) DFT bins of z -> base(a(z), b(z)), once per distinct base kernel
    bins = {base: np.fft.fft(base.pairwise(a, b), axis=-1) / m
            for base in set(spec.bases1 + spec.bases2)}
    bins1 = [bins[base] for base in spec.bases1]
    bins2 = [bins[base] for base in spec.bases2]
    if spec.q == 1 and m < n:
        vals = _folded_pair_sn(bins1[0], bins2[0], n, real)
    elif spec.q == 1:
        vals = _band_pair_sn(bins1[0], bins2[0], n, real)
    else:
        ks = np.mod(np.arange(-(n - 1), n), m)
        # (prod_j T1_j^*)^* u = T1_q ... T1_1 u ; right chain is T2_1 ... T2_q u,
        # the same chain when the spec is real-valued
        right = _chain_columns([bn[..., ks] for bn in bins2], grid, n)
        left = right if real else _chain_columns([bn[..., ks] for bn in reversed(bins1)],
                                                 grid, n)
        vals = np.einsum("brp,brp->bp", np.conj(left), right) / n
        if real:
            vals = vals.real
    if spec.beta:
        # normalized means are the k = 0 bins
        off = np.ones(len(a), dtype=complex)
        for ca, cb in zip(bins1, bins2):
            off *= np.conj(ca[:, 0]) * cb[:, 0]
        vals = vals + spec.beta * (off.real if real else off)[:, None]
    return vals


def _sep_blocks(spec: SepKernel, xs, ys, allow_aliasing: bool) -> np.ndarray:
    """(m, Nx, Ny) separable-kernel block; float64 for palindromic weights."""
    grid = xs[0].grid
    if spec.is_infinite:
        wvals = np.ones(grid.m, dtype=complex)
        for a in spec.weights:
            wvals *= np.conj(a.values) * a.values
        prepare = FunctionTuple.value_matrix
    else:
        wvals = sn_map(sep_weight_matrix(spec, allow_aliasing), grid).values
        prepare = lambda t: _smooth_tuple(t, int(spec.n), allow_aliasing).value_matrix()
    if _real_valued(spec):
        wvals = wvals.real
    xv = np.stack([prepare(t) for t in xs])
    yv = xv if ys is xs else np.stack([prepare(t) for t in ys])
    # (Nx, Ny) distances in row chunks: each builds (rows, Ny, m, d) temporaries
    d2 = np.empty((len(xv), len(yv)))
    rows = max(1, _PAIR_CHUNK_BUDGET // yv[0].size // len(yv))
    for lo in range(0, len(xv), rows):
        d2[lo : lo + rows] = spec.base.distance_sq(xv[lo : lo + rows, None], yv[None, :])
    return wvals[:, None, None] * np.exp(-spec.base.scale * d2)[None, :, :]


def _block(spec: KernelSpec, xs: list, ys: list, allow_aliasing: bool) -> np.ndarray:
    """(m, Nx, Ny) block K[p, i, j] = k(xs[i], ys[j])(z_p).

    Poly and sep use their factorized whole-block routes; finite prod and the
    n = INF limits evaluate index pairs in chunks bounded by
    ``_PAIR_CHUNK_BUDGET``.  When ``ys is xs`` those pair routes evaluate only
    the pairs j >= i and leave the strict lower triangle unset.  A
    real-valued spec (``_real_valued``) gets a float64 block.
    """
    same = ys is xs
    grid = _check_samples(spec, xs if same else xs + ys)
    if isinstance(spec, SepKernel):
        return _sep_blocks(spec, xs, ys, allow_aliasing)
    if isinstance(spec, PolyKernel) and not spec.is_infinite:
        fx = poly_factors(spec, xs, allow_aliasing)
        fy = fx if same else poly_factors(spec, ys, allow_aliasing)
        return np.conj(fx).transpose(0, 2, 1) @ fy
    xv = np.stack([t.value_matrix() for t in xs])            # (Nx, m, d)
    yv = xv if same else np.stack([t.value_matrix() for t in ys])
    if same:
        pairs_i, pairs_j = np.triu_indices(len(xs))
    else:
        pairs_i, pairs_j = np.divmod(np.arange(len(xs) * len(ys)), len(ys))
    real = _real_valued(spec)
    if spec.is_infinite:
        width = grid.m * xv.shape[-1]
    elif spec.q == 1:
        width = len(_band_table(int(spec.n), grid.m, real)[0]) + grid.m
    else:
        width = (2 * int(spec.n) - 1) * grid.m
    chunk = max(1, _PAIR_CHUNK_BUDGET // width)
    out = np.empty((grid.m, len(xs), len(ys)), dtype=float if real else complex)
    for lo in range(0, len(pairs_i), chunk):
        ci, cj = pairs_i[lo : lo + chunk], pairs_j[lo : lo + chunk]
        if spec.is_infinite:
            vals = _inf_values_block(spec, xv[ci], yv[cj])
        else:
            vals = _prod_pair_values(spec, xv[ci], yv[cj], grid, allow_aliasing)
        out[:, ci, cj] = vals.T
    return out


def cross_values(spec: KernelSpec, xs, ys, allow_aliasing: bool = False) -> np.ndarray:
    """Full cross-kernel block K[p, i, j] = k(xs[i], ys[j])(z_p), (m, Nx, Ny)."""
    return _block(spec, list(xs), list(ys), allow_aliasing)


def gram_values(spec: KernelSpec, xs, allow_aliasing: bool = False) -> tuple[np.ndarray, int]:
    """Hermitian Gram field G[p, i, j] = k(xs[i], xs[j])(z_p).

    The block core evaluates the upper triangle (N(N+1)/2 pair evaluations
    on the pair routes); the strict lower triangle is then overwritten in
    place, one grid point at a time, with the conjugate of the upper one.
    The field is float64 for a real-valued spec, complex128 otherwise.
    Returns (field, N(N+1)/2).
    """
    xs = list(xs)
    N = len(xs)
    field = _block(spec, xs, xs, allow_aliasing)
    lower = np.tri(N, k=-1, dtype=bool)
    for mat in field:
        np.copyto(mat, mat.T.conj(), where=lower)
    return field, N * (N + 1) // 2
