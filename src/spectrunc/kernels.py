r"""The three truncated kernel families and their commutative limits.

Each family maps a pair of function tuples to a function on the torus:

    poly:  S_n( sum_i alpha_i (R_n(x_i)^*)^q R_n(y_i)^q )
    prod:  S_n( prod_j R_n(g_{1,j})^* prod_j R_n(g_{2,j}) ) + beta * offset,
           where g_{i,j}(z) = base_{i,j}(x(z), y(z)) and the offset is the
           factorized 2q-fold integral prod_j int conj(g_{1,j}) int g_{2,j}
    sep:   base(smooth(x), smooth(y)) * S_n( B^* B ),  B = R_n(a_1) ... R_n(a_q)

Setting ``n = INF`` selects the pointwise commutative limits the truncated
kernels converge to:

    poly:  sum_i alpha_i (conj(x_i) y_i)^q
    prod:  prod_j conj(g_{1,j}) g_{2,j}          (offset forced to 0)
    sep:   base(x, y) * prod_j conj(a_j) a_j

Every kernel value comes from one batched core; a single pair
(``evaluate``) is a 1 x 1 block.  The tests pin the core to the dense n x n
matrix calculus of the definitions, which lives only in the tests.  Gram
and cross-kernel blocks share one core: one check reads a block's samples
into one (N, m, d) array, then a single family dispatch.  Poly, the q > 1
product chains and the sep weight function take a matrix-free route,
S_n(A^* B)(z) = (1/n) (A u(z))^* (B u(z)) with u(z)_r = e^{-irz}.  On the
m-point grid the folded coefficients c_k = bins[k mod m] and the phases
e^{ikz_p} are m-periodic in k, so past n = m a truncated chain has only m
distinct rows, row r counted cnt_r times (``_fold``): every batched route
works on min(n, m) rows.  Each Toeplitz-times-u product is then one
inverse FFT of the bin rows shifted by r (``_toeplitz_times_phase``).  A
q = 1 product pair with n <= m is a weighted correlation of the two
spectra on the min(2n - 1, m) frequencies |k| < n: one cached table of
window counts K[u, v] (``_band_table``), summed by frequency offset
(v - u) mod m and sent back to the grid by one inverse FFT.  For n > m the
folded identity n S_n = sum_r cnt_r conj(W1_r) W2_r splits it into FFT
terms and an order-(n mod m) table (``_folded_pair_sn``).  The separable
family smooths each block side by one batched FFT pair
(``truncation.smooth``) and takes its L2 distances from one matrix
product of the samples centered on the block's mean (``_sep_distance_sq``).
Finite prod and the n = INF limits walk each block in row tiles, rows
i0:i1 broadcast against the columns, one call and one contiguous slab per
tile, all on the thread that calls the block.
Every kernel is Hermitian, k(x, y) = k(y, x)^*.  ``gram_values`` runs the
core with the same samples on both sides, so a tile takes only the columns
j >= i0, and fills the strict lower triangle of poly and prod in place by
that law; a sep block is real and exactly symmetric as computed.

A chain whose sides are one operator B is real and >= 0: S_n(B^* B)(z) =
(1/n) |B u(z)|^2.  The sep weight is such a chain for any weight tuple, as
a positive definite separable kernel needs, and every sep block is float64.
So is a prod spec with ``bases1`` reversed equal to ``bases2`` (beta's
offset is then |prod_j int g_{2,j}|^2), at finite n and at n = INF
(``_real_valued``).  A q = 1 pair of float64 (Gaussian) base values keeps
its ``rfft`` half spectrum and sums a merged table, the equal terms (u, v)
and (-v, -u) as one entry, back through ``irfft``; other such pairs and
q > 1 chains (built once) keep the real part, and the limit blocks are real
from the start.  Poly and every other prod spec stay complex128.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GridMismatchError
from .fejer import BETA_POLICIES, beta_from_policy
from .torus import FunctionTuple, SampledFunction, check_alias_free
from .truncation import _fejer_weights
from .truncation import smooth  # noqa: F401  kept as kernels.smooth, which perfbench's probes time

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
    """k(u, v) = exp(-gamma |u - v|^2); values in (0, 1], as float64.

    |u - v|^2 sums the squared real and imaginary parts of the direct
    difference, one component at a time, in place: over an inner dimension
    of only d, a norm expansion would gain nothing and add cancellation."""

    gamma: float

    kind = "gaussian"

    def __post_init__(self):
        if not 0 < _real("gaussian scale", self.gamma):
            raise ConfigError(f"gaussian scale must be positive and finite, got {self.gamma}")

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        d2 = None
        for i in range(u.shape[-1]):
            for part in (np.real, np.imag):
                diff = part(u[..., i : i + 1]) - part(v[..., i : i + 1])  # stays an array
                diff *= diff
                d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        d2 *= -self.gamma
        return np.exp(d2, out=d2)[..., 0]


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
        if not 0 <= _real("polynomial offset", self.offset):
            raise ConfigError(f"polynomial offset must be finite and >= 0, got {self.offset}")

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (np.sum(np.conj(u) * v, axis=-1) + self.offset) ** self.degree


BaseScalarKernel = GaussianKernel | LinearKernel | PolynomialKernel


@dataclass(frozen=True)
class L2GaussianTupleKernel:
    """Function-tuple kernel exp(-scale * sum_i ||x_i - y_i||^2_{L2}).

    The blocks take its distances from one Gram product
    (``_sep_distance_sq``); base(x, x) = 1, which is all the complexity
    term needs of it."""

    scale: float

    kind = "l2_gaussian"

    def __post_init__(self):
        if not 0 < _real("tuple-kernel scale", self.scale):
            raise ConfigError(f"tuple-kernel scale must be positive and finite, got {self.scale}")


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
    """``value`` as a float; a bool, a string, None, NaN or +-inf is a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_n_q(spec: KernelSpec) -> None:
    object.__setattr__(spec, "q", _integer("degree q", spec.q, 1))
    if spec.n != INF:
        object.__setattr__(spec, "n", _integer("truncation n", spec.n, 1))


class _Truncated:
    """A kernel family with truncation order n; n = INF selects its limit."""

    @property
    def is_infinite(self) -> bool:
        return self.n == INF


@dataclass(frozen=True)
class PolyKernel(_Truncated):
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


@dataclass(frozen=True)
class ProdKernel(_Truncated):
    """Truncated product family with the positive-definiteness offset beta.

    ``bases1``/``bases2`` each hold q base scalar kernels.  After
    construction beta is the float used, wherever the spec is built: a
    beta left unset is the ``beta_policy``'s beta_n at this n
    (``fejer.beta_from_policy``), or 0 under ``manual``; a given beta is
    used as is.  beta is forced to 0 at n = INF, where the offset is not
    part of the limit kernel.
    """

    n: int | float
    q: int
    bases1: tuple[BaseScalarKernel, ...]
    bases2: tuple[BaseScalarKernel, ...]
    beta: float | None = None
    beta_policy: str = "manual"

    family = "prod"

    def __post_init__(self):
        _check_n_q(self)
        if len(self.bases1) != self.q or len(self.bases2) != self.q:
            raise ConfigError(f"need exactly q={self.q} base kernels per row")
        object.__setattr__(self, "bases1", tuple(self.bases1))
        object.__setattr__(self, "bases2", tuple(self.bases2))
        if self.beta_policy not in BETA_POLICIES:
            raise ConfigError(f"beta_policy must be one of {BETA_POLICIES}, "
                              f"got {self.beta_policy!r}")
        beta = self.beta
        if beta is None:
            beta = (0.0 if self.beta_policy == "manual" or self.n == INF
                    else beta_from_policy(self.beta_policy, self.n, self.q))
        if (beta := _real("beta", beta)) < 0:
            raise ConfigError(f"beta must be finite and >= 0, got {beta}")
        object.__setattr__(self, "beta", 0.0 if self.n == INF else beta)


@dataclass(frozen=True)
class SepKernel(_Truncated):
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


KernelSpec = PolyKernel | ProdKernel | SepKernel


def _real_valued(spec: KernelSpec) -> bool:
    """Whether ``spec`` is a prod spec real for all data: bases1 reversed equals bases2."""
    return isinstance(spec, ProdKernel) and tuple(reversed(spec.bases1)) == spec.bases2


def _values(spec: KernelSpec, samples, allow_aliasing: bool) -> np.ndarray:
    """The (N, m, d) values of a block's samples (or of one pair), all of one
    grid and one d that ``spec`` accepts, after the block's one alias check."""
    if not isinstance(spec, KernelSpec):
        raise ConfigError(f"unknown kernel spec {type(spec).__name__}")
    if not samples:
        raise ConfigError("a kernel block needs at least one sample")
    grid, d = samples[0].grid, samples[0].d
    if isinstance(spec, PolyKernel) and d != len(spec.alpha):
        raise ConfigError(f"alpha has {len(spec.alpha)} weights but inputs have d={d}")
    if isinstance(spec, SepKernel) and spec.weights[0].grid != grid:
        raise GridMismatchError("separable weights live on a different grid than the inputs")
    for i, t in enumerate(samples):
        if t.grid != grid:
            raise GridMismatchError(f"block sample {i} is on an m={t.grid.m} grid, not m={grid.m}")
        if t.d != d:
            raise ConfigError(f"block sample {i} has d={t.d}, not d={d}")
    if not spec.is_infinite:
        check_alias_free(int(spec.n) - 1, grid.m, allow_aliasing)
    return np.stack([t.value_matrix() for t in samples])


# ---------------------------------------------------------------------------
# single-pair evaluation
# ---------------------------------------------------------------------------


def evaluate(spec: KernelSpec, x: FunctionTuple, y: FunctionTuple,
             allow_aliasing: bool = False) -> SampledFunction:
    """One kernel value k(x, y) as a sampled function: a 1 x 1 block."""
    return SampledFunction(x.grid, _block(spec, [x], [y], allow_aliasing)[:, 0, 0])


# ---------------------------------------------------------------------------
# batched evaluation: Gram fields and cross-kernel blocks
#
# Everything below computes the values the dense n x n calculus of the
# definitions gives (the tests' oracle), restructured as
# S_n(A^* B)(z) = (1/n) (A u(z))^* (B u(z)) with u(z)_r = e^{-irz} on the
# min(n, m) distinct rows (O(min(n, m) m log m) per chain factor instead of
# O(n^3)), or for q = 1 products as a DFT-domain weight table
# (O(nnz + m log m) per pair) plus FFT terms past n = m.
# `_block` is the one family dispatch behind both entry points.
# ---------------------------------------------------------------------------


# complex elements of row-tile workspace live at once, height x Ny x a per-pair
# width: the q = 1 table size plus m (8m past n = m), (2 min(n, m) - 1)*m for
# q > 1, m*d at n = INF
_PAIR_CHUNK_BUDGET = 1 << 18


def _fold(n: int, m: int) -> tuple[int, int, np.ndarray]:
    """(alpha, rho, cnt) with n = alpha*m + rho, 1 <= rho <= m: the rows r
    and r + m of a truncated chain on the m-point grid agree, so it has
    min(n, m) distinct rows, row r standing for cnt[r] = alpha + [r < rho]
    of them.  For n <= m, alpha = 0, rho = n and every cnt is 1."""
    alpha, rho = divmod(n - 1, m)
    return alpha, rho + 1, alpha + (np.arange(min(n, m)) <= rho)


def _residue_index(n: int, m: int) -> np.ndarray:
    """(r - s) mod m over the min(n, m) distinct rows r, s of ``_fold``."""
    r = np.arange(min(n, m))
    return np.mod(r[:, None] - r[None, :], m)


def _truncation_norms(values: np.ndarray, n: int) -> np.ndarray:
    """Operator norms ||R_n(g)|| for a stack of grid values (..., m) of g.

    With c = fft(g) / m, R_n(g) = E C E^T, C[r, s] = c[(r - s) mod m] on the
    min(n, m) residues and E^T E = diag(cnt) (``_fold``), so ||R_n(g)|| =
    ||diag(sqrt(cnt)) C diag(sqrt(cnt))||: O(min(n, m)^3) at any n."""
    m = values.shape[-1]
    w = np.sqrt(_fold(n, m)[2])
    C = (np.fft.fft(values, axis=-1) / m)[..., _residue_index(n, m)] * w[:, None] * w
    return np.linalg.norm(C, ord=2, axis=(-2, -1))


def _toeplitz_times_phase(bins: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """T u(z_p) on its min(n, m) distinct rows (``_fold``) for a stack of
    DFT bin rows, where T is the n x n Toeplitz matrix of c_k = bins[k mod m].

    bins (..., m) -> (..., min(n, m), m), in ``out`` if given.  Both factors
    of (T u(z_p))_r = sum_{j<n} c_{r-j} e^{-ijz_p} depend on j mod m only,
    and the n columns hold alpha + [s < rho] of each residue s, so with k =
    -j mod m, (T u(z_p))_r = m ifft_k(bins[(k + r) mod m] (alpha + [-k mod m < rho]))[p]:
    one inverse FFT, in place, of the bin rows shifted by r (a strided view),
    with no phase table and no differences of running sums to cancel.
    """
    m = bins.shape[-1]
    alpha, rho, cnt = _fold(n, m)
    weight = m * (alpha + (np.mod(-np.arange(m), m) < rho))
    wrapped = np.concatenate([bins, bins[..., : len(cnt) - 1]], axis=-1)
    cols = np.multiply(sliding_window_view(wrapped, m, axis=-1), weight, out=out)
    return np.fft.ifft(cols, axis=-1, out=cols)


def _chain_columns(bin_stacks: list[np.ndarray], n: int,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Columns (F_1 (F_2 (... (F_K u(z))))) on their min(n, m) distinct rows,
    and the rows' multiplicities cnt (``_fold``), for per-item DFT bin stacks.

    bin_stacks[k] has shape (..., m); the innermost factor is one inverse FFT
    of shifted bin rows.  An outer factor meets an m-periodic column, so it acts
    as the min(n, m)-square matrix bins[(r - s) mod m] * cnt[s].  Returns
    (..., min(n, m), m) columns, in ``out`` if given, and cnt.  A longer chain
    is built in eight slabs of items copied into ``out``: a strided matmul rounds differently.
    """
    m = bin_stacks[-1].shape[-1]
    cnt = _fold(n, m)[2]
    if out is not None and len(bin_stacks) > 1:
        step = -(-len(out) // 8)
        for i in range(0, len(out), step):
            out[i : i + step] = _chain_columns([b[i : i + step] for b in bin_stacks], n)[0]
        return out, cnt
    cols = _toeplitz_times_phase(bin_stacks[-1], n, out)
    idx = _residue_index(n, m)
    for bins in reversed(bin_stacks[:-1]):
        factor = bins[..., idx]        # cnt is all ones for n <= m
        cols = np.matmul(np.multiply(factor, cnt, out=factor) if n > m else factor, cols)
    return cols, cnt


def _chain_sn(s1: list, s2: list, n: int, real: bool) -> np.ndarray:
    """(B, m) values of S_n(prod_j R(g1_j)^* prod_j R(g2_j)) from the
    unnormalized ``fft`` rows (B, m) of each g1_j and g2_j.

    (prod_j T1_j^*)^* u = T1_q ... T1_1 u and the right chain is
    T2_1 ... T2_q u, each on its ``_chain_columns`` rows weighted by cnt; a
    ``real`` spec's two chains are one, built once (the result stays complex).
    """
    m = s2[0].shape[-1]
    right, cnt = _chain_columns([c / m for c in s2], n)
    left = right if real else _chain_columns([c / m for c in s1[::-1]], n)[0]
    return np.einsum("brp,brp->bp", np.conj(left), right * cnt[:, None]) / n


def _poly_columns(spec: PolyKernel, values: np.ndarray) -> np.ndarray:
    """``poly_factors`` of (N, m, d) sample values, written through a view of F."""
    N, m, d = values.shape
    n = int(spec.n)
    bins = np.fft.fft(np.ascontiguousarray(values.transpose(0, 2, 1)), axis=-1)  # (N, d, m)
    bins /= m
    # the factor sqrt(alpha_c / n) rides on the innermost bins, sqrt(cnt_r) is 1 for n <= m
    inner = bins * np.sqrt(np.asarray(spec.alpha) / n)[:, None]
    F = np.empty((m, d, min(n, m), N), dtype=complex)
    cnt = _chain_columns([bins] * (spec.q - 1) + [inner], n, F.transpose(3, 1, 2, 0))[1]
    if n > m:
        F *= np.sqrt(cnt)[:, None]
    return F.reshape(m, d * len(cnt), N)


def _adjoint(F: np.ndarray, T: np.ndarray) -> np.ndarray:
    """F[p]^* T[p] for every grid point p, (m, F.shape[2], T.shape[2]), one
    point at a time into one preallocated array: no conjugate copy of F."""
    out = np.empty((len(F), F.shape[2], T.shape[2]), dtype=complex)
    for p in range(len(F)):
        np.matmul(np.conj(F[p]).T, T[p], out=out[p])
    return out


def poly_factors(spec: PolyKernel, samples, allow_aliasing: bool = False) -> np.ndarray:
    """Per-point factors F[p] of a finite-n poly kernel, shape
    (m, d*min(n, m), N): row (c, r) of F[p] holds
    sqrt(alpha_c cnt_r / n) (R_n(x_c)^q u(z_p))_r for each sample, over the
    distinct rows r of ``_fold``, so k(x_i, x_j)(z_p) = (F[p]^* F[p])[i, j].
    The Gram matrix at every grid point thus has rank at most d*min(n, m)."""
    return _poly_columns(spec, _values(spec, samples, allow_aliasing))


def _inf_values_block(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m) commutative-limit values of a poly or prod spec (``_block``
    returns sep before any tile) for sample values a, b (..., m, d) that
    broadcast together, a row tile (T, 1, m, d) against (1, W, m, d)."""
    if isinstance(spec, PolyKernel):
        alpha = np.asarray(spec.alpha)
        return np.einsum("...d,d->...", (np.conj(a) * b) ** spec.q, alpha)
    # once per distinct base; real arithmetic throughout when every base
    # value is real, and a real-valued spec's value is |prod_j g_{2,j}|^2
    g = {base: base.pairwise(a, b) for base in set(spec.bases1 + spec.bases2)}
    out = 1.0
    for b1, b2 in zip(spec.bases1, spec.bases2):
        out = out * (np.conj(g[b1]) * g[b2])
    return out.real if _real_valued(spec) else out


def _band_support(n: int, m: int) -> np.ndarray:
    """The min(2n-1, m) residues mod m of the frequencies |k| < n, sorted."""
    return np.unique(np.mod(np.arange(1 - n, n), m))


@functools.lru_cache(maxsize=64)
def _band_table(n: int, m: int, merged: bool = False) -> tuple[np.ndarray, ...]:
    """The q = 1 weight table for n <= m: the nonzero entries (i, j, w) of
    the window counts K with S_n(R(g1)^* R(g2))(z_p) = (1/n) S1^* K S2,
    sorted by delta = (v - u) mod m, with the start of each delta run and
    that run's delta; i and j index u and v in ``_band_support(n, m)``.

    Here S_j = bins_j e^{ijz_p}, and K[u, v] counts the rows r < n whose
    length-n frequency window r-n+1..r holds both u and v (mod m): K = M^T M
    for M[r, j] = [(r - j) mod m < n], built on the support in
    O(n * min(2n-1, m)^2), never O(m^3), with at most min(2n-1, m)^2 integer
    counts (3n^2 - 3n + 1 while 2n-1 <= m).  The ``merged`` table serves a
    real pair g1 = g2 of float64 values: it keeps the runs with delta <= m/2,
    as c_{-delta} = conj(c_delta), and as conj(bins_u) bins_v =
    bins_{-u} bins_v and K[u, v] = K[-v, -u] it folds each entry (-v, -u)
    into its partner (u, v) with doubled weight; one with v = -u stays once.
    """
    cols = _band_support(n, m)
    M = (np.mod(np.arange(n)[:, None] - cols[None, :], m) < n).astype(float)
    K = M.T @ M
    iu, iv = np.nonzero(K)
    w = K[iu, iv]
    delta = np.mod(cols[iv] - cols[iu], m)
    if merged:
        neg = np.mod(-cols[iu], m)
        keep = (delta <= m // 2) & (neg <= cols[iv])
        w = w * (1 + (neg < cols[iv]))
        iu, iv, w, delta = iu[keep], iv[keep], w[keep], delta[keep]
    order = np.argsort(delta, kind="stable")
    iu, iv, w, delta = iu[order], iv[order], w[order], delta[order]
    starts = np.flatnonzero(np.diff(delta, prepend=-1))
    table = (iu, iv, w, starts, delta[starts])
    for arr in table:
        arr.setflags(write=False)
    return table


def _band_pair_sn(s1: np.ndarray, s2: np.ndarray, n: int, m: int, real: bool) -> np.ndarray:
    """(B, m) values of S_n(R(g1)^* R(g2)) for n <= m from the unnormalized
    ``fft`` rows (B, m) of g1 and g2, or for a ``real`` pair (g1 = g2
    float64) from its one ``rfft`` half spectrum (B, m//2 + 1).

    S_n(z_p) = (1/(n m^2)) sum_{u,v} K[u, v] conj(s1_u) s2_v e^{2 pi i (v-u) p/m}:
    summing the table by delta gives the DFT-domain coefficients c_delta,
    and one inverse FFT returns the grid values.  O(nnz + m log m) per item,
    exact whether or not the coefficients alias.  A real pair gathers its
    support by s_{-k} = conj(s_k), sums the merged table, whose offsets are
    exactly 0..D-1, and returns float64 values through ``irfft``.
    """
    cols = _band_support(n, m)
    if real:
        s1 = s2 = s2[:, np.minimum(cols, m - cols)]
        np.conjugate(s2, out=s2, where=cols > m // 2)
    else:
        s1, s2 = s1[:, cols], s2[:, cols]
    i, j, w, starts, deltas = _band_table(n, m, real)
    terms = np.take(np.conj(s1), i, axis=1)
    terms *= w / (n * m)
    terms *= np.take(s2, j, axis=1)
    sums = np.add.reduceat(terms, starts, axis=1)
    if real:                     # merged deltas are 0..D-1, and irfft zero-pads the rest
        return np.fft.irfft(sums, m, axis=1)
    c = np.zeros((len(terms), m), dtype=complex)
    c[:, deltas] = sums
    return np.fft.ifft(c, axis=1)


def _folded_pair_sn(g1: np.ndarray, g2: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                    n: int, real: bool) -> np.ndarray:
    """(B, m) values of S_n(R(g1)^* R(g2)) for m < n from the grid values
    (B, m) and the spectra (``_band_pair_sn``) of g1 and g2.

    With n = alpha*m + rho, row r's window sum is W_r = alpha g + V_r, V_r
    the circular window of the rho frequencies ending at r, and
    n S_n = sum_{r<m} cnt_r conj(W1_r) W2_r (``_fold``).  With h = conj(g1) g2,

        n S_n = alpha^2 n h + alpha (conj(g1) A2 + conj(A1) g2 + ifft(w fft(h)))
                + rho S_rho(R(g1)^* R(g2)),

    w_delta = |arc & (arc + delta)| for an arc of rho residues, A = ifft(a s)
    with a = alpha rho + w, and S_rho from ``_band_pair_sn``:
    O(m log m + rho^2) per item.  A ``real`` pair returns float64.
    """
    m = g1.shape[-1]
    alpha, rho = divmod(n, m)
    delta = np.arange(m)
    w = np.maximum(rho - delta, 0) + np.maximum(rho - m + delta, 0)
    a = alpha * rho + w
    if real:                                 # a half spectrum times an even a
        A2 = np.fft.irfft(a[: m // 2 + 1] * s2, m, axis=-1)
        h = g2 * g2
        vals = alpha * n * h + 2 * g2 * A2
        vals += np.fft.irfft(w[: m // 2 + 1] * np.fft.rfft(h, axis=-1), m, axis=-1)
    else:
        h = np.conj(g1) * g2
        A1, A2 = np.fft.ifft(a * s1, axis=-1), np.fft.ifft(a * s2, axis=-1)
        vals = alpha * n * h + np.conj(g1) * A2 + np.conj(A1) * g2
        vals += np.fft.ifft(w * np.fft.fft(h, axis=-1), axis=-1)
    vals *= alpha
    if rho:
        vals += rho * _band_pair_sn(s1, s2, rho, m, real)
    return vals / n


def _half_spectrum(spec: ProdKernel) -> bool:
    """Whether a prod spec is a q = 1 real pair of float64 (Gaussian) base values."""
    return spec.q == 1 and _real_valued(spec) and isinstance(spec.bases1[0], GaussianKernel)


def _prod_pair_values(spec: ProdKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m) finite-n product-kernel values for broadcasting sample values
    a, b (``_inf_values_block``); float64 for a real-valued spec."""
    n = int(spec.n)
    real = _real_valued(spec)
    half = _half_spectrum(spec)
    # values and unnormalized spectra of z -> base(a(z), b(z)), once per
    # distinct base, flattened to (B, m) rows for the routes below
    g = {base: base.pairwise(a, b) for base in set(spec.bases1 + spec.bases2)}
    shape = g[spec.bases1[0]].shape
    m = shape[-1]
    g = {base: vals.reshape(-1, m) for base, vals in g.items()}
    s = {base: (np.fft.rfft if half else np.fft.fft)(vals, axis=-1) for base, vals in g.items()}
    s1 = [s[base] for base in spec.bases1]
    s2 = [s[base] for base in spec.bases2]
    if spec.q == 1 and m < n:
        vals = _folded_pair_sn(g[spec.bases1[0]], g[spec.bases2[0]], s1[0], s2[0], n, half)
    elif spec.q == 1:
        vals = _band_pair_sn(s1[0], s2[0], n, m, half)
    else:
        vals = _chain_sn(s1, s2, n, real)
    if real:
        vals = vals.real
    if spec.beta:
        # normalized means are the k = 0 bins over m
        off = np.prod([np.conj(ca[:, 0]) * cb[:, 0] for ca, cb in zip(s1, s2)], axis=0)
        vals += spec.beta * (off.real if real else off)[:, None] / m ** (2 * spec.q)
    return vals.reshape(shape)


def _smooth_tuple(values: np.ndarray, n: int) -> np.ndarray:
    """``truncation.smooth`` of every component of (N, m, d) sample values."""
    w = _fejer_weights(n, values.shape[1])
    return np.fft.ifft(np.fft.fft(values, axis=1) * w[:, None], axis=1)


def _sep_distance_sq(xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """(Nx, Ny) summed squared L2 distances sum_i ||x_i - y_i||^2 of the
    (N, m, d) sample values of a block's sides (``yv is xv`` for a Gram block).

    ||x - y||^2 = (|x|^2 + |y|^2 - 2 Re x^* y) / m over the flattened samples,
    the cross terms from one matrix product of their float64 views.  Both
    sides are first centered on the block's mean sample, which leaves the
    distances unchanged and keeps a large common offset from cancelling in
    the expansion.  Distances are clamped at 0; a Gram block has an exactly
    0 diagonal and is exactly symmetric, mirrored from its upper triangle.
    """
    same = yv is xv
    m = xv.shape[1]
    center = np.mean(xv if same else np.concatenate([xv, yv]), axis=0)
    x = (xv - center).reshape(len(xv), -1).view(np.float64)
    y = x if same else (yv - center).reshape(len(yv), -1).view(np.float64)
    x2 = np.einsum("ij,ij->i", x, x)
    y2 = x2 if same else np.einsum("ij,ij->i", y, y)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (x @ y.T)
    if same:
        d2 = np.triu(d2, 1)
        d2 += d2.T
    np.maximum(d2, 0.0, out=d2)
    return d2 / m


def _sep_weights(spec: SepKernel) -> np.ndarray:
    """float64 grid values >= 0 of the sep weight S_n(B^* B), B = R_n(a_1) ...
    R_n(a_q), one ``_chain_sn`` chain on the weights' spectra, or of its limit
    prod_j |a_j|^2; the block has checked n against m."""
    if not spec.is_infinite:
        s = [np.fft.fft(a.values)[None] for a in spec.weights]
        return _chain_sn(s, s, int(spec.n), True)[0].real
    vals = np.ones(spec.weights[0].grid.m, dtype=complex)
    for a in spec.weights:
        vals *= np.conj(a.values) * a.values
    return vals.real


def _sep_blocks(spec: SepKernel, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """(m, Nx, Ny) float64 separable-kernel block of (N, m, d) sample values."""
    wvals = _sep_weights(spec)
    if not spec.is_infinite:
        same = yv is xv
        xv = _smooth_tuple(xv, int(spec.n))
        yv = xv if same else _smooth_tuple(yv, int(spec.n))
    d2 = _sep_distance_sq(xv, yv)
    return wvals[:, None, None] * np.exp(-spec.base.scale * d2)[None, :, :]


def _block(spec: KernelSpec, xs: list, ys: list, allow_aliasing: bool) -> np.ndarray:
    """(m, Nx, Ny) block K[p, i, j] = k(xs[i], ys[j])(z_p).

    Poly and sep use their factorized whole-block routes; finite prod and the
    n = INF limits walk row tiles i0:i1 on the calling thread, their height
    bounded by ``_PAIR_CHUNK_BUDGET``, against every column, or against the
    columns j >= i0 when ``ys is xs``, leaving the rest of the strict lower
    triangle unset; a row wider than the budget is split into column tiles.
    Sep and a real-valued prod spec (``_real_valued``) get a float64 block.
    """
    if not xs or not ys:
        raise ConfigError("a kernel block needs at least one sample on each side")
    values = _values(spec, xs if ys is xs else xs + ys, allow_aliasing)
    xv = values[: len(xs)]                                    # (Nx, m, d)
    yv = xv if ys is xs else values[len(xs) :]
    if isinstance(spec, SepKernel):
        return _sep_blocks(spec, xv, yv)
    if isinstance(spec, PolyKernel) and not spec.is_infinite:
        fx = _poly_columns(spec, xv)
        return _adjoint(fx, fx if yv is xv else _poly_columns(spec, yv))
    real = _real_valued(spec)
    m = values.shape[1]
    if spec.is_infinite:
        width = m * xv.shape[-1]
    elif spec.q == 1:
        # the n <= m table plus the result, or the folded route's rho table
        # plus its (B, m) temporaries; a merged entry counts as the two it stands for
        rho, extra = (int(spec.n) % m, 8 * m) if spec.n > m else (int(spec.n), m)
        half = _half_spectrum(spec)
        width = (len(_band_table(rho, m, half)[0]) * (1 + half) if rho else 0) + extra
    else:
        width = (2 * min(int(spec.n), m) - 1) * m
    pair_values = _inf_values_block if spec.is_infinite else _prod_pair_values
    out = np.empty((m, len(xs), len(ys)), dtype=float if real else complex)
    height = max(1, _PAIR_CHUNK_BUDGET // (width * len(ys)))
    step = max(1, _PAIR_CHUNK_BUDGET // width)                # < Ny only when height is 1
    for i0 in range(0, len(xs), height):
        rows = slice(i0, i0 + height)
        for j0 in range(i0 if yv is xv else 0, len(ys), step):
            cols = slice(j0, j0 + step)
            out[:, rows, cols] = pair_values(spec, xv[rows, None], yv[None, cols]).transpose(2, 0, 1)
    return out


def cross_values(spec: KernelSpec, xs, ys, allow_aliasing: bool = False) -> np.ndarray:
    """Full cross-kernel block K[p, i, j] = k(xs[i], ys[j])(z_p), (m, Nx, Ny)."""
    return _block(spec, list(xs), list(ys), allow_aliasing)


def gram_values(spec: KernelSpec, xs, allow_aliasing: bool = False) -> tuple[np.ndarray, int]:
    """Gram field G[p, i, j] = k(xs[i], xs[j])(z_p).

    Every field is Hermitian.  The block core evaluates the upper triangle,
    its diagonal row tiles also a sliver below it; for poly and prod the whole
    strict lower triangle is then overwritten in place, one grid point at a
    time, with the exact conjugate of the upper one.  The sep block is kept as
    computed: it is real and exactly symmetric already (``_sep_distance_sq``).
    The field is float64 for sep and a real-valued prod spec, complex128
    otherwise.  Returns (field, N(N+1)/2), the count of distinct values.
    """
    xs = list(xs)
    N = len(xs)
    field = _block(spec, xs, xs, allow_aliasing)
    if not isinstance(spec, SepKernel):
        lower = np.tri(N, k=-1, dtype=bool)
        for mat in field:
            np.copyto(mat, mat.T.conj(), where=lower)
    return field, N * (N + 1) // 2
