r"""The approximate order isomorphism on the torus.

``truncate`` sends a sampled function x to the n x n Toeplitz matrix of its
Fourier coefficients (entry (j, l) is the coefficient at j - l); ``sn_map_at``
sends a matrix back to the function

    S_n(A)(z) = (1/n) * sum_{j,l=0..n-1} A_{j,l} e^{i (j-l) z},

and the round trip ``smooth`` is exactly Fejer smoothing: the coefficient
at k is damped by (1 - |k|/n) for |k| < n and dropped beyond.  On the grid
``smooth`` is one FFT pair with those weights folded by residue mod m.

Matrices are plain complex ndarrays.  The kernels never multiply dense
n x n truncations: they work on the min(n, m) distinct rows of a chain
(``kernels._chain_columns``).  ``ToeplitzRep.dense`` serves the operator
norms of ``diagnostics.complexity_D``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .torus import SampledFunction, check_alias_free

__all__ = [
    "ToeplitzRep",
    "truncate",
    "sn_map_at",
    "smooth",
    "operator_norm",
]


@dataclass(frozen=True)
class ToeplitzRep:
    """R_n(x) stored as the coefficient vector of length 2n-1.

    ``coeffs[k + n - 1]`` is the Fourier coefficient of the source function
    at frequency k, for k = -(n-1)..(n-1).  The dense expansion has entry
    (j, l) equal to the coefficient at j - l.
    """

    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"truncation order must be positive, got n={self.n}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.n - 1,):
            raise ValueError(
                f"coefficient vector must have length 2n-1={2 * self.n - 1}, "
                f"got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def dense(self) -> np.ndarray:
        idx = np.arange(self.n)[:, None] - np.arange(self.n)[None, :] + self.n - 1
        return self.coeffs[idx]


def truncate(x: SampledFunction, n: int, allow_aliasing: bool = False) -> ToeplitzRep:
    """Spectral truncation R_n(x): the Toeplitz matrix of coefficients
    -(n-1)..(n-1), stored as a coefficient vector.

    Coefficient k is the DFT bin at k mod m.  In the strict (default) regime
    every |k| < m/2, where the bin equals the true coefficient of any
    degree-<m/2 trigonometric polynomial; with ``allow_aliasing`` the folded
    bins are kept as-is, which is what evaluating the defining quadrature at
    an under-resolved k produces.

    Raises
    ------
    AliasingError
        If n - 1 >= m/2 and ``allow_aliasing`` is False.
    """
    if n < 1:
        raise ValueError(f"truncation order must be positive, got n={n}")
    m = x.grid.m
    check_alias_free(n - 1, m, allow_aliasing)
    return ToeplitzRep(n, (np.fft.fft(x.values) / m)[np.mod(np.arange(1 - n, n), m)])


def _diagonal_sums(A: np.ndarray) -> np.ndarray:
    """Sums over the diagonals j - l = k of a square matrix,
    returned for k = -(n-1)..(n-1)."""
    n = A.shape[0]
    return np.array([np.trace(A, offset=-k) for k in range(-(n - 1), n)])


def sn_map_at(A: np.ndarray, z) -> np.ndarray:
    """S_n(A)(z) = (1/n) sum_k (sum of diagonal j-l=k) e^{ikz} at arbitrary
    points z (scalar or array): O(n^2) for the diagonal sums plus O(n) per
    point."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    d = _diagonal_sums(A)
    ks = np.arange(-(n - 1), n)
    z = np.asarray(z, dtype=float)
    return (d @ np.exp(1j * ks[:, None] * z.reshape(1, -1))).reshape(z.shape) / n


@functools.lru_cache(maxsize=64)
def _fejer_weights(n: int, m: int) -> np.ndarray:
    """Fejer weights folded by residue: w[u] = sum of (1 - |k|/n) over
    |k| < n with k = u (mod m)."""
    ks = np.arange(-(n - 1), n)
    w = np.bincount(np.mod(ks, m), weights=1.0 - np.abs(ks) / n, minlength=m)
    w.setflags(write=False)
    return w


def smooth(x: SampledFunction, n: int, allow_aliasing: bool = False) -> SampledFunction:
    """Round trip S_n(R_n(x)), i.e. Fejer smoothing of x at order n.

    On the grid S_n(R_n(x))(z_p) = sum_{|k|<n} (1 - |k|/n) bins[k mod m]
    e^{ikz_p}, and e^{ikz_p} is m-periodic in k, so the round trip is one
    FFT, a multiply by the residue-folded Fejer weights and one inverse FFT.
    Same aliasing rule as ``truncate``.
    """
    if n < 1:
        raise ValueError(f"truncation order must be positive, got n={n}")
    m = x.grid.m
    check_alias_free(n - 1, m, allow_aliasing)
    return SampledFunction(x.grid, np.fft.ifft(np.fft.fft(x.values) * _fejer_weights(n, m)))


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(A, dtype=complex), ord=2))
