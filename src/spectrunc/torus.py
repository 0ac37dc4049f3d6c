"""Sampled functions on the torus T = R/2piZ.

Functions are stored by their values on the uniform grid z_p = 2*pi*p/m.
All integrals use the normalized Haar measure dt/(2*pi), realized by the
m-point rectangle rule (1/m) * sum_p f(z_p), which is exact for
trigonometric polynomials of degree < m/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AliasingError, GridMismatchError

__all__ = [
    "TorusGrid",
    "SampledFunction",
    "FunctionTuple",
    "integrate",
    "l2_distance",
    "l2_distances",
]

# slack for closed-window membership tests: grid points sitting exactly on
# the window boundary must not fall out due to rounding of 2*pi*p/m
_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid of m points z_p = 2*pi*p/m, p = 0..m-1."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"grid needs at least 2 points, got m={self.m}")

    @cached_property
    def points(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.m) / self.m

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.m


@dataclass(frozen=True)
class SampledFunction:
    """A function on the torus stored by its (complex) grid values."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.m,):
            raise ValueError(
                f"values shape {values.shape} does not match grid m={self.grid.m}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: TorusGrid, f) -> "SampledFunction":
        return cls(grid, np.asarray(f(grid.points), dtype=complex))

    @classmethod
    def constant(cls, grid: TorusGrid, value: complex) -> "SampledFunction":
        return cls(grid, np.full(grid.m, value, dtype=complex))

    def conj(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.conj(self.values))


@dataclass(frozen=True)
class FunctionTuple:
    """An element of A^d: d sampled functions sharing one grid."""

    components: tuple[SampledFunction, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("FunctionTuple needs at least one component")
        grid = comps[0].grid
        for c in comps[1:]:
            if c.grid != grid:
                raise GridMismatchError("tuple components live on different grids")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    def value_matrix(self) -> np.ndarray:
        """Grid values stacked as an (m, d) array."""
        return np.stack([c.values for c in self.components], axis=1)


def require_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(
            f"grid mismatch: m={f.grid.m} vs m={g.grid.m}"
        )


def integrate(f: SampledFunction) -> complex:
    """Normalized integral (1/m) sum_p f(z_p); exact for trigonometric
    polynomials of degree < m/2."""
    return complex(np.mean(f.values))


def check_alias_free(kmax: int, m: int, allow_aliasing: bool) -> None:
    """Reject coefficients up to |kmax| on an m-point grid unless they are
    alias-free (|k| < m/2) or ``allow_aliasing`` opts into folded bins."""
    if not allow_aliasing and 2 * kmax >= m:
        raise AliasingError(
            f"coefficients up to |k|={kmax} alias on an m={m} grid "
            "(need |k| < m/2); pass allow_aliasing=True to fold bins"
        )


def l2_distance(f: SampledFunction, g: SampledFunction) -> float:
    """L2(T) distance under the normalized measure:
    sqrt((1/m) sum_p |f(z_p) - g(z_p)|^2)."""
    return float(l2_distances([f], [g])[0])


def l2_distances(fs, gs) -> np.ndarray:
    """``l2_distance`` of each pair (fs[i], gs[i]) of two equally long
    sequences, from one stacked (N, m) difference."""
    for f, g in zip(fs, gs):
        require_same_grid(f, g)
    diff = np.stack([f.values for f in fs]) - np.stack([g.values for g in gs])
    return np.sqrt(np.mean(np.abs(diff) ** 2, axis=1))


def window_membership(grid: TorusGrid, z: float, delta: float) -> np.ndarray:
    """Boolean mask of grid points whose circular distance to z is <= delta
    (closed window, with a tiny slack so exact-boundary points stay in)."""
    raw = np.abs(np.remainder(grid.points - z + np.pi, 2.0 * np.pi) - np.pi)
    return raw <= delta + _BOUNDARY_EPS
