r"""Complexity terms, generalization-bound arithmetic, and convergence studies.

The per-sample complexity D of a finite-truncation kernel is built from
operator norms of truncated Toeplitz matrices:

    poly:  sum_j alpha_j ||R_n(x_j)||_op^{2q}
    prod:  prod_j ||R_n(b_{1,j}(x,x))||_op ||R_n(b_{2,j}(x,x))||_op + beta_n C,
           C = prod_j int b_{1,j}(x(t),x(t)) dt * int b_{2,j}(x(t),x(t)) dt
    sep:   base(x,x) * prod_j ||R_n(a_j)||_op^2

D is nondecreasing in n, which makes the second bound term nondecreasing
in n as well; that is the representation-power/complexity tradeoff knob.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import BetaMonotonicityWarning, ConfigError
from .kernels import (
    KernelSpec,
    PolyKernel,
    ProdKernel,
    SepKernel,
    _base_values,
    kernel_limit_gap,
)
from .torus import FunctionTuple, SampledFunction, integrate
from .truncation import operator_norm, truncate

__all__ = [
    "ComplexityReport",
    "complexity_D",
    "complexity_report",
    "bound_rhs",
    "complexity_sweep",
    "convergence_report",
]

_IMAG_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class ComplexityReport:
    """Per-sample complexity values and the bound terms they produce."""

    family: str
    n: int
    D_values: np.ndarray
    second_term: float
    third_term: float
    B: float
    L: float
    delta: float

    def __post_init__(self):
        D = np.asarray(self.D_values, dtype=float)
        if np.any(D < 0):
            raise ConfigError("complexity values must be nonnegative")
        object.__setattr__(self, "D_values", D)


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL * max(1.0, abs(value)):
        raise ConfigError(f"{what} is not real-valued: {value}")
    return float(value.real)


def complexity_D(spec: KernelSpec, x: FunctionTuple, allow_aliasing: bool = False) -> float:
    """Per-sample complexity term D(k_n, x); finite truncation only."""
    if spec.is_infinite:
        raise ConfigError("the complexity term is defined for finite truncation only")
    n = int(spec.n)
    if isinstance(spec, PolyKernel):
        if x.d != len(spec.alpha):
            raise ConfigError("alpha length does not match input dimension")
        return sum(
            a * operator_norm(truncate(c, n, allow_aliasing).dense()) ** (2 * spec.q)
            for a, c in zip(spec.alpha, x.components)
        )
    if isinstance(spec, ProdKernel):
        prod_norms = 1.0
        C = 1.0 + 0.0j
        for b1, b2 in zip(spec.bases1, spec.bases2):
            g1 = SampledFunction(x.grid, _base_values(b1, x, x))
            g2 = SampledFunction(x.grid, _base_values(b2, x, x))
            prod_norms *= operator_norm(truncate(g1, n, allow_aliasing).dense())
            prod_norms *= operator_norm(truncate(g2, n, allow_aliasing).dense())
            C *= integrate(g1) * integrate(g2)
        return prod_norms + spec.beta * _real(C, "the offset integral C")
    if isinstance(spec, SepKernel):
        scal = _real(spec.base(x, x), "base(x, x)")
        prod_norms = 1.0
        for a in spec.weights:
            prod_norms *= operator_norm(truncate(a, n, allow_aliasing).dense()) ** 2
        return scal * prod_norms
    raise ConfigError(f"unknown kernel spec {type(spec).__name__}")


def bound_rhs(D_values, B: float, L: float, delta: float, empirical_losses) -> float:
    """Right-hand side of the generalization bound:

        mean empirical loss + 2 L B / N * (sum_i D_i)^{1/2}
                            + 3 sqrt(log(1/delta) / N).
    """
    D = np.asarray(D_values, dtype=float)
    losses = np.asarray(empirical_losses, dtype=float)
    if D.shape != losses.shape or D.ndim != 1 or len(D) == 0:
        raise ConfigError("D values and empirical losses must be equal-length 1-D arrays")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if B <= 0 or L <= 0:
        raise ConfigError("B and L must be positive")
    if np.any(D < 0):
        raise ConfigError("D values must be nonnegative")
    N = len(D)
    return (
        float(np.mean(losses))
        + 2.0 * L * B / N * math.sqrt(float(np.sum(D)))
        + 3.0 * math.sqrt(math.log(1.0 / delta) / N)
    )


def complexity_report(spec: KernelSpec, xs, B: float = 1.0, L: float = 1.0,
                      delta: float = 0.05, allow_aliasing: bool = False) -> ComplexityReport:
    """Compute per-sample D values and the bound's second and third terms."""
    xs = list(xs)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    D = np.array([complexity_D(spec, x, allow_aliasing) for x in xs])
    N = len(xs)
    second = 2.0 * L * B / N * math.sqrt(float(np.sum(D)))
    third = 3.0 * math.sqrt(math.log(1.0 / delta) / N)
    return ComplexityReport(
        family=spec.family, n=int(spec.n), D_values=D,
        second_term=second, third_term=third, B=B, L=L, delta=delta,
    )


def complexity_sweep(spec: KernelSpec, x: FunctionTuple, n_list,
                     allow_aliasing: bool = False,
                     beta_for_n=None) -> list[tuple[int, float]]:
    """D(k_n, x) across a truncation sweep.

    ``beta_for_n`` optionally maps n to the offset used at that truncation
    (product family); a nonmonotone beta sweep voids the monotonicity
    guarantee and triggers a ``BetaMonotonicityWarning``.
    """
    rows = []
    betas = []
    for n in n_list:
        spec_n = dataclasses.replace(spec, n=int(n))
        if beta_for_n is not None and isinstance(spec, ProdKernel):
            spec_n = dataclasses.replace(spec_n, beta=float(beta_for_n(int(n))))
        if isinstance(spec_n, ProdKernel):
            betas.append(spec_n.beta)
        rows.append((int(n), complexity_D(spec_n, x, allow_aliasing)))
    if betas and any(b2 < b1 - 1e-15 for b1, b2 in zip(betas, betas[1:])):
        warnings.warn(
            "beta_n sweep is not nondecreasing in n; the complexity "
            "monotonicity guarantee does not apply",
            BetaMonotonicityWarning,
            stacklevel=2,
        )
    return rows


def convergence_report(specs: dict[str, KernelSpec], x: FunctionTuple,
                       y: FunctionTuple, n_list,
                       allow_aliasing: bool = False) -> list[dict]:
    """Sup/mean gaps to the commutative limit per family across n.

    ``specs`` maps a family label to any spec of that family; the offset of
    a product spec is zeroed so the gap targets the limit kernel.
    """
    rows = []
    for label, spec in specs.items():
        if isinstance(spec, ProdKernel) and spec.beta:
            spec = dataclasses.replace(spec, beta=0.0, beta_policy="manual")
        for n, sup_gap, mean_gap in kernel_limit_gap(spec, x, y, n_list, allow_aliasing):
            rows.append({
                "family": label,
                "n": n,
                "sup_gap": sup_gap,
                "mean_gap": mean_gap,
            })
    return rows
