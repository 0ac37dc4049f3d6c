r"""Complexity terms, generalization-bound arithmetic, and convergence studies.

The per-sample complexity D of a finite-truncation kernel is built from
operator norms of truncated Toeplitz matrices:

    poly:  sum_j alpha_j ||R_n(x_j)||_op^{2q}
    prod:  prod_j ||R_n(b_{1,j}(x,x))||_op ||R_n(b_{2,j}(x,x))||_op + beta_n C,
           C = prod_j int b_{1,j}(x(t),x(t)) dt * int b_{2,j}(x(t),x(t)) dt
    sep:   base(x,x) * prod_j ||R_n(a_j)||_op^2,  base(x,x) = 1

Each norm is taken on the min(n, m) residues of the kernel blocks
(``kernels._truncation_norms``), after their one sample check; b(x, x) is
real up to rounding, as conj(u) u is, and D takes its real part.

D is nondecreasing in n, which makes the second bound term nondecreasing
in n as well; that is the representation-power/complexity tradeoff knob.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import kernels
from .errors import BetaMonotonicityWarning, ConfigError
from .kernels import INF, KernelSpec, PolyKernel, ProdKernel, _truncation_norms, _values
from .torus import FunctionTuple

__all__ = [
    "ComplexityReport",
    "complexity_D",
    "complexity_report",
    "bound_rhs",
    "beta_falls",
    "complexity_sweep",
    "convergence_report",
    "kernel_limit_gap",
    "spec_at",
]

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


def complexity_D(spec: KernelSpec, x: FunctionTuple, allow_aliasing: bool = False) -> float:
    """Per-sample complexity term D(k_n, x); finite truncation only."""
    if spec.is_infinite:
        raise ConfigError("the complexity term is defined for finite truncation only")
    v = _values(spec, [x], allow_aliasing)[0]                  # (m, d)
    n = int(spec.n)
    if isinstance(spec, PolyKernel):
        return float(np.dot(spec.alpha, _truncation_norms(v.T, n) ** (2 * spec.q)))
    if isinstance(spec, ProdKernel):
        g = np.stack([b.pairwise(v, v).real for b in spec.bases1 + spec.bases2])
        return float(np.prod(_truncation_norms(g, n)) + spec.beta * np.prod(np.mean(g, axis=-1)))
    return float(np.prod(_truncation_norms(np.stack([a.values for a in spec.weights]), n) ** 2))


def _bound_terms(D: np.ndarray, B: float, L: float, delta: float) -> tuple[float, float]:
    """The bound's second and third terms for N per-sample D values,
    2 L B / N * (sum_i D_i)^{1/2} and 3 sqrt(log(1/delta) / N)."""
    if not len(D):
        raise ConfigError("the bound needs at least one sample")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    if B <= 0 or L <= 0:
        raise ConfigError("B and L must be positive")
    N = len(D)
    return (2.0 * L * B / N * math.sqrt(float(np.sum(D))),
            3.0 * math.sqrt(math.log(1.0 / delta) / N))


def bound_rhs(D_values, B: float, L: float, delta: float, empirical_losses) -> float:
    """Right-hand side of the generalization bound: the mean empirical loss
    plus the two terms of ``_bound_terms``."""
    D = np.asarray(D_values, dtype=float)
    losses = np.asarray(empirical_losses, dtype=float)
    if D.shape != losses.shape or D.ndim != 1 or len(D) == 0:
        raise ConfigError("D values and empirical losses must be equal-length 1-D arrays")
    if np.any(D < 0):
        raise ConfigError("D values must be nonnegative")
    second, third = _bound_terms(D, B, L, delta)
    return float(np.mean(losses)) + second + third


def complexity_report(spec: KernelSpec, xs, B: float = 1.0, L: float = 1.0,
                      delta: float = 0.05, allow_aliasing: bool = False) -> ComplexityReport:
    """Compute per-sample D values and the bound's second and third terms."""
    D = np.array([complexity_D(spec, x, allow_aliasing) for x in xs])
    second, third = _bound_terms(D, B, L, delta)
    return ComplexityReport(
        family=spec.family, n=int(spec.n), D_values=D,
        second_term=second, third_term=third, B=B, L=L, delta=delta,
    )


def spec_at(spec: KernelSpec, n) -> KernelSpec:
    """``spec`` at truncation order n.  At its own n the spec stands, so an
    explicit beta still wins there; at any other n a prod spec whose
    ``beta_policy`` is ``bound`` or ``estimate`` is built with beta unset,
    so ``ProdKernel`` gives it that policy's beta_n."""
    if n == spec.n:
        return spec
    if isinstance(spec, ProdKernel) and spec.beta_policy != "manual":
        return dataclasses.replace(spec, n=n, beta=None)
    return dataclasses.replace(spec, n=n)


BETA_FALLS = ("beta_n sweep is not nondecreasing in n; the complexity "
              "monotonicity guarantee does not apply")


def beta_falls(specs) -> bool:
    """Whether the prod beta_n of ``specs``, a sweep in order of n, ever falls."""
    betas = [s.beta for s in specs if isinstance(s, ProdKernel)]
    return any(b2 < b1 - 1e-15 for b1, b2 in zip(betas, betas[1:]))


def complexity_sweep(spec: KernelSpec, x: FunctionTuple, n_list,
                     allow_aliasing: bool = False) -> list[tuple[int, float]]:
    """D(k_n, x) across a truncation sweep, each n through ``spec_at``.

    A prod beta_n that falls as n grows (an ``estimate`` policy can) voids
    the monotonicity guarantee and triggers a ``BetaMonotonicityWarning``.
    An n the spec rejects, or n = INF, is a ConfigError.
    """
    specs = [spec_at(spec, n) for n in n_list]
    rows = [(s.n, complexity_D(s, x, allow_aliasing)) for s in specs]
    if beta_falls(specs):
        warnings.warn(BETA_FALLS, BetaMonotonicityWarning, stacklevel=2)
    return rows


def kernel_limit_gap(spec: KernelSpec, x: FunctionTuple, y: FunctionTuple,
                     n_list, allow_aliasing: bool = False) -> list[tuple[int, float, float]]:
    """Pointwise gaps |k_n(x,y) - k_INF(x,y)| for each n in n_list.

    Returns (n, sup_gap, mean_gap) rows.  The limit kernel has no offset, so
    a prod spec's beta is left out (beta = 0, ``manual``) at every n; the
    limit and each n come from ``spec_at``, each value from one ``evaluate``.
    """
    if isinstance(spec, ProdKernel):
        spec = dataclasses.replace(spec, beta=0.0, beta_policy="manual")
    # kernels.evaluate through the module: perfbench's probe swaps it to count each call
    limit = kernels.evaluate(spec_at(spec, INF), x, y).values
    rows = []
    for n in n_list:
        if n == INF:
            raise ConfigError("gaps to the limit are taken at finite n; drop inf from n_list")
        fin_spec = spec_at(spec, n)
        gap = np.abs(kernels.evaluate(fin_spec, x, y, allow_aliasing).values - limit)
        rows.append((fin_spec.n, float(np.max(gap)), float(np.mean(gap))))
    return rows


def convergence_report(specs: dict[str, KernelSpec], x: FunctionTuple,
                       y: FunctionTuple, n_list,
                       allow_aliasing: bool = False) -> list[dict]:
    """Sup/mean gaps to the commutative limit per family across n.

    ``specs`` maps a family label to any spec of that family; its rows are
    ``kernel_limit_gap``'s, which leaves a product spec's offset out because
    the limit has none.
    """
    return [{"family": label, "n": n, "sup_gap": sup_gap, "mean_gap": mean_gap}
            for label, spec in specs.items()
            for n, sup_gap, mean_gap in kernel_limit_gap(spec, x, y, n_list, allow_aliasing)]
