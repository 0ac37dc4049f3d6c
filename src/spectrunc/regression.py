r"""Per-grid-point kernel ridge regression with function-valued Gram matrices.

The Gram matrix is A^{NxN}-valued: one N x N Hermitian matrix G(z_p) per
grid point.  Fitting solves the m independent Hermitian systems

    y(z_p) = (G(z_p) + lambda I) c(z_p)

and prediction evaluates f(x)(z_p) = sum_j k(x, x_j)(z_p) c_j(z_p).  A
real-valued kernel yields a float64 Gram field and float64 cross blocks:
each system is then factored in real arithmetic, with the real and
imaginary parts of y as two real right-hand sides.  Coefficients and
predictions are complex either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import ConfigError, NumericalError, SolverFallbackWarning
from .kernels import KernelSpec, cross_values, gram_values
from .torus import FunctionTuple, SampledFunction, TorusGrid, l2_distance

__all__ = [
    "GramField",
    "PDReport",
    "RidgeModel",
    "assemble_gram",
    "check_pd",
    "fit",
    "predict",
    "test_error",
]

HERMITIAN_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def _min_eig(A: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(A)[0].real)


@dataclass(frozen=True)
class GramField:
    """Per-grid-point N x N kernel matrices G(z_p), stacked as (m, N, N):
    a float64 field stays float64 (real symmetric), any other is complex."""

    grid: TorusGrid
    matrices: np.ndarray = field(repr=False)
    eval_count: int = 0

    def __post_init__(self):
        mats = np.asarray(self.matrices)
        if mats.dtype != np.float64:
            mats = mats.astype(complex, copy=False)
        if mats.ndim != 3 or mats.shape[0] != self.grid.m or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected (m, N, N) matrices, got {mats.shape}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def n_samples(self) -> int:
        return self.matrices.shape[1]

    def hermitian_defect(self) -> float:
        """max |G(z_p) - G(z_p)^*| over all entries, one grid point at a time."""
        return max(float(np.max(np.abs(g - g.conj().T))) for g in self.matrices)


@dataclass(frozen=True)
class PDReport:
    """Minimum Gram eigenvalue per grid point and its global minimum."""

    min_per_point: np.ndarray
    global_min: float
    argmin_point: int


@dataclass(frozen=True)
class RidgeModel:
    kernel: KernelSpec
    lam: float
    inputs: tuple[FunctionTuple, ...]
    coefficients: np.ndarray = field(repr=False)  # (N, m)
    allow_aliasing: bool = False

    @property
    def grid(self) -> TorusGrid:
        return self.inputs[0].grid

    def coefficient_functions(self) -> tuple[SampledFunction, ...]:
        return tuple(SampledFunction(self.grid, row) for row in self.coefficients)


def assemble_gram(kernel: KernelSpec, inputs, allow_aliasing: bool = False) -> GramField:
    """Assemble the Gram field through the batched block core of
    ``kernels.gram_values``: N(N+1)/2 kernel evaluations for the upper
    triangle, the lower one filled in place by Hermitian symmetry.  The dense
    ``kernels.evaluate`` route is the oracle the tests pin it to."""
    inputs = list(inputs)
    if not inputs:
        raise ConfigError("need at least one training input")
    mats, count = gram_values(kernel, inputs, allow_aliasing=allow_aliasing)
    gram = GramField(inputs[0].grid, mats, eval_count=count)
    # the strict lower triangle holds exact conjugates of the upper one, so
    # hermitian_defect() reduces to the diagonal's 2 max |Im G_ii|; the
    # field's scale matters only once that exceeds the tolerance
    defect = 2.0 * float(np.max(np.abs(np.diagonal(gram.matrices, axis1=1, axis2=2).imag)))
    if defect > HERMITIAN_TOL:
        scale = max(float(np.max(np.abs(g))) for g in gram.matrices)
        if defect > HERMITIAN_TOL * max(1.0, scale):
            raise NumericalError(f"Gram field Hermitian defect {defect:.3e}")
    return gram


def check_pd(gram: GramField) -> PDReport:
    """Hermitian eigen-solve per grid point; reports the minimum eigenvalue
    per point, the global minimum, and where it occurs."""
    mins = np.linalg.eigvalsh(gram.matrices)[:, 0].real
    arg = int(np.argmin(mins))
    return PDReport(min_per_point=mins, global_min=float(mins[arg]), argmin_point=arg)


def fit(kernel: KernelSpec, inputs, outputs, lam: float,
        allow_aliasing: bool = False, gram: GramField | None = None) -> RidgeModel:
    """Solve y(z_p) = (G(z_p) + lambda I) c(z_p) at every grid point.

    Uses a Hermitian (Cholesky) factorization per point and falls back to a
    pivoted general solve with a ``SolverFallbackWarning`` when the shifted
    Gram matrix is not positive definite.  Never regularizes silently.  A
    float64 field is factored in real arithmetic and solved for the real
    and imaginary parts of y as two real columns.

    Raises
    ------
    ConfigError
        Mismatched inputs/outputs, or lam = 0 on a Gram field that is not
        verifiably positive definite.
    NumericalError
        Singular system at some grid point, or a residual-check violation.
    """
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    if len(inputs) != len(outputs):
        raise ConfigError(f"{len(inputs)} inputs vs {len(outputs)} outputs")
    if lam < 0:
        raise ConfigError(f"regularization must be >= 0, got {lam}")
    grid = inputs[0].grid
    if any(o.grid != grid for o in outputs):
        raise ConfigError("outputs live on a different grid than inputs")
    if gram is None:
        gram = assemble_gram(kernel, inputs, allow_aliasing=allow_aliasing)
    N = gram.n_samples
    if lam == 0.0:
        report = check_pd(gram)
        if report.global_min <= 0.0:
            raise ConfigError(
                "lam = 0 requires a strictly positive definite Gram field; "
                f"minimum eigenvalue {report.global_min:.3e} at point {report.argmin_point}"
            )
    y = np.stack([o.values for o in outputs])                 # (N, m)
    coeff = np.empty_like(y)
    real = gram.matrices.dtype == np.float64
    fell_back = []
    for p in range(grid.m):
        A = gram.matrices[p] + lam * np.eye(N)
        b = np.stack([y[:, p].real, y[:, p].imag], axis=1) if real else y[:, p]
        try:
            c = linalg.cho_solve(linalg.cho_factor(A, lower=True), b)
        except linalg.LinAlgError:
            fell_back.append(p)
            try:
                with np.errstate(all="ignore"):
                    c = linalg.solve(A, b)
            except linalg.LinAlgError as exc:
                raise NumericalError(
                    f"singular system at grid point {p} "
                    f"(min eigenvalue {_min_eig(A):.3e})"
                ) from exc
        if not np.all(np.isfinite(c)):
            raise NumericalError(
                f"singular system at grid point {p} "
                f"(min eigenvalue {_min_eig(A):.3e})"
            )
        # for two real columns, the Frobenius norms are the complex 2-norms
        resid = float(np.linalg.norm(A @ c - b))
        if not resid <= RESIDUAL_TOL * (1.0 + float(np.linalg.norm(b))):
            raise NumericalError(
                f"solve residual {resid:.3e} at grid point {p} "
                f"(min eigenvalue {_min_eig(A):.3e})"
            )
        coeff[:, p] = c[:, 0] + 1j * c[:, 1] if real else c
    if fell_back:
        warnings.warn(
            f"Hermitian factorization failed at {len(fell_back)} grid point(s) "
            f"(first: {fell_back[0]}); used pivoted general solves",
            SolverFallbackWarning,
            stacklevel=2,
        )
    return RidgeModel(kernel=kernel, lam=float(lam), inputs=inputs,
                      coefficients=coeff, allow_aliasing=allow_aliasing)


def predict_batch(model: RidgeModel, xs) -> list[SampledFunction]:
    """Predictions for a batch of input tuples (one cross-kernel block)."""
    xs = list(xs)
    grid = model.grid
    if any(x.grid != grid for x in xs):
        raise ConfigError("prediction inputs live on a different grid than the model")
    K = cross_values(model.kernel, xs, list(model.inputs),
                     allow_aliasing=model.allow_aliasing)     # (m, Nx, Ntr)
    c = model.coefficients
    if K.dtype == np.float64:
        vals = np.einsum("pij,jp->ip", K, c.real) + 1j * np.einsum("pij,jp->ip", K, c.imag)
    else:
        vals = np.einsum("pij,jp->ip", K, c)
    return [SampledFunction(grid, row) for row in vals]


def predict(model: RidgeModel, x: FunctionTuple) -> SampledFunction:
    """f(x)(z_p) = sum_j k(x, x_j)(z_p) c_j(z_p)."""
    return predict_batch(model, [x])[0]


def test_error(model: RidgeModel, test_inputs, test_outputs) -> float:
    """Mean L2(T) distance between predictions and test outputs."""
    test_inputs = list(test_inputs)
    test_outputs = list(test_outputs)
    if len(test_inputs) != len(test_outputs):
        raise ConfigError("test inputs/outputs length mismatch")
    preds = predict_batch(model, test_inputs)
    return float(np.mean([l2_distance(p, o) for p, o in zip(preds, test_outputs)]))
