r"""Per-grid-point kernel ridge regression with function-valued Gram matrices.

The Gram matrix is A^{NxN}-valued: one N x N Hermitian matrix G(z_p) per
grid point.  Fitting solves the m independent Hermitian systems

    y(z_p) = (G(z_p) + lambda I) c(z_p)

and prediction evaluates f(x)(z_p) = sum_j k(x, x_j)(z_p) c_j(z_p).  A
real-valued kernel yields a float64 Gram field and float64 cross blocks:
each system is then factored in real arithmetic, with the real and
imaginary parts of y as two real right-hand sides.  Coefficients and
predictions are complex either way.

The truncated polynomial kernel has low rank: G(z_p) = F_p^* F_p with F_p
the d*min(n, m) x N factor of ``kernels.poly_factors``.  When
d*min(n, m) < N, ``fit`` never builds the field: it solves all m systems
in the factor space by the Woodbury identity (refined once if the residual
check fails), and ``predict_batch`` evaluates F_{x,p}^* (F_p c_p) instead
of a cross block, both taking F^* one grid point at a time with no copy of
F.  The n = INF poly limit has rank d but keeps the dense route, whose test
errors are pinned byte-for-byte; the factored solve moves them in the last
digits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import ConfigError, NumericalError, SolverFallbackWarning
from .kernels import KernelSpec, PolyKernel, _adjoint, cross_values, gram_values, poly_factors
from .torus import FunctionTuple, SampledFunction, TorusGrid, l2_distances

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
    """Minimum eigenvalue of a Hermitian matrix; nan if A is not finite."""
    return float(np.linalg.eigvalsh(A)[0].real) if np.all(np.isfinite(A)) else float("nan")


@dataclass(frozen=True)
class GramField:
    """Per-grid-point N x N kernel matrices G(z_p), stacked as (m, N, N):
    a float64 field stays float64 (real symmetric), any other is complex."""

    grid: TorusGrid
    matrices: np.ndarray = field(repr=False)

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
    # F_p c_p, (m, d*min(n, m), 1): all that prediction on the factored route
    # needs of the training side.  Set by ``fit``; outside init, so a model
    # read from disk or made by ``dataclasses.replace`` starts without it and
    # ``predict_batch`` rebuilds it from the factors.  Never serialized.
    factor_coefficients: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def grid(self) -> TorusGrid:
        return self.inputs[0].grid


def assemble_gram(kernel: KernelSpec, inputs, allow_aliasing: bool = False) -> GramField:
    """Assemble the Gram field through the batched block core of
    ``kernels.gram_values``: the N(N+1)/2 distinct values, the strict lower
    triangle (row-tile slivers included) overwritten by Hermitian symmetry.
    The tests pin it to the dense n x n calculus of the kernel definitions."""
    inputs = list(inputs)
    if not inputs:
        raise ConfigError("need at least one training input")
    gram = GramField(inputs[0].grid, gram_values(kernel, inputs, allow_aliasing)[0])
    # every strict-lower entry, row-tile slivers too, is an exact conjugate of
    # the upper one (a sep field is real and exactly symmetric), so hermitian_defect()
    # reduces to the diagonal's 2 max |Im G_ii|; the scale matters only past the bound
    defect = 2.0 * float(np.max(np.abs(np.diagonal(gram.matrices, axis1=1, axis2=2).imag)))
    if defect > HERMITIAN_TOL:
        scale = max(float(np.max(np.abs(g))) for g in gram.matrices)
        if defect > HERMITIAN_TOL * max(1.0, scale):
            raise NumericalError(f"Gram field Hermitian defect {defect:.3e}")
    return gram


def check_pd(gram: GramField) -> PDReport:
    """Hermitian eigen-solve per grid point; reports the minimum eigenvalue
    per point, the global minimum, and where it occurs.  A non-finite entry
    is a NumericalError naming the first one, (i, j) at grid point p."""
    finite = np.isfinite(gram.matrices)
    if not finite.all():
        p, i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericalError(f"non-finite Gram entry ({i}, {j}) at grid point {p}")
    mins = np.linalg.eigvalsh(gram.matrices)[:, 0].real
    arg = int(np.argmin(mins))
    return PDReport(min_per_point=mins, global_min=float(mins[arg]), argmin_point=arg)


def _factored(kernel: KernelSpec, inputs) -> bool:
    """Whether ``fit`` and ``predict_batch`` work on the rank-d*min(n, m)
    factors of ``kernels.poly_factors`` instead of the N x N field: a
    finite-n poly kernel whose rank bound d*min(n, m), on the grid of the
    training inputs, is below the training size N."""
    return (isinstance(kernel, PolyKernel) and not kernel.is_infinite
            and len(kernel.alpha) * min(kernel.n, inputs[0].grid.m) < len(inputs))


def _checked(c: np.ndarray, resid: np.ndarray, y: np.ndarray, min_eig) -> np.ndarray:
    """Return c if every grid point's solution is finite with residual norm
    resid[p] <= RESIDUAL_TOL * (1 + |y_p|); else raise, naming the first
    point that is not.  ``min_eig(p)`` is called only for that message."""
    bad = np.flatnonzero(~(resid <= RESIDUAL_TOL * (1.0 + np.linalg.norm(y, axis=1))))
    if bad.size:
        p = bad[0]
        what = (f"solve residual {resid[p]:.3e}" if np.all(np.isfinite(c[p]))
                else "non-finite solution")
        raise NumericalError(f"{what} at grid point {p} (min eigenvalue {min_eig(p):.3e})")
    return c


def _solve_factored(F: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (F[p]^* F[p] + lam I) c = y[p] for every grid point at once in
    the r-dimensional factor space (Woodbury): t = (F F^* + lam I)^{-1} F y,
    c = (y - F^* t) / lam, F F^* and F^* t one point at a time.  F is (m, r, N),
    y is (m, N); returns c, (m, N).  Woodbury loses digits as F F^* + lam I grows
    ill-conditioned: a failed check gets one refinement c -= solve(residual)."""
    M = np.stack([Fp @ np.conj(Fp).T for Fp in F])
    M.reshape(len(M), -1)[:, :: F.shape[1] + 1] += lam       # the diagonal of every M_p
    solve = lambda b: (b - _adjoint(F, np.linalg.solve(M, F @ b[..., None]))[..., 0]) / lam
    residual = lambda c: _adjoint(F, F @ c[..., None])[..., 0] + lam * c - y
    check = lambda c: _checked(c, np.linalg.norm(residual(c), axis=1), y, lambda p: lam)
    with np.errstate(all="ignore"):
        c = solve(y)
        try:
            return check(c)
        except NumericalError:
            return check(c - solve(residual(c)))


def _solve_dense(gram: GramField, y: np.ndarray, lam: float) -> np.ndarray:
    """One Hermitian factorization per grid point of G(z_p) + lam I, with the
    pivoted fallback, then every residual in one batched pass; y is (m, N),
    returns c, (m, N).  A float64 field is solved for Re y and Im y as two
    real columns."""
    G = gram.matrices
    N = gram.n_samples
    real = G.dtype == np.float64
    b = np.stack([y.real, y.imag], axis=-1) if real else y[..., None]     # (m, N, k)
    c = np.empty(b.shape, b.dtype)
    fell_back = []

    def shifted(p: int) -> np.ndarray:       # G[p] + lam I, with no N x N identity per point
        A = G[p].copy()
        A.flat[:: N + 1] += lam
        return A

    potrf, potrs = linalg.get_lapack_funcs(("potrf", "potrs"), (G, b))
    for p in range(gram.grid.m):
        factor, info = potrf(shifted(p), lower=True, overwrite_a=True, clean=False)
        if info == 0:
            c[p] = potrs(factor, b[p], lower=True)[0]
        else:                                # info > 0: not positive definite
            fell_back.append(p)
            try:
                with np.errstate(all="ignore"):
                    c[p] = linalg.solve(shifted(p), b[p], overwrite_a=True, check_finite=False)
            except linalg.LinAlgError:
                c[p] = np.nan
    with np.errstate(all="ignore"):
        r = G @ c
        r += lam * c - b
        # for two real columns, the Frobenius norms are the complex 2-norms
        resid = np.linalg.norm(r, axis=(1, 2))
    _checked(c, resid, y, lambda p: _min_eig(shifted(p)))
    if fell_back:
        warnings.warn(
            f"Hermitian factorization failed at {len(fell_back)} grid point(s) "
            f"(first: {fell_back[0]}); used pivoted general solves",
            SolverFallbackWarning,
            stacklevel=3,
        )
    return c[..., 0] + 1j * c[..., 1] if real else c[..., 0]


def fit(kernel: KernelSpec, inputs, outputs, lam: float,
        allow_aliasing: bool = False) -> RidgeModel:
    """Solve y(z_p) = (G(z_p) + lambda I) c(z_p) at every grid point.

    A finite-n poly kernel with d*min(n, m) < N is solved in its factor
    space (see the module docstring), building no field.  Otherwise the
    field is assembled and factored by a Hermitian (Cholesky) factorization
    per point, falling back to a pivoted general solve with a
    ``SolverFallbackWarning`` when the shifted Gram matrix is not positive
    definite.  Never regularizes silently.  A float64 field is factored in
    real arithmetic and solved for the real and imaginary parts of y as two
    real columns.  Either route ends in one
    batched check of every point's solution and residual.

    Raises
    ------
    ConfigError
        No inputs, mismatched inputs/outputs, a negative or non-finite lam,
        or lam = 0 on a Gram field that is not verifiably positive definite
        (on the factored route it is singular by rank).
    NumericalError
        Non-finite solution at some grid point (how a singular system ends),
        or a residual-check violation.
    """
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    if not inputs:
        raise ConfigError("need at least one training input")
    if len(inputs) != len(outputs):
        raise ConfigError(f"{len(inputs)} inputs vs {len(outputs)} outputs")
    if not 0 <= lam < np.inf:
        raise ConfigError(f"regularization must be finite and >= 0, got {lam}")
    grid = inputs[0].grid
    if any(o.grid != grid for o in outputs):
        raise ConfigError("outputs live on a different grid than inputs")
    factored = _factored(kernel, inputs)
    if factored:
        if lam == 0.0:
            rows, d = min(kernel.n, grid.m), len(kernel.alpha)
            raise ConfigError("lam = 0 requires a strictly positive definite Gram field; "
                              f"this one has rank <= d*{'n' if rows == kernel.n else 'm'} "
                              f"= {d * rows} < N = {len(inputs)}")
        F = poly_factors(kernel, inputs, allow_aliasing)
    else:
        gram = assemble_gram(kernel, inputs, allow_aliasing=allow_aliasing)
        if lam == 0.0:
            report = check_pd(gram)
            if report.global_min <= 0.0:
                raise ConfigError(
                    "lam = 0 requires a strictly positive definite Gram field; "
                    f"minimum eigenvalue {report.global_min:.3e} at point {report.argmin_point}"
                )
    y = np.stack([o.values for o in outputs]).T               # (m, N)
    coeff = (_solve_factored(F, y, lam) if factored else _solve_dense(gram, y, lam)).T.copy()
    model = RidgeModel(kernel=kernel, lam=float(lam), inputs=inputs,
                       coefficients=coeff, allow_aliasing=allow_aliasing)
    if factored:
        object.__setattr__(model, "factor_coefficients", F @ coeff.T[..., None])
    return model


def predict_batch(model: RidgeModel, xs) -> list[SampledFunction]:
    """Predictions f(x)(z_p) = sum_j k(x, x_j)(z_p) c_j(z_p) for a batch of
    input tuples.  On ``fit``'s factored route (finite-n poly,
    d*min(n, m) < N) this is F_{x,p}^* (F_p c_p): the factors of the batch
    times the model's ``factor_coefficients``, rebuilt from the training
    factors only when the model lacks them (read from disk); otherwise one
    (m, Nx, N) cross-kernel block."""
    xs = list(xs)
    if not xs:
        raise ConfigError("need at least one input to predict")
    grid = model.grid
    if any(x.grid != grid for x in xs):
        raise ConfigError("prediction inputs live on a different grid than the model")
    c = model.coefficients
    if _factored(model.kernel, model.inputs):
        Fc = model.factor_coefficients
        if Fc is None:
            Fc = poly_factors(model.kernel, model.inputs, model.allow_aliasing) @ c.T[..., None]
        Fx = poly_factors(model.kernel, xs, model.allow_aliasing)
        vals = _adjoint(Fx, Fc)[..., 0].T
    else:
        K = cross_values(model.kernel, xs, list(model.inputs),
                         allow_aliasing=model.allow_aliasing)     # (m, Nx, Ntr)
        if K.dtype == np.float64:              # Re c and Im c in one product, read as complex
            vals = (K @ np.stack([c.real.T, c.imag.T], -1)).view(complex)[..., 0].T
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
    return float(np.mean(l2_distances(preds, test_outputs)))
