"""Spectral-truncation kernels for function-valued learning on the torus."""

from .errors import (
    AliasingError,
    BetaMonotonicityWarning,
    BudgetError,
    ConfigError,
    GridMismatchError,
    NumericalError,
    SolverFallbackWarning,
)
from .torus import (
    FunctionTuple,
    SampledFunction,
    TorusGrid,
    integrate,
    l2_distance,
)
from .truncation import (
    ToeplitzRep,
    smooth,
    sn_map_at,
    truncate,
)
from .fejer import (
    beta_from_policy,
    dirichlet,
    fejer_convolve,
    fejer_min_estimate,
    fejer_multi,
)
from .kernels import (
    INF,
    GaussianKernel,
    KernelSpec,
    L2GaussianTupleKernel,
    LinearKernel,
    PolyKernel,
    PolynomialKernel,
    ProdKernel,
    SepKernel,
    evaluate,
)
from .regression import (
    GramField,
    PDReport,
    RidgeModel,
    assemble_gram,
    check_pd,
    fit,
    predict,
    test_error,
)
from .diagnostics import (
    ComplexityReport,
    bound_rhs,
    complexity_D,
    complexity_report,
    complexity_sweep,
    convergence_report,
    kernel_limit_gap,
)
from .experiments import (
    InpaintConfig,
    SyntheticConfig,
    gen_synthetic,
    run_eigen_study,
    run_inpaint,
    run_synthetic,
)

__version__ = "0.1.0"
