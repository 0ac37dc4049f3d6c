import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import random_trig_tuple
from oracles import base_values, dense_complexity_D, l2_gaussian, operator_norm
from spectrunc import (
    INF,
    ConfigError,
    FunctionTuple,
    GaussianKernel,
    GridMismatchError,
    L2GaussianTupleKernel,
    LinearKernel,
    PolyKernel,
    ProdKernel,
    SampledFunction,
    SepKernel,
    TorusGrid,
    beta_from_policy,
    bound_rhs,
    complexity_D,
    complexity_report,
    complexity_sweep,
    convergence_report,
    integrate,
    kernel_limit_gap,
    truncate,
)
from spectrunc import diagnostics, kernels
from spectrunc.diagnostics import spec_at
from spectrunc.errors import BetaMonotonicityWarning
from spectrunc.kernels import PolynomialKernel, _truncation_norms

GRID = TorusGrid(64)


@pytest.fixture
def rng():
    return np.random.default_rng(23)


class TestComplexityD:
    def test_poly_constant(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        assert complexity_D(spec, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_poly_character(self, n):
        # the shift matrix has unit operator norm at every n >= 2
        spec = PolyKernel(n=n, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.from_callable(GRID, lambda z: np.exp(1j * z)),))
        assert complexity_D(spec, x) == pytest.approx(1.0, abs=1e-10)

    def test_inf_rejected(self):
        spec = PolyKernel(n=INF, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        with pytest.raises(ConfigError):
            complexity_D(spec, x)

    def test_prod_formula(self, rng):
        g1 = GaussianKernel(gamma=0.5)
        g2 = GaussianKernel(gamma=1.5)
        spec = ProdKernel(n=5, q=1, bases1=(g1,), bases2=(g2,), beta=0.7)
        x = random_trig_tuple(GRID, rng, d=2, deg=3, real=True)
        f1 = SampledFunction(GRID, base_values(g1, x, x))
        f2 = SampledFunction(GRID, base_values(g2, x, x))
        want = (
            operator_norm(truncate(f1, 5).dense())
            * operator_norm(truncate(f2, 5).dense())
            + 0.7 * (integrate(f1) * integrate(f2)).real
        )
        assert complexity_D(spec, x) == pytest.approx(want, abs=1e-12)

    def test_sep_formula(self, rng):
        a = SampledFunction.from_callable(GRID, lambda z: np.exp(np.sin(z)).astype(complex))
        base = L2GaussianTupleKernel(scale=0.3)
        spec = SepKernel(n=6, q=2, weights=(a, a), base=base)
        x = random_trig_tuple(GRID, rng, d=2, deg=3, real=True)
        norm_a = operator_norm(truncate(a, 6).dense())
        want = l2_gaussian(base, x, x).real * norm_a**4
        assert complexity_D(spec, x) == pytest.approx(want, abs=1e-10)

    def test_monotone_in_n(self, rng):
        g1 = GaussianKernel(gamma=1.0)
        a = SampledFunction.from_callable(GRID, lambda z: np.exp(np.sin(z)).astype(complex))
        specs = [
            PolyKernel(n=2, q=1, alpha=(1.0, 1.0)),
            ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta=1.0),
            SepKernel(n=2, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.3)),
        ]
        x = random_trig_tuple(GRID, rng, d=2, deg=4, real=True)
        for spec in specs:
            rows = complexity_sweep(spec, x, range(2, 20))
            vals = [v for _, v in rows]
            assert all(b >= a * (1 - 1e-10) for a, b in zip(vals, vals[1:])), spec.family

    @pytest.mark.parametrize("family", ["poly", "prod", "sep"])
    def test_matches_dense_formula(self, family, rng):
        # the dense n x n SVDs of the definition, past n = m with aliasing allowed
        grid = TorusGrid(32)
        a = SampledFunction(grid, np.exp(np.sin(grid.points) + 0.5j * np.cos(2 * grid.points)))
        b = SampledFunction(grid, 1.5 + np.exp(-1j * grid.points))
        spec = {
            "poly": PolyKernel(n=2, q=2, alpha=(0.5, 1.5)),
            "prod": ProdKernel(n=2, q=2, bases1=(GaussianKernel(0.5), LinearKernel()),
                               bases2=(PolynomialKernel(2, 1.5), GaussianKernel(1.5)), beta=0.7),
            "sep": SepKernel(n=2, q=2, weights=(a, b), base=L2GaussianTupleKernel(scale=0.3)),
        }[family]
        x = random_trig_tuple(grid, rng, d=2, deg=5)
        for n in (*range(1, 18), 31, 32, 33, 40):
            spec_n = dataclasses.replace(spec, n=n)
            want = dense_complexity_D(spec_n, x, allow_aliasing=True)
            assert complexity_D(spec_n, x, allow_aliasing=True) == pytest.approx(want, rel=1e-12)

    def test_sep_sample_on_another_grid_rejected(self):
        a = SampledFunction.constant(GRID, 1.0)
        spec = SepKernel(n=4, q=1, weights=(a,), base=L2GaussianTupleKernel(scale=0.3))
        x = FunctionTuple((SampledFunction.constant(TorusGrid(32), 1.0),))
        with pytest.raises(GridMismatchError):
            complexity_D(spec, x)

    def test_poly_memory_bounded_past_m(self, rng):
        # a dense 2048 x 2048 R_n(x) alone is 64 MiB
        x = random_trig_tuple(TorusGrid(30), rng, d=2, deg=4)
        spec = PolyKernel(n=2048, q=2, alpha=(1.0, 1.0))
        complexity_D(dataclasses.replace(spec, n=4), x)       # first-call setup off the books
        tracemalloc.start()
        try:
            D = complexity_D(spec, x, allow_aliasing=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(D) and peak < 1 << 20


class TestFoldedNorms:
    @pytest.mark.parametrize("m", [30, 31, 32])
    def test_matches_dense_svd(self, m):
        rng = np.random.default_rng(m)
        grid = TorusGrid(m)
        gs = [SampledFunction(grid, rng.standard_normal(m) + 1j * rng.standard_normal(m))
              for _ in range(2)]
        values = np.array([g.values for g in gs])
        for n in (*range(1, 78), 128, 257):
            want = [np.linalg.norm(truncate(g, n, True).dense(), 2) for g in gs]
            assert _truncation_norms(values, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("base", [
    GaussianKernel(gamma=0.7),
    LinearKernel(),
    *(PolynomialKernel(degree, offset) for degree in (1, 2, 3) for offset in (0.0, 1.5)),
], ids=repr)
def test_base_diagonal_is_real(base, rng):
    # b(x, x) is real: a Gaussian's values are float64, and conj(u) u keeps an
    # imaginary part of rounding size only where numpy fuses the multiply-add
    v = random_trig_tuple(GRID, rng, d=3, deg=4).value_matrix()
    g = base.pairwise(v, v)
    assert g.dtype == (float if isinstance(base, GaussianKernel) else complex)
    assert np.all(np.abs(np.imag(g)) <= 16 * np.finfo(float).eps * np.abs(g))


class TestBoundRhs:
    def test_third_term_only(self):
        assert bound_rhs([0.0], 1.0, 1.0, 1 / math.e, [0.0]) == pytest.approx(3.0)

    def test_second_term_linear_in_B(self):
        D = [1.0, 2.0, 0.5]
        losses = [0.0, 0.0, 0.0]
        base = bound_rhs(D, 1.0, 1.0, 0.5, losses)
        doubled = bound_rhs(D, 2.0, 1.0, 0.5, losses)
        third = 3.0 * math.sqrt(math.log(2.0) / 3)
        assert doubled - third == pytest.approx(2 * (base - third), rel=1e-12)

    def test_monotone_in_components(self):
        D = np.array([1.0, 2.0])
        losses = np.array([0.1, 0.3])
        base = bound_rhs(D, 1.0, 1.0, 0.5, losses)
        assert bound_rhs(D + 0.5, 1.0, 1.0, 0.5, losses) > base
        assert bound_rhs(D, 1.5, 1.0, 0.5, losses) > base
        assert bound_rhs(D, 1.0, 1.5, 0.5, losses) > base

    def test_delta_domain(self):
        with pytest.raises(ConfigError):
            bound_rhs([1.0], 1.0, 1.0, 0.0, [0.0])
        with pytest.raises(ConfigError):
            bound_rhs([1.0], 1.0, 1.0, 1.0, [0.0])

    def test_negative_D_rejected(self):
        with pytest.raises(ConfigError):
            bound_rhs([-1.0], 1.0, 1.0, 0.5, [0.0])


class TestComplexityReport:
    def test_terms(self, rng):
        spec = PolyKernel(n=4, q=1, alpha=(1.0, 1.0))
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(4)]
        report = complexity_report(spec, xs, B=2.0, L=1.5, delta=0.1)
        D = np.array([complexity_D(spec, x) for x in xs])
        assert np.allclose(report.D_values, D)
        assert report.second_term == pytest.approx(2 * 1.5 * 2.0 / 4 * math.sqrt(D.sum()))
        assert report.third_term == pytest.approx(3 * math.sqrt(math.log(10.0) / 4))

    def test_second_term_nondecreasing_in_n(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(3)]
        seconds = []
        for n in (2, 4, 8, 16):
            spec = PolyKernel(n=n, q=1, alpha=(1.0, 1.0))
            seconds.append(complexity_report(spec, xs).second_term)
        assert all(b >= a * (1 - 1e-10) for a, b in zip(seconds, seconds[1:]))


class TestSweepAndReport:
    def test_beta_monotonicity_warning(self, rng):
        # the density-64 scan of the estimate policy under-resolves the Fejer
        # minimum past n ~ 48: beta_48 = 92.6 but beta_56 = 27.5
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta_policy="estimate")
        x = random_trig_tuple(GRID, rng, d=2, deg=3, real=True)
        with pytest.warns(BetaMonotonicityWarning):
            complexity_sweep(spec, x, [48, 56], allow_aliasing=True)
        manual = dataclasses.replace(spec, beta=1.0, beta_policy="manual")
        with warnings.catch_warnings():
            warnings.simplefilter("error", BetaMonotonicityWarning)
            complexity_sweep(manual, x, [48, 56], allow_aliasing=True)

    def test_spec_at_resolves_the_policy_beta_at_other_orders(self):
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta=7.0, beta_policy="bound")
        assert spec_at(spec, 2) is spec                    # the loaded (explicit) beta stands
        assert [spec_at(spec, n).beta for n in (4, 8)] == [16.0, 64.0]
        assert spec_at(spec, INF).beta == 0.0
        manual = dataclasses.replace(spec, beta_policy="manual")
        assert spec_at(manual, 8) == dataclasses.replace(manual, n=8)
        poly = PolyKernel(n=2, q=1, alpha=(1.0,))
        assert spec_at(poly, 8) == PolyKernel(n=8, q=1, alpha=(1.0,))

    def test_spec_at_keeps_an_explicit_beta_only_at_its_own_order(self):
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta_policy="estimate")
        beta_n = {n: beta_from_policy("estimate", n, 1) for n in (2, 4)}
        assert spec_at(spec, 2).beta == spec.beta == beta_n[2]
        assert spec_at(spec, 4).beta == beta_n[4]
        explicit = dataclasses.replace(spec, beta=7.0)
        assert spec_at(explicit, 2).beta == 7.0
        assert spec_at(explicit, 4).beta == beta_n[4]
        assert spec_at(spec_at(explicit, 4), 2).beta == beta_n[2]

    def test_sweep_of_python_built_estimate_spec(self):
        # b(x, x) = 1 for a Gaussian base, so D = 1 + beta_n, from the first n on
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=8, q=1, bases1=(g1,), bases2=(g1,), beta_policy="estimate")
        x = FunctionTuple((SampledFunction.constant(GRID, 0.5),))
        rows = complexity_sweep(spec, x, [8, 16])
        assert rows[0] == (8, pytest.approx(3.7227466191980554, rel=1e-12))
        assert rows[1] == (16, pytest.approx(1.0 + beta_from_policy("estimate", 16, 1),
                                             rel=1e-12))

    def test_sweep_of_bound_policy_tracks_beta_n(self):
        # b(x, x) = 1 for a Gaussian base, so D = 1 + beta_n = 1 + n^2
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta=4.0, beta_policy="bound")
        x = FunctionTuple((SampledFunction.constant(GRID, 0.5),))
        rows = complexity_sweep(spec, x, [2, 4, 8])
        assert [n for n, _ in rows] == [2, 4, 8]
        assert [D for _, D in rows] == pytest.approx([5.0, 17.0, 65.0], rel=1e-12)

    def test_convergence_report_constants(self):
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),
                           SampledFunction.constant(GRID, 2.0)))
        specs = {"poly": PolyKernel(n=2, q=1, alpha=(1.0, 1.0))}
        rows = convergence_report(specs, x, x, [2, 4, 8])
        assert all(r["sup_gap"] < 1e-12 for r in rows)

    def test_convergence_report_character(self):
        x = FunctionTuple((SampledFunction.from_callable(GRID, lambda z: np.exp(1j * z)),))
        specs = {"poly": PolyKernel(n=2, q=1, alpha=(1.0,))}
        rows = convergence_report(specs, x, x, [2, 4, 8, 16])
        for r in rows:
            assert r["sup_gap"] == pytest.approx(1.0 / r["n"], abs=1e-12)

    def test_q2_gap_reported_not_asserted(self, rng, capsys):
        # higher degree is expected to converge more slowly; this is
        # reported for inspection, not asserted as a law
        grid = TorusGrid(128)
        x = random_trig_tuple(grid, rng, d=1, deg=2, scale=0.3)
        y = random_trig_tuple(grid, rng, d=1, deg=2, scale=0.3)
        gaps = {}
        for q in (1, 2):
            spec = PolyKernel(n=8, q=q, alpha=(1.0,))
            rows = convergence_report({f"poly_q{q}": spec}, x, y, [16, 64])
            gaps[q] = [r["sup_gap"] for r in rows]
            assert all(np.isfinite(g) for g in gaps[q])
        print(f"sup-gap comparison q=1 {gaps[1]} vs q=2 {gaps[2]}")

    # each n is checked by the spec it builds: inf by complexity_D, a
    # fraction by the spec's own integer check, never truncated to int(n)
    def test_sweep_rejects_inf(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        with pytest.raises(ConfigError, match="finite truncation"):
            complexity_sweep(spec, x, [4, INF])

    def test_sweep_rejects_fractional_n(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        with pytest.raises(ConfigError, match="truncation n must be an integer"):
            complexity_sweep(spec, x, [2.5])

    def test_limit_gap_rejects_fractional_n(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        with pytest.raises(ConfigError, match="truncation n must be an integer"):
            kernel_limit_gap(spec, x, x, [2.5])

    def test_limit_gap_leaves_the_offset_out(self):
        # the limit has no offset: on a constant input the bound policy's
        # beta_2 = 4 is no gap at any n
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta_policy="bound")
        x = FunctionTuple((SampledFunction.constant(GRID, 0.5),))
        rows = kernel_limit_gap(spec, x, x, [2, 4, 8])
        assert [n for n, _, _ in rows] == [2, 4, 8]
        assert all(sup == pytest.approx(0.0, abs=1e-12) and mean == pytest.approx(0.0, abs=1e-12)
                   for _, sup, mean in rows)

    @pytest.mark.parametrize("policy, beta", [("bound", None), ("estimate", None),
                                              ("manual", 1.0)])
    def test_limit_gap_of_offset_spec_is_that_of_its_offset_free_twin(self, rng, policy, beta):
        grid = TorusGrid(32)
        x = random_trig_tuple(grid, rng, d=2, deg=3)
        y = random_trig_tuple(grid, rng, d=2, deg=3)
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=beta, beta_policy=policy)
        assert spec.beta > 0
        twin = ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=0.0)
        n_list = [2, 4, 8, 16]
        assert kernel_limit_gap(spec, x, y, n_list) == kernel_limit_gap(twin, x, y, n_list)

    def test_limit_gap_lives_in_diagnostics(self):
        assert not hasattr(kernels, "kernel_limit_gap")
        assert diagnostics.kernel_limit_gap is kernel_limit_gap

    def test_report_rejects_no_samples(self):
        with pytest.raises(ConfigError, match="at least one sample"):
            complexity_report(PolyKernel(n=4, q=1, alpha=(1.0,)), [])

    def test_prod_beta_zeroed_for_gap(self, rng):
        # the report targets the limit kernel, so the offset must not leak in
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=5.0)
        x = random_trig_tuple(GRID, rng, d=2, deg=2, real=True)
        y = random_trig_tuple(GRID, rng, d=2, deg=2, real=True)
        rows = convergence_report({"prod": spec}, x, y, [8, 16, 32])
        sups = [r["sup_gap"] for r in rows]
        assert sups[-1] < sups[0]
        assert sups[-1] < 0.5
