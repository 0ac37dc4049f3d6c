import numpy as np
import pytest

from helpers import random_trig_tuple
from oracles import dense_evaluate
from spectrunc import (
    INF,
    ConfigError,
    FunctionTuple,
    GaussianKernel,
    GramField,
    GridMismatchError,
    L2GaussianTupleKernel,
    NumericalError,
    PolyKernel,
    ProdKernel,
    SampledFunction,
    SepKernel,
    SolverFallbackWarning,
    TorusGrid,
    assemble_gram,
    check_pd,
    fit,
    predict,
)
from spectrunc import regression
from spectrunc import test_error as model_test_error
from spectrunc.kernels import gram_values
from spectrunc.regression import _solve_dense, predict_batch

GRID = TorusGrid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def sep_spec(grid, n=8, scale=1.0):
    one = SampledFunction.constant(grid, 1.0)
    return SepKernel(n=n, q=1, weights=(one,), base=L2GaussianTupleKernel(scale=scale))


def random_outputs(grid, rng, count):
    return [
        SampledFunction(grid, rng.normal(size=grid.m) + 0j) for _ in range(count)
    ]


def complex_outputs(grid, rng, count):
    return [SampledFunction(grid, rng.normal(size=grid.m) + 1j * rng.normal(size=grid.m))
            for _ in range(count)]


def real_prod_spec(n=6):
    g = GaussianKernel(gamma=0.7)
    return ProdKernel(n=n, q=1, bases1=(g,), bases2=(g,), beta=0.2)


class TestAssembleGram:
    def test_single_constant_input(self):
        spec = PolyKernel(n=5, q=1, alpha=(1.0,))
        x = FunctionTuple((SampledFunction.constant(GRID, 1.0),))
        gram = assemble_gram(spec, [x])
        assert gram.matrices.shape == (GRID.m, 1, 1)
        assert np.allclose(gram.matrices, 1.0, atol=1e-12)
        assert gram_values(spec, [x])[1] == 1

    def test_eval_count_is_upper_triangle(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=2) for _ in range(6)]
        spec = PolyKernel(n=4, q=1, alpha=(1.0, 1.0))
        field, count = gram_values(spec, xs)
        assert count == 6 * 7 // 2
        assert np.array_equal(field, assemble_gram(spec, xs).matrices)

    def test_mirror_matches_full_evaluation(self, rng):
        # evaluate both triangles independently and compare
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(4)]
        g1 = GaussianKernel(gamma=0.7)
        spec = ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=0.2)
        gram = assemble_gram(spec, xs)
        for i in range(4):
            for j in range(4):
                want = dense_evaluate(spec, xs[i], xs[j]).values
                assert np.max(np.abs(gram.matrices[:, i, j] - want)) < 1e-9

    def test_hermitian_invariant(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(5)]
        spec = PolyKernel(n=6, q=2, alpha=(1.0,))
        gram = assemble_gram(spec, xs)
        assert gram.hermitian_defect() < 1e-8

    @pytest.mark.parametrize("imag", [1e-3, 1e-12])
    def test_diagonal_imaginary_part_checked(self, rng, monkeypatch, imag):
        # the lower triangle is written as exact conjugates, so a defect can
        # only sit on the diagonal; one above tolerance must still be caught
        real = regression.gram_values

        def tilted(*args, **kwargs):
            mats, count = real(*args, **kwargs)
            diag = np.arange(mats.shape[1])
            mats[:, diag, diag] += 1j * imag
            return mats, count

        monkeypatch.setattr(regression, "gram_values", tilted)
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(4)]
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        if imag > 1e-8:
            with pytest.raises(NumericalError):
                assemble_gram(spec, xs)
        else:
            assert assemble_gram(spec, xs).hermitian_defect() == pytest.approx(2 * imag)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GramField(GRID, np.zeros((3, 2, 2)))


class TestCheckPD:
    def test_poly_positive(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(8)]
        spec = PolyKernel(n=6, q=1, alpha=(1.0, 1.0))
        report = check_pd(assemble_gram(spec, xs))
        assert report.global_min >= -1e-8
        assert report.min_per_point.shape == (GRID.m,)

    def test_sep_positive(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(8)]
        report = check_pd(assemble_gram(sep_spec(GRID), xs))
        assert report.global_min >= -1e-8

    def test_prod_with_policy_beta_positive(self, rng):
        from spectrunc import beta_from_policy

        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(8)]
        g1 = GaussianKernel(gamma=1.0)
        n = 4
        beta = beta_from_policy("estimate", n, 1, grid_density=48)
        spec = ProdKernel(n=n, q=1, bases1=(g1,), bases2=(g1,), beta=beta,
                          beta_policy="estimate")
        report = check_pd(assemble_gram(spec, xs))
        assert report.global_min >= -1e-8

    def test_prod_beta_zero_is_diagnostic(self, rng):
        # without the offset the product kernel may go indefinite; the check
        # reports rather than fails
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(8)]
        g1 = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=0.0)
        report = check_pd(assemble_gram(spec, xs))
        assert np.isfinite(report.global_min)


class TestFit:
    def test_scalar_solve(self, rng):
        # N = 1: c(z) = y(z) / (g(z) + lam)
        x = random_trig_tuple(GRID, rng, d=1, deg=2)
        y = random_outputs(GRID, rng, 1)[0]
        spec = sep_spec(GRID)
        lam = 0.3
        model = fit(spec, [x], [y], lam)
        g = dense_evaluate(spec, x, x).values
        want = y.values / (g + lam)
        assert np.allclose(model.coefficients[0], want, atol=1e-10)

    def test_large_lambda_decay(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(4)]
        ys = random_outputs(GRID, rng, 4)
        spec = sep_spec(GRID)
        lam = 1e6
        model = fit(spec, xs, ys, lam)
        ynorm = np.linalg.norm(np.stack([y.values for y in ys]))
        cnorm = np.linalg.norm(model.coefficients)
        assert cnorm <= 1.05 * ynorm / lam

    def test_exact_interpolation(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(6)]
        ys = random_outputs(GRID, rng, 6)
        spec = sep_spec(GRID, scale=0.5)
        model = fit(spec, xs, ys, lam=1e-10)
        for x, y in zip(xs, ys):
            got = predict(model, x)
            assert np.max(np.abs(got.values - y.values)) < 1e-4

    def test_lambda_zero_requires_pd(self, rng):
        x = random_trig_tuple(GRID, rng, d=1, deg=2)
        spec = PolyKernel(n=3, q=1, alpha=(1.0,))
        # duplicated inputs give a singular Gram matrix
        xs = [x, x]
        ys = random_outputs(GRID, rng, 2)
        with pytest.raises(ConfigError):
            fit(spec, xs, ys, lam=0.0)

    def test_negative_lambda_rejected(self, rng):
        x = random_trig_tuple(GRID, rng, d=1, deg=2)
        with pytest.raises(ConfigError):
            fit(sep_spec(GRID), [x], random_outputs(GRID, rng, 1), lam=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, rng, lam):
        x = random_trig_tuple(GRID, rng, d=1, deg=2)
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            fit(sep_spec(GRID), [x], random_outputs(GRID, rng, 1), lam=lam)

    def test_fallback_warning_on_indefinite(self, rng):
        # an indefinite shifted Gram matrix defeats the Hermitian
        # factorization; the pivoted fallback still solves it
        ys = random_outputs(GRID, rng, 2)
        mats = np.tile(np.diag([1.0, -1.0]).astype(complex), (GRID.m, 1, 1))
        gram = GramField(GRID, mats)
        y = np.stack([y.values for y in ys])
        with pytest.warns(SolverFallbackWarning):
            c = _solve_dense(gram, y.T, 0.1)
        A = mats[0] + 0.1 * np.eye(2)
        want = np.linalg.solve(A, y)
        assert np.allclose(c.T, want, atol=1e-10)

    def test_real_field_solve_matches_complex_solve(self, rng):
        # a float64 field is factored in real arithmetic, with Re y and Im y
        # as two real right-hand sides
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(6)]
        ys = complex_outputs(GRID, rng, 6)
        spec = real_prod_spec()
        gram = assemble_gram(spec, xs)
        assert gram.matrices.dtype == np.float64
        real = fit(spec, xs, ys, lam=0.05).coefficients
        cgram = GramField(GRID, gram.matrices.astype(complex))
        want = _solve_dense(cgram, np.stack([y.values for y in ys]).T, 0.05).T
        assert real.dtype == np.complex128
        assert np.max(np.abs(real.imag)) > 0.1 * np.max(np.abs(real))
        assert np.max(np.abs(real - want)) <= 1e-12 * np.max(np.abs(want))

    def test_real_field_fallback_on_indefinite(self, rng):
        ys = complex_outputs(GRID, rng, 2)
        gram = GramField(GRID, np.tile(np.diag([1.0, -1.0]), (GRID.m, 1, 1)))
        assert gram.matrices.dtype == np.float64
        y = np.stack([y.values for y in ys])
        with pytest.warns(SolverFallbackWarning):
            c = _solve_dense(gram, y.T, 0.1)
        A = np.diag([1.1, -0.9])
        want = np.linalg.solve(A, y)
        assert np.allclose(c.T, want, atol=1e-10)

    def test_singular_system_raises(self, rng):
        ys = random_outputs(GRID, rng, 2)
        mats = np.tile((-0.1 * np.eye(2)).astype(complex), (GRID.m, 1, 1))
        gram = GramField(GRID, mats)
        with pytest.raises(NumericalError):
            _solve_dense(gram, np.stack([y.values for y in ys]).T, 0.1)

    # one spec per solve route on six d = 1 inputs: the factored poly route
    # (d*n = 4 < N), a float64 dense field (prod, same bases) and a complex
    # dense one (poly, d*n = N)
    ROUTES = pytest.mark.parametrize("spec", [
        PolyKernel(n=4, q=1, alpha=(1.0,)), real_prod_spec(n=4), PolyKernel(n=6, q=1, alpha=(1.0,)),
    ], ids=["factored", "dense-real", "dense-complex"])

    @ROUTES
    def test_residual_check_names_the_grid_point(self, rng, monkeypatch, spec):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(6)]
        monkeypatch.setattr(regression, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match="residual .* at grid point 0 "):
            fit(spec, xs, complex_outputs(GRID, rng, 6), lam=0.1)

    @ROUTES
    def test_non_finite_solution_raises(self, rng, spec):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(6)]
        xs[2] = FunctionTuple((SampledFunction(GRID, np.full(GRID.m, np.nan + 0j)),))
        # a dense field holding NaN has no eigenvalues to report
        eig = "1.000e-01" if regression._factored(spec, xs) else "nan"
        with pytest.raises(NumericalError, match=rf"non-finite solution at grid point 0 "
                                                 rf"\(min eigenvalue {eig}\)"):
            fit(spec, xs, complex_outputs(GRID, rng, 6), lam=0.1)

    @pytest.mark.parametrize("spec", [real_prod_spec(n=4), PolyKernel(n=6, q=1, alpha=(1.0,))],
                             ids=["dense-real", "dense-complex"])
    def test_dense_fit_computes_no_eigenvalues(self, rng, monkeypatch, spec):
        # the minimum eigenvalue only goes into a failure message
        def spy(A):
            raise AssertionError("_min_eig called on a successful fit")

        monkeypatch.setattr(regression, "_min_eig", spy)
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(6)]
        fit(spec, xs, complex_outputs(GRID, rng, 6), lam=0.1)

    def test_residual_invariant_enforced(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(5)]
        ys = random_outputs(GRID, rng, 5)
        spec = PolyKernel(n=5, q=1, alpha=(1.0, 1.0))
        model = fit(spec, xs, ys, lam=0.05)
        gram = assemble_gram(spec, xs)
        for p in range(GRID.m):
            A = gram.matrices[p] + 0.05 * np.eye(5)
            b = np.array([y.values[p] for y in ys])
            r = np.linalg.norm(A @ model.coefficients[:, p] - b)
            assert r <= 1e-8 * (1 + np.linalg.norm(b))

    def test_permutation_equivariance(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(5)]
        ys = random_outputs(GRID, rng, 5)
        spec = PolyKernel(n=5, q=1, alpha=(1.0, 1.0))
        model = fit(spec, xs, ys, lam=0.1)
        perm = [3, 0, 4, 1, 2]
        model_p = fit(spec, [xs[i] for i in perm], [ys[i] for i in perm], lam=0.1)
        assert np.max(np.abs(model_p.coefficients - model.coefficients[perm])) < 1e-10
        probe = random_trig_tuple(GRID, rng, d=2, deg=3)
        a = predict(model, probe).values
        b = predict(model_p, probe).values
        assert np.max(np.abs(a - b)) < 1e-10

    def test_training_error_monotone_in_lambda(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(6)]
        ys = random_outputs(GRID, rng, 6)
        spec = sep_spec(GRID, scale=0.5)
        errs = [model_test_error(fit(spec, xs, ys, lam), xs, ys) for lam in (1e-6, 1e-2, 1.0)]
        assert errs[0] <= errs[1] + 1e-12 <= errs[2] + 2e-12

    def test_mismatched_lengths(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2)]
        with pytest.raises(ConfigError):
            fit(sep_spec(GRID), xs, [], lam=0.1)


class TestPredict:
    def test_zero_coefficients(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(3)]
        spec = sep_spec(GRID)
        model = fit(spec, xs, [SampledFunction.constant(GRID, 0.0)] * 3, lam=0.5)
        probe = random_trig_tuple(GRID, rng, d=1, deg=2)
        assert np.allclose(predict(model, probe).values, 0.0, atol=1e-12)

    def test_batch_matches_single(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(4)]
        ys = random_outputs(GRID, rng, 4)
        model = fit(sep_spec(GRID), xs, ys, lam=0.1)
        probes = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(3)]
        batch = predict_batch(model, probes)
        for p, got in zip(probes, batch):
            assert np.allclose(got.values, predict(model, p).values, atol=1e-12)

    def test_real_cross_block_matches_complex_product(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(5)]
        spec = real_prod_spec()
        model = fit(spec, xs, complex_outputs(GRID, rng, 5), lam=0.1)
        probes = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(3)]
        K = regression.cross_values(spec, probes, xs)
        assert K.dtype == np.float64
        want = np.einsum("pij,jp->ip", K.astype(complex), model.coefficients)
        got = np.stack([p.values for p in predict_batch(model, probes)])
        assert np.max(np.abs(got.imag)) > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_grid_mismatch(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2)]
        model = fit(sep_spec(GRID), xs, random_outputs(GRID, rng, 1), lam=0.1)
        other = random_trig_tuple(TorusGrid(16), rng, d=1, deg=2)
        with pytest.raises(ConfigError):
            predict(model, other)


class TestTestError:
    def test_perfect_predictions(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, real=True) for _ in range(5)]
        ys = random_outputs(GRID, rng, 5)
        model = fit(sep_spec(GRID, scale=0.5), xs, ys, lam=1e-10)
        assert model_test_error(model, xs, ys) < 1e-4

    def test_zero_model_unit_outputs(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(3)]
        model = fit(sep_spec(GRID), xs, [SampledFunction.constant(GRID, 0.0)] * 3, lam=0.5)
        ones = [SampledFunction.constant(GRID, 1.0)] * 3
        assert model_test_error(model, xs, ones) == pytest.approx(1.0, abs=1e-12)

    def test_output_on_another_grid_rejected(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=2) for _ in range(3)]
        ys = random_outputs(GRID, rng, 3)
        model = fit(sep_spec(GRID), xs, ys, lam=0.5)
        other = ys[:2] + [SampledFunction.constant(TorusGrid(2 * GRID.m), 0.0)]
        with pytest.raises(GridMismatchError):
            model_test_error(model, xs, other)


class TestFactoredRoute:
    """Finite-n poly with d*n < N: fit and predict_batch solve in the rank-d*n
    factor space and never build an N x N field or an Nx x N cross block."""

    @staticmethod
    def dense_fit_predict(spec, xs, ys, lam, probes):
        gram = assemble_gram(spec, xs, allow_aliasing=True)
        coeff = _solve_dense(gram, np.stack([y.values for y in ys]).T, lam).T
        K = regression.cross_values(spec, probes, xs, allow_aliasing=True)
        return coeff, np.einsum("pij,jp->ip", K, coeff)

    # the folded cases have d*n >= N > d*m: rank d*m on the m = 32 grid
    @pytest.mark.parametrize("q, alpha, n, N", [
        (1, (1.0, 1.0), 4, 12),
        (1, (0.0, 1.3), 3, 8),
        (2, (0.7, 1.3), 3, 10),
        (2, (0.5,), 5, 9),
        (1, (1.0,), 48, 40),
        (1, (0.7, 1.3), 40, 70),
    ], ids=["q1", "q1-zero-weight", "q2", "q2-d1", "q1-d1-folded", "q1-folded"])
    def test_factored_matches_dense_route(self, rng, q, alpha, n, N):
        d = len(alpha)
        spec = PolyKernel(n=n, q=q, alpha=alpha)
        xs = [random_trig_tuple(GRID, rng, d=d, deg=3) for _ in range(N)]
        ys = complex_outputs(GRID, rng, N)
        probes = [random_trig_tuple(GRID, rng, d=d, deg=3) for _ in range(3)]
        assert regression._factored(spec, xs)
        model = fit(spec, xs, ys, lam=0.05, allow_aliasing=True)
        got = np.stack([p.values for p in predict_batch(model, probes)])
        coeff, want = self.dense_fit_predict(spec, xs, ys, 0.05, probes)
        assert np.max(np.abs(model.coefficients - coeff)) <= 1e-10 * np.max(np.abs(coeff))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_ill_conditioned_solve_is_refined(self, rng):
        # cond(F F^* + lam I) ~ 5e6: the plain Woodbury solve leaves a
        # residual ~1.5e-7, past the bound 1e-8 (1 + |y_p|), until one
        # refinement step
        spec = PolyKernel(n=40, q=2, alpha=(0.7, 1.3))
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3, scale=1.0) for _ in range(70)]
        ys = complex_outputs(GRID, rng, 70)
        assert regression._factored(spec, xs)
        model = fit(spec, xs, ys, lam=0.05, allow_aliasing=True)
        coeff, _ = self.dense_fit_predict(spec, xs, ys, 0.05, xs[:1])
        assert np.max(np.abs(model.coefficients - coeff)) <= 1e-9 * np.max(np.abs(coeff))

    def test_residual_invariant_against_dense_field(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(12)]
        ys = complex_outputs(GRID, rng, 12)
        spec = PolyKernel(n=5, q=1, alpha=(1.0, 1.0))          # d*n = 10 < N = 12
        model = fit(spec, xs, ys, lam=0.01)
        gram = assemble_gram(spec, xs)
        for p in range(GRID.m):
            A = gram.matrices[p] + 0.01 * np.eye(12)
            b = np.array([y.values[p] for y in ys])
            r = np.linalg.norm(A @ model.coefficients[:, p] - b)
            assert r <= 1e-8 * (1 + np.linalg.norm(b))

    def test_lambda_zero_rejected(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(6)]
        with pytest.raises(ConfigError, match="rank <= d\\*n = 4 < N = 6"):
            fit(PolyKernel(n=4, q=1, alpha=(1.0,)), xs, complex_outputs(GRID, rng, 6), lam=0.0)

    def test_lambda_zero_rejected_names_the_folded_bound(self, rng):
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(40)]
        with pytest.raises(ConfigError, match="rank <= d\\*m = 32 < N = 40"):
            fit(PolyKernel(n=48, q=1, alpha=(1.0,)), xs, complex_outputs(GRID, rng, 40), lam=0.0,
                allow_aliasing=True)

    @pytest.mark.parametrize("n, m, dense", [(3, 32, False), (4, 32, True), (INF, 32, True),
                                             (5, 3, False)],
                             ids=["below-N", "equal-N", "inf", "folded-below-N"])
    def test_dense_blocks_only_when_rank_reaches_N(self, rng, monkeypatch, n, m, dense):
        # d*min(n, m) = 6 < N = 8 takes the factored route, also when
        # d*n = 10 >= N; d*n = N and the rank-d n = INF limit keep the field
        # and the cross block
        called = set()
        for name in ("gram_values", "cross_values", "assemble_gram"):
            def spy(*args, _real=getattr(regression, name), _name=name, **kwargs):
                called.add(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(regression, name, spy)
        grid = TorusGrid(m)
        xs = [random_trig_tuple(grid, rng, d=2, deg=3) for _ in range(8)]
        model = fit(PolyKernel(n=n, q=1, alpha=(1.0, 1.0)), xs, complex_outputs(grid, rng, 8),
                    lam=0.1, allow_aliasing=True)
        predict_batch(model, xs[:2])
        assert called == ({"gram_values", "cross_values", "assemble_gram"} if dense else set())

    def test_fitted_model_factors_only_the_batch(self, rng, monkeypatch, tmp_path):
        # fit keeps F_p c_p; a model read from disk lacks it and rebuilds it
        # from the training factors, and both predict the same bits
        from spectrunc.serialize import read_model, write_model

        spec = PolyKernel(n=3, q=2, alpha=(0.7, 1.3))
        xs = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(10)]
        probes = [random_trig_tuple(GRID, rng, d=2, deg=3) for _ in range(3)]
        model = fit(spec, xs, complex_outputs(GRID, rng, 10), lam=0.05)
        write_model(model, tmp_path / "model")
        read = read_model(tmp_path / "model")
        assert read.factor_coefficients is None
        assert "factor_coefficients" not in repr(model)
        sizes = []

        def spy(kernel, inputs, *args, _real=regression.poly_factors):
            sizes.append(len(inputs))
            return _real(kernel, inputs, *args)

        monkeypatch.setattr(regression, "poly_factors", spy)
        fresh = np.stack([p.values for p in predict_batch(model, probes)])
        assert sizes == [3]
        sizes.clear()
        rebuilt = np.stack([p.values for p in predict_batch(read, probes)])
        assert sorted(sizes) == [3, 10]
        assert np.array_equal(fresh, rebuilt)

    def test_empty_inputs_rejected(self, rng):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        with pytest.raises(ConfigError, match="at least one training input"):
            fit(spec, [], [], lam=0.1)
        xs = [random_trig_tuple(GRID, rng, d=1, deg=3) for _ in range(6)]
        model = fit(spec, xs, complex_outputs(GRID, rng, 6), lam=0.1)
        with pytest.raises(ConfigError, match="at least one input to predict"):
            predict_batch(model, [])
