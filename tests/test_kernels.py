import dataclasses
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from helpers import random_trig_tuple
from oracles import (dense_evaluate, k_poly, k_prod, k_sep, l2_gaussian, prod_offset,
                     sep_weight_matrix, sn_map)
from spectrunc import (
    INF,
    AliasingError,
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
    evaluate,
    kernel_limit_gap,
    smooth,
)
from spectrunc import kernels as kernels_mod
from spectrunc import parallel
from spectrunc.errors import ConfigError
from spectrunc.fejer import BETA_POLICIES
from spectrunc.kernels import PolynomialKernel, cross_values, gram_values


GRID = TorusGrid(32)


def const_tuple(grid, values):
    return FunctionTuple(tuple(SampledFunction.constant(grid, v) for v in values))


def character_tuple(grid, k=1):
    return FunctionTuple((SampledFunction.from_callable(grid, lambda z: np.exp(1j * k * z)),))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSpecValidation:
    def test_q_zero_rejected(self):
        with pytest.raises(ConfigError):
            PolyKernel(n=4, q=0, alpha=(1.0,))

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            PolyKernel(n=0, q=1, alpha=(1.0,))
        with pytest.raises(ConfigError):
            PolyKernel(n=2.5, q=1, alpha=(1.0,))

    # a bool or a string is rejected in a Python-built spec as in a JSON document
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1"])
    def test_non_finite_reals_rejected(self, value):
        g = GaussianKernel(gamma=1.0)
        makers = [lambda: ProdKernel(n=4, q=1, bases1=(g,), bases2=(g,), beta=value),
                  lambda: GaussianKernel(gamma=value),
                  lambda: PolynomialKernel(degree=2, offset=value),
                  lambda: L2GaussianTupleKernel(scale=value),
                  lambda: PolyKernel(n=4, q=1, alpha=(1.0, value))]
        for make in makers:
            with pytest.raises(ConfigError, match="finite"):
                make()

    def test_beta_forced_zero_at_inf(self):
        g = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=INF, q=1, bases1=(g,), bases2=(g,), beta=3.0)
        assert spec.beta == 0.0
        for policy in BETA_POLICIES:
            assert ProdKernel(n=INF, q=1, bases1=(g,), bases2=(g,), beta_policy=policy).beta == 0.0

    @pytest.mark.parametrize("policy, n, q", [("bound", 8, 1), ("bound", 3, 2),
                                              ("estimate", 8, 1), ("estimate", 2, 2)])
    def test_unset_beta_is_the_policy_beta_n(self, policy, n, q):
        # a spec built in Python gets the offset a JSON document without beta gets
        g = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=n, q=q, bases1=(g,) * q, bases2=(g,) * q, beta_policy=policy)
        assert spec.beta == beta_from_policy(policy, n, q)
        assert type(spec.beta) is float and spec.beta > 0

    def test_unset_beta_under_manual_is_zero_and_given_beta_used_as_is(self):
        g = GaussianKernel(gamma=1.0)
        assert ProdKernel(n=8, q=1, bases1=(g,), bases2=(g,)).beta == 0.0
        for policy in BETA_POLICIES:
            spec = ProdKernel(n=8, q=1, bases1=(g,), bases2=(g,), beta=0.3, beta_policy=policy)
            assert spec.beta == 0.3

    def test_base_row_length(self):
        g = GaussianKernel(gamma=1.0)
        with pytest.raises(ConfigError):
            ProdKernel(n=4, q=2, bases1=(g,), bases2=(g, g))

    def test_alpha_d_mismatch(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = const_tuple(GRID, [1.0, 2.0])
        with pytest.raises(ConfigError):
            evaluate(spec, x, x)

    def test_grid_mismatch(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = const_tuple(TorusGrid(16), [1.0])
        y = const_tuple(TorusGrid(32), [1.0])
        with pytest.raises(GridMismatchError):
            evaluate(spec, x, y)

    def test_unknown_spec_rejected(self):
        x = const_tuple(GRID, [1.0])
        with pytest.raises(ConfigError, match="unknown kernel spec"):
            evaluate(object(), x, x)
        with pytest.raises(ConfigError, match="unknown kernel spec"):
            gram_values(object(), [x])

    def test_aliasing_propagates(self):
        spec = PolyKernel(n=20, q=1, alpha=(1.0,))
        x = const_tuple(GRID, [1.0])
        with pytest.raises(AliasingError):
            evaluate(spec, x, x)


class TestPoly:
    def test_ones(self):
        spec = PolyKernel(n=5, q=1, alpha=(1.0,))
        x = const_tuple(GRID, [1.0])
        assert np.allclose(k_poly(spec, x, x).values, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_character_damping(self, n):
        # R(e^{iz}) is the lower shift S; S^*S = diag(1..1,0), so the value
        # is the constant (n-1)/n
        spec = PolyKernel(n=n, q=1, alpha=(1.0,))
        x = character_tuple(GRID)
        got = k_poly(spec, x, x)
        assert np.allclose(got.values, (n - 1) / n, atol=1e-12)

    def test_character_limit(self):
        spec = PolyKernel(n=INF, q=1, alpha=(1.0,))
        x = character_tuple(GRID)
        assert np.allclose(k_poly(spec, x, x).values, 1.0, atol=1e-14)

    def test_gap_is_reciprocal_n(self):
        spec = PolyKernel(n=4, q=1, alpha=(1.0,))
        x = character_tuple(GRID)
        rows = kernel_limit_gap(spec, x, x, [2, 4, 8])
        for n, sup_gap, mean_gap in rows:
            assert sup_gap == pytest.approx(1.0 / n, abs=1e-12)
            assert mean_gap == pytest.approx(1.0 / n, abs=1e-12)


class TestProd:
    def test_gaussian_diagonal_limit(self):
        g = GaussianKernel(gamma=1.0)
        spec = ProdKernel(n=INF, q=1, bases1=(g,), bases2=(g,))
        x = const_tuple(GRID, [0.3 + 0.1j, -0.2])
        assert np.allclose(k_prod(spec, x, x).values, 1.0, atol=1e-14)

    def test_constant_inputs_match_limit(self):
        # constants truncate to multiples of the identity, making the
        # finite-n kernel equal to the limit kernel
        g = GaussianKernel(gamma=0.8)
        fin = ProdKernel(n=5, q=2, bases1=(g, g), bases2=(g, g), beta=0.0)
        inf = dataclasses.replace(fin, n=INF)
        x = const_tuple(GRID, [0.5, 0.1])
        y = const_tuple(GRID, [-0.2, 0.4])
        a = k_prod(fin, x, y).values
        b = k_prod(inf, x, y).values
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_offset_against_tensor_quadrature(self, q, rng):
        # independent oracle: full tensor-grid quadrature of the 2q-fold
        # integral over T^{2q}, without using the factorized form
        grid = TorusGrid(12)
        bases1 = tuple(GaussianKernel(gamma=0.5 + 0.2 * j) for j in range(q))
        bases2 = tuple(GaussianKernel(gamma=0.3 + 0.1 * j) for j in range(q))
        spec = ProdKernel(n=3, q=q, bases1=bases1, bases2=bases2, beta=0.7)
        x = random_trig_tuple(grid, rng, d=2, deg=2)
        y = random_trig_tuple(grid, rng, d=2, deg=2)
        xv = x.value_matrix()
        yv = y.value_matrix()
        axes = [range(grid.m)] * (2 * q)
        acc = 0.0 + 0.0j
        for idx in itertools.product(*axes):
            term = 1.0 + 0.0j
            for j in range(q):
                term *= np.conj(bases1[j].pairwise(xv[idx[j]], yv[idx[j]]))
                term *= bases2[j].pairwise(xv[idx[q + j]], yv[idx[q + j]])
            acc += term
        oracle = acc / grid.m ** (2 * q)
        assert prod_offset(spec, x, y) == pytest.approx(oracle, abs=1e-12)

    def test_beta_adds_constant_shift(self, rng):
        g = GaussianKernel(gamma=1.0)
        x = random_trig_tuple(GRID, rng, d=2, deg=2)
        y = random_trig_tuple(GRID, rng, d=2, deg=2)
        base = ProdKernel(n=4, q=1, bases1=(g,), bases2=(g,), beta=0.0)
        shifted = dataclasses.replace(base, beta=2.5)
        delta = k_prod(shifted, x, y).values - k_prod(base, x, y).values
        assert np.allclose(delta, 2.5 * prod_offset(base, x, y), atol=1e-12)


class TestSep:
    def test_unit_weights(self, rng):
        grid = GRID
        one = SampledFunction.constant(grid, 1.0)
        base = L2GaussianTupleKernel(scale=0.7)
        spec = SepKernel(n=6, q=2, weights=(one, one), base=base)
        x = random_trig_tuple(grid, rng, d=2, deg=3)
        y = random_trig_tuple(grid, rng, d=2, deg=3)
        got = k_sep(spec, x, y)
        sx = FunctionTuple(tuple(smooth(c, 6) for c in x.components))
        sy = FunctionTuple(tuple(smooth(c, 6) for c in y.components))
        assert np.allclose(got.values, l2_gaussian(base, sx, sy), atol=1e-12)
        inf_spec = dataclasses.replace(spec, n=INF)
        assert np.allclose(k_sep(inf_spec, x, y).values, l2_gaussian(base, x, y), atol=1e-12)

    def test_diagonal_scalar_is_one(self, rng):
        grid = GRID
        a = SampledFunction.from_callable(grid, lambda z: np.exp(np.sin(z)).astype(complex))
        spec = SepKernel(n=5, q=1, weights=(a,), base=L2GaussianTupleKernel(scale=1.0))
        x = random_trig_tuple(grid, rng, d=1, deg=3)
        got = evaluate(spec, x, x)
        # x = y: zero distance, gaussian factor 1, so the value is the
        # weight-matrix part alone
        want = sn_map(sep_weight_matrix(spec), grid).values
        assert np.allclose(got.values, want, atol=1e-12)

    def test_weight_factor_converges(self):
        # the matrix factor tends to |a(z)|^2 = e^{2 sin z} for q = 1
        grid = TorusGrid(512)
        a = SampledFunction.from_callable(grid, lambda z: np.exp(np.sin(z)).astype(complex))
        base = L2GaussianTupleKernel(scale=1.0)
        target = np.exp(2 * np.sin(grid.points))
        gaps = []
        for n in (8, 32, 128):
            spec = SepKernel(n=n, q=1, weights=(a,), base=base)
            x = const_tuple(grid, [1.0])
            got = k_sep(spec, x, x).values
            gaps.append(np.max(np.abs(got - target)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.1


class TestAlgebraicLaws:
    def specs(self, grid):
        g1 = GaussianKernel(gamma=0.6)
        a = SampledFunction.from_callable(grid, lambda z: (np.sin(z) + 1.5).astype(complex))
        b = SampledFunction.from_callable(grid, lambda z: np.exp(1j * np.cos(z)))
        return [
            PolyKernel(n=5, q=2, alpha=(0.5, 1.5)),
            PolyKernel(n=INF, q=2, alpha=(0.5, 1.5)),
            ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=0.4),
            ProdKernel(n=INF, q=1, bases1=(g1,), bases2=(g1,)),
            SepKernel(n=5, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.8)),
            SepKernel(n=INF, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.8)),
            SepKernel(n=5, q=2, weights=(a, b), base=L2GaussianTupleKernel(scale=0.8)),
        ]

    def test_hermitian_law(self, rng):
        x = random_trig_tuple(GRID, rng, d=2, deg=3)
        y = random_trig_tuple(GRID, rng, d=2, deg=3)
        for spec, ev in itertools.product(self.specs(GRID), (evaluate, dense_evaluate)):
            lhs = ev(spec, x, y).values
            rhs = np.conj(ev(spec, y, x).values)
            assert np.max(np.abs(lhs - rhs)) < 1e-9, spec.family

    def test_real_output_law(self, rng):
        x = random_trig_tuple(GRID, rng, d=2, deg=3, real=True)
        y = random_trig_tuple(GRID, rng, d=2, deg=3, real=True)
        for spec, ev in itertools.product(self.specs(GRID), (evaluate, dense_evaluate)):
            if spec.family == "poly":
                continue  # complex-valued in general even for real inputs
            vals = ev(spec, x, y).values
            assert np.max(np.abs(vals.imag)) < 1e-9, spec.family

    def test_constant_tuples_fixed_points(self, rng):
        # degree-1 constancy: constants make every finite-n kernel equal its limit
        x = const_tuple(GRID, [0.4 + 0.2j, -0.7])
        y = const_tuple(GRID, [0.1, 0.9 - 0.3j])
        one = SampledFunction.constant(GRID, 1.0)
        g1 = GaussianKernel(gamma=0.6)
        specs = [
            PolyKernel(n=6, q=2, alpha=(0.5, 1.5)),
            ProdKernel(n=6, q=1, bases1=(g1,), bases2=(g1,), beta=0.0),
            SepKernel(n=6, q=1, weights=(one,), base=L2GaussianTupleKernel(scale=0.8)),
        ]
        for spec, ev in itertools.product(specs, (evaluate, dense_evaluate)):
            fin = ev(spec, x, y).values
            inf = ev(dataclasses.replace(spec, n=INF), x, y).values
            assert np.max(np.abs(fin - inf)) < 1e-10, spec.family

    def test_limit_gap_decreases_for_smooth_inputs(self, rng):
        grid = TorusGrid(128)
        x = random_trig_tuple(grid, rng, d=2, deg=3)
        y = random_trig_tuple(grid, rng, d=2, deg=3)
        spec = PolyKernel(n=4, q=1, alpha=(1.0, 1.0))
        rows = kernel_limit_gap(spec, x, y, [4, 8, 16, 32])
        sups = [r[1] for r in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_constant_gap_zero(self):
        x = const_tuple(GRID, [1.0, 2.0])
        spec = PolyKernel(n=4, q=1, alpha=(1.0, 1.0))
        rows = kernel_limit_gap(spec, x, x, [2, 4])
        assert all(r[1] < 1e-12 for r in rows)

    def test_limit_gap_needs_finite_n(self):
        x = const_tuple(GRID, [1.0, 2.0])
        spec = PolyKernel(n=4, q=1, alpha=(1.0, 1.0))
        with pytest.raises(ConfigError):
            kernel_limit_gap(spec, x, x, [2, INF])


class TestBaseKernels:
    def test_gaussian_range_and_symmetry(self, rng):
        g = GaussianKernel(gamma=1.2)
        u = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        v = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        vals = g.pairwise(u, v)
        assert np.all(vals.real > 0) and np.all(vals.real <= 1)
        assert np.allclose(vals, np.conj(g.pairwise(v, u)))

    def test_linear_hermitian(self, rng):
        k = LinearKernel()
        u = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        assert np.allclose(k.pairwise(u, v), np.conj(k.pairwise(v, u)))

    def test_gaussian_gamma_checked(self):
        with pytest.raises(ConfigError):
            GaussianKernel(gamma=0.0)


PIN_GRID = TorusGrid(14)


def block_spec(family, n, q):
    g = GaussianKernel(gamma=0.6)
    if family == "poly":
        return PolyKernel(n=n, q=q, alpha=(0.5, 1.5))
    if family == "prod":
        return ProdKernel(n=n, q=q, bases1=(g, LinearKernel())[:q], bases2=(g,) * q, beta=0.4)
    a = SampledFunction.from_callable(PIN_GRID, lambda z: (np.sin(z) + 1.5).astype(complex))
    return SepKernel(n=n, q=q, weights=(a,) * q, base=L2GaussianTupleKernel(scale=0.8))


G06, LIN, POLY2 = GaussianKernel(gamma=0.6), LinearKernel(), PolynomialKernel(degree=2)


def palindromic_weights(grid):
    a = SampledFunction.from_callable(grid, lambda z: np.exp(0.5j * np.sin(z)) + 1.2)
    b = SampledFunction.from_callable(grid, lambda z: np.cos(2 * z) + 0.3j * np.sin(z))
    return (a, b, a)


# specs whose values are real by construction, as (n, grid, beta) -> spec:
# every sep spec, and prod with bases1 reversed equal to bases2
REAL_SPECS = {
    "prod-gaussian": lambda n, grid, beta: ProdKernel(n=n, q=1, bases1=(G06,), bases2=(G06,),
                                                      beta=beta),
    "prod-linear": lambda n, grid, beta: ProdKernel(n=n, q=1, bases1=(LIN,), bases2=(LIN,),
                                                    beta=beta),
    "prod-polynomial": lambda n, grid, beta: ProdKernel(n=n, q=1, bases1=(POLY2,),
                                                        bases2=(POLY2,), beta=beta),
    "prod-q2-reversed": lambda n, grid, beta: ProdKernel(n=n, q=2, bases1=(G06, LIN),
                                                         bases2=(LIN, G06), beta=beta),
    "sep-palindrome": lambda n, grid, beta: SepKernel(n=n, q=3, weights=palindromic_weights(grid),
                                                      base=L2GaussianTupleKernel(scale=0.2)),
    "sep-not-palindrome": lambda n, grid, beta: SepKernel(
        n=n, q=2, weights=palindromic_weights(grid)[:2], base=L2GaussianTupleKernel(scale=0.2)),
}


# the row-tiled routes: finite prod (strict and folded) and the n = INF limits
ROW_TILE_SPECS = [
    block_spec("prod", 5, 1), ProdKernel(n=5, q=1, bases1=(LIN,), bases2=(G06,), beta=0.4),
    block_spec("prod", 5, 2), block_spec("prod", 20, 1), block_spec("poly", INF, 2),
    block_spec("prod", INF, 1), block_spec("prod", INF, 2),
]
ROW_TILE_IDS = ["strict-q1-real", "strict-q1-complex", "strict-q2", "folded", "poly-limit",
                "prod-limit-real", "prod-limit-complex"]


class TestBatchedBlocks:
    """gram_values / cross_values pinned to the dense `dense_evaluate` oracle."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [5, 20, INF], ids=["strict", "folded", "inf"])
    @pytest.mark.parametrize("family", ["poly", "prod", "sep"])
    def test_blocks_match_dense_oracle(self, rng, family, n, q):
        spec = block_spec(family, n, q)
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(4)]
        ys = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(3)]
        field, count = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, ys, xs, allow_aliasing=True)
        assert count == 4 * 5 // 2
        for block, rows in ((field, xs), (cross, ys)):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert block.shape == want.shape
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
        iu, ju = np.triu_indices(4, 1)
        assert np.array_equal(field[:, ju, iu], np.conj(field[:, iu, ju]))

    @pytest.mark.parametrize("spec", ROW_TILE_SPECS, ids=ROW_TILE_IDS)
    def test_row_tiles_match_one_tile_block(self, rng, monkeypatch, spec):
        # N = 7 is prime, so the first power-of-two budget whose tile height
        # (or, below one row, tile width) passes 1 gives 2 or 3, which does
        # not divide it
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        ys = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        tiles = []
        for name in ("_prod_pair_values", "_inf_values_block"):
            def spy(s, a, b, _real=getattr(kernels_mod, name)):
                tiles.append((a.shape[0], b.shape[1]))
                return _real(s, a, b)
            monkeypatch.setattr(kernels_mod, name, spy)

        def blocks():
            tiles.clear()
            return (gram_values(spec, xs, allow_aliasing=True)[0],
                    cross_values(spec, ys, xs, allow_aliasing=True))

        gram, cross = one_tile = blocks()
        assert tiles == [(7, 7), (7, 7)]
        for block, rows in ((gram, xs), (cross, ys)):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
        iu, ju = np.triu_indices(7, 1)
        assert np.array_equal(gram[:, ju, iu], np.conj(gram[:, iu, ju]))
        seen = set()
        for budget in 2 ** np.arange(19):
            monkeypatch.setattr(kernels_mod, "_PAIR_CHUNK_BUDGET", int(budget))
            for block, want in zip(blocks(), one_tile):
                assert block.dtype == want.dtype and np.array_equal(block, want)
            seen.update(tiles)
        heights, widths = {h for h, w in seen}, {w for h, w in seen if h == 1}
        assert 1 in heights and heights & {2, 3} and 1 in widths and widths & {2, 3}

    @pytest.mark.parametrize("family", ["poly", "prod", "sep"])
    def test_blocks_reject_aliasing_by_default(self, rng, family):
        spec = block_spec(family, 20, 1)
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(2)]
        with pytest.raises(AliasingError):
            gram_values(spec, xs)
        with pytest.raises(AliasingError):
            cross_values(spec, xs, xs)

    # m in [5, 40], odd and even; n in [1, 3m]: alias-free, aliased n <= m,
    # n = m, n = m + 1 and folded n > m
    @settings(max_examples=30, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.sampled_from([0.0, 0.4]), hst.integers(0, 2**16))
    @example((12, 5), 0.4, 0)
    @example((12, 9), 0.0, 1)
    @example((30, 30), 0.4, 2)
    @example((31, 32), 0.0, 3)
    @example((5, 15), 0.4, 4)
    def test_prod_q1_blocks_match_dense_oracle_any_n(self, mn, beta, seed):
        m, n = mn
        grid = TorusGrid(m)
        rng = np.random.default_rng(seed)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m)
                                                  + 1j * rng.standard_normal(m))
                                  for _ in range(2))) for _ in range(3)]
        spec = ProdKernel(n=n, q=1, bases1=(GaussianKernel(gamma=0.6),),
                          bases2=(LinearKernel(),), beta=beta)
        field, _ = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, xs[:2], xs, allow_aliasing=True)
        for block, rows in ((field, xs), (cross, xs[:2])):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
        if 2 * (n - 1) >= m:
            with pytest.raises(AliasingError):
                gram_values(spec, xs)
            with pytest.raises(AliasingError):
                cross_values(spec, xs[:2], xs)
        else:
            assert np.array_equal(cross_values(spec, xs[:2], xs), cross)

    # the real route (float64 blocks, merged q = 1 table, one shared q > 1
    # chain) on m in [5, 40], odd and even, with n alias-free, aliased
    # n <= m, n = m, n = m + 1, folded n > m, or INF, and d in {1, 2}; the
    # m = 256, d = 1 pins are the inpainting grid, where the Gaussian base's
    # rfft half spectrum feeds the merged q = 1 weight table; the linear and
    # polynomial bases pin a real spec over complex base values, which sums
    # the full table (or folds past n = m) and keeps the real part
    @settings(max_examples=40, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.sampled_from(sorted(REAL_SPECS)), hst.sampled_from([0.0, 0.4]), hst.booleans(),
           hst.integers(0, 2**16), hst.sampled_from([1, 2]))
    @example((12, 5), "prod-gaussian", 0.4, False, 0, 2)
    @example((13, 9), "prod-linear", 0.0, False, 1, 2)
    @example((16, 16), "prod-polynomial", 0.4, False, 2, 2)
    @example((15, 16), "prod-q2-reversed", 0.4, False, 3, 2)
    @example((6, 15), "sep-palindrome", 0.0, False, 4, 2)
    @example((7, 20), "prod-q2-reversed", 0.0, False, 5, 2)
    @example((10, 1), "prod-q2-reversed", 0.0, True, 6, 2)
    @example((9, 1), "sep-palindrome", 0.0, True, 7, 2)
    @example((256, 8), "prod-gaussian", 0.4, False, 8, 1)
    @example((256, 16), "prod-gaussian", 0.4, False, 9, 1)
    @example((8, 5), "prod-linear", 0.4, False, 10, 1)
    @example((8, 8), "prod-polynomial", 0.4, False, 11, 1)
    @example((7, 20), "prod-linear", 0.4, False, 12, 1)
    @example((30, 16), "prod-polynomial", 0.0, False, 13, 2)
    @example((10, 11), "sep-not-palindrome", 0.0, False, 14, 2)
    @example((9, 1), "sep-not-palindrome", 0.0, True, 15, 1)
    def test_real_valued_blocks_match_dense_oracle(self, mn, name, beta, limit, seed, d):
        m, n = mn
        grid = TorusGrid(m)
        rng = np.random.default_rng(seed)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m)
                                                  + 1j * rng.standard_normal(m))
                                  for _ in range(d))) for _ in range(3)]
        spec = REAL_SPECS[name](INF if limit else n, grid, beta)
        field, _ = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, xs[:2], xs, allow_aliasing=True)
        assert field.dtype == cross.dtype == np.float64
        for block, rows in ((field, xs), (cross, xs[:2])):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))

    # poly blocks, built from the rank-d*min(n, m) factors at finite n: q in {1, 2},
    # d in {1, 2}, n alias-free, aliased n <= m, folded n > m, or INF, with
    # or without a zero alpha weight
    @settings(max_examples=40, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.sampled_from([1, 2]), hst.sampled_from([1, 2]), hst.booleans(), hst.booleans(),
           hst.integers(0, 2**16))
    @example((12, 5), 1, 2, False, False, 0)
    @example((12, 9), 2, 2, True, False, 1)
    @example((30, 30), 1, 1, False, False, 2)
    @example((7, 20), 2, 2, False, False, 3)
    @example((10, 1), 2, 2, True, True, 4)
    @example((9, 1), 1, 1, False, True, 5)
    def test_poly_blocks_match_dense_oracle(self, mn, q, d, zero, limit, seed):
        m, n = mn
        grid = TorusGrid(m)
        rng = np.random.default_rng(seed)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m)
                                                  + 1j * rng.standard_normal(m))
                                  for _ in range(d))) for _ in range(3)]
        # the zero weight sits on the first of two components
        spec = PolyKernel(n=INF if limit else n, q=q, alpha=(0.0 if zero else 0.7, 1.3)[2 - d:])
        field, _ = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, xs[:2], xs, allow_aliasing=True)
        for block, rows in ((field, xs), (cross, xs[:2])):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
        if not limit:
            assert kernels_mod.poly_factors(spec, xs, allow_aliasing=True).shape == (m, d * min(n, m), 3)

    # q > 1 chains, on n rows (n <= m) or on the m folded rows (n > m):
    # complex prod with unrelated bases, and sep with non-palindromic
    # weights, whose one chain B u gives a float64 block; q in {2, 3},
    # m in [5, 40], n in [1, 3m]
    @settings(max_examples=30, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.sampled_from(["prod", "sep"]), hst.sampled_from([2, 3]),
           hst.sampled_from([0.0, 0.4]), hst.integers(0, 2**16))
    @example((12, 24), "prod", 3, 0.4, 0)         # rho = 0: n = 2m
    @example((12, 13), "prod", 2, 0.0, 1)         # n = m + 1
    @example((7, 21), "prod", 3, 0.0, 2)          # n = 3m
    @example((13, 40), "prod", 2, 0.4, 3)
    @example((9, 27), "sep", 3, 0.0, 4)
    @example((10, 11), "sep", 2, 0.0, 5)
    def test_complex_chain_blocks_match_dense_oracle(self, mn, family, q, beta, seed):
        m, n = mn
        grid = TorusGrid(m)
        rng = np.random.default_rng(seed)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m)
                                                  + 1j * rng.standard_normal(m))
                                  for _ in range(2))) for _ in range(3)]
        if family == "prod":
            spec = ProdKernel(n=n, q=q, bases1=(G06, LIN, POLY2)[:q],
                              bases2=(LIN, POLY2, G06)[:q], beta=beta)
        else:
            a, b, _ = palindromic_weights(grid)
            spec = SepKernel(n=n, q=q, weights=(a, b, b)[:q],
                             base=L2GaussianTupleKernel(scale=0.2))
        field, _ = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, xs[:2], xs, allow_aliasing=True)
        assert field.dtype == cross.dtype == (np.complex128 if family == "prod" else np.float64)
        for block, rows in ((field, xs), (cross, xs[:2])):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [5, INF], ids=["finite", "inf"])
    @pytest.mark.parametrize("spec, real", [
        (lambda n: REAL_SPECS["prod-gaussian"](n, PIN_GRID, 0.4), True),
        (lambda n: REAL_SPECS["prod-q2-reversed"](n, PIN_GRID, 0.4), True),
        (lambda n: REAL_SPECS["sep-palindrome"](n, PIN_GRID, 0.0), True),
        (lambda n: block_spec("poly", n, 1), False),
        (lambda n: ProdKernel(n=n, q=1, bases1=(G06,), bases2=(LIN,)), False),
        (lambda n: ProdKernel(n=n, q=2, bases1=(G06, LIN), bases2=(G06, LIN)), False),
        (lambda n: REAL_SPECS["sep-not-palindrome"](n, PIN_GRID, 0.0), True),
    ], ids=["prod-q1", "prod-q2-reversed", "sep-palindrome", "poly", "prod-mixed",
            "prod-q2-same-order", "sep-not-palindrome"])
    def test_block_dtype_follows_realness(self, rng, spec, real, n):
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(3)]
        want = np.float64 if real else np.complex128
        assert gram_values(spec(n), xs, allow_aliasing=True)[0].dtype == want
        assert cross_values(spec(n), xs[:2], xs, allow_aliasing=True).dtype == want

    @pytest.mark.parametrize("q, windowed", [(1, False), (2, True)])
    def test_prod_q1_never_builds_prefix_sum_windows(self, monkeypatch, q, windowed):
        calls = []
        real = kernels_mod._toeplitz_times_phase

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels_mod, "_toeplitz_times_phase", spy)
        grid = TorusGrid(256)
        rng = np.random.default_rng(0)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(256) + 0j)
                                  for _ in range(2))) for _ in range(3)]
        g = GaussianKernel(gamma=0.6)
        spec = ProdKernel(n=16, q=q, bases1=(g,) * q, bases2=(g,) * q, beta=0.4)
        gram_values(spec, xs)
        cross_values(spec, xs[:2], xs)
        assert bool(calls) == windowed

    @pytest.mark.parametrize("m, n", [
        (30, 1), (30, 16), (30, 29), (30, 30), (30, 60), (30, 45), (30, 128), (31, 50), (7, 3),
        (256, 16),
    ], ids=["n1", "n-below-m", "n-m-1", "n-m", "n-2m", "rho-15", "rho-8", "odd-m", "odd-m-small",
            "m256"])
    def test_toeplitz_columns_match_extended_precision_sum(self, m, n):
        # (T u(z_p))_r = sum_{j<n} c_{r-j} e^{-2 pi i (j p mod m)/m}, c_k = bins[k mod m],
        # summed directly in extended precision on the min(n, m) distinct rows
        rng = np.random.default_rng(m + n)
        bins = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        rows, j, p = min(n, m), np.arange(n), np.arange(m)
        angle = -2 * np.pi * np.longdouble(1) * np.mod(np.outer(j, p), m) / m
        phase = np.cos(angle) + 1j * np.sin(angle)                        # (n, m)
        coef = bins.astype(np.clongdouble)[:, np.mod(np.arange(rows)[:, None] - j, m)]
        want = np.einsum("brj,jp->brp", coef, phase)
        got = kernels_mod._toeplitz_times_phase(bins, n)
        assert got.shape == (3, rows, m)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, m", [(16, 4096), (64, 4096), (16, 16384)])
    def test_band_table_built_from_its_support(self, n, m):
        # an m x m window-count matrix at m = 4096 alone is 128 MiB; the table
        # and its workspace scale with min(2n-1, m)^2, not m^2
        tracemalloc.start()
        u, v, w, starts, deltas = kernels_mod._band_table.__wrapped__(n, m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        side = min(2 * n - 1, m)
        assert len(u) <= side ** 2
        assert peak <= 128 * side ** 2 + 16 * m
        # the window counts sum to n^3 (n windows of n x n frequency pairs)
        assert np.sum(w) == n ** 3

    @staticmethod
    def table_entries(n, m, merged):
        """(u, v, w, delta) of ``_band_table``, u and v as residues mod m."""
        cols = kernels_mod._band_support(n, m)
        i, j, w, starts, deltas = kernels_mod._band_table(n, m, merged)
        return cols[i], cols[j], w, np.repeat(deltas, np.diff(np.append(starts, len(i))))

    @pytest.mark.parametrize("n, m", [(8, 256), (16, 256), (8, 30), (16, 30), (4, 7), (5, 8),
                                      (30, 30), (17, 31), (1, 8)])
    def test_merged_table_folds_each_entry_into_its_partner(self, n, m):
        u, v, w, delta = self.table_entries(n, m, False)
        half = delta <= m // 2
        mu, mv, mw, mdelta = self.table_entries(n, m, True)
        assert np.array_equal(mdelta, np.mod(mv - mu, m))
        # the merged weights stand for the half table's, delta <= m/2
        assert np.sum(mw) == np.sum(w[half])
        pairs = list(zip(mu.tolist(), mv.tolist()))
        self_paired = {(a, b) for a, b in pairs if (a + b) % m == 0}
        partners = {((-b) % m, (-a) % m) for a, b in pairs}
        assert self_paired and set(pairs) & partners == self_paired
        count = dict(zip(zip(u.tolist(), v.tolist()), w))
        assert mw.tolist() == [count[p] * (1 if p in self_paired else 2) for p in pairs]
        sizes = {(8, 256): (92, 48), (16, 256): (376, 192)}      # half and merged lengths
        assert (n, m) not in sizes or (np.sum(half), len(mu)) == sizes[n, m]

    @pytest.mark.parametrize("m", [30, 31, 32, 256])
    def test_merged_table_offsets_are_a_prefix(self, m):
        # the merged runs' offsets are exactly 0..D-1, so their sums are the
        # first D bins of the half spectrum and irfft zero-pads the rest
        for n in range(1, m + 1):
            deltas = kernels_mod._band_table.__wrapped__(n, m, True)[4]
            assert np.array_equal(deltas, np.arange(len(deltas)))

    # a Gaussian real pair sums the merged table from its half spectrum, at
    # every n <= m on odd and even m, alias-free or with 2n - 1 > m
    @pytest.mark.parametrize("m", [7, 8, 30, 31])
    def test_merged_table_blocks_match_dense_oracle(self, m):
        grid = TorusGrid(m)
        rng = np.random.default_rng(m)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m)
                                                  + 1j * rng.standard_normal(m))
                                  for _ in range(2))) for _ in range(3)]
        for n, beta in itertools.product(range(1, m + 1), [0.0, 0.4]):
            spec = ProdKernel(n=n, q=1, bases1=(G06,), bases2=(G06,), beta=beta)
            field, _ = gram_values(spec, xs, allow_aliasing=True)
            cross = cross_values(spec, xs[:2], xs, allow_aliasing=True)
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in xs]).transpose(2, 0, 1)
            assert field.dtype == cross.dtype == np.float64
            for block, rows in ((field, want), (cross, want[:, :2])):
                assert np.max(np.abs(block - rows)) <= 1e-12 * np.max(np.abs(rows))

    @pytest.mark.parametrize("family, n", [
        pytest.param("poly", 16, id="16"), pytest.param("poly", INF, id="inf"),
        pytest.param("sep", 16, id="sep-16"), pytest.param("sep", INF, id="sep-inf"),
        pytest.param("sep", 2048, id="sep-2048"),
    ])
    def test_gram_workspace_bounded_by_field(self, family, n):
        grid = TorusGrid(30)
        rng = np.random.default_rng(0)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(30) + 0j)
                                  for _ in range(2))) for _ in range(400)]
        if family == "poly":
            spec = PolyKernel(n=n, q=1, alpha=(1.0, 1.0))
        else:
            a = SampledFunction(grid, np.exp(np.sin(grid.points)).astype(complex))
            spec = SepKernel(n=n, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=2.3))
        tracemalloc.start()
        try:
            field, _ = gram_values(spec, xs, allow_aliasing=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * field.nbytes

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_poly_factor_workspace_bounded_by_factor(self, n, q):
        grid = TorusGrid(30)
        rng = np.random.default_rng(0)
        xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(30) + 0j)
                                  for _ in range(2))) for _ in range(300)]
        spec = PolyKernel(n=n, q=q, alpha=(1.0, 1.0))
        tracemalloc.start()
        try:
            factor = kernels_mod.poly_factors(spec, xs, allow_aliasing=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * factor.nbytes

    @staticmethod
    def factor_samples(n_samples):
        grid = TorusGrid(30)
        rng = np.random.default_rng(0)
        return [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(30) + 0j)
                                    for _ in range(2))) for _ in range(n_samples)]

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_poly_factor_built_in_place(self, n):
        # the window and its inverse FFT go straight into F's memory: no
        # second factor-sized array lives at q = 1
        xs = self.factor_samples(300)
        spec = PolyKernel(n=n, q=1, alpha=(1.0, 1.0))
        tracemalloc.start()
        try:
            factor = kernels_mod.poly_factors(spec, xs, allow_aliasing=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * factor.nbytes

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_poly_factor_matches_window_then_transpose(self, n, q):
        # the (N, d, min(n, m), m) chain columns built apart, then laid out
        # as (m, d*min(n, m), N) by one transpose: the same bits as F
        xs = self.factor_samples(40)
        spec = PolyKernel(n=n, q=q, alpha=(0.7, 1.3))
        values = np.stack([t.value_matrix() for t in xs])
        N, m, d = values.shape
        bins = np.fft.fft(np.ascontiguousarray(values.transpose(0, 2, 1)), axis=-1)
        bins /= m
        inner = bins * np.sqrt(np.asarray(spec.alpha) / n)[:, None]
        w, cnt = kernels_mod._chain_columns(
            [bins.reshape(-1, m)] * (q - 1) + [inner.reshape(-1, m)], n)
        if n > m:
            w *= np.sqrt(cnt)[:, None]
        want = w.reshape(N, d, len(cnt), m).transpose(3, 1, 2, 0).reshape(m, d * len(cnt), N)
        got = kernels_mod.poly_factors(spec, xs, allow_aliasing=True)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_poly_gram_takes_no_conjugate_copy(self, n):
        # F^* F goes one grid point at a time into the field: beyond F and
        # the field, only one point's conjugate and the samples live at once
        xs = self.factor_samples(40)
        spec = PolyKernel(n=n, q=1, alpha=(1.0, 1.0))
        factor = kernels_mod.poly_factors(spec, xs, allow_aliasing=True)
        tracemalloc.start()
        try:
            field, _ = gram_values(spec, xs, allow_aliasing=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (factor.nbytes + field.nbytes)

    @pytest.mark.parametrize("family, n, q", [
        ("poly", 5, 2), ("poly", INF, 1), ("prod", 5, 1), ("prod", 20, 1), ("prod", 5, 2),
        ("sep", 5, 2), ("sep", INF, 1),
    ], ids=["poly", "poly-inf", "prod-q1", "prod-q1-folded", "prod-q2", "sep", "sep-inf"])
    def test_blocks_build_no_per_sample_objects(self, rng, monkeypatch, family, n, q):
        # the block core works on one (N, m, d) array: no SampledFunction or
        # FunctionTuple is made per sample, or at all
        spec = block_spec(family, n, q)
        xs = [random_trig_tuple(PIN_GRID, rng, d=2) for _ in range(4)]
        built = []
        for cls in (SampledFunction, FunctionTuple):
            def counted(self, _init=cls.__post_init__):
                built.append(type(self).__name__)
                _init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        gram_values(spec, xs, allow_aliasing=True)
        cross_values(spec, xs[:2], xs, allow_aliasing=True)
        assert built == []

    @pytest.mark.parametrize("offset", [1e3, 1e5])
    @pytest.mark.parametrize("n", [5, INF], ids=["finite", "inf"])
    @pytest.mark.parametrize("palindromic", [True, False], ids=["real", "complex"])
    def test_sep_blocks_under_common_offset(self, rng, palindromic, n, offset):
        # the block's distances come from one Gram product of its samples:
        # uncentered, a common offset would cancel there and cost its digits
        if palindromic:
            spec = block_spec("sep", n, 2)
        else:
            spec = SepKernel(n=n, q=2, weights=palindromic_weights(PIN_GRID)[:2],
                             base=L2GaussianTupleKernel(scale=0.8))

        def shifted():
            t = random_trig_tuple(PIN_GRID, rng, d=2, deg=3)
            return FunctionTuple(tuple(SampledFunction(PIN_GRID, c.values + offset)
                                       for c in t.components))

        xs = [shifted() for _ in range(4)]
        ys = [shifted() for _ in range(3)]
        field, _ = gram_values(spec, xs, allow_aliasing=True)
        cross = cross_values(spec, ys, xs, allow_aliasing=True)
        for block, rows in ((field, xs), (cross, ys)):
            want = np.stack([[dense_evaluate(spec, x, y, allow_aliasing=True).values for y in xs]
                             for x in rows]).transpose(2, 0, 1)
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))
        # base(x, x) = 1, so the diagonal is the weight function itself
        w = kernels_mod._sep_weights(spec)
        assert field.dtype == cross.dtype == w.dtype == np.float64
        for i, x in enumerate(xs):
            assert np.array_equal(field[:, i, i], w)
            want = dense_evaluate(spec, x, x, allow_aliasing=True).values
            assert np.max(np.abs(field[:, i, i] - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(field, field.transpose(0, 2, 1))

    # one chain on the weights' spectra against the dense n x n B^* B, for
    # n <= m, n > m and past m on odd and even m, palindromic or not
    @pytest.mark.parametrize("m", [30, 31])
    @pytest.mark.parametrize("pick", [(0,), (0, 1), (0, 1, 0)], ids=["a", "ab", "aba"])
    def test_sep_weights_match_dense_oracle(self, m, pick):
        grid = TorusGrid(m)
        a, b, _ = palindromic_weights(grid)
        for n in [*range(1, 78), 257]:
            spec = SepKernel(n=n, q=len(pick), weights=tuple((a, b)[i] for i in pick),
                             base=L2GaussianTupleKernel(scale=0.8))
            got = kernels_mod._sep_weights(spec)
            want = sn_map(sep_weight_matrix(spec, allow_aliasing=True), grid).values
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n

    # S_n(B^* B)(z) = (1/n) |B u(z)|^2 >= 0 for non-palindromic weight
    # tuples, real or complex, q in {2, 3}, m in [5, 40], n in [1, 3m]
    # and n = INF; the first example read -0.0298 under the order
    # R(a)^* R(b)^* R(a) R(b)
    @settings(max_examples=40, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.lists(hst.sampled_from(range(4)), min_size=2, max_size=3)
           .filter(lambda pick: pick != pick[::-1]), hst.booleans())
    @example((30, 3), [0, 1], False)
    @example((31, 8), [2, 3], False)
    @example((30, 90), [3, 2, 2], False)
    @example((12, 5), [0, 1], True)
    def test_sep_weights_nonnegative(self, mn, pick, limit):
        m, n = mn
        grid = TorusGrid(m)
        funcs = [lambda z: np.cos(2 * z) + 0.2, np.sin,
                 lambda z: np.exp(np.sin(z)), lambda z: np.exp(1j * np.cos(z))]
        weights = tuple(SampledFunction.from_callable(grid, lambda z, f=funcs[i]: f(z) + 0j)
                        for i in pick)
        spec = SepKernel(n=INF if limit else n, q=len(pick), weights=weights,
                         base=L2GaussianTupleKernel(scale=0.8))
        w = kernels_mod._sep_weights(spec)
        assert w.dtype == np.float64 and np.all(w >= 0)

    @pytest.mark.parametrize("family", ["poly", "prod", "sep"])
    def test_empty_block_side_rejected(self, rng, family):
        spec = block_spec(family, 5, 1)
        x = random_trig_tuple(PIN_GRID, rng, d=2)
        with pytest.raises(ConfigError, match="at least one sample"):
            gram_values(spec, [])
        with pytest.raises(ConfigError, match="at least one sample"):
            cross_values(spec, [], [x])
        with pytest.raises(ConfigError, match="at least one sample"):
            cross_values(spec, [x], [])
        if family == "poly":
            with pytest.raises(ConfigError, match="at least one sample"):
                kernels_mod.poly_factors(spec, [])

    @pytest.mark.parametrize("family", ["poly", "prod"])
    def test_block_checks_every_sample(self, rng, family):
        # poly takes the whole-block route, finite prod the pair route
        spec = block_spec(family, 5, 1)
        xs = [random_trig_tuple(PIN_GRID, rng, d=2) for _ in range(3)]
        other_grid = xs[:2] + [random_trig_tuple(TorusGrid(16), rng, d=2)]
        other_d = xs[:2] + [random_trig_tuple(PIN_GRID, rng, d=1)]
        for bad, error in ((other_grid, GridMismatchError), (other_d, ConfigError)):
            with pytest.raises(error, match="block sample 2"):
                gram_values(spec, bad)
            with pytest.raises(error, match="block sample 2"):
                cross_values(spec, bad, xs)
            with pytest.raises(error, match="block sample 5"):
                cross_values(spec, xs, bad)


class TestThreadBudget:
    """Row tiles on spare threads of the SPECTRUNC_WORKERS budget."""

    @staticmethod
    def spy_tiles(monkeypatch, meet=0, fail_at=None):
        """Record the thread of every tile call; the first ``meet`` calls
        wait for each other, and call ``fail_at`` raises."""
        idents, lock = [], threading.Lock()
        barrier = threading.Barrier(max(meet, 1), timeout=10)
        for name in ("_prod_pair_values", "_inf_values_block"):
            def spy(s, a, b, _real=getattr(kernels_mod, name)):
                with lock:
                    idents.append(threading.get_ident())
                    call = len(idents)
                if call == fail_at:
                    raise RuntimeError("tile failed")
                if call <= meet:
                    barrier.wait()
                return _real(s, a, b)
            monkeypatch.setattr(kernels_mod, name, spy)
        return idents

    @pytest.mark.parametrize("spec", ROW_TILE_SPECS, ids=ROW_TILE_IDS)
    def test_blocks_identical_across_budgets(self, rng, monkeypatch, spec):
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        ys = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        for budget in 2 ** np.arange(19):
            monkeypatch.setattr(kernels_mod, "_PAIR_CHUNK_BUDGET", int(budget))
            blocks = []
            for workers in ("1", "2", "3"):
                monkeypatch.setenv("SPECTRUNC_WORKERS", workers)
                blocks.append((gram_values(spec, xs, allow_aliasing=True)[0],
                               cross_values(spec, ys, xs, allow_aliasing=True)))
            for other in blocks[1:]:
                for block, want in zip(other, blocks[0]):
                    assert block.dtype == want.dtype and np.array_equal(block, want)

    def test_tiles_share_the_budget_threads(self, rng, monkeypatch):
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        spec = block_spec("prod", 5, 1)
        monkeypatch.setattr(kernels_mod, "_PAIR_CHUNK_BUDGET", 1 << 10)
        monkeypatch.setenv("SPECTRUNC_WORKERS", "2")
        # the first two tiles meet, so both threads run tiles at once
        idents = self.spy_tiles(monkeypatch, meet=2)
        gram_values(spec, xs, allow_aliasing=True)
        assert len(idents) > 2 and len(set(idents)) == 2
        monkeypatch.setenv("SPECTRUNC_WORKERS", "1")
        idents = self.spy_tiles(monkeypatch)
        cross_values(spec, xs, xs, allow_aliasing=True)
        assert len(idents) > 2 and set(idents) == {threading.get_ident()}
        monkeypatch.setenv("SPECTRUNC_WORKERS", "2")
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        cross_values(spec, xs[:1], xs[1:2], allow_aliasing=True)
        assert started == [] and parallel._taken == 0

    def test_failed_tile_returns_its_slots(self, rng, monkeypatch):
        xs = [random_trig_tuple(PIN_GRID, rng, d=2, deg=3) for _ in range(7)]
        spec = block_spec("prod", INF, 2)
        monkeypatch.setattr(kernels_mod, "_PAIR_CHUNK_BUDGET", 1 << 8)
        for workers in ("1", "2"):
            monkeypatch.setenv("SPECTRUNC_WORKERS", workers)
            idents = self.spy_tiles(monkeypatch, fail_at=3)
            with pytest.raises(RuntimeError, match="tile failed"):
                gram_values(spec, xs, allow_aliasing=True)
            # on one thread, no tile is handed out after the failed one
            assert len(idents) == 3 if workers == "1" else len(idents) >= 3
            assert parallel._taken == 0
        # the next block at budget 2 gets its helper again
        idents = self.spy_tiles(monkeypatch, meet=2)
        gram_values(spec, xs, allow_aliasing=True)
        assert len(set(idents)) == 2 and parallel._taken == 0

    def test_two_threads_share_the_workspace_budget(self, monkeypatch):
        # the inpaint shape: m = 256 pixels, N = 100 images, n = 16
        grid = TorusGrid(256)
        rng = np.random.default_rng(5)
        xs = [FunctionTuple((SampledFunction(grid, rng.uniform(size=256) + 0j),))
              for _ in range(100)]
        g = GaussianKernel(gamma=0.1)
        spec = ProdKernel(n=16, q=1, bases1=(g,), bases2=(g,), beta=0.01)
        gram_values(spec, xs[:2], allow_aliasing=True)          # caches the weight table
        peaks = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SPECTRUNC_WORKERS", workers)
            tracemalloc.start()
            try:
                gram_values(spec, xs, allow_aliasing=True)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["2"] <= 1.05 * peaks["1"]
