import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from helpers import random_trig_function
from oracles import fejer_1d, fourier_coeff, operator_norm, sn_map
from spectrunc import (
    AliasingError,
    SampledFunction,
    TorusGrid,
    ToeplitzRep,
    smooth,
    sn_map_at,
    truncate,
)


def lower_shift(n):
    return np.eye(n, k=-1, dtype=complex)


class TestTruncate:
    def test_constant_is_identity(self):
        g = TorusGrid(30)
        rep = truncate(SampledFunction.constant(g, 1.0), 3)
        assert np.allclose(rep.coeffs, [0, 0, 1, 0, 0], atol=1e-14)
        assert np.allclose(rep.dense(), np.eye(3), atol=1e-14)

    def test_character_is_shift(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        rep = truncate(f, 2)
        assert np.allclose(rep.coeffs, [0, 0, 1], atol=1e-14)
        assert np.allclose(rep.dense(), [[0, 0], [1, 0]], atol=1e-14)

    def test_cosine(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: 2 * np.cos(z))
        assert np.allclose(truncate(f, 2).dense(), [[0, 1], [1, 0]], atol=1e-14)

    def test_aliasing_guard(self):
        g = TorusGrid(30)
        f = SampledFunction.constant(g, 1.0)
        with pytest.raises(AliasingError):
            truncate(f, 16)
        truncate(f, 15)
        # folding is explicit opt-in
        rep = truncate(f, 16, allow_aliasing=True)
        assert rep.n == 16

    def test_matches_fourier_coeff(self):
        rng = np.random.default_rng(2)
        g = TorusGrid(32)
        f, _ = random_trig_function(g, rng, deg=8)
        rep = truncate(f, 9)
        for k in range(-8, 9):
            assert rep.coeffs[k + rep.n - 1] == pytest.approx(fourier_coeff(f, k), abs=1e-12)

    def test_hermitian_source(self):
        rng = np.random.default_rng(4)
        g = TorusGrid(32)
        f, _ = random_trig_function(g, rng, deg=6, real=True)
        rep = truncate(f, 7)
        dense = rep.dense()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-10

    def test_coeff_vector_shape_checked(self):
        with pytest.raises(ValueError):
            ToeplitzRep(3, np.zeros(4))


class TestSnMap:
    def test_identity_gives_one(self):
        g = TorusGrid(16)
        f = sn_map(np.eye(4, dtype=complex), g)
        assert np.allclose(f.values, 1.0, atol=1e-14)

    def test_lower_shift(self):
        g = TorusGrid(16)
        f = sn_map(lower_shift(2), g)
        assert np.allclose(f.values, 0.5 * np.exp(1j * g.points), atol=1e-14)

    def test_corner(self):
        g = TorusGrid(16)
        f = sn_map(np.array([[1, 0], [0, 0]], dtype=complex), g)
        assert np.allclose(f.values, 0.5, atol=1e-14)

    def test_hermitian_transport(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        g = TorusGrid(20)
        lhs = sn_map(A.conj().T, g).values
        rhs = np.conj(sn_map(A, g).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_sup_bounded_by_operator_norm(self):
        rng = np.random.default_rng(7)
        g = TorusGrid(64)
        for _ in range(10):
            A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert np.max(np.abs(sn_map(A, g).values)) <= operator_norm(A) + 1e-10

    def test_sn_map_at_matches_grid(self):
        # against the direct double sum (1/n) sum_{j,l} A_jl e^{i(j-l)z},
        # on the grid points and off them
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z = np.concatenate([TorusGrid(12).points, rng.uniform(-np.pi, 3 * np.pi, size=9)])
        j = np.arange(4)
        want = [np.sum(A * np.exp(1j * (j[:, None] - j[None, :]) * t)) / 4 for t in z]
        assert np.allclose(sn_map_at(A, z), want, rtol=0, atol=1e-12)


class TestSmooth:
    def test_constant_fixed_point(self):
        g = TorusGrid(30)
        one = SampledFunction.constant(g, 1.0)
        for n in (1, 2, 5, 9):
            assert np.allclose(smooth(one, n).values, 1.0, atol=1e-13)

    def test_character_damping(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        got = smooth(f, 4)
        assert np.allclose(got.values, 0.75 * np.exp(1j * g.points), atol=1e-13)

    def test_sup_distance_decreases(self):
        g = TorusGrid(64)
        f = SampledFunction.from_callable(g, np.sin)
        dists = []
        for n in range(2, 24):
            dists.append(np.max(np.abs(smooth(f, n).values - f.values)))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0] / 5

    def test_fejer_multiplier(self):
        # independent check of the round-trip damping (1 - |k|/n) per coefficient
        rng = np.random.default_rng(9)
        g = TorusGrid(40)
        f, coeffs = random_trig_function(g, rng, deg=7)
        n = 6
        sm = smooth(f, n)
        for k in range(-(n - 1), n):
            want = (1 - abs(k) / n) * coeffs.get(k, 0.0)
            assert fourier_coeff(sm, k) == pytest.approx(want, abs=1e-12)
        for k in (n, n + 1, -(n + 2)):
            assert fourier_coeff(sm, k) == pytest.approx(0.0, abs=1e-12)

    # independent oracle: the dense matrix round trip, in every aliasing regime
    @settings(max_examples=40, deadline=None)
    @given(hst.integers(5, 40).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, 3 * m))),
           hst.integers(0, 2**16))
    @example((12, 5), 0)
    @example((12, 9), 1)
    @example((30, 30), 2)
    @example((31, 32), 3)
    @example((5, 15), 4)
    def test_matches_dense_round_trip_any_n(self, mn, seed):
        m, n = mn
        g = TorusGrid(m)
        rng = np.random.default_rng(seed)
        f = SampledFunction(g, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        want = sn_map(truncate(f, n, allow_aliasing=True).dense(), g).values
        got = smooth(f, n, allow_aliasing=True).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if 2 * (n - 1) >= m:
            with pytest.raises(AliasingError):
                smooth(f, n)
        else:
            assert np.array_equal(smooth(f, n).values, got)

    def test_matches_fejer_convolution_path(self):
        # independent route: quadrature of x(t) F_n(z - t) under the
        # normalized measure, per grid point
        rng = np.random.default_rng(10)
        g = TorusGrid(36)
        f, _ = random_trig_function(g, rng, deg=5)
        n = 7
        direct = smooth(f, n).values
        conv = np.array([
            np.mean(f.values * fejer_1d(n, z - g.points)) for z in g.points
        ])
        assert np.max(np.abs(direct - conv)) < 1e-9


class TestMatrixCalculus:
    def test_shift_gram(self):
        S = lower_shift(4)
        assert np.allclose(S.conj().T @ S, np.diag([1, 1, 1, 0]))

    def test_operator_norms(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)
        assert operator_norm(lower_shift(2)) == pytest.approx(1.0)
        assert operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)

    def test_norm_monotone_in_n(self):
        rng = np.random.default_rng(12)
        g = TorusGrid(64)
        for _ in range(5):
            f, _ = random_trig_function(g, rng, deg=6)
            norms = [operator_norm(truncate(f, n).dense()) for n in range(2, 16)]
            assert all(b >= a - 1e-10 for a, b in zip(norms, norms[1:]))
