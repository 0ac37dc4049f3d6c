import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from helpers import random_trig_function
from spectrunc import (
    AliasingError,
    FunctionTuple,
    GridMismatchError,
    SampledFunction,
    TorusGrid,
    fourier_coeff,
    integrate,
    l2_distance,
    window_integral,
)
from spectrunc.torus import l2_distances


def const(grid, v):
    return SampledFunction.constant(grid, v)


class TestGrid:
    def test_points(self):
        g = TorusGrid(4)
        assert np.allclose(g.points, [0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert g.spacing == 2 * np.pi / 4

    def test_too_small(self):
        with pytest.raises(ValueError):
            TorusGrid(1)

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            SampledFunction(TorusGrid(4), np.zeros(5))

    def test_tuple_shares_grid(self):
        f = const(TorusGrid(6), 1.0)
        g = const(TorusGrid(8), 1.0)
        with pytest.raises(GridMismatchError):
            FunctionTuple((f, g))


class TestIntegrate:
    def test_constant(self):
        assert integrate(const(TorusGrid(30), 1.0)) == pytest.approx(1.0)

    def test_character(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        assert abs(integrate(f)) < 1e-14

    def test_trig_polynomial(self):
        # symbolic integral of 2 + e^{3iz} under the normalized measure is 2
        g = TorusGrid(8)
        f = SampledFunction.from_callable(g, lambda z: 2 + np.exp(3j * z))
        assert integrate(f) == pytest.approx(2.0, abs=1e-14)

    def test_quadrature_exactness(self):
        # exact for every trig polynomial of degree < m/2: the symbolic
        # integral is the k = 0 coefficient
        rng = np.random.default_rng(3)
        g = TorusGrid(30)
        for _ in range(20):
            f, coeffs = random_trig_function(g, rng, deg=14)
            assert integrate(f) == pytest.approx(coeffs[0], abs=1e-12)


class TestFourierCoeff:
    def test_character(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        assert fourier_coeff(f, 1) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        assert fourier_coeff(const(TorusGrid(30), 1.0), 2) == pytest.approx(0.0, abs=1e-14)

    def test_sine(self):
        # sin z = (e^{iz} - e^{-iz}) / (2i), so the k = 1 coefficient is -i/2
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, np.sin)
        assert fourier_coeff(f, 1) == pytest.approx(-0.5j, abs=1e-14)

    def test_aliasing_rejected(self):
        f = const(TorusGrid(30), 1.0)
        with pytest.raises(AliasingError):
            fourier_coeff(f, 15)
        fourier_coeff(f, 14)  # in range

    @settings(max_examples=25, deadline=None)
    @given(hst.integers(min_value=-6, max_value=6), hst.integers(min_value=0, max_value=99))
    def test_conjugation_symmetry(self, k, seed):
        rng = np.random.default_rng(seed)
        g = TorusGrid(16)
        f, _ = random_trig_function(g, rng, deg=6)
        lhs = fourier_coeff(f.conj(), k)
        rhs = np.conj(fourier_coeff(f, -k))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestL2Distance:
    def test_identity(self):
        g = TorusGrid(12)
        f, _ = random_trig_function(g, np.random.default_rng(0))
        assert l2_distance(f, f) == 0.0

    def test_constants(self):
        g = TorusGrid(12)
        assert l2_distance(const(g, 1.0), const(g, 0.0)) == pytest.approx(1.0)

    def test_unit_character(self):
        g = TorusGrid(30)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        assert l2_distance(f, const(g, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            l2_distance(const(TorusGrid(6), 1.0), const(TorusGrid(8), 1.0))

    def test_stacked_distances_match_pairwise(self):
        rng = np.random.default_rng(5)
        g = TorusGrid(30)
        fs = [random_trig_function(g, rng)[0] for _ in range(7)]
        gs = [random_trig_function(g, rng)[0] for _ in range(7)]
        want = [l2_distance(f, h) for f, h in zip(fs, gs)]
        assert l2_distances(fs, gs).tolist() == want
        with pytest.raises(GridMismatchError):
            l2_distances(fs[:2], [gs[0], const(TorusGrid(8), 1.0)])

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        g = TorusGrid(16)
        for _ in range(30):
            f, _ = random_trig_function(g, rng)
            h, _ = random_trig_function(g, rng)
            k, _ = random_trig_function(g, rng)
            assert l2_distance(f, k) <= l2_distance(f, h) + l2_distance(h, k) + 1e-12


class TestWindowIntegral:
    def test_three_point_window(self):
        # delta = 2*pi/30 on the m = 30 grid: the closed window around a
        # grid point contains exactly 3 grid points
        g = TorusGrid(30)
        delta = 2 * np.pi / 30
        got = window_integral(const(g, 1.0), g.points[7], delta)
        assert got == pytest.approx(3 * 2 * np.pi / 30, abs=1e-12)

    def test_zero_integrand(self):
        g = TorusGrid(30)
        assert window_integral(const(g, 0.0), 1.0, 0.5) == 0.0

    def test_full_circle(self):
        # odd m: every point is strictly closer than pi, so a window of
        # nearly pi covers the whole circle and the unnormalized measure is 2*pi
        g = TorusGrid(31)
        got = window_integral(const(g, 1.0), 0.3, np.pi - 1e-9)
        assert got == pytest.approx(2 * np.pi, abs=1e-12)

    def test_delta_domain(self):
        g = TorusGrid(30)
        with pytest.raises(ValueError):
            window_integral(const(g, 1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            window_integral(const(g, 1.0), 0.0, np.pi)

    def test_against_riemann_sum(self):
        # independent oracle: explicit loop over points with circular distance
        rng = np.random.default_rng(5)
        g = TorusGrid(24)
        f, _ = random_trig_function(g, rng)
        z, delta = 2.13, 0.9
        acc = 0.0 + 0j
        for p in range(g.m):
            d = abs((g.points[p] - z + np.pi) % (2 * np.pi) - np.pi)
            if d <= delta:
                acc += f.values[p] * g.spacing
        assert window_integral(f, z, delta) == pytest.approx(acc, abs=1e-12)
