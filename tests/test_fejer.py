import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import eval_trig, random_trig_coeffs
from oracles import fejer_1d, fejer_multi_oracle, lattice_points_mP, q_set_union
from spectrunc import fejer
from spectrunc import (
    beta_from_policy,
    dirichlet,
    fejer_convolve,
    fejer_min_estimate,
    fejer_multi,
)
from spectrunc.errors import BudgetError, ConfigError


def window_maxabs(r):
    best = 0
    for l in range(len(r)):
        s = 0
        for k in range(l, len(r)):
            s += r[k]
            best = max(best, abs(s))
    return best


class TestDirichlet:
    def test_at_zero(self):
        for n in (1, 2, 5, 8):
            assert dirichlet(n, 0.0) == pytest.approx(n)

    def test_two_at_pi(self):
        assert dirichlet(2, np.pi) == pytest.approx(0.0, abs=1e-14)

    def test_cube_roots(self):
        # 1 + w + w^2 = 0 for the primitive cube root of unity
        assert dirichlet(3, 2 * np.pi / 3) == pytest.approx(0.0, abs=1e-13)

    def test_closed_form_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        s = np.concatenate([rng.uniform(0, 2 * np.pi, 50), [1e-9, 1e-5, 2 * np.pi - 1e-7]])
        # next to the poles s = 2*pi*k, exact poles included
        near = [2 * np.pi * k + sign * 10.0**-j
                for k in (-1, 0, 1, 3) for sign in (1, -1) for j in (1, 3, 5, 8, 12, 15)]
        s = np.concatenate([s, near, [0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi]])
        for n in (2, 5, 9, 100, 1000, 10**4):
            direct = np.exp(1j * np.outer(s, np.arange(n))).sum(axis=1)
            # the direct sum's own phase rounding grows like n^2 eps
            assert np.max(np.abs(dirichlet(n, s) - direct)) < 1e-10 * max(1.0, n**2 / 1e4)

    def test_memory_does_not_grow_with_n(self):
        tracemalloc.start()
        try:
            assert np.all(dirichlet(10**5, np.zeros(64)) == 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFejer1D:
    def test_peak(self):
        for n in (1, 3, 7):
            assert fejer_1d(n, 0.0) == pytest.approx(n)

    def test_zero(self):
        assert fejer_1d(2, np.pi) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative(self):
        t = np.linspace(0, 2 * np.pi, 101)
        assert np.min(fejer_1d(5, t)) >= 0

    def test_unit_mass(self):
        # term-by-term character integration gives total mass 1 under the
        # normalized measure; the rectangle rule with m > 2n is exact
        for n in (1, 2, 4, 7):
            t = 2 * np.pi * np.arange(64) / 64
            assert np.mean(fejer_1d(n, t)) == pytest.approx(1.0, abs=1e-12)


class TestFejerMulti:
    def test_peak(self):
        for n, q in [(1, 1), (2, 1), (3, 2), (5, 2)]:
            assert fejer_multi(n, q, np.zeros(2 * q)) == pytest.approx(float(n) ** (2 * q))

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for q in (1, 2):
            for n in (1, 2, 3, 4):
                t = rng.uniform(0, 2 * np.pi, size=(20, 2 * q))
                a = fejer_multi(n, q, t)
                b = fejer_multi_oracle(n, q, t)
                scale = np.maximum(1.0, np.abs(b))
                assert np.max(np.abs(a - b) / scale) < 1e-9

    def test_example_point(self):
        t = np.array([np.pi, np.pi])
        assert fejer_multi(2, 1, t) == pytest.approx(fejer_multi_oracle(2, 1, t), abs=1e-12)

    def test_even(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 2 * np.pi, size=(50, 2))
        assert np.max(np.abs(fejer_multi(4, 1, t) - fejer_multi(4, 1, -t))) < 1e-10

    def test_bound(self):
        rng = np.random.default_rng(3)
        for q in (1, 2):
            t = rng.uniform(0, 2 * np.pi, size=(500, 2 * q))
            for n in (2, 4, 8):
                vals = fejer_multi(n, q, t)
                assert np.max(np.abs(vals)) <= float(n) ** (2 * q) * (1 + 1e-10)


class TestOracle:
    def test_n_one_is_constant_one(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 2 * np.pi, size=(5, 2))
        assert np.allclose(fejer_multi_oracle(1, 1, t), 1.0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            fejer_multi_oracle(9, 1, np.zeros(2))
        with pytest.raises(BudgetError):
            fejer_multi_oracle(2, 3, np.zeros(6))


class TestPolyhedron:
    def test_membership(self):
        from oracles import polyhedron_contains

        # the partial-sum constraint kills the same-sign diagonal corners
        assert polyhedron_contains((1, -1))
        assert polyhedron_contains((-1, 1))
        assert not polyhedron_contains((1, 1))
        assert not polyhedron_contains((-1, -1))
        assert polyhedron_contains((1, 1), scale=2)
        assert polyhedron_contains((2, -3, 2, -1), scale=3)
        assert not polyhedron_contains((2, -3, 2, 2), scale=3)
        assert polyhedron_contains((0, 0), scale=0)


class TestLattice:
    def test_seven_points(self):
        got = lattice_points_mP(1, 1)
        want = set(itertools.product((-1, 0, 1), repeat=2)) - {(1, 1), (-1, -1)}
        assert got == want
        assert len(got) == 7
        assert q_set_union(1, 1) == want

    def test_degenerate(self):
        assert lattice_points_mP(0, 1) == {(0, 0)}
        assert q_set_union(0, 1) == {(0, 0)}

    @pytest.mark.parametrize("m,q", [(m, q) for m in range(5) for q in (1, 2)])
    def test_two_constructions_agree(self, m, q):
        assert lattice_points_mP(m, q) == q_set_union(m, q)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            lattice_points_mP(5, 1)


class TestMinEstimate:
    def test_n_one_constant(self):
        assert fejer_min_estimate(1, 1, grid_density=16) == pytest.approx(1.0, abs=1e-9)

    def test_above_provable_bound(self):
        for n, q in [(2, 1), (3, 1), (2, 2)]:
            est = fejer_min_estimate(n, q, grid_density=24)
            assert est >= -float(n) ** (2 * q)

    def test_reproducible(self):
        a = fejer_min_estimate(3, 1, grid_density=32, seed=7)
        b = fejer_min_estimate(3, 1, grid_density=32, seed=7)
        assert a == b

    def test_finds_negative_region(self):
        # the multivariate kernel does dip below zero (unlike the 1-D one)
        assert fejer_min_estimate(3, 1, grid_density=48) < 0

    def test_q2_multistart(self):
        est = fejer_min_estimate(2, 2, grid_density=8, seed=1)
        assert est >= -16.0

    def test_matches_reference_estimates(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        ref = json.loads(path.read_text())["seeds"]["0"]["fejer-diagnostics"]
        for n, q in [(4, 1), (4, 2), (8, 1), (8, 2)]:
            want = ref[f"fejer_min/n{n}/q{q}"]
            assert fejer_min_estimate(n, q, seed=0) == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("call", [
        lambda: fejer_min_estimate(0, 1),
        lambda: fejer_min_estimate(2, 0),
        lambda: fejer_min_estimate(2, 1, grid_density=1),
        lambda: fejer_min_estimate(2, 2, seed=-1),
        lambda: dirichlet(0, 0.5),
        lambda: fejer_multi(2, 0, np.zeros((1, 0))),
        lambda: fejer.grid_points(1, 1),
    ], ids=["n0", "q0", "density1", "seed-1", "dirichlet-n0", "multi-q0", "grid-density1"])
    def test_bad_arguments_are_config_errors(self, call):
        with pytest.raises(ConfigError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: fejer_min_estimate(2, 4),
        lambda: fejer_min_estimate(2, 1, grid_density=2049),
        lambda: fejer.grid_points(16, 5),
        lambda: fejer.grid_points(2, 10**9),
    ], ids=["q4-scan", "q1-density", "table", "huge-q"])
    def test_scan_budget_checked_before_allocating(self, call):
        # every size here is rejected by the guard before any array exists
        with pytest.raises(BudgetError):
            call()


def _estimate_starts(n, q, seed, density=64):
    """The starts ``fejer_min_estimate`` refines, from its own scan."""
    if q == 1:
        pts = fejer.grid_points(density, 1)
        return pts[[int(np.argmin(fejer_multi(n, q, pts)))]]
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, 2 * np.pi, (fejer.MIN_ESTIMATE_STARTS, 2 * q))
    pts = np.concatenate([fejer.grid_points(8, q), starts])
    return pts[np.argsort(fejer_multi(n, q, pts))[:8]]


class TestBatchedNelderMead:
    """The batched descent is pinned to ``scipy.optimize.minimize``, which
    only this test imports: every start's result is equal, not close."""

    @staticmethod
    def scipy_runs(n, starts, maxiter=2000):
        optimize = pytest.importorskip("scipy.optimize")

        def f(t):
            return float(fejer._chain(n, np.remainder(t, 2.0 * np.pi)[:, None]).real[0])

        return [optimize.minimize(f, s, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": maxiter})
                for s in starts]

    @staticmethod
    def batched(n, starts, **kwargs):
        return fejer._nelder_mead(
            lambda t: fejer._chain(n, list(np.remainder(t, 2.0 * np.pi).T)).real,
            starts, **kwargs).tolist()

    @pytest.mark.parametrize("n, q, seed", [
        (1, 1, 0), (3, 1, 0), (8, 1, 7), (5, 1, 20240527),
        (2, 2, 0), (4, 2, 1), (6, 2, 7), (8, 2, 20240527),
    ])
    def test_each_start_matches_scipy(self, n, q, seed):
        # the estimate's own starts, plus random ones with zero coordinates
        # (scipy's 0.00025 simplex step) that shrink at q = 1
        rng = np.random.default_rng(seed)
        extra = rng.uniform(0, 2 * np.pi, (3, 2 * q))
        extra[0], extra[1, ::2] = 0.0, 0.0
        starts = np.concatenate([_estimate_starts(n, q, seed), extra])
        runs = self.scipy_runs(n, starts)
        assert self.batched(n, starts) == [r.fun for r in runs]
        if q == 1:
            # a run without shrinks makes at most 2 evaluations per iteration
            assert any(r.nfev > 2 * q + 1 + 2 * r.nit for r in runs)

    def test_iteration_cap_matches_scipy(self):
        starts = _estimate_starts(4, 2, 0)
        runs = self.scipy_runs(4, starts, maxiter=25)
        assert all(r.nit == 25 for r in runs)
        assert self.batched(4, starts, maxiter=25) == [r.fun for r in runs]

    def test_three_evaluation_calls_per_iteration_at_most(self, monkeypatch):
        calls = []
        real = fejer._chain
        monkeypatch.setattr(fejer, "_chain", lambda n, ts: calls.append(1) or real(n, ts))
        self.batched(4, _estimate_starts(4, 2, 0), maxiter=50)
        assert 1 + 49 <= len(calls) <= 1 + 3 * 49


def test_cli_import_leaves_scipy_optimize_out():
    src = Path(fejer.__file__).resolve().parents[1]
    code = "import sys, spectrunc.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestBetaPolicy:
    def test_bound(self):
        assert beta_from_policy("bound", 3, 2) == 81.0

    def test_estimate_covers_minimum(self):
        n, q = 3, 1
        beta = beta_from_policy("estimate", n, q, grid_density=48)
        est = fejer_min_estimate(n, q, grid_density=48)
        assert beta >= -est
        assert beta >= 0

    def test_unknown(self):
        for policy in ("surprise", "manual"):
            with pytest.raises(ValueError, match="has no offset rule"):
                beta_from_policy(policy, 2, 1)


class TestConvolve:
    def test_unit_mass(self):
        for n in (1, 2, 4):
            for q in (1, 2):
                got = fejer_convolve(lambda t: np.ones(t.shape[1:]), n, q, 0.7,
                                     m_axis=12)
                assert got == pytest.approx(1.0, abs=1e-10)

    def test_monomial_multiplier(self):
        # separable monomial e^{i k . t}: the convolution multiplies by the
        # kernel's Fourier weight (n - M(k))^+ / n, derived by enumeration
        rng = np.random.default_rng(5)
        for q, n in [(1, 3), (2, 2)]:
            ks = rng.integers(-(n - 1), n, size=2 * q)

            def g(t, ks=ks):
                return np.exp(1j * np.tensordot(ks, t, axes=(0, 0)))

            z = 1.234
            weight = max(0, n - window_maxabs(tuple(int(k) for k in ks))) / n
            want = weight * np.exp(1j * np.sum(ks) * z)
            got = fejer_convolve(g, n, q, z, m_axis=12)
            assert got == pytest.approx(want, abs=1e-10)

    def test_converges_to_g(self):
        # smooth separable g: the convolution approaches g(z 1)
        rng = np.random.default_rng(6)
        coeffs = [random_trig_coeffs(rng, deg=1, scale=0.4) for _ in range(2)]

        def g(t):
            return eval_trig(coeffs[0], t[0]) * eval_trig(coeffs[1], t[1])

        z = 0.5
        target = complex(eval_trig(coeffs[0], np.array(z)) * eval_trig(coeffs[1], np.array(z)))
        gaps = []
        for n in (2, 4, 8):
            got = fejer_convolve(g, n, 1, z, m_axis=24)
            gaps.append(abs(got - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.3 * gaps[0]

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            fejer_convolve(lambda t: np.ones(t.shape[1:]), 2, 2, 0.0, m_axis=64)


def _lattice_convolve(g, n, q, z, m_axis):
    """The convolution's rectangle rule with the kernel from lattice
    enumeration on the dense node array."""
    axis = 2.0 * np.pi * np.arange(m_axis) / m_axis
    coords = np.meshgrid(*([axis] * (2 * q)), indexing="ij")
    u = np.stack([z - c for c in coords], axis=-1)
    return complex(np.mean(g(np.stack(coords)) * fejer_multi_oracle(n, q, u)))


def _random_integrand(q, m_axis):
    """A callback returning fixed random node values near 1, so every kernel
    value on the grid carries weight in the mean."""
    rng = np.random.default_rng(11 + q)
    shape = (m_axis,) * (2 * q)
    vals = rng.uniform(0.5, 1.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    return lambda t: vals


class TestChainShapes:
    @pytest.mark.parametrize("q,ns,m_axis", [(1, range(1, 9), 16), (2, range(1, 5), 6)])
    def test_convolve_matches_lattice_oracle(self, q, ns, m_axis):
        # z on a grid node puts factor arguments exactly on a pole of D_n
        g = _random_integrand(q, m_axis)
        for n in ns:
            for z in (0.0, 2.0 * np.pi * 3 / m_axis, 1.234):
                got = fejer_convolve(g, n, q, z, m_axis=m_axis)
                want = _lattice_convolve(g, n, q, z, m_axis)
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.fixture
    def spy(self, monkeypatch):
        sizes = []
        real = fejer.dirichlet

        def counted(n, s):
            sizes.append(np.size(s))
            return real(n, s)

        monkeypatch.setattr(fejer, "dirichlet", counted)
        return sizes

    @pytest.mark.parametrize("q", [1, 2])
    def test_one_dirichlet_call_per_evaluation(self, spy, q):
        t = np.random.default_rng(7).uniform(0, 2 * np.pi, size=(30, 2 * q))
        fejer_multi(3, q, t)
        assert spy == [(2 * q + 1) * 30]
        spy.clear()
        m_axis = 12
        fejer_convolve(lambda t: np.ones(t.shape[1:]), 3, q, 0.7, m_axis=m_axis)
        assert len(spy) == 1
        assert spy[0] <= 2 * m_axis + (2 * q - 1) * m_axis**2
        if q > 1:
            assert spy[0] < m_axis ** (2 * q)

    def test_complex_chain_raises(self, monkeypatch):
        real = fejer.dirichlet
        monkeypatch.setattr(fejer, "dirichlet", lambda n, s: real(n, s) * np.exp(0.3j))
        for q in (1, 2):
            with pytest.raises(ArithmeticError):
                fejer_multi(3, q, np.zeros((4, 2 * q)))
            with pytest.raises(ArithmeticError):
                fejer_convolve(lambda t: np.ones(t.shape[1:]), 3, q, 0.0, m_axis=8)
