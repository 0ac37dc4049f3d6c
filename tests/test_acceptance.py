"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure (a failed assertion prints nothing and fails the test).

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import dataclasses
import time

import numpy as np

from helpers import eval_trig, random_trig_coeffs, random_trig_tuple, trig_from_coeffs
from oracles import lattice_points_mP, q_set_union
from spectrunc import (
    INF,
    FunctionTuple,
    GaussianKernel,
    L2GaussianTupleKernel,
    PolyKernel,
    ProdKernel,
    SampledFunction,
    SepKernel,
    TorusGrid,
    assemble_gram,
    check_pd,
    complexity_D,
    fejer_convolve,
    fejer_min_estimate,
    fejer_multi,
    fit,
    kernel_limit_gap,
    predict,
    sn_map_at,
    truncate,
)
from spectrunc.experiments import (
    InpaintConfig,
    SyntheticConfig,
    blob_images,
    default_synthetic_kernels,
    image_to_tuple,
    run_inpaint,
    run_synthetic,
)
from spectrunc.fejer import BETA_MARGIN
from spectrunc.regression import predict_batch
from spectrunc.serialize import write_rows_csv


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_01_fejer_two_path_identity():
    """S_n of a chain of truncations equals the Fejer convolution of the
    separable integrand, |gap| <= 1e-6, runtime < 2 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = TorusGrid(16)
    m_axis = 16
    worst = 0.0
    for q in (1, 2):
        for n in range(2, 7):
            for _ in range(20):
                xc = [random_trig_coeffs(rng, deg=2, scale=0.5) for _ in range(q)]
                yc = [random_trig_coeffs(rng, deg=2, scale=0.5) for _ in range(q)]
                M = np.eye(n, dtype=complex)
                for c in xc:
                    M = M @ truncate(trig_from_coeffs(grid, c), n).dense().conj().T
                for c in yc:
                    M = M @ truncate(trig_from_coeffs(grid, c), n).dense()

                values = []

                def integrand(t, xc=xc, yc=yc, q=q, values=values):
                    # the quadrature nodes do not depend on z: evaluate once
                    if not values:
                        out = np.ones(t.shape[1:], dtype=complex)
                        for j in range(q):
                            out = out * np.conj(eval_trig(xc[j], t[j]))
                        for j in range(q):
                            out = out * eval_trig(yc[j], t[q + j])
                        values.append(out)
                    return values[0]

                for z in rng.uniform(0.0, 2.0 * np.pi, size=5):
                    lhs = complex(sn_map_at(M, z))
                    rhs = fejer_convolve(integrand, n, q, float(z), m_axis=m_axis)
                    worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 120.0
    report("1 (two-path identity)", f"max |matrix - convolution| = {worst:.2e} in {elapsed:.1f}s")


def test_02_lattice_oracle():
    """Set equality of the two lattice constructions for all m <= 4, q <= 2."""
    t0 = time.perf_counter()
    checked = 0
    for q in (1, 2):
        for m in range(5):
            assert lattice_points_mP(m, q) == q_set_union(m, q)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("2 (lattice oracle)", f"{checked} (m, q) cases exactly equal in {elapsed:.1f}s")


def test_03_fejer_bound():
    """|F_n| <= n^{2q} (1 + 1e-10) on 10^4 sampled points; exact peak at 0."""
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for q in (1, 2):
        t = rng.uniform(0.0, 2.0 * np.pi, size=(10_000, 2 * q))
        for n in range(1, 9):
            bound = float(n) ** (2 * q)
            vals = fejer_multi(n, q, t)
            worst_ratio = max(worst_ratio, float(np.max(np.abs(vals))) / bound)
            assert np.max(np.abs(vals)) <= bound * (1 + 1e-10)
            peak = fejer_multi(n, q, np.zeros(2 * q))
            assert abs(peak - bound) <= 1e-10 * max(1.0, bound)
    report("3 (Fejer bound)", f"max |F|/n^(2q) = {worst_ratio:.6f} <= 1")


def test_04_convergence_to_limits():
    """Sup-gap to the commutative limit decreases over {8,...,256} and ends
    below 1e-2 for all three families; the shift case gives exactly 1/n."""
    rng = np.random.default_rng(11)
    grid = TorusGrid(1024)
    n_list = [8, 16, 32, 64, 128, 256]
    x = random_trig_tuple(grid, rng, d=2, deg=2, scale=0.15)
    y = random_trig_tuple(grid, rng, d=2, deg=2, scale=0.15)
    # unit-sup-norm weight: the absolute tolerance is calibrated to
    # unit-scale functions
    a = SampledFunction.from_callable(grid, lambda z: np.exp(np.sin(z) - 1.0).astype(complex))
    g1 = GaussianKernel(gamma=1.0)
    specs = {
        "poly": PolyKernel(n=8, q=1, alpha=(1.0, 1.0)),
        "prod": ProdKernel(n=8, q=1, bases1=(g1,), bases2=(g1,), beta=0.0),
        "sep": SepKernel(n=8, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.5)),
    }
    finals = {}
    for family, spec in specs.items():
        rows = kernel_limit_gap(spec, x, y, n_list)
        sups = [r[1] for r in rows]
        assert all(b < a_ for a_, b in zip(sups, sups[1:])), (family, sups)
        assert sups[-1] < 1e-2, (family, sups[-1])
        finals[family] = sups[-1]
    # analytic case: x = y = e^{iz}, poly q = 1 has gap exactly 1/n
    e = FunctionTuple((SampledFunction.from_callable(grid, lambda z: np.exp(1j * z)),))
    rows = kernel_limit_gap(PolyKernel(n=8, q=1, alpha=(1.0,)), e, e, n_list)
    for n, sup_gap, _ in rows:
        assert abs(sup_gap - 1.0 / n) <= 1e-10
    report("4 (convergence)",
           "sup-gaps at n=256: " + ", ".join(f"{k}={v:.2e}" for k, v in finals.items())
           + "; shift case = 1/n to 1e-10")


def test_05_positive_definiteness():
    """Minimum Gram eigenvalue >= -1e-8 for poly, sep, and policy-beta prod
    over N = 20 random smooth inputs and n in {4, 16, 64}; runtime < 2 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    grid = TorusGrid(256)
    xs = [random_trig_tuple(grid, rng, d=2, deg=3, real=True) for _ in range(20)]
    a = SampledFunction.from_callable(grid, lambda z: np.exp(np.sin(z)).astype(complex))
    g1 = GaussianKernel(gamma=1.0)
    worst = np.inf
    for n in (4, 16, 64):
        beta = max(0.0, -fejer_min_estimate(n, 1, grid_density=96)) + BETA_MARGIN
        specs = [
            PolyKernel(n=n, q=1, alpha=(1.0, 1.0)),
            SepKernel(n=n, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.5)),
            ProdKernel(n=n, q=1, bases1=(g1,), bases2=(g1,), beta=beta),
        ]
        for spec in specs:
            rep = check_pd(assemble_gram(spec, xs))
            assert rep.global_min >= -1e-8, (spec.family, n, rep.global_min)
            worst = min(worst, rep.global_min)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("5 (positive definiteness)",
           f"min eigenvalue over all cases = {worst:.2e} >= -1e-8 in {elapsed:.1f}s")


def test_06_ridge_correctness():
    """Post-fit residuals <= 1e-8 relative at every grid point on the
    synthetic configuration; exact interpolation at lam = 1e-10 to 1e-4."""
    from spectrunc.experiments import gen_synthetic

    config = SyntheticConfig(n_samples=200, n_test=10, runs=1)
    (train_x, train_y), _ = gen_synthetic(config, 0)
    g1 = GaussianKernel(gamma=1.0)
    spec = ProdKernel(n=32, q=1, bases1=(g1,), bases2=(g1,), beta=1.0)
    gram = assemble_gram(spec, train_x, allow_aliasing=True)
    model = fit(spec, train_x, train_y, lam=0.01, allow_aliasing=True)
    worst_rel = 0.0
    for p in range(gram.grid.m):
        A = gram.matrices[p] + 0.01 * np.eye(len(train_x))
        b = np.array([y.values[p] for y in train_y])
        resid = np.linalg.norm(A @ model.coefficients[:, p] - b)
        rel = resid / (1.0 + np.linalg.norm(b))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-8

    rng = np.random.default_rng(17)
    grid = TorusGrid(32)
    xs = [random_trig_tuple(grid, rng, d=2, deg=3, real=True) for _ in range(8)]
    ys = [SampledFunction(grid, rng.normal(size=32) + 0j) for _ in range(8)]
    one = SampledFunction.constant(grid, 1.0)
    sep = SepKernel(n=8, q=1, weights=(one,), base=L2GaussianTupleKernel(scale=0.5))
    interp = fit(sep, xs, ys, lam=1e-10)
    worst_gap = max(
        float(np.max(np.abs(predict(interp, x).values - y.values)))
        for x, y in zip(xs, ys)
    )
    assert worst_gap <= 1e-4
    report("6 (ridge correctness)",
           f"max relative residual = {worst_rel:.2e}; interpolation gap = {worst_gap:.2e}")


def test_07_complexity_monotonicity():
    """D(k_n, x) <= D(k_{n+1}, x) (1 + 1e-10) across n = 2..64 for 10 random
    smooth inputs and all three families."""
    rng = np.random.default_rng(19)
    grid = TorusGrid(256)
    a = SampledFunction.from_callable(grid, lambda z: np.exp(np.sin(z)).astype(complex))
    g1 = GaussianKernel(gamma=1.0)
    base_specs = [
        PolyKernel(n=2, q=1, alpha=(1.0, 1.0)),
        ProdKernel(n=2, q=1, bases1=(g1,), bases2=(g1,), beta=1.0),
        SepKernel(n=2, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=0.5)),
    ]
    ns = list(range(2, 65))
    checked = 0
    for spec in base_specs:
        for _ in range(10):
            x = random_trig_tuple(grid, rng, d=2, deg=4, real=True)
            values = [complexity_D(dataclasses.replace(spec, n=n), x) for n in ns]
            for dn, dn1 in zip(values, values[1:]):
                assert dn <= dn1 * (1 + 1e-10), spec.family
            checked += 1
    report("7 (complexity monotonicity)",
           f"nondecreasing D over n=2..64 for {checked} (family, input) sweeps")


def test_08_synthetic_experiment_ordering():
    """Desk-scale reproduction: for poly and prod, the minimum median test
    error over the sweep occurs at a finite n, strictly below the n = INF
    median.  Runtime < 15 min."""
    t0 = time.perf_counter()
    n_list = (8, 16, 32, 64, 128, INF)
    config = SyntheticConfig(
        n_samples=200, n_test=200, runs=3, seed=1234,
        kernels=tuple(default_synthetic_kernels(n_list=n_list, families=("poly", "prod"))),
    )
    rows, summary = run_synthetic(config)
    assert all(np.isfinite(r[3]) for r in rows), "a sweep cell failed"
    medians: dict[str, dict[str, float]] = {}
    for family, n_label, med, _, _ in summary:
        medians.setdefault(family, {})[n_label] = med
    details = []
    for family in ("poly", "prod"):
        table = medians[family]
        inf_median = table["inf"]
        finite = {k: v for k, v in table.items() if k != "inf"}
        best_n, best = min(finite.items(), key=lambda kv: kv[1])
        assert best < inf_median, (family, table)
        details.append(f"{family}: best median {best:.4f} at n={best_n} < inf {inf_median:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report("8 (synthetic experiment)", "; ".join(details) + f" in {elapsed:.0f}s")


def test_09_inpaint_blindness():
    """At n = INF the masked-region prediction ignores content outside the
    mask (diff <= 1e-8 across two test images); a finite n reacts (> 1e-3)."""
    config = InpaintConfig(height=16, width=16, mask_h=8, mask_w=8,
                           n_train=50, n_test=20, n_list=(16, INF))
    train, test = blob_images(config, 2, config.n_train), blob_images(config, 1, config.n_test)
    grid = TorusGrid(config.height * config.width)
    mask = config.mask().ravel()

    def masked_tuple(img):
        flat = img.ravel().copy()
        flat[mask] = 0.0
        return image_to_tuple(flat.reshape(config.height, config.width), grid)

    train_x = [masked_tuple(img) for img in train]
    train_y = [SampledFunction(grid, img.ravel().astype(complex)) for img in train]
    probe_a = masked_tuple(test[0])
    probe_b = masked_tuple(test[1])
    # the two probes coincide inside the mask (both zeroed) and differ outside
    diff_outside = np.max(np.abs(test[0].ravel()[~mask] - test[1].ravel()[~mask]))
    assert diff_outside > 1e-2

    results = {}
    for n in config.n_list:
        spec = config.kernel(n)
        model = fit(spec, train_x, train_y, config.lam, allow_aliasing=True)
        pa, pb = predict_batch(model, [probe_a, probe_b])
        results[n] = np.max(np.abs(pa.values[mask] - pb.values[mask]))
    assert results[INF] <= 1e-8
    assert results[16] > 1e-3
    report("9 (inpainting mechanism)",
           f"masked-region sensitivity: inf = {results[INF]:.2e} (blind), "
           f"n=16 = {results[16]:.2e} (reacts)")


def test_10_determinism(tmp_path):
    """Re-running an experiment with a fixed config yields byte-identical CSV."""
    config = SyntheticConfig(
        n_samples=10, n_test=8, runs=2, seed=5,
        kernels=tuple(default_synthetic_kernels(n_list=(8, INF), families=("poly", "prod"))),
    )
    paths = []
    for tag in ("a", "b"):
        rows, summary = run_synthetic(config)
        path = tmp_path / f"results_{tag}.csv"
        write_rows_csv(path, ["family", "n", "run", "test_error"], rows)
        write_rows_csv(tmp_path / f"summary_{tag}.csv",
                       ["family", "n", "median", "q1", "q3"], summary)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (tmp_path / "summary_a.csv").read_bytes() == (tmp_path / "summary_b.csv").read_bytes()

    inp = InpaintConfig(height=8, width=8, mask_h=4, mask_w=4,
                        n_train=6, n_test=3, n_list=(4, INF))
    csvs = []
    for tag in ("a", "b"):
        rows, _ = run_inpaint(inp)
        path = tmp_path / f"inpaint_{tag}.csv"
        write_rows_csv(path, ["n", "test_error"], rows)
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    report("10 (determinism)", "synthetic and inpainting CSVs byte-identical across re-runs")
