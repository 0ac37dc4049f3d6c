import dataclasses
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from helpers import random_trig_tuple
from oracles import window_integral
from spectrunc import (
    INF,
    FunctionTuple,
    GaussianKernel,
    ProdKernel,
    SampledFunction,
    SepKernel,
    TorusGrid,
    fit,
    gen_synthetic,
    run_eigen_study,
    run_inpaint,
    run_synthetic,
)
from spectrunc import L2GaussianTupleKernel, PolyKernel
from spectrunc import experiments, kernels, parallel
from spectrunc.errors import ConfigError
from spectrunc.experiments import (
    InpaintConfig,
    SyntheticConfig,
    blob_images,
    default_synthetic_kernels,
    image_to_tuple,
    inpaint_images,
    synthetic_target,
    worker_count,
)
from spectrunc.regression import predict_batch
from spectrunc.serialize import config_from_json


@pytest.fixture
def rng():
    return np.random.default_rng(61)


def tiny_synth(**kwargs) -> SyntheticConfig:
    defaults = dict(
        n_samples=12, n_test=8, grid_m=30, seed=7, runs=2,
        kernels=tuple(default_synthetic_kernels(n_list=(4, INF), families=("poly", "prod"))),
    )
    defaults.update(kwargs)
    return SyntheticConfig(**defaults)


class TestGenSynthetic:
    def test_noiseless_deterministic_part(self):
        config = tiny_synth(input_noise=0.0, output_noise=0.0)
        (train_x, _), _ = gen_synthetic(config, 0)
        grid = TorusGrid(config.grid_m)
        for i, x in enumerate(train_x, start=1):
            assert np.allclose(x.components[0].values, np.sin(0.01 * i * grid.points))
            assert np.allclose(x.components[1].values, np.cos(0.01 * i * grid.points))

    def test_target_at_zero_tuple(self):
        grid = TorusGrid(30)
        zero = FunctionTuple((SampledFunction.constant(grid, 0.0),
                              SampledFunction.constant(grid, 0.0)))
        got = synthetic_target(zero, delta=2 * np.pi / 30)
        assert np.allclose(got.values, 3 * math.sin(1.0), atol=1e-14)

    def test_target_matches_window_integral(self):
        # cross-check the vectorized window matrix against the torus op
        config = tiny_synth()
        (train_x, train_y), _ = gen_synthetic(dataclasses.replace(config, output_noise=0.0), 0)
        x = train_x[3]
        grid = x.grid
        for p in (0, 7, 19):
            w = sum(window_integral(c, grid.points[p], config.delta) for c in x.components)
            want = 3 * np.sin(np.cos(w))
            assert train_y[3].values[p] == pytest.approx(want, abs=1e-12)

    def test_bitwise_determinism(self):
        config = tiny_synth()
        (ax, ay), (tx, ty) = gen_synthetic(config, 1)
        (bx, by), (ux, uy) = gen_synthetic(config, 1)
        for a, b in zip(ax, bx):
            for ca, cb in zip(a.components, b.components):
                assert np.array_equal(ca.values, cb.values)
        assert np.array_equal(ay[0].values, by[0].values)
        assert np.array_equal(ty[0].values, uy[0].values)

    def test_runs_differ(self):
        config = tiny_synth()
        (ax, _), _ = gen_synthetic(config, 0)
        (bx, _), _ = gen_synthetic(config, 1)
        assert not np.allclose(ax[0].components[0].values, bx[0].components[0].values)

    def test_window_matrix_built_once_read_only(self):
        from spectrunc.experiments import _window_matrix

        grid = TorusGrid(30)
        W = _window_matrix(grid, 0.2)
        assert _window_matrix(TorusGrid(30), 0.2) is W
        assert not W.flags.writeable
        assert _window_matrix(grid, 0.3) is not W

    def test_train_test_noise_independent(self):
        config = tiny_synth(n_samples=4, n_test=4)
        (train, _), (test, _) = gen_synthetic(config, 0)
        assert not np.allclose(train[0].components[0].values, test[0].components[0].values)


class TestRunSynthetic:
    def test_rows_and_summary(self):
        config = tiny_synth()
        rows, summary = run_synthetic(config)
        assert len(rows) == len(config.kernels) * config.runs
        assert len(summary) == len(config.kernels)
        labels = {(r[0], r[1]) for r in rows}
        assert ("poly", "4") in labels and ("poly", "inf") in labels
        assert all(np.isfinite(r[3]) for r in rows)

    def test_deterministic(self):
        config = tiny_synth()
        rows_a, _ = run_synthetic(config)
        rows_b, _ = run_synthetic(config)
        assert rows_a == rows_b

    def test_failed_cell_recorded(self):
        # zero weights give an all-zero Gram field, which lam = 0 cannot
        # solve: a failure only the cell itself can see
        bad = (PolyKernel(n=4, q=1, alpha=(0.0, 0.0)),)
        config = tiny_synth(kernels=bad, runs=1, lam=0.0)
        rows, _ = run_synthetic(config)
        assert len(rows) == 1
        assert math.isnan(rows[0][3])

    def test_kernel_checked_against_data_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("spectrunc.experiments._synthetic_cell", None)
        bad = (PolyKernel(n=4, q=1, alpha=(1.0,)),)  # d mismatch: data has d=2
        with pytest.raises(ConfigError, match="alpha has 1 weights"):
            run_synthetic(tiny_synth(kernels=bad, runs=1))


class TestEigenStudy:
    def test_poly_control_and_policy_beta(self):
        from spectrunc import fejer_min_estimate
        from spectrunc.fejer import BETA_MARGIN

        g1 = GaussianKernel(gamma=1.0)
        n = 4
        beta = max(0.0, -fejer_min_estimate(n, 1, grid_density=48)) + BETA_MARGIN
        kernels = (
            PolyKernel(n=n, q=1, alpha=(1.0, 1.0)),
            ProdKernel(n=n, q=1, bases1=(g1,), bases2=(g1,), beta=beta),
        )
        config = tiny_synth(kernels=kernels, runs=2, n_samples=10)
        rows = run_eigen_study(config)
        assert {r[0] for r in rows} == {"poly", "prod"}
        for family, n_label, idx, mean, std in rows:
            assert mean >= -1e-8
            assert std >= 0.0

    def test_deterministic(self):
        config = tiny_synth(runs=2, n_samples=8)
        assert run_eigen_study(config) == run_eigen_study(config)

    def test_each_run_generated_once(self, monkeypatch):
        calls = []
        real = experiments._synthetic_split

        def spy(config, run, split, count):
            calls.append((run, split))
            return real(config, run, split, count)

        monkeypatch.setattr(experiments, "_synthetic_split", spy)
        config = tiny_synth(runs=3, n_samples=6)
        run_eigen_study(config)
        assert sorted(calls) == [(0, 0), (1, 0), (2, 0)]

    def test_manual_beta_outcome_recorded(self, capsys):
        # the reference configuration uses beta = 1, far below the provable
        # bound; record whether the observed spectrum stays positive
        g1 = GaussianKernel(gamma=1.0)
        kernels = (ProdKernel(n=4, q=1, bases1=(g1,), bases2=(g1,), beta=1.0),)
        config = tiny_synth(kernels=kernels, runs=2, n_samples=10)
        rows = run_eigen_study(config)
        smallest = min(r[3] for r in rows)
        print(f"eigen-study outcome: beta=1 smallest mean eigenvalue {smallest:.3e}")
        assert np.isfinite(smallest)


class TestInpaint:
    def test_blob_images_deterministic_and_bounded(self):
        config = InpaintConfig(height=12, width=12, n_train=5, n_test=3)
        a = blob_images(config, 2, 5)
        b = blob_images(config, 2, 5)
        assert np.array_equal(a, b)
        assert a.shape == (5, 12, 12)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_mask_geometry(self):
        config = InpaintConfig(height=12, width=12, mask_h=4, mask_w=6)
        mask = config.mask()
        assert mask.sum() == 24
        assert mask[4:8, 3:9].all()
        with pytest.raises(ConfigError):
            InpaintConfig(height=4, width=4, mask_h=8, mask_w=8).mask()

    def test_identity_interpolation_on_unmasked(self):
        # PD kernel + tiny regularization reproduces training outputs
        config = InpaintConfig(height=8, width=8, n_train=6, n_test=2)
        train, _ = inpaint_images(config)
        grid = TorusGrid(config.height * config.width)
        xs = [image_to_tuple(img, grid) for img in train]
        ys = [SampledFunction(grid, img.ravel().astype(complex)) for img in train]
        spec = SepKernel(n=8, q=1,
                         weights=(SampledFunction.constant(grid, 1.0),),
                         base=L2GaussianTupleKernel(scale=1.0))
        model = fit(spec, xs, ys, lam=1e-10)
        preds = predict_batch(model, xs)
        worst = max(np.max(np.abs(p.values - y.values)) for p, y in zip(preds, ys))
        assert worst < 1e-4

    def test_run_inpaint_rows(self):
        config = InpaintConfig(height=8, width=8, mask_h=4, mask_w=4,
                               n_train=8, n_test=4, n_list=(4, INF),
                               recover_count=2)
        rows, recovered = run_inpaint(config)
        assert [r[0] for r in rows] == ["4", "inf"]
        assert all(np.isfinite(r[1]) for r in rows)
        assert recovered["4"].shape == (2, 8, 8)
        assert recovered["inf"].min() >= 0.0 and recovered["inf"].max() <= 1.0

    def test_run_inpaint_deterministic(self):
        config = InpaintConfig(height=8, width=8, mask_h=4, mask_w=4,
                               n_train=6, n_test=3, n_list=(4,))
        rows_a, rec_a = run_inpaint(config)
        rows_b, rec_b = run_inpaint(config)
        assert rows_a == rows_b
        assert np.array_equal(rec_a["4"], rec_b["4"])


class TestSweepInvariants:
    def test_csv_round_trip_refit_identical(self, tmp_path):
        # serialized datasets re-read and re-fit give the same error to 1e-12
        from spectrunc.regression import fit as fit_model, test_error as err_of
        from spectrunc.serialize import read_dataset, write_dataset

        config = tiny_synth(runs=1)
        (train_x, train_y), (test_x, test_y) = gen_synthetic(config, 0)
        spec = config.kernels[0]
        direct = err_of(fit_model(spec, train_x, train_y, config.lam, allow_aliasing=True),
                        test_x, test_y)
        write_dataset(tmp_path / "train", train_x, train_y)
        write_dataset(tmp_path / "test", test_x, test_y)
        rx, ry = read_dataset(tmp_path / "train")
        sx, sy = read_dataset(tmp_path / "test")
        reread = err_of(fit_model(spec, rx, ry, config.lam, allow_aliasing=True), sx, sy)
        assert abs(direct - reread) <= 1e-12

    def test_inf_column_is_direct_limit_run(self):
        from spectrunc.experiments import _synthetic_cell

        config = tiny_synth(runs=1)
        rows, _ = run_synthetic(config)
        inf_rows = {r[0]: r[3] for r in rows if r[1] == "inf"}
        datasets = [gen_synthetic(config, 0)]
        for spec in config.kernels:
            if spec.is_infinite:
                direct = _synthetic_cell(config, datasets, spec, 0)
                assert inf_rows[spec.family] == direct

    def test_assembly_cost_smoke(self, capsys, rng):
        # the cost model is linear in m at fixed (n, N); measured, not asserted
        import time

        from spectrunc import assemble_gram

        spec = PolyKernel(n=8, q=1, alpha=(1.0, 1.0))
        times = {}
        for m in (128, 256):
            grid = TorusGrid(m)
            xs = [random_trig_tuple(grid, rng, d=2, deg=3) for _ in range(24)]
            t0 = time.perf_counter()
            assemble_gram(spec, xs)
            times[m] = time.perf_counter() - t0
        print(f"assembly time m=128: {times[128]:.4f}s, m=256: {times[256]:.4f}s, "
              f"ratio {times[256] / times[128]:.2f}")


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SPECTRUNC_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("SPECTRUNC_WORKERS", "0")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.delenv("SPECTRUNC_WORKERS")
        assert worker_count() >= 1

    def test_default_is_the_affinity_mask(self, monkeypatch):
        # a process pinned to fewer CPUs than the machine has runs that many
        monkeypatch.delenv("SPECTRUNC_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 8

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sweep_and_tiles_stay_within_the_budget(self, monkeypatch, workers):
        # many row tiles per block, so every free slot is worth a helper;
        # a short switch interval interleaves the threads often
        monkeypatch.setattr(kernels, "_PAIR_CHUNK_BUDGET", 1 << 10)
        monkeypatch.setenv("SPECTRUNC_WORKERS", str(workers))
        lock, in_flight, most = threading.Lock(), [0], [0]
        for name in ("_prod_pair_values", "_inf_values_block"):
            def counted(*args, _real=getattr(kernels, name)):
                with lock:
                    in_flight[0] += 1
                    most[0] = max(most[0], in_flight[0])
                try:
                    return _real(*args)
                finally:
                    with lock:
                        in_flight[0] -= 1
            monkeypatch.setattr(kernels, name, counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rows, _ = run_synthetic(tiny_synth(runs=3))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.isfinite(r[3]) for r in rows)
        assert 1 <= most[0] <= workers and parallel._taken == 0

    def test_sweep_holds_its_slots_until_its_last_cell_ends(self, monkeypatch):
        # poly and sep cells run no tiles; the last cell's prod block has many,
        # and it starts only after the other cell thread has found no cell left
        monkeypatch.setattr(kernels, "_PAIR_CHUNK_BUDGET", 1 << 10)
        monkeypatch.setenv("SPECTRUNC_WORKERS", "2")
        poly, prod, sep = default_synthetic_kernels(n_list=(4,))
        taken, idents = [], []
        real_cell, real_tiles = experiments._synthetic_cell, kernels._prod_pair_values

        def cell(config, datasets, spec, run):
            if spec is prod:
                time.sleep(0.2)
                taken.append(parallel._taken)
            return real_cell(config, datasets, spec, run)

        def tiles(*args):
            idents.append(threading.get_ident())
            return real_tiles(*args)

        monkeypatch.setattr(experiments, "_synthetic_cell", cell)
        monkeypatch.setattr(kernels, "_prod_pair_values", tiles)
        rows, _ = run_synthetic(tiny_synth(runs=1, kernels=(poly, sep, prod)))
        assert all(np.isfinite(r[3]) for r in rows)
        assert taken == [1] and len(idents) > 2 and len(set(idents)) == 1
        assert parallel._taken == 0

    def test_parallelism_does_not_change_results(self, monkeypatch):
        config = tiny_synth()
        monkeypatch.setenv("SPECTRUNC_WORKERS", "1")
        rows_serial, _ = run_synthetic(config)
        monkeypatch.setenv("SPECTRUNC_WORKERS", "4")
        rows_parallel, _ = run_synthetic(config)
        assert rows_serial == rows_parallel


class TestConfigJson:
    def test_synthetic_round_trip(self):
        config = tiny_synth()
        doc = config.to_json()
        back = config_from_json(SyntheticConfig, doc)
        assert back.n_samples == config.n_samples
        assert back.lam == config.lam
        assert len(back.kernels) == len(config.kernels)

    def test_inpaint_from_json(self):
        doc = {"height": 8, "width": 8, "n_list": [4, "inf"], "lambda": 0.5}
        config = config_from_json(InpaintConfig, doc)
        assert config.n_list == (4, INF)
        assert config.lam == 0.5

    def test_keys_are_the_fields(self):
        # every field is its own key except lam, written "lambda"
        config = tiny_synth()
        doc = config.to_json()
        assert list(doc) == [("lambda" if f.name == "lam" else f.name)
                             for f in dataclasses.fields(SyntheticConfig)]
        assert config_from_json(SyntheticConfig, doc).to_json() == doc
        assert config_from_json(InpaintConfig, {"lambda": 0.5, "source": "blobs"}).lam == 0.5

    @pytest.mark.parametrize("key", ["lamda", "lam", "n_samples "])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_json(SyntheticConfig, {key: 5.0})
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_json(InpaintConfig, {key: 5.0})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json(SyntheticConfig, [{"lambda": 0.5}])

    @pytest.mark.parametrize("field", ["lam", "input_noise", "output_noise", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_synthetic_non_finite_real_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be a finite real number"):
            SyntheticConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lam", "gamma", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_inpaint_non_finite_real_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be a finite real number"):
            InpaintConfig(**{field: value})

    @pytest.mark.parametrize("source", [5, ["x"], None])
    def test_inpaint_non_string_source_rejected(self, source):
        with pytest.raises(ConfigError, match="source must be"):
            InpaintConfig(source=source)
        with pytest.raises(ConfigError, match="source must be"):
            config_from_json(InpaintConfig, {"source": source})

    def test_bad_n_list_entry_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json(InpaintConfig, {"n_list": [4, "infinity"]})
