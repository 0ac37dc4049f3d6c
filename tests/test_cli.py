import json

import numpy as np
import pytest

from helpers import random_trig_tuple
from spectrunc import FunctionTuple, SampledFunction, TorusGrid
from spectrunc.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from spectrunc.errors import ConfigError, NumericalError
from spectrunc.serialize import (kernel_from_json, read_dataset, read_function_csv, read_kernel,
                                 write_dataset, write_function_csv, write_kernel, write_pgm)
from spectrunc.kernels import L2GaussianTupleKernel, SepKernel


@pytest.fixture
def rng():
    return np.random.default_rng(53)


@pytest.fixture
def tiny_dataset(tmp_path, rng):
    g = TorusGrid(16)
    xs = [random_trig_tuple(g, rng, d=1, real=True) for _ in range(4)]
    ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(4)]
    write_dataset(tmp_path / "ds", xs, ys)
    one = SampledFunction.constant(g, 1.0)
    spec = SepKernel(n=5, q=1, weights=(one,), base=L2GaussianTupleKernel(scale=0.7))
    write_kernel(spec, tmp_path / "kernel.json")
    return tmp_path


def test_fit_predict_eval_pipeline(tiny_dataset, capsys):
    ds = str(tiny_dataset / "ds")
    kernel = str(tiny_dataset / "kernel.json")
    model = str(tiny_dataset / "model")
    assert main(["fit", "--dataset", ds, "--kernel", kernel,
                 "--lam", "0.05", "--out", model]) == EXIT_OK
    assert main(["predict", "--model", model, "--dataset", ds,
                 "--out", str(tiny_dataset / "preds")]) == EXIT_OK
    preds = json.loads((tiny_dataset / "preds" / "predictions.json").read_text())
    assert len(preds["predictions"]) == 4
    first = read_function_csv(tiny_dataset / "preds" / preds["predictions"][0])
    assert first.grid.m == 16
    assert main(["eval", "--model", model, "--dataset", ds,
                 "--out", str(tiny_dataset / "errors.csv")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "test error" in out
    lines = (tiny_dataset / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "sample,l2_error"
    assert lines[-1].startswith("mean,")


def test_fit_complex_non_palindromic_sep(tmp_path, rng):
    # the sep weight S_n(B^* B), B = R_n(a) R_n(b), is real and >= 0 for
    # complex weights too, so the field is Hermitian and the fit succeeds
    g = TorusGrid(30)
    xs = [random_trig_tuple(g, rng, d=2) for _ in range(60)]
    ys = [SampledFunction(g, rng.normal(size=30) + 1j * rng.normal(size=30)) for _ in range(60)]
    write_dataset(tmp_path / "ds", xs, ys)
    a = SampledFunction.from_callable(g, lambda z: np.exp(np.sin(z)) + 0j)
    b = SampledFunction.from_callable(g, lambda z: np.exp(1j * np.cos(z)))
    spec = SepKernel(n=8, q=2, weights=(a, b), base=L2GaussianTupleKernel(scale=0.7))
    write_kernel(spec, tmp_path / "kernel.json")
    assert main(["fit", "--dataset", str(tmp_path / "ds"), "--kernel",
                 str(tmp_path / "kernel.json"), "--lam", "0.01",
                 "--out", str(tmp_path / "model")]) == EXIT_OK


def test_gram_subcommand(tiny_dataset):
    out = tiny_dataset / "gram.csv"
    assert main(["gram", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(tiny_dataset / "kernel.json"),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "point,z,min_eigenvalue"
    assert len(lines) == 17


def test_fejer_subcommands(tmp_path):
    table = tmp_path / "fejer.csv"
    assert main(["fejer", "--n", "3", "--q", "1", "--density", "6",
                 "--out", str(table)]) == EXIT_OK
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "t1,t2,value"
    assert len(lines) == 37
    est = tmp_path / "min.csv"
    assert main(["fejer-min", "--n", "3", "--q", "1", "--density", "24",
                 "--out", str(est)]) == EXIT_OK
    lines = est.read_text().strip().splitlines()
    assert lines[0] == "n,q,estimate,bound"
    n, q, estimate, bound = lines[1].split(",")
    assert float(bound) == 9.0
    assert float(estimate) >= -9.0


@pytest.mark.parametrize("argv", [
    ["fejer", "--n", "0"],
    ["fejer", "--n", "3", "--q", "0"],
    ["fejer", "--n", "3", "--density", "0"],
    ["fejer", "--n", "3", "--density", "1"],
    ["fejer", "--n", "3", "--q", "5", "--density", "16"],
    ["fejer-min", "--n", "0"],
    ["fejer-min", "--n", "3", "--q", "0"],
    ["fejer-min", "--n", "3", "--density", "1"],
    ["fejer-min", "--n", "3", "--q", "2", "--seed", "-1"],
    ["fejer-min", "--n", "3", "--q", "4"],
    ["fejer-min", "--n", "3", "--seed", "1"],
    ["fejer-min", "--n", "3", "--q", "2", "--density", "16"],
], ids=["fejer-n0", "fejer-q0", "fejer-density0", "fejer-density1", "fejer-over-budget",
        "min-n0", "min-q0", "min-density1", "min-seed-1", "min-over-budget",
        "min-seed-at-q1", "min-density-at-q2"])
def test_fejer_bad_input_exit_code(tmp_path, capsys, argv):
    # the over-budget sizes are rejected before any grid is allocated
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert_one_config_error_line(capsys)
    assert not out.exists()


def test_converge_subcommand(tmp_path):
    config = {
        "n_list": [4, 8],
        "x": [{"m": 32, "trig": [[1, 1.0, 0.0]]}],
        "y": [{"m": 32, "trig": [[1, 1.0, 0.0]]}],
        "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}],
    }
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "conv.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,sup_gap,mean_gap"
    # the analytic case: gap exactly 1/n
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][2]) == pytest.approx(0.25, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(0.125, abs=1e-12)


def test_complexity_subcommand(tmp_path):
    config = {
        "n_list": [2, 4, 8],
        "samples": [[{"m": 32, "trig": [[1, 1.0, 0.0]]}]],
        "kernels": [{"family": "poly", "n": 2, "q": 1, "alpha": [1.0]}],
        "delta": 0.1,
    }
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,sum_D,second_term,third_term"
    assert len(lines) == 4


def test_complexity_resolves_beta_policy_per_n(tmp_path):
    # b(x, x) = 1 for a Gaussian base, so sum_D = 1 + beta_n = 1 + n^2 under
    # the bound policy, re-resolved at every n but the kernel's own
    gauss = {"kind": "gaussian", "gamma": 1.0}
    config = {
        "n_list": [2, 4, 8],
        "samples": [[{"m": 32, "trig": [[1, 1.0, 0.0]]}]],
        "kernels": [{"family": "prod", "n": 2, "q": 1, "beta_policy": "bound",
                     "bases1": [gauss], "bases2": [gauss]}],
    }
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("prod", "2"), ("prod", "4"), ("prod", "8")]
    assert [float(r[2]) for r in rows] == pytest.approx([5.0, 17.0, 65.0], rel=1e-12)


def test_complexity_far_past_m(tmp_path):
    # x = e^{iz} on m = 8 folds R_n(x) onto an 8-cycle counted n/8 times, so
    # ||R_n(x)|| = n/8; a dense R_n(x) at n = 10^6 would need 16 TB
    config = {
        "n_list": [4, 1000000],
        "samples": [[{"m": 8, "trig": [[1, 1.0, 0.0]]}]],
        "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}],
        "allow_aliasing": True,
    }
    cfg = tmp_path / "cx.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "cx.csv"
    assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["4", "1000000"]
    assert [float(r[2]) for r in rows] == pytest.approx([1.0, 1.5625e10], rel=1e-12)


def test_complexity_warns_when_swept_beta_falls(tmp_path, capsys):
    # the density-64 scan of the estimate policy under-resolves the Fejer
    # minimum past n ~ 48 (beta_48 = 92.6, beta_56 = 27.5); once that scan
    # resolves the 1/n scale of F_n, this document no longer warns
    gauss = {"kind": "gaussian", "gamma": 1.0}
    config = {
        "n_list": [48, 56],
        "samples": [[{"m": 32, "trig": [[1, 1.0, 0.0]]}]],
        "kernels": [{"family": "prod", "n": 48, "q": 1, "beta_policy": "estimate",
                     "bases1": [gauss], "bases2": [gauss]}],
        "allow_aliasing": True,
    }
    cfg = tmp_path / "cx.json"
    out = tmp_path / "cx.csv"
    for policy, warned in (("estimate", True), ("bound", False)):
        config["kernels"][0]["beta_policy"] = policy
        cfg.write_text(json.dumps(config))
        assert main(["complexity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(out.read_text().strip().splitlines()) == 3
        if warned:
            assert len(err) == 1 and err[0].startswith("warning: prod kernel: beta_n sweep")
        else:
            assert err == []


def test_converge_repeated_family_exit_code(tmp_path, capsys):
    poly = {"family": "poly", "n": 4, "alpha": [1.0]}
    config = {**CONVERGE, "kernels": [{**poly, "q": 1}, {**poly, "q": 2}]}
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "conv.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "repeat the 'poly' family" in assert_one_config_error_line(capsys)


def test_synthetic_pipeline(tmp_path):
    config = {
        "n_samples": 8, "n_test": 6, "grid_m": 30, "seed": 3, "runs": 1,
        "kernels": [
            {"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]},
            {"family": "poly", "n": "inf", "q": 1, "alpha": [1.0, 1.0]},
        ],
    }
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == EXIT_OK
    assert (tmp_path / "data" / "train" / "dataset.json").exists()
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_OK
    results = (tmp_path / "res" / "results.csv").read_text()
    assert results.splitlines()[0] == "family,n,run,test_error"
    assert main(["eigen-study", "--config", str(cfg),
                 "--out", str(tmp_path / "eig.csv")]) == EXIT_OK
    assert (tmp_path / "eig.csv").read_text().splitlines()[0] == "family,n,index,mean,std"


def test_run_synth_byte_identical(tmp_path):
    config = {
        "n_samples": 6, "n_test": 4, "grid_m": 30, "seed": 11, "runs": 2,
        "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}],
    }
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "b" / "results.csv").read_bytes()
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()


def test_inpaint_subcommand(tmp_path):
    config = {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4,
              "n_train": 6, "n_test": 3, "n_list": [4, "inf"],
              "recover_count": 1}
    cfg = tmp_path / "inp.json"
    cfg.write_text(json.dumps(config))
    assert main(["inpaint", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    errors = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    assert errors[0] == "n,test_error"
    assert (tmp_path / "out" / "recovered" / "n4" / "test000.pgm").exists()


@pytest.mark.parametrize("case", ["ok", "too-few", "other-size"])
def test_inpaint_from_pgm_directory(tmp_path, rng, capsys, case):
    # source is a directory whose train/ and test/ hold same-size graymaps
    src = tmp_path / "images"
    for split, count in (("train", 4), ("test", 2)):
        for i in range(count):
            write_pgm(rng.uniform(size=(4, 4)), src / split / f"img{i}.pgm")
    (src / "test" / "img1.pgm").write_bytes(b"P5 4 4 255\n" + bytes(range(0, 256, 16)))
    config = {"height": 4, "width": 4, "mask_h": 2, "mask_w": 2, "n_train": 4, "n_test": 2,
              "n_list": [4], "recover_count": 2, "source": str(src)}
    if case == "too-few":
        config["n_train"] = 5
    if case == "other-size":
        write_pgm(rng.uniform(size=(4, 5)), src / "train" / "img3.pgm")
    cfg = tmp_path / "inp.json"
    cfg.write_text(json.dumps(config))
    code = main(["inpaint", "--config", str(cfg), "--out", str(tmp_path / "out")])
    if case == "ok":
        assert code == EXIT_OK
        assert len((tmp_path / "out" / "errors.csv").read_text().splitlines()) == 2
        assert (tmp_path / "out" / "recovered" / "n4" / "test001.pgm").exists()
    else:
        assert code == EXIT_CONFIG
        message = {"too-few": "found 4 PGM images, need 5", "other-size": "not all (4, 4)"}
        assert message[case] in assert_one_config_error_line(capsys)


def test_sep_weight_file_references(tiny_dataset, tmp_path):
    # a weight given as {"file": ...} is read from beside the spec
    a = SampledFunction.from_callable(TorusGrid(16), lambda z: np.exp(np.sin(z)) + 0j)
    spec_dir = tmp_path / "spec"
    spec_dir.mkdir()
    write_function_csv(a, spec_dir / "a.csv")
    doc = {"family": "sep", "n": 5, "q": 1, "weights": [{"file": "a.csv"}],
           "base": {"kind": "l2_gaussian", "scale": 0.7}}
    (spec_dir / "kernel.json").write_text(json.dumps(doc))
    assert np.array_equal(read_kernel(spec_dir / "kernel.json").weights[0].values, a.values)
    assert main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(spec_dir / "kernel.json"), "--lam", "0.05",
                 "--out", str(tmp_path / "model")]) == EXIT_OK
    with pytest.raises(ConfigError, match="needs a base directory"):
        kernel_from_json(doc)


def test_config_error_exit_code(tmp_path):
    assert main(["run-synth", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_negative_lambda_rejected_before_any_cell(tmp_path):
    config = {"n_samples": 4, "n_test": 2, "runs": 1, "lambda": -1,
              "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}]}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_CONFIG
    assert not (tmp_path / "res" / "results.csv").exists()


def test_bad_worker_count_exit_code(monkeypatch, tmp_path):
    config = {"n_samples": 4, "n_test": 2, "runs": 1,
              "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}]}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("SPECTRUNC_WORKERS", "abc")
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_CONFIG


def test_failed_sweep_cell_exits_numerical(tmp_path, capsys):
    # zero weights give an all-zero Gram field, which lambda = 0 cannot solve
    config = {"n_samples": 12, "n_test": 8, "seed": 7, "runs": 1, "lambda": 0,
              "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [0.0, 0.0]}]}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "res"
    assert main(["run-synth", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    assert (out / "results.csv").read_text().splitlines()[1] == "poly,4,0,nan"
    assert (out / "summary.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("numerical failure:")] == [err[-1]]
    assert "1 of 1 sweep cells failed" in err[-1] and "family=poly n=4 run=0" in err[-1]


INPAINT_SMALL = {"height": 16, "width": 16, "mask_h": 6, "mask_w": 6, "n_train": 24,
                 "n_test": 6, "n_list": [8, 16, "inf"], "recover_count": 2}


@pytest.mark.parametrize("source", [5, ["x"], None])
def test_inpaint_non_string_source(tmp_path, capsys, source):
    cfg = tmp_path / "inp.json"
    cfg.write_text(json.dumps({**INPAINT_SMALL, "source": source}))
    assert main(["inpaint", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "source must be" in assert_one_config_error_line(capsys)


def test_inpaint_outputs_identical_across_thread_budgets(monkeypatch, tmp_path):
    # a small pair budget splits every block into many row tiles
    monkeypatch.setattr("spectrunc.kernels._PAIR_CHUNK_BUDGET", 1 << 14)
    cfg = tmp_path / "inp.json"
    cfg.write_text(json.dumps(INPAINT_SMALL))
    trees = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SPECTRUNC_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert main(["inpaint", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                      if p.is_file()})
    assert len(trees[0]) == 1 + 3 * 2 and trees[0] == trees[1]


@pytest.mark.parametrize("command", ["inpaint", "fit"])
def test_bad_worker_count_on_block_commands(monkeypatch, tmp_path, capsys, command):
    cfg = tmp_path / "inp.json"
    cfg.write_text(json.dumps(INPAINT_SMALL))
    g = TorusGrid(16)
    xs = [FunctionTuple((SampledFunction(g, np.cos(k * g.points) + 0j),)) for k in range(4)]
    write_dataset(tmp_path / "ds", xs, [x.components[0] for x in xs])
    (tmp_path / "prod.json").write_text(json.dumps(PROD))
    argv = {"inpaint": ["inpaint", "--config", str(cfg)],
            "fit": ["fit", "--dataset", str(tmp_path / "ds"), "--kernel",
                    str(tmp_path / "prod.json"), "--lam", "0.1"]}[command]
    monkeypatch.setenv("SPECTRUNC_WORKERS", "abc")
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "SPECTRUNC_WORKERS" in assert_one_config_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
def test_bad_lam_exit_code(tmp_path, tiny_dataset, capsys, lam):
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(tiny_dataset / "kernel.json"), "--lam", lam,
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "m").exists()
    assert "regularization must be finite and >= 0" in assert_one_config_error_line(capsys)


def test_bad_kernel_config_exit_code(tmp_path, tiny_dataset):
    bad = tmp_path / "bad_kernel.json"
    bad.write_text(json.dumps({"family": "poly", "n": 0, "q": 1, "alpha": [1.0]}))
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(bad), "--lam", "0.1",
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG


def test_kernel_file_error_names_the_file(tmp_path, tiny_dataset, capsys):
    bad = tmp_path / "bad_kernel.json"
    bad.write_text(json.dumps({"family": "poly", "n": 4, "alpha": [1.0]}))
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"), "--kernel", str(bad),
                 "--lam", "0.1", "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    err = assert_one_config_error_line(capsys)
    assert str(bad) in err and "'q'" in err


def test_model_kernel_error_names_the_model_file(tmp_path, tiny_dataset, capsys):
    ds, model = str(tiny_dataset / "ds"), tiny_dataset / "model"
    assert main(["fit", "--dataset", ds, "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.05", "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((model / "model.json").read_text())
    del doc["kernel"]["q"]
    (model / "model.json").write_text(json.dumps(doc))
    code = main(["predict", "--model", str(model), "--dataset", ds,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = assert_one_config_error_line(capsys)
    assert str(model / "model.json") in err and "'q'" in err


def test_numerical_error_exit_code(monkeypatch, tiny_dataset, tmp_path):
    import spectrunc.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod.regression, "fit", boom)
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.1", "--out", str(tmp_path / "m")])
    assert code == EXIT_NUMERICAL


@pytest.fixture
def poly_dataset(tmp_path, rng):
    g = TorusGrid(30)
    xs = [random_trig_tuple(g, rng, d=1, real=True) for _ in range(3)]
    ys = [SampledFunction(g, rng.normal(size=30) + 0j) for _ in range(3)]
    write_dataset(tmp_path / "ds", xs, ys)
    (tmp_path / "poly16.json").write_text(json.dumps(
        {"family": "poly", "n": 16, "q": 1, "alpha": [1.0]}))
    return tmp_path


def test_aliasing_without_opt_in_exit_code(poly_dataset):
    # n = 16 needs coefficients up to |k| = 15, which alias on m = 30
    code = main(["fit", "--dataset", str(poly_dataset / "ds"),
                 "--kernel", str(poly_dataset / "poly16.json"), "--lam", "0.1",
                 "--out", str(poly_dataset / "model")])
    assert code == EXIT_CONFIG
    assert not (poly_dataset / "model" / "model.json").exists()
    assert main(["fit", "--dataset", str(poly_dataset / "ds"),
                 "--kernel", str(poly_dataset / "poly16.json"), "--lam", "0.1",
                 "--allow-aliasing", "--out", str(poly_dataset / "model")]) == EXIT_OK


def test_missing_dataset_exit_code(poly_dataset):
    code = main(["fit", "--dataset", str(poly_dataset / "missing"),
                 "--kernel", str(poly_dataset / "poly16.json"), "--lam", "0.1",
                 "--out", str(poly_dataset / "model")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command, extra", [
    ("complexity", {"samples": [[{"m": 32, "trig": [[1, 1.0, 0.0]]}]]}),
    ("converge", {"x": [{"m": 32, "trig": [[1, 1.0, 0.0]]}],
                  "y": [{"m": 32, "trig": [[1, 1.0, 0.0]]}]}),
], ids=["complexity", "converge"])
def test_inf_in_finite_n_list_exit_code(tmp_path, command, extra):
    # both tables are defined at finite n only
    config = {"n_list": [2, "inf"],
              "kernels": [{"family": "poly", "n": 2, "q": 1, "alpha": [1.0]}], **extra}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


CONVERGE = {"n_list": [4], "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}],
            "x": [{"m": 32, "trig": [[1, 1.0, 0.0]]}], "y": [{"m": 32, "trig": [[1, 1.0, 0.0]]}]}
COMPLEXITY = {"n_list": [4], "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}],
              "samples": [[{"m": 32, "trig": [[1, 1.0, 0.0]]}]]}


def assert_one_config_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    return err[0]


GAUSS = {"kind": "gaussian", "gamma": 1.0}
PROD = {"family": "prod", "n": 4, "q": 1, "bases1": [GAUSS], "bases2": [GAUSS]}


POLY4 = {"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}
FIT = ["fit", "--lam", "0.1"]
# gram and fit at lambda = 0 check the field before any solve
GRAM_NAN = "non-finite Gram entry (0, 1) at grid point 0"


@pytest.mark.parametrize("kernel, argv, message", [
    pytest.param(PROD, FIT, "non-finite solution", id="prod"),
    pytest.param(POLY4, FIT, "non-finite solution", id="poly-dense"),
    pytest.param(PROD, ["gram"], GRAM_NAN, id="prod-gram"),
    pytest.param(POLY4, ["gram"], GRAM_NAN, id="poly-dense-gram"),
    pytest.param(PROD, ["fit", "--lam", "0"], GRAM_NAN, id="prod-lam-0"),
    pytest.param(POLY4, ["fit", "--lam", "0"], GRAM_NAN, id="poly-dense-lam-0"),
])
def test_nan_sample_exit_code(tmp_path, rng, capsys, kernel, argv, message):
    # both kernels keep the dense N x N route (poly: d*n = N = 4)
    g = TorusGrid(16)
    xs = [random_trig_tuple(g, rng, d=1, real=True) for _ in range(4)]
    xs[1] = FunctionTuple((SampledFunction(g, np.full(16, np.nan + 0j)),))
    ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(4)]
    write_dataset(tmp_path / "ds", xs, ys)
    (tmp_path / "kernel.json").write_text(json.dumps(kernel))
    code = main(argv + ["--dataset", str(tmp_path / "ds"),
                        "--kernel", str(tmp_path / "kernel.json"), "--out", str(tmp_path / "m")])
    assert code == EXIT_NUMERICAL
    assert not (tmp_path / "m").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"numerical failure: {message}"), err


@pytest.mark.parametrize("command, config, written", [
    ("run-synth", {"n_samples": 4, "n_test": 2, "runs": 1, "lamda": 5.0,
                   "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}]},
     "results.csv"),
    ("gen-synth", {"n_samples": 4, "n_test": 2, "lamda": 5.0}, "train/dataset.json"),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 4,
                 "n_test": 2, "n_list": [4], "lamda": 5.0}, "errors.csv"),
    ("run-synth", {"n_samples": 4, "n_test": 2, "runs": 1,
                   "kernels": [{**PROD, "betta": 5.0}]}, "results.csv"),
    ("converge", {**CONVERGE, "allow_aliasng": True}, ""),
], ids=["run-synth", "gen-synth", "inpaint", "kernel-spec", "converge"])
def test_unknown_config_key_exit_code(tmp_path, capsys, command, config, written):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out" / written).exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("key", ["n", "q", "alpha"])
def test_kernel_missing_key_exit_code(tiny_dataset, tmp_path, capsys, key):
    doc = {"family": "poly", "n": 4, "q": 1, "alpha": [1.0]}
    del doc[key]
    bad = tmp_path / "bad_kernel.json"
    bad.write_text(json.dumps(doc))
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"), "--kernel", str(bad),
                 "--lam", "0.1", "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("converge", "x"), ("converge", "y"), ("converge", "kernels"), ("converge", "n_list"),
    ("complexity", "samples"), ("complexity", "kernels"), ("complexity", "n_list"),
])
def test_config_missing_key_exit_code(tmp_path, capsys, command, key):
    config = {"converge": CONVERGE, "complexity": COMPLEXITY}[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in config.items() if k != key}))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


POLY2 = {"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}


def kernel_case(id, **fields):
    return pytest.param("kernels", [{**POLY2, **fields}], id=id)


def base_case(id, **fields):
    return pytest.param("kernels", [{**PROD, "bases1": [fields]}], id=id)


@pytest.mark.parametrize("field, value", [
    ("runs", 0), ("n_samples", "abc"), ("n_samples", 0), ("n_test", 2.5), ("grid_m", 1),
    ("runs", True), ("input_noise", "0.1"), ("delta", "x"), ("seed", 1.5), ("seed", 2 ** 64),
    kernel_case("q-abc", q="abc"), kernel_case("q-2.7", q=2.7),
    kernel_case("alpha-x", alpha=["x"]), kernel_case("alpha-quoted", alpha="12"),
    kernel_case("alpha-quoted-entry", alpha=["1.0", "1.0"]),
    kernel_case("alpha-d3", alpha=[1.0, 1.0, 1.0]),
    pytest.param("kernels", [{**PROD, "beta": None}], id="beta-null"),
    base_case("gamma-null", kind="gaussian", gamma=None),
    base_case("gamma-quoted", kind="gaussian", gamma="1.0"),
    base_case("degree-2.5", kind="polynomial", degree=2.5),
    ("lambda", float("nan")), ("lambda", float("inf")), ("input_noise", float("inf")),
    ("output_noise", float("nan")), ("delta", float("nan")),
    ("delta", 0), ("delta", -1), ("input_noise", -1), ("output_noise", -1),
    kernel_case("alpha-nan", alpha=[1.0, float("nan")]),
    pytest.param("kernels", [{**PROD, "beta": float("inf")}], id="beta-inf"),
    base_case("gamma-nan", kind="gaussian", gamma=float("nan")),
    base_case("offset-inf", kind="polynomial", degree=2, offset=float("inf")),
])
def test_bad_config_value_rejected_before_any_cell(tmp_path, capsys, field, value):
    config = {"n_samples": 4, "n_test": 2, "runs": 1, "kernels": [POLY2], field: value}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_CONFIG
    assert not (tmp_path / "res" / "results.csv").exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["eigen-study", "--point", "30"], ["eigen-study", "--point", "-1"],
    ["gen-synth", "--run", "-1"], ["gen-synth", "--run", str(2 ** 56)],
], ids=["point-m", "point-negative", "run-negative", "run-2**56"])
def test_index_out_of_range_exit_code(tmp_path, capsys, argv):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_samples": 4, "n_test": 2, "runs": 1, "grid_m": 30,
                               "kernels": [POLY2]}))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("command, config, written", [
    ("complexity", {**COMPLEXITY, "B": "big"}, ""),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 0,
                 "n_test": 2, "n_list": [4]}, "errors.csv"),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 2,
                 "n_test": 2, "n_list": [4], "gamma": "1.0"}, "errors.csv"),
    ("inpaint", {"height": 1, "width": 1, "mask_h": 1, "mask_w": 1, "n_train": 2,
                 "n_test": 2, "n_list": [4]}, "errors.csv"),
    ("converge", {**CONVERGE, "allow_aliasing": "no"}, ""),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 2,
                 "n_test": 2, "n_list": []}, "errors.csv"),
    ("converge", {**CONVERGE, "n_list": []}, ""),
    ("complexity", {**COMPLEXITY, "n_list": []}, ""),
    ("run-synth", {"n_samples": 4, "n_test": 2, "runs": 1, "kernels": []}, "results.csv"),
    ("converge", {**CONVERGE, "kernels": []}, ""),
    ("complexity", {**COMPLEXITY, "kernels": []}, ""),
    ("complexity", {**COMPLEXITY, "samples": []}, ""),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 2,
                 "n_test": 2, "n_list": [4], "seed": 2 ** 64}, "errors.csv"),
], ids=["complexity-B", "inpaint-n_train", "inpaint-gamma-quoted", "inpaint-one-pixel",
        "converge-allow_aliasing", "inpaint-empty-n_list", "converge-empty-n_list",
        "complexity-empty-n_list", "run-synth-empty-kernels", "converge-empty-kernels",
        "complexity-empty-kernels", "complexity-empty-samples", "inpaint-seed-2**64"])
def test_bad_document_value_exit_code(tmp_path, capsys, command, config, written):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out" / written).exists()
    assert_one_config_error_line(capsys)


def truncate(path):
    path.write_bytes(path.read_bytes()[:200])


def repack(ds, **arrays):
    # replace (or, given None, drop) arrays of tiny_dataset: N = 4, m = 16, d = 1
    with np.load(ds / "dataset.npz") as npz:
        packed = {**npz, **arrays}
    np.savez(ds / "dataset.npz", **{k: a for k, a in packed.items() if a is not None})


def reshape(ds, m, d):
    # arrays and a manifest that agree, at a grid size m or width d no sample can have
    repack(ds, inputs=np.zeros((4, m, d), complex), outputs=np.zeros((4, m), complex))
    (ds / "dataset.json").write_text(
        json.dumps({"m": m, "d": d, "n_samples": 4, "arrays": "dataset.npz"}))


def csv_layout(ds):
    # the same samples as one CSV per tuple component and output, each tuple
    # listed in its own manifest and every sample in dataset.json
    inputs, outputs = read_dataset(ds)
    samples = []
    for i, (x, y) in enumerate(zip(inputs, outputs)):
        write_function_csv(x.components[0], ds / f"x{i:04d}_c0.csv")
        (ds / f"x{i:04d}.json").write_text(
            json.dumps({"components": [f"x{i:04d}_c0.csv"], "d": 1, "m": 16}))
        write_function_csv(y, ds / f"y{i:04d}.csv")
        samples.append({"input": f"x{i:04d}.json", "output": f"y{i:04d}.csv"})
    (ds / "dataset.npz").unlink()
    (ds / "dataset.json").write_text(
        json.dumps({"m": 16, "d": 1, "n_samples": 4, "samples": samples}))


@pytest.mark.parametrize("corrupt", [
    lambda ds: (ds / "dataset.npz").unlink(),
    lambda ds: truncate(ds / "dataset.npz"),
    lambda ds: (ds / "dataset.npz").write_text("z,re,im\n0,1,0\n"),
    lambda ds: repack(ds, inputs=None),
    lambda ds: repack(ds, inputs=np.zeros((4, 15, 1), complex)),
    lambda ds: repack(ds, inputs=np.zeros((4, 16, 2), complex)),
    lambda ds: repack(ds, inputs=np.zeros((4, 16, 1))),
    lambda ds: repack(ds, outputs=np.zeros((3, 16), complex)),
    lambda ds: repack(ds, inputs=np.full((4, 16, 1), None, dtype=object)),
    lambda ds: reshape(ds, 1, 1),
    lambda ds: reshape(ds, 16, 0),
    csv_layout,
], ids=["deleted-npz", "truncated-npz", "not-a-zip", "no-inputs-array", "inputs-m-15",
        "inputs-d-2", "real-inputs", "outputs-n-3", "object-array", "inputs-m-1", "inputs-d-0",
        "csv-layout"])
def test_bad_data_file_exit_code(tiny_dataset, tmp_path, capsys, corrupt):
    ds = tiny_dataset / "ds"
    corrupt(ds)
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.1", "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "m").exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("command", ["fit", "predict", "eval"],
                         ids=["fit-packed", "predict-packed", "eval-packed"])
def test_empty_dataset_exit_code(tiny_dataset, tmp_path, capsys, command):
    ds, model = tiny_dataset / "ds", tiny_dataset / "model"
    assert main(["fit", "--dataset", str(ds), "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.05", "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    np.savez(empty / "dataset.npz", inputs=np.zeros((0, 16, 1), complex),
             outputs=np.zeros((0, 16), complex))
    (empty / "dataset.json").write_text(
        json.dumps({"m": 16, "d": 1, "n_samples": 0, "arrays": "dataset.npz"}))
    if command == "fit":
        argv = ["fit", "--dataset", str(empty), "--kernel", str(tiny_dataset / "kernel.json"),
                "--lam", "0.05"]
    else:
        argv = [command, "--model", str(model), "--dataset", str(empty)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    assert "dataset has no samples" in assert_one_config_error_line(capsys)


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("change", [
    {"allow_aliasing": "no"}, {"lambda": "0.1"}, {"lambda": -1.0}, {"N": "4"}, {"m": 16.5},
    {"lambda": float("nan")}, {"lambda": float("inf")},
], ids=["allow_aliasing-no", "lambda-quoted", "lambda-negative", "N-quoted", "m-16.5",
        "lambda-nan", "lambda-inf"])
def test_bad_model_manifest_exit_code(tiny_dataset, tmp_path, capsys, command, change):
    ds, model = str(tiny_dataset / "ds"), tiny_dataset / "model"
    assert main(["fit", "--dataset", ds, "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.05", "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((model / "model.json").read_text())
    (model / "model.json").write_text(json.dumps({**doc, **change}))
    code = main([command, "--model", str(model), "--dataset", ds, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    assert_one_config_error_line(capsys)


# results.csv and summary.csv of the run-synth configs of test_synthetic_pipeline
# and test_run_synth_byte_identical, as written when each sweep cell was still
# collected through its own future (numpy 2.4, OpenBLAS 0.3.31, x86-64); the
# poly n = 4 rows as rewritten when the Toeplitz chain columns became one
# inverse FFT of shifted bin rows, which rounds differently in the last digits
PINNED_SWEEPS = {
    "pipeline": (
        {"n_samples": 8, "n_test": 6, "grid_m": 30, "seed": 3, "runs": 1,
         "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]},
                     {"family": "poly", "n": "inf", "q": 1, "alpha": [1.0, 1.0]}]},
        ["family,n,run,test_error",
         "poly,4,0,0.018700656215547048",
         "poly,inf,0,0.033598493966871375"],
        ["family,n,median,q1,q3",
         "poly,4,0.018700656215547048,0.018700656215547048,0.018700656215547048",
         "poly,inf,0.033598493966871375,0.033598493966871375,0.033598493966871375"],
    ),
    "two-runs": (
        {"n_samples": 6, "n_test": 4, "grid_m": 30, "seed": 11, "runs": 2,
         "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}]},
        ["family,n,run,test_error",
         "poly,4,0,0.015026727993472259",
         "poly,4,1,0.016677384770286133"],
        ["family,n,median,q1,q3",
         "poly,4,0.015852056381879198,0.015439392187675729,0.016264720576082664"],
    ),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_run_synth_csvs_pinned(monkeypatch, tmp_path, name, workers):
    config, results, summary = PINNED_SWEEPS[name]
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("SPECTRUNC_WORKERS", workers)
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_OK
    for name, lines in (("results.csv", results), ("summary.csv", summary)):
        # the csv module ends rows in \r\n
        want = "".join(line + "\r\n" for line in lines).encode()
        assert (tmp_path / "res" / name).read_bytes() == want
