import json

import numpy as np
import pytest

from helpers import random_trig_tuple
from spectrunc import SampledFunction, TorusGrid
from spectrunc.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from spectrunc.errors import NumericalError
from spectrunc.serialize import read_function_csv, write_dataset, write_kernel
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


def test_bad_kernel_config_exit_code(tmp_path, tiny_dataset):
    bad = tmp_path / "bad_kernel.json"
    bad.write_text(json.dumps({"family": "poly", "n": 0, "q": 1, "alpha": [1.0]}))
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(bad), "--lam", "0.1",
                 "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG


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


GAUSS = {"kind": "gaussian", "gamma": 1.0}
PROD = {"family": "prod", "n": 4, "q": 1, "bases1": [GAUSS], "bases2": [GAUSS]}


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
    ("runs", True), ("input_noise", "0.1"), ("delta", "x"), ("seed", 1.5),
    kernel_case("q-abc", q="abc"), kernel_case("q-2.7", q=2.7),
    kernel_case("alpha-x", alpha=["x"]), kernel_case("alpha-quoted", alpha="12"),
    kernel_case("alpha-quoted-entry", alpha=["1.0", "1.0"]),
    kernel_case("alpha-d3", alpha=[1.0, 1.0, 1.0]),
    pytest.param("kernels", [{**PROD, "beta": None}], id="beta-null"),
    base_case("gamma-null", kind="gaussian", gamma=None),
    base_case("gamma-quoted", kind="gaussian", gamma="1.0"),
    base_case("degree-2.5", kind="polynomial", degree=2.5),
])
def test_bad_config_value_rejected_before_any_cell(tmp_path, capsys, field, value):
    config = {"n_samples": 4, "n_test": 2, "runs": 1, "kernels": [POLY2], field: value}
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["run-synth", "--config", str(cfg), "--out", str(tmp_path / "res")]) == EXIT_CONFIG
    assert not (tmp_path / "res" / "results.csv").exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("command, config, written", [
    ("complexity", {**COMPLEXITY, "B": "big"}, ""),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 0,
                 "n_test": 2, "n_list": [4]}, "errors.csv"),
    ("inpaint", {"height": 8, "width": 8, "mask_h": 4, "mask_w": 4, "n_train": 2,
                 "n_test": 2, "n_list": [4], "gamma": "1.0"}, "errors.csv"),
    ("converge", {**CONVERGE, "allow_aliasing": "no"}, ""),
], ids=["complexity-B", "inpaint-n_train", "inpaint-gamma-quoted", "converge-allow_aliasing"])
def test_bad_document_value_exit_code(tmp_path, capsys, command, config, written):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out" / written).exists()
    assert_one_config_error_line(capsys)


@pytest.mark.parametrize("corrupt", [
    lambda ds: (ds / "x0001_c0.csv").unlink(),
    lambda ds: (ds / "y0002.csv").write_text("z,re,im\nz,abc,0\n"),
], ids=["deleted-component", "bad-csv-row"])
def test_bad_data_file_exit_code(tiny_dataset, tmp_path, capsys, corrupt):
    corrupt(tiny_dataset / "ds")
    code = main(["fit", "--dataset", str(tiny_dataset / "ds"),
                 "--kernel", str(tiny_dataset / "kernel.json"),
                 "--lam", "0.1", "--out", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "m").exists()
    assert_one_config_error_line(capsys)


# results.csv and summary.csv of the run-synth configs of test_synthetic_pipeline
# and test_run_synth_byte_identical, as written when each sweep cell was still
# collected through its own future (numpy 2.4, OpenBLAS 0.3.31, x86-64)
PINNED_SWEEPS = {
    "pipeline": (
        {"n_samples": 8, "n_test": 6, "grid_m": 30, "seed": 3, "runs": 1,
         "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]},
                     {"family": "poly", "n": "inf", "q": 1, "alpha": [1.0, 1.0]}]},
        ["family,n,run,test_error",
         "poly,4,0,0.018700656215547149",
         "poly,inf,0,0.033598493966871375"],
        ["family,n,median,q1,q3",
         "poly,4,0.018700656215547149,0.018700656215547149,0.018700656215547149",
         "poly,inf,0.033598493966871375,0.033598493966871375,0.033598493966871375"],
    ),
    "two-runs": (
        {"n_samples": 6, "n_test": 4, "grid_m": 30, "seed": 11, "runs": 2,
         "kernels": [{"family": "poly", "n": 4, "q": 1, "alpha": [1.0, 1.0]}]},
        ["family,n,run,test_error",
         "poly,4,0,0.015026727993472395",
         "poly,4,1,0.016677384770286172"],
        ["family,n,median,q1,q3",
         "poly,4,0.015852056381879281,0.01543939218767584,0.016264720576082727"],
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
