import json

import numpy as np
import pytest

from helpers import random_trig_tuple
from spectrunc import (
    INF,
    ConfigError,
    GaussianKernel,
    L2GaussianTupleKernel,
    LinearKernel,
    PolyKernel,
    PolynomialKernel,
    ProdKernel,
    SampledFunction,
    SepKernel,
    TorusGrid,
    beta_from_policy,
    fit,
    predict,
    truncate,
)
from spectrunc import serialize
from spectrunc.serialize import (
    config_to_json,
    function_from_json,
    kernel_from_json,
    n_from_json,
    n_label,
    n_to_json,
    read_dataset,
    read_function_csv,
    read_model,
    read_pgm,
    read_tuple,
    write_dataset,
    write_function_csv,
    write_model,
    write_pgm,
    write_rows_csv,
    write_toeplitz_csv,
    write_tuple,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestFunctionCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        g = TorusGrid(24)
        f = SampledFunction(g, rng.normal(size=24) + 1j * rng.normal(size=24))
        path = tmp_path / "f.csv"
        write_function_csv(f, path)
        back = read_function_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,2\n")
        with pytest.raises(ConfigError):
            read_function_csv(path)

    def test_off_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,re,im\n0.5,1,0\n1.0,1,0\n")
        with pytest.raises(ConfigError):
            read_function_csv(path)


class TestTupleManifest:
    def test_round_trip(self, tmp_path, rng):
        t = random_trig_tuple(TorusGrid(16), rng, d=3)
        manifest = write_tuple(t, tmp_path, "sample")
        back = read_tuple(manifest)
        assert back.d == 3
        for a, b in zip(back.components, t.components):
            assert np.array_equal(a.values, b.values)


class TestToeplitzCsv:
    def test_rows(self, tmp_path):
        g = TorusGrid(16)
        f = SampledFunction.from_callable(g, lambda z: np.exp(1j * z))
        rep = truncate(f, 2)
        path = tmp_path / "t.csv"
        write_toeplitz_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 4
        assert lines[2].startswith("0,")


class TestKernelJson:
    def kernels(self):
        g = TorusGrid(12)
        a = SampledFunction.from_callable(g, lambda z: np.exp(np.sin(z)).astype(complex))
        return [
            PolyKernel(n=8, q=2, alpha=(0.5, 1.5)),
            PolyKernel(n=INF, q=1, alpha=(1.0,)),
            ProdKernel(n=4, q=2,
                       bases1=(GaussianKernel(gamma=0.5), LinearKernel()),
                       bases2=(PolynomialKernel(degree=2, offset=0.5), GaussianKernel(gamma=2.0)),
                       beta=0.7, beta_policy="manual"),
            SepKernel(n=6, q=1, weights=(a,), base=L2GaussianTupleKernel(scale=0.3)),
        ]

    def test_round_trips(self):
        for spec in self.kernels():
            back = kernel_from_json(config_to_json(spec))
            assert back.family == spec.family
            assert back.n == spec.n
            assert back.q == spec.q
            if isinstance(spec, SepKernel):
                for wa, wb in zip(back.weights, spec.weights):
                    assert np.max(np.abs(wa.values - wb.values)) < 1e-15
            else:
                assert back == spec

    def test_documents_pinned(self):
        # the kernel JSON format, key for key, of every family and base kernel
        poly, inf, prod, sep = (config_to_json(k) for k in self.kernels())
        assert poly == {"family": "poly", "n": 8, "q": 2, "alpha": [0.5, 1.5]}
        assert inf == {"family": "poly", "n": "inf", "q": 1, "alpha": [1.0]}
        assert prod == {
            "family": "prod", "n": 4, "q": 2,
            "bases1": [{"kind": "gaussian", "gamma": 0.5}, {"kind": "linear"}],
            "bases2": [{"kind": "polynomial", "degree": 2, "offset": 0.5},
                       {"kind": "gaussian", "gamma": 2.0}],
            "beta": 0.7, "beta_policy": "manual"}
        assert sep["base"] == {"kind": "l2_gaussian", "scale": 0.3}
        assert sorted(sep) == ["base", "family", "n", "q", "weights"]
        assert sep["weights"][0]["m"] == 12 and len(sep["weights"][0]["values"]) == 12

    def test_integral_floats_load_as_integers(self):
        doc = config_to_json(self.kernels()[2])
        doc.update(n=4.0, q=2.0)
        doc["bases2"][0]["degree"] = 2.0
        spec = kernel_from_json(doc)
        assert spec == self.kernels()[2]
        assert type(spec.n) is type(spec.q) is type(spec.bases2[0].degree) is int

    @pytest.mark.parametrize("change, match", [
        ({"q": 2.7}, "degree q"),
        ({"betta": 5.0}, "'betta'"),
        ({"beta": "0.7"}, "kernel spec"),
        ({"family": ["prod"]}, "kernel spec"),
        ({"bases1": [{"kind": "gaussian", "gamma": "1.0"}] * 2}, "base kernel"),
        ({"bases1": [{"kind": "gaussian", "gamma": 1.0, "scale": 2.0}] * 2}, "'scale'"),
        ({"bases1": [{"kind": "cosine"}] * 2}, "kind must be one of"),
        ({"bases1": [{"gamma": 1.0}] * 2}, "'kind'"),
        ({"bases2": [{"kind": "polynomial", "degree": 2.5}] * 2}, "polynomial degree"),
    ])
    def test_bad_value_is_config_error(self, change, match):
        doc = {**config_to_json(self.kernels()[2]), **change}
        with pytest.raises(ConfigError, match=match):
            kernel_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"m": 12.5, "values": [[1.0, 0.0]] * 12},
        {"m": 4, "values": [[1.0, "x"]] * 4},
        {"m": 4, "trig": [[1, 1.0]]},
        {"values": [[1.0, 0.0]] * 4},
    ])
    def test_bad_function_is_config_error(self, doc):
        with pytest.raises(ConfigError):
            function_from_json(doc)

    def test_inf_written_as_string(self):
        doc = config_to_json(PolyKernel(n=INF, q=1, alpha=(1.0,)))
        assert doc["n"] == "inf"

    def test_unknown_beta_policy(self):
        doc = config_to_json(ProdKernel(n=4, q=1, bases1=(GaussianKernel(gamma=1.0),),
                                        bases2=(LinearKernel(),), beta=0.1))
        doc["beta_policy"] = "surprise"
        with pytest.raises(ConfigError):
            kernel_from_json(doc)

    def prod_doc(self, n=4, **extra):
        spec = ProdKernel(n=n, q=1, bases1=(GaussianKernel(gamma=1.0),),
                          bases2=(GaussianKernel(gamma=1.0),))
        doc = config_to_json(spec)
        del doc["beta"]
        doc.update(extra)
        return doc

    def test_beta_policy_resolved_at_load(self):
        assert kernel_from_json(self.prod_doc(beta_policy="bound")).beta == 16.0
        est = kernel_from_json(self.prod_doc(beta_policy="estimate")).beta
        assert est == beta_from_policy("estimate", 4, 1)
        assert est > 0

    def test_explicit_beta_wins(self):
        for policy in ("manual", "bound", "estimate"):
            assert kernel_from_json(self.prod_doc(beta_policy=policy, beta=0.3)).beta == 0.3

    def test_beta_policy_left_alone(self):
        assert kernel_from_json(self.prod_doc(beta_policy="manual")).beta == 0.0
        assert kernel_from_json(self.prod_doc()).beta == 0.0
        assert kernel_from_json(self.prod_doc(n=INF, beta_policy="bound")).beta == 0.0

    def test_resolved_beta_written(self, monkeypatch):
        spec = kernel_from_json(self.prod_doc(beta_policy="estimate"))
        doc = config_to_json(spec)
        assert doc["beta"] == spec.beta
        assert doc["beta_policy"] == "estimate"
        # a round trip reads the written beta back instead of estimating again
        monkeypatch.setattr(serialize, "beta_from_policy", None)
        assert kernel_from_json(doc) == spec

    @pytest.mark.parametrize("family, key", [
        ("poly", "n"), ("poly", "q"), ("poly", "alpha"),
        ("prod", "bases1"), ("prod", "bases2"), ("sep", "weights"), ("sep", "base"),
    ])
    def test_missing_key_is_config_error(self, family, key):
        doc = next(config_to_json(k) for k in self.kernels() if k.family == family)
        del doc[key]
        with pytest.raises(ConfigError, match=repr(key)):
            kernel_from_json(doc)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            kernel_from_json({"family": "mystery", "n": 2, "q": 1})

    def test_function_from_trig_json(self):
        f = function_from_json({"m": 16, "trig": [[1, 0.0, -0.5], [-1, 0.0, 0.5]]})
        g = TorusGrid(16)
        assert np.allclose(f.values, np.sin(g.points), atol=1e-15)


class TestDatasetAndModel:
    def test_dataset_round_trip(self, tmp_path, rng):
        g = TorusGrid(12)
        xs = [random_trig_tuple(g, rng, d=2) for _ in range(3)]
        ys = [SampledFunction(g, rng.normal(size=12) + 0j) for _ in range(3)]
        write_dataset(tmp_path / "ds", xs, ys)
        bx, by = read_dataset(tmp_path / "ds")
        assert len(bx) == 3 and by is not None
        assert np.array_equal(bx[1].components[0].values, xs[1].components[0].values)
        assert np.array_equal(by[2].values, ys[2].values)

    def test_inputs_only_dataset(self, tmp_path, rng):
        g = TorusGrid(12)
        xs = [random_trig_tuple(g, rng, d=1) for _ in range(2)]
        write_dataset(tmp_path / "ds", xs)
        bx, by = read_dataset(tmp_path / "ds")
        assert by is None and len(bx) == 2

    def test_model_round_trip_predicts_identically(self, tmp_path, rng):
        g = TorusGrid(16)
        xs = [random_trig_tuple(g, rng, d=1, real=True) for _ in range(4)]
        ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(4)]
        one = SampledFunction.constant(g, 1.0)
        spec = SepKernel(n=5, q=1, weights=(one,), base=L2GaussianTupleKernel(scale=0.7))
        model = fit(spec, xs, ys, lam=0.05)
        write_model(model, tmp_path / "model")
        back = read_model(tmp_path / "model")
        probe = random_trig_tuple(g, rng, d=1, real=True)
        assert np.array_equal(predict(back, probe).values, predict(model, probe).values)


    def test_model_directory_is_a_dataset(self, tmp_path, rng):
        # training inputs with their coefficient functions as outputs
        g = TorusGrid(16)
        xs = [random_trig_tuple(g, rng, d=2) for _ in range(3)]
        ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(3)]
        model = fit(PolyKernel(n=4, q=1, alpha=(1.0, 0.5)), xs, ys, lam=0.1)
        write_model(model, tmp_path / "model")
        inputs, coeffs = read_dataset(tmp_path / "model")
        assert [c.values.tobytes() for c in coeffs] == [c.tobytes() for c in model.coefficients]
        assert np.array_equal(inputs[2].value_matrix(), xs[2].value_matrix())

    def test_model_without_training_inputs_is_config_error(self, tmp_path, rng):
        g = TorusGrid(16)
        xs = [random_trig_tuple(g, rng, d=1) for _ in range(2)]
        ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(2)]
        path = write_model(fit(PolyKernel(n=4, q=1, alpha=(1.0,)), xs, ys, lam=0.1), tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "N": 0, "training_inputs": []}))
        with pytest.raises(ConfigError, match="model.json"):
            read_model(tmp_path)

    def test_previous_model_layout_loads(self, tmp_path, rng):
        # coefNNNN.csv and trainNNNN.json, as models were written before they
        # went through write_dataset
        g = TorusGrid(16)
        xs = [random_trig_tuple(g, rng, d=2) for _ in range(3)]
        ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(3)]
        model = fit(PolyKernel(n=4, q=1, alpha=(1.0, 0.5)), xs, ys, lam=0.1)
        old = tmp_path / "old"
        old.mkdir()
        for j, c in enumerate(model.coefficient_functions()):
            write_function_csv(c, old / f"coef{j:04d}.csv")
            write_tuple(model.inputs[j], old, f"train{j:04d}")
        (old / "model.json").write_text(json.dumps({
            "kernel": config_to_json(model.kernel), "lambda": model.lam, "N": 3, "m": 16,
            "allow_aliasing": False,
            "coefficients": [f"coef{j:04d}.csv" for j in range(3)],
            "training_inputs": [f"train{j:04d}.json" for j in range(3)]}))
        write_model(model, tmp_path / "new")
        probe = random_trig_tuple(g, rng, d=2)
        back_old, back_new = read_model(old), read_model(tmp_path / "new")
        assert np.array_equal(back_old.coefficients, model.coefficients)
        assert np.array_equal(predict(back_old, probe).values, predict(back_new, probe).values)
        assert np.array_equal(predict(back_old, probe).values, predict(model, probe).values)


class TestNCodec:
    def test_round_trip_and_label(self):
        for n, doc, label in ((4, 4, "4"), (INF, "inf", "inf")):
            assert n_to_json(n) == doc
            assert n_from_json(doc) == n
            assert n_label(n) == label
        assert n_from_json(8.0) == 8 and isinstance(n_from_json(8.0), int)

    @pytest.mark.parametrize("raw", [4.5, "four", "4", None, [4]])
    def test_rejects_non_integers(self, raw):
        with pytest.raises(ConfigError):
            n_from_json(raw)
        with pytest.raises(ConfigError):
            kernel_from_json({"family": "poly", "n": raw, "q": 1, "alpha": [1.0]})


class TestRowsCsvAndPgm:
    def test_rows_deterministic(self, tmp_path):
        rows = [("poly", "8", 0, 0.123456789012345678)]
        write_rows_csv(tmp_path / "a.csv", ["family", "n", "run", "err"], rows)
        write_rows_csv(tmp_path / "b.csv", ["family", "n", "run", "err"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.uniform(size=(6, 9))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back.shape == (6, 9)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    @pytest.mark.parametrize("raw", [b"P2\n3 2\n255\n0 1 x 3 4 5\n", b"P5\n3 x\n255\n", b"P9\n",
                                     b"P2\n3\n"])
    def test_malformed_pgm_is_config_error(self, tmp_path, raw):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="bad.pgm"):
            read_pgm(path)
        with pytest.raises(ConfigError):
            read_pgm(tmp_path / "missing.pgm")

    def test_p5_read(self, tmp_path):
        raw = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30])
        path = tmp_path / "img5.pgm"
        path.write_bytes(raw)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 2] == pytest.approx(1.0)
