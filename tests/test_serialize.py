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
)
from spectrunc import kernels
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
    write_dataset,
    write_function_csv,
    write_model,
    write_pgm,
    write_rows_csv,
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

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,re,im\n0,1,0\nz,abc,0\n")
        with pytest.raises(ConfigError, match="bad.csv"):
            read_function_csv(path)


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
                    assert wa.values.tobytes() == wb.values.tobytes()
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
        # JSON numbers, which function_from_json reads back exactly
        assert all(type(x) is float for row in sep["weights"][0]["values"] for x in row)

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
        ({"beta": float("nan")}, "'beta' must be a finite"),
        ({"beta": float("inf")}, "'beta' must be a finite"),
        ({"bases1": [{"kind": "gaussian", "gamma": float("inf")}] * 2}, "'gamma' must be a finite"),
        ({"bases2": [{"kind": "polynomial", "degree": 2, "offset": float("nan")}] * 2},
         "'offset' must be a finite"),
        ({"beta": None}, "'beta' must be a finite"),
        ({"beta": True}, "'beta' must be a finite"),
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
        {"m": 8, "trig": [[1.5, 1.0, 0.0]]},
        {"m": 8, "trig": [["1", 1.0, 0.0]]},
        {"m": 8, "trig": [[True, 1.0, 0.0]]},
        {"m": 8, "trig": [[1, "1.0", 0.0]]},
        {"m": 4, "values": [["1.0", "0"]] * 4},
        {"m": 4, "values": [[1.0, None]] * 4},
    ])
    def test_bad_function_is_config_error(self, doc):
        with pytest.raises(ConfigError):
            function_from_json(doc)

    def test_trig_frequencies_are_integers_of_either_sign(self):
        g = TorusGrid(8)
        f = function_from_json({"m": 8, "trig": [[-2, 1.0, 0.0], [3.0, 0.0, 1.0]]})
        assert np.allclose(f.values, np.exp(-2j * g.points) + 1j * np.exp(3j * g.points),
                           atol=1e-15)

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
        monkeypatch.setattr(kernels, "beta_from_policy", None)
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


def fitted_model(rng, n_samples=3, d=2):
    g = TorusGrid(16)
    xs = [random_trig_tuple(g, rng, d=d) for _ in range(n_samples)]
    ys = [SampledFunction(g, rng.normal(size=16) + 0j) for _ in range(n_samples)]
    return fit(PolyKernel(n=4, q=1, alpha=(1.0, 0.5)[:d]), xs, ys, lam=0.1)


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

    def test_round_trip_bit_identical(self, tmp_path, rng):
        g = TorusGrid(12)
        xs = [random_trig_tuple(g, rng, d=3) for _ in range(5)]
        ys = [SampledFunction(g, rng.normal(size=12) + 1j * rng.normal(size=12))
              for _ in range(5)]
        write_dataset(tmp_path / "ds", xs, ys)
        bx, by = read_dataset(tmp_path / "ds")
        assert [x.d for x in bx] == [3] * 5 and all(x.grid == g for x in bx)
        assert ([c.values.tobytes() for x in bx for c in x.components]
                == [c.values.tobytes() for x in xs for c in x.components])
        assert [y.values.tobytes() for y in by] == [y.values.tobytes() for y in ys]

    def test_packed_layout_files(self, tmp_path, rng):
        model = fitted_model(rng)
        manifest = write_dataset(tmp_path / "ds", model.inputs)
        assert manifest == {"m": 16, "d": 2, "n_samples": 3, "arrays": "dataset.npz"}
        assert json.loads((tmp_path / "ds" / "dataset.json").read_text()) == manifest
        assert sorted(f.name for f in (tmp_path / "ds").iterdir()) == ["dataset.json",
                                                                      "dataset.npz"]
        with np.load(tmp_path / "ds" / "dataset.npz") as npz:
            assert npz.files == ["inputs"]
            assert npz["inputs"].shape == (3, 16, 2) and npz["inputs"].dtype == np.complex128
        write_model(model, tmp_path / "model")
        assert sorted(f.name for f in (tmp_path / "model").iterdir()) == [
            "dataset.json", "dataset.npz", "model.json"]
        doc = json.loads((tmp_path / "model" / "model.json").read_text())
        assert sorted(doc) == ["N", "allow_aliasing", "kernel", "lambda", "m"]
        with np.load(tmp_path / "model" / "dataset.npz") as npz:
            assert npz["outputs"].tobytes() == model.coefficients.tobytes()

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
        model = fitted_model(rng)
        write_model(model, tmp_path / "model")
        inputs, coeffs = read_dataset(tmp_path / "model")
        assert [c.values.tobytes() for c in coeffs] == [c.tobytes() for c in model.coefficients]
        assert np.array_equal(inputs[2].value_matrix(), model.inputs[2].value_matrix())

    def test_model_without_training_inputs_is_config_error(self, tmp_path, rng):
        path = write_model(fitted_model(rng, n_samples=2, d=1), tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "N": 0, "training_inputs": []}))
        with pytest.raises(ConfigError, match="model.json"):
            read_model(tmp_path)

    @pytest.mark.parametrize("change", [
        {"allow_aliasing": "no"}, {"allow_aliasing": 0}, {"lambda": "0.1"}, {"lambda": -0.1},
        {"lambda": None}, {"N": "3"}, {"N": 2.5}, {"m": "16"}, {"m": True}, {"N": 2}, {"m": 8},
        {"coefficients": []}, {"lamda": 0.1}, {"lambda": float("nan")}, {"lambda": float("inf")},
    ])
    def test_bad_model_manifest_is_config_error(self, tmp_path, rng, change):
        path = write_model(fitted_model(rng), tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        with pytest.raises(ConfigError, match="model.json"):
            read_model(tmp_path)

    def test_manifest_integers_may_be_integral_floats(self, tmp_path, rng):
        model = fitted_model(rng)
        path = write_model(model, tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "N": 3.0, "lambda": 0}))
        back = read_model(tmp_path)
        assert back.lam == 0.0 and np.array_equal(back.coefficients, model.coefficients)


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

    @pytest.mark.parametrize("raw, message", [
        (b"P2\n2 1\n0\n0 0\n", "maxval must be in 1..65535, got 0"),
        (b"P5\n1 1\n70000\n\x00\x01", "maxval must be in 1..65535, got 70000"),
        (b"P2\n2 1\n7\n3 8\n", "a sample lies outside 0..7"),
        (b"P2\n2 1\n7\n-1 3\n", "a sample lies outside 0..7"),
    ], ids=["maxval-0", "maxval-70000", "sample-above-maxval", "negative-sample"])
    def test_pgm_outside_the_format_is_config_error(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=message):
            read_pgm(path)

    def test_p5_16_bit_read(self, tmp_path):
        # maxval > 255: two big-endian bytes per sample
        levels = np.array([[0, 1, 255], [256, 4000, 65535]], dtype=">u2")
        path = tmp_path / "img16.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + levels.tobytes())
        assert np.array_equal(read_pgm(path), levels / 65535)

    @pytest.mark.parametrize("header", [
        b"P5 3 2 255 ", b"P5\n3 2\n255 ", b"P5\n# a comment\n3 # width\n2\n255\n",
        b"P5\t3\r\n2 255\r",
    ], ids=["one-line", "space-after-maxval", "comments", "tab-crlf"])
    def test_p5_header_grammar(self, tmp_path, header):
        # whitespace-separated tokens, # comments to the end of their line, and
        # the raster right after the whitespace byte that ends maxval: raster
        # bytes 10 (newline) and 35 (#) are samples
        raster = bytes([10, 35, 0, 255, 10, 35])
        path = tmp_path / "img5.pgm"
        path.write_bytes(header + raster)
        assert np.array_equal(read_pgm(path), np.frombuffer(raster, np.uint8).reshape(2, 3) / 255)

    def test_p2_header_comment(self, tmp_path):
        path = tmp_path / "img2.pgm"
        path.write_bytes(b"P2 # a comment\n3 2 # size\n255\n10 35 0\n255 # end\n10 35\n")
        assert np.array_equal(read_pgm(path), np.array([[10, 35, 0], [255, 10, 35]]) / 255)

    def test_p5_read(self, tmp_path):
        raw = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30])
        path = tmp_path / "img5.pgm"
        path.write_bytes(raw)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 2] == pytest.approx(1.0)
