"""File formats: CSV for functions and tables, JSON for manifests and specs,
one ``.npz`` per dataset or model.

SampledFunction CSV carries a ``z,re,im`` header with one row per grid
point at 17 significant digits, which round-trips doubles exactly.  A
dataset directory holds ``dataset.npz`` (the inputs as an (N, m, d) array,
the optional outputs as (N, m), both complex128) and its manifest
``dataset.json``; a model directory is the dataset of its training inputs
and coefficients plus ``model.json``.  Kernel specs, base kernels and
configs are JSON objects keyed by field name (``"inf"`` is n = INF), read
by one field codec: an unknown key is a ConfigError, a field without a
default is a required key, and ``family`` or ``kind`` names the class.
Each document and data file is decoded inside ``decoding``: a bad value is
a ConfigError that names the document, and a nested one (a kernel inside
``model.json``, say) the file that holds it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import re
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kernels import (
    INF,
    GaussianKernel,
    KernelSpec,
    L2GaussianTupleKernel,
    LinearKernel,
    PolyKernel,
    PolynomialKernel,
    ProdKernel,
    SepKernel,
    _integer,
    _real,
)
from .regression import RidgeModel
from .torus import FunctionTuple, SampledFunction, TorusGrid

__all__ = [
    "fmt",
    "load_json",
    "decoding",
    "n_to_json",
    "n_from_json",
    "n_label",
    "config_from_json",
    "config_to_json",
    "read_config",
    "write_function_csv",
    "read_function_csv",
    "function_from_json",
    "kernel_from_json",
    "write_kernel",
    "read_kernel",
    "write_dataset",
    "read_dataset",
    "write_model",
    "read_model",
    "write_rows_csv",
    "write_pgm",
    "read_pgm",
]


def fmt(x: float) -> str:
    """17 significant digits: lossless for IEEE doubles."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def decoding(what):
    """Decode the document or data file ``what`` in this block: a missing key, or a
    TypeError, ValueError, IndexError, OSError, EOFError or BadZipFile, is a
    ConfigError named by the innermost block."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing required key {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_json(path):
    """Parse a JSON file; an unreadable or malformed file is a ConfigError."""
    with decoding(path):
        return json.loads(Path(path).read_text())


def n_to_json(n) -> int | str:
    return "inf" if n == INF else int(n)


def n_from_json(raw) -> int | float:
    """A truncation order from JSON: an integer or ``"inf"``."""
    return INF if raw == "inf" else _integer('truncation order n (or "inf")', raw, 1)


def _items(key: str, decode, raw) -> tuple:
    """The JSON list ``key``, each item by ``decode``; empty is a ConfigError."""
    if not (items := tuple(map(decode, raw))):
        raise ConfigError(f"{key} must not be an empty list")
    return items


def n_label(n) -> str:
    """The truncation order as it appears in result tables."""
    return str(n_to_json(n))


# field name -> JSON key where the two differ
_JSON_KEYS = {"lam": "lambda"}
# class attributes that name a dataclass of a tagged union in its document
_TAGS = ("family", "kind")
# the tagged unions: kernel families and base scalar kernels
_KERNELS = (PolyKernel, ProdKernel, SepKernel)
_BASES = (GaussianKernel, LinearKernel, PolynomialKernel)
PGM_MAXVAL = 255        # the white level of a written graymap
# magic, width, height and maxval, separated by whitespace and by comments
# that run from # to the end of their line (matched whole, so a long comment
# costs no backtracking); one whitespace byte ends maxval
_PGM_SEP = rb"(?:\s|#[^\r\n]*(?=[\r\n]))+"
_PGM_HEADER = re.compile(rb"(P[25])" + (_PGM_SEP + rb"(\d+)") * 3 + rb"\s")


def _decoders(base_dir: Path | None, what: str) -> dict:
    """Field name -> decoder of its JSON value, for the fields that are not
    plain JSON.  A field name means the same in every document; function
    files are found under ``base_dir``, and nested documents are named as
    parts of ``what``."""
    functions = lambda docs: tuple(function_from_json(d, base_dir) for d in docs)
    tuples = lambda docs: FunctionTuple(functions(docs))
    bases = lambda docs: tuple(config_from_json(_BASES, b, f"base kernel in {what}")
                               for b in docs)
    kernel = lambda doc: kernel_from_json(doc, base_dir, f"kernel spec in {what}")
    return {"n": n_from_json, "n_list": lambda ns: _items("n_list", n_from_json, ns),
            "kernel": kernel, "kernels": lambda docs: _items("kernels", kernel, docs),
            "bases1": bases, "bases2": bases, "weights": functions,
            "base": lambda b: config_from_json((L2GaussianTupleKernel,), b,
                                               f"tuple kernel in {what}"),
            "x": tuples, "y": tuples, "samples": lambda docs: _items("samples", tuples, docs)}


def config_from_json(cls, doc, what: str = "config", base_dir: Path | None = None):
    """Dataclass ``cls`` from the JSON object ``doc`` keyed by field name,
    decoded inside ``decoding(what)``.  A key that names no field is a
    ConfigError, a field without a default is a required key, a ``bool``
    field takes only true or false and a ``float`` field, optional or not,
    only a number.  A tuple of dataclasses for ``cls`` is a tagged union: the
    ``family`` or ``kind`` key holds that class attribute.  A value ``cls``
    rejects is a ConfigError led by ``what``."""
    with decoding(what):
        if not isinstance(doc, dict):
            raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
        if isinstance(cls, tuple):
            tag = next(t for t in _TAGS if hasattr(cls[0], t))
            classes = {getattr(c, tag): c for c in cls}
            doc = dict(doc)
            name = doc.pop(tag)
            if name not in classes:
                raise ConfigError(f"{what} {tag} must be one of {sorted(classes)}, got {name!r}")
            cls = classes[name]
        fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown} in {what}; "
                              f"known keys are {sorted(fields)}")
        for key, f in fields.items():
            if key not in doc and f.default is f.default_factory is dataclasses.MISSING:
                raise KeyError(key)
            if f.type in ("bool", bool) and not isinstance(doc.get(key, False), bool):
                raise ConfigError(f"{what} key {key!r} must be true or false, got {doc[key]!r}")
            if f.type in ("float", "float | None") and key in doc:
                _real(f"{what} key {key!r}", doc[key])
        decode = _decoders(base_dir, what)
        kwargs = {fields[key].name: raw for key, raw in doc.items()}
        try:
            return cls(**{name: decode[name](raw) if name in decode else raw
                          for name, raw in kwargs.items()})
        except ConfigError as exc:
            if what in str(exc):        # a nested document, named as part of ``what``
                raise
            raise type(exc)(f"{what}: {exc}") from None


def config_to_json(config) -> dict:
    """JSON object of a dataclass keyed by field name, led by its ``family``
    or ``kind`` if it has one."""
    doc = {tag: getattr(config, tag) for tag in _TAGS if hasattr(config, tag)}
    for f in dataclasses.fields(config):
        value, encode = getattr(config, f.name), _ENCODERS.get(f.name)
        doc[_JSON_KEYS.get(f.name, f.name)] = encode(value) if encode else value
    return doc


# field name -> encoder of its value, the inverse of ``_decoders``
_ENCODERS = {"n": n_to_json, "alpha": list, "base": config_to_json, "kernel": config_to_json,
             "bases1": lambda bases: list(map(config_to_json, bases)),
             "bases2": lambda bases: list(map(config_to_json, bases)),
             "kernels": lambda specs: list(map(config_to_json, specs)),
             # [re, im] rows of JSON numbers, whose repr round-trips exactly
             "weights": lambda ws: [{"m": a.grid.m, "values": a.values.view(float).reshape(-1, 2)
                                     .tolist()} for a in ws]}


# ---------------------------------------------------------------------------
# sampled functions and tuples
# ---------------------------------------------------------------------------


def write_function_csv(f: SampledFunction, path) -> None:
    write_rows_csv(path, ["z", "re", "im"],
                   zip(f.grid.points.tolist(), f.values.real.tolist(), f.values.imag.tolist()))


def read_function_csv(path) -> SampledFunction:
    path = Path(path)
    with decoding(path), path.open(newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["z", "re", "im"]:
            raise ConfigError(f"{path}: expected header z,re,im")
        rows = [row for row in r if row]
        m = len(rows)
        grid = TorusGrid(m)
        values = np.empty(m, dtype=complex)
        for p, (z, re, im) in enumerate(rows):
            if abs(float(z) - grid.points[p]) > 1e-9:
                raise ConfigError(f"{path}: row {p} is not on the uniform m={m} grid")
            values[p] = complex(float(re), float(im))
    return SampledFunction(grid, values)


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------


def function_from_json(doc: dict, base_dir: Path | None = None) -> SampledFunction:
    """Sampled function from a JSON fragment: a ``file`` reference, inline
    ``values`` rows, or inline ``trig`` Fourier-coefficient triplets with an
    integer frequency; every number is a JSON number."""
    with decoding("function"):
        if "file" in doc:
            if base_dir is None:
                raise ConfigError("weight file reference needs a base directory")
            return read_function_csv(base_dir / doc["file"])
        if "values" not in doc and "trig" not in doc:
            raise ConfigError("a function needs one of: file, values, trig")
        grid = TorusGrid(_integer("function m", doc["m"], 2))
        if "values" in doc:
            vals = [_complex(re, im) for re, im in doc["values"]]
            return SampledFunction(grid, np.array(vals))
        # inline Fourier coefficient triplets [k, re, im]
        vals = np.zeros(grid.m, dtype=complex)
        for k, re, im in doc["trig"]:
            k = _integer("trig frequency k", k, None)
            vals += _complex(re, im) * np.exp(1j * k * grid.points)
        return SampledFunction(grid, vals)


def _complex(re, im) -> complex:
    return complex(_real("function value", re), _real("function value", im))


def kernel_from_json(doc: dict, base_dir: Path | None = None,
                     what: str = "kernel spec") -> KernelSpec:
    """Kernel spec from its JSON document, named ``what`` in errors.  A prod
    document without ``beta`` takes its policy's beta_n (see ``ProdKernel``)."""
    return config_from_json(_KERNELS, doc, what, base_dir)


def write_kernel(spec: KernelSpec, path) -> None:
    Path(path).write_text(json.dumps(config_to_json(spec), indent=2) + "\n")


def read_kernel(path) -> KernelSpec:
    return kernel_from_json(load_json(path), Path(path).parent, f"kernel spec {path}")


def read_config(cls, path):
    """Dataclass ``cls`` from a JSON file; the files it names lie next to it."""
    return config_from_json(cls, load_json(path), str(path), Path(path).parent)


# ---------------------------------------------------------------------------
# datasets and models
# ---------------------------------------------------------------------------


def write_dataset(directory, inputs, outputs=None) -> dict:
    """Write the sample tuples as one (N, m, d) array, and the optional
    outputs as one (N, m) array, to ``dataset.npz`` plus the manifest
    ``dataset.json``; returns the manifest."""
    return _write(directory, inputs, None if outputs is None else [f.values for f in outputs])


def _write(directory, inputs, outputs) -> dict:
    """``write_dataset`` with the outputs given as their (N, m) values."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {"inputs": np.array([t.value_matrix() for t in inputs])}
    if outputs is not None:
        arrays["outputs"] = np.ascontiguousarray(outputs, dtype=complex)
    np.savez(directory / "dataset.npz", **arrays)
    n, m, d = arrays["inputs"].shape
    manifest = {"m": m, "d": d, "n_samples": n, "arrays": "dataset.npz"}
    (directory / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def read_dataset(directory):
    """Returns (inputs, outputs); outputs is None when the dataset has none.
    A dataset without samples is a ConfigError."""
    xs, outputs = _read(directory)
    return xs, None if outputs is None else [SampledFunction(xs[0].grid, y) for y in outputs]


def _read(directory) -> tuple[list[FunctionTuple], np.ndarray | None]:
    """``read_dataset`` with the outputs returned as their (N, m) values."""
    path = Path(directory) / "dataset.json"
    with decoding(path):
        manifest = load_json(path)
        n, m, d = manifest["n_samples"], manifest["m"], manifest["d"]
        arrays = path.parent / manifest["arrays"]
    with decoding(arrays), np.load(arrays, allow_pickle=False) as npz:
        if "inputs" not in npz.files:
            raise ConfigError(f"{arrays}: no inputs array")
        packed = {name: npz[name] for name in ("inputs", "outputs") if name in npz.files}
    for name, shape in (("inputs", (n, m, d)), ("outputs", (n, m))):
        a = packed.get(name)
        if a is not None and (a.shape, a.dtype) != (shape, np.complex128):
            raise ConfigError(f"{arrays}: {name} array is {a.dtype} {a.shape}, "
                              f"the manifest {path} says complex128 {shape}")
    if not len(packed["inputs"]):
        raise ConfigError(f"{path}: dataset has no samples")
    # component-major, so each component's values are one contiguous row
    inputs = np.ascontiguousarray(packed["inputs"].transpose(0, 2, 1))
    with decoding(path):        # the arrays agree with an m or d that makes no grid or tuple
        grid = TorusGrid(inputs.shape[2])
        xs = [FunctionTuple(tuple(SampledFunction(grid, c) for c in x)) for x in inputs]
    return xs, packed.get("outputs")


def write_model(model: RidgeModel, directory) -> Path:
    """Write the training inputs with their (N, m) coefficients as a dataset,
    plus ``model.json``, the ``_ModelManifest`` document."""
    directory = Path(directory)
    _write(directory, model.inputs, model.coefficients)
    manifest = config_to_json(_ModelManifest(model.kernel, model.lam, len(model.inputs),
                                             model.grid.m, model.allow_aliasing))
    path = directory / "model.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


@dataclasses.dataclass(frozen=True)
class _ModelManifest:
    """The ``model.json`` document."""

    kernel: KernelSpec
    lam: float
    N: int
    m: int
    allow_aliasing: bool = False

    def __post_init__(self):
        for key, low in (("N", 1), ("m", 2)):
            value = _integer(f"key {key!r}", getattr(self, key), low)
            object.__setattr__(self, key, value)
        if self.lam < 0:
            raise ConfigError(f"key 'lambda' must be >= 0, got {self.lam}")


def read_model(directory) -> RidgeModel:
    """Model from ``model.json`` and the dataset beside it."""
    directory = Path(directory)
    path = directory / "model.json"
    with decoding(path):
        doc = config_from_json(_ModelManifest, load_json(path), str(path), directory)
        inputs, coefficients = _read(directory)
        # the arrays match their manifest, so (N, m) outputs fix the inputs' N and m
        if coefficients is None or coefficients.shape != (doc.N, doc.m):
            raise ConfigError(f"{path} does not match the files it describes")
        return RidgeModel(kernel=doc.kernel, lam=doc.lam, inputs=tuple(inputs),
                          coefficients=coefficients, allow_aliasing=doc.allow_aliasing)


# ---------------------------------------------------------------------------
# result tables and images
# ---------------------------------------------------------------------------


def write_rows_csv(path, header: list[str], rows) -> None:
    """Write a table with deterministic 17-significant-digit floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def write_pgm(image: np.ndarray, path) -> None:
    """ASCII portable graymap of an array scaled from [0, 1] to PGM_MAXVAL levels."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    img = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    levels = np.rint(img * PGM_MAXVAL).astype(int)
    lines = ["P2", f"{img.shape[1]} {img.shape[0]}", str(PGM_MAXVAL)]
    lines += [" ".join(str(v) for v in row) for row in levels]
    path.write_text("\n".join(lines) + "\n")


def read_pgm(path) -> np.ndarray:
    """Read an ASCII (P2) or binary (P5) graymap into floats in [0, 1].  The
    header is ``_PGM_HEADER``; a P5 raster starts right after the single
    whitespace byte that ends maxval, and its sample is one byte, or two
    big-endian bytes when maxval > 255.  A maxval outside 1..65535 or a
    sample above it is a ConfigError."""
    with decoding(path):
        data = Path(path).read_bytes()
        if not (header := _PGM_HEADER.match(data)):
            raise ConfigError(f"{path}: not a P2/P5 graymap header")
        w, h, maxval = (int(v) for v in header.groups()[1:])
        raster = data[header.end():]
        if header[1] == b"P2":
            tokens = [t for line in raster.splitlines() for t in line.split(b"#", 1)[0].split()]
            vals = np.array([int(t) for t in tokens[: w * h]], dtype=float)
        else:
            sample = np.dtype(np.uint8 if maxval < 256 else ">u2")
            vals = np.frombuffer(raster[: w * h * sample.itemsize], dtype=sample)
        if not 1 <= maxval <= 65535:
            raise ConfigError(f"{path}: maxval must be in 1..65535, got {maxval}")
        if vals.size and not 0 <= vals.min() <= vals.max() <= maxval:
            raise ConfigError(f"{path}: a sample lies outside 0..{maxval}")
        return (vals / maxval).reshape(h, w)
