"""File formats: CSV for functions and tables, JSON for manifests and specs.

SampledFunction CSV carries a ``z,re,im`` header with one row per grid
point at 17 significant digits, which round-trips doubles exactly.  A
FunctionTuple is one CSV per component plus a JSON manifest listing the
component file names, d, and m.  Kernel specs, base kernels and configs are
JSON objects keyed by field name (``"inf"`` is n = INF), read by one field
codec: an unknown key is a ConfigError, a field without a default is a
required key, and ``family`` or ``kind`` names the class.  Each document and
data file is decoded inside ``decoding``: a bad value is a ConfigError.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fejer import beta_from_policy
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
    "write_tuple",
    "read_tuple",
    "write_toeplitz_csv",
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
    TypeError, ValueError, IndexError or OSError, is a ConfigError named by the
    innermost block."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing required key {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OSError) as exc:
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


def _decoders(base_dir: Path | None) -> dict:
    """Field name -> decoder of its JSON value, for the fields that are not
    plain JSON.  A field name means the same in every document; function
    files are found under ``base_dir``."""
    functions = lambda docs: tuple(function_from_json(d, base_dir) for d in docs)
    tuples = lambda docs: FunctionTuple(functions(docs))
    bases = lambda docs: tuple(config_from_json(_BASES, b, "base kernel") for b in docs)
    return {"n": n_from_json, "n_list": lambda ns: tuple(map(n_from_json, ns)),
            "kernels": lambda docs: tuple(kernel_from_json(k, base_dir) for k in docs),
            "bases1": bases, "bases2": bases, "weights": functions,
            "base": lambda b: config_from_json((L2GaussianTupleKernel,), b, "tuple kernel"),
            "x": tuples, "y": tuples, "samples": lambda docs: tuple(map(tuples, docs))}


def config_from_json(cls, doc, what: str = "config", base_dir: Path | None = None):
    """Dataclass ``cls`` from the JSON object ``doc`` keyed by field name,
    decoded inside ``decoding(what)``.  A key that names no field is a
    ConfigError, a field without a default is a required key, a ``bool``
    field takes only true or false and a ``float`` field only a number.  A
    tuple of dataclasses for ``cls`` is a tagged union: the ``family`` or
    ``kind`` key holds that class attribute."""
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
            if f.type in ("float", float):
                _real(f"{what} key {key!r}", doc.get(key, 0.0))
        decode = _decoders(base_dir)
        kwargs = {fields[key].name: raw for key, raw in doc.items()}
        return cls(**{name: decode[name](raw) if name in decode else raw
                      for name, raw in kwargs.items()})


def config_to_json(config) -> dict:
    """JSON object of a dataclass keyed by field name, led by its ``family``
    or ``kind`` if it has one."""
    doc = {tag: getattr(config, tag) for tag in _TAGS if hasattr(config, tag)}
    for f in dataclasses.fields(config):
        value, encode = getattr(config, f.name), _ENCODERS.get(f.name)
        doc[_JSON_KEYS.get(f.name, f.name)] = encode(value) if encode else value
    return doc


# field name -> encoder of its value, the inverse of ``_decoders``
_ENCODERS = {"n": n_to_json, "alpha": list, "base": config_to_json,
             "bases1": lambda bases: list(map(config_to_json, bases)),
             "bases2": lambda bases: list(map(config_to_json, bases)),
             "kernels": lambda specs: list(map(config_to_json, specs)),
             "weights": lambda ws: [{"m": a.grid.m, "values": [[fmt(v.real), fmt(v.imag)]
                                                               for v in a.values]} for a in ws]}


# ---------------------------------------------------------------------------
# sampled functions and tuples
# ---------------------------------------------------------------------------


def write_function_csv(f: SampledFunction, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z", "re", "im"])
        for z, v in zip(f.grid.points, f.values):
            w.writerow([fmt(z), fmt(v.real), fmt(v.imag)])


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


def write_tuple(t: FunctionTuple, directory, stem: str) -> Path:
    """Write component CSVs plus a manifest <stem>.json; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for c, comp in enumerate(t.components):
        name = f"{stem}_c{c}.csv"
        write_function_csv(comp, directory / name)
        names.append(name)
    manifest = {"components": names, "d": t.d, "m": t.grid.m}
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def read_tuple(manifest_path) -> FunctionTuple:
    manifest_path = Path(manifest_path)
    with decoding(manifest_path):
        spec = load_json(manifest_path)
        comps = [read_function_csv(manifest_path.parent / name) for name in spec["components"]]
        if len(comps) != spec["d"] or any(c.grid.m != spec["m"] for c in comps):
            raise ConfigError(f"{manifest_path}: manifest does not match component files")
        return FunctionTuple(tuple(comps))


def write_toeplitz_csv(rep, path) -> None:
    """``k,re,im`` rows for k = -(n-1)..(n-1)."""
    coeffs = [(k, rep.coeff(k)) for k in range(-(rep.n - 1), rep.n)]
    write_rows_csv(path, ["k", "re", "im"], [(k, c.real, c.imag) for k, c in coeffs])


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------


def function_from_json(doc: dict, base_dir: Path | None = None) -> SampledFunction:
    """Sampled function from a JSON fragment: a ``file`` reference, inline
    ``values`` rows, or inline ``trig`` Fourier-coefficient triplets."""
    with decoding("function"):
        if "file" in doc:
            if base_dir is None:
                raise ConfigError("weight file reference needs a base directory")
            return read_function_csv(base_dir / doc["file"])
        if "values" not in doc and "trig" not in doc:
            raise ConfigError("a function needs one of: file, values, trig")
        grid = TorusGrid(_integer("function m", doc["m"], 2))
        if "values" in doc:
            vals = [complex(float(re), float(im)) for re, im in doc["values"]]
            return SampledFunction(grid, np.array(vals))
        # inline Fourier coefficient triplets [k, re, im]
        vals = np.zeros(grid.m, dtype=complex)
        for k, re, im in doc["trig"]:
            vals += complex(float(re), float(im)) * np.exp(1j * int(k) * grid.points)
        return SampledFunction(grid, vals)


def kernel_from_json(doc: dict, base_dir: Path | None = None) -> KernelSpec:
    """Kernel spec from its JSON document.  A finite-n prod kernel whose
    ``beta_policy`` is ``bound`` or ``estimate`` and that gives no ``beta``
    gets the policy's offset from ``fejer.beta_from_policy``."""
    spec = config_from_json(_KERNELS, doc, "kernel spec", base_dir)
    if (spec.family == "prod" and "beta" not in doc and spec.beta_policy != "manual"
            and not spec.is_infinite):
        spec = dataclasses.replace(spec, beta=beta_from_policy(spec.beta_policy, spec.n, spec.q))
    return spec


def write_kernel(spec: KernelSpec, path) -> None:
    Path(path).write_text(json.dumps(config_to_json(spec), indent=2) + "\n")


def read_kernel(path) -> KernelSpec:
    return kernel_from_json(load_json(path), base_dir=Path(path).parent)


def read_config(cls, path):
    """Dataclass ``cls`` from a JSON file; the files it names lie next to it."""
    return config_from_json(cls, load_json(path), str(path), Path(path).parent)


# ---------------------------------------------------------------------------
# datasets and models
# ---------------------------------------------------------------------------


def write_dataset(directory, inputs, outputs=None) -> dict:
    """Write sample tuples (and optional outputs) plus a dataset manifest
    ``dataset.json``; returns the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    inputs = list(inputs)
    samples = []
    for i, t in enumerate(inputs):
        entry = {"input": write_tuple(t, directory, f"x{i:04d}").name}
        if outputs is not None:
            yname = f"y{i:04d}.csv"
            write_function_csv(outputs[i], directory / yname)
            entry["output"] = yname
        samples.append(entry)
    manifest = {
        "m": inputs[0].grid.m,
        "d": inputs[0].d,
        "n_samples": len(inputs),
        "samples": samples,
    }
    (directory / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def read_dataset(directory):
    """Returns (inputs, outputs); outputs is None when the dataset has none."""
    path = Path(directory) / "dataset.json"
    with decoding(path):
        samples = load_json(path)["samples"]
        inputs = [read_tuple(path.parent / s["input"]) for s in samples]
        if not all("output" in s for s in samples):
            return inputs, None
        return inputs, [read_function_csv(path.parent / s["output"]) for s in samples]


def write_model(model: RidgeModel, directory) -> Path:
    """Write the training inputs with their coefficient functions as a
    dataset, plus ``model.json`` naming those files."""
    directory = Path(directory)
    samples = write_dataset(directory, model.inputs, model.coefficient_functions())["samples"]
    manifest = {
        "kernel": config_to_json(model.kernel),
        "lambda": model.lam,
        "N": len(model.inputs),
        "m": model.grid.m,
        "allow_aliasing": model.allow_aliasing,
        "coefficients": [s["output"] for s in samples],
        "training_inputs": [s["input"] for s in samples],
    }
    path = directory / "model.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def read_model(directory) -> RidgeModel:
    directory = Path(directory)
    with decoding(directory / "model.json"):
        manifest = load_json(directory / "model.json")
        kernel = kernel_from_json(manifest["kernel"], base_dir=directory)
        inputs = tuple(read_tuple(directory / f) for f in manifest["training_inputs"])
        coeffs = np.stack([read_function_csv(directory / f).values
                           for f in manifest["coefficients"]])
        if len(inputs) != manifest["N"] or inputs[0].grid.m != manifest["m"]:
            raise ConfigError(f"{directory}: model manifest does not match files")
        return RidgeModel(kernel=kernel, lam=float(manifest["lambda"]), inputs=inputs,
                          coefficients=coeffs,
                          allow_aliasing=bool(manifest.get("allow_aliasing", False)))


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


def write_pgm(image: np.ndarray, path, maxval: int = 255) -> None:
    """ASCII portable graymap of an array scaled from [0, 1]."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    img = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    levels = np.rint(img * maxval).astype(int)
    lines = ["P2", f"{img.shape[1]} {img.shape[0]}", str(maxval)]
    lines += [" ".join(str(v) for v in row) for row in levels]
    path.write_text("\n".join(lines) + "\n")


def read_pgm(path) -> np.ndarray:
    """Read an ASCII (P2) or binary (P5) graymap into floats in [0, 1]."""
    with decoding(path):
        data = Path(path).read_bytes()
        if data[:2] == b"P2":
            tokens = []
            for line in data.decode("ascii").splitlines():
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
            w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
            vals = np.array([int(t) for t in tokens[4 : 4 + w * h]], dtype=float)
            return (vals / maxval).reshape(h, w)
        if data[:2] == b"P5":
            pos = 2
            fields = []
            while len(fields) < 3:
                end = data.index(b"\n", pos)
                line = data[pos:end].split(b"#", 1)[0]
                fields.extend(line.split())
                pos = end + 1
            w, h, maxval = int(fields[0]), int(fields[1]), int(fields[2])
            vals = np.frombuffer(data[pos : pos + w * h], dtype=np.uint8).astype(float)
            return (vals / maxval).reshape(h, w)
        raise ConfigError(f"{path}: not a P2/P5 graymap")
