"""File formats: CSV for functions and tables, JSON for manifests and specs.

SampledFunction CSV carries a ``z,re,im`` header with one row per grid
point at 17 significant digits, which round-trips doubles exactly.  A
FunctionTuple is one CSV per component plus a JSON manifest listing the
component file names, d, and m.  Kernel specs are JSON documents keyed by
family, with ``"inf"`` for the truncation order n = INF.  Config dataclasses
are JSON objects keyed by field name; an unknown key is a ConfigError.
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
)
from .regression import RidgeModel
from .torus import FunctionTuple, SampledFunction, TorusGrid

__all__ = [
    "fmt",
    "load_json",
    "required_keys",
    "n_to_json",
    "n_from_json",
    "n_label",
    "config_from_json",
    "config_to_json",
    "write_function_csv",
    "read_function_csv",
    "write_tuple",
    "read_tuple",
    "write_toeplitz_csv",
    "function_from_json",
    "kernel_to_json",
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


def load_json(path):
    """Parse a JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def required_keys(what: str):
    """Decode ``what`` inside this block: a missing key is a ConfigError
    naming it, not a KeyError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} is missing required key {exc.args[0]!r}") from None


def n_to_json(n) -> int | str:
    return "inf" if n == INF else int(n)


def n_from_json(raw) -> int | float:
    """A truncation order from JSON: an integer or ``"inf"``."""
    if raw == "inf":
        return INF
    if isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer()):
        return int(raw)
    raise ConfigError(f'truncation order must be an integer or "inf", got {raw!r}')


def n_label(n) -> str:
    """The truncation order as it appears in result tables."""
    return str(n_to_json(n))


# config field name -> JSON key where the two differ
_CONFIG_KEYS = {"lam": "lambda"}


def config_from_json(cls, doc, **decode):
    """Config dataclass ``cls`` from a JSON object keyed by field name;
    ``decode`` maps a field name to a function applied to its raw value."""
    names = {_CONFIG_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known keys are {sorted(names)}")
    kwargs = {names[key]: raw for key, raw in doc.items()}
    kwargs.update((name, fn(kwargs[name])) for name, fn in decode.items() if name in kwargs)
    return cls(**kwargs)


def config_to_json(config, **encoded) -> dict:
    """JSON object of a config dataclass; ``encoded`` gives the JSON value
    of fields that are not plain JSON."""
    return {_CONFIG_KEYS.get(f.name, f.name): encoded.get(f.name, getattr(config, f.name))
            for f in dataclasses.fields(config)}


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
    with path.open(newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["z", "re", "im"]:
            raise ConfigError(f"{path}: expected header z,re,im")
        rows = [row for row in r if row]
    m = len(rows)
    grid = TorusGrid(m)
    values = np.empty(m, dtype=complex)
    for p, row in enumerate(rows):
        z = float(row[0])
        if abs(z - grid.points[p]) > 1e-9:
            raise ConfigError(f"{path}: row {p} is not on the uniform m={m} grid")
        values[p] = complex(float(row[1]), float(row[2]))
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
    spec = load_json(manifest_path)
    comps = [read_function_csv(manifest_path.parent / name) for name in spec["components"]]
    if len(comps) != spec["d"] or any(c.grid.m != spec["m"] for c in comps):
        raise ConfigError(f"{manifest_path}: manifest does not match component files")
    return FunctionTuple(tuple(comps))


def write_toeplitz_csv(rep, path) -> None:
    """``k,re,im`` rows for k = -(n-1)..(n-1)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        for k in range(-(rep.n - 1), rep.n):
            v = rep.coeff(k)
            w.writerow([k, fmt(v.real), fmt(v.imag)])


# ---------------------------------------------------------------------------
# kernel specs
# ---------------------------------------------------------------------------


def _base_to_json(b) -> dict:
    if isinstance(b, GaussianKernel):
        return {"kind": "gaussian", "gamma": b.gamma}
    if isinstance(b, LinearKernel):
        return {"kind": "linear"}
    if isinstance(b, PolynomialKernel):
        return {"kind": "polynomial", "degree": b.degree, "offset": b.offset}
    raise ConfigError(f"unknown base kernel {type(b).__name__}")


def _base_from_json(doc: dict):
    kind = doc.get("kind")
    if kind == "gaussian":
        return GaussianKernel(gamma=float(doc["gamma"]))
    if kind == "linear":
        return LinearKernel()
    if kind == "polynomial":
        return PolynomialKernel(degree=int(doc["degree"]), offset=float(doc.get("offset", 1.0)))
    raise ConfigError(f"unknown base kernel kind {kind!r}")


def _weight_to_json(a: SampledFunction) -> dict:
    return {
        "m": a.grid.m,
        "values": [[fmt(v.real), fmt(v.imag)] for v in a.values],
    }


def function_from_json(doc: dict, base_dir: Path | None = None) -> SampledFunction:
    """Sampled function from a JSON fragment: a ``file`` reference, inline
    ``values`` rows, or inline ``trig`` Fourier-coefficient triplets."""
    if "file" in doc:
        if base_dir is None:
            raise ConfigError("weight file reference needs a base directory")
        return read_function_csv(base_dir / doc["file"])
    if "values" in doc:
        grid = TorusGrid(int(doc["m"]))
        vals = np.array([complex(float(re), float(im)) for re, im in doc["values"]])
        return SampledFunction(grid, vals)
    if "trig" in doc:
        # inline Fourier coefficient triplets [k, re, im]
        grid = TorusGrid(int(doc["m"]))
        vals = np.zeros(grid.m, dtype=complex)
        for k, re, im in doc["trig"]:
            vals += complex(float(re), float(im)) * np.exp(1j * int(k) * grid.points)
        return SampledFunction(grid, vals)
    raise ConfigError("a function needs one of: file, values, trig")


def kernel_to_json(spec: KernelSpec) -> dict:
    doc = {"family": spec.family, "n": n_to_json(spec.n), "q": spec.q}
    if isinstance(spec, PolyKernel):
        doc["alpha"] = list(spec.alpha)
    elif isinstance(spec, ProdKernel):
        doc["bases1"] = [_base_to_json(b) for b in spec.bases1]
        doc["bases2"] = [_base_to_json(b) for b in spec.bases2]
        doc["beta"] = spec.beta
        doc["beta_policy"] = spec.beta_policy
    elif isinstance(spec, SepKernel):
        doc["base"] = {"kind": spec.base.kind, "scale": spec.base.scale}
        doc["weights"] = [_weight_to_json(a) for a in spec.weights]
    else:
        raise ConfigError(f"unknown kernel spec {type(spec).__name__}")
    return doc


def kernel_from_json(doc: dict, base_dir: Path | None = None) -> KernelSpec:
    """Kernel spec from its JSON document.  A finite-n prod kernel whose
    ``beta_policy`` is ``bound`` or ``estimate`` and that gives no ``beta``
    gets the policy's offset from ``fejer.beta_from_policy``."""
    with required_keys("kernel spec"):
        family = doc.get("family")
        n = n_from_json(doc["n"])
        q = int(doc["q"])
        if family == "poly":
            return PolyKernel(n=n, q=q, alpha=tuple(float(a) for a in doc["alpha"]))
        if family == "prod":
            spec = ProdKernel(
                n=n, q=q,
                bases1=tuple(_base_from_json(b) for b in doc["bases1"]),
                bases2=tuple(_base_from_json(b) for b in doc["bases2"]),
                beta=float(doc.get("beta", 0.0)),
                beta_policy=str(doc.get("beta_policy", "manual")),
            )
            if "beta" not in doc and spec.beta_policy != "manual" and not spec.is_infinite:
                spec = dataclasses.replace(spec, beta=beta_from_policy(spec.beta_policy, n, q))
            return spec
        if family == "sep":
            base_doc = doc["base"]
            if base_doc.get("kind") != "l2_gaussian":
                raise ConfigError(f"unknown tuple kernel kind {base_doc.get('kind')!r}")
            return SepKernel(
                n=n, q=q,
                weights=tuple(function_from_json(w, base_dir) for w in doc["weights"]),
                base=L2GaussianTupleKernel(scale=float(base_doc["scale"])),
            )
        raise ConfigError(f"unknown kernel family {family!r}")


def write_kernel(spec: KernelSpec, path) -> None:
    Path(path).write_text(json.dumps(kernel_to_json(spec), indent=2) + "\n")


def read_kernel(path) -> KernelSpec:
    path = Path(path)
    return kernel_from_json(load_json(path), base_dir=path.parent)


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
    directory = Path(directory)
    samples = load_json(directory / "dataset.json")["samples"]
    inputs = [read_tuple(directory / s["input"]) for s in samples]
    if not all("output" in s for s in samples):
        return inputs, None
    return inputs, [read_function_csv(directory / s["output"]) for s in samples]


def write_model(model: RidgeModel, directory) -> Path:
    """Write the training inputs with their coefficient functions as a
    dataset, plus ``model.json`` naming those files."""
    directory = Path(directory)
    samples = write_dataset(directory, model.inputs, model.coefficient_functions())["samples"]
    manifest = {
        "kernel": kernel_to_json(model.kernel),
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
    manifest = load_json(directory / "model.json")
    kernel = kernel_from_json(manifest["kernel"], base_dir=directory)
    inputs = tuple(read_tuple(directory / f) for f in manifest["training_inputs"])
    coeffs = np.stack([
        read_function_csv(directory / f).values for f in manifest["coefficients"]
    ])
    if len(inputs) != manifest["N"] or inputs[0].grid.m != manifest["m"]:
        raise ConfigError(f"{directory}: model manifest does not match files")
    return RidgeModel(
        kernel=kernel,
        lam=float(manifest["lambda"]),
        inputs=inputs,
        coefficients=coeffs,
        allow_aliasing=bool(manifest.get("allow_aliasing", False)),
    )


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
    path = Path(path)
    data = path.read_bytes()
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
