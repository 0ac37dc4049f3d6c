"""Shared test helpers: random trigonometric polynomials with known
coefficients, so tests can evaluate the continuous function exactly, and
writers of the CSV dataset and model layouts."""

import json
from pathlib import Path

import numpy as np

from spectrunc import FunctionTuple, SampledFunction, TorusGrid
from spectrunc.serialize import config_to_json, write_function_csv


def trig_from_coeffs(grid: TorusGrid, coeffs: dict[int, complex]) -> SampledFunction:
    vals = np.zeros(grid.m, dtype=complex)
    for k, c in coeffs.items():
        vals += c * np.exp(1j * k * grid.points)
    return SampledFunction(grid, vals)


def eval_trig(coeffs: dict[int, complex], t: np.ndarray) -> np.ndarray:
    out = np.zeros(np.shape(t), dtype=complex)
    for k, c in coeffs.items():
        out = out + c * np.exp(1j * k * np.asarray(t))
    return out


def random_trig_coeffs(rng, deg=3, scale=0.5, real=False) -> dict[int, complex]:
    coeffs: dict[int, complex] = {}
    for k in range(deg + 1):
        c = scale * (rng.normal() + 1j * rng.normal())
        if k == 0 and real:
            c = scale * rng.normal() + 0j
        coeffs[k] = c
        if k > 0:
            coeffs[-k] = np.conj(c) if real else scale * (rng.normal() + 1j * rng.normal())
    return coeffs


def random_trig_function(grid, rng, deg=3, scale=0.5, real=False):
    coeffs = random_trig_coeffs(rng, deg=deg, scale=scale, real=real)
    return trig_from_coeffs(grid, coeffs), coeffs


def random_trig_tuple(grid, rng, d=2, deg=3, scale=0.5, real=False) -> FunctionTuple:
    comps = tuple(random_trig_function(grid, rng, deg, scale, real)[0] for _ in range(d))
    return FunctionTuple(comps)


# The CSV layout of datasets and models, which the readers still load: one
# CSV per tuple component and per output, listed in JSON manifests.


def write_tuple(t: FunctionTuple, directory, stem: str) -> Path:
    """Write component CSVs plus a manifest <stem>.json; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for c, comp in enumerate(t.components):
        name = f"{stem}_c{c}.csv"
        write_function_csv(comp, directory / name)
        names.append(name)
    path = directory / f"{stem}.json"
    path.write_text(json.dumps({"components": names, "d": t.d, "m": t.grid.m}, indent=2) + "\n")
    return path


def write_csv_dataset(directory, inputs, outputs=None) -> list[dict]:
    """A dataset as ``xNNNN.json`` + ``xNNNN_cC.csv`` inputs and ``yNNNN.csv``
    outputs, listed in the ``samples`` of ``dataset.json``; returns that list."""
    directory = Path(directory)
    samples = []
    for i, t in enumerate(inputs):
        entry = {"input": write_tuple(t, directory, f"x{i:04d}").name}
        if outputs is not None:
            entry["output"] = f"y{i:04d}.csv"
            write_function_csv(outputs[i], directory / entry["output"])
        samples.append(entry)
    manifest = {"m": inputs[0].grid.m, "d": inputs[0].d, "n_samples": len(inputs),
                "samples": samples}
    (directory / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return samples


def write_csv_model(model, directory) -> Path:
    """A model as a CSV-layout dataset of its training inputs and coefficient
    functions, plus ``model.json`` listing those files."""
    directory = Path(directory)
    samples = write_csv_dataset(directory, model.inputs, model.coefficient_functions())
    path = directory / "model.json"
    path.write_text(json.dumps({
        "kernel": config_to_json(model.kernel), "lambda": model.lam, "N": len(model.inputs),
        "m": model.grid.m, "allow_aliasing": model.allow_aliasing,
        "coefficients": [s["output"] for s in samples],
        "training_inputs": [s["input"] for s in samples]}, indent=2) + "\n")
    return path
