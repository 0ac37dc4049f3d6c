"""Shared test helpers: random trigonometric polynomials with known
coefficients, so tests can evaluate the continuous function exactly."""

import numpy as np

from spectrunc import FunctionTuple, SampledFunction, TorusGrid


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
