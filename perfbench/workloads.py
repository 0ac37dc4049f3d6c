"""The four benchmark workloads.

Each workload is three functions:

- ``setup(seed, workdir)`` builds every input from the seed and returns a
  state; it is untimed (it is what ``setup_s`` measures);
- ``run(state)`` is the timed section and returns the raw outputs;
- ``check(state, outputs)`` turns the outputs into operations, one ``Op``
  per sweep cell, CLI command or identity check, each with one value, an
  invariant verdict that holds for any seed, and whether the value is
  compared against the stored reference outputs.

The run functions reach the program only through module attributes
(``experiments.run_synthetic``, ``cli.main`` ...), so the traced run's
timing wrappers, swapped in at those names, see every call.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spectrunc import cli, diagnostics, experiments, fejer, serialize
from spectrunc.kernels import (
    INF,
    GaussianKernel,
    L2GaussianTupleKernel,
    PolyKernel,
    ProdKernel,
    SepKernel,
)
from spectrunc.torus import FunctionTuple, SampledFunction, TorusGrid, l2_distance
from spectrunc.truncation import sn_map_at, truncate

# synth-sweep: the paper's desk-scale sweep (poly, prod, sep x 6 orders)
SYNTH = dict(n_samples=200, n_test=200, grid_m=30, runs=1)

# fit-predict-1k: CLI fit -> predict at N = 1000 (458 MiB Gram field)
FIT_SAMPLES = 1000
FIT_TEST = 200
FIT_GRID_M = 30
FIT_KERNEL = PolyKernel(n=16, q=1, alpha=(1.0, 1.0))
FIT_LAMBDA = 0.01

# inpaint: 16x16 blob images, m = 256 grid points, small N
INPAINT = dict(height=16, width=16, mask_h=8, mask_w=8, n_train=100, n_test=50,
               n_list=(8, 16, INF))

# fejer-diagnostics
IDENTITY_QS = (1, 2)
IDENTITY_NS = tuple(range(2, 9))
IDENTITY_M_AXIS = 16
IDENTITY_PAIRS = 2          # random coefficient sets per (q, n)
IDENTITY_POINTS = 2         # evaluation points z per coefficient set
IDENTITY_TOL = 1e-6         # acceptance criterion 1
MIN_ESTIMATE_CASES = ((4, 1), (4, 2), (8, 1), (8, 2))
# the multistart seed sets how many descent steps run, so it stays fixed:
# the benchmark seed would otherwise change the work, not only the inputs
MIN_ESTIMATE_SEED = 0
DIAG_GRID_M = 32
DIAG_N_LIST = (2, 4, 8, 16)


class Op(NamedTuple):
    key: str
    value: float
    ok: bool            # invariant that holds for every seed
    compare: bool       # value is compared against the reference outputs


def _finite_op(key: str, value: float) -> Op:
    return Op(key, float(value), math.isfinite(value), True)


# ---------------------------------------------------------------------------
# synth-sweep
# ---------------------------------------------------------------------------


def synth_config(seed: int) -> experiments.SyntheticConfig:
    return experiments.SyntheticConfig(seed=seed, **SYNTH)


def synth_setup(seed: int, workdir: Path):
    return synth_config(seed)


def synth_run(config):
    rows, _ = experiments.run_synthetic(config)
    return rows


def synth_check(config, rows) -> list[Op]:
    return [_finite_op(f"cell/{family}/{n}", err) for family, n, _, err in rows]


# ---------------------------------------------------------------------------
# fit-predict-1k
# ---------------------------------------------------------------------------


class FitState(NamedTuple):
    data: Path
    kernel: Path
    model: Path
    preds: Path


def fit_setup(seed: int, workdir: Path) -> FitState:
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "synth.json"
    config.write_text(json.dumps({"n_samples": FIT_SAMPLES, "n_test": FIT_TEST,
                                  "grid_m": FIT_GRID_M, "seed": seed, "runs": 1}))
    kernel = workdir / "kernel.json"
    serialize.write_kernel(FIT_KERNEL, kernel)
    data = workdir / "data"
    code = cli.main(["gen-synth", "--config", str(config), "--run", "0", "--out", str(data)])
    if code != 0:
        raise RuntimeError(f"gen-synth exited {code}")
    return FitState(data, kernel, workdir / "model", workdir / "preds")


def fit_run(state: FitState) -> tuple[int, int]:
    fit_code = cli.main(["fit", "--dataset", str(state.data / "train"),
                         "--kernel", str(state.kernel), "--lam", str(FIT_LAMBDA),
                         "--allow-aliasing", "--out", str(state.model)])
    predict_code = cli.main(["predict", "--model", str(state.model),
                             "--dataset", str(state.data / "test"),
                             "--out", str(state.preds)])
    return fit_code, predict_code


def fit_check(state: FitState, codes: tuple[int, int]) -> list[Op]:
    fit_code, predict_code = codes
    err = math.nan
    if predict_code == 0:
        names = json.loads((state.preds / "predictions.json").read_text())["predictions"]
        preds = [serialize.read_function_csv(state.preds / n) for n in names]
        _, outputs = serialize.read_dataset(state.data / "test")
        if len(preds) == len(outputs):
            err = float(np.mean([l2_distance(p, o) for p, o in zip(preds, outputs)]))
    # the next iteration writes into empty directories, as the first did
    shutil.rmtree(state.model, ignore_errors=True)
    shutil.rmtree(state.preds, ignore_errors=True)
    return [Op("cli/fit", float(fit_code), fit_code == 0, False),
            Op("cli/predict", err, predict_code == 0 and math.isfinite(err), True)]


# ---------------------------------------------------------------------------
# inpaint
# ---------------------------------------------------------------------------


def inpaint_config(seed: int) -> experiments.InpaintConfig:
    return experiments.InpaintConfig(seed=seed, **INPAINT)


def inpaint_setup(seed: int, workdir: Path):
    return inpaint_config(seed)


def inpaint_run(config):
    rows, _ = experiments.run_inpaint(config)
    return rows


def inpaint_check(config, rows) -> list[Op]:
    return [_finite_op(f"inpaint/{label}", err) for label, err in rows]


# ---------------------------------------------------------------------------
# fejer-diagnostics
# ---------------------------------------------------------------------------


def _random_coeffs(rng, deg: int = 2, scale: float = 0.5) -> dict[int, complex]:
    return {k: complex(scale * rng.normal(), scale * rng.normal()) for k in range(-deg, deg + 1)}


def _eval_coeffs(coeffs: dict[int, complex], t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for k, c in coeffs.items():
        out += c * np.exp(1j * k * t)
    return out


def separable_integrand(factors):
    """g(t) = prod_a h_a(t_a) for the conjugated-x / plain-y factor list,
    built as an outer product of 1-D evaluations on each axis."""

    def g(t: np.ndarray) -> np.ndarray:
        dim = t.shape[0]
        out = np.ones(t.shape[1:], dtype=complex)
        for axis, (coeffs, conj) in enumerate(factors):
            index = [0] * dim
            index[axis] = slice(None)
            vals = _eval_coeffs(coeffs, t[axis][tuple(index)])
            shape = [1] * dim
            shape[axis] = -1
            out = out * (np.conj(vals) if conj else vals).reshape(shape)
        return out

    return g


class FejerState(NamedTuple):
    identity: list      # (key, M, q, n, integrand, z)
    x: FunctionTuple
    y: FunctionTuple
    specs: dict


def fejer_setup(seed: int, workdir: Path) -> FejerState:
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    grid = TorusGrid(IDENTITY_M_AXIS)
    cases = []
    for q in IDENTITY_QS:
        for n in IDENTITY_NS:
            for pair in range(IDENTITY_PAIRS):
                xc = [_random_coeffs(rng) for _ in range(q)]
                yc = [_random_coeffs(rng) for _ in range(q)]
                M = np.eye(n, dtype=complex)
                for c in xc:
                    M = M @ np.conj(truncate(SampledFunction(grid, _eval_coeffs(c, grid.points)), n).dense()).T
                for c in yc:
                    M = M @ truncate(SampledFunction(grid, _eval_coeffs(c, grid.points)), n).dense()
                g = separable_integrand([(c, True) for c in xc] + [(c, False) for c in yc])
                for point, z in enumerate(rng.uniform(0.0, 2.0 * np.pi, size=IDENTITY_POINTS)):
                    cases.append((f"identity/q{q}/n{n}/{pair}.{point}", M, q, n, g, float(z)))
    dgrid = TorusGrid(DIAG_GRID_M)

    def tuple_from(coeffs):
        return FunctionTuple((SampledFunction(dgrid, _eval_coeffs(coeffs, dgrid.points)),))

    x = tuple_from(_random_coeffs(rng, deg=3))
    y = tuple_from(_random_coeffs(rng, deg=3))
    a = SampledFunction(dgrid, np.exp(np.sin(dgrid.points)).astype(complex))
    g = GaussianKernel(gamma=1.0)
    specs = {
        "poly": PolyKernel(n=INF, q=2, alpha=(1.0,)),
        "prod": ProdKernel(n=INF, q=2, bases1=(g, g), bases2=(g, g)),
        "sep": SepKernel(n=INF, q=2, weights=(a, a), base=L2GaussianTupleKernel(scale=1.0)),
    }
    return FejerState(cases, x, y, specs)


def fejer_run(state: FejerState):
    gaps = []
    for key, M, q, n, g, z in state.identity:
        lhs = complex(sn_map_at(M, z))
        rhs = fejer.fejer_convolve(g, n, q, z, m_axis=IDENTITY_M_AXIS)
        gaps.append((key, abs(lhs - rhs)))
    minima = [(n, q, fejer.fejer_min_estimate(n, q, seed=MIN_ESTIMATE_SEED))
              for n, q in MIN_ESTIMATE_CASES]
    converge = diagnostics.convergence_report(state.specs, state.x, state.y, DIAG_N_LIST)
    complexity = [(family, diagnostics.complexity_sweep(spec, state.x, DIAG_N_LIST))
                  for family, spec in state.specs.items()]
    return gaps, minima, converge, complexity


def fejer_check(state: FejerState, outputs) -> list[Op]:
    gaps, minima, converge, complexity = outputs
    ops = [Op(key, gap, gap <= IDENTITY_TOL, False) for key, gap in gaps]
    for n, q, est in minima:
        # the estimate is clamped to the provable bound -n^{2q}
        ops.append(Op(f"fejer_min/n{n}/q{q}", est,
                      math.isfinite(est) and est >= -float(n) ** (2 * q), True))
    ops += [_finite_op(f"converge/{r['family']}/{r['n']}", r["sup_gap"]) for r in converge]
    ops += [Op(f"complexity/{family}/{n}", D, math.isfinite(D) and D >= 0.0, True)
            for family, rows in complexity for n, D in rows]
    return ops


WORKLOADS = {
    "synth-sweep": (synth_setup, synth_run, synth_check),
    "fit-predict-1k": (fit_setup, fit_run, fit_check),
    "inpaint": (inpaint_setup, inpaint_run, inpaint_check),
    "fejer-diagnostics": (fejer_setup, fejer_run, fejer_check),
}


def gram_cross_specs() -> list[tuple[str, object, int]]:
    """(workload, spec, grid m) for every spec whose Gram or cross block a
    workload assembles; the route labeller is tested against these."""
    out = [("synth-sweep", s, SYNTH["grid_m"])
           for s in experiments.default_synthetic_kernels(grid_m=SYNTH["grid_m"])]
    out.append(("fit-predict-1k", FIT_KERNEL, FIT_GRID_M))
    config = inpaint_config(0)
    out += [("inpaint", config.kernel(n), config.height * config.width) for n in config.n_list]
    return out
