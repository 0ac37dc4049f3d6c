r"""Reproducible experiment runners.

Synthetic regression: inputs x^i(z) = [sin(0.01 i z) + noise,
cos(0.01 i z) + noise], target f(x)(z) = 3 sin(cos(W_1(z) + W_2(z))) where
W_c is the unnormalized window integral of component c over
[z - delta, z + delta].  The reference configuration discretizes with
m = 30 points, delta = 2*pi/30, lambda = 0.01.

Image inpainting: each H x W image is flattened row-major and treated as a
discretized function on a torus grid of m = H*W points (the flattening
imposes a wrap-around adjacency at the image boundary).  Inputs are the
images with a centered rectangle zeroed; outputs are the originals.

Every dataset is drawn from a counter-based generator keyed by
(seed, run, split), so sweep cells within a run see bitwise-identical data
and re-runs are fully deterministic.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kernels import (
    INF,
    GaussianKernel,
    KernelSpec,
    L2GaussianTupleKernel,
    PolyKernel,
    ProdKernel,
    SepKernel,
    _check_pair,
    _integer,
)
from .regression import assemble_gram, fit, predict_batch, test_error
from .serialize import config_to_json, n_label, read_pgm
from .torus import FunctionTuple, SampledFunction, TorusGrid, l2_distance, window_membership

__all__ = [
    "SyntheticConfig",
    "InpaintConfig",
    "gen_synthetic",
    "run_synthetic",
    "run_eigen_study",
    "run_inpaint",
    "default_synthetic_kernels",
    "worker_count",
]

WORKERS_ENV = "SPECTRUNC_WORKERS"

_SPLIT_TRAIN = 0
_SPLIT_TEST = 1
_SPLIT_BLOBS = 2


def worker_count() -> int:
    """Thread budget for sweep cells; the environment variable wins,
    absence means all available cores."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if count < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {raw}")
    return count


def _check_fields(config, lows: dict[str, int]) -> None:
    """Each integer field in ``lows`` at least its low bound, and lambda >= 0."""
    for name, low in lows.items():
        object.__setattr__(config, name, _integer(name, getattr(config, name), low))
    if config.lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {config.lam}")


def _rng(seed: int, run: int, split: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((run << 8) | split)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# synthetic regression
# ---------------------------------------------------------------------------


def default_synthetic_kernels(n_list=(8, 16, 32, 64, 128, INF), delta: float | None = None,
                              grid_m: int = 30, families=("poly", "prod", "sep")) -> list[KernelSpec]:
    """The reference sweep: poly (q=1, linear weights), prod (q=1, gaussian
    bases, beta = 1 at finite n), sep (q=2, a_j = e^{sin z}, gaussian tuple
    kernel with scale 0.1/delta^2)."""
    if delta is None:
        delta = 2.0 * np.pi / 30.0
    grid = TorusGrid(grid_m)
    a = SampledFunction(grid, np.exp(np.sin(grid.points)).astype(complex))
    specs: list[KernelSpec] = []
    for n in n_list:
        if "poly" in families:
            specs.append(PolyKernel(n=n, q=1, alpha=(1.0, 1.0)))
        if "prod" in families:
            g = GaussianKernel(gamma=1.0)
            specs.append(ProdKernel(n=n, q=1, bases1=(g,), bases2=(g,), beta=1.0))
        if "sep" in families:
            specs.append(SepKernel(n=n, q=2, weights=(a, a),
                                   base=L2GaussianTupleKernel(scale=0.1 / delta**2)))
    return specs


@dataclass(frozen=True)
class SyntheticConfig:
    """Synthetic regression configuration; defaults reproduce the reference
    desk-scale setup (m = 30, lambda = 0.01, delta = 2*pi/30)."""

    n_samples: int = 200
    n_test: int = 200
    grid_m: int = 30
    seed: int = 1234
    input_noise: float = 0.01
    output_noise: float = 0.001
    delta: float = 2.0 * np.pi / 30.0
    lam: float = 0.01
    runs: int = 5
    window_normalized: bool = False
    kernels: tuple[KernelSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_fields(self, {"n_samples": 1, "n_test": 1, "runs": 1, "grid_m": 2, "seed": 0})

    def resolved_kernels(self) -> list[KernelSpec]:
        if self.kernels:
            return list(self.kernels)
        return default_synthetic_kernels(delta=self.delta, grid_m=self.grid_m)

    def to_json(self) -> dict:
        return config_to_json(replace(self, kernels=tuple(self.resolved_kernels())))


@functools.lru_cache(maxsize=8)
def _window_matrix(grid: TorusGrid, delta: float, normalized: bool) -> np.ndarray:
    rows = np.stack([window_membership(grid, z, delta) for z in grid.points])
    scale = (1.0 / grid.m) if normalized else grid.spacing
    out = rows.astype(float) * scale
    out.setflags(write=False)
    return out


def synthetic_target(x: FunctionTuple, delta: float, normalized: bool = False) -> SampledFunction:
    """f(x)(z) = 3 sin(cos(W_1(z) + W_2(z))) with W_c the windowed integral
    of component c."""
    W = _window_matrix(x.grid, delta, normalized)
    total = np.zeros(x.grid.m, dtype=complex)
    for comp in x.components:
        total += W @ comp.values
    return SampledFunction(x.grid, 3.0 * np.sin(np.cos(total)))


def _synthetic_split(config: SyntheticConfig, run_index: int, split: int, count: int):
    grid = TorusGrid(config.grid_m)
    z = grid.points
    rng = _rng(config.seed, run_index, split)
    xi = rng.standard_normal((count, grid.m))
    eta = rng.standard_normal((count, grid.m))
    out_noise = rng.standard_normal((count, grid.m))
    inputs = []
    outputs = []
    for i in range(1, count + 1):
        c1 = np.sin(0.01 * i * z) + config.input_noise * xi[i - 1]
        c2 = np.cos(0.01 * i * z) + config.input_noise * eta[i - 1]
        x = FunctionTuple((SampledFunction(grid, c1.astype(complex)),
                           SampledFunction(grid, c2.astype(complex))))
        target = synthetic_target(x, config.delta, config.window_normalized)
        y = SampledFunction(grid, target.values + config.output_noise * out_noise[i - 1])
        inputs.append(x)
        outputs.append(y)
    return inputs, outputs


def gen_synthetic(config: SyntheticConfig, run_index: int):
    """Deterministic (train, test) datasets for one run; each is a pair
    (inputs, outputs)."""
    train = _synthetic_split(config, run_index, _SPLIT_TRAIN, config.n_samples)
    test = _synthetic_split(config, run_index, _SPLIT_TEST, config.n_test)
    return train, test


def _synthetic_cell(config: SyntheticConfig, datasets, spec: KernelSpec, run: int):
    (train_x, train_y), (test_x, test_y) = datasets[run]
    model = fit(spec, train_x, train_y, config.lam, allow_aliasing=True)
    return test_error(model, test_x, test_y)


def run_synthetic(config: SyntheticConfig):
    """Sweep (kernel spec x run); returns (result rows, summary rows).

    Result rows are (family, n, run, test_error); summary rows aggregate
    the runs per spec as (family, n, median, q1, q3).  A failed cell is
    recorded with a NaN error and the sweep goes on; a kernel that does not
    fit the data (an alpha for another d, say) is a ConfigError before any cell.
    """
    workers = worker_count()
    specs = config.resolved_kernels()
    datasets = [gen_synthetic(config, run) for run in range(config.runs)]
    (train_x, _), _ = datasets[0]
    for spec in specs:
        _check_pair(spec, train_x[0], train_x[0])
    cells = [(spec, run) for spec in specs for run in range(config.runs)]

    def work(cell) -> float:
        spec, run = cell
        try:
            return _synthetic_cell(config, datasets, spec, run)
        except Exception as exc:  # a failed cell is recorded, not fatal
            print(f"cell family={spec.family} n={n_label(spec.n)} run={run} failed: {exc}",
                  file=sys.stderr)
            return float("nan")

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        errors = list(pool.map(work, cells))
    rows = [(spec.family, n_label(spec.n), run, err) for (spec, run), err in zip(cells, errors)]
    quartiles = np.percentile(np.reshape(errors, (len(specs), config.runs)), [25, 50, 75], axis=1)
    summary = [(spec.family, n_label(spec.n), float(med), float(q1), float(q3))
               for spec, (q1, med, q3) in zip(specs, quartiles.T)]
    return rows, summary


def run_eigen_study(config: SyntheticConfig, point_index: int = 0):
    """Eigenvalues of the Gram matrix at one grid point (default z = 0),
    per kernel spec, aggregated over runs.

    Returns rows (family, n, eigenvalue index, mean, std) with eigenvalues
    sorted in descending order within each run.
    """
    trains = [_synthetic_split(config, run, _SPLIT_TRAIN, config.n_samples)[0]
              for run in range(config.runs)]
    rows = []
    for spec in config.resolved_kernels():
        per_run = []
        for train_x in trains:
            gram = assemble_gram(spec, train_x, allow_aliasing=True)
            eig = np.linalg.eigvalsh(gram.matrices[point_index])[::-1].real
            per_run.append(eig)
        stacked = np.stack(per_run)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        for idx in range(stacked.shape[1]):
            rows.append((spec.family, n_label(spec.n), idx,
                         float(mean[idx]), float(std[idx])))
    return rows


# ---------------------------------------------------------------------------
# image inpainting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InpaintConfig:
    """Image-recovery configuration.

    ``source`` is either "blobs" (deterministic synthetic blob images) or a
    directory of same-size PGM images.  The mask is a centered
    mask_h x mask_w rectangle zeroed in the inputs.
    """

    height: int = 16
    width: int = 16
    mask_h: int = 8
    mask_w: int = 8
    n_train: int = 50
    n_test: int = 20
    seed: int = 99
    lam: float = 0.01
    gamma: float = 0.1
    beta: float = 0.01
    n_list: tuple = (8, 16, INF)
    source: str = "blobs"
    recover_count: int = 4

    def __post_init__(self):
        _check_fields(self, {**dict.fromkeys(("height", "width", "mask_h", "mask_w", "n_train",
                                              "n_test", "recover_count"), 1), "seed": 0})
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")

    def mask(self) -> np.ndarray:
        if self.mask_h > self.height or self.mask_w > self.width:
            raise ConfigError("mask rectangle does not fit in the image")
        top = (self.height - self.mask_h) // 2
        left = (self.width - self.mask_w) // 2
        mask = np.zeros((self.height, self.width), dtype=bool)
        mask[top : top + self.mask_h, left : left + self.mask_w] = True
        return mask

    def kernel(self, n) -> ProdKernel:
        g = GaussianKernel(gamma=self.gamma)
        return ProdKernel(n=n, q=1, bases1=(g,), bases2=(g,), beta=self.beta)


def blob_images(config: InpaintConfig, split: int, count: int) -> np.ndarray:
    """Deterministic smooth blob images in [0, 1], shape (count, H, W)."""
    rng = _rng(config.seed, 0, split)
    H, W = config.height, config.width
    yy, xx = np.mgrid[0:H, 0:W]
    images = np.zeros((count, H, W))
    for i in range(count):
        n_blobs = int(rng.integers(2, 4))
        for _ in range(n_blobs):
            cy = rng.uniform(0, H)
            cx = rng.uniform(0, W)
            sigma = rng.uniform(0.08, 0.22) * min(H, W)
            amp = rng.uniform(0.5, 1.0)
            images[i] += amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)))
    return np.clip(images, 0.0, 1.0)


def load_image_dir(directory, count: int, shape: tuple[int, int]) -> np.ndarray:
    """The first ``count`` PGM images of a directory, each (H, W) = ``shape``."""
    paths = sorted(Path(directory).glob("*.pgm"))
    if len(paths) < count:
        raise ConfigError(f"{directory}: found {len(paths)} PGM images, need {count}")
    images = [read_pgm(p) for p in paths[:count]]
    if any(img.shape != shape for img in images):
        raise ConfigError(f"{directory}: images are not all {shape}, the config's (height, width)")
    return np.stack(images)


def inpaint_images(config: InpaintConfig):
    """(train_images, test_images) per the configured source."""
    if config.source == "blobs":
        return (blob_images(config, _SPLIT_BLOBS, config.n_train),
                blob_images(config, _SPLIT_TEST, config.n_test))
    shape = (config.height, config.width)
    return (load_image_dir(Path(config.source) / "train", config.n_train, shape),
            load_image_dir(Path(config.source) / "test", config.n_test, shape))


def image_to_tuple(image: np.ndarray, grid: TorusGrid) -> FunctionTuple:
    return FunctionTuple((SampledFunction(grid, image.ravel().astype(complex)),))


def run_inpaint(config: InpaintConfig):
    """Mask, fit, and sweep the truncation order.

    Returns (rows, recovered) where rows are (n, test_error) and recovered
    maps the n label to an array of recovered test images
    (recover_count, H, W).
    """
    train_imgs, test_imgs = inpaint_images(config)
    H, W = config.height, config.width
    grid = TorusGrid(H * W)
    mask = config.mask().ravel()

    def split(imgs: np.ndarray):
        """(masked input tuples, output functions) of a stack of images."""
        flat = imgs.reshape(len(imgs), -1)
        return ([image_to_tuple(np.where(mask, 0.0, v), grid) for v in flat],
                [SampledFunction(grid, v.astype(complex)) for v in flat])

    train_x, train_y = split(train_imgs)
    test_x, test_y = split(test_imgs)

    rows = []
    recovered = {}
    for n in config.n_list:
        spec = config.kernel(n)
        model = fit(spec, train_x, train_y, config.lam, allow_aliasing=True)
        preds = predict_batch(model, test_x)
        err = float(np.mean([l2_distance(p, o) for p, o in zip(preds, test_y)]))
        rows.append((n_label(n), err))
        recovered[n_label(n)] = np.stack([np.clip(p.values.real, 0.0, 1.0).reshape(H, W)
                                          for p in preds[: config.recover_count]])
    return rows, recovered
