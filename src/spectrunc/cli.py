"""Command-line surface.

All configs are JSON, all outputs CSV/PGM/JSON.  Exit codes: 0 on success,
2 on configuration errors, 3 on numerical failures.  The environment
variable SPECTRUNC_WORKERS caps the sweep thread budget (absent: all
available cores).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, experiments, fejer, regression, serialize
from .errors import ConfigError, NumericalError
from .torus import FunctionTuple, l2_distance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclasses.dataclass(frozen=True)
class ConvergeConfig:
    """The ``converge`` document."""

    x: FunctionTuple
    y: FunctionTuple
    kernels: tuple
    n_list: tuple
    allow_aliasing: bool = False


@dataclasses.dataclass(frozen=True)
class ComplexityConfig:
    """The ``complexity`` document."""

    samples: tuple
    kernels: tuple
    n_list: tuple
    B: float = 1.0
    L: float = 1.0
    delta: float = 0.05
    allow_aliasing: bool = False

    def __post_init__(self):
        if not (self.B > 0 and self.L > 0 and 0 < self.delta < 1):
            raise ConfigError(f"need B, L > 0 and 0 < delta < 1: {self.B}, {self.L}, {self.delta}")


def _cmd_gen_synth(args) -> int:
    config = serialize.read_config(experiments.SyntheticConfig, args.config)
    (train_x, train_y), (test_x, test_y) = experiments.gen_synthetic(config, args.run)
    out = Path(args.out)
    serialize.write_dataset(out / "train", train_x, train_y)
    serialize.write_dataset(out / "test", test_x, test_y)
    print(f"wrote {len(train_x)} train / {len(test_x)} test samples to {out}")
    return EXIT_OK


def _cmd_run_synth(args) -> int:
    config = serialize.read_config(experiments.SyntheticConfig, args.config)
    if args.full_scale:
        config = dataclasses.replace(config, n_samples=1000, n_test=1000, runs=5)
    rows, summary = experiments.run_synthetic(config)
    out = Path(args.out)
    serialize.write_rows_csv(out / "results.csv",
                             ["family", "n", "run", "test_error"], rows)
    serialize.write_rows_csv(out / "summary.csv",
                             ["family", "n", "median", "q1", "q3"], summary)
    print(f"wrote {out / 'results.csv'} and {out / 'summary.csv'}")
    return EXIT_OK


def _cmd_eigen_study(args) -> int:
    config = serialize.read_config(experiments.SyntheticConfig, args.config)
    rows = experiments.run_eigen_study(config, point_index=args.point)
    serialize.write_rows_csv(Path(args.out), ["family", "n", "index", "mean", "std"], rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_inpaint(args) -> int:
    config = serialize.read_config(experiments.InpaintConfig, args.config)
    rows, recovered = experiments.run_inpaint(config)
    out = Path(args.out)
    serialize.write_rows_csv(out / "errors.csv", ["n", "test_error"], rows)
    for label, images in recovered.items():
        for i, img in enumerate(images):
            serialize.write_pgm(img, out / "recovered" / f"n{label}" / f"test{i:03d}.pgm")
    print(f"wrote {out / 'errors.csv'} and recovered images")
    return EXIT_OK


def _cmd_fejer(args) -> int:
    axis = 2.0 * np.pi * np.arange(args.density) / args.density
    dim = 2 * args.q
    header = [f"t{i + 1}" for i in range(dim)] + ["value"]
    points = np.array(list(itertools.product(axis, repeat=dim)))
    values = fejer.fejer_multi(args.n, args.q, points)
    rows = [list(map(float, p)) + [float(v)] for p, v in zip(points, values)]
    serialize.write_rows_csv(Path(args.out), header, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_fejer_min(args) -> int:
    est = fejer.fejer_min_estimate(args.n, args.q, grid_density=args.density,
                                   seed=args.seed)
    bound = float(args.n) ** (2 * args.q)
    if args.out:
        serialize.write_rows_csv(Path(args.out),
                                 ["n", "q", "estimate", "bound"],
                                 [(args.n, args.q, est, bound)])
    print(f"n={args.n} q={args.q} min-estimate={est:.9g} bound=n^(2q)={bound:.9g}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    doc = serialize.read_config(ConvergeConfig, args.config)
    specs = {spec.family: spec for spec in doc.kernels}
    rows = diagnostics.convergence_report(specs, doc.x, doc.y, doc.n_list,
                                          allow_aliasing=doc.allow_aliasing)
    serialize.write_rows_csv(Path(args.out), ["family", "n", "sup_gap", "mean_gap"],
                             [(r["family"], r["n"], r["sup_gap"], r["mean_gap"]) for r in rows])
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_complexity(args) -> int:
    doc = serialize.read_config(ComplexityConfig, args.config)
    rows = []
    for spec in doc.kernels:
        for n in doc.n_list:
            report = diagnostics.complexity_report(
                dataclasses.replace(spec, n=n), doc.samples, B=doc.B, L=doc.L,
                delta=doc.delta, allow_aliasing=doc.allow_aliasing)
            rows.append((report.family, report.n, float(np.sum(report.D_values)),
                         report.second_term, report.third_term))
    serialize.write_rows_csv(Path(args.out),
                             ["family", "n", "sum_D", "second_term", "third_term"], rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gram(args) -> int:
    inputs, _ = serialize.read_dataset(args.dataset)
    spec = serialize.read_kernel(args.kernel)
    gram = regression.assemble_gram(spec, inputs, allow_aliasing=args.allow_aliasing)
    report = regression.check_pd(gram)
    rows = [(p, float(gram.grid.points[p]), float(report.min_per_point[p]))
            for p in range(gram.grid.m)]
    serialize.write_rows_csv(Path(args.out), ["point", "z", "min_eigenvalue"], rows)
    print(f"global min eigenvalue {report.global_min:.6g} at point {report.argmin_point}; "
          f"wrote {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    inputs, outputs = serialize.read_dataset(args.dataset)
    if outputs is None:
        raise ConfigError(f"{args.dataset}: dataset has no outputs to fit")
    spec = serialize.read_kernel(args.kernel)
    model = regression.fit(spec, inputs, outputs, args.lam,
                           allow_aliasing=args.allow_aliasing)
    serialize.write_model(model, args.out)
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = serialize.read_model(args.model)
    inputs, _ = serialize.read_dataset(args.dataset)
    preds = regression.predict_batch(model, inputs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, p in enumerate(preds):
        name = f"pred{i:04d}.csv"
        serialize.write_function_csv(p, out / name)
        names.append(name)
    (out / "predictions.json").write_text(
        json.dumps({"predictions": names, "m": model.grid.m}, indent=2) + "\n")
    print(f"wrote {len(preds)} predictions to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = serialize.read_model(args.model)
    inputs, outputs = serialize.read_dataset(args.dataset)
    if outputs is None:
        raise ConfigError(f"{args.dataset}: dataset has no outputs to evaluate against")
    preds = regression.predict_batch(model, inputs)
    per_sample = [float(l2_distance(p, o)) for p, o in zip(preds, outputs)]
    mean_err = float(np.mean(per_sample))
    if args.out:
        rows = [(i, e) for i, e in enumerate(per_sample)] + [("mean", mean_err)]
        serialize.write_rows_csv(Path(args.out), ["sample", "l2_error"], rows)
    print(f"test error {mean_err:.9g} over {len(per_sample)} samples")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrunc",
        description="Spectral-truncation kernels: Fejer diagnostics, kernel "
                    "ridge regression, and experiment runners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate one run of the synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--run", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("run-synth", help="run the synthetic regression sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--full-scale", action="store_true",
                   help="override to the full-scale setup (N=1000, 5 runs)")
    p.set_defaults(func=_cmd_run_synth)

    p = sub.add_parser("eigen-study", help="Gram eigenvalues at one grid point across runs")
    p.add_argument("--config", required=True)
    p.add_argument("--point", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eigen_study)

    p = sub.add_parser("inpaint", help="image-recovery sweep over the truncation order")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inpaint)

    p = sub.add_parser("fejer", help="tabulate the multivariate Fejer kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--density", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fejer)

    p = sub.add_parser("fejer-min", help="estimate the Fejer kernel minimum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--density", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fejer_min)

    p = sub.add_parser("converge", help="gap-to-limit table per kernel family")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("complexity", help="complexity terms across a truncation sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("gram", help="per-point minimum Gram eigenvalues")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--allow-aliasing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("fit", help="fit the per-grid-point ridge model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--allow-aliasing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="test-error table for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
