"""Timing wrappers for the traced run, and the per-layer metrics they yield.

``install(tracer)`` swaps a wrapper in at each name a caller looks up
(``spectrunc.regression.gram_values`` for ``assemble_gram``,
``spectrunc.experiments.fit`` for the sweeps, ...) and returns a function
that puts the originals back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
from pathlib import Path

import numpy as np

from spectrunc import cli, diagnostics, experiments, fejer, kernels, regression, serialize

ROUTES = ("poly", "prod-strict", "prod-folded", "sep", "limit")
SERIALIZE_FUNCS = ("read_dataset", "write_dataset", "write_model", "read_model",
                   "write_function_csv")
_WRITE_TARGET_ARG = {"write_dataset": 0, "write_model": 1, "write_function_csv": 1}
_PAGE = os.sysconf("SC_PAGE_SIZE")
MIB = float(1 << 20)


def route(spec, m: int) -> str:
    """The batched route ``kernels.gram_values``/``cross_values`` take for a
    spec on an m-point grid, from the same conditions the dispatch tests."""
    if spec.is_infinite:
        return "limit"
    if spec.family == "prod":
        return "prod-folded" if spec.q == 1 and m < spec.n else "prod-strict"
    return spec.family


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / MIB


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_state(path: Path) -> dict[str, tuple[int, int]]:
    if path.is_file():
        st = path.stat()
        return {str(path): (st.st_size, st.st_mtime_ns)}
    out = {}
    if path.is_dir():
        for root, _, files in os.walk(path):
            for name in files:
                st = os.stat(os.path.join(root, name))
                out[os.path.join(root, name)] = (st.st_size, st.st_mtime_ns)
    return out


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside ``regression``: ``fit`` calls
    ``linalg.solve`` only when the Hermitian factorization failed, so each
    call is one solver fallback."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("regression.fit.fallbacks")
        return self._real.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer):
    """Swap the timing wrappers in; returns the undo function."""
    saved = []
    local = threading.local()

    def swap(module, attr, make):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def timed(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def gram(fn):
        def wrapper(spec, xs, *args, **kwargs):
            xs = list(xs)
            with tracer.span("kernels.gram", route=route(spec, xs[0].grid.m)) as sp:
                field, count = fn(spec, xs, *args, **kwargs)
                sp.attrs["pairs"] = count
            return field, count
        return wrapper

    def cross(fn):
        def wrapper(spec, xs, ys, *args, **kwargs):
            xs, ys = list(xs), list(ys)
            with tracer.span("kernels.cross", route=route(spec, xs[0].grid.m),
                             pairs=len(xs) * len(ys)):
                return fn(spec, xs, ys, *args, **kwargs)
        return wrapper

    def assemble(fn):
        def wrapper(*args, **kwargs):
            before, peak_before = rss_mib(), maxrss_mib()
            with tracer.span("regression.assemble_gram") as sp:
                gram = fn(*args, **kwargs)
            peak_after = maxrss_mib()
            sp.attrs["field_mib"] = gram.matrices.nbytes / MIB
            # exact when this call set a new process peak, else unknown
            sp.attrs["rss_rise_mib"] = peak_after - before if peak_after > peak_before else 0.0
            return gram
        return wrapper

    def fit(fn):
        def wrapper(kernel, inputs, *args, **kwargs):
            inputs = tuple(inputs)
            with tracer.span("regression.fit", points=inputs[0].grid.m):
                return fn(kernel, inputs, *args, **kwargs)
        return wrapper

    def cell(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("experiments.cell", failed=True) as sp:
                err = fn(*args, **kwargs)
                sp.attrs["failed"] = not err == err      # NaN
            return err
        return wrapper

    def sweep(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("experiments.run_synthetic", workers=experiments.worker_count()):
                return fn(*args, **kwargs)
        return wrapper

    def command(fn):
        def wrapper(argv):
            with tracer.span(f"cli.{argv[0]}") as sp:
                code = fn(argv)
                sp.attrs["exit"] = code
            return code
        return wrapper

    def serialized(name):
        target = _WRITE_TARGET_ARG.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                # only the outermost write counts files, so nested
                # write_function_csv calls are not counted twice
                outer = target is not None and not getattr(local, "writing", False)
                if outer:
                    path = Path(args[target])
                    before = _tree_state(path)
                    local.writing = True
                try:
                    with tracer.span(f"serialize.{name}") as sp:
                        out = fn(*args, **kwargs)
                finally:
                    if outer:
                        local.writing = False
                if outer:
                    after = _tree_state(path)
                    changed = [k for k, v in after.items() if before.get(k) != v]
                    sp.attrs["files"] = len(changed)
                    sp.attrs["bytes"] = sum(after[k][0] for k in changed)
                return out
            return wrapper
        return make

    def fejer_multi(fn):
        def wrapper(n, q, t):
            with tracer.span("fejer.multi", points=max(1, np.size(t) // (2 * q))):
                return fn(n, q, t)
        return wrapper

    def convolve(fn):
        def wrapper(g, n, q, z, m_axis=32):
            with tracer.span("fejer.convolve", nodes=m_axis ** (2 * q)):
                return fn(g, n, q, z, m_axis=m_axis)
        return wrapper

    swap(regression, "gram_values", gram)
    swap(regression, "cross_values", cross)
    swap(regression, "assemble_gram", assemble)
    swap(regression, "predict_batch", timed("regression.predict_batch"))
    swap(regression, "fit", fit)
    swap(regression, "linalg", lambda real: _LinalgProxy(real, tracer))
    swap(kernels, "smooth", timed("truncation.smooth"))
    swap(kernels, "evaluate", timed("kernels.evaluate"))
    swap(experiments, "fit", fit)
    swap(experiments, "predict_batch", timed("regression.predict_batch"))
    swap(experiments, "test_error", timed("regression.test_error"))
    swap(experiments, "gen_synthetic", timed("experiments.gen_synthetic"))
    swap(experiments, "_synthetic_cell", cell)
    swap(experiments, "run_synthetic", sweep)
    for name in SERIALIZE_FUNCS:
        swap(serialize, name, serialized(name))
    swap(cli, "main", command)
    swap(fejer, "fejer_multi", fejer_multi)
    swap(fejer, "fejer_convolve", convolve)
    swap(fejer, "fejer_min_estimate", timed("fejer.min_estimate"))
    swap(diagnostics, "convergence_report", timed("diagnostics.convergence_report"))
    swap(diagnostics, "complexity_sweep", timed("diagnostics.complexity_sweep"))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    index = tracer.child_index()
    out: dict[str, float] = {}

    def spans(name, **match):
        return [s for s in tracer.named(name)
                if all(s.attrs.get(k) == v for k, v in match.items())]

    def secs(name, **match):
        return sum(s.duration for s in spans(name, **match))

    def self_secs(name):
        return sum(tracer.self_time(s, index) for s in tracer.named(name))

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in tracer.named(name))

    for kind in ("gram", "cross"):
        out[f"kernels.{kind}.s"] = secs(f"kernels.{kind}")
        out[f"kernels.{kind}.pairs"] = attr_sum(f"kernels.{kind}", "pairs")
        for r in ROUTES:
            out[f"kernels.{kind}.{r}.s"] = secs(f"kernels.{kind}", route=r)
    block_s = out["kernels.gram.s"] + out["kernels.cross.s"]
    pairs = out["kernels.gram.pairs"] + out["kernels.cross.pairs"]
    out["kernels.pairs_per_s"] = pairs / block_s if block_s > 0 else 0.0

    out["truncation.smooth.s"] = secs("truncation.smooth")
    out["truncation.smooth.calls"] = len(spans("truncation.smooth"))

    grams = spans("regression.assemble_gram")
    out["regression.assemble_gram.s"] = secs("regression.assemble_gram")
    out["regression.assemble_gram.self_s"] = self_secs("regression.assemble_gram")
    biggest = max(grams, key=lambda s: s.attrs["field_mib"], default=None)
    field = biggest.attrs["field_mib"] if biggest else 0.0
    rise = max((s.attrs["rss_rise_mib"] for s in grams), default=0.0)
    out["regression.assemble_gram.rss_rise_mib"] = rise
    out["regression.gram.field_mib"] = field
    out["regression.assemble_gram.peak_over_field"] = rise / field if field > 0 else 0.0
    out["regression.fit.s"] = secs("regression.fit")
    out["regression.fit.self_s"] = self_secs("regression.fit")
    out["regression.fit.points"] = attr_sum("regression.fit", "points")
    out["regression.fit.fallbacks"] = tracer.counters.get("regression.fit.fallbacks", 0)
    out["regression.predict_batch.self_s"] = self_secs("regression.predict_batch")
    out["regression.test_error.s"] = secs("regression.test_error")

    for name in SERIALIZE_FUNCS:
        out[f"serialize.{name}.s"] = secs(f"serialize.{name}")
    writes = [s for name in _WRITE_TARGET_ARG for s in tracer.named(f"serialize.{name}")]
    out["serialize.files_written"] = sum(s.attrs.get("files", 0) for s in writes)
    out["serialize.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in writes)

    cells = [s.duration for s in spans("experiments.cell")]
    out["experiments.gen_synthetic.s"] = secs("experiments.gen_synthetic")
    out["experiments.cells"] = len(cells)
    out["experiments.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    out["experiments.cell_s.max"] = max(cells, default=0.0)
    out["experiments.cell_busy_s"] = sum(cells)
    out["experiments.failed_cells"] = len(spans("experiments.cell", failed=True))
    capacity = sum(s.duration * s.attrs["workers"] for s in spans("experiments.run_synthetic"))
    out["experiments.parallel_eff"] = sum(cells) / capacity if capacity > 0 else 0.0

    out["cli.fit.s"] = secs("cli.fit")
    out["cli.predict.s"] = secs("cli.predict")
    out["cli.nonzero_exits"] = sum(1 for s in tracer.spans
                                   if s.name.startswith("cli.") and s.attrs.get("exit") != 0)

    out["fejer.convolve.s"] = secs("fejer.convolve")
    out["fejer.convolve.calls"] = len(spans("fejer.convolve"))
    out["fejer.convolve.nodes"] = attr_sum("fejer.convolve", "nodes")
    out["fejer.multi.s"] = secs("fejer.multi")
    out["fejer.multi.points"] = attr_sum("fejer.multi", "points")
    out["fejer.min_estimate.s"] = secs("fejer.min_estimate")

    out["diagnostics.convergence_report.s"] = secs("diagnostics.convergence_report")
    out["diagnostics.complexity_sweep.s"] = secs("diagnostics.complexity_sweep")
    out["kernels.evaluate.s"] = secs("kernels.evaluate")
    out["kernels.evaluate.calls"] = len(spans("kernels.evaluate"))
    return out
