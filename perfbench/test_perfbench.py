"""Tests for the benchmark's own code (not part of the program's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import queue
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import probes
import run
import workloads
from spans import Tracer, union_length
from spectrunc import experiments, kernels
from spectrunc.kernels import INF
from spectrunc.torus import FunctionTuple, SampledFunction, TorusGrid

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PROCESS_METRICS = {"process.cpu_s", "process.cpu_util", "threads.single_thread_wall_s",
                   "threads.oversubscription", "trace.overhead_frac"}


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


class PoolWorker(threading.Thread):
    """Opens a span when told, optionally a nested one, closes when told."""

    def __init__(self, tracer, nested=False):
        super().__init__(daemon=True)
        self.tracer = tracer
        self.nested = nested
        self.go: queue.Queue = queue.Queue()
        self.ack: queue.Queue = queue.Queue()

    def step(self):
        self.go.put(None)
        self.ack.get(timeout=10)

    def run(self):
        self.go.get(timeout=10)
        with self.tracer.span("cell"):
            if self.nested:
                with self.tracer.span("inner"):
                    self.ack.put(None)
                    self.go.get(timeout=10)
            else:
                self.ack.put(None)
                self.go.get(timeout=10)
        self.ack.put(None)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0
    assert union_length([(3, 3), (4, 2)]) == 0.0


def test_self_time_subtracts_union_of_pool_children():
    clock = Clock()
    tracer = Tracer(clock=clock)
    a, b = PoolWorker(tracer), PoolWorker(tracer, nested=True)
    a.start()
    b.start()
    with tracer.span("root") as root:
        clock.now = 1.0
        a.step()                      # a's cell opens at 1
        clock.now = 2.0
        b.step()                      # b's cell and inner open at 2
        clock.now = 3.0
        a.step()                      # a's cell closes at 3
        clock.now = 5.0
        b.step()                      # b's inner and cell close at 5
        clock.now = 6.0
        with tracer.span("tail"):
            clock.now = 7.0
        clock.now = 10.0
    for worker in (a, b):
        worker.join(timeout=10)
        assert not worker.is_alive()

    cells = tracer.named("cell")
    (inner,) = tracer.named("inner")
    assert [c.parent for c in cells] == [root.ident, root.ident]
    assert inner.parent == next(c.ident for c in cells if c.thread == b.ident)
    # children cover [1, 5] and [6, 7]; the overlap of the two cells counts once
    assert tracer.self_time(root) == pytest.approx(10.0 - 5.0)
    assert sorted(tracer.self_time(c) for c in cells) == pytest.approx([0.0, 2.0])


def test_sweep_pool_spans_nest_under_the_sweep():
    tracer = Tracer()
    undo = probes.install(tracer)
    try:
        specs = experiments.default_synthetic_kernels(n_list=(8, INF), families=("poly",))
        config = experiments.SyntheticConfig(n_samples=6, n_test=4, runs=1, kernels=tuple(specs))
        experiments.run_synthetic(config)
    finally:
        undo()
    assert experiments.run_synthetic.__module__ == "spectrunc.experiments"
    (sweep,) = tracer.named("experiments.run_synthetic")
    cells = tracer.named("experiments.cell")
    assert len(cells) == 2 and all(c.parent == sweep.ident for c in cells)
    fits = tracer.named("regression.fit")
    assert {f.parent for f in fits} == {c.ident for c in cells}
    metrics = probes.layer_metrics(tracer)
    assert metrics["experiments.cells"] == 2
    assert metrics["kernels.gram.pairs"] == 2 * 21
    assert metrics["kernels.cross.pairs"] == 2 * 4 * 6
    assert metrics["kernels.gram.s"] == pytest.approx(
        metrics["kernels.gram.poly.s"] + metrics["kernels.gram.limit.s"])


SPIED = ("_poly_columns", "_prod_pair_values", "_folded_pair_sn", "_smooth_tuple",
         "_inf_values_block", "_sep_blocks")


def _dispatched_route(called: set[str]) -> str:
    if "_folded_pair_sn" in called:
        return "prod-folded"
    if "_prod_pair_values" in called:
        return "prod-strict"
    if "_poly_columns" in called:
        return "poly"
    if "_smooth_tuple" in called:
        return "sep"
    assert called & {"_inf_values_block", "_sep_blocks"}, called
    return "limit"


@pytest.mark.parametrize("workload,spec,m", workloads.gram_cross_specs(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_route_label_matches_kernels_dispatch(monkeypatch, workload, spec, m):
    called: set[str] = set()
    for name in SPIED:
        real = getattr(kernels, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    d = len(spec.alpha) if spec.family == "poly" else 2
    grid = TorusGrid(m)
    rng = np.random.default_rng(0)
    xs = [FunctionTuple(tuple(SampledFunction(grid, rng.standard_normal(m).astype(complex))
                              for _ in range(d))) for _ in range(3)]
    for block in (lambda: kernels.gram_values(spec, xs, allow_aliasing=True),
                  lambda: kernels.cross_values(spec, xs[:2], xs, allow_aliasing=True)):
        called.clear()
        block()
        assert probes.route(spec, m) == _dispatched_route(called)


def test_workloads_reach_every_route():
    labels = {(w, probes.route(s, m)) for w, s, m in workloads.gram_cross_specs()}
    assert {r for w, r in labels if w == "synth-sweep"} == set(probes.ROUTES)
    assert {r for w, r in labels if w == "inpaint"} == {"prod-strict", "limit"}
    assert {r for w, r in labels if w == "fit-predict-1k"} == {"poly"}


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = {m["name"] for m in BENCH["per_layer"]}
    produced = set(probes.layer_metrics(Tracer()))
    assert produced | PROCESS_METRICS == declared
    assert not produced & PROCESS_METRICS


def test_interaction_table_names_declared_metrics_and_workloads():
    table = json.loads((Path(__file__).parent / "interactions.json").read_text())["interactions"]
    assert set(table) == {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    for entries in table.values():
        for entry in entries:
            assert entry["moves"] in end_to_end
            assert set(entry["on"]) <= names


def test_benchmark_file_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS) == set(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in BENCH[k]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_judge_flags_invariant_reference_and_missing_ops(monkeypatch, tmp_path):
    ref = {"rtol": 1e-8, "atol": 1e-12,
           "seeds": {"5": {"inpaint": {"inpaint/8": 0.5, "inpaint/16": 0.25}}}}
    (tmp_path / "reference.json").write_text(json.dumps(ref))
    monkeypatch.setattr(run, "HERE", tmp_path)
    good = {"ops": [["inpaint/8", 0.5 * (1 + 1e-12), True, True],
                    ["inpaint/16", 0.25, True, True]]}
    assert run.judge("inpaint", 5, [good]) == (2, [])
    drifted = {"ops": [["inpaint/8", 0.5001, True, True], ["inpaint/16", 0.25, True, True]]}
    assert run.judge("inpaint", 5, [drifted]) == (2, ["inpaint/8"])
    missing = {"ops": [["inpaint/8", 0.5, True, True]]}
    assert run.judge("inpaint", 5, [missing]) == (2, ["inpaint/16"])
    # a seed without references still checks invariants and finiteness
    other = {"ops": [["inpaint/8", float("nan"), True, True], ["cli/fit", 3.0, False, False],
                     ["identity/q1/n2/0.0", 1e-15, True, False]]}
    assert run.judge("inpaint", 6, [other]) == (3, ["inpaint/8", "cli/fit"])
