"""Run one workload in this (fresh) process and write what it saw as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; never imported.  Modes:

- ``measure``: set up, then repeat the timed section until ``--seconds``
  have passed, and at least once, tracing off;
- ``traced``: swap the timing wrappers in, set up, run the timed section
  once, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _openblas() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded (numpy and
    scipy each bundle their own)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"lib": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info["threads"] = threads()
                info["config"] = config().decode()
                break
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy
    from spectrunc import experiments

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "sweep_workers": experiments.worker_count(),
        "env": {k: os.environ.get(k) for k in
                ("SPECTRUNC_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("measure", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    src = Path(args.root, "src").resolve()
    import spectrunc
    if Path(spectrunc.__file__).resolve().parent.parent != src:
        raise SystemExit(f"spectrunc imported from {spectrunc.__file__}, not {src}")

    tracer = undo = None
    if args.mode == "traced":
        import probes
        from spans import Tracer
        tracer = Tracer()
        undo = probes.install(tracer)
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, Path(args.workdir))
    timed_start = time.monotonic()
    walls, cpus, ops = [], [], []
    while True:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outputs = run(state)
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        if undo is not None:
            undo()
        ops += [list(op) for op in check(state, outputs)]
        if tracer is not None or time.monotonic() - timed_start >= args.seconds:
            break
    result = dict(timed_start=timed_start, walls=walls, cpus=cpus, ops=ops,
                  maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  environment=environment())
    if tracer is not None:
        result["layers"] = probes.layer_metrics(tracer)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
