"""spectrunc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload synth-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Each measurement runs in a fresh child process (``child.py``), one workload
at a time, as a closed loop with a single caller; the benchmark adds no
threads.  The measuring children run with ``OPENBLAS_NUM_THREADS=1`` (and
``OMP_NUM_THREADS=1``) and the program's own sweep-worker default, one per
core: at the BLAS default every sweep worker drives one BLAS thread per
core, which oversubscribes the cores and times the scheduler rather than
the program (the traced run reports that cost as ``threads.*``).

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
It starts measuring children one after the other, each running the timed
section once, until ``--seconds`` have passed and at least ``MIN_CHILDREN``
ran.  On a shared host the same section drifts by up to ~20% over tens of
seconds (``fejer-diagnostics``, ``fit-predict-1k``), so every value is a
median over processes spread across the run:

- ``wall_s``: median seconds of the workload's timed section;
- ``setup_s``: median seconds from process start to the start of the
  timed section (interpreter, imports, input generation, and for
  ``fit-predict-1k`` the dataset written to disk);
- ``peak_rss_mib``: median of the children's own ``ru_maxrss``.

``--trace 1`` prints the per-layer metrics instead, from four children: an
untraced one for ``--seconds / 2`` (the base of ``trace.overhead_frac`` and
``process.*``), one with the timing wrappers of ``probes.py`` swapped in,
and for ``threads.*`` one repeat each at the program's own thread defaults
and with ``OPENBLAS_NUM_THREADS=1 SPECTRUNC_WORKERS=1``.

Every operation (sweep cell, CLI command, identity check) is checked:
finite, workload invariants (identity gap <= 1e-6, exit codes 0), and for
seeds with stored reference outputs (``reference.json``) equal to them
within a relative tolerance.  The last stdout line is the JSON result with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment the children saw.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-sweep", "fit-predict-1k", "inpaint", "fejer-diagnostics")
MIN_CHILDREN = 2
DEADLINE_S = 170.0
MEASURE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "SPECTRUNC_WORKERS": "1"}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts child processes against one deadline; each child is waited for
    (and killed first if the deadline passes)."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0

    def child(self, mode: str, extra_env: dict | None = None, seconds: float = 0.0) -> dict:
        self.count += 1
        out = self.workdir / f"child{self.count}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(extra_env or {})
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(seconds),
               "--root", str(ROOT),
               "--workdir", str(self.workdir / f"w{self.count}"), "--out", str(out)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("benchmark deadline passed")
        spawned = time.monotonic()
        # the program's own prints go to stderr so stdout ends with the result
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["timed_start"] - spawned
        return result


def judge(workload: str, seed: int, children: list[dict]) -> tuple[int, list[str]]:
    """(attempted, failed operation keys) over every child's operations."""
    reference = json.loads((HERE / "reference.json").read_text())
    rtol, atol = reference["rtol"], reference["atol"]
    expected = reference["seeds"].get(str(seed), {}).get(workload, {})
    attempted, failed = 0, []
    for child in children:
        seen = set()
        for key, value, ok, compare in child["ops"]:
            attempted += 1
            seen.add(key)
            good = ok and math.isfinite(value)
            if compare and key in expected:
                good = good and abs(value - expected[key]) <= atol + rtol * abs(expected[key])
            if not good:
                failed.append(key)
        missing = sorted(set(expected) - seen)
        attempted += len(missing)
        failed += missing
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spectrunc" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workdir)
    try:
        if args.trace == 0:
            children = []
            started = time.monotonic()
            while len(children) < MIN_CHILDREN or time.monotonic() - started < args.seconds:
                children.append(runner.child("measure", MEASURE_ENV))
            values = {
                "wall_s": statistics.median(c["walls"][0] for c in children),
                "setup_s": statistics.median(c["setup_s"] for c in children),
                "peak_rss_mib": statistics.median(c["maxrss_mib"] for c in children),
            }
            specs = bench["end_to_end"]
        else:
            plain = runner.child("measure", MEASURE_ENV, args.seconds / 2)
            traced = runner.child("traced", MEASURE_ENV)
            defaults = runner.child("measure")
            single = runner.child("measure", SINGLE_THREAD_ENV)
            children = [plain, traced, defaults, single]
            wall = statistics.median(plain["walls"])
            single_wall = statistics.median(single["walls"])
            cpu = statistics.median(plain["cpus"])
            values = dict(traced["layers"])
            values.update({
                "process.cpu_s": cpu,
                "process.cpu_util": cpu / (wall * plain["environment"]["nproc"]),
                "threads.single_thread_wall_s": single_wall,
                "threads.oversubscription": statistics.median(defaults["walls"]) / single_wall,
                "trace.overhead_frac": traced["walls"][0] / wall - 1.0,
            })
            specs = bench["per_layer"]
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in specs}
        attempted, failed = judge(args.workload, args.seed, children)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": _git_sha(),
        "environment": [c["environment"] for c in children],
        "walls": [c["walls"] for c in children],
        "failed_frac": len(failed) / attempted,
        "failed_ops": failed[:20],
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
