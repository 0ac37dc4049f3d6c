"""Regenerate ``reference.json``: the outputs every workload should give
for the default seed and one held-out seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's numbers; the
benchmark compares against these values with relative tolerance ``RTOL``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = (0, 20240527)           # default seed, held-out seed
# the BLAS thread count alone moves the 15th digit of a test error
RTOL = 1e-8
ATOL = 1e-12


def main() -> None:
    work = HERE.parent / ".perfbench-work" / "reference"
    seeds = {}
    try:
        for seed in SEEDS:
            per_workload = {}
            for name, (setup, run, check) in workloads.WORKLOADS.items():
                state = setup(seed, work / f"{name}-{seed}")
                ops = check(state, run(state))
                bad = [op.key for op in ops if not op.ok]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: failed operations {bad}")
                per_workload[name] = {op.key: op.value for op in ops if op.compare}
            seeds[str(seed)] = per_workload
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"rtol": RTOL, "atol": ATOL, "seeds": seeds}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
