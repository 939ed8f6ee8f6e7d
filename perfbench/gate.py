"""Correctness gate: run every workload and print its end-to-end metrics.

    python3 perfbench/gate.py [--seed 97531]

Each workload runs in its own process through ``perfbench/run.py`` with
tracing off, so each peak-memory figure is that workload's alone.  Prints
the run's report lines, among them ``fail_share`` (the share of suite
verdicts that failed), and every end-to-end metric by name with its unit.
Exits 1 when any verdict failed or a run did not finish, else 0.
Each run lasts ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=97531)
    args = parser.parse_args(argv)

    bad = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {proc.returncode}\n{proc.stderr}")
            bad += 1
            continue
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
        if result["failed"] or not result["correct"]:
            print(proc.stderr, end="")
            bad += 1
    print("gate: FAIL" if bad else "gate: PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
