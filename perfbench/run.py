"""Time to verdict for one benchmark workload.

    python3 perfbench/run.py --workload mc_wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run first times set-up: several
fresh interpreters that each import ``reprogram_lab`` from ``src/`` and
make one warm-up call of the workload.  It then repeats workload runs at
the given seed until ``--seconds`` have passed, and at least twice (four
times when tracing, two of each kind), so that every run after the first
can be checked to replay the first one's verdict text.

With ``--trace 0`` every run is untraced and the result holds the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` untraced and
traced runs alternate and the result holds its per-layer metrics; the
spans go to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The
environment (``nproc``, Python, numpy, BLAS and its thread count) is
printed on the ``env`` line and saved with the result object in
``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts suite verdicts; a verdict fails if its suite fails or raises, if
theorem1 is vacuous or hit construction errors, or if its text (without
the runtime line) differs from the first run's.  The BLAS environment is
left as the user has it; the thread count it gives is reported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
MIN_RUNS = 2
# No run beyond the first MIN_RUNS starts if it would, at the last run's
# pace, end later than this many seconds after the first began; keeps a
# traced ``flow`` run (about 25 s a workload run) inside 180 s when the
# machine slows down.
RUNS_CAP_S = 140.0
SETUP_TIMEOUT_S = 120

# Runs a fresh interpreter's import of the library plus one warm-up call.
_SETUP_CODE = """
import sys
src, here, name, seed = sys.argv[1:]
sys.path[:0] = [src, here]
import workloads
for suite in workloads.WORKLOADS[name](int(seed), **workloads.TINY[name]):
    suite()
"""


def source_present() -> bool:
    return (SRC / "reprogram_lab" / "__init__.py").is_file()


def _blas_threads() -> int | None:
    import numpy as np

    # numpy's wheels bundle OpenBLAS beside the package; loading the same
    # file again returns the handle numpy already holds.
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment() -> dict:
    import numpy as np

    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    else:
        nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall seconds of each fresh-interpreter import and warm-up call."""
    times = []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), name, str(seed)],
            cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return times


def _strip_runtime(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("runtime_seconds")
    )


def _verdict_failed(verdict) -> bool:
    if not verdict.passed:
        return True
    if verdict.name == "theorem1":
        return bool(verdict.measured["vacuous"]) or verdict.measured["construction_errors"] > 0
    return False


@dataclass
class Run:
    """One workload run: every suite of the workload, called in order."""

    wall_s: float
    cpu_s: float
    texts: list  # verdict text without the runtime line; None if the suite raised
    failed: list
    traced: bool


def run_once(suites: list, traced: bool = False) -> Run:
    from reprogram_lab.verify import verdict_to_text

    texts, failed = [], []
    started, cpu_started = time.perf_counter(), time.process_time()
    for suite in suites:
        try:
            verdict = suite()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            texts.append(None)
            failed.append(True)
            continue
        texts.append(_strip_runtime(verdict_to_text(verdict)))
        failed.append(_verdict_failed(verdict))
    wall_s, cpu_s = time.perf_counter() - started, time.process_time() - cpu_started
    return Run(wall_s, cpu_s, texts, failed, traced)


def run_workload(suites: list, seconds: float, tracer=None) -> list[Run]:
    """Repeat workload runs until ``seconds`` have passed, at least MIN_RUNS
    times.  With a tracer, untraced and traced runs alternate, at least
    MIN_RUNS of each kind unless that would pass RUNS_CAP_S."""
    runs: list[Run] = []
    minimum = MIN_RUNS if tracer is None else 2 * MIN_RUNS
    started = time.perf_counter()

    def more() -> bool:
        if len(runs) < MIN_RUNS:
            return True
        now = time.perf_counter()
        wanted = len(runs) < minimum or now < started + seconds
        return wanted and now + runs[-1].wall_s < started + RUNS_CAP_S

    while more():
        if tracer is not None and len(runs) % 2 == 1:
            tracer.run = len(runs)
            with tracer:
                runs.append(run_once(suites, traced=True))
        else:
            runs.append(run_once(suites))
    reference = runs[0].texts
    for run in runs[1:]:
        run.failed = [
            bad or text is None or text != ref
            for bad, text, ref in zip(run.failed, run.texts, reference)
        ]
    return runs


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten values above it, as
    (percentile, value), when that percentile is at or above the median."""
    n = len(values)
    if n < 21:
        return None
    index = n - 11
    return 100.0 * index / (n - 1), sorted(values)[index]


def _describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.4f} {unit} over {len(values)} runs"
    spread = tail(values)
    if spread is None:
        return line + " (a tail percentile needs 21 runs)"
    return line + f", p{spread[0]:.0f} {spread[1]:.4f} {unit}"


def benchmark(name: str, seed: int, seconds: float, trace: bool, spec: dict,
              sizes: dict | None = None) -> tuple[list[str], dict]:
    """Set up and measure one workload; returns the report lines and the
    result object.  ``sizes`` overrides the workload's size parameters."""
    import tracer as tracing
    import workloads

    env = environment()
    setup = measure_setup(name, seed)
    suites = workloads.WORKLOADS[name](seed, **(sizes or {}))
    tracer = tracing.Tracer() if trace else None
    runs = run_workload(suites, seconds, tracer)
    plain = [r for r in runs if not r.traced]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             "env " + json.dumps(env),
             _describe("verdict_s", [r.wall_s for r in plain], "s")]
    if trace:
        traced = [r for r in runs if r.traced]
        lines.append(_describe("traced verdict_s", [r.wall_s for r in traced], "s"))
        values = tracing.median_metrics([tracer.layer_metrics(r) for r in tracer.runs()])
        values["trace.overhead_share"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain) - 1.0
        )
        first = tracer.runs()[0]
        for row, shares in tracer.shares(first, runs[first].wall_s).items():
            lines.append(f"self-time shares ({row}): " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in shares.items()))
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        values = {
            "verdict_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        lines.append(_describe("cpu_s", [r.cpu_s for r in plain], "s"))
        lines.append(_describe("setup_s", setup, "s") + "; each: "
                     + ", ".join(f"{t:.4f}" for t in setup) + " s")
        wanted = spec["end_to_end"]

    attempted = sum(len(r.failed) for r in runs)
    failed = sum(sum(r.failed) for r in runs)
    lines.append(f"fail_share: {failed}/{attempted} = {failed / attempted:g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({**result, "env": env}, indent=1) + "\n")
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not source_present():
        print(f"perfbench: no reprogram_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    lines, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
