"""The benchmark's own tests, at tiny scale.

    python3 -m pytest -q perfbench

They check that every metric named in BENCHMARK.json is emitted, that
tracing changes no verdict, and that the tracer puts back every name it
rebinds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reprogram_lab import numerics  # noqa: E402
from reprogram_lab.verify import SuiteVerdict  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 4242

# The span names each workload reaches; a layer's metrics read 0 elsewhere.
_MONTE_CARLO = {
    "numerics.gaussian", "numerics.uniform", "numerics.min_norm_solve",
    "network.random_init", "network.forward",
    "data_models.random_hypercube_direction", "data_models.sample_bernoulli",
    "reprogram.construct_program", "verify.suite",
}
REACHES = {
    "mc_wide": _MONTE_CARLO,
    "mc_narrow": _MONTE_CARLO,
    "flow": {
        "numerics.gaussian", "numerics.uniform", "numerics.singular_extremes",
        "network.forward_batch", "data_models.sample_bernoulli",
        "data_models.generate_orthosep", "reprogram.optimize_program",
        "reprogram.reprogrammed_accuracy", "gradient_flow.train",
        "gradient_flow.balanced_live_init", "verify.train_to_directional_limit",
        "verify.suite", "maxmargin.max_margin_vector",
    },
}


def tiny_suites(name):
    return workloads.WORKLOADS[name](SEED, **workloads.TINY[name])


def bindings():
    """Every name in the package's modules and on SeededRng, by identity."""
    owners = tracer._package_modules() + [numerics.SeededRng]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    lines, result = run.benchmark(name, SEED, 0.0, trace, SPEC, workloads.TINY[name])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    runs = 2 * run.MIN_RUNS if trace else run.MIN_RUNS
    assert result["attempted"] == runs * len(tiny_suites(name))
    assert lines[-1].startswith("fail_share: ")
    record = json.loads(
        (run.ROOT / ".perfbench" / f"result-{name}-seed{SEED}-trace{int(trace)}.json").read_text()
    )
    assert record == {**result, "env": record["env"]}
    assert set(record["env"]) == {"nproc", "python", "numpy", "blas", "blas_threads"}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_cover_exactly_the_layers_the_workload_reaches(name):
    with tracer.Tracer() as spans:
        run.run_once(tiny_suites(name), traced=True)
    assert {span.name for span in spans.spans} == REACHES[name]
    metrics = spans.layer_metrics(0)
    for layer in REACHES[name]:
        key = f"{layer}.self_s"
        if key in metrics:
            assert metrics[key] > 0, key


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_verdicts_are_identical(name):
    runs = run.run_workload(tiny_suites(name), 0.0, tracer.Tracer())
    assert [r.traced for r in runs] == [False, True] * run.MIN_RUNS
    assert None not in runs[0].texts
    assert all(r.texts == runs[0].texts for r in runs)


def test_every_wrapped_name_is_restored():
    before = bindings()
    with tracer.Tracer() as spans:
        during = bindings()
        run.run_once(tiny_suites("mc_wide"), traced=True)
    assert bindings() == before
    rebound = {key for key in before if during[key] is not before[key]}
    assert len(rebound) >= len(tracer.POINTS)
    assert spans.spans


def test_names_are_restored_when_traced_code_raises():
    before = bindings()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            numerics.SeededRng(0).random(-1)
    assert bindings() == before


def test_a_verdict_that_does_not_replay_counts_as_failed():
    counter = iter(range(100))

    def drifting():
        return SuiteVerdict(name="probe", passed=True, seed=0, runtime_seconds=0.0,
                            measured={"value": next(counter)})

    first, second = run.run_workload([drifting], 0.0)
    assert first.failed == [False]
    assert second.failed == [True]


def test_source_check_rejects_a_tree_without_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc_wide", "--seed", "1", "--seconds", "1"]) == 2


def test_no_run_past_the_cap_beyond_the_minimum(monkeypatch):
    monkeypatch.setattr(run, "RUNS_CAP_S", 0.0)
    runs = run.run_workload(tiny_suites("mc_wide"), 0.0, tracer.Tracer())
    assert [r.traced for r in runs] == [False, True]
