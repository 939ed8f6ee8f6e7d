"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or only a traced benchmark run would notice."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.POINTS:
        owner = importlib.import_module(f"reprogram_lab.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracer.POINTS
    assert missing == []


def test_trial_block_tuples_keep_d_at_index_3(monkeypatch):
    # The tracer groups the spans under a trial block by args[0][3].
    from reprogram_lab import verify

    seen = []
    for name in ("_theorem1_block", "_corollary1_block"):
        original = getattr(verify, name)

        def recorder(args, name=name, original=original):
            seen.append((name, args[3]))
            return original(args)

        monkeypatch.setattr(verify, name, recorder)
    cfg = verify.Theorem1Config(
        d=16, k=7, rho=16**0.3, tau=0.5, gamma=0.01, gamma_dag=0.01, trials=6, seed=1,
    )
    verify.theorem1_montecarlo(cfg)
    verify.corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), trials=6, seed=1)
    theorem1, corollary1 = "_theorem1_block", "_corollary1_block"
    assert seen == [(theorem1, 16)] * 2 + [(corollary1, 16)] * 2 + [(corollary1, 32)] * 2
