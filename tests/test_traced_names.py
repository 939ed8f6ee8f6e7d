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
