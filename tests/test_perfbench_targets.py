"""The benchmark still runs against this program.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` are loaded read-only
from their files.  Deleting or renaming a traced function, or a name a
workload calls, fails here instead of breaking ``perfbench/run.py``: every
public name the tracer patches must exist, and the tiny pass of each
workload must check out and reproduce ``perfbench/pinned.json``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(filename):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{filename[:-3]}", PERFBENCH / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves():
    targets = _load("tracer.py").TARGETS
    assert targets
    missing = []
    for modname, qual in targets:
        obj = importlib.import_module(f"arakgrid.{modname}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert missing == []


def test_tiny_workloads_reproduce_their_pins(tmp_path):
    wl = _load("workloads.py")
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    wrong = []
    for name, build in wl.BUILDERS.items():
        workload = build(ROOT, tmp_path, wl.DEFAULT_SEED, pins, tiny=True)
        assert workload.ops, name
        for op in workload.ops:
            ctx = {}
            for _, step in op.steps:
                step(ctx)
            got, reason = op.outcome(ctx), op.verify(ctx)
            if reason is not None or got != pins[name].get(op.name):
                wrong.append(f"{name}: {op.name}: {reason or got}")
    assert wrong == []
