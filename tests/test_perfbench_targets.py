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


def test_tiny_batch_pass_labelings(tmp_path, monkeypatch):
    # the timed steps of one op of each batch kind, each op checked after
    # its steps: check 3 and build_v 1, holes 1 (the refute that follows
    # reads it back), the union's 8 distinct domains and the lift's 1.  A
    # lost shortcut (a labeled exhaustion level, an empty domain
    # labeled, a hole set not shared) raises the count
    from arakgrid import topology
    wl = _load("workloads.py")
    pins = json.loads((PERFBENCH / "pinned.json").read_text())
    workload = wl.batch(ROOT, tmp_path, wl.DEFAULT_SEED, pins, tiny=True)
    calls = []
    label = topology.ndimage.label
    monkeypatch.setattr(topology.ndimage, "label",
                        lambda *a, **k: calls.append(1) or label(*a, **k))
    timed = 0
    for op in workload.ops:             # as perfbench/run.py issues them
        ctx = {}
        for _, step in op.steps:
            before = len(calls)
            step(ctx)
            timed += len(calls) - before
        assert op.verify(ctx) is None
    assert sorted(op.name.split()[0] for op in workload.ops) == \
        ["lift", "open", "ring", "union"]
    assert timed == 14
