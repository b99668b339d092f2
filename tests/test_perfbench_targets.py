"""Every public name the benchmark tracer patches still exists.

``perfbench/tracer.py`` is loaded read-only from its file; deleting or
renaming a traced function fails here instead of breaking
``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves():
    targets = _tracer().TARGETS
    assert targets
    missing = []
    for modname, qual in targets:
        obj = importlib.import_module(f"arakgrid.{modname}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert missing == []
