"""Regenerate ``pinned.json`` from the program in this checkout.

    python3 perfbench/pin.py

Runs every operation of each workload once at the default seed and records
its outcome digest (exit code plus report or render bytes, or the digest of
the API results).  Use it only for a deliberate output change; the diff of
``pinned.json`` then names every output that moved.
"""

import json
import shutil

import run
import workloads as wl


def main():
    run.import_program(run.ROOT)
    pins = {}
    for name, build in wl.BUILDERS.items():
        tmp = run.ROOT / ".perfbench_tmp" / f"pin-{name}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            workload = build(run.ROOT, tmp, wl.DEFAULT_SEED, {})
            workload.pins = None
            runner = run.Runner(workload)
            runner.run_pass(workload.ops)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if runner.failed:
            raise SystemExit(f"{name}: {runner.failed} operations failed")
        pins[name] = dict(sorted(runner.outcomes.items()))
    (run.HERE / "pinned.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
