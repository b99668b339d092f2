"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs a tiny version of each workload untraced and traced, and checks that
every metric named in BENCHMARK.json is printed and returned with its unit.
Then corrupts one pinned expectation and checks that the operation is
counted as failed.  Exits 0 when every check holds.
"""

import contextlib
import copy
import io
import json
import sys

import run
import workloads as wl


def tiny(name, trace, pins=None):
    """Run a tiny workload; returns its result, stdout lines and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run.run_workload(name, wl.DEFAULT_SEED, 0.1, trace,
                                  tiny=True, pins=pins)
    return result, out.getvalue().splitlines(), err.getvalue()


def check_metrics(result, lines, declared) -> list[str]:
    errors = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        diff = set(got) ^ {m["name"] for m in declared}
        errors.append(f"metric names differ: {sorted(diff)}")
    for m in declared:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {entry['unit']} != {m['unit']}")
        if not any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"]
                   for ln in lines):
            errors.append(f"{m['name']}: not printed with its unit")
    return errors


def main() -> int:
    run.import_program(run.ROOT)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in wl.BUILDERS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines, err = tiny(name, trace)
            where = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: {result['failed']} failed "
                              f"operations\n{err}")
            errors += [f"{where}: {e}"
                       for e in check_metrics(result, lines, bench[key])]
            if not any(ln.startswith("fail_ratio") for ln in lines):
                errors.append(f"{where}: fail_ratio not printed")

    pins = json.loads((run.HERE / "pinned.json").read_text())
    wrong = copy.deepcopy(pins)
    victim = "refute nested_rings.scene --json"
    wrong["fixtures"][victim] = "1:" + "0" * 20
    result, lines, err = tiny("fixtures", False, pins=wrong)
    if result["correct"] or result["failed"] < 1 or victim not in err:
        errors.append("a wrong pinned expectation was not counted as failed")
    ratio = [ln for ln in lines if ln.startswith("fail_ratio")]
    if not ratio or float(ratio[0].split()[1]) <= 0:
        errors.append("fail_ratio stays 0 with a wrong pinned expectation")

    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
