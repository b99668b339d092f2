"""arakgrid benchmark: one closed-loop workload per run.

    python3 perfbench/run.py [--workload fixtures|sweep|batch|all] \\
        [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` (or with ``all``) the three workloads run one after
the other, each in its own interpreter.

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  After a warm-up, whole passes over the workload's fixed
operation list repeat until another would exceed ``--seconds`` (at least
one).  Every output is checked; failures count against ``attempted``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters importing ``arakgrid.cli``), per-pass wall time and per-pass
time in each subcommand, and peak resident memory.  A pass time is the sum
over the operation list of each operation's median time, scaled to a
reference CPU speed: a fixed calibration loop runs between operations
every CAL_INTERVAL_S, and each execution's times are multiplied by
CAL_REF_S over the median of the CAL_NEAR calibration times nearest to it.
On a shared 2-CPU host the CPU speed drifts by up to a half for seconds to
tens of seconds: over six 30 s runs the raw pass time spread 0.20-0.44
(quartile distance over median), the scaled one 0.06-0.09.  Scaling each
execution by its nearest calibrations rather than by the run's median was
steadier on most metrics in six-run comparisons (sweep wall_s 0.09
against 0.15).
``--trace 1`` spends half the time untraced and half traced, and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead; its spans are
written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np                          # noqa: E402
from scipy import ndimage                   # noqa: E402

import tracer as tr                         # noqa: E402
import workloads as wl                      # noqa: E402

SETUP_RUNS = 5
CAL_INTERVAL_S = 0.25   # least time between two calibration samples
CAL_NEAR = 5            # calibration samples that set one execution's speed
CAL_REF_S = 0.015       # calibration median on the host the bounds were set on
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import arakgrid.cli; "
              "print(time.perf_counter() - t)")
MAX_REPORTED_FAILURES = 5


class ProgramMissing(Exception):
    pass


def import_program(root: Path):
    """Import ``arakgrid`` from the checkout's ``src/``, never from elsewhere."""
    src = root / "src"
    if not (src / "arakgrid" / "cli.py").is_file():
        raise ProgramMissing(f"no arakgrid sources under {src}")
    if not (root / "scenes").is_dir():
        raise ProgramMissing(f"no scenes directory under {root}")
    sys.path.insert(0, str(src))
    import arakgrid.cli
    if Path(arakgrid.cli.__file__).resolve().parent != (src / "arakgrid").resolve():
        raise ProgramMissing(f"imported arakgrid from {arakgrid.cli.__file__}")


def measure_setup(root: Path) -> float:
    """Median seconds to import arakgrid.cli in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE,
                               str(root / "src")], cwd=root, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


_CAL_BITS = np.random.default_rng(0).random((256, 256)) < 0.55


def calibrate() -> float:
    """Seconds for a fixed mix of array passes and interpreted loops, the
    two kinds of work arakgrid does; it gauges the CPU's current speed."""
    t0 = time.perf_counter()
    ndimage.label(_CAL_BITS)
    ndimage.binary_dilation(_CAL_BITS, iterations=3)
    ndimage.distance_transform_edt(_CAL_BITS)
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


class Runner:
    """Runs operations, times their steps and checks their outputs.

    ``samples`` maps each operation to the per-subcommand seconds of every
    successful execution in the current measurement; ``calibration`` holds
    the ``calibrate()`` times taken between operations meanwhile.
    """

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.tracer: tr.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict[str, str] = {}
        self.samples: dict[str, list[dict]] = {}
        self.sample_at: dict[str, list[float]] = {}
        self.calibration: list[float] = []
        self.cal_at: list[float] = []
        self._last_cal = 0.0

    def fail(self, op: wl.Op, reason: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {self.workload.name}: {op.name}: {reason}",
                  file=sys.stderr)

    def run_op(self, op: wl.Op):
        self.attempted += 1
        ctx: dict = {}
        times = dict.fromkeys((c for c, _ in op.steps), 0.0)
        tracer = self.tracer if self.tracer and self.tracer.enabled else None
        if tracer:
            op_span = tracer.open("op", op=op.name, family=op.family,
                                  cells=op.cells)
        error = None
        t_op = time.perf_counter()
        try:
            for command, step in op.steps:
                if tracer:
                    span = tracer.open("step", command=command)
                t0 = time.perf_counter()
                try:
                    step(ctx)
                finally:
                    times[command] += time.perf_counter() - t0
                    if tracer:
                        tracer.close(span)
        except Exception:
            error = traceback.format_exc(limit=3).strip()
        finally:
            if tracer:
                tracer.close(op_span)
        if error is not None:
            self.fail(op, error)
            return
        if tracer:
            tracer.enabled = False      # checks are not the program's work
        try:
            got = op.outcome(ctx)
            reason = op.verify(ctx)
        except Exception:
            reason, got = traceback.format_exc(limit=3).strip(), None
        finally:
            if tracer:
                tracer.enabled = True
        self.outcomes[op.name] = got
        pins = self.workload.pins
        if reason is None and pins is not None and pins.get(op.name) != got:
            reason = f"outcome {got} differs from pinned {pins.get(op.name)}"
        if reason is not None:
            self.fail(op, reason)
        else:
            self.samples.setdefault(op.name, []).append(times)
            self.sample_at.setdefault(op.name, []).append(t_op)
        if time.perf_counter() - self._last_cal >= CAL_INTERVAL_S:
            self._last_cal = time.perf_counter()
            self.calibration.append(calibrate())
            self.cal_at.append(self._last_cal)

    def run_pass(self, ops):
        tracer = self.tracer if self.tracer and self.tracer.enabled else None
        root = tracer.open("pass") if tracer else None
        for op in ops:
            self.run_op(op)
        if root is not None:
            tracer.close(root)

    def run_for(self, seconds: float):
        """Whole passes until another one would overrun ``seconds``."""
        self.samples, self.sample_at = {}, {}
        self._last_cal = t0 = time.perf_counter()
        self.calibration, self.cal_at = [calibrate()], [t0]
        n = 0
        while True:
            self.run_pass(self.workload.ops)
            n += 1
            if (time.perf_counter() - t0) * (n + 1) / n > seconds:
                return

    def scales(self, name: str) -> list[float]:
        """Speed factor of each execution of an operation: CAL_REF_S over
        the median of the CAL_NEAR calibration times nearest to it."""
        out = []
        for t in self.sample_at[name]:
            k = bisect.bisect_left(self.cal_at, t)
            lo = max(0, min(k - CAL_NEAR // 2, len(self.cal_at) - CAL_NEAR))
            out.append(CAL_REF_S / statistics.median(
                self.calibration[lo:lo + CAL_NEAR]))
        return out

    def summary(self) -> tuple[float, dict]:
        """Per-pass wall time and per-subcommand time, in seconds at the
        reference CPU speed: sums over the operation list of the median of
        each operation's executions, each scaled by its speed factor."""
        per_cmd = dict.fromkeys(wl.COMMANDS, 0.0)
        wall = 0.0
        for name, ts in self.samples.items():
            sc = self.scales(name)
            for c in ts[0]:
                per_cmd[c] += statistics.median(t[c] * f
                                                for t, f in zip(ts, sc))
            wall += statistics.median(sum(t.values()) * f
                                      for t, f in zip(ts, sc))
        return wall, per_cmd


def end_to_end(runner: Runner, seconds: float, root: Path) -> dict:
    runner.run_for(seconds)
    wall, per_cmd = runner.summary()
    cal = statistics.median(runner.calibration)
    print(f"calibration: median {cal:.6f} s over {len(runner.calibration)} "
          f"samples; times scaled by {CAL_REF_S / cal:.4f}")
    metrics = {"setup_s": (measure_setup(root), "s"), "wall_s": (wall, "s")}
    for c in wl.COMMANDS:
        metrics[f"{c}_s"] = (per_cmd[c], "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict:
    runner.run_for(seconds / 2)
    plain_wall, _ = runner.summary()
    tracer = tr.Tracer()
    runner.tracer = tracer
    tracer.install()
    tracer.enabled = True
    try:
        runner.run_for(seconds / 2)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    traced_wall, _ = runner.summary()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    values = tr.layer_metrics(tracer.spans)
    values.update(tr.growth_metrics(tracer.spans))
    values["trace.overhead_ratio"] = \
        traced_wall / plain_wall if plain_wall else 0.0
    return {name: (values[name], unit) for name, unit in tr.per_layer_names()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, pins: dict | None = None) -> dict:
    """Build, warm up and measure one workload; returns the result object."""
    if pins is None:
        pins = json.loads((HERE / "pinned.json").read_text())
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.BUILDERS[name](ROOT, tmp, seed, pins, tiny=tiny)
        runner = Runner(workload)
        runner.run_pass(workload.warmup)
        if trace:
            spans = ROOT / ".perfbench_out" / f"trace-{name}-{seed}.jsonl"
            metrics = per_layer(runner, seconds, spans)
        else:
            metrics = end_to_end(runner, seconds, ROOT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ratio = runner.failed / runner.attempted
    print(f"{'fail_ratio':40s} {ratio:14.6g} ratio "
          f"({runner.failed}/{runner.attempted})")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:40s} {value:14.6g} {unit}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own interpreter, so that peak memory is its own;
    the last line merges the results with metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.BUILDERS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v
                                  for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(wl.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_program(ROOT)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
