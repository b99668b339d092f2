"""A committed mutant table and its runner.

Each mutant is one exact text edit of a package file, with the test node
ids that must fail once it is applied.  The runner applies each mutant to a
fresh copy of ``src/`` in a temporary directory and runs only its tests,
with ``PYTHONPATH`` on the copy:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 4      # the mutants at these table indices

It exits non-zero when a mutant survives (its tests pass), when its old
text is not found exactly once, or when pytest cannot run its tests.  A
surviving mutant is a finding: add a test example that kills it, or log why
it is equivalent; never drop it to get a green run.  pytest does not collect
this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

B = "tests/test_builder.py::"
L = "tests/test_loglift.py::"

# (file under src/arakgrid, exact old text, new text, tests expected to fail)
MUTANTS = [
    # cells an earlier annulus's disks covered get disks again
    ("builder.py",
     "todo = obstacles.bits & ann & ~covered",
     "todo = obstacles.bits & ann",
     [B + "TestDiskCoverMatchesReference::test_edge_cases"]),
    # dist(x, F) no longer bit-equal to the distance field's sqrt(d2) * delta
    ("builder.py",
     "math.sqrt(d2) * grid.delta / 2.0",
     "math.sqrt(d2 * grid.delta ** 2) / 2.0",
     [B + "TestDiskCoverMatchesReference::test_edge_cases[non-dyadic-radius]"]),
    # a segment's box cells past its ends count as hit
    ("grid.py",
     "    tmin[(tmin > 1.0) | (tmax < 0.0)] = np.nan\n",
     "",
     ["tests/test_grid.py::TestSegmentRasterTwin::test_box_edge_ties"]),
    # the widest row band stops one column short of the array's width
    ("topology.py",
     "half = min(math.isqrt(t - 1 - a * a), ncols - 1)",
     "half = min(math.isqrt(t - 1 - a * a), ncols - 2)",
     ["tests/test_topology.py::TestDilate::test_edge_cases_every_threshold"]),
    # a cell beside a visible complement cell no longer reaches alpha
    ("topology.py",
     "near = alpha if self.fills_window else dilate(~self.omega.bits, 2) | alpha",
     "near = alpha",
     ["tests/test_topology.py::TestHoles::test_puncture_releases_inner_component"]),
    # escape routing reads another exhaustion than the one the cover walked
    ("builder.py",
     "levels = build_exhaustion(region, 3).levels",
     "levels = build_exhaustion(region, 2).levels",
     [B + "TestEscapeRoutesMatchReference::test_paths_unchanged"]),
    # a disk's cell box at half its radius (the disk cover's reference draws
    # its disks through this box too, so the sampling oracle kills it)
    ("grid.py",
     "cx - r - eps, cy - r - eps, cx + r + eps, cy + r + eps",
     "cx - r / 2 - eps, cy - r / 2 - eps, cx + r / 2 + eps, cy + r / 2 + eps",
     ["tests/test_grid.py::TestRasterize::test_circle_matches_sampling_oracle"]),
    # an edge inside one sample id adds 0.0, not the phase of z / z
    ("loglift.py",
     "math.atan2(q.imag, q.real) if m else 0.0",
     "0.0 if m else 0.0",
     [L + "TestUnwrapOracle::test_matches_oracle_on_repeated_samples"]),
    # a tree edge compares its cell's id with itself, not with its parent's
    ("loglift.py",
     "at[r:] != ids[parents[r:]]",
     "at[r:] != ids[cells[r:]]",
     [L + "TestUnwrapOracle::test_matches_oracle_on_lifted_neighborhood"]),
    # a cross edge's quotient key forgets its parent's id
    ("loglift.py",
     "+ ids[parents[cross]], return_inverse=True)",
     ", return_inverse=True)",
     [L + "TestUnwrapOracle::test_matches_oracle_on_lifted_neighborhood"]),
    # each label's first cell in row-major order, not the lex-smallest (i, j)
    ("topology.py",
     "head = np.ones(self.labels.shape[::-1], dtype=bool)     # run starts\n"
     "        head[:, 1:] = (self.labels[1:] != self.labels[:-1]).T\n"
     "        i, j = np.divmod(np.flatnonzero(head), self.labels.shape[0])",
     "head = np.ones(self.labels.shape, dtype=bool)\n"
     "        head[1:] = self.labels[1:] != self.labels[:-1]\n"
     "        j, i = np.divmod(np.flatnonzero(head), self.labels.shape[1])",
     ["tests/test_topology.py::TestFirstCells"]),
]


# pytest in a process that has imported the package from the copy, or exit 99
_PYTEST_ON_COPY = """import sys, arakgrid, pytest
if not arakgrid.__file__.startswith(sys.argv[1]):
    sys.exit(99)
sys.exit(pytest.main(sys.argv[2:]))
"""


def run_mutant(file: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'survived', 'missing' (old text not found exactly once) or
    'error: <pytest exit code>' (pytest could not run the tests)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "arakgrid" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "missing"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-c", _PYTEST_ON_COPY, str(src),
             "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed, 0 when all passed
    return {0: "survived", 1: "killed"}.get(proc.returncode,
                                            f"error: {proc.returncode}")


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    for k in picked:
        file, old, new, tests = MUTANTS[k]
        t0 = time.perf_counter()
        outcome = run_mutant(file, old, new, tests)
        bad += outcome != "killed"
        print(f"mutant {k} ({file}: {old.strip()!r}): {outcome} "
              f"in {time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{len(picked) - bad} of {len(picked)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
