"""Stored goldens: the ``--json`` report of every criterion-7 job and the
four criterion-7 renders, plus the construction on a bounded region,
compared byte for byte.

A changed output is a deliberate golden update: regenerate with
``PYTHONPATH=src python tests/test_goldens.py`` and log it in CHANGES.md.
"""

import contextlib
import io
import os

import pytest

from arakgrid.cli import run_cli

HERE = os.path.dirname(os.path.abspath(__file__))
SCENES = os.path.join(HERE, os.pardir, "scenes")
GOLDEN = os.path.join(HERE, "golden")

# (golden file name, argv with scene names relative to scenes/)
JOBS = [
    ("check_ex_2_10.json", ["check", "ex_2_10.scene"]),
    ("check_ex_2_10_F1.json", ["check", "ex_2_10.scene", "--set", "F1"]),
    ("check_segment.json", ["check", "segment.scene"]),
    ("check_intro_staircase_windows.json",
     ["check", "intro_staircase.scene", "--windows", "8,16,32"]),
    ("check_ex_2_11_windows.json",
     ["check", "ex_2_11.scene", "--windows", "8,16,32"]),
    ("build_v_segment.json", ["build-v", "segment.scene"]),
    ("refute_nested_rings.json", ["refute", "nested_rings.scene"]),
    ("union_union_segments.json", ["union", "union_segments.scene"]),
    ("loglift_loglift_line.json", ["loglift", "loglift_line.scene"]),
    ("holes_intro_staircase_with_k.json",
     ["holes", "intro_staircase.scene", "--set", "F", "--with-k", "disk:0,0,2"]),
    # a bounded region: alpha-adjacency's inner-complement term, the frame
    # gaps of undeclared edges and the box scan behind disk radii
    ("build_v_disk_obstacles.json", ["build-v", "disk_obstacles.scene"]),
    ("check_disk_obstacles.json", ["check", "disk_obstacles.scene"]),
]

# (golden file name, scene, layers, format)
RENDERS = [
    ("render_segment_all.svg", "segment.scene", "F,U,V,disks,curves", "svg"),
    ("render_intro_staircase_holes.svg", "intro_staircase.scene", "F,holes", "svg"),
    ("render_nested_rings_holes.svg", "nested_rings.scene", "F,holes", "svg"),
    ("render_segment_fv.ppm", "segment.scene", "F,V", "ppm"),
    ("render_disk_obstacles_all.svg", "disk_obstacles.scene",
     "F,U,V,disks,curves", "svg"),
]


def _scene(argv):
    return [argv[0], os.path.join(SCENES, argv[1]), *argv[2:]]


def json_report(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(_scene(argv) + ["--json"])
    return code, out.getvalue().encode("utf-8")


def render_bytes(scene, layers, fmt, out_path) -> bytes:
    extra = ["--with-k", "disk:0,0,2"] if "holes" in layers else []
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(["render", os.path.join(SCENES, scene), "-o",
                        str(out_path), "--layers", layers, "--format", fmt]
                       + extra)
    assert code == 0
    with open(out_path, "rb") as fh:
        return fh.read()


def _golden(name) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv", JOBS, ids=[j[0] for j in JOBS])
def test_json_report_matches_golden(name, argv):
    _, data = json_report(argv)
    assert data == _golden(name), f"report of {argv} differs from {name}"


@pytest.mark.parametrize("name,scene,layers,fmt", RENDERS,
                         ids=[r[0] for r in RENDERS])
def test_render_matches_golden(name, scene, layers, fmt, tmp_path):
    data = render_bytes(scene, layers, fmt, tmp_path / name)
    assert data == _golden(name), f"render {name} differs from its golden"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in JOBS:
        _, data = json_report(argv)
        with open(os.path.join(GOLDEN, name), "wb") as fh:
            fh.write(data)
    for name, scene, layers, fmt in RENDERS:
        render_bytes(scene, layers, fmt, os.path.join(GOLDEN, name))
