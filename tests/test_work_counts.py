"""Work counts per CLI command: component labelings, region models,
exhaustions, sphere-complement tests and boundary distance fields.

Each domain is labeled once and each fact is derived once; a change that
brings back a recompute fails one of these counts.
"""

import contextlib
import io
import os
from collections import Counter
from pathlib import Path

import pytest

from arakgrid import arakelian, builder, topology
from arakgrid.cli import run_cli

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


def scene(name):
    return os.path.join(SCENES, name)


def count_work(monkeypatch, argv) -> tuple[int, Counter]:
    counts = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(topology.ndimage, "label",
                        counting("labelings", topology.ndimage.label))
    monkeypatch.setattr(topology.RegionModel, "__post_init__",
                        counting("regions", topology.RegionModel.__post_init__))
    exh = counting("exhaustions", arakelian.build_exhaustion)
    monkeypatch.setattr(arakelian, "build_exhaustion", exh)
    monkeypatch.setattr(builder, "build_exhaustion", exh)
    monkeypatch.setattr(builder, "sphere_complement_connected",
                        counting("sphere_tests",
                                 builder.sphere_complement_connected))
    monkeypatch.setattr(topology, "distance_field",
                        counting("boundary_fields", topology.distance_field))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, counts


class TestLabelingsPerCommand:
    def test_single_window_check(self, monkeypatch):
        # 3 exhaustion fills, region - F, and region - (F | K) per level;
        # the alpha neighborhood reuses the base window's hole sets
        code, n = count_work(monkeypatch, ["check", scene("segment.scene")])
        assert code == 0
        assert n["labelings"] == 7
        assert n["exhaustions"] == 1

    def test_holes_with_compact(self, monkeypatch):
        code, n = count_work(monkeypatch, [
            "holes", scene("intro_staircase.scene"), "--with-k", "disk:0,0,2"])
        assert code == 0
        assert n["labelings"] == 1

    def test_refute(self, monkeypatch):
        code, n = count_work(monkeypatch, ["refute", scene("nested_rings.scene")])
        assert code == 1
        assert n["labelings"] <= 5

    def test_union_reuses_part_certificates(self, monkeypatch):
        code, n = count_work(monkeypatch, ["union", scene("union_segments.scene")])
        assert code == 0
        assert n["labelings"] <= 19
        assert n["sphere_tests"] == 3

    def test_window_schedule_reuses_base_exhaustion(self, monkeypatch):
        code, n = count_work(monkeypatch, [
            "check", scene("intro_staircase.scene"), "--windows", "8,16,32"])
        assert code == 2
        assert n["labelings"] <= 21
        assert n["exhaustions"] == 3
        assert n["regions"] == 3


class TestBoundaryDistancePerRegion:
    """``RegionModel.boundary_distance`` is one exact EDT per region, however
    many exhaustions, hole sets and disk covers read it."""

    @pytest.mark.parametrize("argv, code, fields", [
        (["check", "intro_staircase.scene", "--windows", "8,16,32"], 2, 3),
        (["build-v", "segment.scene"], 0, 1),
        (["union", "union_segments.scene"], 0, 1),
        (["refute", "nested_rings.scene"], 1, 1),
    ], ids=["check-windows", "build-v", "union", "refute"])
    def test_one_field_per_region(self, monkeypatch, argv, code, fields):
        got, n = count_work(monkeypatch, [argv[0], scene(argv[1]), *argv[2:]])
        assert got == code
        assert n["boundary_fields"] == fields

    def test_field_is_read_only(self):
        from arakgrid import make_grid, plane_region
        region = plane_region(make_grid(-1, -1, 1, 1, 0.25))
        dist = region.boundary_distance()
        assert region.boundary_distance() is dist
        with pytest.raises(ValueError):
            dist[0, 0] = 0.0


_DISK = "grid -1.25 -1.25 1.25 1.25 0.03125\nomega disk 0 0 1\n"
_RECT = "grid -2 -2 2 2 0.0625\nomega rect -1.5 -1.5 1.5 1.5\n"
_SEGMENT = "set F segment -0.5 0.5 0.5 0.5\n"


class TestOneRegionPerGrid:
    @pytest.mark.parametrize("omega", ["plane", "disk", "punctured", "rect"])
    @pytest.mark.parametrize("command", [["check"], ["holes"], ["build-v"],
                                         ["render", "--layers", "F,V"]])
    def test_each_omega_kind(self, monkeypatch, tmp_path, omega, command):
        text = {"plane": Path(scene("segment.scene")).read_text(),
                "disk": _DISK + _SEGMENT,
                "punctured": _DISK.replace("disk", "punctured_disk") + _SEGMENT,
                "rect": _RECT + _SEGMENT}[omega]
        path = tmp_path / "s.scene"
        path.write_text(text)
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "render":
            argv += ["-o", str(tmp_path / "out.svg")]
        code, n = count_work(monkeypatch, argv)
        assert code in (0, 1, 2)
        assert n["regions"] == 1

    @pytest.mark.parametrize("argv", [
        ["refute", "nested_rings.scene"],
        ["union", "union_segments.scene"],
        ["loglift", "loglift_line.scene"],
    ])
    def test_fixture_commands(self, monkeypatch, argv):
        code, n = count_work(monkeypatch, [argv[0], scene(argv[1])])
        assert code in (0, 1)
        assert n["regions"] == 1
