import contextlib
import io
import json
import math
import os
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid.cli import REPORT_SCHEMA, run_cli

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


def scene(name):
    return os.path.join(SCENES, name)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(args)
    return code, out.getvalue(), err.getvalue()


def run_json(args):
    code, out, err = run(args + ["--json"])
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    return code, report, err


class TestExitCodes:
    def test_twin_circles_refuted(self):
        code, report, _ = run_json(["check", scene("ex_2_10.scene")])
        assert code == 1
        assert report["status"] == "REFUTED"
        x, y = report["witnesses"][0]
        assert 0.09 < x * x + y * y < 0.36

    def test_segment_verified(self):
        code, report, _ = run_json(["check", scene("segment.scene")])
        assert code == 0
        assert report["status"] == "VERIFIED_UP_TO"

    def test_staircase_divergent(self):
        code, report, _ = run_json(
            ["check", scene("intro_staircase.scene"), "--windows", "8,16,32"])
        assert code == 2
        assert report["status"] == "EVIDENCE_DIVERGENT"
        rows = report["extents"]["growth"]
        row = next(r for r in rows if r["divergent"])
        assert row["max_abs"][0] < row["max_abs"][1] < row["max_abs"][2]

    def test_missing_scene_is_input_error(self):
        code, _, err = run(["check", "no_such.scene"])
        assert code == 3 and "error" in err

    def test_bad_set_name_is_input_error(self):
        code, _, err = run(["check", scene("segment.scene"), "--set", "nope"])
        assert code == 3

    def test_union_refusal_is_negative(self):
        code, _, err = run(["union", scene("ex_2_10.scene")])
        assert code == 1 and "simply connected" in err

    def test_union_success(self):
        code, report, _ = run_json(["union", scene("union_segments.scene")])
        assert code == 0
        assert report["certificate"]["parts_disjoint"] is True

    def test_refute_reports_negative_class(self):
        code, report, _ = run_json(["refute", scene("nested_rings.scene")])
        assert code == 1
        assert report["extents"]["blocks_construction"] is True
        assert len(report["witnesses"]) == 2

    def test_refute_without_holes_is_precondition_error(self):
        code, _, err = run(["refute", scene("segment.scene")])
        assert code == 3

    def test_loglift_success(self):
        code, report, _ = run_json(["loglift", scene("loglift_line.scene")])
        assert code == 0
        assert report["extents"]["residual_max"] <= 1e-8

    def test_build_v_success(self):
        code, report, _ = run_json(["build-v", scene("segment.scene")])
        assert code == 0
        cert = report["certificate"]
        assert cert["f_in_v"] and cert["v_in_u"] and cert["complement_connected"]

    def test_holes_reports(self):
        code, report, _ = run_json(
            ["holes", scene("intro_staircase.scene"), "--set", "F",
             "--with-k", "disk:0,0,2"])
        assert code == 0
        assert report["extents"]["count"] >= 3
        assert len(report["witnesses"]) == report["extents"]["count"]


class TestObstructedBuild:
    def test_obstacle_inside_a_hole_refuses_with_exit_1(self, tmp_path):
        p = tmp_path / "trapped.scene"
        p.write_text(
            "grid -2 -2 2 2 0.03125\nomega plane\n"
            "set F polyline -1 -1 1 -1 1 1 -1 1 -1 -1\n"
            "set obstacles point 0 0\n")
        code, out, err = run(["build-v", str(p)])
        assert code == 1 and "refused" in err


class TestCsvSamples:
    def test_csv_lift_matches_builtin(self, tmp_path):
        sc = scene("loglift_line.scene")
        from arakgrid.scene import parse_scene
        with open(sc) as fh:
            parsed = parse_scene(fh.read())
        F = parsed.raster("F")
        rows = ["x,y,re,im"]
        for i, j in F.cells():
            x, y = parsed.grid.cell_center(i, j)
            rows.append(f"{x},{y},{x},{y}")
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, report, _ = run_json(["loglift", sc, "--fn-csv", str(csv_path)])
        assert code == 0
        assert report["extents"]["residual_max"] <= 1e-8

    def test_missing_cells_rejected(self, tmp_path):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("1.0,0.0,1.0,0.0\n")
        code, _, err = run(["loglift", scene("loglift_line.scene"),
                            "--fn-csv", str(csv_path)])
        assert code == 3 and "miss" in err

    def test_opposite_phase_neighbors_hit_resolution_limit(self, tmp_path):
        p = tmp_path / "flip.scene"
        p.write_text("grid 0 -0.4921875 2.5 0.5078125 0.015625\n"
                     "omega plane\nset F segment 1 0 2 0\n")
        from arakgrid.scene import parse_scene
        parsed = parse_scene(p.read_text())
        F = parsed.raster("F")
        rows = []
        for k, (i, j) in enumerate(F.cells()):
            x, y = parsed.grid.cell_center(i, j)
            v = 1.0 if k % 2 == 0 else -1.0
            rows.append(f"{x},{y},{v},0.0")
        csv_path = tmp_path / "flip.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, _, err = run(["loglift", str(p), "--fn-csv", str(csv_path)])
        assert code == 2 and "inconclusive" in err


def _loglift_line_with(tmp_path, fn_line):
    text = open(scene("loglift_line.scene")).read()
    p = tmp_path / "lift.scene"
    p.write_text(text.replace("fn F identity", fn_line))
    return str(p)


class TestNonFiniteInput:
    """Non-finite numbers are input errors (exit 3), never a traceback or
    a refutation."""

    @pytest.mark.parametrize("line", [
        "set F segment -1 0 inf 0",
        "set F segment -1 0 nan 0",
        "set F bracket inf",
    ])
    def test_scene_numbers(self, tmp_path, line):
        p = tmp_path / "bad.scene"
        p.write_text(f"grid -2 -2 2 2 0.03125\nomega plane\n{line}\n")
        code, out, err = run(["check", str(p)])
        assert code == 3 and "Traceback" not in out + err

    def test_underflowing_delta(self, tmp_path):
        # span / delta overflows to inf; this once escaped as OverflowError
        p = tmp_path / "tiny.scene"
        p.write_text("grid -2 -2 2 2 1e-320\nomega plane\n"
                     "set F segment -1 0 1 0\n")
        code, out, err = run(["check", str(p)])
        assert code == 3 and "Traceback" not in out + err

    @pytest.mark.parametrize("fn_line", ["fn F poly:nan", "fn F const:inf"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_fn_coefficients(self, tmp_path, fn_line, as_json):
        args = ["loglift", _loglift_line_with(tmp_path, fn_line)]
        code, out, err = run(args + (["--json"] if as_json else []))
        assert code == 3 and "Traceback" not in out + err
        assert "verified" not in out

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("as_json", [False, True])
    def test_overflowing_samples(self, tmp_path, as_json):
        # finite coefficients whose samples overflow to inf on the carrier
        args = ["loglift", _loglift_line_with(tmp_path, "fn F poly:0,1e308")]
        code, out, err = run(args + (["--json"] if as_json else []))
        assert code == 3 and "finite" in err and "verified" not in out

    @pytest.mark.parametrize("args", [
        ["holes", scene("segment.scene"), "--with-k", "disk:0,0,inf"],
        ["refute", scene("segment.scene"), "--with-k", "disk:nan,0,1"],
        ["check", scene("segment.scene"), "--windows", "2,inf"],
        ["loglift", scene("loglift_line.scene"), "--tol", "nan"],
        ["loglift", scene("loglift_line.scene"), "--eps-zero", "nan"],
    ])
    def test_flags(self, args):
        code, out, err = run(args)
        assert code == 3 and "Traceback" not in out + err

    def test_csv_row(self, tmp_path):
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text("x,y,re,im\n1.0,0.0,nan,0.0\n")
        code, out, err = run(["loglift", scene("loglift_line.scene"),
                              "--fn-csv", str(csv_path)])
        assert code == 3 and "non-finite" in err


_HUGE = "grid -2 -2 2 2 0.0625\nomega {omega}\nset F {prim}\n"


class TestHugeAndUnreadableInput:
    """Huge coordinates and cells, undecodable files, unwritable outputs,
    overflowing level counts and a zero eps_zero once escaped as
    OverflowError, UnicodeDecodeError, FileNotFoundError or ValueError
    (exit 1, with a traceback)."""

    @pytest.mark.parametrize("omega, prim", [
        ("plane", "disk 0 0 1e308"),
        ("plane", "segment -1e308 0 1e308 0"),
        ("disk 0 0 1e308", "segment -1 0 1 0"),
    ])
    def test_huge_geometry_rasterizes(self, tmp_path, omega, prim):
        p = tmp_path / "huge.scene"
        p.write_text(_HUGE.format(omega=omega, prim=prim))
        code, out, err = run(["check", str(p)])
        assert code in (0, 2) and "Traceback" not in out + err

    def test_huge_disk_covers_the_window(self):
        from arakgrid.scene import parse_scene
        sc = parse_scene(_HUGE.format(omega="disk 0 0 1e308",
                                      prim="disk 0 0 1e308"))
        assert sc.raster("F").bits.all()
        assert sc.region().omega.bits.all()

    def test_huge_csv_row_clips_to_the_window(self, tmp_path):
        from arakgrid import make_grid
        g = make_grid(-2, -2, 2, 2, 0.5)
        assert g.point_cell(1e308, -1e308) == (7, 0)
        assert g.point_cell(math.inf, math.nan) == (7, 0)
        csv_path = tmp_path / "far.csv"
        csv_path.write_text("1e308,0,1,0\n")
        code, out, err = run(["loglift", scene("loglift_line.scene"),
                              "--fn-csv", str(csv_path)])
        assert code == 3 and "miss" in err and "Traceback" not in out + err

    def test_overflowing_cell_area(self, tmp_path):
        # one cell of side 1e308: its area, delta**2, raised OverflowError
        p = tmp_path / "wide.scene"
        p.write_text("grid 0 -1 1e308 0 1e308\nomega plane\n"
                     "set F segment 0 -1 1 0\n")
        code, out, err = run(["holes", str(p)])
        assert code == 3 and "Traceback" not in out + err

    def test_non_utf8_scene(self, tmp_path):
        p = tmp_path / "latin1.scene"
        p.write_bytes(b"grid -2 -2 2 2 0.0625\nomega plane\n# caf\xe9\n")
        code, out, err = run(["check", str(p)])
        assert code == 3 and "Traceback" not in out + err

    def test_non_utf8_csv(self, tmp_path):
        csv_path = tmp_path / "latin1.csv"
        csv_path.write_bytes(b"x,y,re,im\n\xff,0,1,0\n")
        code, out, err = run(["loglift", scene("loglift_line.scene"),
                              "--fn-csv", str(csv_path)])
        assert code == 3 and "Traceback" not in out + err

    def test_unwritable_render_output(self, tmp_path):
        out_path = tmp_path / "no_such_dir" / "x.svg"
        code, out, err = run(["render", scene("segment.scene"),
                              "-o", str(out_path)])
        assert code == 3 and "Traceback" not in out + err

    def test_zero_eps_zero(self, tmp_path):
        # eps_zero = 0 let a zero function through to log(0): ValueError
        args = ["loglift", _loglift_line_with(tmp_path, "fn F const:0"),
                "--eps-zero", "0"]
        code, out, err = run(args)
        assert code == 3 and "Traceback" not in out + err

    def test_overflowing_levels(self):
        code, out, err = run(["check", scene("segment.scene"),
                              "--levels", "2000"])
        assert code == 3 and "Traceback" not in out + err

    def test_level_limit_follows_the_threshold_arithmetic(self):
        from arakgrid import (PreconditionError, build_exhaustion, make_grid,
                              plane_region)
        region = plane_region(make_grid(-2, -2, 2, 2, 0.5))
        # the largest threshold, delta * 2**(nlevels - 1) = 2**(nlevels - 2),
        # first overflows at nlevels = max_exp + 2
        with pytest.raises(PreconditionError, match="overflows"):
            build_exhaustion(region, sys.float_info.max_exp + 2)


# -- fuzzing: scene text and flags ----------------------------------------------
# Windows stay small (delta >= 1/16 on spans of at most 6) so every run is
# quick.  Huge, non-finite, malformed and undecodable inputs are drawn one
# time in ten at each level, so many scenes still parse and reach the
# commands with some huge coordinates in them.

def _mostly(common, rare):
    """``common`` nine times in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 9 else common)


_NUM = _mostly(
    st.floats(-3, 3, allow_nan=False).map(lambda v: repr(round(v, 3))),
    st.sampled_from(["1e308", "-1e308", "1e300", "-1e300", "1e-320", "inf",
                     "nan", "x", ""]))
_POS = _mostly(st.sampled_from(["0.25", "0.5", "1", "1.5", "3"]), _NUM)


def _nums(n):
    return st.lists(_NUM, min_size=n, max_size=n).map(" ".join)


_GRID = st.builds(
    "{} {} {} {}".format,
    _mostly(st.sampled_from(["-2", "-1", "0"]), _NUM),
    _mostly(st.sampled_from(["-2", "-1", "0"]), _NUM),
    _mostly(st.sampled_from(["1 1", "1 2", "2 1", "2 2"]), _nums(2)),
    # a delta below 1/16 is only ever too small for the cell budget
    _mostly(st.sampled_from(["0.0625", "0.125", "0.25", "0.5"]),
            st.sampled_from(["1e308", "1e-7", "1e-320", "0", "-1", "inf",
                             "nan", "x"])))
_OMEGA = _mostly(
    st.sampled_from(["plane", "disk 0 0 1.5", "punctured_disk 0 0 1.5",
                     "rect -1.5 -1.5 1.5 1.5"]),
    st.one_of(st.builds("{} {} {} {}".format,
                        st.sampled_from(["disk", "punctured_disk"]),
                        _NUM, _NUM, _POS),
              _nums(4).map(lambda s: "rect " + s)))
_PRIMITIVE = st.one_of(
    _nums(4).map(lambda s: "segment " + s),
    st.builds("{} {} {} {}".format, st.sampled_from(["circle", "disk"]),
              _NUM, _NUM, _POS),
    _nums(4).map(lambda s: "rect " + s),
    _nums(4).map(lambda s: "ray " + s),
    _nums(2).map(lambda s: "point " + s),
    _nums(6).map(lambda s: "polyline " + s),
    st.just("staircase"),
    st.sampled_from(["-1", "1", "3", "1000000000", "x"]).map(
        lambda k: "bracket " + k))
_LINE = _mostly(
    st.one_of(
        st.builds("set {} {}".format,
                  st.sampled_from(["F", "F1", "F2", "obstacles"]), _PRIMITIVE),
        st.sampled_from(["unbounded N", "unbounded all",
                         "fixture intro_staircase", "fixture ex_2_10 0.3 0.6",
                         "fixture ex_2_11 2", "fixture ex_2_11 999999"])),
    st.sampled_from(["unbounded Q", "fixture ex_2_10 0.6 0.3",
                     "grid 0 0 1 1 0.5", "omega plane", "bogus line"]))
_FN = st.one_of(
    st.sampled_from(["", "fn F identity", "fn F exp", "fn F const:0",
                     "fn F poly:1,1e308,1e308"]),
    st.builds("fn F poly:{},{}".format, _NUM, _NUM))
_SCENE = st.builds(
    "grid {}\nomega {}\nset F {}\n{}\n{}\n".format, _GRID, _OMEGA,
    _PRIMITIVE, st.lists(_LINE, max_size=4).map("\n".join), _FN)
_SCENE_BYTES = _mostly(_SCENE.map(str.encode),
                       _SCENE.map(lambda text: text.encode() + b"# \xff\xfe\n"))

_WITH_K = _mostly(st.builds("disk:{},{},{}".format, _NUM, _NUM, _POS),
                  st.sampled_from(["disk:", "ring:0,0,1", "disk:0,0"]))
_COMMANDS = st.one_of(
    st.tuples(st.just("check"), st.fixed_dictionaries({}, optional={
        "--levels": _mostly(st.integers(1, 5).map(str),
                            st.sampled_from(["0", "2000", "10**6", "x"])),
        "--windows": _mostly(
            st.lists(st.sampled_from(["-1", "0.5", "1", "2", "3"]),
                     min_size=1, max_size=3).map(",".join),
            st.lists(_NUM, min_size=1, max_size=3).map(",".join)),
        "--set": st.sampled_from(["F", "F1", "nope"])})),
    st.tuples(st.sampled_from(["holes", "refute"]),
              st.fixed_dictionaries({}, optional={"--with-k": _WITH_K})),
    st.tuples(st.sampled_from(["build-v", "union"]), st.just({})),
    st.tuples(st.just("loglift"), st.fixed_dictionaries({}, optional={
        "--eps-zero": _NUM, "--tol": _NUM})),
    st.tuples(st.just("render"), st.fixed_dictionaries({}, optional={
        "--with-k": _WITH_K,
        "--layers": st.sampled_from(["F", "F,U,V,disks,curves", "holes"])})))


class TestCliFuzz:
    @pytest.mark.filterwarnings("ignore")
    @settings(max_examples=200, deadline=None)
    @given(_SCENE_BYTES, _COMMANDS, st.booleans())
    def test_exit_code_always_in_contract(self, text, command, as_json):
        name, flags = command
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.scene")
            with open(path, "wb") as fh:
                fh.write(text)
            argv = [name, path]
            for flag, value in flags.items():
                argv += [f"{flag}={value}"]
            if name == "render":
                argv += ["-o", os.path.join(tmp, "out.svg")]
            if as_json:
                argv.append("--json")
            code, out, err = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in out + err


class TestReports:
    def test_witness_coordinates_convert_back_to_cells(self):
        _, report, _ = run_json(["check", scene("ex_2_10.scene")])
        from arakgrid.scene import parse_scene
        with open(scene("ex_2_10.scene")) as fh:
            g = parse_scene(fh.read()).grid
        for x, y in report["witnesses"]:
            i = (x - g.xmin) / g.delta - 0.5
            j = (y - g.ymin) / g.delta - 0.5
            assert i == round(i) and j == round(j)

    def test_timings_null_by_default(self):
        _, report, _ = run_json(["check", scene("segment.scene")])
        assert report["timings_ms"] is None

    def test_timings_populated_on_request(self):
        _, report, _ = run_json(["check", scene("segment.scene"), "--timings"])
        assert isinstance(report["timings_ms"], dict)
        assert all(isinstance(v, float) for v in report["timings_ms"].values())


class TestRender:
    def test_unknown_layer_rejected(self, tmp_path):
        code, _, err = run(["render", scene("segment.scene"),
                            "-o", str(tmp_path / "x.svg"), "--layers", "Z"])
        assert code == 3

    def test_svg_layers(self, tmp_path):
        out = tmp_path / "seg.svg"
        code, _, _ = run(["render", scene("segment.scene"), "-o", str(out),
                          "--layers", "F,U,V,disks,curves"])
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"<?xml") and b"<circle" in data \
            and b"<polyline" in data

    def test_empty_overlay_still_valid(self, tmp_path):
        out = tmp_path / "empty.svg"
        text = "grid 0 0 2 2 0.5\nomega plane\nset F point 9 9\n"
        p = tmp_path / "empty.scene"
        p.write_text(text)
        code, _, _ = run(["render", str(p), "-o", str(out), "--layers", "F"])
        assert code == 0
        assert b"</svg>" in out.read_bytes()

    def test_ppm_format(self, tmp_path):
        out = tmp_path / "seg.ppm"
        code, _, _ = run(["render", scene("segment.scene"), "-o", str(out),
                          "--layers", "F,V", "--format", "ppm"])
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n")

    def test_hatched_holes_match_holes_report(self, tmp_path):
        # rendering computes the same hole cells the holes command reports
        out = tmp_path / "stair.ppm"
        code, _, _ = run(["render", scene("intro_staircase.scene"),
                          "-o", str(out), "--layers", "holes",
                          "--with-k", "disk:0,0,2", "--format", "ppm"])
        assert code == 0
        import numpy as np
        from arakgrid import holes, rasterize_closed, Primitive
        from arakgrid.scene import parse_scene
        from arakgrid.render import _COLORS
        with open(scene("intro_staircase.scene")) as fh:
            sc = parse_scene(fh.read())
        region = sc.region()
        K = rasterize_closed([Primitive.disk((0, 0), 2)], sc.grid)
        hs = holes(sc.raster("F") | K, region)
        data = out.read_bytes()
        _, dims, _, raster = data.split(b"\n", 3)
        w, h = (int(v) for v in dims.split())
        img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)
        hole_rgb = np.array(_COLORS["holes"], dtype=np.uint8)
        painted = (img == hole_rgb).all(axis=2)
        assert painted.sum() == hs.union.count()   # scale 1 at this size
        assert np.array_equal(painted[::-1], hs.union.bits)

    def test_render_does_not_change_check_report(self, tmp_path):
        _, before, _ = run_json(["check", scene("segment.scene")])
        run(["render", scene("segment.scene"), "-o",
             str(tmp_path / "r.svg"), "--layers", "F,V"])
        _, after, _ = run_json(["check", scene("segment.scene")])
        assert before == after
