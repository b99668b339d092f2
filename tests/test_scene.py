import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import SceneParseError, parse_scene, print_scene, scenes_equivalent
from arakgrid.grid import Primitive, make_grid, ray_exit_cells
from arakgrid.scene import Scene

_num = st.floats(allow_nan=False, allow_infinity=False)
_pos = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_pt = st.tuples(_num, _num)
_primitives = st.one_of(
    st.builds(Primitive.segment, _pt, _pt),
    st.builds(Primitive.circle, _pt, _pos),
    st.builds(Primitive.disk, _pt, _pos),
    st.builds(Primitive.rect, _pt, _pt),
    st.builds(Primitive.ray, _pt, _pt.filter(lambda d: d != (0.0, 0.0))),
    st.builds(Primitive.point, _pt),
    st.builds(Primitive.polyline, st.lists(_pt, min_size=2, max_size=6)),
    st.builds(Primitive.bracket, st.integers(1, 10**6)),
    st.just(Primitive.staircase()),
)
_omegas = st.one_of(
    st.just(("plane",)),
    st.tuples(st.sampled_from(["disk", "punctured_disk"]), _num, _num, _pos),
    st.tuples(st.just("rect"), _num, _num, _num, _num),
)
_unbounded = st.one_of(st.just(("all",)),
                       st.lists(st.sampled_from("NSEW"), unique=True).map(tuple))


class TestParse:
    def test_minimal_plane_scene(self):
        sc = parse_scene("grid 0 0 1 1 0.5\nomega plane\nunbounded all\n")
        assert (sc.grid.ncols, sc.grid.nrows) == (2, 2)
        assert sc.omega_decl == ("plane",)
        region = sc.region()
        assert region.omega.count() == 4
        assert region.alpha_border.all()

    def test_comments_and_blank_lines(self):
        sc = parse_scene("# header\n\ngrid 0 0 1 1 0.5  # trailing\nomega plane\n")
        assert sc.grid.ncols == 2

    def test_twin_circles_fixture(self):
        sc = parse_scene("grid -1.25 -1.25 1.25 1.25 0.0078125\n"
                         "fixture ex_2_10 0.3 0.6\n")
        assert sc.omega_decl == ("punctured_disk", 0.0, 0.0, 1.0)
        assert set(sc.sets) == {"F", "F1", "F2"}
        assert not sc.region().simply_connected
        assert sc.raster("F").same_cells(sc.raster("F1") | sc.raster("F2"))

    def test_staircase_fixture_has_ray_exit(self):
        sc = parse_scene("grid -3 -3 3 8 0.03125\nomega plane\n"
                         "fixture intro_staircase\n")
        assert (sc.grid.ncols, sc.grid.nrows) == (192, 352)
        assert ray_exit_cells(sc.sets["F"], sc.grid) == [(156, 351)]   # N edge

    def test_errors_carry_line_numbers(self):
        cases = [
            ("grid 0 0 1 1 0.5\nbogus 1 2\n", 2),
            ("grid 0 0 1 1\n", 1),                          # arity
            ("grid 0 0 1 1 0.5\ngrid 0 0 1 1 0.5\n", 2),    # duplicate grid
            ("grid 0 0 1 1 0.5\nomega plane\nomega plane\n", 3),
            ("grid 0 0 1 1 0.5\nfixture ex_2_10 0.6 0.3\n", 2),  # r1 >= r2
            ("grid 0 0 1 1 0.5\nfixture ex_2_10 0.6 0.6\n", 2),
            ("grid -1.25 -1.25 1.25 1.25 0.5\nomega plane\n"   # fixture sets omega
             "fixture ex_2_10 0.3 0.6\n", 3),
            ("grid 0 0 1 1 0.5\nunbounded Q\n", 2),
            ("grid 0 0 1 1 0.5\nset F circle 0 0 -1\n", 2),
            ("grid 0 0 1 1 0.5\nset F segment 0 0 inf 0\n", 2),  # non-finite
            ("grid 0 0 nan 1 0.5\n", 1),
            ("grid 0 0 1 1 0.5\nset F bracket inf\n", 2),
            ("grid 0 0 1 1 0.5\nfn F poly:1,nan\n", 2),
            ("grid 0 0 1 1 0.5\nfn F const:inf\n", 2),
            ("grid 0 0 1 1 0.5\nomega plane\nset F circle 0 0 nan\n", 3),
            ("grid 0 0 1 1 0.5\nset F segment 0 0 1\n", 2),           # arity
            ("grid 0 0 1 1 0.5\nset F polyline 0 0 1\n", 2),
            ("grid 0 0 1 1 0.5\nset F staircase 1\n", 2),
            ("grid 0 0 1 1 0.5\nset F bracket 1 2\n", 2),
            ("grid 0 0 1 1 0.5\nset F bracket 0\n", 2),
            ("grid 0 0 1 1 0.5\nset F circle 0 0\n", 2),             # arity
            ("grid 0 0 1 1 0.5\nset F ray 0 0 1\n", 2),
            ("grid 0 0 1 1 0.5\nset F point 1\n", 2),
            ("grid 0 0 1 1 0.5\nset F rect 0 0 1\n", 2),
            ("grid 0 0 1 1 0.5\nomega disk 0 0\n", 2),
            ("grid 0 0 1 1 0.5\nomega plane 1\n", 2),
            ("grid 0 0 1 1 0.5\nset F blob 0 0\n", 2),               # unknown kind
        ]
        for text, lineno in cases:
            with pytest.raises(SceneParseError) as err:
                parse_scene(text)
            assert err.value.lineno == lineno
            # the line is named once: "line 3: ...", never "line 3: line 3: ..."
            msg = str(err.value)
            assert msg.startswith(f"line {lineno}: ")
            assert re.findall(r"line \d+:", msg) == [f"line {lineno}:"]

    def test_missing_grid_or_omega(self):
        with pytest.raises(SceneParseError):
            parse_scene("omega plane\n")
        with pytest.raises(SceneParseError) as err:
            parse_scene("grid 0 0 1 1 0.5\n")
        assert err.value.lineno == 0        # no line to name

    def test_accumulating_set_lines(self):
        sc = parse_scene("grid -2 -2 2 2 0.125\nomega plane\n"
                         "set F segment -1 0 0 0\nset F segment 0 0 1 0\n")
        assert len(sc.sets["F"]) == 2

    def test_step_fixture_primitives_via_set_lines(self):
        sc = parse_scene("grid -3 -3 3 8 0.03125\nomega plane\n"
                         "set F staircase\nset G bracket 3\n")
        assert not sc.raster("F").is_empty()
        assert not sc.raster("G").is_empty()
        fixture = parse_scene("grid -3 -3 3 8 0.03125\nomega plane\n"
                              "fixture intro_staircase\n")
        assert sc.raster("F").same_cells(fixture.raster("F"))

    def test_fn_builtins(self):
        sc = parse_scene("grid 0 0 1 1 0.5\nomega plane\n"
                         "fn F poly:1,0,2\nfn G const:1+2j\nfn H exp\n")
        assert sc.fns["F"].as_callable()(2.0) == 1 + 2 * 4
        assert sc.fns["G"].as_callable()(0) == 1 + 2j
        assert abs(sc.fns["H"].as_callable()(0) - 1.0) < 1e-15


class TestRoundTrip:
    FIXTURES = [
        "grid 0 0 1 1 0.5\nomega plane\nunbounded all\n",
        "grid -1.25 -1.25 1.25 1.25 0.0078125\nfixture ex_2_10 0.3 0.6\n",
        "grid -3 -3 3 8 0.03125\nomega plane\nfixture intro_staircase\n",
        "grid -2 -2 2 2 0.03125\nomega plane\nset F segment -1 0 1 0\n"
        "set obstacles point 0 1\nset obstacles point 0 -1\n",
        "grid -2 -2 2 2 0.0625\nomega rect -1.5 -1.5 1.5 1.5\nunbounded N\n"
        "set F polyline -1 -1 1 -1 1 1\nfn F identity\n",
    ]

    @pytest.mark.parametrize("text", FIXTURES)
    def test_parse_print_parse(self, text):
        first = parse_scene(text)
        printed = print_scene(first)
        second = parse_scene(printed)
        assert scenes_equivalent(first, second)
        assert print_scene(second) == printed      # printing is stable

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(["F", "G", "obstacles"]),
                           st.lists(_primitives, min_size=1, max_size=4)),
           _omegas, _unbounded)
    def test_random_scenes_survive_print_parse(self, sets, omega, unbounded):
        scene = Scene(make_grid(-2, -2, 2, 2, 0.5), omega, unbounded, sets)
        printed = print_scene(scene)
        back = parse_scene(printed)
        assert back.sets == sets
        assert back.omega_decl == omega
        assert set(back.unbounded) == set(unbounded)
        assert print_scene(back) == printed


class TestSceneToRegion:
    def test_rect_omega_open_semantics(self):
        sc = parse_scene("grid 0 0 5 5 1\nomega rect 1 1 4 4\n")
        assert sc.region().omega.count() == 9

    def test_unbounded_edges_recorded(self):
        sc = parse_scene("grid 0 0 4 4 1\nomega rect 0 0 4 4\nunbounded N\n")
        region = sc.region()
        assert region.declared_edges == frozenset({"N"})
        assert region.alpha_border[-1, :].all()
        assert not region.alpha_border[0, 1:-1].any()

    def test_ray_exit_continues_a_bounded_region(self):
        # the window lies inside the rect, so its edges are undeclared; the
        # ray leaves through the N edge at cell (4, 7) and only there
        sc = parse_scene("grid -2 -2 2 2 0.5\nomega rect -3 -3 3 3\n"
                         "set F ray 0.1 0.1 0 1\n")
        region = sc.region()
        assert region.declared_edges == frozenset()
        assert np.argwhere(region.alpha_border).tolist() == [[7, 4]]


class TestExpandedParts:
    """A scene expands each set's curve fixtures once per column layout and
    every window of a schedule reads that expansion back."""

    def test_windows_share_one_expansion(self):
        sc = parse_scene("grid -3 -3 3 8 0.03125\nomega plane\nfixture intro_staircase\n")
        parts = sc.parts("F")
        assert sc.parts("F", sc.grid.with_ymax(32)) is parts
        assert sc.parts("F", make_grid(-3, -3, 3.5, 8, 0.03125)) is not parts

    def test_parts_follow_the_sets(self):
        sc = parse_scene("grid -2 -2 2 2 0.25\nomega plane\nset F segment -1 0 1 0\n")
        before = sc.raster("F").count()
        sc.sets["F"].append(Primitive.ray((0.1, 0.1), (0, 1)))
        assert sc.raster("F").count() > before
