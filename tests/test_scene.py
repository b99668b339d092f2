import pytest

from arakgrid import SceneParseError, parse_scene, print_scene, scenes_equivalent


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
        region = sc.region()
        assert any(n.edge == "N" for n in region.exit_notes)
        assert "F" in sc.sets

    def test_errors_carry_line_numbers(self):
        cases = [
            ("grid 0 0 1 1 0.5\nbogus 1 2\n", 2),
            ("grid 0 0 1 1\n", 1),                          # arity
            ("grid 0 0 1 1 0.5\ngrid 0 0 1 1 0.5\n", 2),    # duplicate grid
            ("grid 0 0 1 1 0.5\nomega plane\nomega plane\n", 3),
            ("grid 0 0 1 1 0.5\nfixture ex_2_10 0.6 0.3\n", 2),  # r1 >= r2
            ("grid 0 0 1 1 0.5\nfixture ex_2_10 0.6 0.6\n", 2),
            ("grid 0 0 1 1 0.5\nunbounded Q\n", 2),
            ("grid 0 0 1 1 0.5\nset F circle 0 0 -1\n", 2),
            ("grid 0 0 1 1 0.5\nset F segment 0 0 inf 0\n", 2),  # non-finite
            ("grid 0 0 nan 1 0.5\n", 1),
            ("grid 0 0 1 1 0.5\nset F bracket inf\n", 2),
            ("grid 0 0 1 1 0.5\nfn F poly:1,nan\n", 2),
            ("grid 0 0 1 1 0.5\nfn F const:inf\n", 2),
        ]
        for text, lineno in cases:
            with pytest.raises(SceneParseError) as err:
                parse_scene(text)
            assert err.value.lineno == lineno

    def test_missing_grid_or_omega(self):
        with pytest.raises(SceneParseError):
            parse_scene("omega plane\n")
        with pytest.raises(SceneParseError):
            parse_scene("grid 0 0 1 1 0.5\n")

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
