import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, InputError, Primitive, distance_field,
                      make_grid, rasterize_closed)
from arakgrid.grid import MAX_CELLS, ray_exit_notes, rasterize_open_rect
from arakgrid.scene import parse_scene

from oracles import brute_distances, circle_raster_oracle


class TestMakeGrid:
    def test_basic(self):
        g = make_grid(-1, -1, 1, 1, 0.5)
        assert (g.ncols, g.nrows) == (4, 4)

    def test_single_cell(self):
        g = make_grid(0, 0, 1, 1, 1)
        assert (g.ncols, g.nrows) == (1, 1)

    def test_ceiling(self):
        g = make_grid(0, 0, 1, 1, 0.3)
        assert (g.ncols, g.nrows) == (4, 4)

    @pytest.mark.parametrize("bad", [
        (1, 0, 0, 1, 0.5),              # xmin >= xmax
        (0, 1, 1, 0, 0.5),              # ymin >= ymax
        (0, 0, 1, 1, 0),                # delta zero
        (0, 0, 1, 1, -1),
        (float("nan"), 0, 1, 1, 0.5),
        (0, 0, float("inf"), 1, 0.5),
        (0, 0, 1e308, 1, 1e308),        # one cell whose area overflows
        (-1e300, 0, 1e300, 1, 1e300),   # center sums and areas overflow
        (0, 0, 1, 1, 4e153),
    ])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            make_grid(*bad)

    @pytest.mark.parametrize("delta", [1e-320, 1e-7])
    def test_cell_budget(self, delta):
        # 1e-320 overflows span / delta; 1e-7 asks for 1.6e15 cells.  Both
        # are rejected from arithmetic alone, before any allocation.
        with pytest.raises(InputError):
            make_grid(-2, -2, 2, 2, delta)
        with pytest.raises(InputError):
            parse_scene(f"grid -2 -2 2 2 {delta!r}\nomega plane\n")

    def test_budget_boundary(self):
        g = make_grid(0, 0, 4096, MAX_CELLS // 4096, 1)
        assert g.ncols * g.nrows == MAX_CELLS
        with pytest.raises(InputError):
            make_grid(0, 0, 4097, MAX_CELLS // 4096, 1)

    def test_cell_geometry(self):
        g = make_grid(0, 0, 1, 1, 0.25)
        assert g.cell_center(0, 0) == (0.125, 0.125)
        assert g.cell_box(1, 2) == (0.25, 0.5, 0.5, 0.75)
        assert g.point_cell(0.6, 0.1) == (2, 0)


class TestRasterize:
    def test_empty_union(self):
        g = make_grid(0, 0, 1, 1, 0.25)
        assert rasterize_closed([], g).is_empty()

    def test_corner_point_touches_four_cells(self):
        g = make_grid(0, 0, 1, 1, 0.25)
        got = rasterize_closed(
            [Primitive.segment((0.25, 0.25), (0.25, 0.25))], g)
        assert sorted(got.cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_circle_matches_sampling_oracle(self):
        g = make_grid(-1, -1, 1, 1, 0.125)
        got = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        want = circle_raster_oracle(g, 0, 0, 0.5)
        assert np.array_equal(got.bits, want)

    def test_monotone_subsegment(self):
        g = make_grid(-1, -1, 1, 1, 0.1)
        small = rasterize_closed([Primitive.segment((-0.4, 0.2), (0.3, 0.2))], g)
        big = rasterize_closed([Primitive.segment((-0.8, 0.2), (0.7, 0.2))], g)
        assert small.issubset(big)

    def test_monotone_disk(self):
        g = make_grid(-1, -1, 1, 1, 0.1)
        small = rasterize_closed([Primitive.disk((0.1, 0.0), 0.3)], g)
        big = rasterize_closed([Primitive.disk((0.1, 0.0), 0.55)], g)
        assert small.issubset(big)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
           st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
           st.floats(0.01, 0.99))
    def test_refinement_keeps_coverage(self, x1, y1, x2, y2, t):
        # every point of a segment stays inside an included cell at delta
        # and at delta/2
        px, py = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
        seg = Primitive.segment((x1, y1), (x2, y2))
        for delta in (0.25, 0.125):
            g = make_grid(-1, -1, 1, 1, delta)
            bits = rasterize_closed([seg], g).bits
            i, j = g.point_cell(px, py)
            assert bits[j, i]

    def test_rect_is_filled(self):
        g = make_grid(0, 0, 1, 1, 0.125)
        got = rasterize_closed([Primitive.rect((0.25, 0.25), (0.75, 0.75))], g)
        i, j = g.point_cell(0.5, 0.5)
        assert got.bits[j, i]

    def test_ray_clipped_with_exit_note(self):
        g = make_grid(-1, -1, 1, 1, 0.25)
        prims = [Primitive.ray((0.0, 0.0), (0.0, 1.0))]
        got = rasterize_closed(prims, g)
        assert got.count() > 0
        notes = ray_exit_notes(prims, g)
        assert len(notes) == 1 and notes[0].edge == "N"

    def test_ray_missing_window(self):
        g = make_grid(-1, -1, 1, 1, 0.25)
        prims = [Primitive.ray((5.0, 0.0), (1.0, 0.0))]
        assert rasterize_closed(prims, g).is_empty()
        assert ray_exit_notes(prims, g) == []

    def test_polyline_needs_two_points(self):
        with pytest.raises(InputError):
            Primitive.polyline([(0, 0)])

    def test_ray_needs_direction(self):
        with pytest.raises(InputError):
            Primitive.ray((0, 0), (0, 0))

    def test_open_rect_excludes_tangent_cells(self):
        g = make_grid(0, 0, 5, 5, 1)
        got = rasterize_open_rect(g, 1, 1, 4, 4)
        assert got.count() == 9
        assert all(1 <= i <= 3 and 1 <= j <= 3 for i, j in got.cells())


class TestCellSetAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    def test_union_difference_law(self, a_bits, b_bits):
        g = make_grid(0, 0, 4, 4, 1)
        a = CellSet(g, np.array([(a_bits >> k) & 1 for k in range(16)],
                                dtype=bool).reshape(4, 4))
        b = CellSet(g, np.array([(b_bits >> k) & 1 for k in range(16)],
                                dtype=bool).reshape(4, 4))
        assert ((a | b) - b).issubset(a)
        assert (a & a).same_cells(a)

    def test_min_cell_is_column_first(self):
        g = make_grid(0, 0, 4, 4, 1)
        s = CellSet.from_cells(g, [(2, 0), (1, 3), (1, 1)])
        assert s.min_cell() == (1, 1)


class TestDistanceField:
    def test_empty_source_is_inf(self):
        g = make_grid(0, 0, 4, 4, 1)
        df = distance_field(CellSet.empty(g))
        assert np.isinf(df.values).all()

    def test_adjacent_cell_distance_is_delta(self):
        g = make_grid(0, 0, 4, 4, 0.5)
        df = distance_field(CellSet.from_cells(g, [(1, 1)]))
        assert df.at(2, 1) == pytest.approx(0.5, abs=0)
        assert df.at(1, 1) == 0.0

    def test_two_sources_match_brute_force(self):
        g = make_grid(0, 0, 6, 6, 1)
        src = CellSet.from_cells(g, [(0, 0), (3, 4)])
        df = distance_field(src)
        want = brute_distances(src.bits, 1.0)
        assert np.allclose(df.values, want, atol=1e-12)

    def test_randomized_grids_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ncols = int(rng.integers(1, 33))
            nrows = int(rng.integers(1, 33))
            delta = float(rng.choice([0.125, 0.5, 1.0]))
            g = make_grid(0, 0, ncols * delta, nrows * delta, delta)
            bits = rng.random((nrows, ncols)) < 0.2
            df = distance_field(CellSet(g, bits))
            want = brute_distances(bits, delta)
            assert np.allclose(df.values, want, atol=1e-12 * delta,
                               equal_nan=False)

    def test_lipschitz_between_neighbors(self):
        rng = np.random.default_rng(11)
        g = make_grid(0, 0, 16, 16, 1)
        bits = rng.random((16, 16)) < 0.1
        if not bits.any():
            bits[3, 3] = True
        v = distance_field(CellSet(g, bits)).values
        bound = math.sqrt(2) * g.delta + 1e-12
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if di == dj == 0:
                    continue
                a = v[max(0, dj):16 + min(0, dj), max(0, di):16 + min(0, di)]
                b = v[max(0, -dj):16 + min(0, -dj), max(0, -di):16 + min(0, -di)]
                assert (np.abs(a - b) <= bound).all()
