import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, InputError, Primitive, distance_field,
                      make_grid, rasterize_closed)
from arakgrid.grid import MAX_CELLS, ray_exit_cells, rasterize_open_rect
from arakgrid.scene import parse_scene

from oracles import (brute_distances, center_abs_reference,
                     circle_raster_oracle, segment_raster_reference)


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

    @pytest.mark.parametrize("scalar", [np.int64, np.int32, np.float32,
                                        np.float64])
    def test_numpy_scalars_accepted(self, scalar):
        g = make_grid(scalar(0), scalar(0), 4, scalar(4), scalar(1))
        assert (g.ncols, g.nrows) == (4, 4)
        assert all(type(v) is float for v in (g.xmin, g.ymin, g.xmax, g.delta))

    @pytest.mark.parametrize("bad", ["0", None, 1j, np.complex128(1),
                                     np.float32("nan"), np.float64("inf"),
                                     10 ** 400, np.float64(4e153)],
                             ids=["str", "none", "complex", "np-complex",
                                  "nan32", "inf", "int-1e400", "4e153"])
    def test_non_real_or_huge_rejected(self, bad):
        with pytest.raises(InputError):
            make_grid(bad, 0, 4, 4, 1)
        # repr() of an int over 4,300 digits raises; the message shows type and float
        with pytest.raises(InputError, match="got int inf"):
            make_grid(10 ** 5000, 0, 1, 1, 1)

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
        assert ray_exit_cells(prims, g) == [(4, 7)]     # top row, N edge

    def test_ray_missing_window(self):
        g = make_grid(-1, -1, 1, 1, 0.25)
        prims = [Primitive.ray((5.0, 0.0), (1.0, 0.0))]
        assert rasterize_closed(prims, g).is_empty()
        assert ray_exit_cells(prims, g) == []

    @pytest.mark.parametrize("tiny, unit", [((1e-310, 0.0), (1.0, 0.0)),
                                            ((1e-310, 1e-310), (1.0, 1.0)),
                                            ((0.0, -1e-305), (0.0, -1.0))])
    def test_tiny_ray_direction_matches_unit_twin(self, tiny, unit):
        g = make_grid(-2, -2, 2, 2, 0.5)
        got = [Primitive.ray((0.1, 0.1), tiny)]
        want = [Primitive.ray((0.1, 0.1), unit)]
        assert rasterize_closed(got, g).same_cells(rasterize_closed(want, g))
        assert ray_exit_cells(got, g) == ray_exit_cells(want, g)
        assert ray_exit_cells(want, g)

    def test_polyline_needs_two_points(self):
        with pytest.raises(InputError):
            Primitive.polyline([(0, 0)])

    def test_ray_needs_direction(self):
        with pytest.raises(InputError):
            Primitive.ray((0, 0), (0, 0))

    @pytest.mark.parametrize("make", [
        lambda: Primitive.ray((0.1, 0.1), (math.inf, 0)),
        lambda: Primitive.ray((math.nan, 0.1), (1, 0)),
        lambda: Primitive.ray((0.1, 0.1), (math.nan, 1)),
        lambda: Primitive.disk((0, 0), math.inf),
        lambda: Primitive.circle((0, -math.inf), 1),
        lambda: Primitive.segment((0, 0), (math.nan, 1)),
        lambda: Primitive.rect((0, 0), (1, math.inf)),
        lambda: Primitive.point((math.inf, 0)),
        lambda: Primitive.polyline([(0, 0), (1, 1), (2, math.nan)]),
    ], ids=["ray-inf-direction", "ray-nan-origin", "ray-nan-direction",
            "disk-inf-radius", "circle-inf-center", "segment-nan",
            "rect-inf", "point-inf", "polyline-nan"])
    def test_non_finite_numbers_rejected(self, make):
        # the scene parser rejects these; an API caller used to get a carrier
        # that silently lost the primitive (a ray with an infinite direction
        # rasterized to 0 cells with no exit cell)
        with pytest.raises(InputError, match="must be finite"):
            make()

    def test_open_rect_excludes_tangent_cells(self):
        g = make_grid(0, 0, 5, 5, 1)
        got = rasterize_open_rect(g, 1, 1, 4, 4)
        assert got.count() == 9
        assert all(1 <= i <= 3 and 1 <= j <= 3 for i, j in got.cells())


@st.composite
def _segment_scenes(draw):
    """A small window (any corner, cell size 1e-9 or 0.05 to 1, at most
    20 x 20 cells) and 1 to 6 segments, polylines or rays on it.  Points lie
    on cell edges and corners, a few floats off them, on cell centres,
    anywhere near the window or up to 1e6 away; segments come axis-aligned, oblique, zero-length or through
    cell corners at 45 degrees, so every slab test meets its ties."""
    d = draw(st.sampled_from([1.0, 0.7, 0.5, 0.25, 0.125, 0.1, 0.07, 1 / 32,
                              0.05, 1e-9]))
    x0, y0 = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
    g = make_grid(x0, y0, x0 + draw(st.integers(1, 20)) * d,
                  y0 + draw(st.integers(1, 20)) * d, d)

    def coord(lo, n):
        kind = draw(st.sampled_from(["edge", "ulps", "centre", "near", "far"]))
        k = draw(st.integers(-3, n + 3))
        if kind == "edge":
            return lo + k * d
        if kind == "ulps":          # a few floats off an edge, or off its slack
            v = lo + k * d + draw(st.sampled_from([0.0, 1e-9, -1e-9]))
            for _ in range(draw(st.integers(1, 4))):
                v = math.nextafter(v, draw(st.sampled_from([math.inf, -math.inf])))
            return v
        if kind == "centre":
            return lo + (k + 0.5) * d
        if kind == "near":
            return draw(st.floats(lo - 2, lo + (n + 2) * d))
        return draw(st.floats(-1e6, 1e6))

    def point():
        return coord(g.xmin, g.ncols), coord(g.ymin, g.nrows)

    prims = []
    for _ in range(draw(st.integers(1, 6))):
        a = point()
        shape = draw(st.sampled_from(["free", "vertical", "horizontal", "zero",
                                      "corner", "polyline", "ray"]))
        if shape == "polyline":
            prims.append(Primitive.polyline([a] + [point() for _ in range(
                draw(st.integers(1, 4)))]))
            continue
        if shape == "ray":
            direction = draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.0), (1.0, 1.0),
                                              (0.0, 1e-310), None]))
            if direction is None:
                direction = (draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
            if direction != (0.0, 0.0):
                prims.append(Primitive.ray(a, direction))
            continue
        b = point()
        if shape == "vertical":
            b = (a[0], b[1])
        elif shape == "horizontal":
            b = (b[0], a[1])
        elif shape == "zero":
            b = a
        elif shape == "corner":     # from a cell corner along a diagonal
            k = draw(st.integers(-g.ncols - 3, g.ncols + 3))
            a = (g.xmin + draw(st.integers(-2, g.ncols + 2)) * d,
                 g.ymin + draw(st.integers(-2, g.nrows + 2)) * d)
            b = (a[0] + k * d, a[1] + draw(st.sampled_from([1, -1])) * k * d)
        prims.append(Primitive.segment(a, b))
    return g, prims


class TestSegmentRasterTwin:
    """``rasterize_closed`` draws all segments of a call in one vectorized
    pass; it must match the per-cell slab test in Python floats
    (``oracles.segment_raster_reference``) bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_segment_scenes())
    def test_matches_reference(self, scene):
        g, prims = scene
        assert np.array_equal(rasterize_closed(prims, g).bits,
                              segment_raster_reference(g, prims))

    @pytest.mark.parametrize("prims", [
        [Primitive.segment((0.5, 0.5), (0.5, 0.5))],            # a corner point
        [Primitive.segment((0.0, 0.0), (2.0, 2.0))],            # corner to corner
        [Primitive.segment((0.25, -1.0), (0.25, 3.0))],         # along a column edge
        [Primitive.segment((-1e6, 0.3), (1e6, 0.3))],
        [Primitive.ray((5.0, 0.3), (0.0, 1.0))],                # flat x, off the window
        [Primitive.ray((0.3, 0.3), (1.0, 1e-310))],
        [Primitive.polyline([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)])],
    ], ids=["corner-point", "diagonal", "column-edge", "wide", "ray-off",
            "ray-flat-y", "square"])
    def test_table(self, prims):
        g = make_grid(0, 0, 2, 2, 0.25)
        assert np.array_equal(rasterize_closed(prims, g).bits,
                              segment_raster_reference(g, prims))

    @pytest.mark.parametrize("window, delta, p1, p2", [
        ((0.0, 0.38637531714225704), 0.7,
         (1.9999999999999997e-09, 3.8863753151422573), (3.4999999989999995, 2.486375316142257)),
        ((0.0, 0.0), 1e-9, (6.000000000000001e-09, -9.999999999999999e-10),
         (5.999999999999999e-09, 2e-09)),
        ((0.0, 0.031807525942958215), 1 / 3,
         (0.9999999989999999, 0.031807525942958215), (0.6666666676666666, 2.365140859276291)),
    ], ids=["past-the-end", "slack-sized-cells", "before-the-start"])
    def test_box_edge_ties(self, window, delta, p1, p2):
        # a box column or row whose own slab test fails by rounding alone:
        # without the ``tmin <= 1`` test the first two draw a cell the
        # reference does not, and without ``0 <= tmax`` the last does
        x0, y0 = window
        g = make_grid(x0, y0, x0 + 6 * delta, y0 + 6 * delta, delta)
        prims = [Primitive.segment(p1, p2)]
        assert np.array_equal(rasterize_closed(prims, g).bits,
                              segment_raster_reference(g, prims))


class TestRadialTwin:
    """``oracles.center_abs_reference``, the full-mesh |cell centre| that the
    row-end radii of ``arakelian`` are checked against.  Those read a row's
    largest |centre| at its first or last cell; that rests on hypot being
    blind to signs and never falling as |x| grows along a row, checked here
    on each sampled window rather than assumed."""

    @settings(max_examples=150, deadline=None)
    @given(st.floats(1e-3, 1), st.floats(-3, 3), st.floats(-3, 3),
           st.integers(1, 60), st.integers(1, 60), st.sampled_from([1.0, 1e151]))
    def test_center_abs_is_hypot(self, d, x0, y0, ncols, nrows, scale):
        d *= scale
        g = make_grid(x0 * ncols * d, y0 * nrows * d, x0 * ncols * d + ncols * d,
                      y0 * nrows * d + nrows * d, d)
        xs, ys = g.center_axes()
        ref = center_abs_reference(g)
        want = np.hypot(np.abs(xs), np.abs(ys)[:, None])
        assert np.array_equal(ref.view(np.int64), want.view(np.int64))
        order = np.argsort(np.abs(xs), kind="stable")
        assert (np.diff(ref[:, order], axis=1) >= 0).all()


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

    # str() of the 5001-digit int raises ValueError: the message stays bounded
    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 3),
                                      (10 ** 5000, 0)])
    def test_from_cells_rejects_cells_off_the_grid(self, cell):
        # a 4-column, 3-row grid: (-1, 0) used to wrap onto (3, 0) silently
        g = make_grid(0, 0, 4, 3, 1)
        shown = "(huge)" if cell[0] > 4 else str(cell)
        with pytest.raises(InputError, match=re.escape(
                f"cell {shown} lies outside the 4 x 3 grid")):
            CellSet.from_cells(g, [(1, 1), cell])

    @pytest.mark.parametrize("cell", [(1.0, 2), (np.float64(1), 2), ("1", 2),
                                      (1, 2, 3), 5, (10**5000, 0, 1)])
    def test_from_cells_rejects_cells_not_integer_pairs(self, cell):
        # (1.0, 2) passed the bounds check, then numpy raised a bare IndexError
        g = make_grid(0, 0, 4, 4, 1)
        with pytest.raises(InputError, match="is not a pair of integers"):
            CellSet.from_cells(g, [(1, 1), cell])
        s = CellSet.from_cells(g, [(np.int64(1), np.int32(2))])
        assert s.bits[2, 1] and s.count() == 1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["square", "row", "column"]), st.integers(1, 12),
           st.data())
    def test_min_cell_is_column_first(self, shape, n, data):
        # random scattered (mostly multi-component) masks on n x n, 1 x n
        # and n x 1 windows
        ncols, nrows = {"square": (n, n), "row": (n, 1), "column": (1, n)}[shape]
        g = make_grid(0, 0, ncols, nrows, 1)
        cells = data.draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                              st.integers(0, nrows - 1)),
                                   min_size=1, max_size=20))
        s = CellSet.from_cells(g, cells)
        assert s.min_cell() == min((int(i), int(j)) for j, i in np.argwhere(s.bits))
        assert s.min_cell() == min(cells)

    def test_min_cell_of_empty_set_raises(self):
        with pytest.raises(InputError, match="no minimal cell"):
            CellSet.empty(make_grid(0, 0, 4, 4, 1)).min_cell()


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

    def test_thin_window_offsets_do_not_wrap(self):
        # squared offsets reach 69999**2 > 2**31: int32 arithmetic would wrap
        g = make_grid(0, 0, 70000, 1, 1)
        df = distance_field(CellSet.from_cells(g, [(0, 0)]))
        assert df.values.shape == (1, 70000)
        assert df.at(69999, 0) == 69999.0

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
