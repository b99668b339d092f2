import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (ArakGridError, CellSet, PreconditionError, Primitive,
                      alpha_neighborhood, build_exhaustion, check_arakelian,
                      hole_union_extent, holes, make_grid, open_disk_region,
                      open_rect_region, plane_region, rasterize_closed)
from arakgrid.arakelian import (EVIDENCE_DIVERGENT, INCONCLUSIVE, REFUTED,
                                VERIFIED_UP_TO, _extent, _outer_radii,
                                _row_thresholds)
from arakgrid.scene import parse_scene
from arakgrid.topology import custom_region

from oracles import (center_abs_reference, frame_gaps_reference,
                     naive_alpha_neighborhood, naive_dilate, naive_holes)

rng = np.random.default_rng(424242)


def _staircase_scene(ymax=8):
    return parse_scene(
        f"grid -3 -3 3 {ymax} 0.03125\nomega plane\nfixture intro_staircase\n")


@st.composite
def _exhaustion_regions(draw):
    """Custom regions on a 16 x 16 window of unit cells, with random declared
    edges and exits on the window border: the whole window, a rectangle, a
    disk, a punctured disk (whose levels have two runs in a row) or random
    cells.  Each region's derived facts match their per-call twins."""
    g = make_grid(0, 0, 16, 16, 1)
    X, Y = g.center_mesh()
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["window", "rect", "disk", "punctured", "cells"]))
    if kind == "window":
        omega = np.ones((16, 16), dtype=bool)
    elif kind == "rect":
        x1, y1 = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
        x2, y2 = draw(st.integers(10, 17)), draw(st.integers(10, 17))
        omega = (x1 < X) & (X < x2) & (y1 < Y) & (Y < y2)
    elif kind == "cells":
        omega = gen.random((16, 16)) < draw(st.floats(0.6, 0.95))
    else:
        cx, cy = draw(st.floats(6, 10)), draw(st.floats(6, 10))
        omega = np.hypot(X - cx, Y - cy) < draw(st.floats(4, 10))
        if kind == "punctured":
            for dj, di in gen.integers(-2, 3, size=(draw(st.integers(1, 3)), 2)):
                omega[int(cy) + dj, int(cx) + di] = False
    omega[8, 8] = True                      # never empty
    edges = draw(st.sets(st.sampled_from("NSEW")))
    exits = gen.random((16, 16)) < draw(st.sampled_from([0.0, 0.2]))
    region = custom_region(g, CellSet(g, omega), unbounded_edges=tuple(edges),
                           extra_unbounded=exits)
    assert region.fills_window == omega.all()
    want = frame_gaps_reference(region)
    assert len(region.frame_gaps) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(region.frame_gaps, want))
    return region


class TestBuildExhaustion:
    def test_full_window_single_level_margin(self):
        g = make_grid(0, 0, 8, 8, 1)
        region = open_rect_region(g, 0, 0, 8, 8)
        exh = build_exhaustion(region, 1)
        expect = np.zeros((8, 8), bool)
        expect[1:-1, 1:-1] = True
        assert np.array_equal(exh.levels[0].bits, expect)
        assert holes(exh.levels[0], region).count == 0

    def test_punctured_disk_levels_are_annulus_like(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 64)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        exh = build_exhaustion(region, 3)
        exh.validate(region)
        ci, cj = g.point_cell(0.0, 0.0)
        for K in exh.levels:
            assert not K.bits[cj, ci]                 # puncture avoided
            assert holes(K, region).count == 0

    def test_slit_disk_two_levels(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 64)
        from arakgrid import rasterize_open_disk
        disk = rasterize_open_disk(g, 0, 0, 1)
        slit = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        region = custom_region(g, disk - slit, simply_connected=True)
        exh = build_exhaustion(region, 2)
        exh.validate(region)
        assert (exh.levels[0] & slit).is_empty()
        assert (exh.levels[1] & slit).is_empty()

    def test_invariants_on_randomized_scenes(self):
        # interior nesting and hole-freeness over many random regions, and
        # over plane windows of an odd number of cells a side with up to 16
        # levels.  There the window centre is a cell centre, so diagonal
        # cells lie whole diagonal steps out and would tie with a cap grown
        # by exactly sqrt(2) delta a level; past half_diagonal / nlevels =
        # 1.5 delta the cap's floor sets R_k
        local = np.random.default_rng(99)
        n_scenes = 1000
        for t in range(n_scenes):
            kind = t % 5
            levels = (1, 4)
            g = make_grid(0, 0, 3, 3, 1 / 16)
            if kind == 0:
                region = plane_region(g)
            elif kind == 1:
                cx, cy = local.uniform(1.2, 1.8, size=2)
                region = open_disk_region(g, cx, cy, local.uniform(0.7, 1.1),
                                          punctured=bool(local.integers(2)))
            elif kind == 2:
                x1, y1 = local.uniform(0.1, 0.8, size=2)
                region = open_rect_region(g, x1, y1, x1 + local.uniform(1.2, 2.0),
                                          y1 + local.uniform(1.2, 2.0))
            elif kind == 3:
                from arakgrid import rasterize_open_disk
                disk = rasterize_open_disk(g, 1.5, 1.5, 1.1)
                ang = local.uniform(0, 2 * math.pi)
                slit = rasterize_closed(
                    [Primitive.segment((1.5, 1.5),
                                       (1.5 + 1.2 * math.cos(ang),
                                        1.5 + 1.2 * math.sin(ang)))], g)
                region = custom_region(g, disk - slit, simply_connected=True)
            else:
                side = 0.1 * int(local.choice([5, 9, 13, 17]))
                region = plane_region(make_grid(0, 0, side, side, 0.1))
                levels = (4, 17)
            exh = build_exhaustion(region, int(local.integers(*levels)))
            exh.validate(region)

    def test_rejects_zero_levels(self):
        g = make_grid(0, 0, 4, 4, 1)
        with pytest.raises(PreconditionError):
            build_exhaustion(plane_region(g), 0)
        with pytest.raises(PreconditionError):
            build_exhaustion(plane_region(g))

    def test_like_reuses_thresholds_on_another_window(self):
        sc = _staircase_scene()
        region = sc.region()
        exh = build_exhaustion(region, 3)
        assert build_exhaustion(region, like=exh) is exh
        got = build_exhaustion(sc.region(sc.grid.with_ymax(12)), like=exh)
        assert got is not exh and got.level_ids == exh.level_ids
        assert (got.r_values, got.R_values, got.center, got.capped) == \
            (exh.r_values, exh.R_values, exh.center, exh.capped)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(1e-3, 1), st.floats(-3, 3), st.floats(-3, 3),
           st.integers(2, 50), st.integers(2, 50), st.integers(0, 30),
           st.integers(0, 30), st.integers(1, 5))
    def test_cap_is_hypot_twin(self, d, fx, fy, ncols, nrows, grow_x, grow_y,
                               nlevels):
        # the cap reads hypot once per distinct offset pair, only inside the
        # box of rows and columns within the top R: each level must still be
        # interior & (np.hypot(X - cx, Y - cy) <= R_k), bit for bit, on the
        # base window (centre offset from the origin) and on a larger one
        # (centre offset from the window's own)
        x0, y0 = fx * ncols * d, fy * nrows * d
        base = plane_region(make_grid(x0, y0, x0 + ncols * d, y0 + nrows * d, d))
        big = plane_region(make_grid(x0 - grow_x * d, y0, x0 + ncols * d,
                                     y0 + (nrows + grow_y) * d, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                exh = build_exhaustion(base, nlevels)
            except ArakGridError:
                return                      # every level empty: too thin
            seen = [(base, exh), (big, build_exhaustion(big, like=exh))]
        for region, got in seen:
            assert got.capped
            X, Y = region.grid.center_mesh()
            rad = np.hypot(X - got.center[0], Y - got.center[1])
            kept = dict(zip(got.level_ids, got.levels))
            for k in range(1, nlevels + 1):
                want = region.interior(got.r_values[k - 1]) & (rad <= got.R_values[k - 1])
                assert np.array_equal(kept[k].bits if k in kept else
                                      np.zeros_like(want), want)
            # outer radii: the largest |cell centre| of each level
            outer = [center_abs_reference(region.grid)[K.bits].max() for K in got.levels]
            want = [outer[min(k + 1, len(outer) - 1)] + region.grid.delta / 2
                    for k in range(len(outer))]
            assert np.array(got.declared_bounds).view(np.int64).tolist() == \
                np.array(want).view(np.int64).tolist()

    @settings(max_examples=150, deadline=None)
    @given(_exhaustion_regions(), st.integers(1, 12))
    def test_levels_are_capped_interior_masks(self, region, nlevels):
        # each kept level is A_k, the cells at least r_k from the complement
        # and, when capped, within R_k of the center; A_k has no naive hole
        # and holds the 8-neighborhood of A_(k-1).  Up to 7 levels the cap
        # grows by half_diagonal / nlevels > 1.5 cells a level; from 8 on
        # its floor sets it
        omega, alpha = region.omega.bits, region.alpha_border
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                exh = build_exhaustion(region, nlevels)
            except ArakGridError:
                return                      # every level empty: too thin
        X, Y = region.grid.center_mesh()
        rad = np.hypot(X - exh.center[0], Y - exh.center[1])
        kept = dict(zip(exh.level_ids, exh.levels))
        prev = np.zeros_like(omega)
        for k in range(1, nlevels + 1):
            a = omega & (region.boundary_distance() >= exh.r_values[k - 1])
            if exh.capped:
                a &= rad <= exh.R_values[k - 1]
            got = kept[k].bits if k in kept else np.zeros_like(omega)
            assert np.array_equal(got, a)
            assert not naive_holes(omega, a, alpha).any()
            assert not (naive_dilate(prev, 8) & ~a).any()
            prev = a


@st.composite
def _windows(draw):
    """Windows of 1 ... 40 cells a side (odd and even, 1 x N and N x 1), at
    unit scale or with coordinates near make_grid's 3.3e153 limit, centred
    on the origin or off it."""
    ncols, nrows = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    d = draw(st.floats(0.1, 1)) * draw(st.sampled_from([1.0, 2.0 ** -40, 1e151]))
    fx, fy = (draw(st.one_of(st.just(-0.5), st.floats(-3, 3))) for _ in "xy")
    x0, y0 = fx * ncols * d, fy * nrows * d
    return make_grid(x0, y0, x0 + ncols * d, y0 + nrows * d, d)


def _bits(a) -> list:
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


class TestRowEndRadii:
    """Outer radii, hole-union extents and cap masks read from row ends and
    row thresholds, against ``hypot`` on the full mesh, bit for bit.  Both
    readings rest on hypot never falling as |x| grows along a row: each
    test checks that on its own sampled offsets rather than assuming it."""

    @staticmethod
    def _rows_never_fall(ax, full):
        order = np.argsort(ax, kind="stable")
        assert (np.diff(full[:, order], axis=1) >= 0).all()

    @settings(max_examples=200, deadline=None)
    @given(_windows(), st.integers(1, 3), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_outer_radii_match_the_full_mesh(self, g, nmasks, p, seed):
        gen = np.random.default_rng(seed)
        masks = gen.random((nmasks, g.nrows, g.ncols)) < p
        masks[:, gen.random(g.nrows) < 0.3] = False         # empty rows
        full = center_abs_reference(g)
        self._rows_never_fall(np.abs(g.center_axes()[0]), full)
        want = [full[m].max() if m.any() else -np.inf for m in masks]
        assert _bits(_outer_radii(masks, g)) == _bits(want)
        assert _bits(_outer_radii(masks[0], g)) == _bits(want[0])

    @settings(max_examples=150, deadline=None)
    @given(_windows(), st.floats(0.3, 0.8), st.integers(0, 2**32 - 1))
    def test_extent_max_abs_matches_the_full_mesh(self, g, p, seed):
        gen = np.random.default_rng(seed)
        region = plane_region(g)
        hs = holes(CellSet(g, gen.random((g.nrows, g.ncols)) < p), region)
        want = center_abs_reference(g)[hs.union.bits].max() if hs.count else 0.0
        assert _bits(_extent(hs, region).max_abs) == _bits(want)

    @settings(max_examples=200, deadline=None)
    @given(_windows(), st.integers(-3, 3), st.integers(-3, 3), st.data())
    def test_cap_masks_match_the_full_mesh(self, g, si, sj, data):
        # centred on the window or some cells off it (a larger window's
        # centre); radii from none of the cells to all of them, and radii
        # that some cell's hypot equals exactly
        cx, cy = g.window_center
        dx, dy = g.center_axes()[0] - (cx + si * g.delta), g.center_axes()[1] - (cy + sj * g.delta)
        full = np.hypot(dx, dy[:, None])
        self._rows_never_fall(np.abs(dx), full)
        radii = data.draw(st.lists(st.one_of(
            st.floats(0, 1.2).map(lambda f: f * g.half_diagonal),
            st.sampled_from(full.ravel().tolist()),
            st.sampled_from([0.0, math.inf])), min_size=1, max_size=4))
        thr = _row_thresholds(np.abs(dx), np.abs(dy), radii)
        assert thr.shape == (len(radii), g.nrows)
        for R, t in zip(radii, thr):
            assert np.array_equal(np.abs(dx) <= t[:, None], full <= R)

    @pytest.mark.parametrize("R", [math.nan, math.inf, 1e308, -1.0, 0.0])
    def test_a_bad_seed_bisects(self, monkeypatch, R):
        # NaN and overflowed seeds sit at the last column: the correction
        # halves its bracket rather than walking back column by column
        ax = np.arange(4096) * 0.5
        ay = np.arange(8) * 0.5
        calls = []
        hypot = np.hypot
        monkeypatch.setattr(np, "hypot", lambda *a: calls.append(1) or hypot(*a))
        thr = _row_thresholds(ax, ay, [R])
        assert len(calls) <= 2 + math.ceil(math.log2(ax.size + 1))
        want = np.where(hypot(ax, ay[:, None]) <= R, ax, -np.inf).max(axis=1)
        assert _bits(thr[0]) == _bits(want)


class TestHoleUnionExtent:
    def test_segment_with_empty_k(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        rec = hole_union_extent(F, CellSet.empty(g), region)
        assert rec.count == 0 and rec.max_abs == 0.0 and rec.area == 0.0

    def test_staircase_with_disk_grows_with_window_top(self):
        K_prim = [Primitive.disk((0, 0), 2)]
        counts, maxes = [], []
        for H in (8, 16, 32):
            sc = _staircase_scene(H)
            region = sc.region()
            F = sc.raster("F")
            K = rasterize_closed(K_prim, sc.grid)
            rec = hole_union_extent(F, K, region)
            counts.append(rec.count)
            maxes.append(rec.max_abs)
        assert counts[0] < counts[1] < counts[2]
        assert maxes[0] < maxes[1] < maxes[2]

    def test_u_carrier_bridged_by_rect_has_one_hole(self):
        # Two parallel arms (a U-shaped polyline) whose mouth is bridged by a
        # solid rectangle: exactly one trapped room, matching the flood-fill
        # oracle.  (Two *disjoint* parallel segments plus one convex rectangle
        # cannot enclose anything; the U supplies the third wall.)
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed(
            [Primitive.polyline([(1, 1), (-1, 1), (-1, -1), (1, -1)])], g)
        K = rasterize_closed([Primitive.rect((0.9, -1.2), (1.3, 1.2))], g)
        rec = hole_union_extent(F, K, region)
        assert rec.count == 1

        from oracles import naive_holes
        want = naive_holes(region.omega.bits, (F | K).bits, region.alpha_border)
        hs = holes(F | K, region)
        assert np.array_equal(hs.union.bits, want)
        assert rec.max_abs == pytest.approx(
            float(center_abs_reference(g)[want].max()), abs=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20),
           st.sampled_from([1, 0.1, 0.3, 1 / 3, 0.07]),
           st.sets(st.sampled_from("NSEW")), st.sampled_from([0.0, 0.2]),
           st.floats(0.5, 1.0), st.floats(0.2, 0.6), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_holes_keep_a_diagonal_from_the_boundary(
            self, nrows, ncols, delta, edges, exit_p, omega_p, f_p, with_k, seed):
        # a hole cell is never alpha-adjacent, so no complement cell is
        # 4-adjacent to it, and never on an undeclared window edge, which
        # leaves at least 1.5 delta to that edge: sqrt(2) delta at least
        g = make_grid(0, 0, ncols * delta, nrows * delta, delta)
        gen = np.random.default_rng(seed)
        omega = gen.random((g.nrows, g.ncols)) < omega_p
        omega[0, 0] = True                  # never empty
        region = custom_region(
            g, CellSet(g, omega), unbounded_edges=tuple(edges),
            extra_unbounded=gen.random(omega.shape) < exit_p)
        F = CellSet(g, omega & (gen.random(omega.shape) < f_p))
        K = CellSet(g, omega & (gen.random(omega.shape) < f_p / 2) & with_k)
        rec = hole_union_extent(F, K, region)
        assert rec.count == 0 or rec.min_bd_dist >= math.sqrt(2) * delta

    @pytest.mark.parametrize("delta", [1, 0.1, 0.3, 1 / 3, 0.07])
    def test_diagonal_complement_cell_is_the_nearest(self, delta):
        # F walls in one cell whose diagonal neighbour is off the region
        g = make_grid(0, 0, 7 * delta, 7 * delta, delta)
        omega = np.ones((7, 7), dtype=bool)
        omega[2, 2] = False
        F = CellSet.from_cells(g, [(2, 3), (3, 2), (4, 3), (3, 4)])
        rec = hole_union_extent(F, CellSet.empty(g),
                                custom_region(g, CellSet(g, omega)))
        assert rec.count == 1 and rec.min_bd_dist == math.sqrt(2) * delta


class TestCheckArakelian:
    def test_segment_in_plane_verified_all_extents_empty(self):
        g = make_grid(-2, -2, 2, 2, 1 / 32)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        exh = build_exhaustion(region, 3)
        v = check_arakelian(F, region, exh)
        assert v.status == VERIFIED_UP_TO and v.level == 3
        assert all(rec.count == 0 for rec in v.extents[0])

    def test_twin_circles_refuted_with_annulus_witness(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 128)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        F = rasterize_closed([Primitive.circle((0, 0), 0.3),
                              Primitive.circle((0, 0), 0.6)], g)
        exh = build_exhaustion(region, 3)
        v = check_arakelian(F, region, exh)
        assert v.status == REFUTED
        x, y = v.witness["point"]
        assert 0.3 < math.hypot(x, y) < 0.6

    def test_staircase_divergent_over_window_schedule(self):
        sc = _staircase_scene()
        region = sc.region()
        F = sc.raster("F")
        exh = build_exhaustion(region, 3)
        sched = [sc.grid.with_ymax(h) for h in (8, 16, 32)]
        v = check_arakelian(F, region, exh, sched,
                            scene_builder=lambda g: (sc.raster("F", g),
                                                     sc.region(g)))
        assert v.status == EVIDENCE_DIVERGENT
        row = next(r for r in v.growth if r["divergent"])
        assert row["max_abs"][0] < row["max_abs"][1] < row["max_abs"][2]

    def test_staircase_single_window_is_inconclusive(self):
        sc = _staircase_scene()
        region = sc.region()
        F = sc.raster("F")
        exh = build_exhaustion(region, 3)
        v = check_arakelian(F, region, exh)
        assert v.status == INCONCLUSIVE

    def test_schedule_requires_scene_builder(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        exh = build_exhaustion(region, 2)
        with pytest.raises(PreconditionError):
            check_arakelian(F, region, exh, [g.with_ymax(4)])

    @pytest.mark.parametrize("window", [(-3, -3, 3, 4), (-2, -3, 3, 8),
                                        (-3, -3, 2.5, 16)])
    def test_schedule_windows_contain_the_base_window(self, window):
        # levels are the base window's compact sets: a window that does not
        # hold them all would clip them
        sc = _staircase_scene()
        sched = [make_grid(*window, sc.grid.delta)]
        with pytest.raises(PreconditionError):
            check_arakelian(sc.raster("F"), sc.region(), 3, sched,
                            scene_builder=lambda g: (sc.raster("F", g),
                                                     sc.region(g)))

    def test_refuted_witness_revalidates_on_rebuilt_scene(self):
        text = "grid -1.25 -1.25 1.25 1.25 0.0078125\nfixture ex_2_10 0.3 0.6\n"
        sc = parse_scene(text)
        region = sc.region()
        F = sc.raster("F")
        v = check_arakelian(F, region, build_exhaustion(region, 3))
        assert v.status == REFUTED
        fresh = parse_scene(text)
        fresh_region = fresh.region()
        hs = holes(fresh.raster("F"), fresh_region)
        i, j = v.witness["cell"]
        assert hs.labeling.labels[j, i] in hs.hole_labels

    def test_verdict_is_deterministic(self):
        def run():
            sc = _staircase_scene()
            region = sc.region()
            exh = build_exhaustion(region, 3)
            sched = [sc.grid.with_ymax(h) for h in (8, 16, 32)]
            v = check_arakelian(sc.raster("F"), region, exh, sched,
                                scene_builder=lambda g: (sc.raster("F", g),
                                                         sc.region(g)))
            return json.dumps(v.to_json_dict(), sort_keys=True)
        assert run() == run()


class TestAlphaNeighborhood:
    def test_trivial_no_removal(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        nbhd = alpha_neighborhood(F, CellSet.empty(g), region)
        assert nbhd.w.same_cells(region.omega)
        assert nbhd.connected is True

    def test_bridged_u_excludes_compact_and_hole(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed(
            [Primitive.polyline([(1, 1), (-1, 1), (-1, -1), (1, -1)])], g)
        K = rasterize_closed([Primitive.rect((0.9, -1.2), (1.3, 1.2))], g)
        hs = holes(F | K, region)
        assert hs.count == 1
        nbhd = alpha_neighborhood(F, K, region)
        assert (nbhd.w & K).is_empty()
        assert (nbhd.w & hs.union).is_empty()
        assert nbhd.connected is True

    def test_carrier_with_own_hole_flags_false(self):
        g = make_grid(-1, -1, 1, 1, 1 / 64)
        region = open_disk_region(g, 0, 0, 1)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        nbhd = alpha_neighborhood(F, CellSet.empty(g), region)
        assert nbhd.connected is False
        assert holes(F, region).count == 1

    def test_forward_direction_at_every_verified_level(self):
        # wherever the check verifies, the alpha neighborhood of every level
        # is connected
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 64)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        exh = build_exhaustion(region, 3)
        for r in (0.3, 0.6):
            F = rasterize_closed([Primitive.circle((0, 0), r)], g)
            v = check_arakelian(F, region, exh)
            assert v.status == VERIFIED_UP_TO
            for K in exh.levels:
                assert alpha_neighborhood(F, K, region).connected is True

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["plane", "disk", "clipped_disk"]), st.data())
    def test_matches_three_labeling_oracle(self, kind, data):
        # the clipped disk runs off the window with no declared edge, so
        # window-ambiguous components occur
        g = make_grid(0, 0, 10, 10, 1)
        region = {"plane": lambda: plane_region(g),
                  "disk": lambda: open_disk_region(g, 5, 5, 4.5),
                  "clipped_disk": lambda: open_disk_region(g, 5, 5, 6.5)}[kind]()
        masks = st.lists(st.booleans(), min_size=100, max_size=100)
        f_bits = np.array(data.draw(masks), dtype=bool).reshape(10, 10)
        k_bits = np.array(data.draw(masks), dtype=bool).reshape(10, 10)
        F = CellSet(g, f_bits & region.omega.bits)
        K = CellSet(g, k_bits & region.omega.bits)
        nbhd = alpha_neighborhood(F, K, region)
        w, connected, count = naive_alpha_neighborhood(
            region.omega.bits, F.bits, K.bits, region.alpha_border)
        assert np.array_equal(nbhd.w.bits, w)
        assert nbhd.connected is connected
        assert holes(F, region).count == count
