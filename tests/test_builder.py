import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (AmbiguousRegionError, BuildRefusalError, CellSet,
                      CertificateError, NotSimplyConnectedError,
                      PreconditionError, Primitive,
                      build_exhaustion, build_v, check_arakelian,
                      disjoint_union_v, disk_cover,
                      escape_curves, holes, make_grid, open_disk_region,
                      open_rect_region, plane_region, rasterize_closed,
                      refutation_blocks_build, refute_witness)
from arakgrid.arakelian import INCONCLUSIVE, VERIFIED_UP_TO
from arakgrid.builder import (Certificate, DiskCover, EscapePlan, _checked,
                              _Wave, _walk_down)
from arakgrid.scene import parse_scene
from arakgrid.topology import ComplementReport

from oracles import (bfs_distances, bfs_path_ok, disk_cover_reference,
                     flood_components, naive_dilate, naive_reach)
from test_acceptance import _random_open_scene

rng = np.random.default_rng(31337)


def _plane(delta=1 / 32, span=2.0):
    g = make_grid(-span, -span, span, span, delta)
    return g, plane_region(g)


def _points(g, pts):
    return rasterize_closed([Primitive.point(p) for p in pts], g)


class TestDiskCover:
    def test_no_obstacles_empty_cover(self):
        g, region = _plane()
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        cover = disk_cover(F, region.omega, region)
        assert cover.disks == [] and cover.covered.is_empty()

    def test_far_point_radius_capped_at_one(self):
        g, region = _plane(1 / 16, 8.0)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacle = _points(g, [(0, 4)])          # distance 4 from F, plane scene
        cover = disk_cover(F, region.omega - obstacle, region)
        assert len(cover.disks) == 1
        assert cover.disks[0].radius == pytest.approx(1.0, abs=1e-9)

    def test_two_obstacles_covered(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = _points(g, [(0, 1), (0, -1)])
        cover = disk_cover(F, region.omega - obstacles, region)
        assert len(cover.disks) <= 2
        assert obstacles.issubset(cover.covered)
        for d in cover.disks:
            df = math.hypot(d.center_xy[0] - max(0, min(1, d.center_xy[0])),
                            d.center_xy[1])
            assert d.radius <= df / 2 + 1e-6 and d.radius <= 1.0

    def test_refuses_when_carrier_touches_obstacles(self):
        g, region = _plane()
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        with pytest.raises(PreconditionError):
            disk_cover(F, region.omega - F, region)

    @pytest.mark.parametrize("build", [build_v, disk_cover])
    @pytest.mark.parametrize("case", ["F-outside-U", "U-outside-region"])
    def test_f_inside_u_inside_region_contract(self, build, case):
        # build_v leaves this check to disk_cover: one guard, one message
        g = make_grid(-1.5, -1.5, 1.5, 1.5, 1 / 16)
        region = open_disk_region(g, 0, 0, 1)
        F = _points(g, [(0, 0)])
        U = region.omega - F if case == "F-outside-U" else \
            region.omega | _points(g, [(1.4, 1.4)])
        with pytest.raises(PreconditionError,
                           match="need F inside U inside the region"):
            build(F, U, region)

    def test_annulus_accounting(self):
        g, region = _plane(1 / 16)
        F = rasterize_closed([Primitive.segment((0, 0), (0.5, 0))], g)
        obstacles = _points(g, [(0, 1), (1.2, 1.2), (-1.5, -1.5)])
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, region.omega - obstacles, region)
        # each disk sits in the first level holding its center, or in the
        # residue past the last level; annuli are covered in order
        for d in cover.disks:
            i, j = d.center
            assert d.annulus == next((k + 1 for k, K in enumerate(exh.levels)
                                      if K.bits[j, i]), len(exh.levels) + 1)
        annuli = [d.annulus for d in cover.disks]
        assert annuli == sorted(annuli) and len(set(annuli)) > 1


def _cover_region(kind, n, inset=1, delta=1 / 16):
    """An n x n window of cells of side delta: the plane, or an open disk or
    open rectangle inside it, whose boundary distances are finite."""
    w = n * delta
    g = make_grid(0, 0, w, w, delta)
    if kind == "plane":
        return plane_region(g)
    if kind == "disk":
        return open_disk_region(g, w / 2, w / 2, 0.45 * w)
    return open_rect_region(g, inset * delta, inset * delta, w - inset * delta,
                            w - inset * delta)


def _assert_cover_matches_reference(F, obstacles, region):
    U = region.omega - obstacles
    cover = disk_cover(F, U, region)
    want, covered = disk_cover_reference(F, U, region)
    # radii compared by their bits, not by ==
    assert [(d.center, d.radius.hex(), d.annulus) for d in cover.disks] == \
        [(c, r.hex(), a) for c, r, a in want]
    assert all(d.center_xy == region.grid.cell_center(*d.center)
               for d in cover.disks)
    assert np.array_equal(cover.covered.bits, covered)
    return cover


class TestDiskCoverMatchesReference:
    """``disk_cover`` reads dist(x, F) at the chosen centres only and the
    boundary distance from the cells near them; the reference reads a full
    pairwise-minimum field and the boundary-distance field.  Same centres,
    radii to the bit, annuli and covered cells."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["plane", "disk", "rect"]), st.integers(14, 24),
           st.integers(0, 2), st.sampled_from([1 / 16, 0.1, 0.07]),
           st.booleans(), st.data())
    def test_random_scenes(self, kind, n, inset, delta, on_border, data):
        region = _cover_region(kind, n, inset, delta)
        omega = region.omega.bits
        f_bits = np.zeros_like(omega)
        cells = [tuple(c) for c in np.argwhere(omega)]
        for j, i in data.draw(st.lists(st.sampled_from(cells), max_size=8)):
            f_bits[j, i] = True
        if on_border:                       # a run along the bottom window row
            f_bits[0, :data.draw(st.integers(1, n))] = True
            f_bits &= omega
        free = omega & ~f_bits
        near = [tuple(c) for c in np.argwhere(naive_dilate(f_bits, 8) & free)]
        far = [tuple(c) for c in np.argwhere(free)]
        o_bits = np.zeros_like(omega)
        for pool, most in ((near, 3), (far, 5)):
            if pool:
                for j, i in data.draw(st.lists(st.sampled_from(pool), max_size=most)):
                    o_bits[j, i] = True
        g = region.grid
        _assert_cover_matches_reference(CellSet(g, f_bits), CellSet(g, o_bits),
                                        region)

    @pytest.mark.parametrize("kind, inset, f_cells, o_cells, delta", [
        ("disk", 1, [], [(3, 10), (10, 10), (16, 10)], 1 / 16),
        ("plane", 1, [], [(0, 0), (19, 19), (7, 12)], 1 / 16),
        ("plane", 1, [(i, 0) for i in range(20)], [(5, 1), (12, 2), (0, 19)], 1 / 16),
        ("rect", 0, [(i, 0) for i in range(20)], [(5, 1), (12, 2), (19, 19)], 1 / 16),
        ("rect", 0, [(0, j) for j in range(20)], [(1, 4), (2, 9), (1, 19)], 1 / 16),
        ("rect", 2, [(9, 9), (10, 9)], [(8, 8), (11, 10), (9, 10), (2, 2)], 1 / 16),
        ("disk", 1, [(10, 10)], [(9, 9), (11, 11), (10, 12), (4, 10)], 1 / 16),
        # sqrt(81) * 0.1 / 2 and sqrt(81 * 0.1 ** 2) / 2 differ in the last bit
        ("plane", 1, [(0, 0)], [(9, 0)], 0.1),
    ], ids=["empty-F-disk", "empty-F-plane", "bottom-row-plane",
            "bottom-row-rect", "left-column-rect", "adjacent-rect",
            "adjacent-disk", "non-dyadic-radius"])
    def test_edge_cases(self, kind, inset, f_cells, o_cells, delta):
        region = _cover_region(kind, 20, inset, delta)
        g = region.grid
        F = CellSet.from_cells(g, f_cells) & region.omega
        obstacles = CellSet.from_cells(g, o_cells) & region.omega
        assert not obstacles.is_empty() and (F & obstacles).is_empty()
        _assert_cover_matches_reference(F, obstacles, region)

    @pytest.mark.parametrize("kind", ["disk", "rect"])
    def test_window_wider_than_the_cap(self, kind):
        # a 4 x 4 window: complement cells lie past the radius cap of 1 from
        # the capped centre (20, 25), outside the cells each radius reads
        region = _cover_region(kind, 40, 2, 0.1)
        g = region.grid
        F = CellSet.from_cells(g, [(20, 3)])
        obstacles = CellSet.from_cells(g, [(20, 25), (5, 20), (34, 12), (20, 36)])
        assert F.issubset(region.omega) and obstacles.issubset(region.omega)
        cover = _assert_cover_matches_reference(F, obstacles, region)
        assert [d.radius for d in cover.disks if d.center == (20, 25)] == [1.0]

    @pytest.mark.parametrize("kind", ["plane", "disk", "rect"])
    def test_obstacles_fill_half_the_region(self, kind):
        # every region cell right of the middle column is an obstacle: many
        # disks per annulus, each clearing its own box
        region = _cover_region(kind, 24, 1)
        g = region.grid
        F = CellSet.from_cells(g, [(3, 12), (4, 12)])
        o_bits = region.omega.bits.copy()
        o_bits[:, :12] = False
        cover = _assert_cover_matches_reference(F, CellSet(g, o_bits), region)
        per_annulus = [d.annulus for d in cover.disks]
        assert max(per_annulus.count(a) for a in set(per_annulus)) >= 3


class TestEscapeCurves:
    def test_empty_cover_empty_plan(self):
        g, region = _plane()
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        plan = escape_curves(disk_cover(F, region.omega, region), F, region)
        assert plan.curves == [] and plan.union.is_empty()

    def test_single_disk_escapes_past_vertical_wall(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, -1.5), (0, 1.5))], g)
        obstacle = _points(g, [(-1, 0)])
        cover = disk_cover(F, region.omega - obstacle, region)
        plan = escape_curves(cover, F, region)
        assert len(plan.curves) == 1
        path = plan.curves[0].path
        assert bfs_path_ok(path, F.bits, region.alpha_adjacent)
        assert path[0] == cover.disks[0].center
        assert all(i < g.point_cell(0, 0)[0] for i, _ in path)  # stays west of F

    def test_randomized_scenes_all_paths_valid(self):
        for _ in range(100):
            g, region = _plane(1 / 16)
            x0 = rng.uniform(-1.5, 0.5)
            F = rasterize_closed(
                [Primitive.segment((x0, rng.uniform(-1, 1)),
                                   (x0 + rng.uniform(0.5, 1.5),
                                    rng.uniform(-1, 1)))], g)
            pts = []
            df = None
            from arakgrid import distance_field
            df = distance_field(F).values
            while len(pts) < int(rng.integers(1, 4)):
                p = rng.uniform(-1.8, 1.8, size=2)
                i, j = g.point_cell(*p)
                if df[j, i] > 3 * g.delta:
                    pts.append(tuple(p))
            obstacles = _points(g, pts)
            cover = disk_cover(F, region.omega - obstacles, region)
            plan = escape_curves(cover, F, region)
            assert len(plan.curves) == len(cover.disks)
            for c in plan.curves:
                assert bfs_path_ok(c.path, F.bits, region.alpha_adjacent)

    def test_enclosed_center_is_refused(self):
        g, region = _plane(1 / 16)
        ring = Primitive.polyline([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)])
        F = rasterize_closed([ring], g)
        obstacle = _points(g, [(0, 0)])
        cover = disk_cover(F, region.omega - obstacle, region)
        with pytest.raises(BuildRefusalError):
            escape_curves(cover, F, region)

    def test_stage_segments_stay_in_recorded_components(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = _points(g, [(0, 1), (0, -1)])
        cover = disk_cover(F, region.omega - obstacles, region)
        plan = escape_curves(cover, F, region)
        for curve in plan.curves:
            full = curve.path
            assert full[0] == curve.center
            rebuilt = [full[0]]
            for st in curve.stages:
                seg = st.path
                assert seg[0] == rebuilt[-1]
                rebuilt.extend(seg[1:])
            assert rebuilt == full


def _checkerboard(nrows, ncols):
    jj, ii = np.indices((nrows, ncols))
    return (ii + jj) % 2 == 0


def _corner(nrows, ncols):
    t = np.zeros((nrows, ncols), dtype=bool)
    t[0, 0] = True
    return t


def _blocked_middle(nrows, ncols):
    d = np.ones((nrows, ncols), dtype=bool)
    d[nrows // 2, ncols // 2] = False
    return d


def _serpentine(nrows, ncols):
    """A one-cell corridor snaking row by row: BFS depth far above the side."""
    d = np.zeros((nrows, ncols), dtype=bool)
    d[::2] = True
    d[1::4, -1] = d[3::4, 0] = True
    return d


def _around_centre(k):
    """The first k of the centre's four neighbours on a 7x7 grid: on a free
    grid the centre is one new cell of layer 1 reached from all k targets,
    and a corner between two targets is reached from both."""
    t = np.zeros((7, 7), dtype=bool)
    for j, i in ((3, 2), (2, 3), (3, 4), (4, 3))[:k]:
        t[j, i] = True
    return t


def _all_but_block(k):
    """Targets on a 9x9 grid everywhere but a k x k block at (3, 2)."""
    t = np.ones((9, 9), dtype=bool)
    t[2:2 + k, 3:3 + k] = False
    return t


def _naive_rim(domain, targets):
    """Targets in the domain with a 4-neighbour in the domain that is no
    target, cell by cell."""
    nrows, ncols = domain.shape
    return {(i, j) for j, i in np.ndindex(domain.shape)
            if domain[j, i] and targets[j, i] and any(
                0 <= i + di < ncols and 0 <= j + dj < nrows and
                domain[j + dj, i + di] and not targets[j + dj, i + di]
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))}


def _first_frontier(domain, targets):
    """A new wave's frontier as (i, j) cells of the unpadded grid."""
    wave = _Wave(domain, targets)
    return {(int(p % wave.width) - 1, int(p // wave.width) - 1)
            for p in wave.frontier}


def _exhausted(domain, targets):
    """The wave's field once every cell of the grid has been asked for."""
    wave = _Wave(domain, targets)
    for j, i in np.ndindex(domain.shape):
        dist = wave.reach((i, j))
    return dist


class TestWaveDistances:
    """``_Wave`` against the full-depth oracle, asked cell by cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_oracle_on_random_masks(self, nrows, ncols, data):
        n = nrows * ncols
        masks = st.lists(st.booleans(), min_size=n, max_size=n)
        domain = np.array(data.draw(masks), dtype=bool).reshape(nrows, ncols)
        targets = np.array(data.draw(masks), dtype=bool).reshape(nrows, ncols)
        full = bfs_distances(domain, targets)
        assert _first_frontier(domain, targets) == _naive_rim(domain, targets)
        cells = st.tuples(st.integers(0, ncols - 1), st.integers(0, nrows - 1))
        wave, deepest = _Wave(domain, targets), -1
        for i, j in data.draw(st.lists(cells, max_size=8)):
            got = wave.reach((i, j))
            assert got.dtype == np.int32
            # an unreached cell, in the domain or not, runs the wave dry
            deepest = max(deepest, full[j, i] if full[j, i] >= 0 else full.max())
            assert np.array_equal(got[got >= 0], full[got >= 0])
            assert (got[(full >= 0) & (full <= deepest)] >= 0).all()
            assert wave.depth <= deepest + 1           # no layer past the ask
            assert _walk_down((i, j), got) == _walk_down((i, j), full)

    @pytest.mark.parametrize("domain, targets", [
        (np.ones((5, 7), dtype=bool), np.zeros((5, 7), dtype=bool)),
        (_blocked_middle(5, 7), ~_blocked_middle(5, 7)),
        (_checkerboard(5, 7), ~_checkerboard(5, 7)),
        (_blocked_middle(1, 9), _corner(1, 9)),
        (_blocked_middle(9, 1), _corner(9, 1)),
        (np.ones((1, 1), dtype=bool), _corner(1, 1)),
        (np.ones((6, 8), dtype=bool), _corner(6, 8)),
        (_checkerboard(6, 8), _corner(6, 8)),
        (_checkerboard(6, 8), np.ones((6, 8), dtype=bool)),
        (_serpentine(9, 11), _corner(9, 11)),
        (np.ones((7, 7), dtype=bool), _around_centre(4)),
        (np.ones((7, 7), dtype=bool), _around_centre(3)),
        (np.ones((7, 7), dtype=bool), _around_centre(2)),
        (_serpentine(9, 11), ~_serpentine(9, 11)),
        (np.ones((9, 9), dtype=bool), _all_but_block(1)),
        (np.ones((9, 9), dtype=bool), _all_but_block(3)),
        (_checkerboard(9, 9), _all_but_block(3)),
    ], ids=["no-targets", "targets-outside", "checkerboard-outside",
            "row", "column", "single-cell", "free", "checkerboard",
            "checkerboard-all", "serpentine", "reached-from-4",
            "reached-from-3", "reached-from-2", "targets-beside-serpentine",
            "all-but-1x1", "all-but-3x3", "checkerboard-all-but-3x3"])
    def test_edge_cases_match_oracle(self, domain, targets):
        assert _first_frontier(domain, targets) == _naive_rim(domain, targets)
        got = _exhausted(domain, targets)
        assert got.dtype == np.int32
        assert np.array_equal(got, bfs_distances(domain, targets))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_but_a_block_seeds_its_rim(self, k):
        # only the 4k targets beside the block seed the first layer
        wave = _Wave(np.ones((9, 9), dtype=bool), _all_but_block(k))
        assert wave.frontier.size == 4 * k
        got = wave.reach((3 + k // 2, 2 + k // 2))
        assert got[2 + k // 2, 3 + k // 2] == wave.depth == (k + 1) // 2
        assert (got[_all_but_block(k)] == 0).all()

    def test_targets_only_off_domain_run_nothing(self):
        domain = np.zeros((5, 7), dtype=bool)
        domain[:, :3] = True
        wave = _Wave(domain, ~domain)
        assert wave.frontier.size == 0
        assert (wave.reach((1, 2)) == -1).all() and wave.depth == 0

    def test_asked_target_reads_zero_without_a_layer(self):
        targets = _around_centre(4)
        wave = _Wave(np.ones((7, 7), dtype=bool), targets)
        for j, i in np.argwhere(targets):
            assert wave.reach((i, j))[j, i] == 0
        assert wave.depth == 0 and wave.frontier.size == 4

    def test_free_grid_is_manhattan(self):
        got = _exhausted(np.ones((6, 8), dtype=bool), _corner(6, 8))
        jj, ii = np.indices((6, 8))
        assert np.array_equal(got, ii + jj)


def _reference_walk(start, dist):
    i, j = start
    if dist[j, i] < 0:
        return None
    path = [start]
    while dist[j, i] > 0:
        for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= nj < dist.shape[0] and 0 <= ni < dist.shape[1] and \
                    dist[nj, ni] == dist[j, i] - 1:
                i, j = ni, nj
                break
        path.append((i, j))
    return path


def _reference_routes(cover, F, region, exh):
    """Escape routes computed the slow way: stage domains labeled by flood
    fill, one oracle BFS per (stage, component, target) confined to that
    component, and an east-north-west-south walk down the distances."""
    omega = region.omega.bits
    stages = []
    for k in [np.zeros_like(F.bits)] + [K.bits for K in exh.levels]:
        labels = flood_components(omega & ~F.bits & ~k, 4)
        status = naive_reach(labels, int(labels.max()) + 1, omega,
                             region.alpha_border)
        alpha = np.zeros_like(omega)
        for lbl, st_ in enumerate(status):
            if st_ == "REACHES_ALPHA":
                alpha |= labels == lbl
        stages.append((labels, status, alpha))
    top = len(exh.levels)

    def route(s, cell, targets):
        labels = stages[s][0]
        comp = labels[cell[1], cell[0]]
        return _reference_walk(cell, bfs_distances(labels == comp, targets))

    routes = []
    for disk in cover.disks:
        i, j = disk.center
        m = next(s for s in range(min(disk.annulus - 1, top), -1, -1)
                 if stages[s][0][j, i] >= 0 and
                 stages[s][1][stages[s][0][j, i]] == "REACHES_ALPHA")
        recs = []
        cur, s_here = disk.center, m
        for s in range(m + 1, top + 1):
            seg = route(s_here, cur, stages[s][2])
            if seg is None:
                break
            cur, s_here = seg[-1], s
            recs.append((s, int(stages[s][0][cur[1], cur[0]]), seg))
        comp_fin = int(stages[s_here][0][cur[1], cur[0]])
        recs.append((s_here, comp_fin,
                     route(s_here, cur, region.alpha_adjacent)))
        path = [disk.center]
        for _, _, seg in recs:
            path.extend(seg[1:] if seg[0] == path[-1] else seg)
        routes.append((disk.center, path, recs))
    return routes


def _segment_scene():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenes",
                        "segment.scene")
    with open(path) as fh:
        sc = parse_scene(fh.read())
    region = sc.region()
    return sc.raster("F"), sc.obstacle_free_u(region), region


def _open_scene(seed):
    g, region = _plane(1 / 32)
    F, obstacles = _random_open_scene(np.random.default_rng(seed), g, region)
    return F, region.omega - obstacles, region


class TestEscapeRoutesMatchReference:
    @pytest.mark.parametrize("make", [
        _segment_scene,
        lambda: _open_scene(1),
        lambda: _open_scene(2),
        lambda: _open_scene(3),
    ], ids=["segment", "open-1", "open-2", "open-3"])
    def test_paths_unchanged(self, make):
        F, U, region = make()
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, U, region)
        assert cover.disks
        plan = escape_curves(cover, F, region)
        got = [(c.center, c.path,
                [(st_.level, st_.component, st_.path) for st_ in c.stages])
               for c in plan.curves]
        assert got == _reference_routes(cover, F, region, exh)


class TestBuildV:
    def test_everything_empty(self):
        g, region = _plane()
        res = build_v(CellSet.empty(g), CellSet.empty(g), region)
        assert res.v.is_empty()
        assert res.certificate.ok()

    def test_compact_carrier_full_u(self):
        g, region = _plane()
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        res = build_v(F, region.omega, region)
        assert res.v.same_cells(region.omega)
        assert res.certificate.ok()

    def test_segment_with_two_obstacles(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = _points(g, [(0, 1), (0, -1)])
        res = build_v(F, region.omega - obstacles, region)
        c = res.certificate
        assert c.f_in_v and c.v_in_u and c.complement_connected
        assert c.sphere_connected is True
        assert len(res.cover.disks) == 2 and len(res.plan.curves) == 2

    def test_complement_decomposition_identity(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = _points(g, [(0.3, 1.1), (-0.7, -0.9)])
        U = region.omega - obstacles
        res = build_v(F, U, region)
        lhs = region.omega - res.v
        rhs = (region.omega - U) | (res.cover.covered & region.omega) \
            | res.plan.union
        assert lhs.same_cells(rhs)

    def test_certificate_idempotence(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        U = region.omega - _points(g, [(0, 1)])
        res = build_v(F, U, region)
        again = res.reverify(F, U, region)
        assert again == res.certificate

    def test_reverify_sees_a_tampered_v(self):
        # the region reuses hole sets by content, so a V with a hole that
        # the build never saw is certified afresh, not read back
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        U = region.omega - _points(g, [(0, 1)])
        res = build_v(F, U, region)
        i, j = g.point_cell(-1.5, -1.5)
        assert res.v.bits[j - 1:j + 2, i - 1:i + 2].all()
        res.v = res.v - CellSet.from_cells(g, [(i, j)])
        cert = res.reverify(F, U, region)
        assert cert.f_in_v and cert.v_in_u
        assert cert.complement_connected is False and not cert.ok()

    def test_shrinking_u_shrinks_v(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        u_big = region.omega - _points(g, [(0, 1)])
        u_small = u_big - _points(g, [(0, -1), (1.2, 1.2)])
        v_small = build_v(F, u_small, region).v
        assert v_small.issubset(u_small)


class TestRefuteWitness:
    def test_staircase_with_disk_many_corridor_witnesses(self):
        sc = parse_scene(
            "grid -3 -3 3 16 0.03125\nomega plane\nfixture intro_staircase\n")
        region = sc.region()
        F = sc.raster("F")
        K = rasterize_closed([Primitive.disk((0, 0), 2)], sc.grid)
        wit = refute_witness(F, region, K)
        assert len(wit.points) >= 3
        hs = holes(F | K, region)
        assert len(wit.points) == hs.count

    def test_twin_circles_single_annulus_witness(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 128)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        F = rasterize_closed([Primitive.circle((0, 0), 0.3),
                              Primitive.circle((0, 0), 0.6)], g)
        wit = refute_witness(F, region, CellSet.empty(g))
        assert len(wit.points) == 1
        assert 0.3 < math.hypot(*wit.points[0]) < 0.6
        assert refutation_blocks_build(F, wit.u, region)

    def test_nested_rings_block_construction(self):
        g, region = _plane(1 / 32)
        rings = [Primitive.polyline([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)]),
                 Primitive.polyline([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5),
                                     (-0.5, 0.5), (-0.5, -0.5)])]
        F = rasterize_closed(rings, g)
        wit = refute_witness(F, region, CellSet.empty(g))
        assert len(wit.points) == 2
        assert refutation_blocks_build(F, wit.u, region)

    def test_requires_nonempty_hole_union(self):
        g, region = _plane()
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        with pytest.raises(PreconditionError):
            refute_witness(F, region, CellSet.empty(g))


class TestDisjointUnion:
    def test_two_segments_combined_certificate(self):
        g, region = _plane(1 / 32)
        F1 = rasterize_closed([Primitive.segment((-1.5, -0.5), (-0.3, -0.5))], g)
        F2 = rasterize_closed([Primitive.segment((0.3, 0.5), (1.5, 0.5))], g)
        res = disjoint_union_v(F1, F2, region.omega, region)
        c = res.certificate
        assert c.ok()
        assert c.parts_disjoint is True
        assert c.part_sphere_connected == (True, True)

    def test_empty_first_carrier_degenerates(self):
        g, region = _plane(1 / 32)
        F2 = rasterize_closed([Primitive.segment((0.3, 0.5), (1.5, 0.5))], g)
        res = disjoint_union_v(CellSet.empty(g), F2, region.omega, region)
        direct = build_v(F2, region.omega, region)
        assert res.v.same_cells(direct.v)

    def test_overlap_rejected(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        with pytest.raises(PreconditionError):
            disjoint_union_v(F, F, region.omega, region)

    def test_punctured_region_refused(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 64)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        F1 = rasterize_closed([Primitive.circle((0, 0), 0.3)], g)
        F2 = rasterize_closed([Primitive.circle((0, 0), 0.6)], g)
        with pytest.raises(NotSimplyConnectedError):
            disjoint_union_v(F1, F2, region.omega, region)


def _draw_bits(data, allowed, most):
    """Up to ``most`` cells drawn from the ``allowed`` ones, as bits."""
    out = np.zeros_like(allowed)
    pool = [tuple(c) for c in np.argwhere(allowed)]
    if pool:
        for j, i in data.draw(st.lists(st.sampled_from(pool), max_size=most)):
            out[j, i] = True
    return out


def _draw_ring(data, region):
    """A square cell ring in the middle of the window, clipped to the region."""
    n = region.grid.ncols
    size = data.draw(st.integers(2, n // 4))
    i0, j0 = data.draw(st.tuples(*[st.integers(n // 4, n // 2)] * 2))
    ring = np.zeros_like(region.omega.bits)
    ring[j0:j0 + size + 1, i0:i0 + size + 1] = True
    ring[j0 + 1:j0 + size, i0 + 1:i0 + size] = False
    return ring & region.omega.bits


def _draw_u(data, region, f_bits):
    """The region minus obstacle cells drawn anywhere in it off F, among
    them F's 8-neighbours, where a disk's closed raster can touch F."""
    free = region.omega.bits & ~f_bits
    obstacles = _draw_bits(data, naive_dilate(f_bits, 8) & free, 4) | \
        _draw_bits(data, free, 4)
    return CellSet(region.grid, region.omega.bits & ~obstacles)


# plane, open disk and open rectangle regions; a rectangle filling the window
# (inset 0) leaves every component window-ambiguous, so it is left out
_lemma_regions = st.builds(_cover_region,
                           st.sampled_from(["plane", "disk", "rect"]),
                           st.integers(14, 22), st.integers(1, 2))


class TestGridLemma:
    """The paper's lemma at grid scale: a hole-free carrier gets a certified
    V inside every U, and a carrier with a hole has a U that no V fits."""

    @settings(max_examples=120, deadline=None)
    @given(_lemma_regions, st.booleans(), st.data())
    def test_verified_carrier_certifies(self, region, ring, data):
        f_bits = _draw_bits(data, region.omega.bits, 6)
        if ring:
            f_bits |= _draw_ring(data, region)
        F = CellSet(region.grid, f_bits)
        U = _draw_u(data, region, f_bits)
        verdict = check_arakelian(F, region, build_exhaustion(region, 3))
        if verdict.status == VERIFIED_UP_TO:
            assert build_v(F, U, region).certificate.ok()

    @settings(max_examples=80, deadline=None)
    @given(_lemma_regions, st.data())
    def test_witness_blocks_by_refusal_or_connectivity(self, region, data):
        F = CellSet(region.grid, _draw_ring(data, region)
                    | _draw_bits(data, region.omega.bits, 4))
        if holes(F, region).count == 0:
            return
        wit = refute_witness(F, region, CellSet.empty(region.grid))
        with pytest.raises((BuildRefusalError, CertificateError)) as info:
            build_v(F, wit.u, region)
        if isinstance(info.value, CertificateError):
            cert = info.value.result.certificate
            assert cert.f_in_v and not cert.complement_connected

    @settings(max_examples=80, deadline=None)
    @given(_lemma_regions, st.data())
    def test_disjoint_verified_pair_keeps_carriers(self, region, data):
        # disjoint as 8-connected carriers: no cell of F2 touches F1, so
        # they are separate components of F1 | F2 (carriers that share an
        # 8-adjacency can close a hole between them).  The combined V keeps
        # both carriers inside U; its complement's connectivity can fail,
        # see test_disjoint_single_cells_certify, or be undecidable in the
        # window, which raises AmbiguousRegionError only when every other
        # fact holds
        omega = region.omega.bits
        f1 = _draw_bits(data, omega, 6)
        f2 = _draw_bits(data, omega & ~naive_dilate(f1, 8), 6)
        F1, F2 = CellSet(region.grid, f1), CellSet(region.grid, f2)
        exh = build_exhaustion(region, 3)
        if all(check_arakelian(F, region, exh).status == VERIFIED_UP_TO
               for F in (F1, F2)):
            U = _draw_u(data, region, f1 | f2)
            try:
                cert = disjoint_union_v(F1, F2, U, region).certificate
            except AmbiguousRegionError:
                return
            except CertificateError as exc:
                cert = exc.result.certificate
            facts = cert.to_dict()
            assert False not in facts.get("part_sphere_connected", ())
            assert {k for k, val in facts.items() if val is False} <= \
                {"complement_connected", "sphere_connected"}

    @pytest.mark.parametrize("connected, facts, raised", [
        (None, {}, AmbiguousRegionError),
        (False, {}, CertificateError),
        (None, {"f_in_v": False}, CertificateError),
        (None, {"sphere_connected": False}, CertificateError),
        (None, {"parts_disjoint": True, "part_sphere_connected": (True, False)},
         CertificateError),
    ], ids=["ambiguous", "disconnected", "f-out", "sphere", "part-sphere"])
    def test_ambiguity_only_when_nothing_else_fails(self, connected, facts, raised):
        g = make_grid(0, 0, 2, 2, 1)
        cert = Certificate(True, True, False, True, True, (True, True))
        cert = dataclasses.replace(cert, **facts)
        empty = CellSet.empty(g)
        with pytest.raises(raised):
            _checked("combined", empty, DiskCover([], empty), EscapePlan([], empty),
                     cert, ComplementReport(connected, 1))

    def test_window_ambiguous_union_is_not_a_failure(self):
        # the open disk's bottom-row cells touch the undeclared window edge;
        # each carrier verifies, and the window cannot decide the combined
        # V's complement: ambiguity, not a failed certificate
        region = _cover_region("disk", 14, 1)
        g = region.grid
        F1, F2 = CellSet.from_cells(g, [(5, 0)]), CellSet.from_cells(g, [(7, 0)])
        exh = build_exhaustion(region, 3)
        assert [check_arakelian(F, region, exh).status for F in (F1, F2, F1 | F2)] \
            == [VERIFIED_UP_TO, VERIFIED_UP_TO, INCONCLUSIVE]
        with pytest.raises(AmbiguousRegionError, match="window-ambiguous"):
            disjoint_union_v(F1, F2, region.omega, region)

    @pytest.mark.xfail(strict=True, raises=CertificateError,
                       reason="the halves' V meet along the bisector, and "
                              "their union encloses cells that each half "
                              "carved out; ROADMAP.md item 2")
    def test_disjoint_single_cells_certify(self):
        # two VERIFIED single cells, two columns and two rows apart, U the
        # whole region
        region = _cover_region("rect", 14, 1)
        g = region.grid
        F1, F2 = CellSet.from_cells(g, [(3, 8)]), CellSet.from_cells(g, [(1, 10)])
        exh = build_exhaustion(region, 3)
        assert all(check_arakelian(F, region, exh).status == VERIFIED_UP_TO
                   for F in (F1, F2, F1 | F2))
        assert disjoint_union_v(F1, F2, region.omega, region).certificate.ok()
