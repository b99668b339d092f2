import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (BuildRefusalError, CellSet,
                      NotSimplyConnectedError, PreconditionError, Primitive,
                      build_exhaustion, build_v, disjoint_union_v, disk_cover,
                      escape_curves, holes, make_grid, open_disk_region,
                      plane_region, rasterize_closed, refutation_blocks_build,
                      refute_witness)
from arakgrid.builder import _wave_distances
from arakgrid.scene import parse_scene

from oracles import bfs_distances, bfs_path_ok, flood_components, naive_reach
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

    def test_annulus_accounting(self):
        g, region = _plane(1 / 16)
        F = rasterize_closed([Primitive.segment((0, 0), (0.5, 0))], g)
        obstacles = _points(g, [(0, 1), (1.2, 1.2), (-1.5, -1.5)])
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, region.omega - obstacles, region, exhaustion=exh)
        assert sum(cover.per_annulus.values()) == len(cover.disks)


class TestEscapeCurves:
    def test_empty_cover_empty_plan(self):
        g, region = _plane()
        exh = build_exhaustion(region, 3)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        plan = escape_curves(disk_cover(F, region.omega, region,
                                        exhaustion=exh), F, region, exh)
        assert plan.curves == [] and plan.union.is_empty()

    def test_single_disk_escapes_past_vertical_wall(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, -1.5), (0, 1.5))], g)
        obstacle = _points(g, [(-1, 0)])
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, region.omega - obstacle, region, exhaustion=exh)
        plan = escape_curves(cover, F, region, exh)
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
            exh = build_exhaustion(region, 3)
            cover = disk_cover(F, region.omega - obstacles, region,
                               exhaustion=exh)
            plan = escape_curves(cover, F, region, exh)
            assert len(plan.curves) == len(cover.disks)
            for c in plan.curves:
                assert bfs_path_ok(c.path, F.bits, region.alpha_adjacent)

    def test_enclosed_center_is_refused(self):
        g, region = _plane(1 / 16)
        ring = Primitive.polyline([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)])
        F = rasterize_closed([ring], g)
        obstacle = _points(g, [(0, 0)])
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, region.omega - obstacle, region, exhaustion=exh)
        with pytest.raises(BuildRefusalError):
            escape_curves(cover, F, region, exh)

    def test_stage_segments_stay_in_recorded_components(self):
        g, region = _plane(1 / 32)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = _points(g, [(0, 1), (0, -1)])
        exh = build_exhaustion(region, 3)
        cover = disk_cover(F, region.omega - obstacles, region, exhaustion=exh)
        plan = escape_curves(cover, F, region, exh)
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


class TestWaveDistances:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_oracle_on_random_masks(self, nrows, ncols, data):
        n = nrows * ncols
        masks = st.lists(st.booleans(), min_size=n, max_size=n)
        domain = np.array(data.draw(masks), dtype=bool).reshape(nrows, ncols)
        targets = np.array(data.draw(masks), dtype=bool).reshape(nrows, ncols)
        got = _wave_distances(domain, targets)
        assert got.dtype == np.int32
        assert np.array_equal(got, bfs_distances(domain, targets))

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
    ], ids=["no-targets", "targets-outside", "checkerboard-outside",
            "row", "column", "single-cell", "free", "checkerboard",
            "checkerboard-all"])
    def test_edge_cases_match_oracle(self, domain, targets):
        got = _wave_distances(domain, targets)
        assert got.dtype == np.int32
        assert np.array_equal(got, bfs_distances(domain, targets))

    def test_free_grid_is_manhattan(self):
        got = _wave_distances(np.ones((6, 8), dtype=bool), _corner(6, 8))
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
        cover = disk_cover(F, U, region, exhaustion=exh)
        assert cover.disks
        plan = escape_curves(cover, F, region, exh)
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
