"""Work counts per CLI command: component labelings, region models and
their dilations, exhaustions, sphere-complement tests, boundary distance
fields, exact distance (feature) transforms, ``np.hypot`` evaluations, curve
fixture expansions, escape routing's BFS layers and the log lift's scalar
``math.log`` / ``math.atan2`` calls.

Each domain is labeled once and each fact is derived once; a change that
brings back a recompute fails one of these counts.
"""

import contextlib
import io
import math
import os
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from arakgrid import (CellSet, InputError, Primitive, SampledFunction,
                      arakelian, builder, grid, loglift, make_grid,
                      open_disk_region, plane_region, rasterize_closed,
                      tietze_extend, topology)
from arakgrid.cli import run_cli

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


def scene(name):
    return os.path.join(SCENES, name)


def install_counters(monkeypatch) -> Counter:
    """Count calls of the wrapped work functions until the test ends."""
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
    dilate = topology.dilate

    def counting_dilate(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "__post_init__":
            counts["region_dilations"] += 1
        return dilate(*args, **kwargs)
    monkeypatch.setattr(topology, "dilate", counting_dilate)
    exh = counting("exhaustions", arakelian.build_exhaustion)
    monkeypatch.setattr(arakelian, "build_exhaustion", exh)
    monkeypatch.setattr(builder, "build_exhaustion", exh)
    monkeypatch.setattr(builder, "sphere_complement_connected",
                        counting("sphere_tests",
                                 builder.sphere_complement_connected))
    monkeypatch.setattr(topology, "distance_field",
                        counting("boundary_fields", topology.distance_field))
    monkeypatch.setattr(grid.ndimage, "distance_transform_edt",
                        counting("edts", grid.ndimage.distance_transform_edt))
    monkeypatch.setattr(grid, "staircase_parts",
                        counting("staircases", grid.staircase_parts))
    monkeypatch.setattr(grid, "bracket_parts",
                        counting("brackets", grid.bracket_parts))
    hypot = np.hypot

    def counting_hypot(*args, **kwargs):
        out = hypot(*args, **kwargs)
        counts["hypot"] += np.size(out)
        return out
    monkeypatch.setattr(np, "hypot", counting_hypot)
    wave_init = builder._Wave.__init__
    monkeypatch.setattr(builder._Wave, "__init__", counting("waves", wave_init))
    reach = builder._Wave.reach

    def counting_layers(wave, cell):
        before = wave.depth
        dist = reach(wave, cell)
        counts["bfs_layers"] += wave.depth - before
        return dist
    monkeypatch.setattr(builder._Wave, "reach", counting_layers)
    return counts


def count_work(monkeypatch, argv) -> tuple[int, Counter]:
    counts = install_counters(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, counts


class TestLabelingsPerCommand:
    def test_single_window_check(self, monkeypatch):
        # region - F, region - (F | K_1) and region - (F | K_2); exhaustion
        # levels take no labeling, K_3 is the whole window, so
        # region - (F | K_3) is empty, and the alpha neighborhood reads its
        # two hole sets back from the region
        code, n = count_work(monkeypatch, ["check", scene("segment.scene")])
        assert code == 0
        assert n["labelings"] == 3
        assert n["exhaustions"] == 1

    @pytest.mark.parametrize("make", [
        plane_region,
        lambda g: open_disk_region(g, 0, 0, 1),
        lambda g: open_disk_region(g, 0, 0, 1, punctured=True),
    ], ids=["plane", "disk", "punctured-disk"])
    def test_exhaustion_labels_nothing(self, monkeypatch, make):
        # every level is its interior mask, hole-free by construction: a
        # punctured region's levels, with two runs in a row, take none either
        region = make(make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 32))
        n = install_counters(monkeypatch)
        arakelian.build_exhaustion(region, 3)
        assert n["labelings"] == 0

    def test_refuted_check_builds_no_exhaustion(self, monkeypatch):
        # region - F has a hole: the verdict is decided before any level
        code, n = count_work(monkeypatch, ["check", scene("ex_2_10.scene")])
        assert code == 1
        assert n["labelings"] == 1
        assert n["exhaustions"] == n["boundary_fields"] == 0

    def test_holes_with_compact(self, monkeypatch):
        code, n = count_work(monkeypatch, [
            "holes", scene("intro_staircase.scene"), "--with-k", "disk:0,0,2"])
        assert code == 0
        assert n["labelings"] == 1

    def test_refute(self, monkeypatch):
        # region - F; the build that the witness blocks reads it back, and
        # exhaustion levels take no labeling
        code, n = count_work(monkeypatch, ["refute", scene("nested_rings.scene")])
        assert code == 1
        assert n["labelings"] == 1

    def test_union_reuses_part_certificates(self, monkeypatch):
        # 8 distinct domains: region - F1 and region - F2 for the hole-free
        # precondition, which escape routing's stage 0 reads back, 3 escape
        # stages and the 3 certificates' complements of V, which the 3
        # sphere tests on the plane read back; the exhaustion labels none
        code, n = count_work(monkeypatch, ["union", scene("union_segments.scene")])
        assert code == 0
        assert n["labelings"] == 8
        assert n["sphere_tests"] == 3

    def test_window_schedule_reuses_base_exhaustion(self, monkeypatch):
        code, n = count_work(monkeypatch, [
            "check", scene("intro_staircase.scene"), "--windows", "8,16,32"])
        # region - F and region - (F | K) on each window, for K_1 ... K_3;
        # on the base window K_3 is the whole region, which takes none
        assert code == 2
        assert n["labelings"] == 11
        assert n["exhaustions"] == 3
        assert n["regions"] == 3

    def test_build_v_reads_stage_domains_from_holes(self, monkeypatch):
        # escape routing's region - (F | K_1) and region - (F | K_2) (no
        # disk routes in region - F, and region - (F | K_3) is empty) and
        # the complement of V, whose hole set the sphere test on the plane
        # reads back; exhaustion levels take no labeling
        code, n = count_work(monkeypatch, ["build-v", scene("segment.scene")])
        assert code == 0
        assert n["labelings"] == 3

    def test_loglift(self, monkeypatch):
        # the unwrap's labeling of V; V is the whole region, so the
        # certificate's region - V is empty and takes none, and exhaustion
        # levels take no labeling
        code, n = count_work(monkeypatch, ["loglift", scene("loglift_line.scene")])
        assert code == 0
        assert n["labelings"] == 1
        # U is the whole region: no disks, so no exhaustion to route by
        assert n["exhaustions"] == 0


class TestEscapeLayers:
    """Each escape BFS runs only as deep as the deepest walk start it is
    asked about, and its targets read 0 before any layer runs; running every
    BFS dry would show as 57 and 176 layers."""

    @pytest.mark.parametrize("argv, layers", [
        (["build-v", "segment.scene"], 32),
        (["union", "union_segments.scene"], 160),
    ], ids=["build-v", "union"])
    def test_layers(self, monkeypatch, argv, layers):
        code, n = count_work(monkeypatch, [argv[0], scene(argv[1])])
        assert code == 0
        assert n["bfs_layers"] == layers


class TestEscapeWaves:
    """A stage hop whose stage has no alpha-reaching component builds no BFS:
    the walk would find no path.  Building one anyway shows as 3 and 8."""

    @pytest.mark.parametrize("argv, waves", [
        # one stage hop and the final run to alpha; the hop into the empty
        # region - (F | K_3) builds none
        (["build-v", "segment.scene"], 2),
        (["union", "union_segments.scene"], 6),
    ], ids=["build-v", "union"])
    def test_waves(self, monkeypatch, argv, waves):
        code, n = count_work(monkeypatch, [argv[0], scene(argv[1])])
        assert code == 0
        assert n["waves"] == waves


class TestFilledRegionHoleSet:
    """``holes`` of a carrier filling the region (region - F empty) is built
    once per region, outside the 4 kept hole sets, and read back after."""

    def test_repeat_is_same_object_without_labeling(self, monkeypatch):
        region = open_disk_region(make_grid(-1, -1, 1, 1, 0.125), 0, 0, 0.9)
        other = topology.holes(region.omega - region.omega, region)
        calls = Counter()
        label = topology.label_components
        monkeypatch.setattr(topology, "label_components", lambda *a, **k: (
            calls.update(["label"]) or label(*a, **k)))
        hs = topology.holes(region.omega, region)
        assert calls["label"] == 1
        again = topology.holes(grid.CellSet(region.grid, region.omega.bits.copy()),
                               region)
        assert again is hs and calls["label"] == 1
        assert hs.count == 0 and hs.labeling.n == 0 and hs.union.is_empty()
        assert (hs.labeling.labels == -1).all()
        for a in (hs.labeling.labels, hs.status, hs.union.bits):
            assert not a.flags.writeable
        # kept apart: the 4 slots still hold the empty carrier's hole set
        assert list(region._hole_sets.values()) == [other]
        assert topology.holes(region.omega - region.omega, region) is other


class TestKeptHoleSetLookup:
    """``holes`` looks a kept hole set up by its carrier's cells before any
    whole-window pass: a hit runs no subset test, though a carrier on
    another grid still raises, and a miss runs one."""

    def test_hit_runs_no_subset_test(self, monkeypatch):
        g = make_grid(-1, -1, 1, 1, 0.125)
        region = plane_region(g)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        hs = topology.holes(F, region)
        calls = []
        issubset = grid.CellSet.issubset
        monkeypatch.setattr(grid.CellSet, "issubset",
                            lambda *a: calls.append(1) or issubset(*a))
        assert topology.holes(grid.CellSet(g, F.bits.copy()), region) is hs
        assert calls == []
        shifted = make_grid(0, 0, 2, 2, 0.125)        # same shape, same bits
        with pytest.raises(InputError, match="different grids"):
            topology.holes(grid.CellSet(shifted, F.bits.copy()), region)
        topology.holes(F - rasterize_closed([Primitive.point((0.5, 0))], g), region)
        assert calls == [1]


class TestHoleExtentsWhereRead:
    """A hole union's |cell center| extent is derived only by the callers
    that report it, not by every hole set."""

    @pytest.mark.parametrize("argv, code, hypots", [
        # the exhaustion's cap probes hypot twice per level and row (3 x 2
        # x 128 on a 128 x 128 window) and its outer radii once per row of
        # the two levels its bounds read (2 x 128); the blocked build's disk
        # cover draws two 3 x 3 disk boxes; the refutation's holes are not
        # measured
        (["refute", "nested_rings.scene"], 1, 3 * 2 * 128 + 2 * 128 + 2 * 9),
        (["render", "segment.scene", "--layers", "F,holes"], 0, 0),
        (["render", "nested_rings.scene", "--layers", "F,holes"], 0, 0),
    ], ids=["refute", "render-segment", "render-rings"])
    def test_center_abs_fields(self, monkeypatch, tmp_path, argv, code, hypots):
        out = ["-o", str(tmp_path / "out.svg")] if argv[0] == "render" else []
        got, n = count_work(monkeypatch, [argv[0], scene(argv[1]), *argv[2:], *out])
        assert got == code
        assert n["hypot"] == hypots


class TestCenterRadiiPerRow:
    """The check builds no |cell centre| field: radii are read from row
    ends and rows are capped at one |dx| threshold per level.  A field per
    grid took one hypot per distinct pair of absolute centre offsets: 96 x
    256, 96 x 512 and 96 x 1024 on these windows."""

    def test_hypots_per_window(self, monkeypatch):
        n = install_counters(monkeypatch)
        built = []          # hypot evaluations of each window's exhaustion
        build = arakelian.build_exhaustion

        def recording(*args, **kwargs):
            before = n["hypot"]
            exh = build(*args, **kwargs)
            built.append(n["hypot"] - before)
            return exh

        monkeypatch.setattr(arakelian, "build_exhaustion", recording)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(["check", scene("intro_staircase.scene"),
                            "--windows", "8,16,32"])
        assert code == 2
        assert n["regions"] == 3
        # rows span [-3, ymax] at delta 1/32: two cap probes for each of 3
        # levels and one outer radius for each of the 2 levels read, a row
        assert built == [8 * 352, 8 * 608, 8 * 1120]


class TestWindowsCheckWork:
    """A ``--windows`` check pays for its labelings.  Each curve fixture is
    expanded once, because every window of a schedule shares the column
    layout that its parts depend on (6 staircase expansions and 162
    ``bracket_parts`` calls before: one for the raster and one for the ray
    exits, per window).  Radii take one hypot per row (798,720 evaluations
    with a full cap field and a full |cell centre| field per window, and
    227,328 with one hypot per distinct |offset| pair)."""

    @pytest.mark.parametrize("name, staircases, brackets", [
        ("intro_staircase.scene", 1, 0),
        ("ex_2_11.scene", 0, 27),           # 32 brackets asked, 27 fit
    ], ids=["staircase", "brackets"])
    def test_fixture_expansions_and_hypots(self, monkeypatch, name, staircases,
                                           brackets):
        code, n = count_work(monkeypatch, [
            "check", scene(name), "--windows", "8,16,32"])
        assert code == 2
        assert n["labelings"] == 11
        assert n["staircases"] == staircases
        assert n["brackets"] == brackets
        # 8 a row in the three exhaustions (2,080 rows) and one a row for
        # each hole union measured: 2 on the base window, 3 on the others
        assert n["hypot"] == 8 * 2080 + 2 * 352 + 3 * (608 + 1120)


class TestEdtsPerConstruction:
    """Disk radii are read off F's cells at the chosen centres: the disk
    cover runs no distance transform.  Only ``union``'s bisector does, one
    per carrier."""

    @pytest.mark.parametrize("argv, edts", [
        (["build-v", "segment.scene"], 0),
        (["union", "union_segments.scene"], 2),
    ], ids=["build-v", "union"])
    def test_transforms(self, monkeypatch, argv, edts):
        code, n = count_work(monkeypatch, [argv[0], scene(argv[1])])
        assert code == 0
        assert n["edts"] == edts


class TestOneExhaustionPerRegion:
    """``build_exhaustion`` builds each region's exhaustion once; the check
    and the builders read the same read-only levels."""

    def test_same_object_read_only(self):
        region = plane_region(make_grid(-1, -1, 1, 1, 0.125))
        exh = arakelian.build_exhaustion(region, 3)
        assert arakelian.build_exhaustion(region, 3) is exh
        assert arakelian.build_exhaustion(region, 2) is not exh
        for K in exh.levels:
            with pytest.raises(ValueError):
                K.bits[0, 0] = True

    def test_build_v_after_check_labels_no_exhaustion_again(self, monkeypatch):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((0, 0), (1, 0))], g)
        obstacles = rasterize_closed([Primitive.point((0, 1)),
                                      Primitive.point((0, -1))], g)
        n = install_counters(monkeypatch)
        verdict = arakelian.check_arakelian(
            F, region, arakelian.build_exhaustion(region, 3))
        assert verdict.status == "VERIFIED_UP_TO"
        # region - F, region - (F | K_1) and region - (F | K_2); exhaustion
        # levels take no labeling and region - (F | K_3) is empty
        assert n["labelings"] == 3
        result = builder.build_v(F, region.omega - obstacles, region)
        assert result.certificate.ok() and len(result.cover.disks) == 2
        # escape stages read the check's hole sets; the certificate labels
        # the complement of V once, for both of its tests
        assert n["labelings"] == 4


def _fresh_plane(g):
    """A plane region of its own, as ``plane_region`` built on every call
    before it kept one per grid."""
    return topology.custom_region(g, grid.CellSet.full(g), unbounded_edges=("all",),
                                  simply_connected=True)


class TestOnePlaneRegionPerGrid:
    """Every ``plane_region`` call on a grid returns the grid's one region,
    so the calls share its exhaustion and hole sets; against a fresh region
    per call (``_fresh_plane``), no call labels more."""

    @pytest.mark.parametrize("make, regions, exhaustions", [
        (plane_region, 1, 1), (_fresh_plane, 2, 2)], ids=["shared", "fresh"])
    def test_two_checks(self, monkeypatch, make, regions, exhaustions):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        n = install_counters(monkeypatch)
        built, build = [], arakelian.build_exhaustion
        monkeypatch.setattr(arakelian, "build_exhaustion",
                            lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        for _ in range(2):
            verdict = arakelian.check_arakelian(F, make(g), 3)
            assert verdict.status == arakelian.VERIFIED_UP_TO
        assert n["regions"] == regions
        assert len({id(e) for e in built}) == exhaustions

    @pytest.mark.parametrize("make, labelings", [
        (plane_region, 7), (_fresh_plane, 9)], ids=["shared", "fresh"])
    def test_check_build_refute(self, monkeypatch, make, labelings):
        # the check labels region - F, region - (F | K_1) and
        # region - (F | K_2); on the shared region escape routing reads the
        # last two back, so build_v labels only the complement of V
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        F = rasterize_closed([Primitive.segment((-1, 0), (1, 0))], g)
        obstacles = rasterize_closed([Primitive.point((0, 1)),
                                      Primitive.point((0, -1))], g)
        ring = rasterize_closed([Primitive.polyline(
            [(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5), (-1.5, -1.5)])], g)
        n = install_counters(monkeypatch)
        assert arakelian.check_arakelian(F, make(g), 3).status == \
            arakelian.VERIFIED_UP_TO
        region = make(g)
        assert builder.build_v(F, region.omega - obstacles, region).certificate.ok()
        region = make(g)
        wit = builder.refute_witness(ring, region, grid.CellSet.empty(g))
        assert builder.refutation_blocks_build(ring, wit.u, region)
        assert n["labelings"] == labelings


class TestBoundaryDistancePerRegion:
    """``RegionModel.boundary_distance`` is built only where a whole field is
    read (a hole union's ``min_bd_dist``), at most once per region.
    Exhaustion levels read exact ``interior`` masks, disk radii read
    ``boundary_distance_at`` near each centre, and a region that nothing
    visible bounds reads a zero-byte ``inf``: a field per exhaustion shows
    as 3, 1, 1, 1 on the plane scenes, and as 1 on the bounded check."""

    @pytest.mark.parametrize("argv, code, fields", [
        (["check", "intro_staircase.scene", "--windows", "8,16,32"], 2, 0),
        (["build-v", "segment.scene"], 0, 0),
        (["union", "union_segments.scene"], 0, 0),
        (["refute", "nested_rings.scene"], 1, 0),
        (["check", "ex_2_10.scene", "--set", "F1"], 0, 0),
    ], ids=["check-windows", "build-v", "union", "refute", "check-bounded"])
    def test_one_field_per_region(self, monkeypatch, argv, code, fields):
        got, n = count_work(monkeypatch, [argv[0], scene(argv[1]), *argv[2:]])
        assert got == code
        assert n["boundary_fields"] == fields

    def test_disk_radii_build_no_field(self, monkeypatch, tmp_path):
        # a bounded region with obstacles: the radii read the complement
        # cells near each centre, so build-v runs no distance transform
        path = tmp_path / "s.scene"
        path.write_text(_DISK + _SEGMENT + "set obstacles point 0 0.25\n"
                        "set obstacles point 0.5 -0.5\n")
        code, n = count_work(monkeypatch, ["build-v", str(path)])
        assert code == 0
        assert n["boundary_fields"] == n["edts"] == 0

    def test_field_is_read_only(self):
        region = open_disk_region(make_grid(-1, -1, 1, 1, 0.25), 0, 0, 0.9)
        dist = region.boundary_distance()
        assert region.boundary_distance() is dist
        with pytest.raises(ValueError):
            dist[0, 0] = 0.0


class TestFeatureTransformsPerExtension:
    """``tietze_extend`` reads every cell's nearest carrier cell off one
    feature transform, whatever the carrier's size; a per-carrier-cell loop
    would show as zero transforms or as one per cell."""

    @pytest.mark.parametrize("prim", [
        Primitive.point((0.3, 0.2)),
        Primitive.segment((-0.5, 0), (0.5, 0)),
        Primitive.disk((0, 0), 0.6),
    ], ids=["point", "segment", "disk"])
    def test_one_transform(self, monkeypatch, prim):
        g = make_grid(-1, -1, 1, 1, 1 / 64)
        F = rasterize_closed([prim], g)
        f = SampledFunction.from_callable(F, lambda z: z + 2)
        region = plane_region(g)
        calls = []
        edt = grid.ndimage.distance_transform_edt
        monkeypatch.setattr(grid.ndimage, "distance_transform_edt",
                            lambda *a, **k: calls.append(1) or edt(*a, **k))
        tietze_extend(f, region)
        assert len(calls) == 1

    def test_loglift_command(self, monkeypatch):
        # the plane region has no boundary field and U has no obstacles to
        # cover, so the extension's transform is the only one
        code, n = count_work(monkeypatch, ["loglift", scene("loglift_line.scene")])
        assert code == 0
        assert n["edts"] == 1


def _count_scalar_math(monkeypatch) -> Counter:
    calls = Counter()

    def counting(name):
        fn = getattr(math, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(loglift, "math", SimpleNamespace(
        **{**vars(math), "log": counting("log"), "atan2": counting("atan2")}))
    return calls


class TestScalarMathPerLift:
    """The unwrap's scalar ``math.log`` and ``math.atan2`` run once per
    carrier sample, once per root and once per distinct (id, parent's id)
    pair of the tree edges joining two samples; per-cell or per-edge math
    would show as counts near V's cell count."""

    def test_loglift_command(self, monkeypatch):
        calls = _count_scalar_math(monkeypatch)
        v_cells = []
        unwrap = loglift._unwrap_on
        monkeypatch.setattr(loglift, "_unwrap_on", lambda v, *a, **k: (
            v_cells.append(int(v.bits.sum())) or unwrap(v, *a, **k)))
        code, _ = count_work(monkeypatch, ["loglift", scene("loglift_line.scene")])
        assert code == 0 and v_cells == [10240]
        # 66 carrier samples, each on several cells: log|z| and the phase
        # of z / z for edges inside one sample each, the phase of z at the
        # one root and of a / b on 65 distinct cross-edge pairs
        assert calls == {"log": 66, "atan2": 66 + 1 + 65}
        assert max(calls.values()) < v_cells[0] / 10

    def test_cross_edges_share_quotients(self, monkeypatch):
        # a 256 x 256 lift whose tree has 10,920 cross edges between the
        # nearest-carrier regions of 481 samples, on 1,015 distinct pairs
        g = make_grid(-2, -2, 2, 2, 1 / 64)
        F = rasterize_closed([Primitive.polyline(
            [(-1.5, -1.2), (0.3, 1.4), (1.6, -0.4)])], g)
        f = SampledFunction.from_callable(F, lambda z: (z - 3) * (z + 2.5j))
        calls = _count_scalar_math(monkeypatch)
        loglift.log_lift(F, f, plane_region(g))
        # 479 of the samples lie on more than one cell of V, one root
        assert calls["log"] == F.count() == 481
        assert calls["atan2"] == 479 + 1 + 1015


class TestLiftSampleIds:
    """A lift reads each cell's sample id off its one nearest-carrier
    transform: it sorts no sample and builds no extension field."""

    def test_one_transform_no_sort(self, monkeypatch):
        counts = Counter()

        def counting(key, fn):
            return lambda *a, **k: counts.update([key]) or fn(*a, **k)
        monkeypatch.setattr(loglift, "nearest_source_indices",
                            counting("ids", loglift.nearest_source_indices))
        monkeypatch.setattr(loglift, "tietze_extend",
                            counting("extensions", loglift.tietze_extend))
        monkeypatch.setattr(np, "lexsort", counting("lexsorts", np.lexsort))
        code, _ = count_work(monkeypatch, ["loglift", scene("loglift_line.scene")])
        assert code == 0
        g = make_grid(-1, -1, 1, 1, 1 / 32)
        F = rasterize_closed([Primitive.segment((-0.5, 0.1), (0.5, -0.2))], g)
        f = SampledFunction.from_callable(F, lambda z: z + 2)
        loglift.log_lift(F, f, plane_region(g))
        assert counts == {"ids": 2}


class TestFirstCellScans:
    """Each label's first cell comes from one pass over the labeling, not
    from a full-window compare and ``min_cell`` per label."""

    def test_many_hole_witnesses_and_roots(self, monkeypatch):
        g = make_grid(0, 0, 128, 128, 1)
        jj, ii = np.indices((g.nrows, g.ncols))
        grid_lines = CellSet(g, (ii % 6 == 0) | (jj % 6 == 0))
        hs = topology.holes(grid_lines, plane_region(g))
        assert hs.count >= 400
        calls = []
        min_cell = grid.CellSet.min_cell
        monkeypatch.setattr(grid.CellSet, "min_cell",
                            lambda self: calls.append(1) or min_cell(self))
        cells = hs.witness_cells()
        assert calls == []
        loglift._unwrap_on(CellSet(g, ~grid_lines.bits),
                           np.ones(1, dtype=np.complex128),
                           np.zeros((g.nrows, g.ncols), dtype=np.int32))
        assert calls == []
        monkeypatch.undo()
        labels = hs.labeling.labels
        assert cells == [CellSet(g, labels == k).min_cell() for k in hs.hole_labels]


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


class TestRegionDilations:
    """A region dilates its complement once, for its alpha-adjacency, and
    only when the complement has a cell in the window: a region that fills
    the window takes its alpha-adjacent cells from alpha alone."""

    @pytest.mark.parametrize("make, dilations", [
        (plane_region, 0),
        (lambda g: topology.custom_region(g, grid.CellSet.full(g)), 0),
        (lambda g: open_disk_region(g, 0, 0, 1), 1),
    ], ids=["plane", "full-custom", "disk"])
    def test_each_region(self, monkeypatch, make, dilations):
        n = install_counters(monkeypatch)
        make(make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 32))
        assert n["region_dilations"] == dilations

    @pytest.mark.parametrize("argv, dilations", [
        (["check", "segment.scene"], 0),
        (["build-v", "segment.scene"], 0),
        (["check", "intro_staircase.scene", "--windows", "8,16,32"], 0),
        (["build-v", "disk_obstacles.scene"], 1),
    ], ids=["check", "build-v", "check-windows", "build-v-bounded"])
    def test_commands(self, monkeypatch, argv, dilations):
        code, n = count_work(monkeypatch, [argv[0], scene(argv[1]), *argv[2:]])
        assert code in (0, 2)
        assert n["region_dilations"] == dilations
