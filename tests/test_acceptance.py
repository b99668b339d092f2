"""Acceptance suite: one test per criterion, each printing a PASS line with
its measurements.  Tolerances and runtime budgets are asserted as stated.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np
import pytest

from arakgrid import (CellSet, Primitive, build_exhaustion, build_v,
                      check_arakelian, compactified_complement_connected,
                      disjoint_union_v, distance_field, holes, label_components,
                      log_lift, make_grid, open_rect_region, plane_region,
                      rasterize_closed, refutation_blocks_build, refute_witness,
                      sphere_complement_connected, NotSimplyConnectedError,
                      SampledFunction)
from arakgrid.cli import run_cli
from arakgrid.scene import parse_scene

from oracles import brute_distances, flood_components, naive_holes

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


def scene_path(name):
    return os.path.join(SCENES, name)


def run_cli_json(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(args + ["--json"])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, text


def test_criterion_1_twin_circles_triple():
    """Each circle alone verifies with empty hole unions; the union is
    refuted with a witness strictly between the radii.  < 2 s each."""
    for name, want_code in (("F1", 0), ("F2", 0), ("F", 1)):
        t0 = time.perf_counter()
        code, report, _ = run_cli_json(
            ["check", scene_path("ex_2_10.scene"), "--set", name])
        dt = time.perf_counter() - t0
        assert dt < 2.0, f"{name} took {dt:.2f}s"
        assert code == want_code
        if name in ("F1", "F2"):
            assert report["status"] == "VERIFIED_UP_TO"
            table = report["extents"]["table"]["levels"]
            assert all(rec["count"] == 0 for win in table for rec in win)
        else:
            assert report["status"] == "REFUTED"
            x, y = report["witnesses"][0]
            assert 0.3 < math.hypot(x, y) < 0.6
    print("[criterion 1] PASS: twin-circle triple verified/refuted as "
          "required, each check < 2 s")


def test_criterion_2_step_curve_divergence():
    """Strictly growing hole unions across windows 8/16/32 for both step
    fixtures, exit code 2, a level containing the radius-2 disk, < 10 s."""
    t0 = time.perf_counter()
    results = {}
    for name in ("intro_staircase.scene", "ex_2_11.scene"):
        code, report, _ = run_cli_json(
            ["check", scene_path(name), "--windows", "8,16,32"])
        assert code == 2
        assert report["status"] == "EVIDENCE_DIVERGENT"
        rows = report["extents"]["growth"]
        grown = [r for r in rows if r["divergent"]]
        assert grown, "no divergent level"
        for r in grown:
            assert r["max_abs"][0] < r["max_abs"][1] < r["max_abs"][2]
        results[name] = grown[0]["max_abs"]
    # the diverging exhaustion contains the closed disk of radius 2
    with open(scene_path("intro_staircase.scene")) as fh:
        sc = parse_scene(fh.read())
    region = sc.region()
    exh = build_exhaustion(region, 3)
    disk2 = rasterize_closed([Primitive.disk((0, 0), 2)], sc.grid)
    assert any(disk2.issubset(K) for K in exh.levels)
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.2f}s"
    print(f"[criterion 2] PASS: divergence on both step fixtures "
          f"{results}, total {dt:.2f}s < 10 s")


def _random_open_scene(rng, grid, region):
    """1-4 disjoint open zigzag carriers plus 1-5 obstacle points off them."""
    while True:
        n = int(rng.integers(1, 5))
        cuts = np.sort(rng.uniform(-1.9, 1.9, size=2 * n))
        prims = []
        for k in range(n):
            x0, x1 = cuts[2 * k], cuts[2 * k + 1]
            if x1 - x0 < 0.3:
                x1 = x0 + 0.3
            npts = int(rng.integers(2, 5))
            xs = np.sort(rng.uniform(x0, x1, size=npts))
            xs[0], xs[-1] = x0, x1
            ys = rng.uniform(-1.6, 1.6, size=npts)
            prims.append(Primitive.polyline(list(zip(xs, ys))))
        F = rasterize_closed(prims, grid)
        if holes(F, region).count == 0 and not F.is_empty():
            break
    df = distance_field(F).values
    pts = []
    while len(pts) < int(rng.integers(1, 6)):
        p = rng.uniform(-1.9, 1.9, size=2)
        i, j = grid.point_cell(*p)
        if df[j, i] > 3 * grid.delta:
            pts.append((float(p[0]), float(p[1])))
    obstacles = rasterize_closed([Primitive.point(p) for p in pts], grid)
    return F, obstacles


def test_criterion_3_verdict_construction_equivalence():
    """100 open scenes: non-refuted and certified V; 50 nested-ring scenes:
    witnesses block every construction.  < 60 s at delta = 1/64."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250802)
    grid = make_grid(-2, -2, 2, 2, 1 / 64)
    region = plane_region(grid)
    exh = build_exhaustion(region, 3)

    ok = 0
    for _ in range(100):
        F, obstacles = _random_open_scene(rng, grid, region)
        verdict = check_arakelian(F, region, exh)
        assert verdict.status == "VERIFIED_UP_TO"
        result = build_v(F, region.omega - obstacles, region)
        c = result.certificate
        assert c.f_in_v and c.v_in_u and c.complement_connected
        ok += 1
    assert ok == 100

    blocked = 0
    for _ in range(50):
        a = float(rng.uniform(0.8, 1.7))
        b = float(rng.uniform(0.25, 0.55)) * a
        rings = [Primitive.polyline([(-a, -a), (a, -a), (a, a), (-a, a),
                                     (-a, -a)]),
                 Primitive.polyline([(-b, -b), (b, -b), (b, b), (-b, b),
                                     (-b, -b)])]
        F = rasterize_closed(rings, grid)
        wit = refute_witness(F, region, CellSet.empty(grid))
        assert refutation_blocks_build(F, wit.u, region)
        blocked += 1
    assert blocked == 50
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.2f}s"
    print(f"[criterion 3] PASS: 100/100 certified, 50/50 blocked, "
          f"{dt:.2f}s < 60 s")


def test_criterion_4_sphere_equivalence_oracle():
    """Compactified and sphere complements agree: exhaustively on a 3x3
    region block and on 10 000 random 16x16 scenes.  < 30 s."""
    t0 = time.perf_counter()
    g = make_grid(0, 0, 5, 5, 1)
    region = open_rect_region(g, 1, 1, 4, 4)
    cells = region.omega.cells()
    assert len(cells) == 9
    checked = 0
    for mask in range(512):
        G = CellSet.from_cells(g, [c for k, c in enumerate(cells)
                                   if (mask >> k) & 1])
        rep = compactified_complement_connected(G, region)
        sph = sphere_complement_connected(G, region)
        if rep.connected is not None:
            assert rep.connected == sph
            checked += 1
    assert checked == 512

    rng = np.random.default_rng(16161616)
    g2 = make_grid(0, 0, 18, 18, 1)
    region2 = open_rect_region(g2, 1, 1, 17, 17)
    disagreements = 0
    for _ in range(10_000):
        bits = (rng.random((18, 18)) < 0.45) & region2.omega.bits
        G = CellSet(g2, bits)
        rep = compactified_complement_connected(G, region2)
        sph = sphere_complement_connected(G, region2)
        if rep.connected is not None and rep.connected != sph:
            disagreements += 1
    assert disagreements == 0
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"took {dt:.2f}s"
    print(f"[criterion 4] PASS: 512 exhaustive + 10000 randomized trials, "
          f"0 disagreements, {dt:.2f}s < 30 s")


def test_criterion_5_disjoint_union():
    """Two disjoint segments combine with a passing certificate and
    individually sphere-connected parts; the punctured-disk fixture is
    refused.  Deterministic."""
    def build():
        with open(scene_path("union_segments.scene")) as fh:
            sc = parse_scene(fh.read())
        region = sc.region()
        res = disjoint_union_v(sc.raster("F1"), sc.raster("F2"),
                               region.omega, region)
        return res

    res = build()
    c = res.certificate
    assert c.ok() and c.parts_disjoint is True
    assert c.part_sphere_connected == (True, True)

    res2 = build()
    assert res2.v.same_cells(res.v)
    assert res2.certificate == res.certificate

    with open(scene_path("ex_2_10.scene")) as fh:
        sc = parse_scene(fh.read())
    region = sc.region()
    with pytest.raises(NotSimplyConnectedError) as err:
        disjoint_union_v(sc.raster("F1"), sc.raster("F2"),
                         region.omega, region)
    assert "simply connected" in str(err.value)
    print("[criterion 5] PASS: union certified and deterministic; "
          "punctured region refused with the simple-connectivity diagnostic")


def test_criterion_6_log_lift():
    """g for f(z)=z on [1,2] matches ln x to 1e-6 with residual < 1e-8;
    f=1 lifts to 0; re-rooting shifts by an exact 2 pi i multiple.  < 5 s."""
    t0 = time.perf_counter()
    delta = 1 / 64
    g = make_grid(0.0, -0.5 + delta / 2, 2.5, 0.5 + delta / 2, delta)
    region = plane_region(g)
    F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)

    f = SampledFunction.from_callable(F, lambda z: z)
    res = log_lift(F, f, region)
    assert res.residual_max < 1e-8
    worst = max(abs(res.g.at(i, j) - math.log(g.cell_center(i, j)[0]))
                for i, j in F.cells())
    assert worst < 1e-6

    ones = SampledFunction.from_callable(F, lambda z: 1.0)
    res1 = log_lift(F, ones, region)
    assert float(np.abs(res1.g.values[F.bits]).max()) == 0.0

    js, iis = np.nonzero(region.omega.bits)
    reroot = log_lift(F, f, region, root_cell=(int(iis[-1]), int(js[-1])))
    diff = res.g.values[F.bits] - reroot.g.values[F.bits]
    k = round(float(diff[0].imag) / (2 * math.pi))
    assert np.abs(diff - 2j * math.pi * k).max() < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"took {dt:.2f}s"
    print(f"[criterion 6] PASS: |g - ln x| <= {worst:.2e}, residual "
          f"{res.residual_max:.2e}, re-root shift 2*pi*i*{k}, {dt:.2f}s < 5 s")


def test_criterion_7_determinism_and_goldens(tmp_path):
    """Byte-identical JSON reports and SVG renders on repeated runs of every
    fixture scene."""
    jobs = [
        ["check", scene_path("ex_2_10.scene")],
        ["check", scene_path("ex_2_10.scene"), "--set", "F1"],
        ["check", scene_path("segment.scene")],
        ["check", scene_path("intro_staircase.scene"), "--windows", "8,16,32"],
        ["check", scene_path("ex_2_11.scene"), "--windows", "8,16,32"],
        ["build-v", scene_path("segment.scene")],
        ["refute", scene_path("nested_rings.scene")],
        ["union", scene_path("union_segments.scene")],
        ["loglift", scene_path("loglift_line.scene")],
        ["holes", scene_path("intro_staircase.scene"), "--set", "F",
         "--with-k", "disk:0,0,2"],
    ]
    for args in jobs:
        _, _, text1 = run_cli_json(args)
        _, _, text2 = run_cli_json(args)
        assert text1 == text2, f"JSON drift for {args}"

    renders = [
        (scene_path("segment.scene"), "F,U,V,disks,curves", "svg"),
        (scene_path("intro_staircase.scene"), "F,holes", "svg"),
        (scene_path("nested_rings.scene"), "F,holes", "svg"),
        (scene_path("segment.scene"), "F,V", "ppm"),
    ]
    for k, (path, layers, fmt) in enumerate(renders):
        outs = []
        for rep in range(2):
            out = tmp_path / f"r{k}_{rep}.{fmt}"
            extra = ["--with-k", "disk:0,0,2"] if "holes" in layers else []
            code = run_cli(["render", path, "-o", str(out),
                            "--layers", layers, "--format", fmt] + extra)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"render drift for {path} {layers}"
    print("[criterion 7] PASS: repeated JSON reports and renders are "
          "byte-identical across all fixtures")


def test_criterion_8_brute_force_oracles():
    """Labeling, hole detection and distance fields match the naive
    implementations on 1000 randomized grids up to 32x32, zero mismatches."""
    rng = np.random.default_rng(808808)
    mismatches = 0
    for t in range(1000):
        ncols = int(rng.integers(2, 33))
        nrows = int(rng.integers(2, 33))
        delta = float(rng.choice([0.25, 0.5, 1.0]))
        g = make_grid(0, 0, ncols * delta, nrows * delta, delta)
        bits = rng.random((nrows, ncols)) < float(rng.uniform(0.25, 0.7))

        lab = label_components(CellSet(g, bits))
        if not np.array_equal(lab.labels, flood_components(bits, 4)):
            mismatches += 1

        if ncols >= 4 and nrows >= 4:
            region = open_rect_region(g, delta, delta,
                                      (ncols - 1) * delta, (nrows - 1) * delta)
            F = CellSet(g, bits & region.omega.bits)
            hs = holes(F, region)
            want = naive_holes(region.omega.bits, F.bits, region.alpha_border)
            if not np.array_equal(hs.union.bits, want):
                mismatches += 1

        df = distance_field(CellSet(g, bits))
        want_d = brute_distances(bits, delta)
        if not np.allclose(df.values, want_d, atol=1e-12 * delta):
            mismatches += 1
    assert mismatches == 0
    print("[criterion 8] PASS: 1000 randomized grids, zero mismatches "
          "against flood-fill, naive holes and pairwise distances")
