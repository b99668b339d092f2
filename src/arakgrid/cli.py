"""Command-line driver.

Subcommands: check, holes, build-v, refute, union, loglift, render.

Exit codes classify outcomes across all subcommands:

* 0 -- verified / construction succeeded
* 1 -- expected negative result: refuted, certificate failed, refused
* 2 -- inconclusive or divergence evidence, or a resolution limit
* 3 -- input error (parse errors, violated preconditions, bad flags)

``--json`` emits one object with the fixed keys status, witnesses, extents,
certificate and timings_ms.  Timings are null unless ``--timings`` is given,
which keeps repeated reports byte-identical.
"""

import argparse
import json
import math
import sys
import time

from . import arakelian as ak
from . import builder as bd
from . import loglift as ll
from .errors import (AmbiguousRegionError, ArakGridError, BuildRefusalError,
                     CertificateError, InputError, LiftVerificationError,
                     NotSimplyConnectedError, ResolutionError)
from .grid import CellSet, Primitive, rasterize_closed
from .render import LAYER_NAMES, render_ppm, render_svg
from .scene import Scene, parse_scene
from .loglift import SampledFunction

REPORT_SCHEMA = {
    "type": "object",
    "required": ["status", "witnesses", "extents", "certificate", "timings_ms"],
    "additionalProperties": False,
    "properties": {
        "status": {"type": "string"},
        "witnesses": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "extents": {"type": ["object", "null"]},
        "certificate": {"type": ["object", "null"]},
        "timings_ms": {"type": ["object", "null"]},
    },
}

_EXITS = {"ok": 0, "negative": 1, "inconclusive": 2, "error": 3}


def _load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read scene {path!r}: {exc}") from exc


def _report(status, witnesses=None, extents=None, certificate=None,
            timings=None) -> dict:
    return {
        "status": status,
        "witnesses": witnesses or [],
        "extents": extents,
        "certificate": certificate,
        "timings_ms": timings,
    }


def _emit(report: dict | None, args, human_lines: list[str]):
    if report is not None and getattr(args, "json", False):
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        for line in human_lines:
            print(line)


def _parse_with_k(arg: str | None, grid) -> CellSet:
    """The compact K of ``--with-k disk:cx,cy,r``; empty when not given."""
    if not arg:
        return CellSet.empty(grid)
    if not arg.startswith("disk:"):
        raise InputError("--with-k expects disk:cx,cy,r")
    try:
        cx, cy, r = (float(v) for v in arg[5:].split(","))
    except ValueError as exc:
        raise InputError(f"bad --with-k parameters: {exc}") from exc
    if not all(math.isfinite(v) for v in (cx, cy, r)):
        raise InputError("--with-k parameters must be finite")
    return rasterize_closed([Primitive.disk((cx, cy), r)], grid)


def _schedule(scene: Scene, windows: str | None):
    if not windows:
        return [scene.grid]
    try:
        tops = [float(v) for v in windows.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --windows list: {exc}") from exc
    return [scene.grid.with_ymax(t) for t in tops]


def _timer():
    marks = {}
    t0 = time.perf_counter()

    def mark(name):
        marks[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return marks, mark


def _cmd_check(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F = scene.raster(args.set)
    exh = ak.build_exhaustion(region, args.levels)
    schedule = _schedule(scene, args.windows)

    def rebuild(g):
        return scene.raster(args.set, g), scene.region(g)

    verdict = ak.check_arakelian(F, region, exh, schedule, scene_builder=rebuild)
    mark("check")
    rep = verdict.to_json_dict()
    report = _report(rep["status"], rep["witnesses"], rep["extents"],
                     None, marks if args.timings else None)
    lines = [f"status: {verdict.status}"
             + (f" level={verdict.level}" if verdict.level is not None else "")]
    if verdict.status == ak.REFUTED:
        lines.append(f"witness point: {verdict.witness['point']}")
        code = _EXITS["negative"]
    elif verdict.status == ak.VERIFIED_UP_TO:
        code = _EXITS["ok"]
    else:
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        if verdict.growth:
            for row in verdict.growth:
                if row["divergent"]:
                    lines.append(f"level {row['level']} max_abs growth: "
                                 f"{row['max_abs']}")
        code = _EXITS["inconclusive"]
    return code, report, lines


def _cmd_holes(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F = scene.raster(args.set)
    K = _parse_with_k(args.with_k, scene.grid)
    hs = ak.holes(F | K, region)
    rec = ak._extent(hs, region)
    mark("holes")
    pts = [list(region.grid.cell_center(i, j)) for i, j in hs.witness_cells()]
    report = _report("HOLES", pts, rec.to_dict() | {"level": None},
                     None, marks if args.timings else None)
    lines = [f"holes: {rec.count} (ambiguous components: {rec.n_ambiguous})",
             f"max |center|: {rec.max_abs:.6g}  area: {rec.area:.6g}"]
    return _EXITS["ok"], report, lines


def _certificate_failure(exc: CertificateError, args, timings):
    cert = exc.result.certificate.to_dict() if exc.result is not None else None
    report = _report("CERTIFICATE_FAILED", None, None, cert, timings)
    return _EXITS["negative"], report, [f"certificate failed: {exc}"]


def _cmd_build_v(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F = scene.raster("F")
    U = scene.obstacle_free_u(region)
    try:
        result = bd.build_v(F, U, region)
    except CertificateError as exc:
        mark("build_v")
        return _certificate_failure(exc, args, marks if args.timings else None)
    mark("build_v")
    extents = {
        "v_cells": result.v.count(),
        "disks": len(result.cover.disks),
        "curve_cells": result.plan.union.count(),
        "complement_components": result.n_complement_components,
    }
    report = _report("OK", None, extents, result.certificate.to_dict(),
                     marks if args.timings else None)
    lines = [f"V built: {extents['v_cells']} cells, {extents['disks']} disks, "
             f"{extents['curve_cells']} curve cells",
             f"certificate: {result.certificate.to_dict()}"]
    return _EXITS["ok"], report, lines


def _cmd_refute(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F = scene.raster(args.set)
    K = _parse_with_k(args.with_k, scene.grid)
    wit = bd.refute_witness(F, region, K)
    blocked = bd.refutation_blocks_build(F, wit.u, region)
    mark("refute")
    report = _report("REFUTED", [list(p) for p in wit.points],
                     {"witness_count": len(wit.points),
                      "blocks_construction": blocked},
                     None, marks if args.timings else None)
    lines = [f"witness points ({len(wit.points)}): {wit.points}",
             f"construction blocked on the punctured set: {blocked}"]
    return _EXITS["negative"], report, lines


def _cmd_union(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F1 = scene.raster("F1")
    F2 = scene.raster("F2")
    U = scene.obstacle_free_u(region)
    try:
        result = bd.disjoint_union_v(F1, F2, U, region)
    except CertificateError as exc:
        mark("union")
        return _certificate_failure(exc, args, marks if args.timings else None)
    mark("union")
    extents = {
        "v_cells": result.v.count(),
        "disks": len(result.cover.disks),
    }
    report = _report("OK", None, extents, result.certificate.to_dict(),
                     marks if args.timings else None)
    lines = [f"combined V built: {extents['v_cells']} cells",
             f"certificate: {result.certificate.to_dict()}"]
    return _EXITS["ok"], report, lines


def _csv_samples(path: str, F: CellSet) -> SampledFunction:
    import csv
    import numpy as np
    vals = np.zeros(F.bits.shape, dtype=np.complex128)
    seen = np.zeros(F.bits.shape, dtype=bool)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    x, y, re_, im = (float(v) for v in row[:4])
                except ValueError:
                    continue                    # header or stray line
                if not all(math.isfinite(v) for v in (x, y, re_, im)):
                    raise InputError(f"non-finite number in samples row {row}")
                i, j = F.grid.point_cell(x, y)
                vals[j, i] = complex(re_, im)
                seen[j, i] = True
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read samples {path!r}: {exc}") from exc
    missing = int((F.bits & ~seen).sum())
    if missing:
        raise InputError(f"CSV samples miss {missing} carrier cells")
    return SampledFunction(F, vals)


def _cmd_loglift(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    marks, mark = _timer()
    region = scene.region()
    F = scene.raster("F")
    if args.fn_csv:
        f = _csv_samples(args.fn_csv, F)
    else:
        if "F" not in scene.fns:
            raise InputError("scene binds no function to F; add an fn line "
                             "or pass --fn-csv")
        f = SampledFunction.from_callable(F, scene.fns["F"].as_callable())
    try:
        result = ll.log_lift(F, f, region, eps_zero=args.eps_zero, tol=args.tol)
    except CertificateError as exc:
        mark("loglift")
        return _certificate_failure(exc, args, marks if args.timings else None)
    mark("loglift")
    extents = {
        "residual_max": result.residual_max,
        "imag_jump_max": result.imag_jump_max,
        "carrier_cells": F.count(),
    }
    report = _report("OK", None, extents, None,
                     marks if args.timings else None)
    lines = [f"log lift verified: max |exp(g) - f| = {result.residual_max:.3g}",
             f"max adjacent imaginary jump on F: {result.imag_jump_max:.3g}"]
    return _EXITS["ok"], report, lines


def _cmd_render(args) -> tuple[int, dict | None, list[str]]:
    scene = _load_scene(args.scene)
    region = scene.region()
    names = [n.strip() for n in args.layers.split(",") if n.strip()]
    for n in names:
        if n not in LAYER_NAMES:
            raise InputError(f"unknown layer {n!r}; choose from {LAYER_NAMES}")

    needs_v = any(n in ("V", "disks", "curves") for n in names)
    result = None
    if needs_v:
        F = scene.raster("F")
        U = scene.obstacle_free_u(region)
        result = bd.build_v(F, U, region)
    layers = []
    for n in names:
        if n == "F":
            layers.append(("F", scene.raster("F").bits))
        elif n == "U":
            layers.append(("U", scene.obstacle_free_u(region).bits))
        elif n == "V":
            layers.append(("V", result.v.bits))
        elif n == "holes":
            F = scene.raster("F")
            K = _parse_with_k(args.with_k, scene.grid)
            layers.append(("holes", ak.holes(F | K, region).union.bits))
        elif n == "disks":
            layers.append(("disks", [(d.center, d.radius)
                                     for d in result.cover.disks]))
        elif n == "curves":
            layers.append(("curves", [c.path for c in result.plan.curves]))
    if args.format == "svg":
        data = render_svg(scene.grid, region.omega.bits, layers)
    else:
        data = render_ppm(scene.grid, region.omega.bits, layers)
    try:
        with open(args.output, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InputError(f"cannot write {args.output!r}: {exc}") from exc
    return _EXITS["ok"], None, [f"wrote {args.output} ({len(data)} bytes)"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arakgrid",
        description="grid-scale Arakelian-property checks, witnesses and "
                    "constructions on scene files")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_set=False):
        p.add_argument("scene")
        p.add_argument("--json", action="store_true")
        p.add_argument("--timings", action="store_true")
        if with_set:
            p.add_argument("--set", default="F")

    p = sub.add_parser("check", help="run the staged Arakelian check")
    common(p, with_set=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--windows", default=None,
                   help="comma list of window tops (ymax) to re-check on")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("holes", help="hole union of a set, optionally with a compact")
    common(p, with_set=True)
    p.add_argument("--with-k", dest="with_k", default=None)
    p.set_defaults(fn=_cmd_holes)

    p = sub.add_parser("build-v", help="build the certified neighborhood V")
    common(p)
    p.set_defaults(fn=_cmd_build_v)

    p = sub.add_parser("refute", help="puncture witnesses from the hole union")
    common(p, with_set=True)
    p.add_argument("--with-k", dest="with_k", default=None)
    p.set_defaults(fn=_cmd_refute)

    p = sub.add_parser("union", help="combine neighborhoods of two disjoint sets")
    common(p)
    p.set_defaults(fn=_cmd_union)

    p = sub.add_parser("loglift", help="lift a continuous logarithm on F")
    common(p)
    p.add_argument("--eps-zero", dest="eps_zero", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--fn-csv", dest="fn_csv", default=None,
                   help="CSV of x,y,re,im samples (header optional)")
    p.set_defaults(fn=_cmd_loglift)

    p = sub.add_parser("render", help="draw scene layers to SVG or PPM")
    common(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--layers", default="F")
    p.add_argument("--format", choices=("svg", "ppm"), default="svg")
    p.add_argument("--with-k", dest="with_k", default=None)
    p.set_defaults(fn=_cmd_render)
    return ap


def run_cli(argv: list[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        code, report, lines = args.fn(args)
    except (NotSimplyConnectedError, BuildRefusalError) as exc:
        _emit(_report("REFUSED", None, {"reason": str(exc)}, None, None),
              args, [])
        print(f"refused: {exc}", file=sys.stderr)
        return _EXITS["negative"]
    except LiftVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return _EXITS["negative"]
    except (AmbiguousRegionError, ResolutionError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return _EXITS["inconclusive"]
    except ArakGridError as exc:          # InputError, PreconditionError, ...
        print(f"error: {exc}", file=sys.stderr)
        return _EXITS["error"]
    _emit(report, args, lines)
    return code


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
