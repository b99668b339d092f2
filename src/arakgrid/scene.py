"""Scene DSL: a line-oriented description of a grid window, a region, named
carrier sets, function bindings and curve fixtures.

Grammar (one directive per line, ``#`` starts a comment):

    grid xmin ymin xmax ymax delta
    omega plane | disk cx cy r | punctured_disk cx cy r | rect x1 y1 x2 y2
    unbounded N|S|E|W|all
    set <name> segment x1 y1 x2 y2
    set <name> circle cx cy r
    set <name> disk cx cy r
    set <name> rect x1 y1 x2 y2
    set <name> ray ox oy dx dy
    set <name> point x y
    set <name> polyline x1 y1 x2 y2 [x y ...]
    set <name> staircase
    set <name> bracket k
    fixture intro_staircase
    fixture ex_2_10 r1 r2
    fixture ex_2_11 N
    fn <set> const:<c> | identity | exp | poly:<c0,c1,...>

Repeated ``set`` lines accumulate primitives under the same name.  Fixture
lines expand deterministically against the scene's own grid; the two
step-curve fixtures adapt their spacing to the cell size so every corridor
stays resolvable (see the decisions in grid.py).
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

from .errors import InputError, SceneParseError
from .grid import (CellSet, GridSpec, Primitive, bracket_capacity, make_grid,
                   rasterize_closed, ray_exit_notes)
from .topology import (RegionModel, custom_region, open_disk_region,
                       open_rect_region, plane_region)

_EDGE_NAMES = ("N", "S", "E", "W", "all")
_CANON_EDGES = ("N", "S", "E", "W")


@dataclass(frozen=True)
class FnSpec:
    kind: str                 # const | identity | exp | poly
    params: tuple = ()

    def as_callable(self):
        if self.kind == "identity":
            return lambda z: z
        if self.kind == "exp":
            return lambda z: cmath.exp(z)
        if self.kind == "const":
            c = self.params[0]
            return lambda z: c
        if self.kind == "poly":
            coeffs = self.params
            def poly(z):
                acc = 0j
                for c in reversed(coeffs):
                    acc = acc * z + c
                return acc
            return poly
        raise InputError(f"unknown builtin function {self.kind!r}")

    def text(self) -> str:
        if self.kind == "const":
            return f"const:{_fmt_complex(self.params[0])}"
        if self.kind == "poly":
            return "poly:" + ",".join(_fmt_complex(c) for c in self.params)
        return self.kind


def _fmt_complex(c: complex) -> str:
    if c.imag == 0:
        return _fmt(c.real)
    return repr(c).strip("()")


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(eq=False)
class Scene:
    grid: GridSpec
    omega_decl: tuple
    unbounded: tuple
    sets: dict[str, list[Primitive]] = field(default_factory=dict)
    fns: dict[str, FnSpec] = field(default_factory=dict)
    fixture_tags: tuple = ()

    def region(self, grid: GridSpec | None = None) -> RegionModel:
        g = grid or self.grid
        kind = self.omega_decl[0]
        notes = []
        for prims in self.sets.values():
            notes.extend(ray_exit_notes(prims, g))
        extra = None
        if notes:
            import numpy as np
            extra = np.zeros((g.nrows, g.ncols), dtype=bool)
            for note in notes:
                i, j = note.cell
                extra[j, i] = True
        if kind == "plane":
            base = plane_region(g)
            return custom_region(g, base.omega, unbounded_edges=("all",),
                                 extra_unbounded=extra, simply_connected=True,
                                 exit_notes=notes)
        if kind in ("disk", "punctured_disk"):
            cx, cy, r = self.omega_decl[1:]
            base = open_disk_region(g, cx, cy, r,
                                    punctured=(kind == "punctured_disk"))
            return custom_region(g, base.omega, unbounded_edges=self.unbounded,
                                 extra_unbounded=extra,
                                 simply_connected=base.simply_connected,
                                 exit_notes=notes)
        if kind == "rect":
            x1, y1, x2, y2 = self.omega_decl[1:]
            base = open_rect_region(g, x1, y1, x2, y2)
            return custom_region(g, base.omega, unbounded_edges=self.unbounded,
                                 extra_unbounded=extra, simply_connected=True,
                                 exit_notes=notes)
        raise InputError(f"unknown region declaration {kind!r}")

    def raster(self, name: str, grid: GridSpec | None = None) -> CellSet:
        g = grid or self.grid
        if name not in self.sets:
            raise InputError(f"scene has no set named {name!r}")
        return rasterize_closed(self.sets[name], g)

    def set_names(self) -> list[str]:
        return sorted(self.sets)

    def obstacle_free_u(self, region: RegionModel) -> CellSet:
        """U = region minus the raster of the ``obstacles`` set, if any."""
        if "obstacles" not in self.sets:
            return region.omega
        return region.omega - self.raster("obstacles", region.grid)


def _floats(parts, n, lineno, what):
    if len(parts) != n:
        raise SceneParseError(lineno, f"{what} expects {n} numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise SceneParseError(lineno, f"bad number in {what}: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise SceneParseError(lineno, f"non-finite number in {what}")
    return vals


def _parse_primitive(parts, lineno) -> Primitive:
    kind = parts[0]
    args = parts[1:]
    try:
        if kind == "segment":
            v = _floats(args, 4, lineno, "segment")
            return Primitive.segment((v[0], v[1]), (v[2], v[3]))
        if kind == "circle":
            v = _floats(args, 3, lineno, "circle")
            return Primitive.circle((v[0], v[1]), v[2])
        if kind == "disk":
            v = _floats(args, 3, lineno, "disk")
            return Primitive.disk((v[0], v[1]), v[2])
        if kind == "rect":
            v = _floats(args, 4, lineno, "rect")
            return Primitive.rect((v[0], v[1]), (v[2], v[3]))
        if kind == "ray":
            v = _floats(args, 4, lineno, "ray")
            return Primitive.ray((v[0], v[1]), (v[2], v[3]))
        if kind == "point":
            v = _floats(args, 2, lineno, "point")
            return Primitive.point((v[0], v[1]))
        if kind == "polyline":
            if len(args) < 4 or len(args) % 2:
                raise SceneParseError(lineno, "polyline expects an even number "
                                              "of coordinates, at least 4")
            v = _floats(args, len(args), lineno, "polyline")
            return Primitive.polyline(list(zip(v[::2], v[1::2])))
        if kind == "staircase":
            if args:
                raise SceneParseError(lineno, "staircase takes no parameters")
            return Primitive.staircase()
        if kind == "bracket":
            if len(args) != 1:
                raise SceneParseError(lineno, "bracket expects one integer")
            try:
                return Primitive.bracket(int(args[0]))
            except ValueError as exc:
                raise SceneParseError(lineno, f"bad bracket index: {exc}") from exc
    except InputError as exc:
        raise SceneParseError(lineno, str(exc)) from exc
    raise SceneParseError(lineno, f"unknown primitive {kind!r}")


def _complex(text: str, lineno, what) -> complex:
    try:
        c = complex(text)
    except ValueError as exc:
        raise SceneParseError(lineno, f"bad {what}: {exc}") from exc
    if not cmath.isfinite(c):
        raise SceneParseError(lineno, f"non-finite number in {what}")
    return c


def _parse_fn(token: str, lineno) -> FnSpec:
    if token == "identity" or token == "exp":
        return FnSpec(token)
    if token.startswith("const:"):
        return FnSpec("const", (_complex(token[6:], lineno, "constant"),))
    if token.startswith("poly:"):
        coeffs = tuple(_complex(c, lineno, "coefficients")
                       for c in token[5:].split(","))
        if not coeffs:
            raise SceneParseError(lineno, "poly needs at least one coefficient")
        return FnSpec("poly", coeffs)
    raise SceneParseError(lineno, f"unknown builtin function {token!r}")


def parse_scene(text: str) -> Scene:
    """Parse scene text; errors carry 1-based line numbers."""
    grid = None
    omega = None
    unbounded: list[str] = []
    sets: dict[str, list[Primitive]] = {}
    fns: dict[str, FnSpec] = {}
    fixtures: list[tuple] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "grid":
            if grid is not None:
                raise SceneParseError(lineno, "duplicate grid declaration")
            v = _floats(parts[1:], 5, lineno, "grid")
            try:
                grid = make_grid(*v)
            except InputError as exc:
                raise SceneParseError(lineno, str(exc)) from exc
        elif key == "omega":
            if omega is not None:
                raise SceneParseError(lineno, "duplicate omega declaration")
            if len(parts) < 2:
                raise SceneParseError(lineno, "omega needs a shape")
            shape = parts[1]
            if shape == "plane":
                if len(parts) != 2:
                    raise SceneParseError(lineno, "omega plane takes no parameters")
                omega = ("plane",)
            elif shape in ("disk", "punctured_disk"):
                v = _floats(parts[2:], 3, lineno, f"omega {shape}")
                if v[2] <= 0:
                    raise SceneParseError(lineno, "omega radius must be positive")
                omega = (shape, *v)
            elif shape == "rect":
                v = _floats(parts[2:], 4, lineno, "omega rect")
                omega = ("rect", *v)
            else:
                raise SceneParseError(lineno, f"unknown omega shape {shape!r}")
        elif key == "unbounded":
            if len(parts) != 2 or parts[1] not in _EDGE_NAMES:
                raise SceneParseError(lineno, "unbounded expects one of N S E W all")
            unbounded.append(parts[1])
        elif key == "set":
            if len(parts) < 3:
                raise SceneParseError(lineno, "set expects a name and a primitive")
            sets.setdefault(parts[1], []).append(_parse_primitive(parts[2:], lineno))
        elif key == "fixture":
            fixtures.append(_parse_fixture(parts[1:], lineno))
        elif key == "fn":
            if len(parts) != 3:
                raise SceneParseError(lineno, "fn expects a set name and a builtin")
            fns[parts[1]] = _parse_fn(parts[2], lineno)
        else:
            raise SceneParseError(lineno, f"unknown directive {key!r}")

    if grid is None:
        raise SceneParseError(0, "scene has no grid declaration")

    tags = []
    for fx in fixtures:
        tags.append(fx[0])
        omega = _expand_fixture(fx, grid, sets, omega)
    if omega is None:
        raise SceneParseError(0, "scene has no omega declaration")
    return Scene(grid, omega, tuple(unbounded), sets, fns, tuple(tags))


def _parse_fixture(args, lineno) -> tuple:
    if not args:
        raise SceneParseError(lineno, "fixture needs a name")
    name = args[0]
    if name == "intro_staircase":
        if len(args) != 1:
            raise SceneParseError(lineno, "intro_staircase takes no parameters")
        return ("intro_staircase",)
    if name == "ex_2_10":
        v = _floats(args[1:], 2, lineno, "ex_2_10")
        if not (0 < v[0] < v[1] < 1):
            raise SceneParseError(lineno, "ex_2_10 requires 0 < r1 < r2 < 1")
        return ("ex_2_10", v[0], v[1])
    if name == "ex_2_11":
        if len(args) != 2:
            raise SceneParseError(lineno, "ex_2_11 expects a bracket count")
        try:
            n = int(args[1])
        except ValueError as exc:
            raise SceneParseError(lineno, f"bad bracket count: {exc}") from exc
        if n < 1:
            raise SceneParseError(lineno, "ex_2_11 bracket count must be >= 1")
        return ("ex_2_11", n)
    raise SceneParseError(lineno, f"unknown fixture {name!r}")


def _expand_fixture(fx, grid, sets, omega):
    """Expand a fixture into named sets (and possibly the omega declaration)."""
    if fx[0] == "intro_staircase":
        sets.setdefault("F", []).append(Primitive.staircase())
        return omega
    if fx[0] == "ex_2_10":
        if omega is not None:
            raise SceneParseError(0, "fixture ex_2_10 sets omega; remove the "
                                     "explicit omega declaration")
        _, r1, r2 = fx
        sets.setdefault("F1", []).append(Primitive.circle((0.0, 0.0), r1))
        sets.setdefault("F2", []).append(Primitive.circle((0.0, 0.0), r2))
        sets.setdefault("F", []).extend([Primitive.circle((0.0, 0.0), r1),
                                         Primitive.circle((0.0, 0.0), r2)])
        return ("punctured_disk", 0.0, 0.0, 1.0)
    if fx[0] == "ex_2_11":
        n = fx[1]
        cap = bracket_capacity(grid)
        if n > cap:
            warnings.warn(f"window fits {cap} brackets; requested {n} were capped")
            n = cap
        f = sets.setdefault("F", [])
        # the unbounded vertical line through (2, 0): two opposite rays
        f.append(Primitive.ray((2.0, 0.0), (0.0, 1.0)))
        f.append(Primitive.ray((2.0, 0.0), (0.0, -1.0)))
        for k in range(1, n + 1):
            f.append(Primitive.bracket(k))
        return omega
    raise InputError(f"unknown fixture {fx[0]!r}")


def print_scene(scene: Scene) -> str:
    """Canonical text for a scene; parsing it back reproduces the scene."""
    lines = [
        f"grid {_fmt(scene.grid.xmin)} {_fmt(scene.grid.ymin)} "
        f"{_fmt(scene.grid.xmax)} {_fmt(scene.grid.ymax)} {_fmt(scene.grid.delta)}"
    ]
    kind = scene.omega_decl[0]
    if kind == "plane":
        lines.append("omega plane")
    else:
        params = " ".join(_fmt(v) for v in scene.omega_decl[1:])
        lines.append(f"omega {kind} {params}")
    if "all" in scene.unbounded:
        lines.append("unbounded all")
    else:
        for e in _CANON_EDGES:
            if e in scene.unbounded:
                lines.append(f"unbounded {e}")
    for name in sorted(scene.sets):
        for p in scene.sets[name]:
            lines.append(f"set {name} {_primitive_text(p)}")
    for name in sorted(scene.fns):
        lines.append(f"fn {name} {scene.fns[name].text()}")
    return "\n".join(lines) + "\n"


def _primitive_text(p: Primitive) -> str:
    if p.kind == "segment":
        (a, b) = p.pts
        return f"segment {_fmt(a[0])} {_fmt(a[1])} {_fmt(b[0])} {_fmt(b[1])}"
    if p.kind in ("circle", "disk"):
        (c,) = p.pts
        return f"{p.kind} {_fmt(c[0])} {_fmt(c[1])} {_fmt(p.r)}"
    if p.kind == "rect":
        (a, b) = p.pts
        return f"rect {_fmt(a[0])} {_fmt(a[1])} {_fmt(b[0])} {_fmt(b[1])}"
    if p.kind == "ray":
        (o, d) = p.pts
        return f"ray {_fmt(o[0])} {_fmt(o[1])} {_fmt(d[0])} {_fmt(d[1])}"
    if p.kind == "point":
        (a,) = p.pts
        return f"point {_fmt(a[0])} {_fmt(a[1])}"
    if p.kind == "polyline":
        coords = " ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in p.pts)
        return f"polyline {coords}"
    if p.kind == "staircase":
        return "staircase"
    if p.kind == "bracket":
        return f"bracket {p.n}"
    raise InputError(f"cannot print primitive {p.kind!r}")


def scenes_equivalent(a: Scene, b: Scene) -> bool:
    """Semantic equality: same grid, region, rasters and bindings."""
    if a.grid.key() != b.grid.key() or a.omega_decl != b.omega_decl:
        return False
    if set(a.unbounded) != set(b.unbounded) or a.fns != b.fns:
        return False
    if set(a.sets) != set(b.sets):
        return False
    return all(a.raster(n).same_cells(b.raster(n)) for n in a.sets)
