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

A shape's numbers follow ``Primitive``'s field order, its points flattened
and then its radius; ``_ARITY`` and ``_OMEGA_ARITY`` hold how many each
shape takes, and the parser and the printer read them from there.

Repeated ``set`` lines accumulate primitives under the same name.  Fixture
lines expand deterministically against the scene's own grid; the two
step-curve fixtures adapt their spacing to the cell size so every corridor
stays resolvable (see the decisions in grid.py).
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SceneParseError
from .grid import (CellSet, GridSpec, Primitive, bracket_capacity, expand,
                   make_grid, rasterize_closed, rasterize_open_disk,
                   rasterize_open_rect, ray_exit_cells)
from .topology import EDGES, RegionModel, custom_region

_EDGE_NAMES = (*EDGES, "all")

# Numbers per shape (see the module docstring).  A polyline takes any even
# count of at least 4; a bracket takes one integer.
_ARITY = {"segment": 4, "circle": 3, "disk": 3, "rect": 4, "ray": 4,
          "point": 2, "staircase": 0}
_OMEGA_ARITY = {"plane": 0, "disk": 3, "punctured_disk": 3, "rect": 4}


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
    _expanded: dict = field(default_factory=dict, init=False, repr=False)

    def parts(self, name: str, grid: GridSpec | None = None) -> list[Primitive]:
        """The set's primitives with its curve fixtures expanded on the grid.
        Fixture parts depend only on the grid's columns (xmin, delta, ncols),
        which every window of a ``--windows`` schedule shares, so each column
        layout is expanded once per scene and set contents."""
        g = grid or self.grid
        if name not in self.sets:
            raise InputError(f"scene has no set named {name!r}")
        prims = tuple(self.sets[name])
        key = (prims, g.xmin, g.delta, g.ncols)
        if key not in self._expanded:
            self._expanded[key] = [p for prim in prims for p in expand(prim, g)]
        return self._expanded[key]

    def region(self, grid: GridSpec | None = None) -> RegionModel:
        g = grid or self.grid
        kind, *params = self.omega_decl
        extra = np.zeros((g.nrows, g.ncols), dtype=bool)
        for name in self.sets:
            for i, j in ray_exit_cells(self.parts(name, g), g):
                extra[j, i] = True
        edges, simple = self.unbounded, True
        if kind == "plane":
            omega, edges = CellSet.full(g), ("all",)
        elif kind in ("disk", "punctured_disk"):
            omega = rasterize_open_disk(g, *params)
            if kind == "punctured_disk":
                omega = omega - rasterize_closed([Primitive.point(params[:2])], g)
                simple = False
        elif kind == "rect":
            omega = rasterize_open_rect(g, *params)
        else:
            raise InputError(f"unknown region declaration {kind!r}")
        return custom_region(g, omega, unbounded_edges=edges,
                             extra_unbounded=extra, simply_connected=simple)

    def raster(self, name: str, grid: GridSpec | None = None) -> CellSet:
        g = grid or self.grid
        return rasterize_closed(self.parts(name, g), g)

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
    kind, args = parts[0], parts[1:]
    if kind == "bracket":
        if len(args) != 1:
            raise SceneParseError(lineno, "bracket expects one integer")
        try:
            v = [int(args[0])]
        except ValueError as exc:
            raise SceneParseError(lineno, f"bad bracket index: {exc}") from exc
    elif kind == "polyline":
        if len(args) < 4 or len(args) % 2:
            raise SceneParseError(lineno, "polyline expects an even number "
                                          "of coordinates, at least 4")
        v = _floats(args, len(args), lineno, kind)
    elif kind in _ARITY:
        v = _floats(args, _ARITY[kind], lineno, kind)
    else:
        raise SceneParseError(lineno, f"unknown primitive {kind!r}")
    pairs = list(zip(v[::2], v[1::2]))
    make = getattr(Primitive, kind)
    try:
        return make(pairs) if kind == "polyline" else make(*pairs, *v[2 * len(pairs):])
    except InputError as exc:
        raise SceneParseError(lineno, str(exc)) from exc


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
        return FnSpec("poly", coeffs)
    raise SceneParseError(lineno, f"unknown builtin function {token!r}")


def parse_scene(text: str) -> Scene:
    """Parse scene text; errors carry 1-based line numbers."""
    grid = None
    omega = None
    unbounded: list[str] = []
    sets: dict[str, list[Primitive]] = {}
    fns: dict[str, FnSpec] = {}
    fixtures: list[tuple] = []        # (fixture, line number)

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
            if shape not in _OMEGA_ARITY:
                raise SceneParseError(lineno, f"unknown omega shape {shape!r}")
            v = _floats(parts[2:], _OMEGA_ARITY[shape], lineno, f"omega {shape}")
            if shape in ("disk", "punctured_disk") and v[2] <= 0:
                raise SceneParseError(lineno, "omega radius must be positive")
            omega = (shape, *v)
        elif key == "unbounded":
            if len(parts) != 2 or parts[1] not in _EDGE_NAMES:
                raise SceneParseError(lineno, "unbounded expects one of N S E W all")
            unbounded.append(parts[1])
        elif key == "set":
            if len(parts) < 3:
                raise SceneParseError(lineno, "set expects a name and a primitive")
            sets.setdefault(parts[1], []).append(_parse_primitive(parts[2:], lineno))
        elif key == "fixture":
            fixtures.append((_parse_fixture(parts[1:], lineno), lineno))
        elif key == "fn":
            if len(parts) != 3:
                raise SceneParseError(lineno, "fn expects a set name and a builtin")
            fns[parts[1]] = _parse_fn(parts[2], lineno)
        else:
            raise SceneParseError(lineno, f"unknown directive {key!r}")

    if grid is None:
        raise SceneParseError(0, "scene has no grid declaration")

    for fx, lineno in fixtures:
        omega = _expand_fixture(fx, lineno, grid, sets, omega)
    if omega is None:
        raise SceneParseError(0, "scene has no omega declaration")
    return Scene(grid, omega, tuple(unbounded), sets, fns)


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


def _expand_fixture(fx, lineno, grid, sets, omega):
    """Expand a fixture into named sets (and possibly the omega declaration)."""
    if fx[0] == "intro_staircase":
        sets.setdefault("F", []).append(Primitive.staircase())
        return omega
    if fx[0] == "ex_2_10":
        if omega is not None:
            raise SceneParseError(lineno, "fixture ex_2_10 sets omega; remove "
                                          "the explicit omega declaration")
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
    g = scene.grid
    edges = ("all",) if "all" in scene.unbounded else \
        [e for e in EDGES if e in scene.unbounded]
    lines = [_words("grid", g.xmin, g.ymin, g.xmax, g.ymax, g.delta),
             _words(f"omega {scene.omega_decl[0]}", *scene.omega_decl[1:]),
             *(f"unbounded {e}" for e in edges)]
    for name in sorted(scene.sets):
        for p in scene.sets[name]:
            lines.append(f"set {name} {_primitive_text(p)}")
    for name in sorted(scene.fns):
        lines.append(f"fn {name} {scene.fns[name].text()}")
    return "\n".join(lines) + "\n"


def _primitive_text(p: Primitive) -> str:
    radius = (p.r,) if p.kind in ("circle", "disk") else ()
    text = _words(p.kind, *(c for pt in p.pts for c in pt), *radius)
    return f"{text} {p.n}" if p.kind == "bracket" else text


def _words(head: str, *nums) -> str:
    return " ".join([head, *map(_fmt, nums)])


def scenes_equivalent(a: Scene, b: Scene) -> bool:
    """Semantic equality: same grid, region, rasters and bindings."""
    if a.grid.key() != b.grid.key() or a.omega_decl != b.omega_decl:
        return False
    if set(a.unbounded) != set(b.unbounded) or a.fns != b.fns:
        return False
    if set(a.sets) != set(b.sets):
        return False
    return all(a.raster(n).same_cells(b.raster(n)) for n in a.sets)
