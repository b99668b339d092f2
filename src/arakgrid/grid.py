"""Grid windows, cell sets, geometric rasterization, and exact distance fields.

A rectangular window of the plane is cut into square cells of side ``delta``.
Cell ``(i, j)`` covers the closed square
``[xmin + i*delta, xmin + (i+1)*delta] x [ymin + j*delta, ymin + (j+1)*delta]``;
neighbouring squares overlap only along their shared edges.  Subsets of the
window are stored as one membership bit per cell, indexed ``bits[j, i]``.

Closed geometric carriers (segments, circles, disks, curve fixtures) are
rasterized with touch semantics: a cell is included as soon as its closed
square meets the carrier, with a small slack toward inclusion.  The raster is
therefore a superset image of the true set, so downstream hole detection can
merge regions but never invent one.  Open regions use the dual, strict
semantics (see :func:`rasterize_open_disk` / :func:`rasterize_open_rect`).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InputError

# Membership tests lean toward inclusion by this absolute slack so closed
# sets never lose a tangent cell to float rounding.
INCLUSION_SLACK = 1e-9

# Guards ceil((max-min)/delta) against float noise on exact divisions.
_CEIL_GUARD = 1e-9

# Largest window make_grid accepts, in cells; every array the toolkit builds
# is a few times this size at most.
MAX_CELLS = 2 ** 24


def _floor_clipped(t: float, lo: int, hi: int) -> int:
    """floor(t) clipped to [lo, hi] in float, so an offset that overflowed to
    inf clips instead of failing the int conversion; NaN reads lo."""
    return int(math.floor(min(float(hi), max(float(lo), t))))


@dataclass(frozen=True)
class GridSpec:
    """A window of the plane tiled by ``ncols`` x ``nrows`` square cells."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    delta: float
    ncols: int
    nrows: int

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (self.xmin + (i + 0.5) * self.delta,
                self.ymin + (j + 0.5) * self.delta)

    def cell_box(self, i: int, j: int) -> tuple[float, float, float, float]:
        d = self.delta
        return (self.xmin + i * d, self.ymin + j * d,
                self.xmin + (i + 1) * d, self.ymin + (j + 1) * d)

    def point_cell(self, x: float, y: float) -> tuple[int, int]:
        """Cell index containing the point, clipped to the window."""
        return (_floor_clipped((x - self.xmin) / self.delta, 0, self.ncols - 1),
                _floor_clipped((y - self.ymin) / self.delta, 0, self.nrows - 1))

    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.xmin + (np.arange(self.ncols) + 0.5) * self.delta
        ys = self.ymin + (np.arange(self.nrows) + 0.5) * self.delta
        return xs, ys

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.center_axes()
        return np.broadcast_to(xs, (self.nrows, self.ncols)), \
            np.broadcast_to(ys[:, None], (self.nrows, self.ncols))

    def center_abs(self) -> np.ndarray:
        """``|cell center|`` (distance from the origin) per cell."""
        X, Y = self.center_mesh()
        return np.hypot(X, Y)

    @property
    def window_center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def half_diagonal(self) -> float:
        return 0.5 * math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def with_ymax(self, ymax: float) -> "GridSpec":
        return make_grid(self.xmin, self.ymin, self.xmax, ymax, self.delta)

    def key(self) -> tuple:
        return (self.xmin, self.ymin, self.xmax, self.ymax, self.delta)


def make_grid(xmin: float, ymin: float, xmax: float, ymax: float,
              delta: float) -> GridSpec:
    """Build a grid window; column/row counts are ceilings of span/delta.

    Windows of more than ``MAX_CELLS`` cells and numbers whose areas would
    overflow (16 v**2) are input errors, raised before anything is allocated.
    """
    for name, v in (("xmin", xmin), ("ymin", ymin), ("xmax", xmax),
                    ("ymax", ymax), ("delta", delta)):
        if not isinstance(v, (int, float)) or not math.isfinite(16.0 * v * v):
            raise InputError(f"|{name}| must be finite and below 3.3e153, got {v!r}")
    if not xmin < xmax or not ymin < ymax:
        raise InputError("window must satisfy xmin < xmax and ymin < ymax")
    if delta <= 0:
        raise InputError("delta must be positive")
    spans = ((xmax - xmin) / delta, (ymax - ymin) / delta)
    if not all(math.isfinite(s) for s in spans):
        raise InputError("window span / delta overflows; delta is too small")
    ncols, nrows = (int(math.ceil(s - _CEIL_GUARD)) for s in spans)
    if ncols * nrows > MAX_CELLS:
        raise InputError(f"window has {ncols} x {nrows} cells, more than the "
                         f"budget of {MAX_CELLS}")
    return GridSpec(float(xmin), float(ymin), float(xmax), float(ymax),
                    float(delta), max(ncols, 1), max(nrows, 1))


@dataclass(eq=False)
class CellSet:
    """A subset of a grid's cells, one bool per cell (``bits[j, i]``)."""

    grid: GridSpec
    bits: np.ndarray

    @classmethod
    def empty(cls, grid: GridSpec) -> "CellSet":
        return cls(grid, np.zeros((grid.nrows, grid.ncols), dtype=bool))

    @classmethod
    def full(cls, grid: GridSpec) -> "CellSet":
        return cls(grid, np.ones((grid.nrows, grid.ncols), dtype=bool))

    @classmethod
    def from_cells(cls, grid: GridSpec, cells) -> "CellSet":
        out = cls.empty(grid)
        for i, j in cells:
            out.bits[j, i] = True
        return out

    def _check(self, other: "CellSet"):
        if self.grid.key() != other.grid.key():
            raise InputError("cell sets live on different grids")

    def __or__(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.grid, self.bits | other.bits)

    def __and__(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.grid, self.bits & other.bits)

    def __sub__(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.grid, self.bits & ~other.bits)

    def issubset(self, other: "CellSet") -> bool:
        self._check(other)
        return not bool((self.bits & ~other.bits).any())

    def same_cells(self, other: "CellSet") -> bool:
        self._check(other)
        return bool(np.array_equal(self.bits, other.bits))

    def count(self) -> int:
        return int(self.bits.sum())

    def is_empty(self) -> bool:
        return not bool(self.bits.any())

    def cells(self) -> list[tuple[int, int]]:
        """Member cells as (i, j), row-major (j ascending, then i)."""
        js, iis = np.nonzero(self.bits)
        return [(int(i), int(j)) for j, i in zip(js, iis)]

    def min_cell(self) -> tuple[int, int]:
        """Lexicographically smallest member (i, j); column-first order."""
        if self.is_empty():
            raise InputError("empty cell set has no minimal cell")
        js, iis = np.nonzero(self.bits)
        k = np.lexsort((js, iis))[0]
        return (int(iis[k]), int(js[k]))


@dataclass(frozen=True)
class Primitive:
    """A geometric carrier rasterizable onto a grid.

    Kinds: ``segment``, ``circle`` (the curve), ``disk`` (filled), ``rect``
    (filled, axis-aligned), ``ray``, ``point``, ``polyline``, plus the two
    grid-adaptive curve fixtures ``staircase`` and ``bracket``.
    """

    kind: str
    pts: tuple = ()
    r: float = 0.0
    n: int = 0

    @staticmethod
    def segment(p1, p2) -> "Primitive":
        return Primitive("segment", (tuple(map(float, p1)), tuple(map(float, p2))))

    @staticmethod
    def circle(center, r) -> "Primitive":
        if not r > 0:
            raise InputError("circle radius must be positive")
        return Primitive("circle", (tuple(map(float, center)),), float(r))

    @staticmethod
    def disk(center, r) -> "Primitive":
        if not r > 0:
            raise InputError("disk radius must be positive")
        return Primitive("disk", (tuple(map(float, center)),), float(r))

    @staticmethod
    def rect(c1, c2) -> "Primitive":
        return Primitive("rect", (tuple(map(float, c1)), tuple(map(float, c2))))

    @staticmethod
    def ray(origin, direction) -> "Primitive":
        dx, dy = float(direction[0]), float(direction[1])
        if dx == 0.0 and dy == 0.0:
            raise InputError("ray direction must be nonzero")
        return Primitive("ray", (tuple(map(float, origin)), (dx, dy)))

    @staticmethod
    def point(p) -> "Primitive":
        return Primitive("point", (tuple(map(float, p)),))

    @staticmethod
    def polyline(points) -> "Primitive":
        pts = tuple(tuple(map(float, p)) for p in points)
        if len(pts) < 2:
            raise InputError("polyline needs at least 2 points")
        return Primitive("polyline", pts)

    @staticmethod
    def staircase() -> "Primitive":
        return Primitive("staircase")

    @staticmethod
    def bracket(n) -> "Primitive":
        if int(n) < 1:
            raise InputError("bracket index must be >= 1")
        return Primitive("bracket", (), 0.0, int(n))


@dataclass(frozen=True)
class ExitNote:
    """Records where an unbounded carrier leaves the window."""

    edge: str                      # one of N, S, E, W
    cell: tuple[int, int]
    direction: tuple[float, float]


# ---------------------------------------------------------------------------
# rasterization internals


def _cell_ranges(grid, bx0, by0, bx1, by1):
    """Cells [i0, i1) x [j0, j1) meeting the box, clipped to the window."""
    d = grid.delta
    i0 = _floor_clipped((bx0 - grid.xmin) / d, 0, grid.ncols)
    i1 = _floor_clipped((bx1 - grid.xmin) / d, -1, grid.ncols - 1) + 1
    j0 = _floor_clipped((by0 - grid.ymin) / d, 0, grid.nrows)
    j1 = _floor_clipped((by1 - grid.ymin) / d, -1, grid.nrows - 1) + 1
    return i0, i1, j0, j1


def _box_arrays(grid, i0, i1, j0, j1):
    d = grid.delta
    x0 = grid.xmin + np.arange(i0, i1) * d
    y0 = grid.ymin + np.arange(j0, j1) * d
    return x0[None, :], (x0 + d)[None, :], y0[:, None], (y0 + d)[:, None]


def _slab(lo, hi, o, d):
    """Parameter interval of ``lo <= o + t*d <= hi`` per box side."""
    if abs(d) < 1e-300:
        inside = (lo <= o) & (o <= hi)
        tmin = np.where(inside, -np.inf, np.inf)
        tmax = np.where(inside, np.inf, -np.inf)
    else:
        a = (lo - o) / d
        b = (hi - o) / d
        tmin = np.minimum(a, b)
        tmax = np.maximum(a, b)
    return tmin, tmax


def _segment_into(grid, p1, p2, out):
    eps = INCLUSION_SLACK
    bx0 = min(p1[0], p2[0]) - eps
    bx1 = max(p1[0], p2[0]) + eps
    by0 = min(p1[1], p2[1]) - eps
    by1 = max(p1[1], p2[1]) + eps
    i0, i1, j0, j1 = _cell_ranges(grid, bx0, by0, bx1, by1)
    if i0 >= i1 or j0 >= j1:
        return
    x0, x1, y0, y1 = _box_arrays(grid, i0, i1, j0, j1)
    ox, oy = p1
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    txmin, txmax = _slab(x0 - eps, x1 + eps, ox, dx)
    tymin, tymax = _slab(y0 - eps, y1 + eps, oy, dy)
    te = np.maximum(np.maximum(txmin, tymin), 0.0)
    tl = np.minimum(np.minimum(txmax, tymax), 1.0)
    out[j0:j1, i0:i1] |= te <= tl


def _near_far(grid, center, i0, i1, j0, j1):
    x0, x1, y0, y1 = _box_arrays(grid, i0, i1, j0, j1)
    cx, cy = center
    nx = np.maximum(np.maximum(x0 - cx, cx - x1), 0.0)
    ny = np.maximum(np.maximum(y0 - cy, cy - y1), 0.0)
    fx = np.maximum(cx - x0, x1 - cx)
    fy = np.maximum(cy - y0, y1 - cy)
    return np.hypot(nx, ny), np.hypot(fx, fy)


def _circle_into(grid, center, r, out, filled):
    eps = INCLUSION_SLACK
    cx, cy = center
    i0, i1, j0, j1 = _cell_ranges(grid, cx - r - eps, cy - r - eps,
                                  cx + r + eps, cy + r + eps)
    if i0 >= i1 or j0 >= j1:
        return
    near, far = _near_far(grid, center, i0, i1, j0, j1)
    if filled:
        out[j0:j1, i0:i1] |= near <= r + eps
    else:
        out[j0:j1, i0:i1] |= (near <= r + eps) & (far >= r - eps)


def _rect_into(grid, c1, c2, out):
    eps = INCLUSION_SLACK
    rx0, rx1 = min(c1[0], c2[0]), max(c1[0], c2[0])
    ry0, ry1 = min(c1[1], c2[1]), max(c1[1], c2[1])
    i0, i1, j0, j1 = _cell_ranges(grid, rx0 - eps, ry0 - eps, rx1 + eps, ry1 + eps)
    if i0 >= i1 or j0 >= j1:
        return
    x0, x1, y0, y1 = _box_arrays(grid, i0, i1, j0, j1)
    out[j0:j1, i0:i1] |= (x0 <= rx1 + eps) & (x1 >= rx0 - eps) & \
        (y0 <= ry1 + eps) & (y1 >= ry0 - eps)


def clip_ray(origin, direction, grid):
    """Clip a ray to the window.

    Returns ``(p1, p2)``, the entry point and the point where the ray leaves
    the window, or ``None`` when the ray misses the window entirely.
    """
    ox, oy = origin
    dx, dy = direction
    lo = np.array([grid.xmin]), np.array([grid.ymin])
    hi = np.array([grid.xmax]), np.array([grid.ymax])
    txmin, txmax = _slab(lo[0], hi[0], ox, dx)
    tymin, tymax = _slab(lo[1], hi[1], oy, dy)
    te = max(float(np.maximum(txmin, tymin)[0]), 0.0)
    tl = float(np.minimum(txmax, tymax)[0])
    if tl < te - 1e-15 or not math.isfinite(tl):
        return None
    p1 = (ox + te * dx, oy + te * dy)
    p2 = (ox + tl * dx, oy + tl * dy)
    return p1, p2


def _exit_edges(grid, p):
    tol = 1e-9 * (1.0 + abs(grid.xmax) + abs(grid.ymax))
    edges = []
    if abs(p[1] - grid.ymax) <= tol:
        edges.append("N")
    if abs(p[1] - grid.ymin) <= tol:
        edges.append("S")
    if abs(p[0] - grid.xmax) <= tol:
        edges.append("E")
    if abs(p[0] - grid.xmin) <= tol:
        edges.append("W")
    return edges


# ---------------------------------------------------------------------------
# grid-adaptive curve fixtures
#
# Both fixtures are step curves with unboundedly growing heights marching
# toward a terminal unbounded carrier.  Their walls are laid onto single cell
# columns (two free columns apart) so every corridor stays open at any cell
# size, and every corridor mouth stays over the closed disk of radius 2
# around the origin so that disk seals it from below.

_FIXTURE_X_LO = -1.5
_FIXTURE_X_HI = 1.9


def _col_center(grid, c):
    return grid.xmin + (c + 0.5) * grid.delta


def _fixture_cols(grid):
    lo = max(0, grid.point_cell(_FIXTURE_X_LO, grid.ymin)[0])
    hi_limit = (_FIXTURE_X_HI - grid.xmin) / grid.delta - 0.5
    return lo, hi_limit


def staircase_parts(grid) -> list[Primitive]:
    """Expand the staircase fixture: walls of height k at every other
    column, top bars joining consecutive walls, then a vertical ray."""
    lo, hi_limit = _fixture_cols(grid)
    nsteps = int(math.floor((hi_limit - lo) / 2))
    if nsteps < 1:
        raise InputError("window too small for the staircase fixture")
    parts = []
    for k in range(1, nsteps + 1):
        xk = _col_center(grid, lo + 2 * (k - 1))
        xk1 = _col_center(grid, lo + 2 * k)
        parts.append(Primitive.segment((xk, 0.0), (xk, float(k))))
        parts.append(Primitive.segment((xk, float(k)), (xk1, float(k))))
    x_ray = _col_center(grid, lo + 2 * nsteps)
    parts.append(Primitive.ray((x_ray, 0.0), (0.0, 1.0)))
    return parts


def bracket_capacity(grid) -> int:
    """How many disjoint brackets fit between the fixture anchors."""
    lo, hi_limit = _fixture_cols(grid)
    c_hi = int(math.floor(hi_limit))
    return max(0, (c_hi - lo + 2) // 4)


def bracket_parts(grid, k: int) -> list[Primitive]:
    """The k-th bracket: two walls of height k joined by a top bar.

    Brackets march toward the right anchor as k grows; indices beyond the
    window's capacity expand to nothing.
    """
    cap = bracket_capacity(grid)
    if k < 1 or k > cap:
        return []
    lo, hi_limit = _fixture_cols(grid)
    c_hi = int(math.floor(hi_limit))
    left_col = c_hi - 4 * (cap - k) - 2
    xl = _col_center(grid, left_col)
    xr = _col_center(grid, left_col + 2)
    return [
        Primitive.segment((xl, 0.0), (xl, float(k))),
        Primitive.segment((xr, 0.0), (xr, float(k))),
        Primitive.segment((xl, float(k)), (xr, float(k))),
    ]


def _expand(prim: Primitive, grid) -> list[Primitive]:
    if prim.kind == "staircase":
        return staircase_parts(grid)
    if prim.kind == "bracket":
        return bracket_parts(grid, prim.n)
    return [prim]


# ---------------------------------------------------------------------------
# public rasterization API


def rasterize_closed(primitives, grid: GridSpec) -> CellSet:
    """Union raster of closed carriers; touch semantics with closed-set bias."""
    out = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for prim in primitives:
        for p in _expand(prim, grid):
            if p.kind == "segment":
                _segment_into(grid, p.pts[0], p.pts[1], out)
            elif p.kind == "circle":
                _circle_into(grid, p.pts[0], p.r, out, filled=False)
            elif p.kind == "disk":
                _circle_into(grid, p.pts[0], p.r, out, filled=True)
            elif p.kind == "rect":
                _rect_into(grid, p.pts[0], p.pts[1], out)
            elif p.kind == "point":
                _rect_into(grid, p.pts[0], p.pts[0], out)
            elif p.kind == "polyline":
                for a, b in zip(p.pts[:-1], p.pts[1:]):
                    _segment_into(grid, a, b, out)
            elif p.kind == "ray":
                clipped = clip_ray(p.pts[0], p.pts[1], grid)
                if clipped is not None:
                    _segment_into(grid, clipped[0], clipped[1], out)
            else:
                raise InputError(f"unknown primitive kind {p.kind!r}")
    return CellSet(grid, out)


def ray_exit_notes(primitives, grid: GridSpec) -> list[ExitNote]:
    """Exit annotations for every unbounded carrier clipped by the window."""
    notes = []
    for prim in primitives:
        for p in _expand(prim, grid):
            if p.kind != "ray":
                continue
            clipped = clip_ray(p.pts[0], p.pts[1], grid)
            if clipped is None:
                continue
            exit_pt = clipped[1]
            cell = grid.point_cell(*exit_pt)
            for edge in _exit_edges(grid, exit_pt):
                notes.append(ExitNote(edge, cell, p.pts[1]))
    return notes


def rasterize_open_disk(grid: GridSpec, cx: float, cy: float, r: float) -> CellSet:
    """Cells meeting the open disk; strict inequalities (no closed-set bias)."""
    out = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    i0, i1, j0, j1 = _cell_ranges(grid, cx - r, cy - r, cx + r, cy + r)
    if i0 < i1 and j0 < j1:
        near, _ = _near_far(grid, (cx, cy), i0, i1, j0, j1)
        out[j0:j1, i0:i1] = near < r
    return CellSet(grid, out)


def rasterize_open_rect(grid: GridSpec, x1: float, y1: float,
                        x2: float, y2: float) -> CellSet:
    """Cells meeting the open rectangle; strict inequalities."""
    rx0, rx1 = min(x1, x2), max(x1, x2)
    ry0, ry1 = min(y1, y2), max(y1, y2)
    out = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    i0, i1, j0, j1 = _cell_ranges(grid, rx0, ry0, rx1, ry1)
    if i0 < i1 and j0 < j1:
        x0, x1b, y0, y1b = _box_arrays(grid, i0, i1, j0, j1)
        out[j0:j1, i0:i1] = (x0 < rx1) & (x1b > rx0) & (y0 < ry1) & (y1b > ry0)
    return CellSet(grid, out)


# ---------------------------------------------------------------------------
# distance fields


@dataclass(eq=False)
class DistanceField:
    """Per-cell Euclidean distance (cell center to cell center) to a source
    set; ``inf`` everywhere when the source is empty."""

    grid: GridSpec
    values: np.ndarray

    def at(self, i: int, j: int) -> float:
        return float(self.values[j, i])


def distance_field(source: CellSet) -> DistanceField:
    """Exact center-to-center Euclidean distance to the nearest source cell.

    Nearest-site indices come from an exact Euclidean distance transform;
    the distances themselves are recomputed from integer squared offsets so
    the result matches a brute-force pairwise minimum bit for bit.
    """
    grid = source.grid
    if source.is_empty():
        return DistanceField(grid, np.full((grid.nrows, grid.ncols), np.inf))
    inds = ndimage.distance_transform_edt(~source.bits, return_distances=False,
                                          return_indices=True)
    jj, ii = np.indices(source.bits.shape)
    d2 = (jj - inds[0]).astype(np.int64) ** 2 + (ii - inds[1]).astype(np.int64) ** 2
    return DistanceField(grid, np.sqrt(d2.astype(np.float64)) * grid.delta)
