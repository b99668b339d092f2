"""Connected components on the cell graph, the virtual point alpha, hole
detection, and the sphere/compactification equivalence on simply connected
regions.

Connectivity convention: rasters of closed carriers behave as 8-connected
sets while open complements are labeled with 4-connectivity, the standard
digital duality that keeps one-cell-thick curves separating.

The region's ideal point alpha is a virtual graph node.  A complement cell is
adjacent to alpha when it is 4-adjacent to a non-region cell inside the
window (zero distance from the region boundary), sits on a window edge the
scene declared unbounded, or sits where a ray leaves the window.  Components
touching an undeclared window edge and nothing else are *window-ambiguous*:
the finite picture cannot tell whether they escape, so answers that depend on
them degrade to inconclusive instead of guessing.
"""

import bisect
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np
from scipy import ndimage

from .errors import InputError, NotSimplyConnectedError, PreconditionError
from .grid import (CellSet, GridSpec, Primitive, distance_field,
                   rasterize_closed, rasterize_open_disk, rasterize_open_rect)

# component statuses, the values of ``HoleSet.status``
ENCLOSED, REACHES_ALPHA, WINDOW_AMBIGUOUS = 0, 1, 2

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# the package's one (di, dj) step order, east, north, west, south: BFS claims, walks
STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# window edges as cell slices; a scene's "all" declares the four of them
EDGES = {"N": np.s_[-1, :], "S": np.s_[0, :], "E": np.s_[:, -1], "W": np.s_[:, 0]}


def dilate(bits: np.ndarray, t: int) -> np.ndarray:
    """The cells with a set cell of ``bits`` at a squared offset below t >= 1,
    clipped to the array (twin: ``oracles.offset_disk_reference``); t = 2 and
    3 are the 4- and 8-neighbourhoods.  Per disk row a: ``bits`` ORed along
    rows out to half-width isqrt(t - 1 - a*a), then shifted a rows."""
    nrows, ncols = bits.shape
    wide, w = bits.copy(), 0
    near = wide if t <= 2 else np.zeros(bits.shape, dtype=bool)   # t <= 2 widens no band
    for a in range(min(math.isqrt(t - 1), nrows - 1), -1, -1):   # widest last
        half = min(math.isqrt(t - 1 - a * a), ncols - 1)
        while w < half:
            w += 1
            wide[:, w:] |= bits[:, :-w]
            wide[:, :-w] |= bits[:, w:]
        if a:
            band = wide if w else bits          # equal cells; no overlap copy when near is wide
            near[a:] |= band[:nrows - a]
            near[:-a] |= band[a:]
    wide |= near                # row offset 0 is ``wide`` itself (a no-op at t <= 2)
    return wide


@dataclass(eq=False)
class RegionModel:
    """The working region: its cells plus frontier knowledge.

    ``declared_edges`` names the whole window edges (N, S, E, W) past which
    the region continues; ``exits`` flags further window positions where it
    is forced to continue, such as the cell where a ray leaves the window.
    ``alpha_border`` is derived from both: the declared edges' cells plus
    the flagged cells that lie on the window border.
    ``fills_window`` and ``frame_gaps`` (each cell centre's distance to every
    *undeclared* window edge, one centre-axis array per edge) are derived
    once.  An undeclared edge may be the region's boundary as far as the
    window knows, so it bounds compactness; declared edges do not.
    """

    grid: GridSpec
    omega: CellSet
    declared_edges: frozenset = frozenset()
    exits: InitVar[np.ndarray | None] = None
    simply_connected: bool = False
    alpha_border: np.ndarray = field(init=False)
    alpha_adjacent: np.ndarray = field(init=False)
    ambiguous_contact: np.ndarray = field(init=False)
    fills_window: bool = field(init=False)
    frame_gaps: tuple = field(init=False)
    _boundary_distance: np.ndarray | None = field(init=False, default=None)
    _exhaustions: dict = field(init=False, default_factory=dict)  # by thresholds
    _hole_sets: dict = field(init=False, default_factory=dict)    # see ``holes``
    _no_domain: "HoleSet | None" = field(init=False, default=None)  # see ``holes``

    def __post_init__(self, exits):
        if self.omega.is_empty():
            raise InputError("region has no cells")
        border = np.zeros((self.grid.nrows, self.grid.ncols), dtype=bool)
        alpha = np.zeros_like(border)
        for edge, cells in EDGES.items():
            border[cells] = True
            if edge in self.declared_edges:    # never clear: corners are shared
                alpha[cells] = True
        if exits is not None:
            alpha |= exits & border
        self.alpha_border = alpha
        self.fills_window = bool(self.omega.bits.all())
        near = alpha if self.fills_window else dilate(~self.omega.bits, 2) | alpha
        self.alpha_adjacent = self.omega.bits & near
        self.ambiguous_contact = self.omega.bits & border & ~alpha
        g = self.grid
        xs, ys = g.center_axes()
        ys = ys[:, None]
        gaps = (g.ymax - ys, ys - g.ymin, g.xmax - xs, xs - g.xmin)   # N S E W
        self.frame_gaps = tuple(gap for edge, gap in zip(EDGES, gaps)
                                if edge not in self.declared_edges)

    def boundary_distance(self) -> np.ndarray:
        """Per-cell distance to the region's complement, as the window sees
        it: visible complement cells (center to center) and undeclared window
        edges both count.  Exact, built on the first call and read-only.
        Exhaustion levels read ``interior`` masks and disk radii read
        ``boundary_distance_at``, so only a hole union's ``min_bd_dist``
        builds it.  A region that nothing visible bounds (no complement cell,
        every edge declared) reads a zero-byte ``inf``: no transform runs."""
        if self._boundary_distance is None:
            if self.frame_gaps or not self.fills_window:
                dist = distance_field(CellSet(self.grid, ~self.omega.bits)).values
                for gap in self.frame_gaps:
                    np.minimum(dist, gap, out=dist)
                dist.flags.writeable = False
            else:
                dist = np.broadcast_to(np.inf, self.omega.bits.shape)
            self._boundary_distance = dist
        return self._boundary_distance

    def boundary_distance_at(self, i: int, j: int, cap: float) -> float:
        """``min(boundary_distance()[j, i], cap)`` for a finite cap, bit-equal,
        without the field.  With d the cap or a nearer undeclared edge, a
        complement cell more than ceil(d / delta) + 1 cells off along a row or
        column lies past d, so only the box within that is scanned (none when
        the region fills the window): the scan grows with d, not the window."""
        shape = self.omega.bits.shape
        d = min([cap] + [float(np.broadcast_to(g, shape)[j, i])
                         for g in self.frame_gaps])
        if not self.fills_window:
            m = math.ceil(d / self.grid.delta) + 1
            j0, i0 = max(j - m, 0), max(i - m, 0)
            box = ~self.omega.bits[j0:j + m + 1, i0:i + m + 1]
            bj, bi = np.divmod(np.flatnonzero(box), box.shape[1])
            if bj.size:
                d2 = int(((bj + (j0 - j)) ** 2 + (bi + (i0 - i)) ** 2).min())
                d = min(d, math.sqrt(d2) * self.grid.delta)
        return d

    def interior(self, r: float) -> np.ndarray:
        """The region cells at boundary distance at least r, as a new array:
        bit-equal to ``omega & (boundary_distance() >= r)`` (twin:
        ``oracles.interior_reference``), without building the field.

        Each undeclared edge is one test on a centre axis.  A complement cell
        at squared offset d2 lies ``sqrt(d2) * delta`` away, the field's own
        float expression, which never falls as d2 grows; so, with t the least
        d2 it maps to r or more (a bisection up to one past the window's
        largest offset), a cell stays exactly when no complement cell lies at
        a squared offset below t (``dilate``).
        """
        nrows, ncols = self.omega.bits.shape
        top = (nrows - 1) ** 2 + (ncols - 1) ** 2 + 1
        t = bisect.bisect_left(range(top), True,
                               key=lambda d2: math.sqrt(d2) * self.grid.delta >= r)
        # a NaN r keeps no cell, as ``field >= r`` does
        out = self.omega.bits.copy() if r <= math.inf else np.zeros_like(self.omega.bits)
        for gap in self.frame_gaps:
            out &= gap >= r
        if t and not self.fills_window:
            out &= ~dilate(~self.omega.bits, t)
        return out


def plane_region(grid: GridSpec) -> RegionModel:
    """The whole plane seen through the window; every edge continues outward.
    One region per grid, kept on it, so every call on the grid shares its
    exhaustions and hole sets; omega and masks are read-only.  It lives on an
    equal copy of the grid, so no cycle keeps it once the grid is freed."""
    if "_plane_region" not in grid.__dict__:
        own = replace(grid)
        region = RegionModel(own, CellSet.full(own), frozenset(EDGES),
                             simply_connected=True)
        for a in (region.omega.bits, region.alpha_border, region.alpha_adjacent,
                  region.ambiguous_contact):
            a.flags.writeable = False
        object.__setattr__(grid, "_plane_region", region)    # frozen dataclass
    return grid.__dict__["_plane_region"]


def open_disk_region(grid: GridSpec, cx: float, cy: float, r: float,
                     punctured: bool = False) -> RegionModel:
    omega = rasterize_open_disk(grid, cx, cy, r)
    if punctured:
        omega = omega - rasterize_closed([Primitive.point((cx, cy))], grid)
    return RegionModel(grid, omega, simply_connected=not punctured)


def open_rect_region(grid: GridSpec, x1: float, y1: float,
                     x2: float, y2: float) -> RegionModel:
    omega = rasterize_open_rect(grid, x1, y1, x2, y2)
    return RegionModel(grid, omega, simply_connected=True)


def custom_region(grid: GridSpec, omega: CellSet, *, unbounded_edges=(),
                  extra_unbounded=None, simply_connected=False) -> RegionModel:
    """The region continues past the ``unbounded_edges`` (N, S, E, W or
    "all") and past the border cells flagged in ``extra_unbounded``."""
    for e in unbounded_edges:
        if e != "all" and e not in EDGES:
            raise InputError(f"unknown window edge {e!r}")
    edges = frozenset(EDGES if "all" in unbounded_edges else unbounded_edges)
    return RegionModel(grid, omega, edges, extra_unbounded, simply_connected)


@dataclass(eq=False)
class ComponentLabeling:
    """Partition of a cell set into 4-connected components.

    Labels are dense from 0 and deterministic: scanning row-major, the first
    cell of a new component gets the smallest unused label.
    """

    labels: np.ndarray            # int32; -1 outside the domain
    n: int

    def first_cells(self) -> list[tuple[int, int]]:
        """Each label's lex-smallest cell (i, j), at its first run of the
        labels read column-first (twin: per-label ``CellSet.min_cell``)."""
        head = np.ones(self.labels.shape[::-1], dtype=bool)     # run starts
        head[:, 1:] = (self.labels[1:] != self.labels[:-1]).T
        i, j = np.divmod(np.flatnonzero(head), self.labels.shape[0])
        k, first = np.unique(self.labels[j, i], return_index=True)
        return list(zip(i[first[k >= 0]].tolist(), j[first[k >= 0]].tolist()))


def label_components(domain: CellSet) -> ComponentLabeling:
    """Label the domain's 4-connected components."""
    if not domain.bits.any():       # nothing to label: every label is -1
        return ComponentLabeling(np.full(domain.bits.shape, -1, np.int32), 0)
    labels, n = ndimage.label(domain.bits, structure=FOUR)
    if not _first_seen_order(domain.bits, labels):
        first = np.unique(labels, return_index=True)[1][-n:]    # labels 1..n
        labels = np.append(0, np.argsort(np.argsort(first)) + 1).astype(np.int32)[labels]
    labels -= 1
    return ComponentLabeling(labels, n)


def _first_seen_order(bits: np.ndarray, labels: np.ndarray) -> bool:
    """Whether the labels 1 ... n of ``bits``' 4-connected components
    follow their first cells in row-major order: scipy's order, which it
    does not document.  Every component's first cell has no domain cell
    above it or to its left, so the labels are read at those cells alone
    (twin: ``oracles.run_head_order``)."""
    flat = bits.ravel()
    heads = flat.copy()         # no domain cell to the left, along whole rows
    np.greater(flat[1:], flat[:-1], out=heads[1:])
    heads = heads.reshape(bits.shape)
    heads[:, 0] = bits[:, 0]    # where column 0 read the row above's last cell
    heads[1:] &= ~bits[:-1]
    seen = np.maximum.accumulate(labels[heads])
    return bool(seen[0] == 1 and np.diff(seen).max(initial=0) <= 1)


@dataclass(eq=False)
class HoleSet:
    """One labeling of region - F and its components' statuses against alpha
    (one int8 per label, see ``holes``); the holes are the ENCLOSED ones.
    Extents of their union are derived by the callers that read them."""

    hole_labels: tuple[int, ...]
    union: CellSet
    count: int
    ambiguous_labels: tuple[int, ...]
    labeling: ComponentLabeling
    status: np.ndarray

    def reach_mask(self, status: int) -> np.ndarray:
        """The cells of the components with this status."""
        # one lookup per cell; the trailing False is what label -1 reads
        return np.append(self.status == status, False)[self.labeling.labels]

    def witness_cells(self) -> list[tuple[int, int]]:
        """One deterministic representative per hole (lex-smallest (i, j))."""
        cells = self.labeling.first_cells()
        return [cells[lbl] for lbl in self.hole_labels]


def holes(F: CellSet, region: RegionModel) -> HoleSet:
    """Holes of F in the region, and the one place each component of
    region - F gets its status: REACHES_ALPHA with an alpha-adjacent cell,
    else WINDOW_AMBIGUOUS with a cell on an undeclared window edge, else
    ENCLOSED, a hole.

    The one place a hole set is reused: the region keeps the last 4 returned
    for a non-empty region - F, keyed on F's cells, oldest evicted first,
    with read-only arrays.  So the check, escape routing and later calls on a
    ``plane_region`` share each labeling.  An empty region - F (F fills the
    region) has one hole set per region, kept apart; its labeling runs no scan."""
    key = np.packbits(F.bits).tobytes()
    kept = region._hole_sets
    if key in kept:                 # its cells passed the subset test below
        F._check(region.omega)
        return kept[key]
    if not F.issubset(region.omega):
        raise PreconditionError("carrier set must lie inside the region")
    domain = region.omega - F
    if region._no_domain is not None and domain.is_empty():
        return region._no_domain
    lab = label_components(domain)
    alpha_hits, amb_hits = (np.bincount(lab.labels[m & domain.bits], minlength=lab.n)
                            for m in (region.alpha_adjacent, region.ambiguous_contact))
    status = np.where(alpha_hits > 0, REACHES_ALPHA, np.where(
        amb_hits > 0, WINDOW_AMBIGUOUS, ENCLOSED)).astype(np.int8)
    hole_labels = tuple(np.flatnonzero(status == ENCLOSED).tolist())
    amb = tuple(np.flatnonzero(status == WINDOW_AMBIGUOUS).tolist())
    hs = HoleSet(hole_labels, None, len(hole_labels), amb, lab, status)
    hs.union = CellSet(region.grid, hs.reach_mask(ENCLOSED)) if hole_labels \
        else CellSet.empty(region.grid)
    for a in (lab.labels, status, hs.union.bits):
        a.flags.writeable = False
    if not lab.n:                   # an empty domain: F fills the region
        region._no_domain = hs
    else:
        if len(kept) >= 4:          # escape routing reads K_0 ... K_3 at once
            del kept[next(iter(kept))]
        kept[key] = hs
    return hs


@dataclass(frozen=True)
class ComplementReport:
    """Tri-state connectivity of the compactified complement.

    ``connected`` is None when window-ambiguous components block a verdict;
    a conclusive disconnection (a trapped component) wins over ambiguity.
    """

    connected: bool | None
    n_components: int           # alpha-side counts as one component


def compactified_complement_connected(G: CellSet,
                                      region: RegionModel) -> ComplementReport:
    """Is (region + alpha) minus G connected?

    The graph is the 4-connected complement of G inside the region plus the
    virtual node alpha, adjacent to every alpha-adjacent complement cell.
    Its components away from alpha are the ENCLOSED and WINDOW_AMBIGUOUS
    ones of ``holes(G, region)``.
    """
    hs = holes(G, region)
    connected = False if hs.count else (None if hs.ambiguous_labels else True)
    return ComplementReport(connected, 1 + hs.count)


def sphere_complement_connected(G: CellSet, region: RegionModel) -> bool:
    """Is the complement of G on the compactified plane connected?

    The graph is the whole window minus G (the region's complement cells are
    part of it) plus a virtual infinity node adjacent to every window-border
    cell.  Only meaningful, and only allowed, on regions declared simply
    connected.  On a region filling the window, ~G is region - G, and the
    answer is whether ``holes(G, region)`` finds no hole; elsewhere, whether
    each component of ~G has a label on the window's edge rows or columns.
    """
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "sphere-complement test requires a region declared simply connected")
    if not G.issubset(region.omega):
        raise PreconditionError("G must lie inside the region")
    if region.fills_window:
        return holes(G, region).count == 0
    lab = label_components(CellSet(region.grid, ~G.bits))
    edges = np.concatenate([lab.labels[0], lab.labels[-1],
                            lab.labels[:, 0], lab.labels[:, -1]])
    return bool(np.bincount(edges[edges >= 0], minlength=lab.n).all())
