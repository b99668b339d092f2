"""Connected components on the cell graph, the virtual point alpha, hole
detection, and the sphere/compactification equivalence on simply connected
regions.

Connectivity convention: rasters of closed carriers behave as 8-connected
sets while open complements are labeled with 4-connectivity, the standard
digital duality that keeps one-cell-thick curves separating.

The region's ideal point alpha is a virtual graph node.  A complement cell is
adjacent to alpha when it is 4-adjacent to a non-region cell inside the
window (zero distance from the region boundary) or sits on a window edge the
scene declared unbounded.  Components touching an undeclared window edge and
nothing else are *window-ambiguous*: the finite picture cannot tell whether
they escape, so answers that depend on them degrade to inconclusive instead
of guessing.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import InputError, NotSimplyConnectedError, PreconditionError
from .grid import (CellSet, GridSpec, Primitive, distance_field,
                   rasterize_closed, rasterize_open_disk, rasterize_open_rect)

REACHES_ALPHA = "REACHES_ALPHA"
ENCLOSED = "ENCLOSED"
WINDOW_AMBIGUOUS = "WINDOW_AMBIGUOUS"

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
EIGHT = np.ones((3, 3), dtype=bool)

_EDGES = ("N", "S", "E", "W")


def _border_mask(grid: GridSpec) -> np.ndarray:
    m = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    m[0, :] = m[-1, :] = True
    m[:, 0] = m[:, -1] = True
    return m


def edges_to_border(grid: GridSpec, edges) -> np.ndarray:
    """Border-position mask for a set of declared window edges."""
    m = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for e in edges:
        if e == "all":
            return _border_mask(grid)
        if e == "N":
            m[-1, :] = True
        elif e == "S":
            m[0, :] = True
        elif e == "E":
            m[:, -1] = True
        elif e == "W":
            m[:, 0] = True
        else:
            raise InputError(f"unknown window edge {e!r}")
    return m


@dataclass(eq=False)
class RegionModel:
    """The working region: its cells plus frontier knowledge.

    ``alpha_border`` flags window-border positions where the region is
    declared (or forced by a carrier's exit) to continue outward;
    ``declared_edges`` lists whole window edges so declared.
    """

    grid: GridSpec
    omega: CellSet
    alpha_border: np.ndarray
    simply_connected: bool = False
    exit_notes: tuple = ()
    declared_edges: frozenset = frozenset()
    alpha_adjacent: np.ndarray = field(init=False)
    ambiguous_contact: np.ndarray = field(init=False)
    window_border: np.ndarray = field(init=False)
    _boundary_distance: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if self.omega.is_empty():
            raise InputError("region has no cells")
        border = _border_mask(self.grid)
        self.window_border = border
        self.alpha_border = self.alpha_border & border
        inner_complement = ndimage.binary_dilation(~self.omega.bits, FOUR)
        self.alpha_adjacent = self.omega.bits & (inner_complement | self.alpha_border)
        self.ambiguous_contact = self.omega.bits & border & ~self.alpha_border

    def frame_distance(self) -> np.ndarray:
        """Per-cell distance to the nearest *undeclared* window edge.

        An undeclared edge may be the region's boundary as far as the window
        knows, so it bounds compactness; edges declared unbounded do not.
        ``inf`` everywhere when every edge is declared.
        """
        g = self.grid
        X, Y = g.center_mesh()
        out = np.full((g.nrows, g.ncols), np.inf)
        if "N" not in self.declared_edges:
            out = np.minimum(out, g.ymax - Y)
        if "S" not in self.declared_edges:
            out = np.minimum(out, Y - g.ymin)
        if "E" not in self.declared_edges:
            out = np.minimum(out, g.xmax - X)
        if "W" not in self.declared_edges:
            out = np.minimum(out, X - g.xmin)
        return out

    def boundary_distance(self) -> np.ndarray:
        """Per-cell distance to the region's complement, as the window sees
        it: visible complement cells (center to center) and undeclared window
        edges both count.  ``inf`` when neither exists.  Computed on first
        use only; the array is read-only."""
        if self._boundary_distance is None:
            vals = distance_field(CellSet(self.grid, ~self.omega.bits)).values
            self._boundary_distance = np.minimum(vals, self.frame_distance())
            self._boundary_distance.flags.writeable = False
        return self._boundary_distance


def plane_region(grid: GridSpec) -> RegionModel:
    """The whole plane seen through the window; every edge continues outward."""
    return RegionModel(grid, CellSet.full(grid), _border_mask(grid),
                       simply_connected=True,
                       declared_edges=frozenset(_EDGES))


def open_disk_region(grid: GridSpec, cx: float, cy: float, r: float,
                     punctured: bool = False) -> RegionModel:
    omega = rasterize_open_disk(grid, cx, cy, r)
    if punctured:
        omega = omega - rasterize_closed([Primitive.point((cx, cy))], grid)
    return RegionModel(grid, omega, np.zeros_like(omega.bits),
                       simply_connected=not punctured)


def open_rect_region(grid: GridSpec, x1: float, y1: float,
                     x2: float, y2: float) -> RegionModel:
    omega = rasterize_open_rect(grid, x1, y1, x2, y2)
    return RegionModel(grid, omega, np.zeros_like(omega.bits),
                       simply_connected=True)


def custom_region(grid: GridSpec, omega: CellSet, *, unbounded_edges=(),
                  extra_unbounded=None, simply_connected=False,
                  exit_notes=()) -> RegionModel:
    alpha = edges_to_border(grid, unbounded_edges)
    if extra_unbounded is not None:
        alpha = alpha | extra_unbounded
    edges = frozenset(_EDGES) if "all" in unbounded_edges else \
        frozenset(e for e in unbounded_edges if e in _EDGES)
    return RegionModel(grid, omega, alpha, simply_connected=simply_connected,
                       exit_notes=tuple(exit_notes), declared_edges=edges)


@dataclass(eq=False)
class ComponentLabeling:
    """Partition of a cell set into connected components.

    Labels are dense from 0 and deterministic: scanning row-major, the first
    cell of a new component gets the smallest unused label.  ``alpha_reach``
    is present when a region was supplied at labeling time.
    """

    labels: np.ndarray            # int32; -1 outside the domain
    n: int
    sizes: np.ndarray
    alpha_reach: list[str] | None = None

    def reach_mask(self, status: str) -> np.ndarray:
        if self.alpha_reach is None:
            raise InputError("labeling carries no alpha classification")
        # one lookup per cell; the trailing False is what label -1 reads
        hit = np.array([st == status for st in self.alpha_reach] + [False])
        return hit[self.labels]

    def labels_with(self, status: str) -> list[int]:
        if self.alpha_reach is None:
            return []
        return [l for l, st in enumerate(self.alpha_reach) if st == status]


def label_components(domain: CellSet, connectivity: int,
                     region: RegionModel | None = None) -> ComponentLabeling:
    """Label the domain's connected components (4- or 8-connectivity)."""
    if connectivity not in (4, 8):
        raise InputError("connectivity must be 4 or 8")
    structure = FOUR if connectivity == 4 else EIGHT
    raw, n = ndimage.label(domain.bits, structure=structure)
    if n == 0:
        labels = np.full(domain.bits.shape, -1, dtype=np.int32)
        return ComponentLabeling(labels, 0, np.zeros(0, dtype=np.int64),
                                 None if region is None else [])

    # enforce first-seen-row-major label order regardless of backend details
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.int64))
    order = np.argsort(first[1:], kind="stable")
    mapping = np.empty(n + 1, dtype=np.int32)
    mapping[0] = 0
    mapping[order + 1] = np.arange(1, n + 1, dtype=np.int32)
    labels = mapping[raw].astype(np.int32) - 1

    sizes = np.bincount(labels[labels >= 0], minlength=n).astype(np.int64)

    alpha_reach = None
    if region is not None:
        alpha_hits = np.bincount(labels[region.alpha_adjacent & domain.bits],
                                 minlength=n)
        amb_hits = np.bincount(labels[region.ambiguous_contact & domain.bits],
                               minlength=n)
        alpha_reach = [
            REACHES_ALPHA if alpha_hits[l] else
            (WINDOW_AMBIGUOUS if amb_hits[l] else ENCLOSED)
            for l in range(n)
        ]
    return ComponentLabeling(labels, n, sizes, alpha_reach)


@dataclass(eq=False)
class HoleSet:
    """Complement components conclusively trapped inside the region."""

    hole_labels: tuple[int, ...]
    union: CellSet
    count: int
    max_abs: float                  # max |cell center| over the union
    min_bd_dist: float              # inf when the window shows no boundary
    ambiguous_labels: tuple[int, ...]
    labeling: ComponentLabeling

    def witness_cells(self) -> list[tuple[int, int]]:
        """One deterministic representative per hole (lex-smallest (i, j))."""
        grid = self.union.grid
        return [CellSet(grid, self.labeling.labels == lbl).min_cell()
                for lbl in self.hole_labels]


def holes(F: CellSet, region: RegionModel) -> HoleSet:
    """Holes of F in the region: components of region-minus-F that neither
    touch the region boundary nor any declared-unbounded window edge."""
    if not F.issubset(region.omega):
        raise PreconditionError("carrier set must lie inside the region")
    domain = region.omega - F
    lab = label_components(domain, 4, region)
    hole_labels = tuple(lab.labels_with(ENCLOSED))
    amb = tuple(lab.labels_with(WINDOW_AMBIGUOUS))
    if hole_labels:
        union_bits = lab.reach_mask(ENCLOSED)
        union = CellSet(region.grid, union_bits)
        max_abs = float(region.grid.center_abs()[union_bits].max())
        min_bd = float(region.boundary_distance()[union_bits].min())
    else:
        union = CellSet.empty(region.grid)
        max_abs = 0.0
        min_bd = float("inf")
    return HoleSet(hole_labels, union, len(hole_labels), max_abs, min_bd,
                   amb, lab)


@dataclass(frozen=True)
class ComplementReport:
    """Tri-state connectivity of the compactified complement.

    ``connected`` is None when window-ambiguous components block a verdict;
    a conclusive disconnection (a trapped component) wins over ambiguity.
    """

    connected: bool | None
    n_components: int           # alpha-side counts as one component
    n_enclosed: int
    n_ambiguous: int


def compactified_complement_connected(G: CellSet,
                                      region: RegionModel) -> ComplementReport:
    """Is (region + alpha) minus G connected?

    The graph is the 4-connected complement of G inside the region plus the
    virtual node alpha, adjacent to every alpha-adjacent complement cell.
    Its components away from alpha are the ENCLOSED and WINDOW_AMBIGUOUS
    ones of ``holes(G, region)``.
    """
    hs = holes(G, region)
    n_amb = len(hs.ambiguous_labels)
    connected = False if hs.count else (None if n_amb else True)
    return ComplementReport(connected, 1 + hs.count, hs.count, n_amb)


def sphere_complement_connected(G: CellSet, region: RegionModel) -> bool:
    """Is the complement of G on the compactified plane connected?

    The graph is the whole window minus G (the region's complement cells are
    part of it) plus a virtual infinity node adjacent to every window-border
    cell.  Only meaningful, and only allowed, on regions declared simply
    connected.
    """
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "sphere-complement test requires a region declared simply connected")
    if not G.issubset(region.omega):
        raise PreconditionError("G must lie inside the region")
    domain = CellSet(region.grid, ~G.bits)
    if domain.is_empty():
        return True
    lab = label_components(domain, 4)
    border_hits = np.bincount(
        lab.labels[region.window_border & domain.bits], minlength=lab.n)
    return bool((border_hits > 0).all())
