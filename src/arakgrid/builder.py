"""Constructive side of the toolkit: cover the obstacle set with disks,
join every disk center to alpha by a curve, and carve the neighborhood V
out of U so that the compactified complement stays connected.

Every construction re-verifies its own output from scratch; discretization
can break continuous guarantees, so the certificate is the contract, and a
failed certificate raises instead of returning.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .arakelian import build_exhaustion
from .errors import (AmbiguousRegionError, BuildRefusalError, CertificateError,
                     NotSimplyConnectedError, PreconditionError)
from .grid import CellSet, disk_cells, distance_field
from .topology import (REACHES_ALPHA, STEPS, WINDOW_AMBIGUOUS, ComplementReport,
                       RegionModel, compactified_complement_connected, dilate,
                       holes, sphere_complement_connected)


@dataclass(frozen=True)
class Disk:
    center: tuple[int, int]          # cell (i, j)
    center_xy: tuple[float, float]
    radius: float
    annulus: int                     # exhaustion annulus the center sits in


@dataclass(eq=False)
class DiskCover:
    """Closed disks covering the obstacle set; annuli never decrease along it.
    The disk centred on cell x has radius min(dist(x, F)/2, dist(x, complement), 1),
    dist(x, F) measured to F's nearest cell centre (inf when F is empty).
    ``covered`` is the disks' raster in the region minus F: a disk's closed
    raster can touch a cell of F, and V must keep every one."""

    disks: list[Disk]
    covered: CellSet


@dataclass(eq=False)
class StageRecord:
    level: int                       # exhaustion level the stage avoids
    component: int                   # complement component the segment ran in
    path: list[tuple[int, int]]


@dataclass(eq=False)
class EscapeCurve:
    center: tuple[int, int]
    path: list[tuple[int, int]]      # 4-connected, center first, alpha-adjacent last
    stages: list[StageRecord]


@dataclass(eq=False)
class EscapePlan:
    curves: list[EscapeCurve]
    union: CellSet


@dataclass(frozen=True)
class Certificate:
    """Re-verified facts about a constructed neighborhood."""

    f_in_v: bool
    v_in_u: bool
    complement_connected: bool
    sphere_connected: bool | None = None      # simply connected scenes only
    parts_disjoint: bool | None = None        # disjoint-union builds only
    part_sphere_connected: tuple | None = None

    def ok(self) -> bool:
        """No fact that ``to_dict`` lists is False."""
        facts = self.to_dict()
        return False not in [*facts.values(), *facts.get("part_sphere_connected", ())]

    def to_dict(self) -> dict:
        d = {
            "f_in_v": self.f_in_v,
            "v_in_u": self.v_in_u,
            "complement_connected": self.complement_connected,
            "sphere_connected": self.sphere_connected,
        }
        if self.parts_disjoint is not None:
            d["parts_disjoint"] = self.parts_disjoint
            d["part_sphere_connected"] = list(self.part_sphere_connected)
        return d


@dataclass(eq=False)
class NeighborhoodResult:
    v: CellSet
    cover: DiskCover
    plan: EscapePlan
    certificate: Certificate
    n_complement_components: int

    def reverify(self, F: CellSet, U: CellSet,
                 region: RegionModel) -> Certificate:
        """Recompute the certificate from nothing but the returned V."""
        return _certify(self.v, F, U, region)[0]


def _certify(v: CellSet, F: CellSet, U: CellSet,
             region: RegionModel) -> tuple[Certificate, ComplementReport]:
    f_in_v = F.issubset(v)
    v_in_u = v.issubset(U)
    rep = compactified_complement_connected(v, region)
    sphere = None
    if region.simply_connected:
        sphere = sphere_complement_connected(v, region)
    cert = Certificate(f_in_v, v_in_u, rep.connected is True, sphere)
    return cert, rep


def _checked(what: str, v: CellSet, cover: DiskCover, plan: EscapePlan,
             cert: Certificate, rep: ComplementReport) -> NeighborhoodResult:
    """The result; AmbiguousRegionError when the one failing fact is a V
    complement the window cannot decide, else CertificateError naming all."""
    result = NeighborhoodResult(v, cover, plan, cert, rep.n_components)
    if not cert.ok():
        if rep.connected is None and replace(cert, complement_connected=True).ok():
            raise AmbiguousRegionError(
                f"{what} certificate: the complement of V is window-ambiguous; "
                "declare the scene's unbounded edges")
        failing = [k for k, val in cert.to_dict().items() if val is False]
        raise CertificateError(
            f"{what} certificate failed: {', '.join(failing)}", result)
    return result


def disk_cover(F: CellSet, U: CellSet, region: RegionModel) -> DiskCover:
    """Greedy annulus-by-annulus disk cover of the obstacle set U's complement.

    Walking the annuli of the region's 3-level exhaustion in order and
    scanning row-major, every still-uncovered obstacle cell contributes a
    disk; selection stops when the annulus is covered.  Deterministic.  The
    annuli partition the region, which holds every obstacle, so the cover
    is complete when the loop ends.
    Each centre's dist(x, F) is read off F's cells alone, as sqrt of the least
    integer squared offset times delta, bit-equal to ``distance_field(F)``;
    its boundary distance is read below the other two radius bounds alone,
    near the centre (``boundary_distance_at``).  Each disk is drawn into its
    cell box alone, and the scan resumes at its centre, which it covers
    (twin: ``oracles.disk_cover_reference``).
    """
    grid = region.grid
    if not F.issubset(U) or not U.issubset(region.omega):
        raise PreconditionError("need F inside U inside the region")
    obstacles = region.omega - U
    if obstacles.is_empty():
        return DiskCover([], CellSet.empty(grid))

    fj, fi = np.divmod(np.flatnonzero(F.bits), grid.ncols)    # 2-D nonzero is slower

    annuli, prev = [], None
    for K in build_exhaustion(region, 3).levels:
        annuli.append(K.bits if prev is None else K.bits & ~prev)
        prev = K.bits
    annuli.append(region.omega.bits & ~prev)           # the residue, maybe empty

    covered = np.zeros_like(obstacles.bits)
    disks: list[Disk] = []
    for a_idx, ann in enumerate(annuli, start=1):
        todo = obstacles.bits & ann & ~covered
        flat, at = todo.ravel(), 0                    # a view: the box writes show
        while flat[at := at + int(flat[at:].argmax())]:
            j, i = divmod(at, grid.ncols)
            d2 = ((fi - i) ** 2 + (fj - j) ** 2).min() if fi.size else math.inf
            r = region.boundary_distance_at(
                i, j, min(math.sqrt(d2) * grid.delta / 2.0, 1.0))
            cxy = grid.cell_center(i, j)
            (i0, i1, j0, j1), hit = disk_cells(grid, cxy, r)
            hit &= region.omega.bits[j0:j1, i0:i1] & ~F.bits[j0:j1, i0:i1]
            covered[j0:j1, i0:i1] |= hit
            todo[j0:j1, i0:i1] &= ~hit
            disks.append(Disk((i, j), cxy, r, a_idx))
    return DiskCover(disks, CellSet(grid, covered))


class _Wave:
    """Escape routing's 4-connected BFS distances to the targets in the domain,
    grown only as deep as asked (twin: ``oracles.bfs_distances``).  Distances
    need no queue order, so each layer steps one direction at a time and
    claims its cells before the next: no sort.  Every target reads 0 from the
    start, but only the rim (targets beside a free non-target) seeds the
    first layer: a shortest path leaves the targets through it."""

    def __init__(self, domain: np.ndarray, targets: np.ndarray):
        nrows, ncols = domain.shape
        self.width = ncols + 2
        seeds = np.zeros((nrows + 2, self.width), dtype=bool)
        seeds[1:-1, 1:-1] = targets & domain
        free = np.zeros_like(seeds)                       # in domain, unvisited
        free[1:-1, 1:-1] = domain & ~targets
        self.frontier = np.flatnonzero(seeds & dilate(free, 2))
        self.free = free.ravel()
        self.dist = np.subtract(seeds.ravel(), 1, dtype=np.int32)
        self.depth = 0                                    # the frontier's distance

    def reach(self, cell: tuple[int, int]) -> np.ndarray:
        """The distances, or -1, with every cell as near as ``cell`` set: whole
        layers run until ``cell`` has its distance or the frontier is empty."""
        at = (cell[1] + 1) * self.width + cell[0] + 1
        while self.frontier.size and self.dist[at] < 0:
            layer = []
            for di, dj in STEPS:
                nbrs = self.frontier + (di + dj * self.width)
                layer.append(nbrs[self.free[nbrs]])
                self.free[layer[-1]] = False
            self.frontier, self.depth = np.concatenate(layer), self.depth + 1
            self.dist[self.frontier] = self.depth
        return self.dist.reshape(-1, self.width)[1:-1, 1:-1]


def _walk_down(start: tuple[int, int],
               dist: np.ndarray) -> list[tuple[int, int]] | None:
    """Deterministic shortest path from start to a zero-distance cell,
    preferring neighbors east, north, west, south at every step.

    A 4-neighbor at distance d - 1 >= 0 lies in the BFS domain and touches
    the current cell, so the walk never leaves the start's component.  An
    unreached cell reads -1, so a ``_Wave`` grown to the start's depth gives
    the path its full field gives.
    """
    i, j = start
    if dist[j, i] < 0:
        return None
    path = [(i, j)]
    d = int(dist[j, i])
    nrows, ncols = dist.shape
    while d > 0:
        for di, dj in STEPS:
            ni, nj = i + di, j + dj
            if 0 <= ni < ncols and 0 <= nj < nrows and dist[nj, ni] == d - 1:
                i, j = ni, nj
                break
        else:
            return None
        path.append((i, j))
        d -= 1
    return path


def escape_curves(cover: DiskCover, F: CellSet, region: RegionModel) -> EscapePlan:
    """Join every disk center to alpha by a staged shortest cell path.

    A center in annulus n of the region's 3-level exhaustion, the one whose
    annuli ``disk_cover`` walked, is routed inside its component of the
    region minus (F and the level below n), hopping stage by stage into
    alpha-reaching components of deeper complements before the final run to
    an alpha-adjacent cell.  Paths avoid F throughout; neighbor preference
    is east, north, west, south.

    Routing grows one 4-connected BFS per (stage, target kind), shared by
    the disks and run layer by layer only until each walk's start has its
    distance.  The BFS never crosses between the domain's components, so
    every component sees the distances a BFS confined to it would give.  A
    hop into a stage with no alpha-reaching component has no target, so the
    hops end there without one.
    Stage s's domain region - (F | K_s) is labeled by ``holes(F | K_s,
    region)``, read once per call, so a check run on the region has labeled it.
    """
    grid = region.grid
    if not cover.disks:
        return EscapePlan([], CellSet.empty(grid))

    levels = build_exhaustion(region, 3).levels
    carriers = [F] + [F | K for K in levels]                # F | K_s, K_0 empty
    hs_at = functools.cache(lambda s: holes(carriers[s], region))

    def status(s, i, j):
        """Stage s's alpha status of cell (i, j)'s component; None off its domain."""
        lbl = hs_at(s).labeling.labels[j, i]
        return None if lbl < 0 else hs_at(s).status[lbl]

    @functools.cache
    def wave(s, target):
        """The BFS in stage s's domain to the alpha-reaching components of
        stage ``target``, or to alpha-adjacent cells when it is None."""
        bits = region.alpha_adjacent if target is None else \
            hs_at(target).reach_mask(REACHES_ALPHA)
        return _Wave(hs_at(s).labeling.labels >= 0, bits)

    top = len(levels)
    curves = []
    union = np.zeros_like(F.bits)
    for disk in cover.disks:
        i, j = disk.center
        # deepest stage whose complement component still reaches alpha
        m = next((s for s in range(min(disk.annulus - 1, top), -1, -1)
                  if status(s, i, j) == REACHES_ALPHA), None)
        if m is None:
            if status(0, i, j) == WINDOW_AMBIGUOUS:
                raise AmbiguousRegionError(
                    "escape from an obstacle is window-ambiguous; declare the "
                    "scene's unbounded edges")
            raise BuildRefusalError(
                "obstacle sits in a complement component enclosed by the "
                "carrier set; no curve to alpha exists")

        stages: list[StageRecord] = []
        cur = (i, j)
        s_here = m
        for s in range(m + 1, top + 1):
            if REACHES_ALPHA not in hs_at(s).status:
                break                       # no target: no walk could end
            seg = _walk_down(cur, wave(s_here, s).reach(cur))
            if seg is None:
                break
            cur, s_here = seg[-1], s
            stages.append(StageRecord(s, int(hs_at(s).labeling.labels[cur[1], cur[0]]), seg))

        comp_fin = int(hs_at(s_here).labeling.labels[cur[1], cur[0]])
        seg = _walk_down(cur, wave(s_here, None).reach(cur))
        if seg is None:
            raise BuildRefusalError(
                "no path to an alpha-adjacent cell from a disk center")
        stages.append(StageRecord(s_here, comp_fin, seg))

        path = [disk.center]
        for st in stages:
            path.extend(st.path[1:])        # each stage starts where the last ended
        for ci, cj in path:
            union[cj, ci] = True
        curves.append(EscapeCurve(disk.center, path, stages))
    return EscapePlan(curves, CellSet(grid, union))


def build_v(F: CellSet, U: CellSet, region: RegionModel) -> NeighborhoodResult:
    """Carve V out of U: remove the obstacle disk cover and the escape
    curves, then re-verify F in V, V in U and the connectivity of the
    compactified complement (plus the sphere complement on simply connected
    scenes).  Raises CertificateError instead of returning a bad V.

    Disks and curves follow the region's 3-level exhaustion, which the
    region builds once and shares: a ``check_arakelian`` run on
    ``build_exhaustion(region, 3)`` has already built it.  Without
    obstacles (U = region, as in every lift) there are no disks and it is
    not built.  ``disk_cover`` checks F inside U inside the region.
    """
    cover = disk_cover(F, U, region)
    plan = escape_curves(cover, F, region)
    v = (U - cover.covered) - plan.union
    return _checked("neighborhood", v, cover, plan, *_certify(v, F, U, region))


@dataclass(eq=False)
class RefutationWitness:
    points: list[tuple[float, float]]
    cells: list[tuple[int, int]]
    u: CellSet


def refute_witness(F: CellSet, region: RegionModel,
                   K: CellSet) -> RefutationWitness:
    """One puncture per hole of (F and K): removing those points from the
    region leaves an open U containing F for which no valid V exists.

    One labeling of region - (F | K) gives both the holes and their
    witness cells."""
    hs = holes(F | K, region)
    if hs.count == 0:
        raise PreconditionError("no holes to witness; F|K has empty hole union")
    cells = hs.witness_cells()
    u = region.omega - CellSet.from_cells(region.grid, cells)
    points = [region.grid.cell_center(i, j) for i, j in cells]
    return RefutationWitness(points, cells, u)


def refutation_blocks_build(F: CellSet, U: CellSet,
                            region: RegionModel) -> bool:
    """True when attempting to build V for this U fails, by refusal or by
    certificate; the paired assertion for a refutation witness."""
    try:
        build_v(F, U, region)
    except (CertificateError, BuildRefusalError):
        return True
    return False


def disjoint_union_v(F1: CellSet, F2: CellSet, U: CellSet,
                     region: RegionModel) -> NeighborhoodResult:
    """Build one neighborhood for a disjoint pair of hole-free carriers.

    The region is split along the distance bisector (ties to the first
    carrier), each half intersected with U, and the two neighborhoods are
    built independently; their union is certified as a whole, including the
    sphere-complement connectivity of each part, which each part's own
    certificate already holds.  Only meaningful, and only allowed, on simply
    connected scenes.
    """
    if F1.is_empty():
        return build_v(F2, U, region)
    if F2.is_empty():
        return build_v(F1, U, region)
    if not (F1 & F2).is_empty():
        raise PreconditionError("carriers overlap at grid scale")
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "disjoint unions are only combined on simply connected regions; "
            "two disjoint carriers in a punctured region can trap an annulus "
            "between them")
    for name, f in (("first", F1), ("second", F2)):
        if holes(f, region).count:
            raise PreconditionError(f"{name} carrier has holes; not Arakelian")

    d1 = distance_field(F1).values
    d2 = distance_field(F2).values
    g1 = region.omega.bits & (d1 <= d2)
    g2 = region.omega.bits & (d1 > d2)
    r1 = build_v(F1, CellSet(region.grid, g1 & U.bits), region)
    r2 = build_v(F2, CellSet(region.grid, g2 & U.bits), region)

    v = r1.v | r2.v
    cert, rep = _certify(v, F1 | F2, U, region)
    cert = replace(cert, parts_disjoint=(r1.v & r2.v).is_empty(),
                   part_sphere_connected=(r1.certificate.sphere_connected,
                                          r2.certificate.sphere_connected))
    cover = DiskCover(r1.cover.disks + r2.cover.disks,
                      r1.cover.covered | r2.cover.covered)
    plan = EscapePlan(r1.plan.curves + r2.plan.curves,
                      r1.plan.union | r2.plan.union)
    return _checked("combined", v, cover, plan, cert, rep)
