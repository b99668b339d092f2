"""Constructive side of the toolkit: cover the obstacle set with disks,
join every disk center to alpha by a curve, and carve the neighborhood V
out of U so that the compactified complement stays connected.

Every construction re-verifies its own output from scratch; discretization
can break continuous guarantees, so the certificate is the contract, and a
failed certificate raises instead of returning.
"""

from dataclasses import dataclass

import numpy as np

from .arakelian import Exhaustion, build_exhaustion, holes
from .errors import (AmbiguousRegionError, BuildRefusalError, CertificateError,
                     NotSimplyConnectedError, PreconditionError)
from .grid import CellSet, Primitive, distance_field, rasterize_closed
from .topology import (REACHES_ALPHA, WINDOW_AMBIGUOUS, RegionModel,
                       compactified_complement_connected, label_components,
                       sphere_complement_connected)

# routing preference: east, north, west, south
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class Disk:
    center: tuple[int, int]          # cell (i, j)
    center_xy: tuple[float, float]
    radius: float
    annulus: int                     # exhaustion annulus the center sits in


@dataclass(eq=False)
class DiskCover:
    """Closed disks covering the obstacle set, radii from the distance rule
    min(dist(x, F)/2, dist(x, complement), 1)."""

    disks: list[Disk]
    covered: CellSet
    per_annulus: dict[int, int]      # disks selected per exhaustion annulus


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
        if not (self.f_in_v and self.v_in_u and self.complement_connected):
            return False
        if self.sphere_connected is False:
            return False
        if self.parts_disjoint is False:
            return False
        if self.part_sphere_connected is not None and \
                not all(self.part_sphere_connected):
            return False
        return True

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
             region: RegionModel) -> tuple[Certificate, int]:
    f_in_v = F.issubset(v)
    v_in_u = v.issubset(U)
    rep = compactified_complement_connected(v, region)
    sphere = None
    if region.simply_connected:
        sphere = sphere_complement_connected(v, region)
    cert = Certificate(f_in_v, v_in_u, rep.connected is True, sphere)
    return cert, rep.n_components


def disk_cover(F: CellSet, U: CellSet, region: RegionModel, *,
               exhaustion: Exhaustion | None = None) -> DiskCover:
    """Greedy annulus-by-annulus disk cover of the obstacle set U's complement.

    Walking the exhaustion annuli in order and scanning row-major, every
    still-uncovered obstacle cell contributes a disk with the distance-rule
    radius; selection stops when the annulus is covered.  Deterministic.
    """
    grid = region.grid
    if not F.issubset(U) or not U.issubset(region.omega):
        raise PreconditionError("need F inside U inside the region")
    obstacles = region.omega - U
    if obstacles.is_empty():
        return DiskCover([], CellSet.empty(grid), {})

    d_f = distance_field(F).values
    d_bd = region.boundary_distance()
    if (d_f[obstacles.bits] <= 0).any():
        raise PreconditionError(
            "carrier set touches the obstacle set at grid scale")
    radius = np.minimum(np.minimum(d_f / 2.0, d_bd), 1.0)

    if exhaustion is None:
        exhaustion = build_exhaustion(region, 3)
    annuli = []
    prev = None
    for K in exhaustion.levels:
        annuli.append(K.bits if prev is None else (K.bits & ~prev))
        prev = K.bits
    residue = region.omega.bits & ~prev
    if residue.any():
        annuli.append(residue)

    covered = np.zeros_like(obstacles.bits)
    disks: list[Disk] = []
    per_annulus: dict[int, int] = {}
    for a_idx, ann in enumerate(annuli, start=1):
        todo = obstacles.bits & ann & ~covered
        while todo.any():
            js, iis = np.nonzero(todo)
            i, j = int(iis[0]), int(js[0])
            r = float(radius[j, i])
            cxy = grid.cell_center(i, j)
            raster = rasterize_closed([Primitive.disk(cxy, r)], grid)
            covered |= raster.bits & region.omega.bits
            disks.append(Disk((i, j), cxy, r, a_idx))
            per_annulus[a_idx] = per_annulus.get(a_idx, 0) + 1
            todo = obstacles.bits & ann & ~covered
    cover = DiskCover(disks, CellSet(grid, covered), per_annulus)
    if not obstacles.issubset(cover.covered):
        raise BuildRefusalError("disk cover failed to cover the obstacle set")
    return cover


def _bfs_layers(domain: np.ndarray, seeds: np.ndarray):
    """Multi-source 4-connected BFS over the domain, one layer at a time.

    Yields ``(cells, parents)`` as flat indices in FIFO queue order: the
    seeds first (parents -1), then per layer each cell with the first queued
    cell of the previous layer that reaches it along ``_STEPS``.  A padded
    copy keeps steps from wrapping rows; O(cells) in total.
    """
    width = domain.shape[1] + 2
    free = np.pad(domain, 1).ravel()                  # in domain, unvisited
    frontier = np.flatnonzero(np.pad(seeds & domain, 1))
    parents = np.full(frontier.size, -1)
    steps = np.array([di + dj * width for di, dj in _STEPS])
    while frontier.size:
        free[frontier] = False
        cells = frontier - 2 * (frontier // width) - (width - 1)   # unpadded
        yield cells, parents
        nbrs = (frontier[:, None] + steps).ravel()
        hit = np.flatnonzero(free[nbrs])
        # first occurrence of each new cell, back in queue order
        first = hit[np.sort(np.unique(nbrs[hit], return_index=True)[1])]
        parents = cells[first // steps.size]
        frontier = nbrs[first]


def _wave_distances(domain: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """4-connected BFS distances to the target cells, or -1."""
    dist = np.full(domain.size, -1, dtype=np.int32)
    for d, (cells, _) in enumerate(_bfs_layers(domain, targets)):
        dist[cells] = d
    return dist.reshape(domain.shape)


def _walk_down(start: tuple[int, int],
               dist: np.ndarray) -> list[tuple[int, int]] | None:
    """Deterministic shortest path from start to a zero-distance cell,
    preferring neighbors east, north, west, south at every step.

    A 4-neighbor at distance d - 1 >= 0 lies in the BFS domain and touches
    the current cell, so the walk never leaves the start's component.
    """
    i, j = start
    if dist[j, i] < 0:
        return None
    path = [(i, j)]
    d = int(dist[j, i])
    nrows, ncols = dist.shape
    while d > 0:
        for di, dj in _STEPS:
            ni, nj = i + di, j + dj
            if 0 <= ni < ncols and 0 <= nj < nrows and dist[nj, ni] == d - 1:
                i, j = ni, nj
                break
        else:
            return None
        path.append((i, j))
        d -= 1
    return path


def escape_curves(cover: DiskCover, F: CellSet, region: RegionModel,
                  exhaustion: Exhaustion) -> EscapePlan:
    """Join every disk center to alpha by a staged shortest cell path.

    A center in annulus n is routed inside its component of the region minus
    (F and the level below n), hopping stage by stage into alpha-reaching
    components of deeper complements before the final run to an
    alpha-adjacent cell.  Paths avoid F throughout; neighbor preference is
    east, north, west, south.

    Routing runs one 4-connected BFS per (stage, target kind) over the whole
    stage domain, O(cells) each.  The BFS never crosses between the domain's
    components, so every component sees the distances a BFS confined to it
    would give.
    """
    grid = region.grid
    if cover is None or not cover.disks:
        return EscapePlan([], CellSet.empty(grid))

    levels = [None] + list(exhaustion.levels)        # levels[s] = K_s, K_0 empty
    labelings: list = [None] * len(levels)

    def lab_at(s):
        if labelings[s] is None:
            k_bits = np.zeros_like(F.bits) if s == 0 else levels[s].bits
            dom = CellSet(grid, region.omega.bits & ~F.bits & ~k_bits)
            labelings[s] = label_components(dom, 4, region)
        return labelings[s]

    dist_cache: dict = {}

    def distances(s, target):
        """Distances in stage s's domain to the alpha-reaching components of
        stage ``target``, or to alpha-adjacent cells when it is None."""
        if (s, target) not in dist_cache:
            bits = region.alpha_adjacent if target is None else \
                lab_at(target).reach_mask(REACHES_ALPHA)
            dist_cache[s, target] = _wave_distances(lab_at(s).labels >= 0, bits)
        return dist_cache[s, target]

    top = len(exhaustion.levels)
    curves = []
    union = np.zeros_like(F.bits)
    for disk in cover.disks:
        i, j = disk.center
        # deepest stage whose complement component still reaches alpha
        m = None
        for s in range(min(disk.annulus - 1, top), -1, -1):
            lab = lab_at(s)
            comp = int(lab.labels[j, i])
            if comp < 0:
                continue
            if lab.alpha_reach[comp] == REACHES_ALPHA:
                m = s
                break
        if m is None:
            lab0 = lab_at(0)
            comp0 = int(lab0.labels[j, i])
            if comp0 >= 0 and lab0.alpha_reach[comp0] == WINDOW_AMBIGUOUS:
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
            dist = distances(s_here, s)
            seg = _walk_down(cur, dist)
            if seg is None:
                break
            end = seg[-1]
            comp_here = int(lab_at(s).labels[end[1], end[0]])
            stages.append(StageRecord(s, comp_here, seg))
            cur = end
            s_here = s

        comp_fin = int(lab_at(s_here).labels[cur[1], cur[0]])
        dist = distances(s_here, None)
        seg = _walk_down(cur, dist)
        if seg is None:
            raise BuildRefusalError(
                "no path to an alpha-adjacent cell from a disk center")
        stages.append(StageRecord(s_here, comp_fin, seg))

        path = [disk.center]
        for st in stages:
            path.extend(st.path[1:] if st.path[0] == path[-1] else st.path)
        for ci, cj in path:
            union[cj, ci] = True
        curves.append(EscapeCurve(disk.center, path, stages))
    return EscapePlan(curves, CellSet(grid, union))


def build_v(F: CellSet, U: CellSet, region: RegionModel, *,
            exhaustion: Exhaustion | None = None) -> NeighborhoodResult:
    """Carve V out of U: remove the obstacle disk cover and the escape
    curves, then re-verify F in V, V in U and the connectivity of the
    compactified complement (plus the sphere complement on simply connected
    scenes).  Raises CertificateError instead of returning a bad V.
    """
    if not F.issubset(U) or not U.issubset(region.omega):
        raise PreconditionError("need F inside U inside the region")
    if exhaustion is None:
        exhaustion = build_exhaustion(region, 3)
    cover = disk_cover(F, U, region, exhaustion=exhaustion)
    plan = escape_curves(cover, F, region, exhaustion)
    v = (U - cover.covered) - plan.union
    cert, ncomp = _certify(v, F, U, region)
    result = NeighborhoodResult(v, cover, plan, cert, ncomp)
    if not cert.ok():
        failing = [k for k, val in cert.to_dict().items() if val is False]
        raise CertificateError(
            f"neighborhood certificate failed: {', '.join(failing)}", result)
    return result


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
                     region: RegionModel, *,
                     exhaustion: Exhaustion | None = None) -> NeighborhoodResult:
    """Build one neighborhood for a disjoint pair of hole-free carriers.

    The region is split along the distance bisector (ties to the first
    carrier), each half intersected with U, and the two neighborhoods are
    built independently; their union is certified as a whole, including the
    sphere-complement connectivity of each part, which each part's own
    certificate already holds.  Only meaningful, and only allowed, on simply
    connected scenes.
    """
    if F1.is_empty():
        return build_v(F2, U, region, exhaustion=exhaustion)
    if F2.is_empty():
        return build_v(F1, U, region, exhaustion=exhaustion)
    if not (F1 & F2).is_empty():
        raise PreconditionError("carriers overlap at grid scale")
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "disjoint unions are only combined on simply connected regions; "
            "two disjoint carriers in a punctured region can trap an annulus "
            "between them")
    for name, f in (("first", F1), ("second", F2)):
        hs = holes(f, region)
        if hs.count:
            raise PreconditionError(f"{name} carrier has holes; not Arakelian")

    d1 = distance_field(F1).values
    d2 = distance_field(F2).values
    g1 = region.omega.bits & (d1 <= d2)
    g2 = region.omega.bits & (d1 > d2)
    if exhaustion is None:
        exhaustion = build_exhaustion(region, 3)

    r1 = build_v(F1, CellSet(region.grid, g1 & U.bits), region,
                 exhaustion=exhaustion)
    r2 = build_v(F2, CellSet(region.grid, g2 & U.bits), region,
                 exhaustion=exhaustion)

    v = r1.v | r2.v
    f_in_v = (F1 | F2).issubset(v)
    v_in_u = v.issubset(U)
    rep = compactified_complement_connected(v, region)
    parts_disjoint = (r1.v & r2.v).is_empty()
    part_sphere = (r1.certificate.sphere_connected,
                   r2.certificate.sphere_connected)
    cert = Certificate(f_in_v, v_in_u, rep.connected is True,
                       sphere_complement_connected(v, region),
                       parts_disjoint, part_sphere)
    cover = DiskCover(r1.cover.disks + r2.cover.disks,
                      r1.cover.covered | r2.cover.covered,
                      {**r1.cover.per_annulus,
                       **{k: r1.cover.per_annulus.get(k, 0) + n
                          for k, n in r2.cover.per_annulus.items()}})
    plan = EscapePlan(r1.plan.curves + r2.plan.curves,
                      r1.plan.union | r2.plan.union)
    result = NeighborhoodResult(v, cover, plan, cert, rep.n_components)
    if not cert.ok():
        failing = [k for k, val in cert.to_dict().items() if val is False]
        raise CertificateError(
            f"combined certificate failed: {', '.join(failing)}", result)
    return result
