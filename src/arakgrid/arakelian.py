"""Exhaustion sequences, the hole-union criterion, and Arakelian verdicts.

A relatively closed set without holes is Arakelian exactly when, for every
compact subset of the region, the union of holes of their union stays inside
a compact subset of the region.  A finite grid can only sample that
quantifier, so verdicts are stamped:

* ``REFUTED`` -- the set itself has a hole; the witness re-validates.
* ``VERIFIED_UP_TO(n)`` -- every exhaustion level up to n kept its hole
  union inside the level's declared compact bound on every scheduled window.
* ``EVIDENCE_DIVERGENT`` -- under a fixed compact, the hole union's outer
  radius grew strictly across at least three consecutive growing windows.
  Evidence, not proof.
* ``INCONCLUSIVE`` -- window-ambiguous components or growth the schedule
  cannot classify.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ArakGridError, PreconditionError
from .grid import CellSet, GridSpec
from .topology import EIGHT, HoleSet, RegionModel, holes


@dataclass(frozen=True)
class ExtentRecord:
    """Size and placement of one hole union."""

    level: int
    count: int
    area: float
    max_abs: float
    min_bd_dist: float
    n_ambiguous: int

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "count": self.count,
            "area": self.area,
            "max_abs": self.max_abs,
            "min_bd_dist": None if math.isinf(self.min_bd_dist) else self.min_bd_dist,
            "n_ambiguous": self.n_ambiguous,
        }


@dataclass(eq=False)
class Exhaustion:
    """Nested compact levels exhausting the region inside the window.

    Levels satisfy: each level's 8-neighborhood (clipped to the window) lies
    in the next level, no level has holes in the region, and the last level
    covers every region cell.  ``declared_bounds[k]`` is the outer radius a
    hole union of (carrier + level k) may reach and still count as compactly
    contained: the next level's own outer radius plus half a cell.
    """

    levels: list[CellSet]
    level_ids: list[int]
    r_values: list[float]
    R_values: list[float] | None
    center: tuple[float, float]
    capped: bool
    declared_bounds: list[float]

    @property
    def top_level(self) -> int:
        return self.level_ids[-1]

    def validate(self, region: RegionModel):
        """Re-check the construction invariants; raises on violation."""
        grid = region.grid
        for k, K in enumerate(self.levels):
            hs = holes(K, region)
            if hs.count:
                raise ArakGridError(f"exhaustion level {self.level_ids[k]} has holes")
            if not K.issubset(region.omega):
                raise ArakGridError("exhaustion level leaves the region")
            if k + 1 < len(self.levels):
                grown = ndimage.binary_dilation(K.bits, EIGHT)
                if (grown & ~self.levels[k + 1].bits).any():
                    raise ArakGridError(
                        f"level {self.level_ids[k]} not interior to the next")
        union = np.zeros((grid.nrows, grid.ncols), dtype=bool)
        for K in self.levels:
            union |= K.bits
        # cells closer to the (possibly window-frame) boundary than the
        # finest threshold are boundary artifacts no level can own
        reachable = region.omega.bits & (region.boundary_distance()
                                         >= min(self.r_values))
        if (reachable & ~union).any():
            raise ArakGridError("exhaustion does not cover the region")


def build_exhaustion(region: RegionModel, nlevels: int, *,
                     r_values=None, R_values=None, center=None,
                     capped=None) -> Exhaustion:
    """Build nested compact levels from distance-to-boundary thresholds.

    Level k keeps cells at least ``r_k`` from the region's complement
    (``r_k = delta * 2**(nlevels-k)`` by default) and, on regions that run
    off the window, within ``R_k`` of the window center (``R_k`` growing to
    the window half-diagonal).  Levels are then hole-filled and dilated into
    their successors so the nesting invariants hold exactly.  Radius caps are
    skipped for regions fully visible in the window, where the boundary
    margin alone already makes every level compact.
    """
    if nlevels < 1:
        raise PreconditionError("nlevels must be >= 1")
    grid = region.grid
    if capped is None:
        capped = bool(region.alpha_border.any())
    if center is None:
        center = grid.window_center
    if r_values is None:
        try:
            r_values = [math.ldexp(grid.delta, nlevels - k) for k in range(1, nlevels + 1)]
        except OverflowError:
            raise PreconditionError(f"nlevels={nlevels}: delta * 2**(nlevels - 1) "
                                    "overflows a float") from None
    if capped and R_values is None:
        R_values = [k / nlevels * grid.half_diagonal for k in range(1, nlevels + 1)]

    dist = region.boundary_distance()
    X, Y = grid.center_mesh()
    rad = np.hypot(X - center[0], Y - center[1])

    levels, ids = [], []
    prev = None
    for k in range(1, nlevels + 1):
        bits = region.omega.bits & (dist >= r_values[k - 1])
        if capped:
            bits = bits & (rad <= R_values[k - 1])
        if prev is not None:
            grown = ndimage.binary_dilation(prev, EIGHT) & region.omega.bits
            bits = bits | grown
        # fill the level's holes; window-ambiguous components stay out
        bits = bits | holes(CellSet(grid, bits), region).union.bits
        if not bits.any():
            warnings.warn(f"exhaustion level {k} is empty and was skipped")
            continue
        levels.append(CellSet(grid, bits))
        ids.append(k)
        prev = bits
    if not levels:
        raise ArakGridError("no nonempty exhaustion level; region too thin")

    abs_centers = grid.center_abs()
    outer = [float(abs_centers[K.bits].max()) for K in levels]
    bounds = [outer[min(k + 1, len(levels) - 1)] + grid.delta / 2
              for k in range(len(levels))]
    return Exhaustion(levels, ids, list(r_values),
                      list(R_values) if capped else None,
                      tuple(center), capped, bounds)


def _extent(hs: HoleSet, region: RegionModel, level: int = -1) -> ExtentRecord:
    """The extent record of a hole set already computed on the region."""
    return ExtentRecord(level, hs.count, hs.union.count() * region.grid.delta ** 2,
                        hs.max_abs, hs.min_bd_dist, len(hs.ambiguous_labels))


def hole_union_extent(F: CellSet, K: CellSet, region: RegionModel) -> ExtentRecord:
    """Extent of the union of holes of F together with a compact K."""
    return _extent(holes(F | K, region), region)


@dataclass(eq=False)
class AlphaNeighborhood:
    """The neighborhood of alpha obtained by carving a compact and the hole
    union of (carrier + compact) out of the region."""

    w: CellSet
    connected: bool
    carrier_hole_count: int


def _carve(K: CellSet, region: RegionModel, fk_holes: HoleSet,
           f_holes: HoleSet) -> AlphaNeighborhood:
    """The alpha neighborhood from holes(F | K) and holes(F) on the region.

    Removing the enclosed components of region - (F | K) leaves the other
    components as they are, so (region + alpha) - (F | K | holes) is
    connected exactly when no component of region - (F | K) is
    window-ambiguous: no further labeling is needed.
    """
    w = region.omega - (K | fk_holes.union)
    connected = f_holes.count == 0 and not fk_holes.ambiguous_labels
    return AlphaNeighborhood(w, connected, f_holes.count)


def alpha_neighborhood(F: CellSet, K: CellSet,
                       region: RegionModel) -> AlphaNeighborhood:
    """W = region minus (K and the hole union of F| K), with a flag.

    The flag certifies the full invariant the construction is used for: the
    carrier itself is hole-free AND W minus F, joined with alpha, is
    connected.  A carrier with its own hole therefore always flags False.
    Two labelings: region - (F | K) and region - F; connectivity is read off
    the first (see ``_carve``).
    """
    return _carve(K, region, holes(F | K, region), holes(F, region))


@dataclass(eq=False)
class ArakelianVerdict:
    """Outcome of the staged Arakelian check; see module docstring."""

    status: str
    level: int | None = None
    witness: dict | None = None
    witnesses: list | None = None
    growth: list | None = None
    extents: list | None = None          # [window][level] ExtentRecords
    window_tops: list | None = None
    alpha_w: CellSet | None = None
    alpha_w_connected: bool | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        ext = None
        if self.extents is not None:
            ext = {
                "windows": self.window_tops,
                "levels": [[r.to_dict() for r in per_win] for per_win in self.extents],
            }
        return {
            "status": self.status,
            "witnesses": self.witnesses or [],
            "extents": {
                "table": ext,
                "growth": self.growth,
                "alpha_neighborhood": (
                    None if self.alpha_w is None else
                    {"cells": self.alpha_w.count(),
                     "connected": self.alpha_w_connected}),
                "reason": self.reason,
            },
        }


VERIFIED_UP_TO = "VERIFIED_UP_TO"
REFUTED = "REFUTED"
EVIDENCE_DIVERGENT = "EVIDENCE_DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"


def _refuted_verdict(hs, region: RegionModel) -> ArakelianVerdict:
    cells = hs.witness_cells()
    points = [region.grid.cell_center(i, j) for i, j in cells]
    first = hs.hole_labels[0]
    witness = {
        "cell": list(cells[0]),
        "point": list(points[0]),
        "hole_size": int(hs.labeling.sizes[first]),
        "hole_count": hs.count,
        "max_abs": hs.max_abs,
    }
    return ArakelianVerdict(REFUTED, witness=witness,
                            witnesses=[list(p) for p in points])


def check_arakelian(F: CellSet, region: RegionModel, exhaustion: Exhaustion,
                    window_schedule: list[GridSpec] | None = None, *,
                    scene_builder=None) -> ArakelianVerdict:
    """Run the staged check over an exhaustion and a window schedule.

    ``exhaustion`` must be built on ``region``; it is used as given on the
    base window.  ``window_schedule`` lists grids to re-rasterize the scene
    on (the first entries may include the base grid); rebuilding on grids
    other than the region's own requires ``scene_builder(grid) -> (F,
    region)``.  On those grids the exhaustion is rebuilt from the *base*
    thresholds, so each level is a fixed compact set observed through
    growing windows.

    Every window labels region - F once and region - (F | K) once per level.
    The top-level alpha neighborhood reuses the base window's two hole sets;
    only a schedule without the base grid labels them again.

    Precedence: a hole of the carrier alone refutes; ambiguity is
    inconclusive; strict growth of some level's hole union across >= 3
    consecutive windows is divergence evidence; otherwise all levels must
    stay within their declared bounds on every window to verify.
    """
    base_grid = region.grid
    if window_schedule is None or len(window_schedule) == 0:
        window_schedule = [base_grid]

    per_window: list[list[ExtentRecord]] = []
    window_tops: list[float] = []
    reasons: list[str] = []
    base_holes = None          # (holes(F | K_top), holes(F)) on the base window

    for g in window_schedule:
        on_base = g.key() == base_grid.key()
        if on_base:
            F_g, region_g = F, region
        else:
            if scene_builder is None:
                raise PreconditionError(
                    "a scene builder is required to rasterize on other windows")
            F_g, region_g = scene_builder(g)

        hs = holes(F_g, region_g)
        if hs.count:
            return _refuted_verdict(hs, region_g)
        if hs.ambiguous_labels:
            return ArakelianVerdict(
                INCONCLUSIVE,
                reason="window-ambiguous complement components; declare the "
                       "unbounded edges of the scene")

        exh_g = exhaustion if on_base else build_exhaustion(
            region_g, len(exhaustion.r_values), r_values=exhaustion.r_values,
            R_values=exhaustion.R_values, center=exhaustion.center,
            capped=exhaustion.capped)
        if exh_g.level_ids != exhaustion.level_ids:
            return ArakelianVerdict(
                INCONCLUSIVE, reason="exhaustion levels differ across windows")

        recs = []
        for k, K in enumerate(exh_g.levels):
            fk = holes(F_g | K, region_g)
            rec = _extent(fk, region_g, exh_g.level_ids[k])
            if rec.n_ambiguous:
                return ArakelianVerdict(
                    INCONCLUSIVE,
                    reason=f"ambiguous components at level {rec.level}")
            recs.append(rec)
            if rec.count and rec.max_abs > exh_g.declared_bounds[k]:
                reasons.append(
                    f"level {rec.level} hole union reaches {rec.max_abs:.6g}, "
                    f"beyond its compact bound {exh_g.declared_bounds[k]:.6g}")
            if rec.count and rec.min_bd_dist < region_g.grid.delta * 0.9:
                reasons.append(
                    f"level {rec.level} hole union hugs the region boundary")
        if on_base:
            base_holes = (fk, hs)
        per_window.append(recs)
        window_tops.append(g.ymax)

    # divergence: some fixed level growing strictly across >= 3 windows
    growth_rows = []
    divergent = False
    nlv = len(per_window[0])
    for k in range(nlv):
        series = [per_window[j][k].max_abs for j in range(len(per_window))]
        strict = [series[j] < series[j + 1] for j in range(len(series) - 1)]
        level_divergent = any(strict[j] and strict[j + 1]
                              for j in range(len(strict) - 1))
        growth_rows.append({
            "level": per_window[0][k].level,
            "max_abs": series,
            "counts": [per_window[j][k].count for j in range(len(per_window))],
            "divergent": level_divergent,
        })
        divergent = divergent or level_divergent

    if divergent and len(per_window) >= 3:
        lvl = next(r["level"] for r in growth_rows if r["divergent"])
        return ArakelianVerdict(EVIDENCE_DIVERGENT, level=lvl,
                                growth=growth_rows, extents=per_window,
                                window_tops=window_tops)

    if not reasons:
        top_K = exhaustion.levels[-1]
        nbhd = alpha_neighborhood(F, top_K, region) if base_holes is None \
            else _carve(top_K, region, *base_holes)
        if not nbhd.connected:
            return ArakelianVerdict(
                INCONCLUSIVE, extents=per_window, window_tops=window_tops,
                growth=growth_rows,
                reason="alpha neighborhood at the top level is not connected")
        return ArakelianVerdict(VERIFIED_UP_TO, level=exhaustion.top_level,
                                extents=per_window, window_tops=window_tops,
                                growth=growth_rows, alpha_w=nbhd.w,
                                alpha_w_connected=nbhd.connected)

    return ArakelianVerdict(INCONCLUSIVE, extents=per_window,
                            window_tops=window_tops, growth=growth_rows,
                            reason="; ".join(reasons[:3]))
