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

from .errors import ArakGridError, PreconditionError
from .grid import CellSet, GridSpec
from .topology import HoleSet, RegionModel, dilate, holes


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
    declared_bounds: list[float]

    @property
    def top_level(self) -> int:
        return self.level_ids[-1]

    @property
    def capped(self) -> bool:
        return self.R_values is not None

    def validate(self, region: RegionModel):
        """Re-check the construction invariants; raises on violation."""
        for k, K in enumerate(self.levels):
            if holes(K, region).count:
                raise ArakGridError(f"exhaustion level {self.level_ids[k]} has holes")
            if not K.issubset(region.omega):
                raise ArakGridError("exhaustion level leaves the region")
            if k + 1 < len(self.levels):
                grown = dilate(K.bits, 3)
                if (grown & ~self.levels[k + 1].bits).any():
                    raise ArakGridError(
                        f"level {self.level_ids[k]} not interior to the next")
        # the levels nest, so the last is their union; cells closer to the
        # (possibly window-frame) boundary than the finest threshold are
        # boundary artifacts no level can own
        if (region.interior(min(self.r_values)) & ~self.levels[-1].bits).any():
            raise ArakGridError("exhaustion does not cover the region")


def level_thresholds(delta: float, nlevels: int | None) -> list[float]:
    """The exhaustion's boundary margins ``delta * 2**(nlevels - k)`` for
    k = 1 ... nlevels; PreconditionError when nlevels < 1 or the largest
    overflows a float."""
    if nlevels is None or nlevels < 1:
        raise PreconditionError("nlevels must be >= 1")
    try:
        return [math.ldexp(delta, nlevels - k) for k in range(1, nlevels + 1)]
    except OverflowError:
        raise PreconditionError(f"nlevels={nlevels}: delta * 2**(nlevels - 1) "
                                "overflows a float") from None


def build_exhaustion(region: RegionModel, nlevels: int | None = None, *,
                     like: Exhaustion | None = None) -> Exhaustion:
    """The region's exhaustion: nested compact levels.

    Level k is the exact mask ``A_k = region.interior(r_k)``, the cells at
    least ``r_k = delta * 2**(nlevels-k)`` from the region's complement,
    capped on regions that run off the window to the cells within
    ``R_k = max(k / nlevels * half-diagonal, k * 1.5 * delta)`` of the
    window center.  Regions fully visible in the window take no cap: the
    boundary margin alone makes every level compact.  No level needs repair:

    * No holes.  A cell of region - A_k walks to the complement inside the
      digital disk of squared offsets below the threshold (each step lowers
      |a| or |b|), or straight to an undeclared edge, or outward past the
      cap to the window border, all within region - A_k; so its component
      reaches alpha or is window-ambiguous, never enclosed.
    * Nesting.  Boundary distance is 1-Lipschitz and r_(k-1) = 2 r_k, so
      the 8-neighborhood of A_(k-1) lies in A_k.  The finest level is the
      case where every region cell is at least delta from the complement.
      The floored cap grows by 1.5 delta or more per level, more than a
      diagonal step (sqrt(2) delta), so no rounded radius decides it.

    ``Exhaustion.validate`` re-checks both.

    No |centre| field is built: each row's cap is one |dx| threshold per
    level (``_row_thresholds``), and outer radii are read from the levels'
    row ends (``_outer_radii``).

    ``like`` takes another exhaustion's nlevels, r, R, center and cap
    instead, so the same compact levels are observed on another window.

    The exhaustion belongs to the region: it is built on the first call with
    given resolved thresholds and every later call returns the same object,
    so the check and the builders share it.  Level bits are read-only.
    """
    grid = region.grid
    if like is not None:
        nlevels, r_values, R_values, center = (
            len(like.r_values), like.r_values, like.R_values, like.center)
    else:
        r_values = level_thresholds(grid.delta, nlevels)
        center = grid.window_center
        R_values = [max(k / nlevels * grid.half_diagonal, k * 1.5 * grid.delta)
                    for k in range(1, nlevels + 1)] if region.alpha_border.any() else None
    key = (nlevels, tuple(r_values), R_values and tuple(R_values), tuple(center))
    if key in region._exhaustions:
        return region._exhaustions[key]

    capped = R_values is not None
    if capped:
        xs, ys = grid.center_axes()
        adx = np.abs(xs - center[0])
        thr = _row_thresholds(adx, np.abs(ys - center[1]), R_values)

    levels, ids = [], []
    for k in range(1, nlevels + 1):
        bits = region.interior(r_values[k - 1])
        if capped:
            bits &= adx <= thr[k - 1, :, None]
        if not bits.any():
            warnings.warn(f"exhaustion level {k} is empty and was skipped")
            continue
        bits.flags.writeable = False
        levels.append(CellSet(grid, bits))
        ids.append(k)
    if not levels:
        raise ArakGridError("no nonempty exhaustion level; region too thin")

    # level k's bound reads level k + 1's outer radius, the top level its own
    outer = _outer_radii(np.stack([K.bits for K in levels[1:] or levels]), grid).tolist()
    bounds = [r + grid.delta / 2 for r in outer + outer[-1:]][:len(levels)]
    exh = region._exhaustions[key] = Exhaustion(
        levels, ids, list(r_values), R_values and list(R_values), tuple(center), bounds)
    return exh


_PROBES = np.array([1, 0])[:, None, None]   # the seed count's last and next values


def _row_thresholds(adx: np.ndarray, ady: np.ndarray, R_values) -> np.ndarray:
    """``thr[k, j]``: the largest ``adx`` value u with ``hypot(u, ady[j]) <=
    R_values[k]``, -inf when there is none.  C Annex F makes ``hypot(x, y)``
    and ``hypot(|x|, |y|)`` equal, so with absolute centre offsets and a
    hypot that never falls as its first argument grows, ``adx <= thr[k, j]``
    is the cap ``hypot(dx, dy[j]) <= R_values[k]`` (twin: the full mesh).

    The count of qualifying values is seeded by ``sqrt(R**2 - ady**2)`` for
    every level and row at once.  Probes on either side of the seed close
    almost every pair; a bad seed (NaN, overflowed or off by rounding) only
    costs the ``log2(len(adx))`` halvings of its bracket that follow.
    """
    ux = np.sort(adx)
    n = ux.size
    R = np.asarray(R_values, dtype=np.float64)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        seed = np.searchsorted(ux, np.sqrt(np.maximum((R - ady) * (R + ady), 0.0)),
                               "right")
    i = np.minimum(np.maximum(seed - _PROBES, 0), n - 1)
    inside = np.hypot(ux[i], ady) <= R
    lo = np.where(inside, i + 1, 0).max(axis=0)     # the count lies in [lo, hi]
    hi = np.where(inside, n, i).min(axis=0)
    while (lo < hi).any():
        live, i = lo < hi, (lo + hi) // 2
        inside = np.hypot(ux[np.minimum(i, n - 1)], ady) <= R
        lo = np.where(live & inside, i + 1, lo)
        hi = np.where(live & ~inside, i, hi)
    return np.append(-np.inf, ux)[lo]


def _outer_radii(masks: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The largest |cell centre| of each mask in a stack shaped
    ``(..., nrows, ncols)``, bit-equal to ``hypot`` on the full centre mesh
    (twin: ``oracles.center_abs_reference``); -inf for an empty mask.  The
    centre axis is sorted and ``hypot(|x|, |y|)`` never falls as |x| grows,
    so each row's largest sits at its first or last member cell: one hypot
    per row, and no field.  Each row's last member is the top bit of its last
    nonzero byte packed little-endian (column 8b + k is bit k of byte b),
    frexp's exponent being a byte's bit length: no reversed copy."""
    xs, ys = grid.center_axes()
    ax = np.abs(xs)
    first = masks.argmax(axis=-1)
    rows = np.packbits(masks, axis=-1, bitorder="little").reshape(first.size, -1)
    byte = rows.shape[1] - 1 - (rows != 0)[:, ::-1].argmax(axis=1)
    top = rows[np.arange(byte.size), byte].astype(np.float32)   # not uint8's float16 loop
    last = (8 * byte + np.frexp(top)[1] - 1).reshape(first.shape)
    rad = np.hypot(np.maximum(ax[first], ax[last]), np.abs(ys))
    rad[(first == 0) & ~masks[..., 0]] = -np.inf   # rows with no member
    return rad.max(axis=-1)


def _extent(hs: HoleSet, region: RegionModel, level: int = -1) -> ExtentRecord:
    """The extent of a hole set on the region; 0 and inf when it has no holes."""
    max_abs, min_bd = 0.0, math.inf
    if hs.count:
        bits = hs.union.bits
        max_abs = float(_outer_radii(bits, region.grid))
        min_bd = float(region.boundary_distance()[bits].min())
    return ExtentRecord(level, hs.count, hs.union.count() * region.grid.delta ** 2,
                        max_abs, min_bd, len(hs.ambiguous_labels))


def hole_union_extent(F: CellSet, K: CellSet, region: RegionModel) -> ExtentRecord:
    """Extent of the union of holes of F together with a compact K."""
    return _extent(holes(F | K, region), region)


@dataclass(eq=False)
class AlphaNeighborhood:
    """The neighborhood of alpha obtained by carving a compact and the hole
    union of (carrier + compact) out of the region."""

    w: CellSet
    connected: bool


def alpha_neighborhood(F: CellSet, K: CellSet,
                       region: RegionModel) -> AlphaNeighborhood:
    """W = region minus (K and the hole union of F| K), with a flag.

    The flag certifies the full invariant the construction is used for: the
    carrier itself is hole-free AND W minus F, joined with alpha, is
    connected.  A carrier with its own hole therefore always flags False.
    It reads holes(F | K) and holes(F), which a check on the region has
    already labeled.  Removing the enclosed components of region - (F | K)
    leaves the other components as they are, so (region + alpha) -
    (F | K | holes) is connected exactly when no component of
    region - (F | K) is window-ambiguous: no further labeling is needed.
    """
    fk_holes = holes(F | K, region)
    w = region.omega - (K | fk_holes.union)
    connected = holes(F, region).count == 0 and not fk_holes.ambiguous_labels
    return AlphaNeighborhood(w, connected)


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
    alpha_w: CellSet | None = None        # set only when verified: connected
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
                "alpha_neighborhood": None if self.alpha_w is None else
                    {"cells": self.alpha_w.count(), "connected": True},
                "reason": self.reason,
            },
        }


VERIFIED_UP_TO = "VERIFIED_UP_TO"
REFUTED = "REFUTED"
EVIDENCE_DIVERGENT = "EVIDENCE_DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"


def carrier_verdict(F: CellSet, region: RegionModel) -> ArakelianVerdict | None:
    """What ``holes(F, region)`` alone decides on the region's window,
    before any exhaustion level is read: REFUTED on a hole of F, with a
    witness per hole, INCONCLUSIVE on a window-ambiguous component, else
    None.  The hole set is the one the region keeps, so a check reads it
    back."""
    hs = holes(F, region)
    if hs.count:
        cells = hs.witness_cells()
        points = [region.grid.cell_center(i, j) for i, j in cells]
        witness = {"cell": list(cells[0]), "point": list(points[0])}
        return ArakelianVerdict(REFUTED, witness=witness,
                                witnesses=[list(p) for p in points])
    if hs.ambiguous_labels:
        return ArakelianVerdict(
            INCONCLUSIVE,
            reason="window-ambiguous complement components; declare the "
                   "unbounded edges of the scene")
    return None


def check_arakelian(F: CellSet, region: RegionModel, exhaustion: Exhaustion | int,
                    window_schedule: list[GridSpec] | None = None, *,
                    scene_builder=None) -> ArakelianVerdict:
    """Run the staged check over an exhaustion and a window schedule.

    ``exhaustion`` is the region's own, ``build_exhaustion(region, n)``; the
    caller picks only n.  It is used as given on the base window, and with
    n = 3 it is the very object ``build_v`` later reads on this region.  An
    int n stands for ``build_exhaustion(region, n)``, built only once the
    first window's carrier leaves the check undecided (``carrier_verdict``).
    ``window_schedule`` lists grids to re-rasterize the scene on (the first
    entries may include the base grid), each containing the base window
    (PreconditionError otherwise); rebuilding on grids other than the
    region's own requires ``scene_builder(grid) -> (F, region)``.  Each such
    region builds its exhaustion from the *base* thresholds, so each level
    is a fixed compact set observed through growing windows.

    Every window labels region - F once and region - (F | K) once per level.
    The top-level alpha neighborhood reads the base window's two hole sets
    back from the region (see ``holes``); only a schedule without the base
    grid labels them again.

    Precedence: a hole of the carrier alone refutes; ambiguity is
    inconclusive (both ``carrier_verdict``); strict growth of some level's
    hole union across >= 3 consecutive windows is divergence evidence;
    otherwise all levels must stay within their declared bounds on every
    window to verify.
    """
    base_grid = region.grid
    if window_schedule is None or len(window_schedule) == 0:
        window_schedule = [base_grid]
    if any(g.xmin > base_grid.xmin or g.ymin > base_grid.ymin or g.xmax < base_grid.xmax
           or g.ymax < base_grid.ymax for g in window_schedule):
        raise PreconditionError("every scheduled window must contain the base window")

    per_window: list[list[ExtentRecord]] = []
    window_tops: list[float] = []
    reasons: list[str] = []

    for g in window_schedule:
        on_base = g.key() == base_grid.key()
        if on_base:
            F_g, region_g = F, region
        else:
            if scene_builder is None:
                raise PreconditionError(
                    "a scene builder is required to rasterize on other windows")
            F_g, region_g = scene_builder(g)

        decided = carrier_verdict(F_g, region_g)
        if decided is not None:
            return decided
        if not isinstance(exhaustion, Exhaustion):
            exhaustion = build_exhaustion(region, exhaustion)

        exh_g = exhaustion if on_base else build_exhaustion(region_g, like=exhaustion)
        if exh_g.level_ids != exhaustion.level_ids:
            return ArakelianVerdict(
                INCONCLUSIVE, reason="exhaustion levels differ across windows")

        recs = []
        for k, K in enumerate(exh_g.levels):
            rec = _extent(holes(F_g | K, region_g), region_g, exh_g.level_ids[k])
            if rec.n_ambiguous:
                return ArakelianVerdict(
                    INCONCLUSIVE,
                    reason=f"ambiguous components at level {rec.level}")
            recs.append(rec)
            if rec.count and rec.max_abs > exh_g.declared_bounds[k]:
                reasons.append(
                    f"level {rec.level} hole union reaches {rec.max_abs:.6g}, "
                    f"beyond its compact bound {exh_g.declared_bounds[k]:.6g}")
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

    if divergent:
        lvl = next(r["level"] for r in growth_rows if r["divergent"])
        return ArakelianVerdict(EVIDENCE_DIVERGENT, level=lvl,
                                growth=growth_rows, extents=per_window,
                                window_tops=window_tops)

    if not reasons:
        nbhd = alpha_neighborhood(F, exhaustion.levels[-1], region)
        if not nbhd.connected:
            return ArakelianVerdict(
                INCONCLUSIVE, extents=per_window, window_tops=window_tops,
                growth=growth_rows,
                reason="alpha neighborhood at the top level is not connected")
        return ArakelianVerdict(VERIFIED_UP_TO, level=exhaustion.top_level,
                                extents=per_window, window_tops=window_tops,
                                growth=growth_rows, alpha_w=nbhd.w)

    return ArakelianVerdict(INCONCLUSIVE, extents=per_window,
                            window_tops=window_tops, growth=growth_rows,
                            reason="; ".join(reasons[:3]))
