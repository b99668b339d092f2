"""Continuous-logarithm lifting along the constructive pipeline: extend a
nonvanishing sampled function off its carrier, carve away the (empty by
construction) zero set, build the neighborhood V, and unwrap a logarithm on
V's cell graph whose exponential reproduces the samples exactly on F.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arakelian import Exhaustion
from .builder import NeighborhoodResult, _bfs_layers, build_v
from .errors import (LiftVerificationError, NotSimplyConnectedError,
                     PreconditionError, ResolutionError)
from .grid import CellSet
from .topology import RegionModel, label_components


@dataclass(eq=False)
class SampledFunction:
    """Complex samples attached to the cells of a carrier set."""

    carrier: CellSet
    values: np.ndarray      # complex128, meaningful on carrier cells only

    @classmethod
    def from_callable(cls, carrier: CellSet, fn) -> "SampledFunction":
        grid = carrier.grid
        X, Y = grid.center_mesh()
        vals = np.zeros(carrier.bits.shape, dtype=np.complex128)
        zs = X[carrier.bits] + 1j * Y[carrier.bits]
        vals[carrier.bits] = np.asarray([fn(z) for z in zs], dtype=np.complex128)
        return cls(carrier, vals)

    def at(self, i: int, j: int) -> complex:
        return complex(self.values[j, i])

    def min_abs(self) -> float:
        if self.carrier.is_empty():
            return math.inf
        return float(np.abs(self.values[self.carrier.bits]).min())


def tietze_extend(f: SampledFunction, region: RegionModel) -> SampledFunction:
    """Nearest-carrier-cell extension of f to the whole region.

    Distances are center-to-center; exact integer squared offsets break ties
    toward the lexicographically smallest carrier cell.  The extension agrees
    with f on the carrier exactly, and its modulus never drops below the
    carrier's minimum, which keeps the extension's zero set empty whenever f
    has none.
    """
    carrier = f.carrier
    if carrier.is_empty():
        raise PreconditionError("cannot extend from an empty carrier")
    if not carrier.issubset(region.omega):
        raise PreconditionError("carrier must lie inside the region")
    grid = region.grid
    jj, ii = np.indices(carrier.bits.shape)

    js, iis = np.nonzero(carrier.bits)
    order = np.lexsort((js, iis))          # (i, j) ascending
    best_d2 = np.full(carrier.bits.shape, np.iinfo(np.int64).max, dtype=np.int64)
    out = np.zeros(carrier.bits.shape, dtype=np.complex128)
    for k in order:
        ci, cj = int(iis[k]), int(js[k])
        d2 = (ii - ci).astype(np.int64) ** 2 + (jj - cj).astype(np.int64) ** 2
        better = d2 < best_d2              # strict: first (lex-least) wins ties
        best_d2[better] = d2[better]
        out[better] = f.values[cj, ci]
    return SampledFunction(region.omega, np.where(region.omega.bits, out, 0))


@dataclass(eq=False)
class LogLiftResult:
    g: SampledFunction              # logarithm restricted to the carrier
    g_tilde: SampledFunction        # logarithm on all of V
    neighborhood: NeighborhoodResult
    residual_max: float             # max |exp(g) - f| over the carrier
    imag_jump_max: float            # max adjacent-cell imaginary jump on F


def _unwrap_on(v: CellSet, ext: SampledFunction, root_cell=None) -> SampledFunction:
    """Spanning-tree phase unwrap of log(ext) over V's 4-connected graph.

    Roots are the lexicographically smallest cell of each component (or the
    given root for its component), carrying the principal branch; every tree
    edge adds the principal argument increment, which must stay below pi in
    magnitude or the grid is declared too coarse.

    The tree is one ``_bfs_layers`` BFS from all roots.  The per-cell math
    stays scalar and the imaginary parts add up layer by layer, so every
    value is bit for bit the one of a cell-by-cell BFS.
    """
    lab = label_components(v, 4)
    # first cell of each label in (i, j) order, i.e. column-first
    _, first = np.unique(lab.labels.T.ravel(), return_index=True)
    seeds = np.zeros(v.bits.shape, dtype=bool)
    seeds.T.flat[first] = True
    seeds &= v.bits
    if root_cell is not None and v.bits[root_cell[1], root_cell[0]]:
        ri, rj = root_cell
        seeds &= lab.labels != lab.labels[rj, ri]
        seeds[rj, ri] = True

    w = ext.values.ravel()
    vals = np.zeros(w.size, dtype=np.complex128)
    for cells, parents in _bfs_layers(v.bits, seeds):
        w_cells = w[cells].tolist()
        vals.real[cells] = [math.log(abs(z)) for z in w_cells]
        if parents[0] < 0:                  # the roots
            vals.imag[cells] = [cmath.phase(z) for z in w_cells]
            continue
        dtheta = np.array([cmath.phase(a / b) for a, b in
                           zip(w_cells, w[parents].tolist())])
        if (np.abs(dtheta) >= math.pi * (1 - 1e-12)).any():
            raise ResolutionError(
                "phase jump of at least pi along a tree edge; "
                "retry with a smaller cell size")
        vals.imag[cells] = vals.imag[parents] + dtheta
    return SampledFunction(v, vals.reshape(v.bits.shape))


def log_lift(F: CellSet, f: SampledFunction, region: RegionModel,
             eps_zero: float = 1e-6, tol: float = 1e-8, *,
             root_cell=None, exhaustion: Exhaustion | None = None) -> LogLiftResult:
    """Lift a continuous logarithm of f on F through the neighborhood V.

    Requires a simply connected scene and |f| >= eps_zero > 0 on F.  The carrier
    is extended by nearest values, the sub-eps_zero cells of the extension
    are removed from the region to form U, V comes from the neighborhood
    builder, and the logarithm is unwrapped over V.  The returned g satisfies
    max |exp(g) - f| <= tol on F and all adjacent imaginary jumps on F stay
    below pi; violations raise instead of returning.
    """
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "logarithm lifting requires a region declared simply connected")
    if F.is_empty():
        raise PreconditionError("carrier is empty")
    if not F.same_cells(f.carrier):
        raise PreconditionError("sample carrier does not match F")
    # eps_zero > 0 keeps every cell of V away from log(0)
    if not (math.isfinite(eps_zero) and eps_zero > 0 and math.isfinite(tol)):
        raise PreconditionError(
            "eps_zero must be finite and positive, tol finite")
    if not np.isfinite(f.values[F.bits]).all():
        raise PreconditionError("samples of f on the carrier must be finite")
    # guards are written so that a NaN fails them
    if not (f.min_abs() >= eps_zero):
        raise PreconditionError(
            f"|f| drops below eps_zero={eps_zero:g} on the carrier")

    ext = tietze_extend(f, region)
    small = np.abs(ext.values) < eps_zero
    u = CellSet(region.grid, region.omega.bits & ~small)
    nbhd = build_v(F, u, region, exhaustion=exhaustion)
    g_tilde = _unwrap_on(nbhd.v, ext, root_cell=root_cell)
    g = SampledFunction(F, np.where(F.bits, g_tilde.values, 0))

    resid = np.abs(np.exp(g.values[F.bits]) - f.values[F.bits])
    residual_max = float(resid.max())
    jump = 0.0
    im = g.values.imag
    right = F.bits[:, :-1] & F.bits[:, 1:]
    if right.any():
        jump = max(jump, float(np.abs(im[:, :-1] - im[:, 1:])[right].max()))
    up = F.bits[:-1, :] & F.bits[1:, :]
    if up.any():
        jump = max(jump, float(np.abs(im[:-1, :] - im[1:, :])[up].max()))

    if not (jump < math.pi):
        raise ResolutionError(
            "adjacent carrier cells differ by at least pi in imaginary part; "
            "retry with a smaller cell size")
    if not (residual_max <= tol):
        raise LiftVerificationError(
            f"exp(g) misses f by {residual_max:g} > tol={tol:g}")
    return LogLiftResult(g, g_tilde, nbhd, residual_max, jump)
