"""Continuous-logarithm lifting along the constructive pipeline: extend a
nonvanishing sampled function off its carrier (the extension copies carrier
values, so it vanishes nowhere), build the neighborhood V, and unwrap a
logarithm on V's cell graph whose exponential reproduces the samples exactly
on F.
"""

import math
from dataclasses import dataclass

import numpy as np

from .builder import NeighborhoodResult, build_v
from .errors import (LiftVerificationError, NotSimplyConnectedError,
                     PreconditionError, ResolutionError)
from .grid import CellSet, nearest_source_indices
from .topology import STEPS, RegionModel, label_components


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
        try:
            vals[carrier.bits] = np.asarray([fn(z) for z in zs], dtype=np.complex128)
        except OverflowError as exc:
            raise PreconditionError(f"f overflows on the carrier: {exc}") from None
        return cls(carrier, vals)

    def at(self, i: int, j: int) -> complex:
        return complex(self.values[j, i])

    def min_abs(self) -> float:
        if self.carrier.is_empty():
            return math.inf
        return float(np.abs(self.values[self.carrier.bits]).min())


def tietze_extend(f: SampledFunction, region: RegionModel) -> SampledFunction:
    """Nearest-carrier-cell extension of f to the whole region.

    Each cell takes the value of its center-nearest carrier cell, read off one
    EDT feature transform (Maurer, Qi & Raghavan, IEEE TPAMI 2003); ties go
    to the lexicographically smallest (i, j) carrier cell.  That is scipy's
    choice, which it does not document: ``TestTietzeOracle`` pins it.  The
    extension agrees with f on the carrier exactly and its modulus never drops
    below the carrier's minimum, so its zero set is empty whenever f has none.
    """
    carrier = f.carrier
    if carrier.is_empty():
        raise PreconditionError("cannot extend from an empty carrier")
    if not carrier.issubset(region.omega):
        raise PreconditionError("carrier must lie inside the region")
    rows, cols = nearest_source_indices(carrier)
    return SampledFunction(region.omega,
                           np.where(region.omega.bits, f.values[rows, cols], 0))


@dataclass(eq=False)
class LogLiftResult:
    g: SampledFunction              # logarithm restricted to the carrier
    g_tilde: SampledFunction        # logarithm on all of V
    neighborhood: NeighborhoodResult
    residual_max: float             # max |exp(g) - f| over the carrier
    imag_jump_max: float            # max adjacent-cell imaginary jump on F


def _bfs_tree(domain: np.ndarray, seeds: np.ndarray):
    """The phase unwrap's 4-connected BFS tree (twin:
    ``oracles.bfs_tree_reference``).  Returns ``(cells, parents, bounds)``:
    int32 flat indices of every cell the seeds reach, in FIFO queue order,
    and of its parent (-1 for a seed); layer k is ``cells[bounds[k]:
    bounds[k + 1]]``.  The seeds come first, then per layer each cell with
    the first queued cell of the previous layer that reaches it along
    ``STEPS``.  The unwrap's bit-for-bit sums rest on this rule.  Both
    arrays are filled layer by layer in padded indices and unpadded once.
    O(cells)."""
    width = domain.shape[1] + 2
    free = np.pad(domain, 1).ravel()                  # in domain, unvisited
    claim = np.full(free.size, np.iinfo(np.int64).max)
    cells = np.empty(np.count_nonzero(domain), dtype=np.int32)
    parents = np.empty_like(cells)
    frontier = np.flatnonzero(np.pad(seeds & domain, 1))
    n_seeds = frontier.size
    parents[:n_seeds] = -1
    steps = np.array([di + dj * width for di, dj in STEPS])
    bounds = [0]
    while frontier.size:
        lo, hi = bounds[-1], bounds[-1] + frontier.size
        free[frontier] = False
        cells[lo:hi] = frontier
        bounds.append(hi)
        nbrs = (frontier[:, None] + steps).ravel()
        hit = np.flatnonzero(free[nbrs])
        # each new cell's least slot is its first occurrence; ``hit`` ascends,
        # so ``first`` is in queue order.  Claimed cells leave ``free``, so
        # ``claim`` is never read again for them and needs no reset.
        new = nbrs[hit]
        np.minimum.at(claim, new, hit)
        first = hit[claim[new] == hit]
        parents[hi:hi + first.size] = frontier[first // steps.size]
        frontier = nbrs[first]
    del free, claim
    cells, parents = cells[:bounds[-1]], parents[:bounds[-1]]
    for a in (cells, parents[n_seeds:]):               # seeds keep parent -1
        a -= 2 * (a // width) + (width - 1)
    return cells, parents, bounds


def _unwrap_on(v: CellSet, ext: SampledFunction, root_cell=None) -> SampledFunction:
    """Spanning-tree phase unwrap of log(ext) over V's 4-connected graph.

    Roots are the lexicographically smallest cell of each component (or the
    given root for its component), carrying the principal branch; every tree
    edge adds the principal argument increment, which must stay below pi in
    magnitude or the grid is declared too coarse.

    The tree is one ``_bfs_tree`` BFS from all roots.  The scalar math runs
    once over the whole tree: once per distinct sample (by bit pattern), root
    and cross-sample edge, and the pi guard checks every increment before any
    is added.  Only the sums run layer by layer, each cell's imaginary part
    its parent's plus the increment, bit for bit as cell by cell.  Phases are
    ``math.atan2``, which unlike ``cmath.phase`` never raises on underflow.
    """
    lab = label_components(v)
    roots = [CellSet(v.grid, lab.labels == k).min_cell() for k in range(lab.n)]
    if root_cell is not None and v.bits[root_cell[1], root_cell[0]]:
        roots[lab.labels[root_cell[1], root_cell[0]]] = root_cell
    seeds = CellSet.from_cells(v.grid, roots).bits
    del lab

    w = ext.values.ravel()
    # V's cells sorted by sample bits (np.unique would merge -1+0j and -1-0j)
    in_v = np.flatnonzero(v.bits)
    in_v = in_v[np.lexsort(w[in_v].view(np.int64).reshape(-1, 2).T)]
    key = w[in_v].view(np.int64).reshape(-1, 2)
    new = np.ones(in_v.size, dtype=bool)
    new[1:] = (key[1:, 0] != key[:-1, 0]) | (key[1:, 1] != key[:-1, 1])
    ids = np.zeros(w.size, dtype=np.int32)
    ids[in_v] = np.cumsum(new, dtype=np.int32) - 1
    distinct, many = w[in_v[new]].tolist(), (np.bincount(ids[in_v]) > 1).tolist()
    del in_v, key, new
    logs = np.array([math.log(abs(z)) for z in distinct])
    same = np.array([math.atan2(q.imag, q.real) if m else 0.0
                     for q, m in zip((z / z for z in distinct), many)])

    cells, parents, bounds = _bfs_tree(v.bits, seeds)
    r = len(roots)                          # the roots come first
    vals = np.zeros(w.size, dtype=np.complex128)
    at = ids[cells]
    vals.real[cells] = logs[at]
    # per tree cell: a root's principal phase, else its tree edge's increment
    theta = same[at]
    theta[:r] = [math.atan2(z.imag, z.real) for z in w[cells[:r]].tolist()]
    cross = r + np.flatnonzero(at[r:] != ids[parents[r:]])
    del at, ids
    quots = (a / b for a, b in zip(w[cells[cross]].tolist(),
                                   w[parents[cross]].tolist()))
    theta[cross] = [math.atan2(q.imag, q.real) for q in quots]
    if (np.abs(theta[r:]) >= math.pi * (1 - 1e-12)).any():
        raise ResolutionError(
            "phase jump of at least pi along a tree edge; "
            "retry with a smaller cell size")
    vals.imag[cells[:r]] = theta[:r]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        vals.imag[cells[lo:hi]] = vals.imag[parents[lo:hi]] + theta[lo:hi]
    return SampledFunction(v, vals.reshape(v.bits.shape))


def log_lift(F: CellSet, f: SampledFunction, region: RegionModel,
             eps_zero: float = 1e-6, tol: float = 1e-8, *,
             root_cell=None) -> LogLiftResult:
    """Lift a continuous logarithm of f on F through the neighborhood V.

    Requires a simply connected scene and |f| >= eps_zero > 0 on F.  The
    carrier is extended by nearest values, which copy carrier values, so the
    extension's modulus stays >= eps_zero and U is the whole region.  V comes
    from the neighborhood builder, and the logarithm is unwrapped over V.
    The returned g satisfies max |exp(g) - f| <= tol on F and all adjacent
    imaginary jumps on F stay below pi; violations raise instead of returning.
    """
    if not region.simply_connected:
        raise NotSimplyConnectedError(
            "logarithm lifting requires a region declared simply connected")
    if F.is_empty():
        raise PreconditionError("carrier is empty")
    if not F.same_cells(f.carrier):
        raise PreconditionError("sample carrier does not match F")
    grid = F.grid
    if root_cell is not None and not (0 <= root_cell[0] < grid.ncols
                                      and 0 <= root_cell[1] < grid.nrows):
        raise PreconditionError(f"root cell {root_cell} lies outside the grid")
    # eps_zero > 0 keeps every cell of V away from log(0); no residual meets a tol < 0
    if not (math.isfinite(eps_zero) and eps_zero > 0 and 0 <= tol < math.inf):
        raise PreconditionError(
            "eps_zero must be finite and positive, tol finite and non-negative")
    with np.errstate(over="ignore"):                     # abs() may overflow
        if not np.isfinite(np.abs(f.values[F.bits])).all():
            raise PreconditionError("|f| on the carrier must be finite")
    # guards are written so that a NaN fails them
    if not (f.min_abs() >= eps_zero):
        raise PreconditionError(
            f"|f| drops below eps_zero={eps_zero:g} on the carrier")

    ext = tietze_extend(f, region)
    nbhd = build_v(F, region.omega, region)
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
