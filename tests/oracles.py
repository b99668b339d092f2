"""Brute-force reference implementations the fast code is checked against.

Everything here is written the slow, obvious way on purpose: plain flood
fills, pairwise minima, linear scans.  None of it shares code with the
package beyond the data types.
"""

import cmath
import math
from collections import deque

import numpy as np

from arakgrid.errors import ResolutionError


def flood_components(bits: np.ndarray, connectivity: int) -> np.ndarray:
    """Depth-first flood-fill labeling; -1 outside, labels by row-major
    first-seen order."""
    nrows, ncols = bits.shape
    if connectivity == 4:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    else:
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1),
                 (1, 1), (1, -1), (-1, 1), (-1, -1))
    labels = np.full(bits.shape, -1, dtype=np.int32)
    nxt = 0
    for j in range(nrows):
        for i in range(ncols):
            if not bits[j, i] or labels[j, i] >= 0:
                continue
            stack = [(i, j)]
            labels[j, i] = nxt
            while stack:
                ci, cj = stack.pop()
                for di, dj in steps:
                    ni, nj = ci + di, cj + dj
                    if 0 <= ni < ncols and 0 <= nj < nrows and \
                            bits[nj, ni] and labels[nj, ni] < 0:
                        labels[nj, ni] = nxt
                        stack.append((ni, nj))
            nxt += 1
    return labels


def naive_reach(labels: np.ndarray, n: int, omega: np.ndarray,
                alpha_border: np.ndarray) -> list[str]:
    """Per-component alpha classification by direct scanning."""
    nrows, ncols = labels.shape
    border = np.zeros_like(omega)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    status = ["ENCLOSED"] * n
    for j in range(nrows):
        for i in range(ncols):
            lbl = labels[j, i]
            if lbl < 0:
                continue
            touches_alpha = bool(border[j, i] and alpha_border[j, i])
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < ncols and 0 <= nj < nrows and not omega[nj, ni]:
                    touches_alpha = True
            if touches_alpha:
                status[lbl] = "REACHES_ALPHA"
            elif border[j, i] and status[lbl] != "REACHES_ALPHA":
                status[lbl] = "WINDOW_AMBIGUOUS"
    return status


def naive_holes(omega: np.ndarray, f_bits: np.ndarray,
                alpha_border: np.ndarray) -> np.ndarray:
    """Union mask of conclusively trapped components of omega minus F."""
    domain = omega & ~f_bits
    labels = flood_components(domain, 4)
    n = int(labels.max()) + 1
    status = naive_reach(labels, n, omega, alpha_border)
    out = np.zeros_like(domain)
    for lbl, st in enumerate(status):
        if st == "ENCLOSED":
            out |= labels == lbl
    return out


def naive_alpha_neighborhood(omega: np.ndarray, f_bits: np.ndarray,
                             k_bits: np.ndarray, alpha_border: np.ndarray):
    """The alpha neighborhood by three labelings: the holes of F | K, the
    holes of F, and the compactified complement of F | K | holes.

    Returns ``(w, connected, carrier_hole_count)``.
    """
    def statuses(blocked):
        labels = flood_components(omega & ~blocked, 4)
        return naive_reach(labels, int(labels.max()) + 1, omega, alpha_border)

    fk_holes = naive_holes(omega, f_bits | k_bits, alpha_border)
    w = omega & ~(k_bits | fk_holes)
    f_count = statuses(f_bits).count("ENCLOSED")
    rest = statuses(f_bits | k_bits | fk_holes)
    connected = f_count == 0 and all(st == "REACHES_ALPHA" for st in rest)
    return w, connected, f_count


def brute_distances(source: np.ndarray, delta: float) -> np.ndarray:
    """Pairwise-minimum center distances to the source cells."""
    nrows, ncols = source.shape
    js, iis = np.nonzero(source)
    if len(js) == 0:
        return np.full(source.shape, np.inf)
    jj, ii = np.indices(source.shape)
    best = np.full(source.shape, np.iinfo(np.int64).max, dtype=np.int64)
    for cj, ci in zip(js, iis):
        d2 = (jj - cj).astype(np.int64) ** 2 + (ii - ci).astype(np.int64) ** 2
        np.minimum(best, d2, out=best)
    return np.sqrt(best.astype(np.float64)) * delta


def nearest_carrier_values(carrier: np.ndarray, values: np.ndarray):
    """Nearest-carrier extension with lexicographic (i, j) tie-breaking,
    computed cell by cell."""
    nrows, ncols = carrier.shape
    cs = sorted((i, j) for j, i in zip(*np.nonzero(carrier)))
    out = np.zeros(carrier.shape, dtype=np.complex128)
    for j in range(nrows):
        for i in range(ncols):
            best = None
            pick = None
            for ci, cj in cs:
                d2 = (ci - i) ** 2 + (cj - j) ** 2
                if best is None or d2 < best:
                    best = d2
                    pick = (ci, cj)
            out[j, i] = values[pick[1], pick[0]]
    return out


def circle_raster_oracle(grid, cx: float, cy: float, r: float,
                         nsamples: int = 10_000) -> np.ndarray:
    """Independent circle raster: dense arc samples mark containing cells,
    then a squared-distance near/far interval test per candidate cell."""
    eps = 1e-9
    bits = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for k in range(nsamples):
        t = 2 * math.pi * k / nsamples
        px, py = cx + r * math.cos(t), cy + r * math.sin(t)
        if not (grid.xmin - eps <= px <= grid.xmax + eps and
                grid.ymin - eps <= py <= grid.ymax + eps):
            continue
        i, j = grid.point_cell(px, py)
        # the point may touch up to four cells when on a boundary
        for ii in (i - 1, i, i + 1):
            for jj in (j - 1, j, j + 1):
                if not (0 <= ii < grid.ncols and 0 <= jj < grid.nrows):
                    continue
                x0, y0, x1, y1 = grid.cell_box(ii, jj)
                if x0 - eps <= px <= x1 + eps and y0 - eps <= py <= y1 + eps:
                    bits[jj, ii] = True
    # squared-interval check over the circle's bounding box
    for j in range(grid.nrows):
        for i in range(grid.ncols):
            x0, y0, x1, y1 = grid.cell_box(i, j)
            if x1 < cx - r - eps or x0 > cx + r + eps or \
                    y1 < cy - r - eps or y0 > cy + r + eps:
                continue
            ndx = max(x0 - cx, cx - x1, 0.0)
            ndy = max(y0 - cy, cy - y1, 0.0)
            fdx = max(cx - x0, x1 - cx)
            fdy = max(cy - y0, y1 - cy)
            near2 = ndx * ndx + ndy * ndy
            far2 = fdx * fdx + fdy * fdy
            if near2 <= (r + eps) ** 2 and far2 >= (r - eps) ** 2:
                bits[j, i] = True
    return bits


def bfs_distances(domain: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Queue-based multi-source 4-connected BFS distances to the target
    cells inside the domain; -1 where no path exists."""
    nrows, ncols = domain.shape
    dist = np.full(domain.shape, -1, dtype=np.int32)
    queue = deque()
    for j in range(nrows):
        for i in range(ncols):
            if domain[j, i] and targets[j, i]:
                dist[j, i] = 0
                queue.append((i, j))
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < ncols and 0 <= nj < nrows and \
                    domain[nj, ni] and dist[nj, ni] < 0:
                dist[nj, ni] = dist[j, i] + 1
                queue.append((ni, nj))
    return dist


def bfs_path_ok(path, f_bits, alpha_adjacent) -> bool:
    """Validity of an escape path: 4-connected steps, clear of the carrier,
    ending alpha-adjacent."""
    if not path:
        return False
    for (i1, j1), (i2, j2) in zip(path[:-1], path[1:]):
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            return False
    for i, j in path:
        if f_bits[j, i]:
            return False
    li, lj = path[-1]
    return bool(alpha_adjacent[lj, li])


def bfs_unwrap(v_bits: np.ndarray, ext_values: np.ndarray,
               root_cell=None) -> np.ndarray:
    """Cell-by-cell deque BFS phase unwrap of log(ext) over V's 4-connected
    graph; the twin of ``loglift._unwrap_on``.

    Component by component, the root (the given one for its component, else
    the lexicographically smallest remaining (i, j)) takes the principal
    branch and every tree edge adds the principal argument increment, pushing
    neighbours east, north, west, south.  Raises ``ResolutionError`` on an
    increment of at least pi.
    """
    vals = np.zeros(v_bits.shape, dtype=np.complex128)
    visited = np.zeros(v_bits.shape, dtype=bool)
    nrows, ncols = v_bits.shape

    remaining = v_bits.copy()
    while remaining.any():
        if root_cell is not None and remaining[root_cell[1], root_cell[0]]:
            ri, rj = root_cell
        else:
            ri, rj = min((i, j) for j, i in zip(*np.nonzero(remaining)))
        w0 = complex(ext_values[rj, ri])
        vals[rj, ri] = complex(math.log(abs(w0)), cmath.phase(w0))
        visited[rj, ri] = True
        queue = deque([(ri, rj)])
        while queue:
            i, j = queue.popleft()
            wi = complex(ext_values[j, i])
            gi = vals[j, i]
            for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < ncols and 0 <= nj < nrows):
                    continue
                if not v_bits[nj, ni] or visited[nj, ni]:
                    continue
                wn = complex(ext_values[nj, ni])
                dtheta = cmath.phase(wn / wi)
                if abs(dtheta) >= math.pi * (1 - 1e-12):
                    raise ResolutionError(
                        "phase jump of at least pi along a tree edge; "
                        "retry with a smaller cell size")
                vals[nj, ni] = complex(math.log(abs(wn)), gi.imag + dtheta)
                visited[nj, ni] = True
                queue.append((ni, nj))
        remaining &= ~visited
    return vals
