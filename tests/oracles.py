"""Brute-force reference implementations the fast code is checked against.

Everything here is written the slow, obvious way on purpose: plain flood
fills, pairwise minima, linear scans.  None of it shares code with the
package beyond the data types, except where a docstring says so.
"""

import math
from collections import deque

import numpy as np

from arakgrid import Primitive, build_exhaustion, rasterize_closed
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


def run_head_order(labels: np.ndarray) -> bool:
    """Whether scipy-style labels (0 outside, 1 ... n inside) are numbered
    by their components' first cells in row-major order, read at the head
    of every run of equal labels in the flattened array: the twin of
    ``topology._first_seen_order``."""
    flat = labels.ravel()
    heads = np.append(flat[0], flat[1:][flat[1:] != flat[:-1]])
    return not (heads[0] > 1 or np.diff(np.maximum.accumulate(heads)).max(initial=0) > 1)


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


def naive_sphere_connected(g_bits: np.ndarray) -> bool:
    """Connectivity of the whole window minus G plus a point at infinity
    beside every window-border cell: each flood-filled component of the
    complement must touch the window border."""
    labels = flood_components(~g_bits, 4)
    border = np.zeros_like(g_bits)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    return set(labels[labels >= 0].tolist()) <= set(labels[border].tolist())


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


def center_abs_reference(g) -> np.ndarray:
    """|cell centre| of every cell, from ``np.hypot`` on the full mesh."""
    return np.hypot(*g.center_mesh())


def interior_reference(region, r: float) -> np.ndarray:
    """Region cells whose brute-force boundary distance is at least r: the
    minimum over every complement cell in the window (``sqrt(d2) * delta``
    per pair) and over every undeclared window edge (centre to edge, cell by
    cell); the twin of ``RegionModel.interior``."""
    g, omega = region.grid, region.omega.bits
    nrows, ncols = omega.shape
    jj, ii = np.indices(omega.shape)
    best = np.full(omega.shape, np.inf)
    for cj, ci in zip(*np.nonzero(~omega)):
        d2 = (jj - cj).astype(np.int64) ** 2 + (ii - ci).astype(np.int64) ** 2
        np.minimum(best, np.sqrt(d2.astype(np.float64)) * g.delta, out=best)
    for j in range(nrows):
        for i in range(ncols):
            x, y = g.cell_center(i, j)
            gaps = {"N": g.ymax - y, "S": y - g.ymin, "E": g.xmax - x, "W": x - g.xmin}
            for edge, gap in gaps.items():
                if edge not in region.declared_edges:
                    best[j, i] = min(best[j, i], gap)
    return omega & (best >= r)


def disk_cover_reference(F, U, region):
    """The disk cover the old way: every cell's radius from a full
    pairwise-minimum distance field (``brute_distances``), the next centre
    from a full row-major ``np.nonzero`` scan.  It shares the exhaustion and
    the disk raster with the package, so it checks the radius rule and the
    centre order.  F's cells are never covered.  Returns
    ``[(center, radius, annulus)]`` and the covered bits."""
    grid, omega = region.grid, region.omega.bits
    obstacles = omega & ~U.bits
    d_f = brute_distances(F.bits, grid.delta)
    radius = np.minimum(np.minimum(d_f / 2.0, region.boundary_distance()), 1.0)
    annuli, prev = [], np.zeros_like(omega)
    for K in build_exhaustion(region, 3).levels:
        annuli.append(K.bits & ~prev)
        prev = K.bits
    annuli.append(omega & ~prev)
    covered = np.zeros_like(omega)
    disks = []
    for a_idx, ann in enumerate(annuli, start=1):
        while True:
            js, iis = np.nonzero(obstacles & ann & ~covered)
            if len(js) == 0:
                break
            i, j = int(iis[0]), int(js[0])
            r = float(radius[j, i])
            disk = Primitive.disk(grid.cell_center(i, j), r)
            covered |= rasterize_closed([disk], grid).bits & omega & ~F.bits
            disks.append(((i, j), r, a_idx))
    return disks, covered


def naive_dilate(bits: np.ndarray, connectivity: int) -> np.ndarray:
    """Cell-by-cell dilation: a cell is set when it or one of its 4- (8-)
    neighbours inside the array is set; the twin of ``topology.dilate`` at
    t = 2 (t = 3)."""
    nrows, ncols = bits.shape
    steps = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    if connectivity == 8:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    out = np.zeros_like(bits)
    for j in range(nrows):
        for i in range(ncols):
            out[j, i] = any(0 <= i + di < ncols and 0 <= j + dj < nrows and
                            bits[j + dj, i + di] for di, dj in steps)
    return out


def offset_disk_reference(bits: np.ndarray, t: int) -> np.ndarray:
    """``bits`` ORed over every offset (a, b) with a*a + b*b < t, one whole
    shifted copy per offset, cells shifted off the array dropped; the twin
    of ``topology.dilate``."""
    nrows, ncols = bits.shape
    out = np.zeros_like(bits)
    for a in range(1 - nrows, nrows):
        for b in range(1 - ncols, ncols):
            if a * a + b * b < t:
                out[max(a, 0):nrows + min(a, 0), max(b, 0):ncols + min(b, 0)] |= \
                    bits[max(-a, 0):nrows + min(-a, 0), max(-b, 0):ncols + min(-b, 0)]
    return out


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


def carrier_loop_extension(carrier: np.ndarray, values: np.ndarray,
                           omega: np.ndarray) -> np.ndarray:
    """Nearest-carrier extension masked to ``omega``, one full-grid pass per
    carrier cell in (i, j) order, where a strict ``<`` keeps the
    lexicographically smallest of equidistant carrier cells; the
    per-carrier-loop twin of ``loglift.tietze_extend``."""
    jj, ii = np.indices(carrier.shape)

    js, iis = np.nonzero(carrier)
    order = np.lexsort((js, iis))          # (i, j) ascending
    best_d2 = np.full(carrier.shape, np.iinfo(np.int64).max, dtype=np.int64)
    out = np.zeros(carrier.shape, dtype=np.complex128)
    for k in order:
        ci, cj = int(iis[k]), int(js[k])
        d2 = (ii - ci).astype(np.int64) ** 2 + (jj - cj).astype(np.int64) ** 2
        better = d2 < best_d2              # strict: first (lex-least) wins ties
        best_d2[better] = d2[better]
        out[better] = values[cj, ci]
    return np.where(omega, out, 0)


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


def _slab_reference(lo: float, hi: float, o: float, d: float):
    """Parameter interval of ``lo <= o + t*d <= hi``; a direction below
    1e-300 counts as 0."""
    if abs(d) < 1e-300:
        return (-math.inf, math.inf) if lo <= o <= hi else (math.inf, -math.inf)
    a, b = (lo - o) / d, (hi - o) / d
    return min(a, b), max(a, b)


def _floor_clip_reference(t: float, lo: int, hi: int) -> int:
    return int(math.floor(min(float(hi), max(float(lo), t))))


def segment_raster_reference(grid, primitives) -> np.ndarray:
    """Raster of segments, polylines and rays in Python floats, one cell at a
    time: each cell of a segment's slack-grown bounding box is drawn when
    ``max(txmin, tymin, 0) <= min(txmax, tymax, 1)`` over its slack-grown
    box's x and y slabs.  A ray is first clipped to the window by the same
    slab test with t >= 0 and no upper limit."""
    eps, d = 1e-9, grid.delta
    pieces = []
    for p in primitives:
        if p.kind == "segment":
            pieces.append(p.pts)
        elif p.kind == "polyline":
            pieces.extend(zip(p.pts[:-1], p.pts[1:]))
        elif p.kind == "ray":
            (ox, oy), (dx, dy) = p.pts
            scale = max(abs(dx), abs(dy))
            dx, dy = dx / scale, dy / scale
            txmin, txmax = _slab_reference(grid.xmin, grid.xmax, ox, dx)
            tymin, tymax = _slab_reference(grid.ymin, grid.ymax, oy, dy)
            te, tl = max(txmin, tymin, 0.0), min(txmax, tymax)
            if not (tl < te - 1e-15 or not math.isfinite(tl)):
                pieces.append(((ox + te * dx, oy + te * dy), (ox + tl * dx, oy + tl * dy)))
        else:
            raise ValueError(f"no reference raster for {p.kind!r}")
    bits = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    for (x1, y1), (x2, y2) in pieces:
        i0 = _floor_clip_reference((min(x1, x2) - eps - grid.xmin) / d, 0, grid.ncols)
        i1 = _floor_clip_reference((max(x1, x2) + eps - grid.xmin) / d, -1, grid.ncols - 1) + 1
        j0 = _floor_clip_reference((min(y1, y2) - eps - grid.ymin) / d, 0, grid.nrows)
        j1 = _floor_clip_reference((max(y1, y2) + eps - grid.ymin) / d, -1, grid.nrows - 1) + 1
        for j in range(j0, j1):
            for i in range(i0, i1):
                bx0, by0 = grid.xmin + i * d, grid.ymin + j * d
                txmin, txmax = _slab_reference(bx0 - eps, bx0 + d + eps, x1, x2 - x1)
                tymin, tymax = _slab_reference(by0 - eps, by0 + d + eps, y1, y2 - y1)
                if max(txmin, tymin, 0.0) <= min(txmax, tymax, 1.0):
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


def bfs_tree_reference(domain: np.ndarray, seeds: np.ndarray):
    """Cell-by-cell deque BFS from every seed in the domain at once; the twin
    of ``loglift._bfs_tree``.  The seeds are queued in row-major order with
    parent -1; each popped cell pushes its unvisited domain neighbours east,
    north, west, south.  Returns the flat cell indices in queue order, their
    parents and the layer bounds, all as lists."""
    nrows, ncols = domain.shape
    depth = np.full(domain.shape, -1)
    order, parents = [], []
    queue = deque()
    for j in range(nrows):
        for i in range(ncols):
            if seeds[j, i] and domain[j, i]:
                depth[j, i] = 0
                order.append(j * ncols + i)
                parents.append(-1)
                queue.append((i, j))
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < ncols and 0 <= nj < nrows and domain[nj, ni] \
                    and depth[nj, ni] < 0:
                depth[nj, ni] = depth[j, i] + 1
                order.append(nj * ncols + ni)
                parents.append(j * ncols + i)
                queue.append((ni, nj))
    depths = [depth.flat[c] for c in order]
    bounds = [k for k in range(1, len(order)) if depths[k] != depths[k - 1]]
    return order, parents, [0, *bounds, len(order)] if order else [0]


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
        vals[rj, ri] = complex(math.log(abs(w0)), math.atan2(w0.imag, w0.real))
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
                q = wn / wi
                dtheta = math.atan2(q.imag, q.real)
                if abs(dtheta) >= math.pi * (1 - 1e-12):
                    raise ResolutionError(
                        "phase jump of at least pi along a tree edge; "
                        "retry with a smaller cell size")
                vals[nj, ni] = complex(math.log(abs(wn)), gi.imag + dtheta)
                visited[nj, ni] = True
                queue.append((ni, nj))
        remaining &= ~visited
    return vals


def row_runs(bits: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal runs of set cells, one grid row at a time: (j, i0, i1_exclusive)
    in row-major order; the twin of ``render._runs``."""
    runs = []
    for j in range(bits.shape[0]):
        row = bits[j]
        if not row.any():
            continue
        idx = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))))
        runs += [(j, int(i0), int(i1)) for i0, i1 in zip(idx[::2], idx[1::2])]
    return runs


def svg_rects(bits: np.ndarray, fill: str, opacity=None) -> list[str]:
    """One ``<rect>`` per ``row_runs`` run, every number formatted on its own."""
    op = f' fill-opacity="{opacity}"' if opacity is not None else ""
    return [f'<rect x="{i0:.4f}" y="{bits.shape[0] - 1 - j:.4f}" '
            f'width="{i1 - i0:.4f}" height="1.0000" fill="{fill}"{op}/>'
            for j, i0, i1 in row_runs(bits)]


def svg_disks(nrows: int, delta: float, disks, rgb: str) -> list[str]:
    """An outline and a dot per ``((i, j), radius)`` disk."""
    out = []
    for (ci, cj), r in disks:
        x, y = ci + 0.5, nrows - 1 - cj + 0.5
        out.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="{r / delta:.4f}" '
                   f'fill="none" stroke="{rgb}" stroke-width="0.3"/>')
        out.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="0.25" fill="{rgb}"/>')
    return out


def svg_polylines(nrows: int, paths, rgb: str) -> list[str]:
    """A polyline through the centers of each path's cells."""
    return [f'<polyline points="'
            + " ".join(f"{i + 0.5:.4f},{nrows - 1 - j + 0.5:.4f}" for i, j in path)
            + f'" fill="none" stroke="{rgb}" stroke-width="0.4"/>' for path in paths]


def ppm_pixels(shape, layers, colors: dict) -> np.ndarray:
    """The unscaled PPM raster, painted one cell at a time in layer order,
    row 0 at the top (the plane's top row of cells)."""
    nrows, ncols = shape
    img = np.full((nrows, ncols, 3), 255, dtype=np.uint8)
    for name, payload in layers:
        if name in ("disks", "curves"):
            cells = ([c for c, _r in payload] if name == "disks"
                     else [c for path in payload for c in path])
        else:
            cells = [(i, j) for j in range(nrows) for i in range(ncols)
                     if payload[j, i]]
        for i, j in cells:
            img[nrows - 1 - j, i] = colors[name]
    return img
