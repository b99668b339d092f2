"""Deterministic SVG and PPM rendering of scenes and computed artifacts.

Layers are drawn strictly in the order requested, so repeated renders are
byte-identical.  An SVG cell layer is one ``<rect>`` per row-major run of cells
from one whole-array scan; PPM layers are painted by fancy indexing.  SVG is
meant for human inspection, PPM for pixel-exact comparisons.
"""

import numpy as np

from .errors import InputError
from .grid import GridSpec

LAYER_NAMES = ("F", "U", "V", "holes", "disks", "curves")

# layer -> fill RGB (also used by the PPM raster)
_COLORS = {"omega": (232, 232, 240), "F": (34, 34, 34), "U": (208, 228, 208),
           "V": (150, 190, 235), "holes": (220, 120, 120), "disks": (240, 170, 60),
           "curves": (200, 40, 40)}
_RGB = {name: "rgb(%d,%d,%d)" % rgb for name, rgb in _COLORS.items()}
# PPM palette: white background, then the layer colours
_PALETTE = np.array([(255, 255, 255), *_COLORS.values()], dtype=np.uint8)
_PALETTE_INDEX = {name: k for k, name in enumerate(_COLORS, start=1)}
# cell layer -> fill attributes of its SVG rects
_FILLS = {"omega": f'fill="{_RGB["omega"]}"', "F": f'fill="{_RGB["F"]}"',
          "U": f'fill="{_RGB["U"]}" fill-opacity="0.6"',
          "V": f'fill="{_RGB["V"]}" fill-opacity="0.5"', "holes": 'fill="url(#hatch)"'}


class _Fixed4(dict):
    """Coordinate -> ``f"{v:.4f}"``, formatted once per distinct value."""

    def __missing__(self, v):
        s = self[v] = f"{v:.4f}"
        return s


def _runs(bits: np.ndarray):
    """Maximal runs of set cells as index arrays ``(j, i0, i1_exclusive)``.

    Padded with a clear cell at both ends, each row changes alternately at a
    run's start and end; one ``flatnonzero`` lists all in row-major order."""
    nrows, ncols = bits.shape
    pad = np.zeros((nrows, ncols + 2), dtype=bool)
    pad[:, 1:-1] = bits
    j, i = np.divmod(np.flatnonzero(pad[:, 1:] != pad[:, :-1]), ncols + 1)
    return j[::2], i[::2], i[1::2]


def _cells_svg(fmt: _Fixed4, bits: np.ndarray, fills: str) -> list[str]:
    """One unit-height ``<rect>`` per run of cells; svg y grows downward."""
    j, i0, i1 = _runs(bits)
    cols = zip(i0.tolist(), (len(bits) - 1 - j).tolist(), (i1 - i0).tolist())
    return [f'<rect x="{fmt[x]}" y="{fmt[y]}" width="{fmt[w]}" height="1.0000" '
            f'{fills}/>' for x, y, w in cols]


def _mark_cells(grid: GridSpec, name: str, payload) -> np.ndarray:
    """A layer's disk centres or curve cells as (i, j) rows, all on the grid."""
    ij = np.array([c for c, _r in payload] if name == "disks" else
                  [c for path in payload for c in path], dtype=np.int64).reshape(-1, 2)
    off = ((ij < 0) | (ij >= (grid.ncols, grid.nrows))).any(axis=1)
    if off.any():
        raise InputError(f"{name} cell {tuple(ij[off][0].tolist())} is off the grid")
    return ij


def render_svg(grid: GridSpec, region_bits: np.ndarray, layers: list[tuple]) -> bytes:
    """layers: list of (name, payload); payload depends on the layer kind."""
    w, h, fmt = grid.ncols, grid.nrows, _Fixed4()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{4 * w}" height="{4 * h}">',
        '<defs><pattern id="hatch" width="1" height="1" patternUnits="userSpaceOnUse">'
        f'<rect width="1" height="1" fill="{_RGB["holes"]}" fill-opacity="0.35"/>'
        f'<path d="M0,1 L1,0" stroke="{_RGB["holes"]}" stroke-width="0.18"/>'
        '</pattern></defs>',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        *_cells_svg(fmt, region_bits, _FILLS["omega"])]
    for name, payload in layers:
        if name in ("F", "U", "V", "holes"):
            parts.extend(_cells_svg(fmt, payload, _FILLS[name]))
        elif name == "disks":
            _mark_cells(grid, name, payload)
            for (ci, cj), r in payload:
                x, y = fmt[ci + 0.5], fmt[h - 1 - cj + 0.5]
                parts += [f'<circle cx="{x}" cy="{y}" r="{r / grid.delta:.4f}" '
                          f'fill="none" stroke="{_RGB["disks"]}" stroke-width="0.3"/>',
                          f'<circle cx="{x}" cy="{y}" r="0.25" fill="{_RGB["disks"]}"/>']
        elif name == "curves":
            _mark_cells(grid, name, payload)
            for path in payload:
                pts = " ".join(f"{fmt[i + 0.5]},{fmt[h - 1 - j + 0.5]}" for i, j in path)
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="{_RGB["curves"]}" stroke-width="0.4"/>')
        else:
            raise InputError(f"unknown render layer {name!r}")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_ppm(grid: GridSpec, region_bits: np.ndarray, layers: list[tuple]) -> bytes:
    """Flat binary raster; the last layer painted on a cell wins.  Cells are
    painted as palette indices and take their colours in one gather."""
    idx = np.zeros((grid.nrows, grid.ncols), dtype=np.uint8)
    idx[region_bits] = _PALETTE_INDEX["omega"]
    for name, payload in layers:
        if name in ("F", "U", "V", "holes"):
            idx[payload] = _PALETTE_INDEX[name]
        elif name in ("disks", "curves"):
            i, j = _mark_cells(grid, name, payload).T
            idx[j, i] = _PALETTE_INDEX[name]
        else:
            raise InputError(f"unknown render layer {name!r}")
    img = _PALETTE[idx[::-1]]           # y grows upward in the plane
    scale = max(1, 256 // max(grid.ncols, grid.nrows))
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()
