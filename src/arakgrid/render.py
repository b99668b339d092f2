"""Deterministic SVG and PPM rendering of scenes and computed artifacts.

Layers are drawn strictly in the order requested; cell layers are emitted as
row-major runs so repeated renders are byte-identical.  SVG is meant for
human inspection, PPM for pixel-exact comparisons.
"""

import numpy as np

from .errors import InputError
from .grid import GridSpec

LAYER_NAMES = ("F", "U", "V", "holes", "disks", "curves")

# layer -> fill RGB (also used by the PPM raster)
_COLORS = {
    "omega": (232, 232, 240),
    "F": (34, 34, 34),
    "U": (208, 228, 208),
    "V": (150, 190, 235),
    "holes": (220, 120, 120),
    "disks": (240, 170, 60),
    "curves": (200, 40, 40),
}


def _runs(bits: np.ndarray):
    """Row-major maximal runs of set cells: (j, i0, i1_exclusive)."""
    nrows, ncols = bits.shape
    for j in range(nrows):
        row = bits[j]
        if not row.any():
            continue
        idx = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))))
        for i0, i1 in zip(idx[::2], idx[1::2]):
            yield j, int(i0), int(i1)


def _cells_svg(grid: GridSpec, bits: np.ndarray, fill: str, opacity=None) -> list[str]:
    """One unit-height ``<rect>`` per run of cells; svg y grows downward."""
    op = f' fill-opacity="{opacity}"' if opacity is not None else ""
    return [f'<rect x="{i0:.4f}" y="{grid.nrows - 1 - j:.4f}" width="{i1 - i0:.4f}" '
            f'height="1.0000" fill="{fill}"{op}/>' for j, i0, i1 in _runs(bits)]


def _rgb(name):
    r, g, b = _COLORS[name]
    return f"rgb({r},{g},{b})"


def render_svg(grid: GridSpec, region_bits: np.ndarray, layers: list[tuple]) -> bytes:
    """layers: list of (name, payload); payload depends on the layer kind."""
    w, h = grid.ncols, grid.nrows
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{4 * w}" height="{4 * h}">',
        '<defs><pattern id="hatch" width="1" height="1" patternUnits="userSpaceOnUse">'
        f'<rect width="1" height="1" fill="{_rgb("holes")}" fill-opacity="0.35"/>'
        f'<path d="M0,1 L1,0" stroke="{_rgb("holes")}" stroke-width="0.18"/>'
        '</pattern></defs>',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    parts.extend(_cells_svg(grid, region_bits, _rgb("omega")))
    for name, payload in layers:
        if name in ("F", "U", "V"):
            op = 0.5 if name == "V" else (0.6 if name == "U" else None)
            parts.extend(_cells_svg(grid, payload, _rgb(name), op))
        elif name == "holes":
            parts.extend(_cells_svg(grid, payload, "url(#hatch)"))
        elif name == "disks":
            for (ci, cj), r in payload:
                x, y = ci + 0.5, grid.nrows - 1 - cj + 0.5
                rr = r / grid.delta
                parts.append(
                    f'<circle cx="{x:.4f}" cy="{y:.4f}" r="{rr:.4f}" fill="none" '
                    f'stroke="{_rgb("disks")}" stroke-width="0.3"/>')
                parts.append(
                    f'<circle cx="{x:.4f}" cy="{y:.4f}" r="0.25" fill="{_rgb("disks")}"/>')
        elif name == "curves":
            for path in payload:
                pts = " ".join(f"{i + 0.5:.4f},{grid.nrows - 1 - j + 0.5:.4f}"
                               for i, j in path)
                parts.append(
                    f'<polyline points="{pts}" fill="none" '
                    f'stroke="{_rgb("curves")}" stroke-width="0.4"/>')
        else:
            raise InputError(f"unknown render layer {name!r}")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_ppm(grid: GridSpec, region_bits: np.ndarray, layers: list[tuple]) -> bytes:
    """Flat binary raster; the last layer painted on a cell wins."""
    img = np.full((grid.nrows, grid.ncols, 3), 255, dtype=np.uint8)
    img[region_bits] = _COLORS["omega"]
    for name, payload in layers:
        if name in ("F", "U", "V", "holes"):
            img[payload] = _COLORS[name]
        elif name == "disks":
            for (ci, cj), _r in payload:
                img[cj, ci] = _COLORS["disks"]
        elif name == "curves":
            for path in payload:
                for i, j in path:
                    img[j, i] = _COLORS["curves"]
        else:
            raise InputError(f"unknown render layer {name!r}")
    img = img[::-1]                     # y grows upward in the plane
    scale = max(1, 256 // max(grid.ncols, grid.nrows))
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()
