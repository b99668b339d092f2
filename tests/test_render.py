"""Renderer: whole-array runs against the row-by-row twin, renders byte for
byte against references formatted one number and painted one cell at a time,
and the API's edge cases."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arakgrid import InputError, make_grid
from arakgrid.render import _COLORS, LAYER_NAMES, _runs, render_ppm, render_svg

from oracles import ppm_pixels, row_runs, svg_disks, svg_polylines, svg_rects


def _rgb(name):
    r, g, b = _COLORS[name]
    return f"rgb({r},{g},{b})"


# cell layer -> (fill, fill-opacity) of its rects
_FILL = {"F": (_rgb("F"), None), "U": (_rgb("U"), 0.6), "V": (_rgb("V"), 0.5),
         "holes": ("url(#hatch)", None)}


def _grid(nrows, ncols):
    return make_grid(0, 0, 0.25 * ncols, 0.25 * nrows, 0.25)


@st.composite
def masks(draw, shape=None):
    """Boolean layers of sides 1-40, with some rows forced all set or clear."""
    if shape is None:
        shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    bits = draw(arrays(np.bool_, shape))
    rows = st.lists(st.integers(0, shape[0] - 1), max_size=3)
    bits[draw(rows)] = True
    bits[draw(rows)] = False
    return bits


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(masks())
    @example(np.ones((1, 40), dtype=bool))
    @example(np.zeros((1, 40), dtype=bool))
    @example(np.ones((40, 1), dtype=bool))
    @example(np.array([[True], [False], [True]]))
    @example(np.array([[True, False, True, True, False]]))
    def test_runs_equal_row_by_row_runs(self, bits):
        got = list(zip(*(a.tolist() for a in _runs(bits))))
        assert got == row_runs(bits)


class TestRenderBytes:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_svg_and_ppm_match_references(self, data):
        shape = (data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24)))
        grid = _grid(*shape)
        cell = st.tuples(st.integers(0, shape[1] - 1), st.integers(0, shape[0] - 1))
        region = data.draw(masks(shape))
        layers = []
        for name in data.draw(st.lists(st.sampled_from(LAYER_NAMES), max_size=7)):
            if name in _FILL:
                payload = data.draw(masks(shape))
            elif name == "disks":       # centers repeat
                centers = data.draw(st.lists(cell, min_size=1, max_size=4))
                payload = data.draw(st.lists(st.tuples(
                    st.sampled_from(centers), st.floats(0.01, 3.0)), max_size=6))
            else:                       # cells repeat within and across paths
                payload = data.draw(st.lists(st.lists(cell, max_size=12), max_size=4))
                payload += [path[-1:] for path in payload[:1]]
            layers.append((name, payload))

        blank = render_svg(grid, np.zeros(shape, dtype=bool), []).decode()
        header = blank.splitlines()[:-1]
        body = svg_rects(region, _rgb("omega"))
        for name, payload in layers:
            if name in _FILL:
                body += svg_rects(payload, *_FILL[name])
            elif name == "disks":
                body += svg_disks(shape[0], grid.delta, payload, _rgb("disks"))
            else:
                body += svg_polylines(shape[0], payload, _rgb("curves"))
        want = "\n".join(header + body + ["</svg>"]) + "\n"
        assert render_svg(grid, region, layers) == want.encode()

        s = max(1, 256 // max(shape))
        rows, cols = np.arange(shape[0] * s) // s, np.arange(shape[1] * s) // s
        header = f"P6\n{shape[1] * s} {shape[0] * s}\n255\n".encode()
        # once more without cell layers, which could paint over disks and curves
        for layers in (layers, [lay for lay in layers if lay[0] not in _FILL]):
            pixels = ppm_pixels(shape, [("omega", region), *layers], _COLORS)
            want = header + pixels[rows][:, cols].tobytes()
            assert render_ppm(grid, region, layers) == want


@pytest.mark.parametrize("render", [render_svg, render_ppm])
class TestRenderEdges:
    @pytest.mark.parametrize("full_region", [False, True])
    def test_all_empty_cell_layer(self, render, full_region):
        grid = _grid(5, 7)
        region = np.full((5, 7), full_region)
        empty = np.zeros((5, 7), dtype=bool)
        out = render(grid, region, [(name, empty) for name in _FILL])
        assert out == render(grid, region, [])
        if render is render_svg:                # one cell <rect> per region row
            assert out.count(b'height="1.0000"') == (5 if full_region else 0)

    def test_unknown_layer_name(self, render):
        grid = _grid(3, 3)
        with pytest.raises(InputError, match="unknown render layer 'K'"):
            render(grid, np.ones((3, 3), dtype=bool), [("K", np.ones((3, 3), bool))])

    @pytest.mark.parametrize("name", ["disks", "curves"])
    def test_empty_disks_or_curves_payload(self, render, name):
        grid = _grid(4, 6)
        region = np.ones((4, 6), dtype=bool)
        f = np.eye(4, 6, dtype=bool)
        assert (render(grid, region, [("F", f), (name, [])])
                == render(grid, region, [("F", f)]))

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (6, 0), (0, 4)])
    @pytest.mark.parametrize("name", ["disks", "curves"])
    def test_mark_off_the_grid_rejected(self, render, name, cell):
        # ncols 6, nrows 4: (-1, 0) painted (5, 0) and (6, 0) raised IndexError
        grid = _grid(4, 6)
        payload = ([((1, 1), 0.5), (cell, 0.5)] if name == "disks"
                   else [[(1, 1), (1, 2)], [(0, 0), cell]])
        with pytest.raises(InputError,
                           match=rf"{name} cell \({cell[0]}, {cell[1]}\) is off the grid"):
            render(grid, np.ones((4, 6), dtype=bool), [(name, payload)])
