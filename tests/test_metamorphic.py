"""Metamorphic and paper-level relations of the Arakelian check at the cell
level, on plane windows: relations that any correct implementation must
satisfy whatever the carrier (Chen, Cheung & Yiu, *Metamorphic testing*,
HKUST-CS98-01, 1998).

The windows are centred on a cell corner at the origin, with a dyadic cell
size, so every dihedral map of the cells is an exact isometry of the cell
centres and |cell centre| is the same number before and after the map.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, Primitive, build_v, check_arakelian, holes,
                      make_grid, plane_region, rasterize_closed)
from arakgrid.arakelian import REFUTED, VERIFIED_UP_TO

from oracles import naive_dilate

N, DELTA = 24, 1 / 8                # an even side: the origin is a cell corner

# dihedral maps of a cell array; each is its own kind of map of the cells
_MAPS = {"fliplr": np.fliplr, "flipud": np.flipud, "transpose": np.transpose,
         "rot90": np.rot90}
_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]


def _window(di=0, dj=0):
    """The N x N window centred on the origin, shifted by (di, dj) cells."""
    h = N // 2
    return make_grid((di - h) * DELTA, (dj - h) * DELTA,
                     (di + h) * DELTA, (dj + h) * DELTA, DELTA)


@st.composite
def _strokes(draw):
    """One to three 8-connected lattice walks, clipped to the window: arcs,
    crossings and, now and then, a closed loop."""
    bits = np.zeros((N, N), dtype=bool)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        bits[j, i] = True
        for di, dj in draw(st.lists(st.sampled_from(_STEPS), max_size=40)):
            i, j = min(max(i + di, 0), N - 1), min(max(j + dj, 0), N - 1)
            bits[j, i] = True
    return bits


def _cells_off(data, bits, most):
    """Up to ``most`` cells that are not in ``bits``, as bits."""
    out = np.zeros_like(bits)
    free = [tuple(c) for c in np.argwhere(~bits)]
    for j, i in data.draw(st.lists(st.sampled_from(free), max_size=most)):
        out[j, i] = True
    return out


def _check(bits, g):
    return check_arakelian(CellSet(g, np.ascontiguousarray(bits)), plane_region(g), 3)


def _table(verdict):
    """The verdict without its witness positions: status, witness count,
    extents table, growth, alpha neighborhood and reason."""
    rep = verdict.to_json_dict()
    return rep["status"], verdict.level, len(rep["witnesses"]), rep["extents"]


def _witness_cells(verdict, g):
    return [g.point_cell(*p) for p in verdict.witnesses or []]


def _map_cell(T, cell):
    i, j = cell
    one = np.zeros((N, N), dtype=bool)
    one[j, i] = True
    (j2, i2), = np.argwhere(T(one))
    return int(i2), int(j2)


class TestDihedralMaps:
    @settings(max_examples=50, deadline=None)
    @given(_strokes(), st.data())
    def test_verdict_moves_with_the_map(self, f_bits, data):
        g = _window()
        region = plane_region(g)
        base = _check(f_bits, g)
        obstacles = _cells_off(data, naive_dilate(f_bits, 8), 4)
        for name, T in _MAPS.items():
            mapped = np.ascontiguousarray(T(f_bits))
            got = _check(mapped, g)
            assert _table(got) == _table(base), name
            if base.status == REFUTED:
                # each witness lands in a hole of the mapped carrier, one per hole
                hs = holes(CellSet(g, mapped), region)
                labels = {int(hs.labeling.labels[j, i]) for i, j in
                          (_map_cell(T, c) for c in _witness_cells(base, g))}
                assert labels == set(hs.hole_labels), name
            if got.status == VERIFIED_UP_TO:
                U = region.omega - CellSet(g, np.ascontiguousarray(T(obstacles)))
                assert build_v(CellSet(g, mapped), U, region).certificate.ok(), name


class TestTranslation:
    @settings(max_examples=50, deadline=None)
    @given(_strokes(), st.integers(-40, 40), st.integers(-40, 40))
    def test_whole_cell_shift_keeps_the_verdict(self, f_bits, di, dj):
        # the scene moves with its window: the same cells, new centres
        g, moved = _window(), _window(di=di, dj=dj)
        base, got = _check(f_bits, g), _check(f_bits, moved)
        assert (got.status, got.level) == (base.status, base.level)
        assert _witness_cells(got, moved) == _witness_cells(base, g)
        counts = [[(r.count, r.area, r.n_ambiguous) for r in per_window]
                  for per_window in base.extents or []]
        assert [[(r.count, r.area, r.n_ambiguous) for r in per_window]
                for per_window in got.extents or []] == counts

    @pytest.mark.xfail(strict=True, reason=(
        "levels are capped around the window centre, but a hole union's "
        "max_abs and its compact bound are both radii from the origin"))
    def test_shift_keeps_a_bound_verdict(self):
        # a corridor out along the diagonal, closed at its far end and open
        # towards the centre, where level 1 plugs it: the hole union of
        # F | K_1 reaches past the level 2 radius on the centred window,
        # but not once the origin sits 5 cells off the window centre
        f_bits = np.zeros((N, N), dtype=bool)
        for t in range(14, 23):
            f_bits[t - 2, t] = f_bits[t, t - 2] = True
        for j, i in [(20, 22), (21, 21), (21, 22), (22, 20), (22, 21)]:
            f_bits[j, i] = True                 # the far end's cap
        base = _check(f_bits, _window())
        assert "beyond its compact bound" in base.reason
        assert _check(f_bits, _window(di=-5, dj=-5)).status == base.status


def _polyline(g, pts):
    return rasterize_closed([Primitive.polyline(pts)], g)


_POINT = st.tuples(st.floats(-1.9, 1.9), st.floats(-1.9, 1.9))


class TestUnionCorollary:
    """The union of two Arakelian sets at positive distance is Arakelian.
    On the grid, "at positive distance" means no 8-adjacency."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_POINT, min_size=2, max_size=4),
           st.lists(_POINT, min_size=2, max_size=4))
    def test_separated_verified_carriers(self, pts1, pts2):
        g = make_grid(-2, -2, 2, 2, 1 / 8)          # 32 x 32 cells
        F1, F2 = _polyline(g, pts1), _polyline(g, pts2)
        if (F2.bits & naive_dilate(F1.bits, 8)).any():
            return
        if all(_check(F.bits, g).status == VERIFIED_UP_TO for F in (F1, F2)):
            assert _check((F1 | F2).bits, g).status == VERIFIED_UP_TO

    def test_one_cell_gap_closes_a_hole(self):
        # a square ring with one cell left out, and that cell: each is
        # VERIFIED, and their union, 4-adjacent, is REFUTED
        g = _window()
        ring = np.zeros((N, N), dtype=bool)
        ring[8:16, 8:16] = True
        ring[9:15, 9:15] = False
        gap = np.zeros_like(ring)
        gap[8, 11] = True
        ring &= ~gap
        assert _check(ring, g).status == VERIFIED_UP_TO
        assert _check(gap, g).status == VERIFIED_UP_TO
        assert _check(ring | gap, g).status == REFUTED
