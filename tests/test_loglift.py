import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, NotSimplyConnectedError, PreconditionError,
                      Primitive, ResolutionError, SampledFunction, log_lift,
                      make_grid, open_disk_region, plane_region,
                      rasterize_closed, tietze_extend)
from arakgrid.loglift import _unwrap_on

from oracles import bfs_unwrap, nearest_carrier_values


def _line_scene(delta=1 / 64):
    # one row of cell centers lies exactly on y = 0
    g = make_grid(0.0, -0.5 + delta / 2, 2.5, 0.5 + delta / 2, delta)
    return g, plane_region(g)


class TestTietzeExtend:
    def test_constant_extends_to_constant(self):
        g, region = _line_scene(1 / 16)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: 1.0)
        ext = tietze_extend(f, region)
        assert np.all(ext.values[region.omega.bits] == 1.0)

    def test_two_valued_carrier_matches_naive_nearest(self):
        g = make_grid(0, 0, 7, 5, 1)
        region = plane_region(g)
        F = CellSet.from_cells(g, [(1, 2), (5, 2)])
        vals = np.zeros((5, 7), dtype=np.complex128)
        vals[2, 1] = 1.0
        vals[2, 5] = -1.0
        f = SampledFunction(F, vals)
        ext = tietze_extend(f, region)
        want = nearest_carrier_values(F.bits, vals)
        assert np.array_equal(ext.values, want)
        # midline ties (equidistant column) take the lex-smaller carrier
        assert ext.values[0, 3] == 1.0

    def test_restriction_agreement_is_exact(self):
        g, region = _line_scene(1 / 32)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: z)
        ext = tietze_extend(f, region)
        assert np.array_equal(ext.values[F.bits], f.values[F.bits])

    def test_empty_carrier_rejected(self):
        g, region = _line_scene(1 / 16)
        f = SampledFunction(CellSet.empty(g), np.zeros((g.nrows, g.ncols),
                                                       dtype=np.complex128))
        with pytest.raises(PreconditionError):
            tietze_extend(f, region)


class TestLogLift:
    def test_constant_one_gives_zero(self):
        g, region = _line_scene()
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: 1.0)
        res = log_lift(F, f, region)
        assert np.all(res.g.values[F.bits] == 0)

    def test_identity_on_real_segment_matches_log(self):
        g, region = _line_scene()
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: z)
        res = log_lift(F, f, region)
        assert res.residual_max < 1e-9
        for i, j in F.cells():
            x, _ = g.cell_center(i, j)
            assert abs(res.g.at(i, j) - math.log(x)) < 1e-9

    def test_exp_on_c_shape_single_branch_constant(self):
        g = make_grid(-1, -1, 2, 2, 1 / 64)
        region = plane_region(g)
        C = Primitive.polyline([(1.2, 1.5), (0.2, 1.5), (0.2, -0.9), (1.2, -0.9)])
        F = rasterize_closed([C], g)
        f = SampledFunction.from_callable(F, cmath.exp)
        res = log_lift(F, f, region)
        assert res.residual_max < 1e-9
        i0, j0 = F.min_cell()
        z0 = complex(*g.cell_center(i0, j0))
        k = round((res.g.at(i0, j0).imag - z0.imag) / (2 * math.pi))
        for i, j in F.cells():
            z = complex(*g.cell_center(i, j))
            assert abs(res.g.at(i, j) - (z + 2j * math.pi * k)) < 1e-9

    def test_branch_coherence_under_rerooting(self):
        g = make_grid(-1, -1, 2, 2, 1 / 32)
        region = plane_region(g)
        C = Primitive.polyline([(1.2, 1.5), (0.2, 1.5), (0.2, -0.9), (1.2, -0.9)])
        F = rasterize_closed([C], g)
        f = SampledFunction.from_callable(F, cmath.exp)
        res_a = log_lift(F, f, region)
        js, iis = np.nonzero(region.omega.bits)
        res_b = log_lift(F, f, region, root_cell=(int(iis[-1]), int(js[-1])))
        diff = res_a.g.values[F.bits] - res_b.g.values[F.bits]
        k = round(float(diff[0].imag) / (2 * math.pi))
        assert np.abs(diff - 2j * math.pi * k).max() < 1e-9

    @pytest.mark.parametrize("c", [2.0, 1j])
    def test_gauge_covariance(self, c):
        g, region = _line_scene(1 / 32)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: c * z)
        res = log_lift(F, f, region)
        for i, j in F.cells():
            z = complex(*g.cell_center(i, j))
            assert abs(cmath.exp(res.g.at(i, j)) - c * z) <= 1e-8

    def test_restriction_consistency(self):
        g, region = _line_scene(1 / 32)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: z)
        res = log_lift(F, f, region)
        assert np.array_equal(res.g.values[F.bits], res.g_tilde.values[F.bits])

    def test_near_zero_samples_rejected(self):
        g, region = _line_scene(1 / 32)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: 1e-9)
        with pytest.raises(PreconditionError):
            log_lift(F, f, region)

    @pytest.mark.parametrize("value", [math.nan, math.inf,
                                       complex(1.0, math.nan)])
    def test_non_finite_samples_rejected(self, value):
        # a NaN sample must not slip past the |f| >= eps_zero guard
        g, region = _line_scene(1 / 32)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: value)
        with pytest.raises(PreconditionError):
            log_lift(F, f, region)

    def test_requires_simple_connectivity(self):
        g = make_grid(-1.25, -1.25, 1.25, 1.25, 1 / 32)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        f = SampledFunction.from_callable(F, lambda z: 1.0)
        with pytest.raises(NotSimplyConnectedError):
            log_lift(F, f, region)


def _unwrap_outcome(fn):
    try:
        return fn().tobytes()
    except ResolutionError:
        return ResolutionError


_SHAPES = st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                    st.tuples(st.just(1), st.integers(1, 30)),
                    st.tuples(st.integers(1, 30), st.just(1)))
# quarter turns make increments of exactly pi, which must raise
_PHASES = st.one_of(st.floats(-math.pi, math.pi),
                    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]))


class TestUnwrapOracle:
    """The layered unwrap matches the cell-by-cell deque BFS bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_SHAPES, st.data())
    def test_matches_oracle_on_random_masks(self, shape, data):
        nrows, ncols = shape
        n = nrows * ncols
        bits = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
        bits = bits.reshape(nrows, ncols)
        mods = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        phases = data.draw(st.lists(_PHASES, min_size=n, max_size=n))
        ext_vals = np.array([cmath.rect(r, t) for r, t in zip(mods, phases)],
                            dtype=np.complex128).reshape(nrows, ncols)
        where = data.draw(st.sampled_from(["none", "inside", "outside"]))
        pool = bits if where == "inside" else ~bits
        root_cell = None
        if where != "none" and pool.any():
            js, iis = np.nonzero(pool)
            k = data.draw(st.integers(0, len(js) - 1))
            root_cell = (int(iis[k]), int(js[k]))

        g = make_grid(0, 0, ncols, nrows, 1)
        v = CellSet(g, bits)
        ext = SampledFunction(CellSet.full(g), ext_vals)
        got = _unwrap_outcome(lambda: _unwrap_on(v, ext, root_cell).values)
        want = _unwrap_outcome(lambda: bfs_unwrap(bits, ext_vals, root_cell))
        assert got == want

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 64])
    def test_matches_oracle_on_lifted_neighborhood(self, delta):
        g, region = _line_scene(delta)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: (z - 0.5) * (z - 2.5j))
        res = log_lift(F, f, region)
        ext = tietze_extend(f, region)
        v = res.neighborhood.v
        js, iis = np.nonzero(v.bits)
        for root in (None, (int(iis[-1]), int(js[-1]))):
            got = _unwrap_on(v, ext, root).values
            assert got.tobytes() == bfs_unwrap(v.bits, ext.values, root).tobytes()
