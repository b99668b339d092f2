import cmath
import math

import numpy as np
import pytest

from arakgrid import (CellSet, NotSimplyConnectedError, PreconditionError,
                      Primitive, SampledFunction, log_lift, make_grid,
                      open_disk_region, plane_region, rasterize_closed,
                      tietze_extend)

from oracles import nearest_carrier_values


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
