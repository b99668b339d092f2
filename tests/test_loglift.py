import cmath
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, NotSimplyConnectedError, PreconditionError,
                      Primitive, ResolutionError, SampledFunction, log_lift,
                      make_grid, open_disk_region, plane_region,
                      parse_scene, rasterize_closed, tietze_extend)
from arakgrid.loglift import _bfs_tree, _sample_ids, _unwrap_on

from oracles import (bfs_tree_reference, bfs_unwrap, carrier_loop_extension,
                     flood_components, nearest_carrier_values)

SCENES = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")


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


_TIE_SHAPES = st.one_of(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                        st.tuples(st.just(1), st.integers(1, 20)),
                        st.tuples(st.integers(1, 20), st.just(1)))
# squared radii with many lattice points on their circle
_LATTICE_R2 = (1, 2, 4, 5, 8, 25, 50, 65, 85, 125, 325)


def _tie_heavy_carrier(data, nrows, ncols) -> np.ndarray:
    """Sparse cells, a spaced lattice, a mirror-symmetric pattern or the
    lattice points of one circle: carriers whose cells tie for nearest."""
    jj, ii = np.indices((nrows, ncols))
    kind = data.draw(st.sampled_from(["sparse", "lattice", "mirror", "circle"]))
    if kind == "lattice":
        si, sj = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        oi, oj = data.draw(st.integers(0, si - 1)), data.draw(st.integers(0, sj - 1))
        return (ii % si == oi) & (jj % sj == oj)
    if kind == "circle":
        ci, cj = data.draw(st.integers(-5, 25)), data.draw(st.integers(-5, 25))
        r2 = data.draw(st.sampled_from(_LATTICE_R2))
        return (ii - ci) ** 2 + (jj - cj) ** 2 == r2
    cells = data.draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                         st.integers(0, nrows - 1)),
                               min_size=1, max_size=8))
    bits = np.zeros((nrows, ncols), dtype=bool)
    for i, j in cells:
        bits[j, i] = True
    if kind == "mirror":
        if data.draw(st.booleans()):
            bits |= bits[:, ::-1]
        if data.draw(st.booleans()):
            bits |= bits[::-1, :]
    return bits


class TestTietzeOracle:
    """``tietze_extend`` takes the lexicographically smallest of equidistant
    carrier cells, bit for bit as the cell-by-cell oracle does."""

    @settings(max_examples=300, deadline=None)
    @given(_TIE_SHAPES, st.sampled_from(["plane", "disk"]), st.data())
    def test_matches_oracle_on_tie_heavy_carriers(self, shape, kind, data):
        nrows, ncols = shape
        g = make_grid(0, 0, ncols, nrows, 1)
        if kind == "plane":
            region = plane_region(g)
        else:
            r = data.draw(st.floats(0.5, 0.6 * math.hypot(ncols, nrows)))
            region = open_disk_region(g, ncols / 2, nrows / 2, r)
        omega = region.omega.bits
        bits = _tie_heavy_carrier(data, nrows, ncols) & omega
        if not bits.any():
            js, iis = np.nonzero(omega)
            bits[js[0], iis[0]] = True
        # distinct values, so a wrong pick among tied cells shows
        vals = ((np.arange(nrows * ncols) + 1) * (1 + 0.5j)).reshape(nrows, ncols)
        ext = tietze_extend(SampledFunction(CellSet(g, bits), vals), region)
        want = np.where(omega, nearest_carrier_values(bits, vals), 0)
        assert ext.values.tobytes() == want.tobytes()


def _loglift_line(delta):
    """loglift_line.scene regridded to delta, one row of centers on y = 0."""
    with open(os.path.join(SCENES, "loglift_line.scene")) as fh:
        sc = parse_scene(fh.read())
    g = make_grid(sc.grid.xmin, -0.5 + delta / 2, sc.grid.xmax, 0.5 + delta / 2,
                  delta)
    f = SampledFunction.from_callable(sc.raster("F", g), sc.fns["F"].as_callable())
    return f, sc.region(g)


class TestCarrierLoopTwin:
    """On larger inputs than the cell-by-cell oracle can take, the feature
    transform gives the bytes of the per-carrier-cell loop."""

    @staticmethod
    def _assert_twin(f, region):
        ext = tietze_extend(f, region)
        want = carrier_loop_extension(f.carrier.bits, f.values, region.omega.bits)
        assert ext.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 64, 1 / 128])
    def test_loglift_line_scene(self, delta):
        self._assert_twin(*_loglift_line(delta))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_polylines(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(0, 0, 2, 2, 1 / 64)          # 128 x 128
        if seed % 2:
            region = open_disk_region(g, 1, 1, 1)
            pts = [(1 + r * math.cos(t), 1 + r * math.sin(t)) for r, t in
                   zip(rng.uniform(0, 0.8, 5), rng.uniform(0, 2 * math.pi, 5))]
        else:
            region = plane_region(g)
            pts = [tuple(p) for p in rng.uniform(0.05, 1.95, (5, 2))]
        F = rasterize_closed([Primitive.polyline(pts)], g)
        f = SampledFunction.from_callable(F, lambda z: (z - 0.3) * (z - 1.7j))
        self._assert_twin(f, region)


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

    @pytest.mark.parametrize("root", ["west", "south", "east", "north"])
    def test_root_cell_outside_grid_rejected(self, root):
        # a negative index would wrap to the far edge, a large one escape
        # as a bare IndexError
        g, region = _line_scene(1 / 16)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: z)
        cell = {"west": (-1, 0), "south": (0, -1), "east": (g.ncols, 0),
                "north": (0, g.nrows)}[root]
        with pytest.raises(PreconditionError, match=re.escape(str(cell))):
            log_lift(F, f, region, root_cell=cell)

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

# pairs of samples for a small pool, as tietze_extend leaves: twins equal as
# complex numbers but not bit for bit (-1+0j and -1-0j have phases +pi and
# -pi), 0.47-0.25j, whose quotient by itself is not exactly 1, with samples
# sharing its real or its imaginary bits, and two unrelated samples
_PAIRS = [(complex(-1, 0.0), complex(-1, -0.0)),
          (complex(0.0, -1), complex(-0.0, -1)),
          (complex(1, 0.0), complex(1, -0.0)),
          (complex(0.47, -0.25), complex(0.47, 0.25)),
          (complex(0.47, -0.25), complex(-0.47, -0.25)),
          (cmath.rect(2, -2.5), cmath.rect(0.5, 2.5))]


def _check_random_mask(shape, data, samples):
    """Draw V, one sample per cell and a root (none, in V or off V), and
    compare the unwrap with the oracle."""
    nrows, ncols = shape
    n = nrows * ncols
    bits = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    bits = bits.reshape(nrows, ncols)
    ext_vals = np.array(data.draw(st.lists(samples, min_size=n, max_size=n)),
                        dtype=np.complex128).reshape(nrows, ncols)
    where = data.draw(st.sampled_from(["none", "inside", "outside"]))
    pool = bits if where == "inside" else ~bits
    root_cell = None
    if where != "none" and pool.any():
        js, iis = np.nonzero(pool)
        k = data.draw(st.integers(0, len(js) - 1))
        root_cell = (int(iis[k]), int(js[k]))

    # one id per distinct bit pattern, so that edges inside one id and
    # bitwise twins on different ids are both drawn
    bits64 = ext_vals.reshape(-1).view(np.int64).reshape(-1, 2)
    _, first, ids = np.unique(bits64, axis=0, return_index=True,
                              return_inverse=True)
    samples = ext_vals.reshape(-1)[first]
    ids = ids.astype(np.int32).reshape(nrows, ncols)
    v = CellSet(make_grid(0, 0, ncols, nrows, 1), bits)
    got = _unwrap_outcome(lambda: _unwrap_on(v, samples, ids, root_cell).values)
    want = _unwrap_outcome(lambda: bfs_unwrap(bits, ext_vals, root_cell))
    assert got == want


class TestUnwrapOracle:
    """The layered unwrap matches the cell-by-cell deque BFS bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_SHAPES, st.data())
    def test_matches_oracle_on_random_masks(self, shape, data):
        _check_random_mask(shape, data,
                           st.builds(cmath.rect, st.floats(0.1, 10.0), _PHASES))

    @settings(max_examples=300, deadline=None)
    @given(_SHAPES, st.data())
    def test_matches_oracle_on_repeated_samples(self, shape, data):
        pairs = data.draw(st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=2))
        pool = [z for pair in pairs for z in pair]
        _check_random_mask(shape, data, st.sampled_from(pool))

    @pytest.mark.parametrize("delta", [1 / 32, 1 / 64])
    def test_matches_oracle_on_lifted_neighborhood(self, delta):
        g, region = _line_scene(delta)
        F = rasterize_closed([Primitive.segment((1, 0), (2, 0))], g)
        f = SampledFunction.from_callable(F, lambda z: (z - 0.5) * (z - 2.5j))
        res = log_lift(F, f, region)
        ext = tietze_extend(f, region)
        ids = _sample_ids(F, region)
        v = res.neighborhood.v
        js, iis = np.nonzero(v.bits)
        for root in (None, (int(iis[-1]), int(js[-1]))):
            got = _unwrap_on(v, f.values[F.bits], ids, root).values
            assert got.tobytes() == bfs_unwrap(v.bits, ext.values, root).tobytes()

    def test_lift_on_bitwise_twin_carrier(self):
        # distinct carrier cells with equal bits (different ids, one value)
        # and bitwise twins (-1+0j and -1-0j, equal as complex numbers):
        # the lift on carrier-sample ids matches the unwrap of the extension
        g = make_grid(0, 0, 12, 7, 1)
        region = plane_region(g)
        row = [complex(-1, 0.0), complex(-1, 0.0), complex(-1, -0.0),
               complex(-1, -0.0), complex(0.47, -0.25), complex(0.47, -0.25),
               complex(0.47, 0.25), complex(-1, 0.0)]
        F = CellSet.from_cells(g, [(2 + k, 3) for k in range(len(row))])
        vals = np.zeros((g.nrows, g.ncols), dtype=np.complex128)
        vals[3, 2:2 + len(row)] = row
        f = SampledFunction(F, vals)
        res = log_lift(F, f, region)
        v = res.neighborhood.v
        want = bfs_unwrap(v.bits, tietze_extend(f, region).values)
        assert res.g_tilde.values.tobytes() == want.tobytes()


class TestBfsTreeOracle:
    """``_bfs_tree`` lists the cells, parents and layers of the deque BFS."""

    @settings(max_examples=300, deadline=None)
    @given(_SHAPES, st.data())
    def test_matches_oracle_on_random_masks(self, shape, data):
        # one seed per component, the lex-smallest cell or any other (a root
        # override), and maybe a seed off the domain, which must be ignored
        nrows, ncols = shape
        n = nrows * ncols
        bits = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
        bits = bits.reshape(nrows, ncols)
        labels = flood_components(bits, 4)
        seeds = np.zeros_like(bits)
        for k in range(labels.max() + 1):
            iis, js = np.nonzero(labels.T == k)         # lex-smallest first
            pick = data.draw(st.one_of(st.just(0), st.integers(0, len(js) - 1)))
            seeds[js[pick], iis[pick]] = True
        if not bits.all() and data.draw(st.booleans()):
            js, iis = np.nonzero(~bits)
            pick = data.draw(st.integers(0, len(js) - 1))
            seeds[js[pick], iis[pick]] = True
        cells, parents, bounds = _bfs_tree(bits, seeds)
        assert (cells.tolist(), parents.tolist(), list(bounds)) == \
            bfs_tree_reference(bits, seeds)
        assert cells.dtype == parents.dtype == np.int32
        assert cells.size == parents.size == bits.sum()
