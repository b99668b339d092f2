import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arakgrid import (CellSet, InputError, NotSimplyConnectedError,
                      PreconditionError, Primitive, build_exhaustion,
                      compactified_complement_connected, holes,
                      label_components, make_grid, open_disk_region,
                      open_rect_region, plane_region, rasterize_closed,
                      sphere_complement_connected)
from arakgrid import topology
from arakgrid.topology import (ENCLOSED, REACHES_ALPHA, WINDOW_AMBIGUOUS,
                               custom_region)

from oracles import (flood_components, interior_reference, naive_dilate,
                     naive_holes, naive_reach, naive_sphere_connected,
                     offset_disk_reference, run_head_order)

rng = np.random.default_rng(20250810)

# ``oracles.naive_reach``'s status names and the values of ``HoleSet.status``
STATUS_CODES = {"ENCLOSED": ENCLOSED, "REACHES_ALPHA": REACHES_ALPHA,
                "WINDOW_AMBIGUOUS": WINDOW_AMBIGUOUS}


def _random_bits(shape, p=0.45):
    return rng.random(shape) < p


class TestLabelComponents:
    def test_empty_domain(self):
        g = make_grid(0, 0, 4, 4, 1)
        lab = label_components(CellSet.empty(g))
        assert lab.n == 0

    def test_diagonal_cells(self):
        g = make_grid(0, 0, 4, 4, 1)
        s = CellSet.from_cells(g, [(1, 1), (2, 2)])
        assert label_components(s).n == 2

    def test_matches_flood_fill_including_label_order(self):
        g = make_grid(0, 0, 16, 16, 1)
        for _ in range(300):
            bits = _random_bits((16, 16))
            lab = label_components(CellSet(g, bits))
            assert np.array_equal(lab.labels, flood_components(bits, 4))

    @pytest.mark.parametrize("kind", ["open-rect", "punctured-disk", "custom"])
    def test_alpha_reach_matches_naive(self, kind):
        g = make_grid(0, 0, 16, 16, 1)
        local = np.random.default_rng(20250811)
        region = {
            "open-rect": lambda: open_rect_region(g, 1, 1, 15, 15),
            "punctured-disk": lambda: open_disk_region(g, 8, 8, 7,
                                                       punctured=True),
            # N and W are declared; S and E are undeclared window edges
            "custom": lambda: custom_region(
                g, CellSet(g, local.random((16, 16)) >= 0.15),
                unbounded_edges=("N", "W")),
        }[kind]()
        seen = set()
        for _ in range(100):
            dom = (local.random((16, 16)) < 0.55) & region.omega.bits
            hs = holes(CellSet(g, region.omega.bits & ~dom), region)
            lab = hs.labeling
            assert np.array_equal(lab.labels, flood_components(dom, 4))
            assert hs.status.dtype == np.int8
            want = naive_reach(lab.labels, lab.n, region.omega.bits,
                               region.alpha_border)
            assert hs.status.tolist() == [STATUS_CODES[st] for st in want]
            seen.update(want)
        # only the custom region touches undeclared window edges
        assert {"ENCLOSED", "REACHES_ALPHA"} <= seen
        assert ("WINDOW_AMBIGUOUS" in seen) == (kind == "custom")

    def test_empty_domain_has_empty_alpha_reach(self):
        g = make_grid(0, 0, 4, 4, 1)
        hs = holes(CellSet.full(g), plane_region(g))
        assert hs.labeling.n == 0 and hs.status.dtype == np.int8
        assert hs.status.shape == (0,) and (hs.labeling.labels == -1).all()

    def test_partition_properties(self):
        g = make_grid(0, 0, 12, 12, 1)
        bits = _random_bits((12, 12))
        lab = label_components(CellSet(g, bits))
        assert ((lab.labels >= 0) == bits).all()
        assert set(np.unique(lab.labels[bits]).tolist()) == set(range(lab.n))


def _comb(nrows, ncols, gap):
    """Teeth every ``gap`` columns joined by a spine on the last row: the
    teeth look separate until the row-major scan reaches the spine."""
    m = np.zeros((nrows, ncols), dtype=bool)
    m[:, ::gap] = True
    m[-1] = True
    return m


def _nested_us(nrows, ncols):
    """Concentric U shapes open at row 0, each arm pair merging only on its
    own bottom row; the scan meets left arms, then right arms innermost first."""
    m = np.zeros((nrows, ncols), dtype=bool)
    for k in range(0, min(nrows, (ncols + 1) // 2), 2):
        m[:nrows - k, k] = m[:nrows - k, ncols - 1 - k] = True
        m[nrows - 1 - k, k:ncols - k] = True
    return m


def _spiral(nrows, ncols):
    """A one-cell wall spiralling inward with one-cell corridors between turns."""
    m = np.zeros((nrows, ncols), dtype=bool)
    j = i = d = 0
    m[0, 0] = True
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    inside = lambda j, i: 0 <= j < nrows and 0 <= i < ncols
    for _ in range(4 * nrows * ncols):
        dj, di = steps[d % 4]
        nj, ni = j + dj, i + di
        if inside(nj, ni) and not m[nj, ni] and \
                not (inside(nj + dj, ni + di) and m[nj + dj, ni + di]):
            j, i = nj, ni
            m[j, i] = True
        else:
            d += 1
    return m


@st.composite
def structured_masks(draw):
    """Combs, spirals and nested U shapes of sides 1-40, flipped, transposed,
    inverted or cut at a few cells so that components merge late."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    kind = draw(st.sampled_from(["comb", "spiral", "us"]))
    if kind == "comb":
        bits = _comb(*shape, draw(st.integers(2, 5)))
    else:
        bits = _spiral(*shape) if kind == "spiral" else _nested_us(*shape)
    if draw(st.booleans()):
        bits = bits[::-1]
    if draw(st.booleans()):
        bits = bits[:, ::-1]
    if draw(st.booleans()):
        bits = bits.T
    if draw(st.booleans()):
        bits = ~bits
    bits = bits.copy()
    cells = st.tuples(st.integers(0, bits.shape[0] - 1),
                      st.integers(0, bits.shape[1] - 1))
    for j, i in draw(st.lists(cells, max_size=4)):
        bits[j, i] = False
    return bits


class TestLabelOrder:
    """scipy's numbering is accepted only after the O(N) order check; the
    relabel fallback must give the same labeling when the check fails."""

    @settings(max_examples=300, deadline=None)
    @given(structured_masks())
    @example(_comb(1, 40, 2))
    @example(_comb(40, 1, 2))
    @example(np.array([[True, False, True, False, True]]))
    @example(np.array([[True], [False], [True], [True]]))
    @example(_nested_us(12, 23))
    @example(_spiral(17, 19))
    def test_structured_masks_match_flood_fill(self, bits):
        g = make_grid(0, 0, bits.shape[1], bits.shape[0], 1)
        lab = label_components(CellSet(g, bits))
        assert lab.labels.dtype == np.int32
        assert np.array_equal(lab.labels, flood_components(bits, 4))

    @settings(max_examples=300, deadline=None)
    @given(structured_masks(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @example(_comb(1, 40, 2), None)
    @example(_spiral(17, 19), 1)
    def test_head_check_is_the_run_head_twin(self, bits, seed):
        # scipy's labels, or a random permutation of them: the check at
        # component heads agrees with the check at every run head, and both
        # accept exactly the flood fill's first-seen order
        assume(bits.any())
        raw, n = topology.ndimage.label(bits, structure=topology.FOUR)
        perm = np.arange(1, n + 1) if seed is None else \
            np.random.default_rng(seed).permutation(n) + 1
        labels = np.append(0, perm).astype(raw.dtype)[raw]
        ordered = np.array_equal(labels - 1, flood_components(bits, 4))
        assert topology._first_seen_order(bits, labels) == ordered
        assert run_head_order(labels) == ordered

    @pytest.mark.parametrize("permute", ["reverse", "rotate", "random"])
    @pytest.mark.parametrize("conn", [4])
    def test_relabel_fallback_restores_row_major_order(self, monkeypatch,
                                                       permute, conn):
        # each hole set on a new region: none is read back from a kept one
        g = make_grid(0, 0, 16, 16, 1)
        omega = CellSet(g, _nested_us(16, 16) | ~_comb(16, 16, 3))
        region = lambda: custom_region(g, omega, unbounded_edges=("N", "W"))
        local = np.random.default_rng(20250812)
        domains = [_nested_us(16, 16), _comb(16, 16, 3)[::-1].copy()] + \
            [local.random((16, 16)) < 0.45 for _ in range(20)]
        carriers = [CellSet(g, omega.bits & ~d) for d in domains]
        label = topology.ndimage.label
        wants = [holes(F, region()) for F in carriers]
        calls = []

        def permuted_label(bits, structure):
            raw, n = label(bits, structure=structure)
            perm = {"reverse": np.arange(n, 0, -1),
                    "rotate": np.roll(np.arange(1, n + 1), 1),
                    "random": local.permutation(n) + 1}[permute]
            calls.append(n)
            return np.concatenate([[0], perm]).astype(raw.dtype)[raw], n

        monkeypatch.setattr(topology.ndimage, "label", permuted_label)
        for d, F, want in zip(domains, carriers, wants):
            got = holes(F, region())
            assert got.labeling.labels.dtype == np.int32
            assert np.array_equal(got.labeling.labels,
                                  flood_components(d & omega.bits, conn))
            assert got.labeling.n == want.labeling.n
            assert np.array_equal(got.status, want.status)
        # the permutations moved labels, so the fallback really ran
        assert len(calls) == len(domains) and max(calls) >= 2


class TestFirstCells:
    """``ComponentLabeling.first_cells`` gives each label's lexicographically
    smallest cell (i, j), as one ``CellSet.min_cell`` per label does."""

    @staticmethod
    def _per_label(labels, n):
        g = make_grid(0, 0, labels.shape[1], labels.shape[0], 1)
        return [CellSet(g, labels == k).min_cell() for k in range(n)]

    @settings(max_examples=300, deadline=None)
    @given(structured_masks())
    # the row-major first cell (1, 0) is not the lex-smallest (0, 1)
    @example(np.array([[False, True], [True, True]]))
    def test_components_match_min_cell(self, bits):
        g = make_grid(0, 0, bits.shape[1], bits.shape[0], 1)
        lab = label_components(CellSet(g, bits))
        assert lab.first_cells() == self._per_label(lab.labels, lab.n)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)),
           st.integers(1, 6), st.data())
    def test_random_labelings_match_min_cell(self, shape, n, data):
        # any dense labeling: a label need not be connected, -1 is outside
        size = shape[0] * shape[1]
        raw = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=size,
                                          max_size=size))).reshape(shape)
        present = np.unique(raw[raw >= 0])
        labels = np.where(raw >= 0, np.searchsorted(present, raw), -1)
        lab = topology.ComponentLabeling(labels.astype(np.int32), present.size)
        assert lab.first_cells() == self._per_label(lab.labels, lab.n)


class TestDilate:
    """``topology.dilate(bits, t)`` against ``oracles.offset_disk_reference``
    for every t from 1 (the identity) to past the window's diagonal; t = 2
    and t = 3 also against a cell-by-cell 4- and 8-neighbour loop and
    scipy's ``binary_dilation`` with the matching structure."""

    EDGE_CASES = [
        np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
        np.eye(1, 9, 4, dtype=bool), np.eye(9, 1, -4, dtype=bool),
        np.eye(1, 9, 0, dtype=bool), np.eye(9, 1, -8, dtype=bool),
        np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
        np.ones((6, 7), dtype=bool), np.zeros((6, 7), dtype=bool),
        np.eye(7, dtype=bool), np.eye(7, dtype=bool)[::-1],
    ]
    EDGE_IDS = ["1x1-set", "1x1-clear", "1xN-middle", "Nx1-middle", "1xN-end",
                "Nx1-end", "1xN-set", "Nx1-set", "all-set", "all-clear",
                "diagonal", "anti-diagonal"]

    @staticmethod
    def _check(bits, t):
        before = bits.copy()
        got = topology.dilate(bits, t)
        assert got.dtype == bool and got.shape == bits.shape
        assert np.array_equal(got, offset_disk_reference(bits, t))
        assert np.array_equal(bits, before)         # input left alone
        return got

    @classmethod
    def _check_neighbours(cls, bits, connectivity):
        got = cls._check(bits, {4: 2, 8: 3}[connectivity])
        assert np.array_equal(got, naive_dilate(bits, connectivity))
        structure = topology.ndimage.generate_binary_structure(2, connectivity // 4)
        assert np.array_equal(got, topology.ndimage.binary_dilation(bits, structure))

    @classmethod
    def _check_every_threshold(cls, bits):
        nrows, ncols = bits.shape
        past = (nrows - 1) ** 2 + (ncols - 1) ** 2 + 3
        assert np.array_equal(cls._check(bits, 1), bits)
        for t in range(2, past):
            cls._check(bits, t)
        if bits.any():              # past the diagonal every cell is reached
            assert cls._check(bits, past).all()

    @staticmethod
    def _draw_bits(nrows, ncols, fill, data):
        if fill != "random":
            return np.full((nrows, ncols), fill == "set")
        p = data.draw(st.floats(0.0, 1.0))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        return np.random.default_rng(seed).random((nrows, ncols)) < p

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([4, 8]),
           st.sampled_from(["random", "set", "clear"]), st.data())
    def test_matches_oracle(self, nrows, ncols, connectivity, fill, data):
        self._check_neighbours(self._draw_bits(nrows, ncols, fill, data), connectivity)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8),
           st.sampled_from(["random", "set", "clear"]), st.data())
    def test_every_threshold_matches_the_offset_disk(self, nrows, ncols, fill, data):
        self._check_every_threshold(self._draw_bits(nrows, ncols, fill, data))

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("bits", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, bits, connectivity):
        self._check_neighbours(bits, connectivity)

    @pytest.mark.parametrize("bits", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases_every_threshold(self, bits):
        self._check_every_threshold(bits)


class TestInterior:
    """``RegionModel.interior`` against ``oracles.interior_reference`` and
    the boundary-distance field it stands in for."""

    @staticmethod
    def _region(nrows, ncols, delta, edges, density, seed):
        g = make_grid(0, 0, ncols * delta, nrows * delta, delta)
        bits = np.random.default_rng(seed).random((g.nrows, g.ncols)) < density
        bits[0, 0] = True
        return custom_region(g, CellSet(g, bits), unbounded_edges=edges)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([1 / 16, 1 / 32, 0.1, 0.3]), st.integers(0, 4),
           st.sampled_from([0.7, 1.0, 1.3]),
           st.sets(st.sampled_from("NSEW")).map(sorted),
           st.floats(0.3, 1.0), st.integers(0, 2 ** 32 - 1))
    @example(1, 40, 1 / 16, 2, 1.0, [], 0.8, 1)          # one row
    @example(40, 1, 0.1, 1, 1.3, ["N", "S"], 0.9, 2)     # one column
    @example(12, 9, 0.3, 0, 0.7, ["N", "S", "E", "W"], 1.0, 3)  # no bound
    @example(7, 9, 1 / 16, 1, 0.75, [], 1.0, 5)    # r ties the edge gaps
    def test_matches_reference(self, nrows, ncols, delta, m, scale, edges,
                               density, seed):
        region = self._region(nrows, ncols, delta, edges, density, seed)
        r = delta * 2 ** m * scale
        got = region.interior(r)
        assert got.dtype == bool and got.flags.writeable
        assert np.array_equal(got, interior_reference(region, r))
        assert region._boundary_distance is None     # no field is built
        field = region.omega.bits & (region.boundary_distance() >= r)
        assert np.array_equal(got, field)

    @pytest.mark.parametrize("r", [2 ** 5 / 32 * 1.3, 2 ** 9 / 32, 1e300,
                                   math.inf, math.nan],
                             ids=["m=5", "beyond-window", "huge", "inf", "nan"])
    def test_large_threshold_builds_no_field(self, monkeypatch, r):
        # offsets up to the whole window, and past it, are still ORed disks
        region = self._region(30, 40, 1 / 32, ["E"], 0.97, 4)
        monkeypatch.setattr(topology, "distance_field", None)
        got = region.interior(r)
        monkeypatch.undo()
        assert np.array_equal(got, interior_reference(region, r))
        field = region.omega.bits & (region.boundary_distance() >= r)
        assert np.array_equal(got, field)

    def test_unbounded_region_reads_inf(self, monkeypatch):
        # no complement cell, every edge declared: no transform, no memory
        monkeypatch.setattr(topology, "distance_field", None)
        region = plane_region(make_grid(-1, -1, 1, 2, 0.25))
        dist = region.boundary_distance()
        assert dist.strides == (0, 0)
        assert region.boundary_distance() is dist
        assert np.isinf(dist).all() and dist.shape == (12, 8)
        with pytest.raises(ValueError):
            dist[0, 0] = 0.0
        assert region.interior(1.0).all()
        assert not region.interior(math.nan).any()


def _ring3(grid):
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (2, 2)]
    return CellSet.from_cells(grid, cells)


class TestFrontier:
    @pytest.mark.parametrize("edges", [("N", "W"), ("W", "N")])
    def test_declared_edges_keep_their_shared_corner(self, edges):
        # undeclared E and S share the top right and bottom left corners
        # with the declared N and W; those corners stay alpha
        g = make_grid(0, 0, 4, 3, 1)
        region = custom_region(g, CellSet.full(g), unbounded_edges=edges)
        want = np.zeros((3, 4), dtype=bool)
        want[-1, :] = True              # top row, the N edge
        want[:, 0] = True               # left column, the W edge
        assert np.array_equal(region.alpha_border, want)
        assert region.declared_edges == frozenset({"N", "W"})

    def test_exit_cells_count_on_the_border_only(self):
        g = make_grid(0, 0, 4, 3, 1)
        extra = np.zeros((3, 4), dtype=bool)
        extra[1, 1] = extra[1, 3] = True    # an interior cell, an E-edge cell
        region = custom_region(g, CellSet.full(g), extra_unbounded=extra)
        assert np.argwhere(region.alpha_border).tolist() == [[1, 3]]
        assert region.declared_edges == frozenset()

    @pytest.mark.parametrize("edges", [("X",), ("N", "X")])
    def test_unknown_edge_is_an_input_error(self, edges):
        g = make_grid(0, 0, 4, 3, 1)
        with pytest.raises(InputError, match="unknown window edge"):
            custom_region(g, CellSet.full(g), unbounded_edges=edges)


class TestHoles:
    def test_ring_has_one_hole(self):
        g = make_grid(0, 0, 5, 5, 1)
        region = plane_region(g)
        hs = holes(_ring3(g), region)
        assert hs.count == 1
        assert hs.union.cells() == [(2, 2)]

    def test_circle_in_disk_has_one_hole(self):
        g = make_grid(-1, -1, 1, 1, 1 / 64)
        region = open_disk_region(g, 0, 0, 1)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        hs = holes(F, region)
        assert hs.count == 1
        assert naive_holes(region.omega.bits, F.bits,
                           region.alpha_border).sum() == hs.union.count()

    def test_puncture_releases_inner_component(self):
        g = make_grid(-1, -1, 1, 1, 1 / 64)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        hs = holes(F, region)
        assert hs.count == 0
        ci, cj = g.point_cell(0.0, 0.25)
        inner = hs.labeling.labels[cj, ci]
        assert hs.status[inner] == REACHES_ALPHA

    def test_requires_subset(self):
        g = make_grid(0, 0, 5, 5, 1)
        region = open_rect_region(g, 1, 1, 4, 4)
        with pytest.raises(PreconditionError):
            holes(CellSet.full(g), region)

    def test_partition_of_complement(self):
        g = make_grid(0, 0, 14, 14, 1)
        region = open_rect_region(g, 1, 1, 13, 13)
        for _ in range(50):
            F = CellSet(g, _random_bits((14, 14)) & region.omega.bits)
            hs = holes(F, region)
            n_alpha = int((hs.status == REACHES_ALPHA).sum())
            n_amb = int((hs.status == WINDOW_AMBIGUOUS).sum())
            assert hs.count + n_alpha + n_amb == hs.labeling.n

    def test_matches_naive_on_random_scenes(self):
        g = make_grid(0, 0, 16, 16, 1)
        region = open_rect_region(g, 1, 1, 15, 15)
        for _ in range(200):
            F = CellSet(g, _random_bits((16, 16)) & region.omega.bits)
            hs = holes(F, region)
            want = naive_holes(region.omega.bits, F.bits, region.alpha_border)
            assert np.array_equal(hs.union.bits, want)


def _edge_region(g):
    """The whole window, unbounded past its north edge only: complements
    here can be enclosed, reach alpha or be window-ambiguous."""
    return custom_region(g, CellSet.full(g), unbounded_edges=("N",))


def _hole_set_bytes(hs):
    lab = hs.labeling
    return (hs.hole_labels, hs.ambiguous_labels, hs.count, lab.n,
            lab.labels.tobytes(), hs.status.tobytes(),
            hs.union.bits.tobytes())


class TestHoleSetsKept:
    """``holes`` keeps the last hole sets it returned on the region, keyed on
    the carrier's cells.  A repeat reads back a read-only hole set equal to
    what a fresh region gives."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 5), min_size=7, max_size=24))
    def test_matches_fresh_region(self, seed, picks):
        # 6 carriers and at least 7 picks: every sequence repeats one
        g = make_grid(0, 0, 9, 9, 1)
        gen = np.random.default_rng(seed)
        pool = [gen.random((9, 9)) < 0.4 for _ in range(6)]
        region = _edge_region(g)
        for k in picks:
            F = CellSet(g, pool[k].copy())          # same cells, new object
            got = holes(F, region)
            assert _hole_set_bytes(got) == _hole_set_bytes(holes(F, _edge_region(g)))
            assert len(region._hole_sets) <= 4

    def test_repeat_is_the_same_hole_set(self):
        g = make_grid(0, 0, 5, 5, 1)
        region = plane_region(g)
        hs = holes(_ring3(g), region)
        assert holes(_ring3(g), region) is hs
        for k in range(4):                          # evict it
            holes(CellSet.from_cells(g, [(k, 0)]), region)
        assert holes(_ring3(g), region) is not hs

    @pytest.mark.parametrize("ring", [True, False], ids=["ring", "empty"])
    def test_arrays_reject_writes(self, ring):
        g = make_grid(0, 0, 5, 5, 1)
        hs = holes(_ring3(g) if ring else CellSet.empty(g), plane_region(g))
        for arr in (hs.labeling.labels, hs.status, hs.union.bits):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_same_bits_on_another_grid_raise(self):
        g = make_grid(0, 0, 5, 5, 1)
        region = plane_region(g)
        F = _ring3(g)
        holes(F, region)
        other = make_grid(1, 0, 6, 5, 1)            # same shape, another window
        with pytest.raises(InputError):
            holes(CellSet(other, F.bits.copy()), region)


class TestPlaneRegionPerGrid:
    """``plane_region`` builds one region per grid object and keeps it on the
    grid: every call on the window shares its exhaustions and hole sets, no
    caller can write to its arrays, and it dies with the grid."""

    def test_same_region_per_grid_object(self):
        g = make_grid(-1, -1, 1, 1, 0.25)
        region = plane_region(g)
        assert plane_region(g) is region
        fresh = make_grid(-1, -1, 1, 1, 0.25)       # equal values, another grid
        assert fresh == g and plane_region(fresh) is not region
        assert plane_region(fresh).grid == fresh

    def test_arrays_reject_writes(self):
        region = plane_region(make_grid(-1, -1, 1, 1, 0.25))
        for arr in (region.omega.bits, region.alpha_border,
                    region.alpha_adjacent, region.ambiguous_contact):
            with pytest.raises(ValueError):
                arr[0, 0] = False

    def test_freed_with_its_grid(self):
        # nothing the region keeps (hole sets, exhaustion) refers back to
        # the grid, so reference counting frees it, with no collector run
        g = make_grid(-1, -1, 1, 1, 0.25)
        region = plane_region(g)
        holes(_ring3(g), region)
        build_exhaustion(region, 3)
        ref = weakref.ref(region)
        gc.disable()
        try:
            del g, region
            assert ref() is None
        finally:
            gc.enable()


class TestCompactified:
    def test_empty_g_connected(self):
        g = make_grid(0, 0, 6, 6, 1)
        region = open_rect_region(g, 1, 1, 5, 5)
        rep = compactified_complement_connected(CellSet.empty(g), region)
        assert rep.connected is True and rep.n_components == 1

    def test_circle_disconnects(self):
        g = make_grid(-1, -1, 1, 1, 1 / 32)
        region = open_disk_region(g, 0, 0, 1)
        F = rasterize_closed([Primitive.circle((0, 0), 0.5)], g)
        rep = compactified_complement_connected(F, region)
        assert rep.connected is False and rep.n_components == 2

    def test_segment_in_declared_plane_connected(self):
        g = make_grid(-1, -1, 1, 1, 1 / 16)
        region = plane_region(g)
        F = rasterize_closed([Primitive.segment((-0.5, 0), (0.5, 0))], g)
        rep = compactified_complement_connected(F, region)
        assert rep.connected is True

    def test_undeclared_edges_are_inconclusive(self):
        g = make_grid(-1, -1, 1, 1, 1 / 16)
        region = custom_region(g, CellSet.full(g), simply_connected=True)
        F = rasterize_closed([Primitive.segment((-2, 0), (2, 0))], g)
        rep = compactified_complement_connected(F, region)
        assert rep.connected is None
        assert len(holes(F, region).ambiguous_labels) == 2


class TestSphere:
    def test_refuses_without_simple_connectivity(self):
        g = make_grid(-1, -1, 1, 1, 1 / 16)
        region = open_disk_region(g, 0, 0, 1, punctured=True)
        with pytest.raises(NotSimplyConnectedError):
            sphere_complement_connected(CellSet.empty(g), region)

    def test_empty_connected(self):
        g = make_grid(0, 0, 6, 6, 1)
        region = open_rect_region(g, 1, 1, 5, 5)
        assert sphere_complement_connected(CellSet.empty(g), region)

    def test_square_annulus_traps_interior(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        region = plane_region(g)
        ring = Primitive.polyline([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)])
        G = rasterize_closed([ring], g)
        assert sphere_complement_connected(G, region) is False

    def test_exhaustive_equivalence_on_3x3_block(self):
        g = make_grid(0, 0, 5, 5, 1)
        region = open_rect_region(g, 1, 1, 4, 4)
        assert region.omega.count() == 9
        cells = region.omega.cells()
        agree = 0
        for mask in range(512):
            G = CellSet.from_cells(
                g, [c for k, c in enumerate(cells) if (mask >> k) & 1])
            rep = compactified_complement_connected(G, region)
            sph = sphere_complement_connected(G, region)
            if rep.connected is not None:
                assert rep.connected == sph
                agree += 1
        assert agree == 512          # nothing ambiguous in an interior block


    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10),
           st.sampled_from(["plane", "full", "partial"]), st.data())
    def test_matches_flood_fill_oracle(self, nrows, ncols, kind, data):
        # a region filling the window reads the holes of G; others label ~G
        g = make_grid(0, 0, ncols, nrows, 1)
        n = nrows * ncols

        def bits():
            drawn = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            return np.array(drawn, dtype=bool).reshape(nrows, ncols)

        if kind == "plane":
            region = plane_region(g)
        elif kind == "full":
            edges = data.draw(st.lists(st.sampled_from("NSEW"), unique=True))
            region = custom_region(g, CellSet.full(g), unbounded_edges=edges,
                                   extra_unbounded=bits(), simply_connected=True)
        else:
            omega = bits()
            assume(omega.any() and not omega.all())
            region = custom_region(g, CellSet(g, omega), simply_connected=True)
        G = CellSet(g, bits() & region.omega.bits)
        assert sphere_complement_connected(G, region) is \
            naive_sphere_connected(G.bits)


class TestJordanDuality:
    @pytest.mark.parametrize("r,delta", [(0.5, 1 / 16), (0.7, 1 / 32),
                                         (0.33, 1 / 64)])
    def test_circle_raster_separates_into_two(self, r, delta):
        g = make_grid(-1, -1, 1, 1, delta)
        curve = rasterize_closed([Primitive.circle((0, 0), r)], g)
        assert flood_components(curve.bits, 8).max() == 0      # one component
        complement = CellSet(g, ~curve.bits)
        assert label_components(complement).n == 2

    def test_square_ring_separates_into_two(self):
        g = make_grid(-2, -2, 2, 2, 1 / 16)
        ring = Primitive.polyline([(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)])
        curve = rasterize_closed([ring], g)
        assert flood_components(curve.bits, 8).max() == 0      # one component
        assert label_components(CellSet(g, ~curve.bits)).n == 2


class TestAlphaMonotone:
    # Enlarging the visible region by growing the *window* of a fixed scene
    # never turns a conclusively escaping component into a trapped one.  (The
    # unrestricted any-cells-added version is false: filling a puncture can
    # legitimately trap the component that escaped through it.)
    def test_window_growth_never_encloses_an_escaping_component(self):
        for trial in range(60):
            pts = rng.uniform(-1, 1, size=(4, 2))
            pts = pts[np.argsort(pts[:, 0])]
            prim = Primitive.polyline([tuple(p) for p in pts])
            small_grid = make_grid(-2, -2, 2, 2, 1 / 8)
            big_grid = make_grid(-2, -2, 2, 4, 1 / 8)
            small = plane_region(small_grid)
            big = plane_region(big_grid)
            F_small = rasterize_closed([prim], small_grid)
            F_big = rasterize_closed([prim], big_grid)
            hs_small, hs_big = holes(F_small, small), holes(F_big, big)
            for hs, region in ((hs_small, small), (hs_big, big)):
                want = naive_reach(hs.labeling.labels, hs.labeling.n,
                                   region.omega.bits, region.alpha_border)
                assert hs.status.tolist() == [STATUS_CODES[st] for st in want]
            small_labels, big_labels = hs_small.labeling.labels, hs_big.labeling.labels
            for lbl in np.flatnonzero(hs_small.status == REACHES_ALPHA):
                js, iis = np.nonzero(small_labels == lbl)
                assert hs_big.status[big_labels[js[0], iis[0]]] != ENCLOSED

    def test_window_growth_on_bounded_region_keeps_classification(self):
        for delta in (1 / 16, 1 / 32):
            small_grid = make_grid(-1.25, -1.25, 1.25, 1.25, delta)
            big_grid = make_grid(-1.25, -1.25, 1.25, 2.5, delta)
            F = [Primitive.circle((0, 0), 0.5)]
            for punct in (False, True):
                rs = open_disk_region(small_grid, 0, 0, 1, punctured=punct)
                rb = open_disk_region(big_grid, 0, 0, 1, punctured=punct)
                hs = holes(rasterize_closed(F, small_grid), rs)
                hb = holes(rasterize_closed(F, big_grid), rb)
                assert hs.count == hb.count
