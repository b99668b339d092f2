"""Grids, cell sets and rasterization.

The toolkit sees the plane through a rectangular window cut into square
cells.  Closed carriers (segments, circles, disks, curves) rasterize with
touch semantics: a cell belongs to the raster as soon as its closed square
meets the set, so the raster is always a faithful superset image.
"""

import numpy as np

from arakgrid import CellSet, Primitive, distance_field, make_grid, rasterize_closed

grid = make_grid(-1, -1, 1, 1, 0.125)
print(f"window [-1,1]^2 at delta=1/8 -> {grid.ncols} x {grid.nrows} cells")

# A point sitting exactly on a grid corner touches all four closed squares.
corner = rasterize_closed([Primitive.point((0.25, 0.25))], make_grid(0, 0, 1, 1, 0.25))
print("cells touched by the corner point (0.25, 0.25):", corner.cells())

# A circle rasterizes to a one-cell-thick 8-connected ring.
ring = rasterize_closed([Primitive.circle((0, 0), 0.5)], grid)
print(f"circle raster: {ring.count()} cells")

# Distance fields are exact center-to-center Euclidean distances.
sources = CellSet.from_cells(grid, [(2, 2), (12, 9)])
field = distance_field(sources)
print("distance from cell (3,2) to nearest source:", field.at(3, 2))
print("max distance anywhere:", float(np.max(field.values)))

# Rays are clipped to the window; the exit cell is where the region model
# lets the region continue outward.
from arakgrid.grid import ray_exit_cells

print("ray exit cell:", ray_exit_cells([Primitive.ray((0, 0), (0, 1))], grid)[0])
