"""Sparse voxelization of point clouds, in hard (capped) and dynamic modes.

Both modes run one grouping step: each in-range point gets its grid cell,
one sort of the cell keys lines each voxel's points up in arrival order,
voxels are numbered by the arrival of their first point without a second
sort, and each voxel's feature is the mean of its stored points, summed one
contiguous column at a time over the stored points in arrival order. The sort
is an in-place sort of the keys tagged with their arrival, key * n + i for
the i-th of n in-range points. A grid of more than (2**63 - 1) / n cells,
whose tagged keys could pass the int64 range, takes a stable argsort of the
untagged keys instead; both give the same order.
Dynamic mode keeps every in-range point. Hard mode enforces per-voxel and
total-voxel caps in first-arrival order, so drop behavior is reproducible
for a given input ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .pointcloud import DEFAULT_RANGE, PointCloud, RangeSpec
from .schema import COUNT, POSITIVE, Section, setting

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class VoxelConfig(Section):
    """Grid geometry plus the hard-mode caps."""

    range: RangeSpec = DEFAULT_RANGE
    vx: float = setting(POSITIVE, default=0.1)
    vy: float = setting(POSITIVE, default=0.1)
    vz: float = setting(POSITIVE, default=0.15)
    max_points_per_voxel: int = setting(COUNT, default=5)
    max_voxels: int = setting(COUNT, default=150000)

    def __post_init__(self) -> None:
        super().__post_init__()
        r = self.range
        extents = (r.x_max - r.x_min, r.y_max - r.y_min, r.z_max - r.z_min)
        for name, extent in zip(("vx", "vy", "vz"), extents):
            edge = getattr(self, name)
            # Compared before rounding up, so an infinite quotient fails here too.
            if extent / edge > _INT32_MAX:
                raise ValueError(f"{name}={edge!r} makes a grid dimension exceed 32-bit signed range")
        # Voxels are grouped by the linear key (ix * ny + iy) * nz + iz, which
        # is exact in int64 only while every key fits.
        nx, ny, nz = self.grid_shape
        if nx * ny * nz > _INT64_MAX:
            raise ValueError(f"grid of {nx * ny * nz} cells exceeds the 64-bit signed key range")

    @property
    def grid_shape(self) -> Tuple[int, int, int]:
        r = self.range
        return (
            int(math.ceil((r.x_max - r.x_min) / self.vx)),
            int(math.ceil((r.y_max - r.y_min) / self.vy)),
            int(math.ceil((r.z_max - r.z_min) / self.vz)),
        )


class VoxelMode(Enum):
    HARD = "HARD"
    DYNAMIC = "DYNAMIC"


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Sparse voxel grid; voxel v is row v of each per-voxel array, and voxels
    are ordered by the arrival of their first stored point."""

    coords: np.ndarray  # (V, 3) int64 grid cell (ix, iy, iz)
    counts: np.ndarray  # (V,) number of stored points
    features: np.ndarray  # (V, 5) mean of (x, y, z, intensity, t) over stored points
    point_voxel: np.ndarray  # (N,) voxel of each input point, -1 if out of range or dropped
    mode: VoxelMode = VoxelMode.DYNAMIC
    dropped_points: int = 0
    dropped_voxels: int = 0

    @property
    def num_voxels(self) -> int:
        return len(self.counts)

    @property
    def stored_points(self) -> int:
        return int(self.counts.sum())


def voxel_coords(points: np.ndarray, cfg: VoxelConfig) -> np.ndarray:
    """Grid cells (ix, iy, iz) of the rows of an (N, >= 3) array of finite
    points, as an (N, 3) int64 array whose columns are contiguous.

    Each axis is computed from its own column as floor((p - lo) / edge).
    In-range tests use the same closed intervals as range cropping
    (``RangeSpec.contains``); points sitting exactly on an upper bound clamp
    into the last voxel, and points outside the range clamp into the grid.
    """
    r = cfg.range
    cells = np.empty((3, len(points)), dtype=np.int64)
    for axis, lo, edge, size in zip(range(3), (r.x_min, r.y_min, r.z_min),
                                    (cfg.vx, cfg.vy, cfg.vz), cfg.grid_shape):
        cell = points[:, axis] - lo
        cell /= edge
        np.floor(cell, out=cell)
        np.clip(cell, 0, size - 1, out=cells[axis], casting="unsafe")
    return cells.T


def _group(
    cloud: PointCloud,
    cfg: VoxelConfig,
    mode: VoxelMode,
    max_points_per_voxel: int,
    max_voxels: int,
) -> VoxelGrid:
    """Group the in-range points into voxels numbered by first arrival,
    storing the first max_points_per_voxel points of each voxel and only
    the first max_voxels voxels, with the drop accounting of voxelize_hard."""
    points = cloud.points
    inside = np.flatnonzero(cfg.range.contains(points))
    nx, ny, nz = cfg.grid_shape
    cells = voxel_coords(points, cfg).T  # (3, N), one row per axis
    keys = cells[0] * ny
    keys += cells[1]
    keys *= nz
    keys += cells[2]
    keys = keys[inside]
    # The one sort makes each voxel's points one run of equal keys, in arrival
    # order. Tagged with its arrival i as key * n + i, every key is distinct,
    # so NumPy's in-place SIMD sort gives the stable order: the quotient by n
    # is the sorted key and the remainder the point's arrival. The check is
    # on Python ints; past it a tagged key could wrap, and a stable argsort
    # of the untagged keys gives the same order.
    n = len(keys)
    if nx * ny * nz * n <= _INT64_MAX:
        keys *= n
        keys += np.arange(n)
        keys.sort()
        order = keys
        keys = order // n
        order -= keys * n
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    opens = np.empty(len(keys), dtype=bool)  # the sorted point opens a run
    opens[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=opens[1:])
    del keys
    starts = np.flatnonzero(opens)
    num_voxels = min(len(starts), max_voxels)
    dropped_voxels = len(starts) - num_voxels
    # A voxel's number counts the voxels whose first point arrives before
    # its own, so marking the first points in arrival order numbers them.
    first = order[starts]
    lead = np.zeros(len(order), dtype=bool)
    lead[first] = True
    coords = cells.take(inside[np.flatnonzero(lead)[:num_voxels]], axis=1).T
    del cells
    voxel = np.cumsum(lead)[first] - 1
    del first, lead
    run = np.cumsum(opens)
    run -= 1
    del opens
    voxel = voxel[run]
    # The sorted point's rank among its voxel's points is its offset in the run.
    stored = (np.arange(len(order)) - starts[run] < max_points_per_voxel) & (voxel < max_voxels)
    del run, starts
    voxel = voxel[stored]
    point_voxel = np.full(len(cloud), -1, dtype=np.int64)
    point_voxel[inside[order[stored]]] = voxel
    del inside, order, stored, voxel
    # Read in arrival order, each voxel's points are added in arrival order,
    # as a running per-voxel sum would, and each column is read forward.
    kept = np.flatnonzero(point_voxel >= 0)
    voxel = point_voxel[kept]
    stored_counts = np.bincount(voxel, minlength=num_voxels)
    features = np.empty((num_voxels, 5))
    for column in range(5):
        np.divide(np.bincount(voxel, weights=points[:, column][kept], minlength=num_voxels),
                  stored_counts, out=features[:, column])
    return VoxelGrid(
        coords=coords,
        counts=stored_counts,
        features=features,
        point_voxel=point_voxel,
        mode=mode,
        dropped_points=n - len(voxel),
        dropped_voxels=dropped_voxels,
    )


def voxelize_dynamic(cloud: PointCloud, cfg: VoxelConfig = VoxelConfig()) -> VoxelGrid:
    """Voxelize without caps: every in-range point is stored, none dropped."""
    # No voxel holds more than every point, and no cloud fills more voxels.
    return _group(cloud, cfg, VoxelMode.DYNAMIC, len(cloud), len(cloud))


def voxelize_hard(cloud: PointCloud, cfg: VoxelConfig = VoxelConfig()) -> VoxelGrid:
    """Voxelize with caps, first-arrival order.

    A voxel keeps at most max_points_per_voxel points; later arrivals count
    toward dropped_points. Once max_voxels distinct voxels exist, points
    mapping to new voxels are dropped and each refused distinct voxel bumps
    dropped_voxels once. Mean features cover kept points only.
    """
    return _group(cloud, cfg, VoxelMode.HARD, cfg.max_points_per_voxel, cfg.max_voxels)
