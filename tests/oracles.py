"""Reference code that only tests call.

`voxel_filter` is criterion 1's oracle for the map's running voxel sums, and
`load_cloud_txt` reads back the point clouds `save_cloud_txt` writes.
"""

import numpy as np

from cloudnav.core import PointCloud, voxel_keys


def voxel_filter(cloud: PointCloud, resolution: float) -> PointCloud:
    """Downsample to one centroid per occupied voxel of a world-anchored grid.

    Output points are ordered by packed voxel key, so the result is a pure
    function of the input point set.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    pts = cloud.points
    if len(pts) == 0:
        return PointCloud(points=np.empty((0, 3)), stamp=cloud.stamp)
    keys = voxel_keys(pts, resolution)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    n = counts.astype(float)
    cx = np.bincount(inverse, weights=pts[:, 0]) / n
    cy = np.bincount(inverse, weights=pts[:, 1]) / n
    cz = np.bincount(inverse, weights=pts[:, 2]) / n
    return PointCloud(points=np.column_stack([cx, cy, cz]), stamp=cloud.stamp)


def load_cloud_txt(path) -> PointCloud:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4 or header[0] != "stamp" or header[2] != "count":
            raise ValueError(f"bad point-cloud header in {path}: {header}")
        stamp = float(header[1])
        count = int(header[3])
        pts = np.loadtxt(f, ndmin=2) if count else np.empty((0, 3))
    if pts.shape[0] != count:
        raise ValueError(f"{path}: header count {count} != {pts.shape[0]} rows")
    return PointCloud(points=pts, stamp=stamp)
