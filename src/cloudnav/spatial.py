"""KD-trees over point clouds and the dual time-accumulated local map.

The local map cycles `TREE_COUNT` KD-trees: each tree holds the
voxel-filtered accumulation of up to `scans_per_tree` consecutive scans, so
together the trees cover a bounded window of recent sensor history and space
vacated by moving obstacles becomes free again once the window rolls past.
Collision checks always consult every tree.

The tree being filled is not re-filtered from its raw scans on every update:
the map keeps running per-voxel coordinate sums and counts for it and folds
each new scan into them, so an update costs O(scan + voxels) instead of
O(H * scan). The result is bit-identical to `core.voxel_filter` over the
concatenated block (see `TemporalLocalMap`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud, Trajectory, sample_times, save_cloud_txt, voxel_keys


class KdTree:
    """3-d tree answering one query exactly: the distance from each query point
    to its nearest stored point, capped at a radius.

    Backed by scipy's cKDTree; this wrapper adds empty-set handling and
    inclusive radius semantics (distance <= r).

    The tree splits at the sliding midpoint and keeps each node's full box
    (`balanced_tree=False, compact_nodes=False`): that builds in about half the
    time of scipy's median-split, shrunk-box default and answers the same
    distances. (Unbalanced splits alone are slower to query.)
    """

    def __init__(self, points: np.ndarray | None = None):
        pts = np.empty((0, 3)) if points is None else np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = np.empty((0, 3))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        self._points = pts
        self._kd = cKDTree(pts, balanced_tree=False, compact_nodes=False) if len(pts) else None

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def size(self) -> int:
        return len(self._points)

    def nearest_distance(self, pts: np.ndarray, r: float) -> np.ndarray:
        """Per query point of `pts` (..., 3), the distance to the nearest stored
        point if it is below the padded bound r + 1e-9, else inf."""
        if self._kd is None:
            return np.full(np.shape(pts)[:-1], np.inf)
        # cKDTree's bound is exclusive; pad it so exact-boundary hits survive
        return self._kd.query(pts, k=1, distance_upper_bound=r + 1e-9)[0]

    def any_within(self, pts: np.ndarray, r: float) -> np.ndarray:
        """Boolean per query point of `pts` (N, 3): is any stored point within
        distance r (inclusive)?"""
        return self.nearest_distance(pts, r) <= r


# The paper's two trees: one filling while the other still holds the window before it.
TREE_COUNT = 2


@dataclass(frozen=True)
class MapConfig:
    scans_per_tree: int = 50
    resolution: float = 0.1

    def __post_init__(self):
        if self.scans_per_tree < 1:
            raise ValueError("scans_per_tree must be >= 1")
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")


@dataclass
class MapUpdateInfo:
    tree_index: int
    wrapped: bool
    raw_accumulated: int
    filtered_size: int
    filter_seconds: float
    build_seconds: float
    total_seconds: float


class TemporalLocalMap:
    """Rolling local map of `TREE_COUNT` KD-trees fed by consecutive scans.

    Update rule per new scan: once every tree has received its quota of scans
    the counters reset and tree 0 is overwritten; otherwise the target tree is
    scan_input_num // scans_per_tree. A fresh accumulation starts whenever
    scan_input_num is a multiple of scans_per_tree, and the target tree is
    rebuilt from scratch from the voxel centroids of its accumulation.

    The accumulation is kept as running voxel sums, not as raw scans: sorted
    packed voxel keys, per-voxel x/y/z sums and per-voxel point counts. Each
    scan's points are added to the sums one at a time in arrival order, and
    the centroids are sums / counts in key order. `core.voxel_filter` sums
    each voxel with `np.bincount`, which also adds left to right starting
    from 0.0, so the running sums round exactly as re-filtering the
    concatenated block would and the trees are bit-identical to it. (Summing
    the new scan per voxel first and then adding that partial sum would
    round differently.)
    """

    def __init__(self, config: MapConfig):
        self.config = config
        self.total_scans = 0
        self.trees: list[KdTree] = [KdTree() for _ in range(TREE_COUNT)]
        self._stamps = [0.0] * TREE_COUNT  # stamp of the scan each tree was last built from
        self._reset_accumulation()

    @property
    def scan_input_num(self) -> int:
        """Scans into the current cycle of `TREE_COUNT` trees."""
        return self.total_scans % (self.config.scans_per_tree * TREE_COUNT)

    def _reset_accumulation(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._sums = [np.empty(0) for _ in range(3)]  # per-voxel x, y and z sums
        self._counts = np.empty(0, dtype=np.int64)
        self._raw = 0

    def _fold(self, points: np.ndarray, keys: np.ndarray) -> None:
        """Add `points` (with their voxel `keys`) to the running sums, in order."""
        uniq, inverse, added = np.unique(keys, return_inverse=True, return_counts=True)
        pos = np.searchsorted(self._keys, uniq)
        known = pos < len(self._keys)
        known[known] = self._keys[pos[known]] == uniq[known]
        fresh = ~known
        if fresh.any():
            # each key moves right by the number of fresh keys sorted before it;
            # the old entries fill the slots the fresh keys leave free (one 1-d
            # scatter per array: scattering (n, 3) rows costs ten times more)
            pos = pos + np.cumsum(fresh) - fresh
            old = np.ones(len(self._keys) + int(fresh.sum()), dtype=bool)
            old[pos[fresh]] = False
            arrays = (self._keys, *self._sums, self._counts)
            grown = [np.zeros(len(old), dtype=a.dtype) for a in arrays]
            for new, a in zip(grown, arrays):
                new[old] = a
            self._keys, *self._sums, self._counts = grown
            self._keys[pos[fresh]] = uniq[fresh]
        self._counts[pos] += added
        slot = pos[inverse]
        for axis in range(3):
            np.add.at(self._sums[axis], slot, points[:, axis])
        self._raw += len(points)

    def update(self, new_scan: PointCloud) -> MapUpdateInfo:
        cfg = self.config
        t_start = time.perf_counter()
        # validated before any state changes: a rejected scan leaves the map as it was
        keys = voxel_keys(new_scan.points, cfg.resolution)
        n = self.scan_input_num
        # the scan that starts a new cycle overwrites tree 0 wholesale
        wrapped = n == 0 and self.total_scans > 0
        tree_index = n // cfg.scans_per_tree
        if n % cfg.scans_per_tree == 0:
            self._reset_accumulation()
        self._fold(new_scan.points, keys)
        centroids = np.column_stack([s / self._counts for s in self._sums])  # voxel_filter's layout
        t_build = time.perf_counter()
        self.trees[tree_index] = KdTree(centroids)
        self._stamps[tree_index] = new_scan.stamp
        t_end = time.perf_counter()
        self.total_scans += 1
        return MapUpdateInfo(
            tree_index=tree_index,
            wrapped=wrapped,
            raw_accumulated=self._raw,
            filtered_size=len(centroids),
            filter_seconds=t_build - t_start,
            build_seconds=t_end - t_build,
            total_seconds=t_end - t_start,
        )

    @property
    def tree_sizes(self) -> list[int]:
        return [t.size for t in self.trees]

    def tree_cloud(self, index: int) -> PointCloud:
        return PointCloud(points=self.trees[index].points, stamp=self._stamps[index])

    def any_within(self, pts: np.ndarray, r: float) -> np.ndarray:
        """Boolean per query point: is any point of any tree within distance r (inclusive)?
        One query of the first non-empty tree, then of each next tree on the misses only."""
        pts = np.atleast_2d(pts)
        trees = [tree for tree in self.trees if tree.size]
        if not trees:
            return np.zeros(len(pts), dtype=bool)
        hit = trees[0].any_within(pts, r)
        for tree in trees[1:]:
            miss = np.flatnonzero(~hit)
            if len(miss) == 0:
                break
            hit[miss] = tree.any_within(pts[miss], r)
        return hit

    def nearest_distance(self, q, r: float) -> float:
        """Distance from point `q` to the nearest point of any tree if it is
        below `KdTree.nearest_distance`'s padded bound r + 1e-9, else inf."""
        return min(float(tree.nearest_distance(q, r)) for tree in self.trees)


def check_trajectory(
    local_map: TemporalLocalMap,
    traj: Trajectory,
    clearance: float,
    dt: float,
    t_from: float | None = None,
):
    """First sample time at which the trajectory comes within `clearance` of any
    map point, or None if the sampled remainder is clear.

    Sampling starts at `t_from` (default: trajectory start), steps by `dt`, and
    always includes the exact end time.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    start = traj.t0 if t_from is None else max(t_from, traj.t0)
    remaining = traj.t_end - start
    if remaining <= 0:
        ts = np.array([traj.t_end])
    else:
        ts = sample_times(start, remaining, dt)
    P, _, _ = traj.states_at(ts)
    hits = local_map.any_within(P, clearance)
    if hits.any():
        return float(ts[int(np.argmax(hits))])
    return None


def dump_map(local_map: TemporalLocalMap, out_dir) -> None:
    """Per-tree cloud files in the columnar text format plus a counters line."""
    os.makedirs(out_dir, exist_ok=True)
    for i in range(TREE_COUNT):
        save_cloud_txt(local_map.tree_cloud(i), os.path.join(out_dir, f"tree{i}.txt"))
    sizes = " ".join(str(s) for s in local_map.tree_sizes)
    with open(os.path.join(out_dir, "counters.txt"), "w") as f:
        f.write(f"scan_input_num {local_map.scan_input_num}\n")
        f.write(f"total_scans {local_map.total_scans}\n")
        f.write(f"tree_sizes {sizes}\n")
