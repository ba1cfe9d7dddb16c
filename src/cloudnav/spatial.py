"""KD-trees over point clouds and the dual time-accumulated local map.

The local map cycles `TREE_COUNT` KD-trees: each tree holds the
voxel-filtered accumulation of up to `scans_per_tree` consecutive scans, so
together the trees cover a bounded window of recent sensor history and space
vacated by moving obstacles becomes free again once the window rolls past.

Every tree follows one build rule, ikd-Tree's lazy rebuild: it is built at
its second read, never at its first. An update stores the filling tree's
points, and makes the new map state a tree whose parts are the map's trees;
it builds nothing. A state's first read answers the least of its parts'
answers, each part reading by its own rule: a tree's first read answers from
a small tree over only the points in the query's box. A state's second read
builds it over its parts' points, into the `MapUpdateInfo.build_seconds` of
the update that made it. In a flight each map state is read once, by the
trajectory re-check, unless a plan reads it again, so most trees are never
built.

The tree being filled is not re-filtered from its raw scans on every update:
the map keeps running per-voxel coordinate sums and counts for it and folds
each new scan into them, so an update costs O(scan + voxels) instead of
O(H * scan). The result is bit-identical to the test oracle `voxel_filter`
(`tests/oracles.py`) over the concatenated block (see `TemporalLocalMap`).
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

    Backed by scipy's cKDTree, built at the second read (or by `build`) and
    never for an empty set; this wrapper adds inclusive radius semantics
    (distance <= r). A read of an unbuilt tree answers from a cKDTree over only
    the stored points that lie within the padded bound, plus a relative 1e-9 of
    it, of the query points' box on every axis (an empty box answers inf). A
    point left out is farther than the bound from every query point on some
    axis, so each answer comes from the same point pair through the same kernel
    as the full tree's, and a tree read once is never built.

    A tree made from `parts` holds the union of their points, concatenated
    when it is built. Unbuilt, it answers the least of its parts' answers, each
    part reading by its own rule: the nearest distance in a union is the least
    of the per-part ones, from the same point pair, so both answer the same
    bits. A build's seconds are added to `record`'s `build_seconds` only, if
    it has one.

    The tree splits at the sliding midpoint and keeps each node's full box
    (`balanced_tree=False, compact_nodes=False`): that builds in about half the
    time of scipy's median-split, shrunk-box default and answers the same
    distances. (Unbalanced splits alone are slower to query.)
    """

    def __init__(self, points, record: MapUpdateInfo | None = None, parts: tuple[KdTree, ...] = ()):
        """`points` (N, 3), or None for a tree made from `parts`."""
        if not parts:
            points = np.asarray(points, dtype=float)
            if points.ndim != 2 or points.shape[1] != 3:
                raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        self._points = points
        self._parts = parts
        self._record = record
        self._kd = None
        self._reads = 0

    def build(self) -> None:
        """Build the search tree now, if it holds points and is not built yet,
        adding the seconds it took to `record`."""
        if self._kd is not None or not self.size:
            return
        t0 = time.perf_counter()
        self._kd = cKDTree(self.points, balanced_tree=False, compact_nodes=False)
        if self._record is not None:
            self._record.build_seconds += time.perf_counter() - t0

    @property
    def points(self) -> np.ndarray:
        if self._parts:
            return np.concatenate([part.points for part in self._parts])
        return self._points

    @property
    def size(self) -> int:
        if self._parts:
            return sum(part.size for part in self._parts)
        return len(self._points)

    def _box_tree(self, pts, bound: float) -> cKDTree:
        """cKDTree over the stored points within `bound` * (1 + 1e-9) of the box
        around `pts` on every axis. Both sides of each test are differences,
        which round monotonically, so a point left out is farther than that pad
        from every query point on that axis, at any coordinate size; the pad's
        slack is far above the kernel's rounding of the squared bound."""
        q = np.asarray(pts, dtype=float).reshape(-1, 3)
        lo, hi = q.min(axis=0, initial=np.inf), q.max(axis=0, initial=-np.inf)
        pad = bound * (1 + 1e-9)
        keep = np.ones(len(self._points), dtype=bool)
        for axis in range(3):
            c = self._points[:, axis]
            keep &= c - hi[axis] <= pad
            keep &= lo[axis] - c <= pad
        return cKDTree(self._points[keep], balanced_tree=False, compact_nodes=False)

    def nearest_distance(self, pts: np.ndarray, r: float) -> np.ndarray:
        """Per query point of `pts` (..., 3), the distance to the nearest stored
        point if it is below the padded bound r + 1e-9, else inf. A non-finite
        query point raises ValueError, built or not."""
        self._reads += 1
        if self._reads > 1:
            self.build()
        if self._kd is None and self._parts:
            return np.minimum.reduce([part.nearest_distance(pts, r) for part in self._parts])
        # cKDTree's bound is exclusive; pad it so exact-boundary hits survive
        bound = r + 1e-9
        kd = self._kd if self._kd is not None else self._box_tree(pts, bound)
        return kd.query(pts, k=1, distance_upper_bound=bound)[0]

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
        if not self.scans_per_tree >= 1:
            raise ValueError("scans_per_tree must be >= 1")
        if not self.resolution > 0:
            raise ValueError("resolution must be > 0")


@dataclass
class MapUpdateInfo:
    tree_index: int
    wrapped: bool
    raw_accumulated: int
    filter_seconds: float
    build_seconds: float  # 0.0 until a second read builds its tree or its map state
    total_seconds: float  # update() alone: a later build adds to build_seconds only


class TemporalLocalMap:
    """Rolling local map of `TREE_COUNT` KD-trees fed by consecutive scans.

    Update rule per new scan: once every tree has received its quota of scans
    the counters reset and tree 0 is overwritten; otherwise the target tree is
    scan_input_num // scans_per_tree. A fresh accumulation starts whenever
    scan_input_num is a multiple of scans_per_tree, and the target tree is
    replaced by one over the voxel centroids of its accumulation.

    The accumulation is kept as running voxel sums, not as raw scans: sorted
    packed voxel keys, per-voxel x/y/z sums and per-voxel point counts. Each
    scan's points are added to the sums one at a time in arrival order, and
    the centroids are sums / counts in key order. The oracle `voxel_filter`
    sums each voxel with `np.bincount`, which also adds left to right starting
    from 0.0, so the running sums round exactly as re-filtering the
    concatenated block would and the trees are bit-identical to it. (Summing
    the new scan per voxel first and then adding that partial sum would
    round differently.)
    """

    def __init__(self, config: MapConfig):
        self.config = config
        self.total_scans = 0
        self.trees: list[KdTree] = [KdTree(np.empty((0, 3))) for _ in range(TREE_COUNT)]
        self._stamps = [0.0] * TREE_COUNT  # stamp of the scan each tree was last made from
        self._state = KdTree(None, parts=tuple(self.trees))  # the tree every query reads
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
        t_filtered = time.perf_counter()
        self._stamps[tree_index] = new_scan.stamp
        self.total_scans += 1
        info = MapUpdateInfo(
            tree_index=tree_index,
            wrapped=wrapped,
            raw_accumulated=self._raw,
            filter_seconds=t_filtered - t_start,
            build_seconds=0.0,
            total_seconds=time.perf_counter() - t_start,
        )
        self.trees[tree_index] = KdTree(centroids, info)  # its build, if any, is timed into info
        self._state = KdTree(None, info, parts=tuple(self.trees))  # and so is this state's
        return info

    @property
    def tree_sizes(self) -> list[int]:
        return [t.size for t in self.trees]

    def tree_cloud(self, index: int) -> PointCloud:
        return PointCloud(points=self.trees[index].points, stamp=self._stamps[index])

    def any_within(self, pts: np.ndarray, r: float) -> np.ndarray:
        """Boolean per query point: is any point of any tree within distance r (inclusive)?"""
        return self._state.any_within(np.atleast_2d(pts), r)

    def nearest_distance(self, q, r: float) -> float:
        """Distance from point `q` to the nearest point of any tree if it is
        below `KdTree.nearest_distance`'s padded bound r + 1e-9, else inf."""
        return float(self._state.nearest_distance(q, r))


def check_trajectory(
    local_map: TemporalLocalMap,
    traj: Trajectory,
    clearance: float,
    dt: float,
    t_from: float | None = None,
):
    """First sample time at which the trajectory comes within `clearance` of any
    map point, or None if the sampled remainder is clear.

    Sampling starts at `t_from` (default: trajectory start) clamped to
    [t0, t_end], steps by `dt`, and always includes the exact end time; from
    t_end on, the end sample is the only one.
    """
    start = traj.t0 if t_from is None else min(max(t_from, traj.t0), traj.t_end)
    ts = sample_times(start, traj.t_end - start, dt)
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
