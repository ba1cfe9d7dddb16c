"""Log-odds ray-casting occupancy grid, for comparison against the point-cloud map.

Thin objects in front of background surfaces get "seen through": most rays that
traverse a thin obstacle's cell endpoint on the background, so miss updates
outnumber hits and the cell never crosses the occupancy threshold, while the
same returns stay plainly visible in the point-cloud map. This module exists to
reproduce that ordering; it is not a general-purpose mapping backend.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import PointCloud
from .sensor import FRAME_DT, RANGE_NOISE_BOUND, Environment, generate_scan, slab_interval, yaw_rotation
from .spatial import TemporalLocalMap, dump_map

# OctoMap's default sensor model: hit and miss updates for p = 0.7 and 0.4,
# clamping at p = 0.12 and 0.97; a cell is occupied above p = 0.5 (log-odds 0).
LOG_ODDS_HIT = 0.85
LOG_ODDS_MISS = -0.4
CLAMP_MIN = -2.0
CLAMP_MAX = 3.5
# Ceiling on a grid's cells, so its log-odds array stays allocatable (80 MB).
MAX_GRID_CELLS = 10**7
# The obstacles the comparison reads: the thin bar, and the wall behind it that its ablation removes.
BAR, WALL = "bar", "wall"


@dataclass(frozen=True)
class GridConfig:
    resolution: float
    origin: np.ndarray  # world position of the (0,0,0) cell corner
    size: np.ndarray  # extent in meters, grid covers [origin, origin + size)
    shape: tuple = field(init=False)  # cells per axis, ceil(size / resolution)

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=float))
        if not self.resolution > 0:
            raise ValueError("resolution must be > 0")
        if not np.all(self.size > 0):
            raise ValueError("size must be positive on every axis")
        with np.errstate(over="ignore"):  # an extent past the float range counts as inf cells
            shape = np.ceil(self.size / self.resolution)
            cells = np.prod(shape)
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"{cells:g} cells at {self.resolution:g} m exceed MAX_GRID_CELLS = {MAX_GRID_CELLS:g}")
        object.__setattr__(self, "shape", tuple(int(n) for n in shape))

    def cells(self, points) -> np.ndarray:
        """Integer index of the cell holding each point (..., 3), in or out of the grid."""
        return np.floor((np.asarray(points, dtype=float) - self.origin) / self.resolution).astype(np.int64)

    def in_bounds(self, cells: np.ndarray) -> np.ndarray:
        return ((cells >= 0) & (cells < np.array(self.shape))).all(axis=-1)


class OccupancyGrid:
    """Dense grid of per-cell log-odds with hit/miss ray updates.

    Cell indexing uses the same world-anchored half-open convention as the
    voxel filter. Updates are applied per scan: every cell a ray traverses
    gets one miss, the endpoint cell gets one hit instead, then all touched
    cells are clamped.
    """

    def __init__(self, config: GridConfig):
        self.config = config
        self.log_odds = np.zeros(config.shape, dtype=float)

    def occupied_mask(self) -> np.ndarray:
        return self.log_odds > 0.0

    def traverse(self, origin, ends: np.ndarray):
        """Integer-grid traversal of each segment origin->ends[i], clipped to
        the grid. Returns (ray_index, cells) covering every cell each segment
        passes through exactly once.
        """
        cfg = self.config
        res, shape = cfg.resolution, np.array(cfg.shape)
        origin = np.asarray(origin, dtype=float)
        d = np.atleast_2d(np.asarray(ends, dtype=float)) - origin
        t_near, t_far = slab_interval(cfg.origin, cfg.origin + shape * res, origin, d)
        ta, tb = np.maximum(t_near, 0.0), np.minimum(t_far, 1.0)
        idx = np.nonzero(ta <= tb)[0]
        # The clip takes the closed box, the cells are half-open: a segment enters a
        # cell iff the middle of its clip lies in one, as only a clip's ends or a
        # parallel axis can lie on a face. So one lying in an upper face's plane,
        # or touching the grid only on an upper face, enters none.
        mid = origin + (0.5 * (ta[idx] + tb[idx]))[:, None] * d[idx]
        idx = idx[cfg.in_bounds(cfg.cells(mid))]
        if len(idx) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
        d = d[idx]
        starts = origin + ta[idx, None] * d
        # a start or stop on the upper face, or a rounding outside the grid, goes to the face cell
        cell, end_cell = (np.clip(cfg.cells(x), 0, shape - 1) for x in (starts, origin + tb[idx, None] * d))

        step = np.where(d > 0, 1, -1).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_delta = res / np.abs(d)
            next_bound = cfg.origin + (cell + (step > 0)) * res
            t_max = (next_bound - starts) / d
        zero = np.abs(d) < 1e-15
        t_delta[zero] = t_max[zero] = np.inf

        out_rays, out_cells = [], []
        active = np.arange(len(idx))
        max_steps = int(np.abs(end_cell - cell).sum(axis=1).max()) + 1
        for _ in range(max_steps + 1):
            out_rays.append(idx[active])
            out_cells.append(cell[active].copy())
            # done once the end cell is reached (or numerically passed) on every axis
            done = (((cell[active] - end_cell[active]) * step[active]) >= 0).all(axis=1)
            keep = ~done
            if not keep.any():
                break
            active = active[keep]
            axis = np.argmin(t_max[active], axis=1)
            cell[active, axis] += step[active, axis]
            t_max[active, axis] += t_delta[active, axis]
            # numeric safety: keep indices inside the grid
            cell[active] = np.clip(cell[active], 0, shape - 1)
        return np.concatenate(out_rays), np.concatenate(out_cells)

    def integrate_scan(self, sensor_origin, scan: PointCloud) -> None:
        """Apply one scan: misses along each ray, a hit at each in-bounds endpoint."""
        cfg = self.config
        ends = scan.points
        ray_idx, cells = self.traverse(sensor_origin, ends)
        if len(cells) == 0:
            return

        end_cells = cfg.cells(ends)
        end_ok = cfg.in_bounds(end_cells)
        # a traversal record is the ray's endpoint cell iff it matches that
        # ray's (in-bounds) end cell; straight rays visit each cell once
        is_hit = end_ok[ray_idx] & (cells == end_cells[ray_idx]).all(axis=1)

        flat = np.ravel_multi_index(tuple(cells.T), cfg.shape)
        hit_counts = np.bincount(flat[is_hit], minlength=self.log_odds.size)
        miss_counts = np.bincount(flat[~is_hit], minlength=self.log_odds.size)
        delta = hit_counts * LOG_ODDS_HIT + miss_counts * LOG_ODDS_MISS
        flat_lo = self.log_odds.reshape(-1)
        touched = delta != 0
        flat_lo[touched] = np.clip(flat_lo[touched] + delta[touched], CLAMP_MIN, CLAMP_MAX)


def bar_cells(config: GridConfig, bar_obstacle, t: float) -> set:
    """Ground-truth set of the grid's cells overlapping the capsule bar at time t,
    computed by sampling its axis and surface ten times per cell."""
    shape = bar_obstacle.shape
    off = bar_obstacle.offset_at(float(t))
    p0 = shape.p0 + off
    p1 = shape.p1 + off
    r = shape.radius
    step = config.resolution / 10
    n = max(int(math.ceil(np.linalg.norm(p1 - p0) / step)), 1)
    # Only the samples u[i0..i1] of np.linspace(0, 1, n + 1) (u[i] = i * (1 / n), u[n] = 1)
    # whose points can reach the grid box widened by r and, against rounding, by a cell.
    pad = r + config.resolution
    hi = config.origin + np.multiply(config.shape, config.resolution) + pad
    (t_near,), (t_far,) = slab_interval(config.origin - pad, hi, p0, (p1 - p0)[None])
    u_lo, u_hi = max(t_near, 0.0), min(t_far, 1.0)
    if not u_lo <= u_hi:
        return set()
    i0, i1 = max(math.floor(u_lo * n) - 1, 0), min(math.ceil(u_hi * n) + 1, n)
    u = np.arange(i0, i1 + 1) * (1.0 / n)
    if i1 == n:
        u[-1] = 1.0
    axis_pts = p0 + u[:, None] * (p1 - p0)
    offsets = np.concatenate([np.zeros((1, 3)), r * np.eye(3), -r * np.eye(3)])
    cells = config.cells((axis_pts[:, None, :] + offsets[None, :, :]).reshape(-1, 3))
    return {tuple(c) for c in cells[config.in_bounds(cells)]}


def export_grid_rows(grid: OccupancyGrid, path) -> None:
    """Write `i j k probability` rows for every touched cell, for slice plots."""
    touched = np.nonzero(grid.log_odds != 0)
    probs = 1.0 - 1.0 / (1.0 + np.exp(grid.log_odds[touched]))
    with open(path, "w") as f:
        f.write("i j k probability\n")
        for i, j, k, p in zip(*touched, probs):
            f.write(f"{i} {j} {k} {p:.6f}\n")


def thin_object_experiment(scenario, export_dir=None) -> dict:
    """Feed identical scans, cast once per obstacle set, to a ray-cast occupancy
    grid and the temporal point-cloud map, then compare how each represents a
    thin bar.

    Reports the fraction of ground-truth bar cells that end up occupied, the
    number of bar-surface points held by the point-cloud map, the same fraction
    without the background wall (ablation), and a resolution sweep. With
    `export_dir` set, the main-resolution grid and the point-cloud map are
    written there for plotting. The main resolution is the sweep's first. The
    scenario needs a compare section, which the loader has checked: every grid
    holds a cell of the capsule bar.
    """
    comp = scenario.compare
    sensor = scenario.sensor
    bar = scenario.obstacle_by_name(BAR)
    pose_p = scenario.start_position
    R = yaw_rotation(scenario.start_yaw)

    def cast(env: Environment) -> list:
        rng = np.random.default_rng(scenario.seed)
        return [
            generate_scan(env, sensor, pose_p, R, k * FRAME_DT, rng, frame_index=k)
            for k in range(comp.frames)
        ]

    t_end = comp.last_scan_time

    def run_grid(resolution: float, scans: list) -> tuple:
        config = GridConfig(resolution=resolution, origin=comp.origin, size=comp.size)
        grid = OccupancyGrid(config)
        for scan in scans:
            grid.integrate_scan(pose_p, scan)
        cells = bar_cells(config, bar, t_end)
        occ = grid.occupied_mask()
        return sum(1 for c in cells if occ[c]) / len(cells), grid

    full = cast(scenario.environment())
    no_wall = cast(Environment([ob for ob in scenario.obstacles if ob.name != WALL]))

    # each resolution is built once, also one the sweep repeats
    grids = {res: run_grid(res, full) for res in dict.fromkeys(comp.sweep)}
    main_fraction, main_grid = grids[comp.sweep[0]]
    no_wall_fraction, _ = run_grid(comp.sweep[0], no_wall)

    # point-cloud side: the same scans through the temporal local map
    local_map = TemporalLocalMap(scenario.map_config)
    for scan in full:
        local_map.update(scan)
    tol = RANGE_NOISE_BOUND + scenario.map_config.resolution * math.sqrt(3) / 2
    union = np.concatenate([tree.points for tree in local_map.trees])  # empty trees are (0, 3)
    bar_points = int((np.abs(bar.distances(union, t_end)) <= tol).sum())

    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        export_grid_rows(main_grid, os.path.join(export_dir, "grid_occupancy.txt"))
        dump_map(local_map, os.path.join(export_dir, "pointcloud_map"))

    return {
        "frames": comp.frames,
        "grid_resolution": comp.sweep[0],
        "bar_cell_occupied_fraction": main_fraction,
        "pointcloud_bar_points": bar_points,
        "no_wall_occupied_fraction": no_wall_fraction,
        "resolution_sweep": {f"{res:g}": fraction for res, (fraction, _) in grids.items()},
        "map_tree_sizes": local_map.tree_sizes,
    }
