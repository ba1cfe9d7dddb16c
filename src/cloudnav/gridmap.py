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
from dataclasses import dataclass

import numpy as np

from .core import PointCloud
from .sensor import FRAME_DT, RANGE_NOISE_SIGMA, Environment, generate_scan, yaw_rotation
from .spatial import TemporalLocalMap, dump_map

# OctoMap's default sensor model: hit and miss updates for p = 0.7 and 0.4,
# clamping at p = 0.12 and 0.97; a cell is occupied above p = 0.5 (log-odds 0).
LOG_ODDS_HIT = 0.85
LOG_ODDS_MISS = -0.4
CLAMP_MIN = -2.0
CLAMP_MAX = 3.5
# Ceiling on a grid's cells, so its log-odds array stays allocatable (80 MB).
MAX_GRID_CELLS = 10**7


@dataclass(frozen=True)
class GridConfig:
    resolution: float
    origin: np.ndarray  # world position of the (0,0,0) cell corner
    size: np.ndarray  # extent in meters, grid covers [origin, origin + size)

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=float))
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")
        if not np.all(self.size > 0):
            raise ValueError("size must be positive on every axis")
        with np.errstate(over="ignore"):  # an extent past the float range counts as inf cells
            cells = np.prod(np.ceil(self.size / self.resolution))
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"{cells:g} cells at {self.resolution:g} m exceed MAX_GRID_CELLS = {MAX_GRID_CELLS:g}")

    @property
    def shape(self) -> tuple:
        return tuple(int(math.ceil(s / self.resolution)) for s in self.size)


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

    def cell_of(self, p) -> tuple:
        c = np.floor((np.asarray(p, dtype=float) - self.config.origin) / self.config.resolution)
        return tuple(c.astype(np.int64))

    def in_bounds(self, cells: np.ndarray) -> np.ndarray:
        shape = np.array(self.config.shape)
        return ((cells >= 0) & (cells < shape)).all(axis=-1)

    def occupied_mask(self) -> np.ndarray:
        return self.log_odds > 0.0

    def probabilities(self) -> np.ndarray:
        return 1.0 - 1.0 / (1.0 + np.exp(self.log_odds))

    def _clip_segments(self, origin: np.ndarray, ends: np.ndarray):
        """Liang-Barsky clip of each segment origin->end to the grid box.

        Returns (ta, tb, valid): the surviving parameter range of each segment
        and whether it is non-empty.
        """
        lo = self.config.origin
        hi = lo + np.array(self.config.shape) * self.config.resolution
        d = ends - origin
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / d
            t2 = (hi - origin) / d
        parallel = np.abs(d) < 1e-15
        inside = (origin >= lo) & (origin <= hi)
        lows = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
        highs = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
        ta = np.maximum(lows.max(axis=1), 0.0)
        tb = np.minimum(highs.min(axis=1), 1.0)
        return ta, tb, ta <= tb

    def traverse(self, origin, ends: np.ndarray):
        """Integer-grid traversal of each segment origin->ends[i], clipped to
        the grid. Returns (ray_index, cells) covering every cell each segment
        passes through exactly once.
        """
        cfg = self.config
        res = cfg.resolution
        origin = np.asarray(origin, dtype=float)
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        ta, tb, valid = self._clip_segments(origin, ends)
        idx = np.nonzero(valid)[0]
        if len(idx) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
        d = ends[idx] - origin
        starts = origin + ta[idx, None] * d
        stops = origin + tb[idx, None] * d

        shape = np.array(cfg.shape)
        cell = np.floor((starts - cfg.origin) / res).astype(np.int64)
        np.clip(cell, 0, shape - 1, out=cell)
        end_cell = np.floor((stops - cfg.origin) / res).astype(np.int64)
        np.clip(end_cell, 0, shape - 1, out=end_cell)

        step = np.where(d > 0, 1, -1).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_delta = res / np.abs(d)
            next_bound = cfg.origin + (cell + (step > 0)) * res
            t_max = (next_bound - starts) / d
        zero = np.abs(d) < 1e-15
        t_delta[zero] = np.inf
        t_max[zero] = np.inf

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
        if len(scan) == 0:
            return
        origin = np.asarray(sensor_origin, dtype=float)
        ends = scan.points
        ray_idx, cells = self.traverse(origin, ends)
        if len(cells) == 0:
            return

        end_cells = np.floor((ends - cfg.origin) / cfg.resolution).astype(np.int64)
        end_ok = self.in_bounds(end_cells)
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

    def export_rows(self):
        """(i, j, k, probability) rows for every touched cell."""
        touched = np.nonzero(self.log_odds != 0)
        probs = self.probabilities()[touched]
        return [
            (int(i), int(j), int(k), float(p))
            for (i, j, k), p in zip(np.stack(touched, axis=1), probs)
        ]


def bar_cells(grid: OccupancyGrid, bar_obstacle, t: float) -> set:
    """Ground-truth set of grid cells overlapping the bar at time t, computed by
    sampling the capsule axis and surface ten times per cell."""
    shape = bar_obstacle.shape
    off = bar_obstacle.offset_at(float(t))
    p0 = shape.p0 + off
    p1 = shape.p1 + off
    r = shape.radius
    step = grid.config.resolution / 10
    n = max(int(math.ceil(np.linalg.norm(p1 - p0) / step)), 1)
    u = np.linspace(0.0, 1.0, n + 1)
    axis_pts = p0 + u[:, None] * (p1 - p0)
    offsets = np.array(
        [[0, 0, 0], [r, 0, 0], [-r, 0, 0], [0, r, 0], [0, -r, 0], [0, 0, r], [0, 0, -r]]
    )
    pts = (axis_pts[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    cells = np.floor((pts - grid.config.origin) / grid.config.resolution).astype(np.int64)
    ok = grid.in_bounds(cells)
    return {tuple(c) for c in cells[ok]}


def export_grid_rows(grid: OccupancyGrid, path) -> None:
    """Write `i j k probability` rows for every touched cell, for slice plots."""
    with open(path, "w") as f:
        f.write("i j k probability\n")
        for i, j, k, p in grid.export_rows():
            f.write(f"{i} {j} {k} {p:.6f}\n")


def thin_object_experiment(scenario, export_dir=None) -> dict:
    """Feed identical scans, cast once per obstacle set, to a ray-cast occupancy
    grid and the temporal point-cloud map, then compare how each represents a
    thin bar.

    Reports the fraction of ground-truth bar cells that end up occupied, the
    number of bar-surface points held by the point-cloud map, the same fraction
    without the background wall (ablation), and a resolution sweep. With
    `export_dir` set, the main-resolution grid and the point-cloud map are
    written there for plotting. The scenario needs a compare section;
    `cli.compare_maps` refuses one without.
    """
    comp = scenario.compare
    sensor = scenario.sensor
    bar = scenario.obstacle_by_name(comp.bar)
    wall = scenario.obstacle_by_name(comp.wall)
    pose_p = scenario.start_position
    R = yaw_rotation(scenario.start_yaw)

    def cast(obstacles: list) -> list:
        env = Environment(obstacles)
        rng = np.random.default_rng(scenario.seed)
        return [
            generate_scan(env, sensor, pose_p, R, k * FRAME_DT, rng, frame_index=k)
            for k in range(comp.frames)
        ]

    t_end = (comp.frames - 1) * FRAME_DT

    def run_grid(resolution: float, scans: list) -> tuple:
        grid = OccupancyGrid(
            GridConfig(resolution=resolution, origin=comp.origin, size=comp.size)
        )
        for scan in scans:
            grid.integrate_scan(pose_p, scan)
        cells = bar_cells(grid, bar, t_end)
        occ = grid.occupied_mask()
        occupied = sum(1 for c in cells if occ[c])
        fraction = occupied / len(cells) if cells else 0.0
        return fraction, grid

    full = cast(list(scenario.obstacles))
    no_wall = cast([ob for ob in scenario.obstacles if ob.name != wall.name])

    # each resolution is built once, also the main one when the sweep repeats it
    grids = {res: run_grid(res, full) for res in dict.fromkeys((comp.grid_resolution, *comp.sweep))}
    main_fraction, main_grid = grids[comp.grid_resolution]
    no_wall_fraction, _ = run_grid(comp.grid_resolution, no_wall)
    sweep = {res: grids[res][0] for res in comp.sweep}

    # point-cloud side: the same scans through the temporal local map
    local_map = TemporalLocalMap(scenario.map_config)
    for scan in full:
        local_map.update(scan)
    tol = 3.0 * RANGE_NOISE_SIGMA + scenario.map_config.resolution * math.sqrt(3) / 2
    union = np.concatenate([tree.points for tree in local_map.trees])  # empty trees are (0, 3)
    bar_points = int((np.abs(bar.distances(union, t_end)) <= tol).sum())

    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)
        export_grid_rows(main_grid, os.path.join(export_dir, "grid_occupancy.txt"))
        dump_map(local_map, os.path.join(export_dir, "pointcloud_map"))

    return {
        "frames": comp.frames,
        "grid_resolution": comp.grid_resolution,
        "bar_cell_occupied_fraction": main_fraction,
        "pointcloud_bar_points": bar_points,
        "no_wall_occupied_fraction": no_wall_fraction,
        "resolution_sweep": {f"{res:g}": frac for res, frac in sweep.items()},
        "map_tree_sizes": local_map.tree_sizes,
    }
