import math
import tracemalloc

import numpy as np
import pytest

from cloudnav.cli import resolve_scenario_path
from cloudnav.core import PointCloud
from cloudnav.gridmap import (
    CLAMP_MAX,
    CLAMP_MIN,
    LOG_ODDS_HIT,
    LOG_ODDS_MISS,
    MAX_GRID_CELLS,
    GridConfig,
    OccupancyGrid,
    bar_cells,
    export_grid_rows,
    thin_object_experiment,
)
from cloudnav.scenario import load_scenario, scenario_from_dict
from cloudnav.sensor import Capsule, Obstacle


def make_grid(resolution=0.3, origin=(-3, -3, -3), size=(12, 6, 6), **kw):
    return OccupancyGrid(
        GridConfig(resolution=resolution, origin=np.array(origin, float), size=np.array(size, float), **kw)
    )


def dense_sample_cells(grid, origin, end, step_divisor=10):
    """Oracle: cells touched by points sampled densely along the segment."""
    cfg = grid.config
    origin = np.asarray(origin, float)
    end = np.asarray(end, float)
    n = max(int(np.ceil(np.linalg.norm(end - origin) / (cfg.resolution / step_divisor))), 1)
    ts = np.linspace(0.0, 1.0, n + 1)
    pts = origin + ts[:, None] * (end - origin)
    cells = np.floor((pts - cfg.origin) / cfg.resolution).astype(np.int64)
    ok = cfg.in_bounds(cells)
    return {tuple(c) for c in cells[ok]}


def segment_intersects_cell(grid, origin, end, cell, eps=1e-9):
    """Slab test: does the segment pass through the cell's box (fattened by eps)?"""
    cfg = grid.config
    lo = cfg.origin + np.asarray(cell, float) * cfg.resolution - eps
    hi = lo + cfg.resolution + 2 * eps
    d = np.asarray(end, float) - np.asarray(origin, float)
    ta, tb = 0.0, 1.0
    for ax in range(3):
        if abs(d[ax]) < 1e-15:
            if origin[ax] < lo[ax] or origin[ax] > hi[ax]:
                return False
            continue
        t1 = (lo[ax] - origin[ax]) / d[ax]
        t2 = (hi[ax] - origin[ax]) / d[ax]
        if t1 > t2:
            t1, t2 = t2, t1
        ta, tb = max(ta, t1), min(tb, t2)
    return ta <= tb


def test_grid_config_refuses_more_cells_than_the_ceiling():
    # CompareConfig's default extent at 5 cm: 140 * 160 * 90 = 2 016 000 cells
    assert np.prod(GridConfig(resolution=0.05, origin=np.zeros(3), size=[7.0, 8.0, 4.5]).shape) == 2_016_000
    for resolution, size in ((1e-3, [7.0, 8.0, 4.5]), (1.0, [1e6, 1e6, 1e6]), (1e-300, [1e300, 1.0, 1.0])):
        with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
            GridConfig(resolution=resolution, origin=np.zeros(3), size=size)
    edge = [MAX_GRID_CELLS / 100, 10.0, 10.0]
    assert np.prod(GridConfig(resolution=1.0, origin=np.zeros(3), size=edge).shape) == MAX_GRID_CELLS
    with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
        GridConfig(resolution=1.0, origin=np.zeros(3), size=[edge[0] + 0.5, 10.0, 10.0])


def test_single_ray_bookkeeping():
    grid = make_grid(resolution=0.3)
    scan = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
    grid.integrate_scan([0, 0, 0], scan)
    end_cell = tuple(grid.config.cells([1.0, 0, 0]))
    assert grid.log_odds[end_cell] == pytest.approx(LOG_ODDS_HIT)
    decreased = np.argwhere(grid.log_odds < 0)
    assert len(decreased) == 3  # cells strictly before the endpoint on the ray
    for c in decreased:
        assert grid.log_odds[tuple(c)] == pytest.approx(LOG_ODDS_MISS)


def test_axis_aligned_ray_cell_count():
    grid = make_grid(resolution=0.3)
    for L in (0.9, 1.5, 2.4):
        ray_idx, cells = grid.traverse([0.01, 0.01, 0.01], np.array([[0.01 + L, 0.01, 0.01]]))
        expected = int(np.ceil(L / 0.3))
        assert abs(len(cells) - expected) <= 1


def test_traversal_complete_and_sound_vs_dense_sampling():
    grid = make_grid(resolution=0.3, origin=(-4, -4, -4), size=(8, 8, 8))
    rng = np.random.default_rng(0)
    n_rays = 1000
    origin = np.array([0.1, -0.2, 0.3])
    ends = rng.uniform(-3.9, 3.9, (n_rays, 3))
    ray_idx, cells = grid.traverse(origin, ends)
    by_ray = {}
    for r, c in zip(ray_idx, cells):
        by_ray.setdefault(int(r), set()).add(tuple(c))
    for i in range(n_rays):
        got = by_ray.get(i, set())
        want = dense_sample_cells(grid, origin, ends[i])
        # completeness: every densely-sampled cell is traversed
        assert want <= got, f"ray {i} missing cells {want - got}"
        # soundness: every traversed cell really intersects the segment
        for c in got - want:
            assert segment_intersects_cell(grid, origin, ends[i], c), f"ray {i} bogus cell {c}"
        # each cell visited at most once per ray
        ray_cells = [tuple(c) for r, c in zip(ray_idx, cells) if r == i]
        assert len(ray_cells) == len(set(ray_cells))


def test_traversal_clipped_to_grid():
    grid = make_grid(resolution=0.5, origin=(0, 0, 0), size=(2, 2, 2))
    # ray passes through the grid but starts and ends outside
    ray_idx, cells = grid.traverse([-1.0, 0.25, 0.25], np.array([[5.0, 0.25, 0.25]]))
    assert len(cells) == 4
    assert grid.config.in_bounds(cells).all()
    # fully outside: nothing
    ray_idx, cells = grid.traverse([-1.0, 5.0, 0.25], np.array([[5.0, 5.0, 0.25]]))
    assert len(cells) == 0


def test_log_odds_clamped_after_arbitrary_updates():
    grid = make_grid(resolution=0.3)
    scan = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
    for _ in range(40):
        grid.integrate_scan([0, 0, 0], scan)
    assert grid.log_odds.max() <= CLAMP_MAX + 1e-12
    assert grid.log_odds.min() >= CLAMP_MIN - 1e-12
    end_cell = tuple(grid.config.cells([1.0, 0, 0]))
    assert grid.log_odds[end_cell] == pytest.approx(CLAMP_MAX)


def test_update_cost_scales_with_ray_length():
    grid = make_grid(resolution=0.1, origin=(0, -3, -3), size=(10, 6, 6))
    short = PointCloud(points=np.tile([2.0, 0.0, 0.0], (50, 1)))
    long = PointCloud(points=np.tile([8.0, 0.0, 0.0], (50, 1)))
    origin = [0.05, 0.05, 0.05]
    ratio = len(grid.traverse(origin, long.points)[1]) / len(grid.traverse(origin, short.points)[1])
    assert 3.5 <= ratio <= 4.5  # 8 m vs 2 m of cells


def test_occupied_threshold_and_probabilities(tmp_path):
    grid = make_grid()
    scan = PointCloud(points=np.array([[1.0, 0.0, 0.0]]))
    grid.integrate_scan([0, 0, 0], scan)
    hit = tuple(grid.config.cells([1.0, 0, 0]))
    occ = grid.occupied_mask()
    assert occ[hit]
    assert occ.sum() == 1
    path = tmp_path / "grid.txt"
    export_grid_rows(grid, path)
    header, *rows = path.read_text().splitlines()
    assert header == "i j k probability"
    assert len(rows) == 4  # one hit cell + three miss cells
    probs = {tuple(int(x) for x in r.split()[:3]): float(r.split()[3]) for r in rows}
    assert probs[hit] > 0.5
    assert all(p < 0.5 for c, p in probs.items() if c != hit)


def _mini_compare_scenario(frames=8):
    return scenario_from_dict(
        {
            "name": "mini_compare",
            "duration": 1.0,
            "seed": 3,
            "goal": [4.0, 0.0, 1.0],
            "start": {"position": [0.0, 0.0, 1.0], "yaw": 0.0},
            "sensor": {"points_per_second": 60000},
            "obstacles": [
                {"name": "bar", "shape": "capsule", "p0": [3.0, 0.0, 0.2], "p1": [3.0, 0.0, 2.2], "radius": 0.01},
                {"name": "wall", "shape": "box", "lo": [5.0, -3.8, -0.6], "hi": [5.3, 3.8, 4.6]},
            ],
            "compare": {
                "frames": frames,
                "sweep": [0.3],
                "origin": [2.0, -1.5, -0.5],
                "size": [2.1, 3.0, 3.6],
            },
        }
    )


def test_thin_object_experiment_qualitative_ordering():
    report = thin_object_experiment(_mini_compare_scenario())
    assert report["pointcloud_bar_points"] > 0
    assert report["bar_cell_occupied_fraction"] <= report["no_wall_occupied_fraction"]
    assert report["no_wall_occupied_fraction"] > 0.5  # hits only, no see-through


def test_bar_cells_cover_bar_column():
    scenario = _mini_compare_scenario()
    config = GridConfig(resolution=0.3, origin=[2.0, -1.5, -0.5], size=[2.1, 3.0, 3.6])
    cells = bar_cells(config, scenario.obstacle_by_name("bar"), 0.0)
    assert len(cells) >= 6  # 2 m bar at 0.3 m cells
    xs = {c[0] for c in cells}
    ys = {c[1] for c in cells}
    assert len(xs) <= 2 and len(ys) <= 2  # a thin vertical column


def _full_axis_samples(bar, t, resolution):
    """Every axis sample of the bar, np.linspace over its whole length, ten per cell."""
    off = bar.offset_at(float(t))
    p0, p1 = bar.shape.p0 + off, bar.shape.p1 + off
    n = max(int(math.ceil(np.linalg.norm(p1 - p0) / (resolution / 10))), 1)
    return p0 + np.linspace(0.0, 1.0, n + 1)[:, None] * (p1 - p0)


def _full_axis_cells(config, bar, t):
    """Oracle: bar_cells from every axis sample, kept or not."""
    axis = _full_axis_samples(bar, t, config.resolution)
    r = bar.shape.radius
    offsets = np.array([[0, 0, 0], [r, 0, 0], [-r, 0, 0], [0, r, 0], [0, -r, 0], [0, 0, r], [0, 0, -r]])
    cells = config.cells((axis[:, None, :] + offsets).reshape(-1, 3))
    return {tuple(c) for c in cells[config.in_bounds(cells)]}


def _capsule_bar(p0, p1, radius=0.01):
    return Obstacle(shape=Capsule(p0=p0, p1=p1, radius=radius), name="bar")


def test_bar_cells_samples_only_the_axis_range_that_reaches_the_grid(monkeypatch):
    """bar_cells takes a contiguous run of the full np.linspace axis samples, bit for
    bit, and finds the same cells as all of them: on the bundled scene's sweep, on
    grids that cut the bar, and for bars that lie flat along an axis or miss the grid."""
    scenario = load_scenario(resolve_scenario_path("thin_bar_compare"))
    comp = scenario.compare
    bundled_bar = scenario.obstacle_by_name("bar")
    cases = [(GridConfig(resolution=res, origin=comp.origin, size=comp.size), bundled_bar) for res in comp.sweep]
    cut = GridConfig(resolution=0.05, origin=[2.8, -0.2, 1.0], size=[0.4, 0.4, 0.6])
    cases += [
        (cut, bundled_bar),
        (GridConfig(resolution=0.1, origin=[0.0, 0.0, 0.0], size=[2.0, 2.0, 2.0]),
         _capsule_bar([-3.0, -2.0, -1.0], [7.0, 3.0, 4.0])),
        (GridConfig(resolution=0.1, origin=[0.0, 0.0, 0.0], size=[2.0, 2.0, 2.0]),
         _capsule_bar([5.0, 1.0, 1.0], [-3.0, 1.0, 1.0])),  # flat in y and z, runs toward -x
        (cut, _capsule_bar([3.0, 5.0, 0.2], [3.0, 5.0, 2.2])),  # misses the grid
    ]
    seen = []
    cells_of = GridConfig.cells
    monkeypatch.setattr(GridConfig, "cells", lambda self, pts: seen.append(pts) or cells_of(self, pts))
    sampled = []
    for config, bar in cases:
        seen.clear()
        cells = bar_cells(config, bar, comp.last_scan_time)
        if not seen:  # the bar cannot reach the grid
            assert cells == _full_axis_cells(config, bar, comp.last_scan_time) == set()
            sampled.append(0)
            continue
        axis = seen[0].reshape(-1, 7, 3)[:, 0]  # the first offset is zero
        full = _full_axis_samples(bar, comp.last_scan_time, config.resolution)
        i0 = int(np.nonzero((full == axis[0]).all(axis=1))[0][0])
        assert full[i0 : i0 + len(axis)].tobytes() == axis.tobytes()
        assert cells and cells == _full_axis_cells(config, bar, comp.last_scan_time)
        sampled.append((len(axis), len(full)))
    # the bundled grids hold the whole bar; the others take only the samples near the grid
    assert all(k == n for k, n in sampled[: len(comp.sweep)])
    assert all(k < n for k, n in sampled[len(comp.sweep) : -1])


def test_bar_cells_memory_grows_with_the_grid_not_the_bar():
    """A 10 km bar through a 2 m grid: sampling the whole axis at 5 mm would take
    2e6 samples, about 0.7 GB; only the samples near the grid are made."""
    config = GridConfig(resolution=0.05, origin=[0.0, 0.0, 0.0], size=[2.0, 2.0, 2.0])
    bar = _capsule_bar([-5000.0, 1.02, 1.02], [5000.0, 1.02, 1.02])
    tracemalloc.start()
    try:
        cells = bar_cells(config, bar, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert cells == {(i, 20, 20) for i in range(40)}
