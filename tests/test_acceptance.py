"""Acceptance suite: one test per criterion, each printing a PASS line, and a
check that the battery workers fail on a warning.

Run with `pytest tests/test_acceptance.py -v -s`. The closed-loop seed
batteries (criteria 5 and 6), each flown on up to two worker processes,
dominate its runtime, about 75 s on a shared 2-core host.
"""

import itertools
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cloudnav.cli import resolve_scenario_path, run
from cloudnav.core import ConstantAccelSegment, PointCloud, UavState
from cloudnav.gridmap import thin_object_experiment
from cloudnav.planner import (
    PlannerConfig,
    PlanningFailed,
    analytic_expansion,
    heuristic,
    plan,
)
from cloudnav.scenario import load_scenario
from cloudnav.sensor import generate_scan, yaw_rotation
from cloudnav.sim import audit_ground_truth, simulate
from cloudnav.spatial import KdTree, MapConfig, TemporalLocalMap

from test_core import rk4_propagate
from test_planner import audit_trajectory, default_cfg, sphere_shell
from test_spatial import brute_nearest_distance, replay_tree_contents


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def random_scan_log(rng, n_scans, box=15.0):
    scans = []
    for i in range(n_scans):
        n = int(rng.integers(200, 600))
        scans.append(PointCloud(points=rng.uniform(0.0, box, (n, 3)), stamp=float(i)))
    return scans


def test_criterion_1_algorithm_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    scans = random_scan_log(rng, 300)
    for h, n in ((50, 2), (2, 2)):
        cfg = MapConfig(scans_per_tree=h, resolution=0.1)
        m = TemporalLocalMap(cfg)
        for i, scan in enumerate(scans):
            m.update(scan)
            want = replay_tree_contents(scans[: i + 1], h, n, cfg.resolution)
            for tree_idx, pts in want.items():
                assert np.array_equal(m.trees[tree_idx].points, pts), (
                    f"H={h} N={n} step {i} tree {tree_idx} diverged from replay oracle"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle equivalence run took {elapsed:.1f}s (budget 60s)"
    report("1", f"300-scan log exact vs replay oracle for H=50 and H=2 in {elapsed:.1f}s")


def test_criterion_2_query_exactness():
    rng = np.random.default_rng(1002)
    pts = rng.uniform(-4.0, 4.0, (5000, 3))
    tree = KdTree(pts)
    m = TemporalLocalMap(MapConfig(scans_per_tree=1, resolution=1e-4))
    half = len(pts) // 2
    m.update(PointCloud(points=pts[:half], stamp=0.0))
    m.update(PointCloud(points=pts[half:], stamp=1.0))
    checked = hits = 0
    for _ in range(1000):
        q = rng.uniform(-4.5, 4.5, 3)
        r = float(rng.uniform(0.05, 1.2))
        want = brute_nearest_distance(pts, q, r)
        assert tree.nearest_distance(q, r) == want
        assert tree.any_within(q[None, :], r)[0] == (want <= r)
        assert m.nearest_distance(q, r) == want
        assert m.any_within(q, r)[0] == (want <= r)
        checked += 1
        hits += bool(np.isfinite(want))
    assert 0 < hits < checked
    report("2", f"{checked} nearest-distance and any-within queries, single tree and dual-tree map, "
                f"match brute force exactly ({hits} within r)")


def test_criterion_3_double_integrator_and_expansion_accuracy():
    rng = np.random.default_rng(1003)
    worst_prop = 0.0
    for _ in range(60):
        s = UavState(t=0.0, p=rng.uniform(-5, 5, 3), v=rng.uniform(-2, 2, 3), a=np.zeros(3))
        u = rng.uniform(-2.0, 2.0, 3)
        tau = float(rng.uniform(0.05, 1.5))
        P, V, _ = ConstantAccelSegment(start=s, u=u, duration=tau).states_at([tau])
        p_ref, v_ref = rk4_propagate(s.p, s.v, u, tau)
        worst_prop = max(worst_prop, float(np.abs(P[0] - p_ref).max()))
        assert np.abs(P[0] - p_ref).max() <= 1e-9
        assert np.abs(V[0] - v_ref).max() <= 1e-9

    cfg = default_cfg()
    empty = TemporalLocalMap(MapConfig())
    worst_bc = 0.0
    accepted = 0
    for _ in range(60):
        state = UavState(
            t=0.0, p=rng.uniform(-2, 2, 3), v=rng.uniform(-1.2, 1.2, 3), a=np.zeros(3)
        )
        goal = state.p + rng.uniform(-6, 6, 3)
        seg = analytic_expansion(state, goal, cfg, empty)
        if seg is None:
            # all candidate durations violated the limits; a valid outcome
            continue
        accepted += 1
        P, V, A = seg.states_at(np.array([0.0, seg.duration]))
        errs = [
            np.abs(P[0] - state.p).max(), np.abs(V[0] - state.v).max(),
            np.abs(A[0] - state.a).max(), np.abs(P[1] - goal).max(),
            np.abs(V[1]).max(), np.abs(A[1]).max(),
        ]
        worst_bc = max(worst_bc, float(max(errs)))
        assert max(errs) <= 1e-6
    assert accepted >= 30, f"only {accepted}/60 expansions accepted"
    report("3", f"closed form vs RK4 worst {worst_prop:.2e} m (<=1e-9); "
                f"{accepted} expansion segments, boundary worst {worst_bc:.2e} (<=1e-6)")


def _random_cluttered_scene(rng):
    """Point-cluster obstacles between a free start and goal region."""
    clusters = []
    for _ in range(int(rng.integers(3, 7))):
        center = np.array([rng.uniform(1.5, 5.5), rng.uniform(-2, 2), rng.uniform(-1, 1)])
        radius = rng.uniform(0.2, 0.5)
        clusters.append(sphere_shell(center, radius, n=int(rng.integers(80, 200))))
    pts = np.concatenate(clusters)
    start_p = np.array([0.0, rng.uniform(-0.5, 0.5), 0.0])
    goal = np.array([7.0, rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5)])
    keep = (np.linalg.norm(pts - start_p, axis=1) > 0.6) & (
        np.linalg.norm(pts - goal, axis=1) > 0.6
    )
    m = TemporalLocalMap(MapConfig(resolution=1e-4))
    m.update(PointCloud(points=pts[keep]))
    return m, UavState.hover(start_p), goal


def test_criterion_4_planner_postconditions_property_suite():
    rng = np.random.default_rng(1004)
    cfg = default_cfg()
    solved = 0
    h_bound_ok = 0
    for _ in range(110):
        m, start, goal = _random_cluttered_scene(rng)
        try:
            traj, rep = plan(start, goal, cfg, m)
        except PlanningFailed:
            continue  # a failure report is a valid outcome; violations are not
        P = audit_trajectory(traj, cfg, m)
        assert np.linalg.norm(P[-1] - goal) <= cfg.goal_tolerance + 1e-9
        if rep.cost >= heuristic(start.p, goal, cfg) - 1e-9:
            h_bound_ok += 1
        solved += 1
    assert solved >= 100, f"only {solved} scenes solved; need a meaningful sample"
    assert h_bound_ok == solved, "plan cost fell below the admissible heuristic"

    # unreachable goals: failure, never a violating trajectory
    sealed_cfg = default_cfg(max_expansions=400)
    for seed in range(5):
        srng = np.random.default_rng(2000 + seed)
        m = TemporalLocalMap(MapConfig(resolution=1e-4))
        m.update(PointCloud(points=sphere_shell([5, 0, 0], 1.2, n=4000)))
        with pytest.raises(PlanningFailed):
            plan(UavState.hover(srng.uniform(-0.3, 0.3, 3)), [5, 0, 0], sealed_cfg, m)
    report("4", f"{solved} cluttered scenes audited (speed/accel/clearance/goal), "
                "5 sealed goals failed cleanly")


def _fly(name: str, seed: int):
    """One closed-loop flight of a bundled scenario: its outcome, replan count and audit."""
    scenario = load_scenario(resolve_scenario_path(name))
    log = simulate(scenario, seed=seed)
    return log.outcome, log.replan_count, audit_ground_truth(log, scenario)


def _in_workers(fn, *iterables) -> list:
    """`fn` over the iterables, in order, on at most two spawned worker
    processes. pytest's warnings-as-errors filter does not reach them, so each
    worker sets it itself: a warning fails the test here as in-process."""
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=warnings.simplefilter, initargs=("error",)) as pool:
        return list(pool.map(fn, *iterables))


def _fly_seeds(name: str, seeds) -> list:
    """`_fly` for each seed; a flight depends only on its scenario and seed, not on the process."""
    return _in_workers(_fly, itertools.repeat(name), seeds)


def _reciprocal(x: float) -> float:
    return float(np.float64(1.0) / x)


def test_battery_workers_turn_warnings_into_errors():
    assert _in_workers(_reciprocal, [2.0, 4.0]) == [0.5, 0.25]
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        _in_workers(_reciprocal, [2.0, 0.0])


def test_criterion_5_indoor_bar_reproduction():
    bound = 0.45 - 0.10 * math.sqrt(3) / 2
    worst = math.inf
    seeds = range(1, 21)
    for seed, (outcome, replan_count, audit) in zip(seeds, _fly_seeds("indoor_bar", seeds)):
        bar_d = audit.per_obstacle["bar"]
        worst = min(worst, bar_d)
        assert outcome == "goal_reached", f"seed {seed}: {outcome}"
        assert replan_count >= 1, f"seed {seed}: no replan"
        assert bar_d >= bound, f"seed {seed}: bar distance {bar_d:.3f} < {bound:.3f}"
    report("5", f"20/20 seeds reached the 9 m goal with >=1 replan; "
                f"worst bar distance {worst:.3f} m >= {bound:.3f} m")


def test_criterion_6_forest_branch_reproduction():
    worst = math.inf
    seeds = range(1, 21)
    for seed, (outcome, _, audit) in zip(seeds, _fly_seeds("forest_branch", seeds)):
        worst = min(worst, audit.min_distance)
        assert outcome == "goal_reached", f"seed {seed}: {outcome}"
        assert audit.min_distance > 0.0, f"seed {seed}: ground-truth collision"
    report("6", f"20/20 seeds reached the 15 m goal with no collision; "
                f"worst ground-truth distance {worst:.3f} m")


def corridor_scan(rng, n_points=4800):
    """Synthetic lidar return: points on two walls and a floor within ~10 m."""
    n_wall = n_points // 3
    x = rng.uniform(0.0, 10.0, n_wall)
    left = np.column_stack([x, np.full(n_wall, 1.5), rng.uniform(0, 2.5, n_wall)])
    x = rng.uniform(0.0, 10.0, n_wall)
    right = np.column_stack([x, np.full(n_wall, -1.5), rng.uniform(0, 2.5, n_wall)])
    n_floor = n_points - 2 * n_wall
    floor = np.column_stack(
        [rng.uniform(0, 10, n_floor), rng.uniform(-1.5, 1.5, n_floor), np.zeros(n_floor)]
    )
    pts = np.concatenate([left, right, floor]) + rng.normal(0, 0.02, (n_points, 3))
    return pts


def test_criterion_7_timing():
    # temporal-map update: ~4800 raw points per frame at 10 cm resolution
    rng = np.random.default_rng(1007)
    m = TemporalLocalMap(MapConfig(scans_per_tree=50, resolution=0.1))
    times = []
    for i in range(150):
        scan = PointCloud(points=corridor_scan(rng), stamp=i * 0.02)
        info = m.update(scan)
        tree = m.trees[info.tree_index]
        tree.any_within(np.zeros((1, 3)), 0.1)  # a first read answers from the points in its box
        tree.any_within(np.zeros((1, 3)), 0.1)  # the second read builds the tree, into info's times
        assert info.build_seconds > 0
        times.append(info.total_seconds)
    t = np.asarray(times)
    mean_ms = t.mean() * 1e3
    p95_ms = np.percentile(t, 95) * 1e3
    assert mean_ms <= 25.0, f"map update mean {mean_ms:.1f} ms > 25 ms"
    assert p95_ms <= 50.0, f"map update p95 {p95_ms:.1f} ms > 50 ms"

    # plan() in the forest scene: 7 m goal on the tree map, plus the harder
    # past-the-branch case, plus the live run's replans
    scenario = load_scenario(resolve_scenario_path("forest_branch"))
    env = scenario.environment()
    pose = scenario.start_position
    R = yaw_rotation(scenario.start_yaw)
    cfg = scenario.planner_config
    start = UavState.hover(pose)

    def scene_map(t_scan):
        fm = TemporalLocalMap(scenario.map_config)
        srng = np.random.default_rng(0)
        for k in range(100):
            fm.update(generate_scan(env, scenario.sensor, pose, R, t_scan, srng, frame_index=k))
        return fm

    fm_up = scene_map(0.0)  # branch still raised: plain forest
    fm_down = scene_map(5.0)  # branch lowered across the corridor
    plan_times = []
    for _ in range(30):
        t0 = time.perf_counter()
        plan(start, [7.0, 0.0, 1.2], cfg, fm_up)
        plan_times.append(time.perf_counter() - t0)
    for _ in range(10):
        t0 = time.perf_counter()
        plan(start, [9.0, 0.0, 1.2], cfg, fm_down)  # threads past the branch
        plan_times.append(time.perf_counter() - t0)
    log = simulate(scenario, seed=1)
    plan_times.extend(log.plan_seconds)
    pt = np.asarray(plan_times)
    plan_mean_ms = pt.mean() * 1e3
    assert plan_mean_ms <= 60.0, f"plan mean {plan_mean_ms:.1f} ms > 60 ms"
    report("7", f"map update mean {mean_ms:.1f} ms (<=25), p95 {p95_ms:.1f} ms (<=50); "
                f"plan mean {plan_mean_ms:.1f} ms over {len(pt)} samples (<=60), "
                f"max {pt.max()*1e3:.1f} ms")


def test_criterion_8_thin_bar_comparison():
    scenario = load_scenario(resolve_scenario_path("thin_bar_compare"))
    rep = thin_object_experiment(scenario)
    frac = rep["bar_cell_occupied_fraction"]
    pts = rep["pointcloud_bar_points"]
    assert frac < 0.2, f"occupied fraction {frac:.2f} >= 0.2 at 0.3 m resolution"
    assert pts >= 20, f"only {pts} bar points in the point-cloud map"
    for res, f in rep["resolution_sweep"].items():
        assert f < 0.5, f"bar reliably occupied at {res} m resolution ({f:.2f})"
    assert rep["no_wall_occupied_fraction"] > frac + 0.3, (
        "removing the background wall should make the bar far more visible"
    )
    sweep = ", ".join(f"{k}m={v:.2f}" for k, v in rep["resolution_sweep"].items())
    report("8", f"occupied fraction {frac:.2f} (<0.2) vs {pts} map points (>=20); "
                f"sweep {sweep} all <0.5; no-wall ablation {rep['no_wall_occupied_fraction']:.2f}")


def test_criterion_9_determinism(tmp_path):
    path = resolve_scenario_path("indoor_bar")
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    rep_a = run(path, out_dir=a, overrides=["seed=7"])
    rep_b = run(path, out_dir=b, overrides=["seed=7"])
    assert rep_a.outcome == "goal_reached" and rep_a.replan_count >= 1
    assert rep_b.outcome == rep_a.outcome and rep_b.replan_count == rep_a.replan_count
    compared = []
    for name in ("trajectory.csv", "events.csv", "map_final/tree0.txt",
                 "map_final/tree1.txt", "map_final/counters.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
        compared.append(name)
    report("9", f"identical seed reproduced {len(compared)} files byte-for-byte")
