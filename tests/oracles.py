"""Reference code that only tests call.

`voxel_filter` is criterion 1's oracle for the map's running voxel sums,
`load_cloud_txt` reads back the point clouds `save_cloud_txt` writes, and
`eager_plan` is the kinodynamic A* search that reads the map for every child it
generates and solves and reads each shot duration apart, the oracle of the
planner's lazy primitive checks and batched shot.
"""

import heapq
import itertools
import math

import numpy as np

from cloudnav.core import PointCloud, QuinticSegment, sample_times, voxel_keys
from cloudnav.planner import (
    HEURISTIC_WEIGHT,
    SHOT_STEP,
    TIME_WEIGHT,
    SearchNode,
    SearchReport,
    _build_trajectory,
    _prune_keys,
    control_set,
    heuristic,
)


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


def eager_expand(node, cfg, local_map, goal):
    """Children of `node` whose primitive keeps to v_max on each axis and whose
    samples after t = 0 all keep the clearance, checked as they are generated."""
    limits = cfg.limits
    tau = limits.primitive_duration
    U = control_set(limits.a_max)
    T = sample_times(0.0, tau, cfg.check_dt)[None, :, None]
    costs = (((U * U).sum(axis=1) + TIME_WEIGHT) * tau).tolist()
    V = node.v + U[:, None, :] * T[:, [0, -1]]
    cand = (np.abs(V).max(axis=(1, 2)) <= limits.v_max).nonzero()[0]
    if len(cand) == 0:
        return []
    P = (node.p + node.v * T[:, 1:]) + (0.5 * U[:, None, :] * T * T)[cand, 1:]
    hits = local_map.any_within(P.reshape(-1, 3), cfg.clearance).reshape(len(cand), -1)
    keep = ~hits.any(axis=1)
    surv = cand[keep].tolist()
    P_end = P[keep, -1]
    h = heuristic(P_end, goal, cfg).tolist()
    children = []
    for i, p, v, hj, key in zip(surv, P_end, V[surv, -1], h, _prune_keys(P_end, cfg.prune_cell)):
        g = node.g + costs[i]
        children.append(SearchNode(node.t + tau, p, v, U[i], g, g + HEURISTIC_WEIGHT * hj, node, key))
    return children


def eager_shot(state, goal, cfg, local_map):
    """The analytic shot to rest at `goal`, one duration at a time: each solved
    alone, limit-checked and read against the map, the first that holds returned."""
    d = float(np.linalg.norm(goal - state.p))
    base = max(d / cfg.limits.v_max, float(np.linalg.norm(state.v)) / cfg.limits.a_max, cfg.check_dt)
    zero = np.zeros(3)
    for scale in (1.0, 1.5, 2.0, 3.0, 4.0) if d <= SHOT_STEP else (1.0, 1.5, 2.0):
        tau = scale * base
        seg = QuinticSegment.solve(state, goal, zero, zero, tau)
        P, V, A = seg.states_at(sample_times(0.0, tau, min(cfg.check_dt, tau / 8.0)))
        if not (np.abs(V) <= cfg.limits.v_max).all() or (np.abs(A) > cfg.limits.a_max + 1e-9).any():
            continue
        if not local_map.any_within(P, cfg.clearance).any():
            return seg
    return None


def eager_plan(start, goal, cfg, local_map):
    """The search `plan` runs, with every child's primitive read when it is
    generated; returns (trajectory or None, report). The start is assumed clear."""
    goal = np.asarray(goal, dtype=float)
    root = SearchNode(start.t, start.p, start.v, start.a, 0.0, 0.0, None, _prune_keys(start.p[None], cfg.prune_cell)[0])
    counter = itertools.count()
    open_heap = [(0.0, 0.0, next(counter), root)]
    closed = {}
    report = SearchReport()
    ae_last_d = math.inf
    tail = None
    outcome = "open_set_exhausted"
    while open_heap:
        node = heapq.heappop(open_heap)[3]
        best = closed.get(node.key)
        if best is not None and best <= node.g:
            continue
        closed[node.key] = node.g
        diff = node.p - goal
        d = math.sqrt(diff.dot(diff))
        at_goal = d <= cfg.goal_tolerance
        if at_goal or d <= SHOT_STEP or ae_last_d - d >= SHOT_STEP:
            ae_last_d = d
            tail = eager_shot(node.state, goal, cfg, local_map)
            if tail is not None:
                outcome = "analytic"
                break
        if at_goal:
            outcome = "primitive"
            break
        if report.expansions >= cfg.max_expansions:
            outcome = "expansion_budget_exhausted"
            break
        report.expansions += 1
        for child in eager_expand(node, cfg, local_map, goal):
            cbest = closed.get(child.key)
            if cbest is None or cbest > child.g:
                heapq.heappush(open_heap, (child.f, child.f - child.g, next(counter), child))
    report.outcome, report.open_size, report.closed_size = outcome, len(open_heap), len(closed)
    traj = None
    if outcome in ("analytic", "primitive"):
        traj, report.cost = _build_trajectory(node, tail, cfg)
    return traj, report
