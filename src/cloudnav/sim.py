"""Closed-loop flight simulation: scan, map update, event-driven replan, track.

The loop runs at the sensor frame rate with a fixed step. Each frame advances
the dynamic obstacles (schedules are functions of time), casts one lidar frame
from the UAV's current pose, feeds it to the temporal local map, runs one
replanning step, and moves the UAV one step along the tracked trajectory
(exact tracking). Identical scenario + seed gives an identical run log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Trajectory, UavState, sample_times, voxel_keys
from .planner import (
    PLAN_BUDGET,
    PlannerError,
    StartInCollision,
    plan,
    relaxed_replan,
    replan_step,
)
from .scenario import _COVERAGE_CELL, _COVERAGE_RANGE, Scenario
from .sensor import FRAME_DT, Environment, disk_to_directions, generate_scan, yaw_rotation
from .spatial import TemporalLocalMap

# Sensed-space telemetry: _COVERAGE_CELL cells swept by a fixed probe-ray grid. Plans
# are allowed through unseen space; we only log how much of each plan is there.
_COVERAGE_STEP = 0.25
# Queued frames are merged into the swept cells this many at a time. Merging a
# whole flight's queue at once holds every queued frame's keys in memory
# together: on the hillside benchmark that raised peak RSS from 87 to 116 MB.
_SWEEP_CHUNK = 25


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` by a sort and a neighbour compare: numpy 2's `np.unique`
    hashes, and on one frame's ~4000 keys that takes about seven times as long."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _probe_disk_grid():
    """Unit-disk coordinates of the 57 probe rays: the centre and 4 rings of 14."""
    u = [0.0]
    w = [0.0]
    for i in range(1, 5):
        r = i / 4
        for j in range(14):
            a = 2.0 * math.pi * (j + 0.5 * (i % 2)) / 14
            u.append(r * math.cos(a))
            w.append(r * math.sin(a))
    return np.array(u), np.array(w)


class _SensedSpace:
    """Approximate record of space covered by the sensor so far.

    Only plan events read it, so frames are swept when a count asks, not as
    they fly: `queue` keeps each frame's pose and `unseen_count` first sweeps
    the queued frames. A sweep depends only on the pose and t and draws no
    random numbers, so the counts equal those of sweeping each frame as it flies.
    """

    def __init__(self, env: Environment):
        u, w = _probe_disk_grid()
        self._env = env
        self._dirs_sensor = disk_to_directions(u, w)
        self._steps = np.arange(_COVERAGE_STEP, _COVERAGE_RANGE + 1e-9, _COVERAGE_STEP)
        self._queue: list = []  # (position, rotation, t) of frames not yet swept
        self._cells = np.empty(0, dtype=np.int64)  # sorted keys of the swept cells

    def queue(self, position: np.ndarray, rotation: np.ndarray, t: float):
        self._queue.append((position.copy(), rotation.copy(), t))

    def mark(self, position: np.ndarray, rotation: np.ndarray, t: float) -> np.ndarray:
        """Sorted keys of the cells one frame's probe rays sweep."""
        dirs = self._dirs_sensor @ rotation.T
        hits = self._env.cast_rays(position, dirs, t, _COVERAGE_RANGE)
        reach = np.where(np.isfinite(hits), hits, _COVERAGE_RANGE)
        pts = position + dirs[:, None, :] * self._steps[None, :, None]
        keep = self._steps[None, :] <= reach[:, None] + _COVERAGE_STEP
        return _sorted_unique(voxel_keys(pts[keep], _COVERAGE_CELL))

    def unseen_count(self, traj: Trajectory, dt: float) -> int:
        queued, self._queue = self._queue, []
        for i in range(0, len(queued), _SWEEP_CHUNK):
            swept = [self.mark(*pose) for pose in queued[i:i + _SWEEP_CHUNK]]
            self._cells = _sorted_unique(np.concatenate([self._cells, *swept]))
        ts = sample_times(traj.t0, traj.duration, dt)
        P, _, _ = traj.states_at(ts)
        keys = _sorted_unique(voxel_keys(P, _COVERAGE_CELL))
        return int(np.count_nonzero(~np.isin(keys, self._cells)))


@dataclass
class FrameRecord:
    state: UavState
    scan_size: int
    tree_sizes: list
    flag: str = ""


@dataclass
class SimEvent:
    t: float
    kind: str
    data: dict = field(default_factory=dict)


@dataclass
class RunLog:
    scenario_name: str
    seed: int
    outcome: str = "timeout"
    frames: list = field(default_factory=list)  # a FrameRecord's index is its position here
    events: list = field(default_factory=list)
    map_updates: list = field(default_factory=list)  # each frame's MapUpdateInfo
    plan_seconds: list = field(default_factory=list)
    local_map: TemporalLocalMap | None = None

    @property
    def final_time(self) -> float:
        return self.frames[-1].state.t

    @property
    def replan_count(self) -> int:
        """Replacements of the tracked plan: replans and emergency replans."""
        return sum(ev.kind in ("replan", "emergency_relax") for ev in self.events)

    def path_length(self) -> float:
        P = np.array([fr.state.p for fr in self.frames])
        return float(np.linalg.norm(np.diff(P, axis=0), axis=1).sum())


# A first plan starts hovering at the first frame at least one planning budget ahead.
_HANDOVER_DELAY = math.ceil(PLAN_BUDGET / FRAME_DT - 1e-9) * FRAME_DT


class _Tracking:
    """The trajectories the UAV tracks and the frame's replan decision. The UAV
    hovers at the start until the first plan starts, and at a trajectory's end
    once it is over."""

    def __init__(self, scenario: Scenario, local_map: TemporalLocalMap, sensed: _SensedSpace):
        self._scenario, self._map, self._sensed = scenario, local_map, sensed
        self._current: Trajectory | None = None
        self._pending: Trajectory | None = None
        self._clearance = math.inf  # the clearance the newest trajectory was planned with

    def state_at(self, t: float) -> UavState:
        """The state at `t`; a pending trajectory that has started becomes current."""
        if self._pending is not None and t >= self._pending.t0 - 1e-9:
            self._current, self._pending = self._pending, None
        src = self._current
        if src is None:
            return UavState.hover(self._scenario.start_position, t=t)
        if t >= src.t_end:
            return UavState.hover(src.end_state.p, t=t)
        return src.state_at(t)

    def replan(self, t: float, uav: UavState):
        """Install the plan this frame needs and return (event kind, search
        report, event data), or None while the tracked trajectory stays clear.

        Raises PlannerError when no plan can be found.
        """
        cfg, goal, local_map = self._scenario.planner_config, self._scenario.goal, self._map
        active = self._pending if self._pending is not None else self._current
        check = cfg
        try:
            if active is None:
                # with no trajectory to track, the plan starts hovering where the UAV is
                traj, report = plan(UavState.hover(uav.p, t=t + _HANDOVER_DELAY), goal, cfg, local_map)
                kind, data = "plan", {}
            else:
                if self._clearance < cfg.clearance and local_map.any_within(uav.p, cfg.clearance)[0]:
                    # a relaxed plan keeps its own clearance while the UAV is inside the full band
                    check = replace(cfg, clearance=self._clearance)
                decision = replan_step(active, max(t, active.t0), local_map, check, goal)
                if decision.action == "keep":
                    return None
                traj, report = decision.trajectory, decision.report
                kind, data = "replan", {"collision_time": round(decision.collision_time, 9)}
        except StartInCollision as e:
            # The search's start state already violates the clearance (obstacle
            # swept onto the UAV): relax the clearance stepwise from that start.
            traj, report, clearance = relaxed_replan(e.start, goal, cfg, local_map)
            kind, data = "emergency_relax", {"clearance": round(clearance, 9), "expansions": report.expansions}
        else:
            data.update(expansions=report.expansions, cost=round(report.cost, 9),
                        analytic=report.outcome == "analytic",
                        unseen_cells=self._sensed.unseen_count(traj, cfg.check_dt))
            clearance = check.clearance
        self._pending, self._clearance = traj, clearance
        return kind, report, data


def simulate(scenario: Scenario, seed: int | None = None) -> RunLog:
    seed = scenario.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    env = scenario.environment()
    local_map = TemporalLocalMap(scenario.map_config)
    cfg = scenario.planner_config
    sensor = scenario.sensor
    goal = scenario.goal
    n_frames = int(round(scenario.duration / FRAME_DT))

    log = RunLog(scenario_name=scenario.name, seed=seed, local_map=local_map)
    uav = UavState.hover(scenario.start_position, t=0.0)
    yaw = scenario.start_yaw
    sensed = _SensedSpace(env)
    tracking = _Tracking(scenario, local_map, sensed)

    def record(state: UavState, scan_size: int, flag: str):
        log.frames.append(FrameRecord(state, scan_size, local_map.tree_sizes, flag))

    def _terminate(outcome: str, state: UavState, scan_size: int = 0) -> RunLog:
        log.outcome = outcome
        record(state, scan_size, outcome)
        return log

    for k in range(n_frames):
        t = k * FRAME_DT
        speed_xy = math.hypot(uav.v[0], uav.v[1])
        if speed_xy > 0.05:
            yaw = math.atan2(uav.v[1], uav.v[0])
        rotation = yaw_rotation(yaw)
        scan = generate_scan(env, sensor, uav.p, rotation, t, rng, frame_index=k)
        sensed.queue(uav.p, rotation, t)
        info = local_map.update(scan)
        log.map_updates.append(info)
        if info.wrapped:
            log.events.append(
                SimEvent(t=t, kind="map_wraparound", data={"tree_sizes": local_map.tree_sizes})
            )

        try:
            step = tracking.replan(t, uav)
        except PlannerError as e:
            log.events.append(SimEvent(t=t, kind="planner_failure", data={"reason": str(e)}))
            return _terminate("planner_failure", uav, len(scan))
        flag = ""
        if step is not None:
            flag, report, data = step
            log.plan_seconds.append(report.wall_seconds)
            log.events.append(SimEvent(t=t, kind=flag, data=data))
        record(uav, len(scan), flag)

        t_next = (k + 1) * FRAME_DT
        uav = tracking.state_at(t_next)
        if np.linalg.norm(uav.p - goal) <= cfg.goal_tolerance:
            return _terminate("goal_reached", uav)
        if env.min_distance(uav.p, t_next) <= 0.0:
            return _terminate("collision", uav)

    return _terminate("timeout", uav)


@dataclass
class AuditResult:
    min_distance: float
    per_obstacle: dict


def audit_ground_truth(log: RunLog, scenario: Scenario) -> AuditResult:
    """Post-run safety audit against the analytic obstacle geometry.

    Independent of the map: every logged UAV position is checked against the
    obstacles at the matching time, planner-failure hover frames included.
    """
    P = np.array([fr.state.p for fr in log.frames])
    T = np.array([fr.state.t for fr in log.frames])
    nearest = [(ob.name, float(ob.distances(P, T).min())) for ob in scenario.obstacles]
    return AuditResult(
        min_distance=min((d for _, d in nearest), default=math.inf),
        per_obstacle={name: d for name, d in nearest if name},
    )
