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
    PlannerConfig,
    PlannerError,
    SearchReport,
    StartInCollision,
    plan,
    relaxed_replan,
    replan_step,
)
from .scenario import Scenario
from .sensor import FRAME_DT, Environment, disk_to_directions, generate_scan, yaw_rotation
from .spatial import TemporalLocalMap

# Sensed-space telemetry: coarse cells swept by a fixed probe-ray grid. Plans
# are allowed through unseen space; we only log how much of each plan is there.
_COVERAGE_CELL = 0.5
_COVERAGE_RANGE = 25.0
_COVERAGE_STEP = 0.25
# Queued frames are merged into the swept cells this many at a time. Merging a
# whole flight's queue at once holds every queued frame's keys in memory
# together: on the hillside benchmark that raised peak RSS from 87 to 116 MB.
_SWEEP_CHUNK = 25


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

    def mark(self, env: Environment, position: np.ndarray, rotation: np.ndarray, t: float) -> np.ndarray:
        """Sorted keys of the cells one frame's probe rays sweep."""
        dirs = self._dirs_sensor @ rotation.T
        hits = env.cast_rays(position, dirs, t, _COVERAGE_RANGE)
        reach = np.where(np.isfinite(hits), hits, _COVERAGE_RANGE)
        pts = position + dirs[:, None, :] * self._steps[None, :, None]
        keep = self._steps[None, :] <= reach[:, None] + _COVERAGE_STEP
        return np.unique(voxel_keys(pts[keep], _COVERAGE_CELL))

    def unseen_count(self, traj: Trajectory, dt: float) -> int:
        queued, self._queue = self._queue, []
        for i in range(0, len(queued), _SWEEP_CHUNK):
            swept = [self.mark(self._env, *pose) for pose in queued[i:i + _SWEEP_CHUNK]]
            self._cells = np.union1d(self._cells, np.concatenate(swept))
        ts = sample_times(traj.t0, traj.duration, dt)
        P, _, _ = traj.states_at(ts)
        keys = np.unique(voxel_keys(P, _COVERAGE_CELL))
        return int(np.count_nonzero(~np.isin(keys, self._cells)))


@dataclass
class FrameRecord:
    index: int
    t: float
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
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
    final_time: float = 0.0
    replan_count: int = 0
    frames: list = field(default_factory=list)
    events: list = field(default_factory=list)
    map_update_seconds: list = field(default_factory=list)
    tree_build_seconds: list = field(default_factory=list)
    plan_seconds: list = field(default_factory=list)
    local_map: TemporalLocalMap | None = None

    def path_length(self) -> float:
        P = np.array([fr.p for fr in self.frames])
        if len(P) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(P, axis=0), axis=1).sum())


class _TrackingState:
    """Current + pending trajectory bookkeeping with hover fallbacks."""

    def __init__(self, start: UavState):
        self.current: Trajectory | None = None
        self.pending: Trajectory | None = None
        self.clearance = math.inf  # the clearance active() was planned with
        self.hover_p = start.p

    def active(self) -> Trajectory | None:
        return self.pending if self.pending is not None else self.current

    def state_at(self, t: float) -> UavState:
        """The state at `t`; a pending trajectory that has started becomes current."""
        if self.pending is not None and t >= self.pending.t0 - 1e-9:
            self.current, self.pending = self.pending, None
        src = self.current
        if src is None or t < src.t0 - 1e-9:
            return UavState.hover(self.hover_p, t=t)
        if t >= src.t_end:
            end = src.end_state
            self.hover_p = end.p
            return UavState.hover(end.p, t=t)
        st = src.state_at(t)
        self.hover_p = st.p
        return st


# Plans start at the first frame at least one planning budget ahead.
_HANDOVER_DELAY = math.ceil(PLAN_BUDGET / FRAME_DT - 1e-9) * FRAME_DT


def _search_event(report: SearchReport, traj: Trajectory, sensed: _SensedSpace,
                  cfg: PlannerConfig) -> dict:
    """Event data of a `plan` or `replan` event."""
    return {
        "expansions": report.expansions,
        "cost": round(report.cost, 9),
        "analytic": report.analytic_connection,
        "unseen_cells": sensed.unseen_count(traj, cfg.check_dt),
    }


def _next_plan(
    scenario: Scenario,
    local_map: TemporalLocalMap,
    sensed: _SensedSpace,
    t: float,
    uav: UavState,
    active: Trajectory | None,
    active_clearance: float,
):
    """The plan this frame needs, as (event kind, trajectory, report, event
    data, planned clearance), or None while the tracked trajectory stays clear.

    Raises PlannerError when no plan can be found.
    """
    cfg = scenario.planner_config
    goal = scenario.goal
    handover = t + _HANDOVER_DELAY
    try:
        if active is None:
            traj, report = plan(UavState.hover(uav.p, t=handover), goal, cfg, local_map)
            return "plan", traj, report, _search_event(report, traj, sensed, cfg), cfg.clearance
        check = cfg
        if active_clearance < cfg.clearance and local_map.any_within(uav.p, cfg.clearance)[0]:
            # a relaxed plan keeps its own clearance while the UAV is inside the full band
            check = replace(cfg, clearance=active_clearance)
        decision = replan_step(active, max(t, active.t0), local_map, check, goal)
        if decision.action == "keep":
            return None
    except StartInCollision:
        # Replan start state already violates the clearance (obstacle swept
        # onto the UAV): relax the clearance stepwise to escape.
        if active is None:
            start = UavState.hover(uav.p, t=handover)
        else:
            start = active.state_at(min(max(handover, active.t0), active.t_end))
        traj, report, used = relaxed_replan(start, goal, cfg, local_map)
        return "emergency_relax", traj, report, {
            "clearance": round(used, 9), "expansions": report.expansions
        }, used
    traj, report = decision.trajectory, decision.report
    data = {"collision_time": round(decision.collision_time, 9)}
    data.update(_search_event(report, traj, sensed, cfg))
    return "replan", traj, report, data, check.clearance


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
    tracking = _TrackingState(uav)
    sensed = _SensedSpace(env)

    def record(k: int, state: UavState, scan_size: int, flag: str):
        log.frames.append(
            FrameRecord(
                index=k,
                t=state.t,
                p=state.p.copy(),
                v=state.v.copy(),
                a=state.a.copy(),
                scan_size=scan_size,
                tree_sizes=list(local_map.tree_sizes),
                flag=flag,
            )
        )

    def _terminate(outcome: str, k: int, state: UavState, scan_size: int = 0) -> RunLog:
        log.outcome = outcome
        log.final_time = k * FRAME_DT
        record(k, state, scan_size, outcome)
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
        log.map_update_seconds.append(info.total_seconds)
        log.tree_build_seconds.append(info.build_seconds)
        if info.wrapped:
            log.events.append(
                SimEvent(t=t, kind="map_wraparound", data={"tree_sizes": list(local_map.tree_sizes)})
            )

        try:
            step = _next_plan(scenario, local_map, sensed, t, uav, tracking.active(), tracking.clearance)
        except PlannerError as e:
            log.events.append(SimEvent(t=t, kind="planner_failure", data={"reason": str(e)}))
            return _terminate("planner_failure", k, uav, len(scan))
        flag = ""
        if step is not None:
            flag, traj, report, data, tracking.clearance = step
            tracking.pending = traj
            log.plan_seconds.append(report.wall_seconds)
            if flag != "plan":
                log.replan_count += 1
            log.events.append(SimEvent(t=t, kind=flag, data=data))
        record(k, uav, len(scan), flag)

        t_next = (k + 1) * FRAME_DT
        uav = tracking.state_at(t_next)
        if np.linalg.norm(uav.p - goal) <= cfg.goal_tolerance:
            return _terminate("goal_reached", k + 1, uav)
        if env.min_distance(uav.p, t_next) <= 0.0:
            return _terminate("collision", k + 1, uav)

    return _terminate("timeout", n_frames, uav)


@dataclass
class AuditResult:
    min_distance: float
    per_obstacle: dict

    @property
    def interpenetration(self) -> bool:
        return self.min_distance < 0.0


def audit_ground_truth(log: RunLog, scenario: Scenario) -> AuditResult:
    """Post-run safety audit against the analytic obstacle geometry.

    Independent of the map: every logged UAV position is checked against the
    obstacles at the matching time, planner-failure hover frames included.
    """
    P = np.array([fr.p for fr in log.frames])
    T = np.array([fr.t for fr in log.frames])
    nearest = [(ob.name, float(ob.distances(P, T).min())) for ob in scenario.obstacles]
    return AuditResult(
        min_distance=min((d for _, d in nearest), default=math.inf),
        per_obstacle={name: d for name, d in nearest if name},
    )
