"""Kinodynamic A* over acceleration-discretized motion primitives.

Each node expansion integrates the 27 per-axis control combinations
{-a_max, 0, +a_max}^3 over one primitive duration, rejects primitives that
violate the velocity limit or pass within the safety clearance of any local
map point, and pushes the survivors. An analytic two-point boundary-value
expansion toward the goal is attempted whenever the search makes enough
progress, terminating early with an exact goal connection.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from functools import lru_cache
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ConstantAccelSegment,
    KinodynamicLimits,
    QuinticSegment,
    Trajectory,
    UavState,
    sample_times,
)
from .spatial import TemporalLocalMap, check_trajectory

# Weight on the heuristic in the open-set ordering only; heuristic() stays admissible.
HEURISTIC_WEIGHT = 5.0
# rho: weight of flight time against control effort in the edge cost.
TIME_WEIGHT = 1.0
# Replan handover horizon (s): a replacement starts this far ahead on the old plan.
PLAN_BUDGET = 0.03
# Emergency relaxation: shrink the clearance by this factor, down to this floor.
RELAX_STEP = 0.8
RELAX_FLOOR = 0.10
# Ceiling on the samples per primitive, floor(primitive_duration / check_dt) + 1,
# so expand's (27, samples, 3) blocks stay small; the bundled scenarios use 6.
MAX_PRIMITIVE_SAMPLES = 1000


class PlannerError(Exception):
    pass


class StartInCollision(PlannerError):
    """The requested start state violates the clearance against the current map."""

    def __init__(self, distance: float):
        super().__init__(f"start state within {distance:.3f} m of a map point")
        self.distance = distance


class PlanningFailed(PlannerError):
    """Search exhausted (expansion budget or open set) without reaching the goal."""

    def __init__(self, message: str, report: "SearchReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PlannerConfig:
    limits: KinodynamicLimits = field(default_factory=KinodynamicLimits)
    clearance: float = 0.45
    goal_tolerance: float = 0.3
    prune_cell: float | None = None  # None: half the clearance, resolved at construction
    max_expansions: int = 20000
    # The bound is per axis; not settable, kept as a field for perfbench's check_plan to read.
    velocity_bound: str = field(default="per_axis", init=False)

    def __post_init__(self):
        if self.clearance <= 0 or self.goal_tolerance <= 0:
            raise ValueError("clearance and goal_tolerance must be > 0")
        if self.prune_cell is None:
            object.__setattr__(self, "prune_cell", 0.5 * self.clearance)
        if self.prune_cell <= 0:
            raise ValueError("prune_cell must be > 0")
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1")

    @property
    def check_dt(self) -> float:
        # No sample gap exceeds half the clearance at maximum speed.
        return self.clearance / (2.0 * self.limits.v_max)


class SearchNode:
    """A searched state's t, p, v and a (its incoming control), its costs g and f,
    its parent and its dedup-grid cell; the UavState is built only when asked for."""

    __slots__ = ("t", "p", "v", "a", "g", "f", "parent", "key")

    def __init__(self, t, p, v, a, g, f, parent=None, key=None):
        self.t, self.p, self.v, self.a, self.g, self.f, self.parent, self.key = t, p, v, a, g, f, parent, key

    @property
    def state(self) -> UavState:
        return UavState._unchecked(self.t, self.p, self.v, self.a)


@dataclass
class SearchReport:
    outcome: str = "failed"
    expansions: int = 0
    open_size: int = 0
    closed_size: int = 0
    wall_seconds: float = 0.0
    cost: float = math.nan


@lru_cache(maxsize=16)
def control_set(a_max: float) -> np.ndarray:
    """All 27 per-axis control combinations, in a fixed deterministic order."""
    axis = (-a_max, 0.0, a_max)
    u = np.array(list(itertools.product(axis, axis, axis)), dtype=float)
    u.setflags(write=False)
    return u


@lru_cache(maxsize=64)
def _primitive_terms(a_max: float, tau: float, dt: float):
    """Node-independent terms of the 27 primitives: U's rows and edge costs as lists; read-only,
    u * t at the first and last sample times t = 0 and tau (27, 2, 3), and the sample times
    after 0 (1, T - 1, 1) with 0.5 * u * t * t there (27, T - 1, 3)."""
    U = control_set(a_max)
    T = sample_times(0.0, tau, dt)[None, :, None]  # includes both endpoints
    costs = ((U * U).sum(axis=1) + TIME_WEIGHT) * tau
    terms = (U[:, None, :] * T[:, [0, -1]], T[:, 1:], (0.5 * U[:, None, :] * T * T)[:, 1:])
    for a in terms:
        a.setflags(write=False)
    return (list(U), costs.tolist(), *terms)


def heuristic(state: UavState, goal, cfg: PlannerConfig) -> float:
    """Admissible time lower bound scaled by the time weight."""
    d = float(np.linalg.norm(state.p - np.asarray(goal, dtype=float)))
    return TIME_WEIGHT * d / cfg.limits.v_max


def _prune_keys(P: np.ndarray, cell: float) -> list[tuple]:
    """Dedup-grid cells of the positions P (n, 3), math.floor(x / cell) per axis;
    the scenario loader keeps every reachable index inside int64."""
    return list(map(tuple, np.floor(P / cell).astype(np.int64).tolist()))


def expand(node: SearchNode, cfg: PlannerConfig, local_map: TemporalLocalMap, goal) -> list[SearchNode]:
    """All feasible children of `node` under the 27 motion primitives.

    A primitive survives if every sampled velocity keeps to v_max on each axis
    and no sampled position lies within the clearance of any map point.
    Children, with their dedup-grid cells, come in control order, ranked toward `goal`.
    """
    limits = cfg.limits
    tau = limits.primitive_duration
    U_rows, costs, ut_ends, T1, half_ut2 = _primitive_terms(limits.a_max, tau, cfg.check_dt)
    p0, v0 = node.p, node.v

    # Velocities at the first and last samples only: fl(v0 + fl(u * t)) is monotone
    # in t, as rounding is, so no sample between breaks a bound both ends keep.
    # Positions, p0 + v0 * t + 0.5 * u * t * t, only for controls within the bound
    # and after t = 0, the parent, known clear.
    V = v0 + ut_ends
    cand = (np.abs(V).max(axis=(1, 2)) <= limits.v_max).nonzero()[0]
    if len(cand) == 0:
        return []
    P = (p0 + v0 * T1) + half_ut2[cand]
    hits = local_map.any_within(P.reshape(-1, 3), cfg.clearance).reshape(len(cand), -1)
    keep = ~hits.any(axis=1)
    surv = cand[keep].tolist()
    if not surv:
        return []
    P_end = P[keep, -1]
    h = np.linalg.norm(P_end - np.asarray(goal, dtype=float), axis=1) * (TIME_WEIGHT / limits.v_max)
    t_child = node.t + tau
    G = [node.g + costs[i] for i in surv]
    keys = _prune_keys(P_end, cfg.prune_cell)
    # U's rows are read-only, so children share them as their acceleration (incoming control)
    return [
        SearchNode(t_child, p, v, U_rows[i], g, g + HEURISTIC_WEIGHT * hj, node, key)
        for i, g, p, v, hj, key in zip(surv, G, P_end, V[surv, -1], h.tolist(), keys)
    ]


def analytic_expansion(
    state: UavState, goal, cfg: PlannerConfig, local_map: TemporalLocalMap
) -> QuinticSegment | None:
    """Attempt a direct quintic connection from `state` to rest at the goal.

    Tries a small set of candidate durations scaled from the straight-line
    time; returns the first candidate whose sampled path is collision-free
    and respects the velocity/acceleration limits, else None.
    """
    goal = np.asarray(goal, dtype=float)
    d = float(np.linalg.norm(goal - state.p))
    speed = float(np.linalg.norm(state.v))
    # straight-line time, with a braking-aware floor for near-goal attempts
    base = max(d / cfg.limits.v_max, speed / cfg.limits.a_max, cfg.check_dt)
    zero = np.zeros(3)
    for scale in (1.0, 1.5, 2.0):
        tau = scale * base
        seg = QuinticSegment.solve(state, goal, zero, zero, tau)
        # validate on a grid fine relative to the segment itself; short segments
        # would otherwise be sampled only at their endpoints
        ts = sample_times(0.0, tau, min(cfg.check_dt, tau / 8.0))
        P, V, A = seg.states_at(ts)
        if not (np.abs(V) <= cfg.limits.v_max).all():  # a NaN fails too
            continue
        if (np.abs(A) > cfg.limits.a_max + 1e-9).any():
            continue
        if local_map.any_within(P, cfg.clearance).any():
            continue
        return seg
    return None


def _segment_effort(seg: QuinticSegment, dt: float) -> float:
    """Trapezoidal integral of squared acceleration magnitude over the segment."""
    ts = sample_times(0.0, seg.duration, dt)
    _, _, A = seg.states_at(ts)
    return float(np.trapezoid((A * A).sum(axis=1), ts))


def _build_trajectory(node: SearchNode, tail: QuinticSegment | None, cfg: PlannerConfig):
    """The searched node chain from the root to `node` as primitive segments,
    each from its parent's state under its incoming control, then the tail."""
    tau = cfg.limits.primitive_duration
    segments = []
    cur = node
    while cur.parent is not None:
        segments.append(ConstantAccelSegment(start=cur.parent.state, u=cur.a, tau=tau))
        cur = cur.parent
    segments.reverse()
    cost = node.g
    if tail is not None:
        segments.append(tail)
        cost += TIME_WEIGHT * tail.duration + _segment_effort(tail, cfg.check_dt)
    return Trajectory(segments=tuple(segments), t0=cur.t), cost


def plan(start: UavState, goal, cfg: PlannerConfig, local_map: TemporalLocalMap):
    """Search a dynamically feasible, collision-free trajectory from `start`
    to within the goal tolerance. Returns (trajectory, report).

    Raises StartInCollision if the start state already violates the clearance,
    PlanningFailed if the expansion budget or the open set is exhausted.
    """
    t_wall = time.perf_counter()
    goal = np.asarray(goal, dtype=float)
    dist = local_map.nearest_distance(start.p, cfg.clearance)
    if dist <= cfg.clearance:
        raise StartInCollision(dist)

    h0 = HEURISTIC_WEIGHT * heuristic(start, goal, cfg)
    key = _prune_keys(start.p[None], cfg.prune_cell)[0]
    root = SearchNode(start.t, start.p, start.v, start.a, 0.0, h0, None, key)
    counter = itertools.count()
    # heap entries: (f, h, unique counter, node); the counter settles every tie
    open_heap: list = [(root.f, h0, next(counter), root)]
    closed: dict[tuple, float] = {}
    report = SearchReport()
    ae_last_d = math.inf  # so the root tries the analytic shot too
    tail = None
    outcome = "open_set_exhausted"

    while open_heap:
        node = heapq.heappop(open_heap)[3]
        best = closed.get(node.key)
        if best is not None and best <= node.g:
            continue
        closed[node.key] = node.g

        diff = node.p - goal
        d = math.sqrt(diff.dot(diff))  # np.linalg.norm of a vector, without its overhead
        at_goal = d <= cfg.goal_tolerance
        if at_goal or ae_last_d - d >= 1.0:
            ae_last_d = d
            tail = analytic_expansion(node.state, goal, cfg, local_map)
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
        for child in expand(node, cfg, local_map, goal):
            cbest = closed.get(child.key)
            if cbest is not None and cbest <= child.g:
                continue
            heapq.heappush(open_heap, (child.f, child.f - child.g, next(counter), child))

    report.outcome = outcome
    report.open_size = len(open_heap)
    report.closed_size = len(closed)
    if outcome in ("analytic", "primitive"):
        traj, report.cost = _build_trajectory(node, tail, cfg)
    report.wall_seconds = time.perf_counter() - t_wall
    if outcome == "open_set_exhausted":
        raise PlanningFailed("open set exhausted before reaching the goal", report)
    if outcome == "expansion_budget_exhausted":
        raise PlanningFailed(f"expansion budget {cfg.max_expansions} exhausted", report)
    return traj, report


@dataclass
class ReplanDecision:
    action: str  # "keep" or "replaced"
    trajectory: Trajectory
    collision_time: float | None = None
    report: SearchReport | None = None


def replan_step(
    traj: Trajectory,
    tracking_time: float,
    local_map: TemporalLocalMap,
    cfg: PlannerConfig,
    goal,
) -> ReplanDecision:
    """One event-driven replanning step against a freshly updated map.

    Checks the remainder of the tracked trajectory; if it stays clear the
    current trajectory is kept and the planner is never invoked. Otherwise a
    new trajectory is planned from the state the UAV will occupy one planning
    budget ahead, so the handover is continuous. Planner failures propagate.
    """
    col_t = check_trajectory(local_map, traj, cfg.clearance, cfg.check_dt, t_from=tracking_time)
    if col_t is None:
        return ReplanDecision(action="keep", trajectory=traj)
    handover = min(tracking_time + PLAN_BUDGET, traj.t_end)
    start = traj.state_at(handover)
    new_traj, report = plan(start, goal, cfg, local_map)
    return ReplanDecision(
        action="replaced", trajectory=new_traj, collision_time=col_t, report=report
    )


def relaxed_replan(start: UavState, goal, cfg: PlannerConfig, local_map: TemporalLocalMap):
    """Emergency fallback: retry planning with a progressively reduced clearance
    until the start state is feasible. Returns (trajectory, report, clearance_used).
    """
    clearance = cfg.clearance
    while True:
        relaxed = replace(cfg, clearance=clearance)  # the same dedup grid: prune_cell is resolved
        try:
            traj, report = plan(start, goal, relaxed, local_map)
            return traj, report, clearance
        except StartInCollision:
            if clearance <= RELAX_FLOOR:
                raise
            clearance = max(RELAX_FLOOR, clearance * RELAX_STEP)
