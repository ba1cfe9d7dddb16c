import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from cloudnav.cli import resolve_scenario_path
from cloudnav.core import ConstantAccelSegment, KinodynamicLimits, PointCloud, QuinticSegment, UavState, sample_times
from cloudnav.planner import (
    HEURISTIC_WEIGHT,
    PLAN_BUDGET,
    SHOT_STEP,
    TIME_WEIGHT,
    PlannerConfig,
    PlanningFailed,
    SearchNode,
    StartInCollision,
    _prune_keys,
    analytic_expansion,
    control_set,
    expand,
    heuristic,
    plan,
    relaxed_replan,
    replan_step,
)
from cloudnav.scenario import load_scenario
from cloudnav.sensor import generate_scan, yaw_rotation
from cloudnav.spatial import MapConfig, TemporalLocalMap


def make_map(points=None, resolution=0.001):
    """Map whose contents are exactly `points` (resolution tiny: no merging)."""
    m = TemporalLocalMap(MapConfig(resolution=resolution))
    if points is not None and len(points):
        m.update(PointCloud(points=np.asarray(points, dtype=float)))
    return m


def default_cfg(**kw):
    return PlannerConfig(limits=KinodynamicLimits(v_max=2.0, a_max=2.0, primitive_duration=0.6), **kw)


def sphere_shell(center, radius, n=600):
    """Roughly uniform points on a sphere (fibonacci spiral)."""
    i = np.arange(n)
    phi = np.arccos(1 - 2 * (i + 0.5) / n)
    theta = np.pi * (1 + 5**0.5) * i
    pts = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )
    return np.asarray(center, dtype=float) + radius * pts


def node_at(state):
    return SearchNode(state.t, state.p, state.v, state.a, g=0.0, f=0.0)


def rest_node(p=(0, 0, 0)):
    return node_at(UavState.hover(list(p)))


def test_control_set_is_27_deterministic():
    u = control_set(2.0)
    assert u.shape == (27, 3)
    assert set(np.unique(u)) == {-2.0, 0.0, 2.0}
    assert np.array_equal(u, control_set(2.0))


def test_expand_from_rest_in_free_space_yields_27():
    children = expand(rest_node(), default_cfg(), make_map(), [5, 0, 0])
    assert len(children) == 27
    # velocity after 0.6 s at a_max=2 is 1.2 <= 2 on every axis
    for c in children:
        assert np.all(np.abs(c.state.v) <= 2.0)
        assert c.g > 0 or np.allclose(c.state.a, 0)


def test_expand_enclosed_by_point_shell_yields_zero():
    m = make_map(sphere_shell([0, 0, 0], 0.3))
    children = expand(rest_node(), default_cfg(), m, [5, 0, 0])
    assert children == []


def test_velocity_bound_is_per_axis_and_not_settable():
    assert default_cfg().velocity_bound == "per_axis"
    with pytest.raises(TypeError):
        default_cfg(velocity_bound="norm")


def test_expand_velocity_saturated_axis_yields_18():
    node = node_at(UavState(t=0.0, p=[0, 0, 0], v=[2.0, 0, 0], a=[0, 0, 0]))
    children = expand(node, default_cfg(), make_map(), [5, 0, 0])
    assert len(children) == 18
    assert all(c.state.a[0] <= 0.0 for c in children)


def _floor_keys(P, cell):
    """Oracle: the dedup-grid cells one coordinate at a time, with math.floor."""
    return [tuple(math.floor(x / cell) for x in p.tolist()) for p in np.atleast_2d(P)]


def test_prune_keys_match_math_floor():
    # floor, not truncation, below 0; x / cell, not np.floor_divide (1.0 // 0.1 is 9.0);
    # -0.0 lands in the cell of 0.0
    for cell in (0.1, 0.225, 0.36, 1.0):
        ks = np.arange(-7, 8)
        P = np.concatenate([
            np.stack([ks * cell, ks * cell + 0.5 * cell, -(ks * cell)], axis=1),
            [[1.0, -1.0, -0.0], [-0.0, 0.3, -0.3], [-1e-300, 1e-300, -0.0]],
        ])
        assert _prune_keys(P, cell) == _floor_keys(P, cell)
    assert _prune_keys(np.array([[-0.0, -0.0, -0.0]]), 0.1) == [(0, 0, 0)]


def test_expand_children_carry_their_prune_keys():
    # cell = the end offset of a full-thrust primitive from rest, so children
    # from a node on the grid land on exact multiples of it
    d = 0.5 * 2.0 * 0.6 * 0.6
    for cell, p in itertools.product((d, d / 2, 0.225), ((0, 0, 0), (-3 * d, -d, 5 * d), (-2.3, -0.01, -7.9))):
        cfg = default_cfg(prune_cell=cell)
        children = expand(rest_node(p), cfg, make_map(), [5, 0, 0])
        assert len(children) == 27
        assert [c.key for c in children] == _floor_keys(np.array([c.p for c in children]), cell)


def test_expand_end_point_velocity_test_equals_sampled_test():
    # per axis: the bound itself, the entry speed from which full thrust just
    # reaches it, their neighbouring floats, and -0.0
    cfg = default_cfg()
    v_max, a_max, tau = cfg.limits.v_max, cfg.limits.a_max, cfg.limits.primitive_duration
    U = control_set(a_max)
    ut = U[:, None, :] * sample_times(0.0, tau, cfg.check_dt)[None, :, None]
    edges = [s * e for s in (1.0, -1.0) for e in (v_max, v_max - a_max * tau)]
    values = sorted({x for e in edges for x in (e, np.nextafter(e, np.inf), np.nextafter(e, -np.inf))}) + [-0.0]
    empty = make_map()
    kept = 0
    for v0 in itertools.product(values, repeat=3):
        V = np.array(v0) + ut
        sampled = (np.abs(V) <= v_max).all(axis=-1).all(axis=-1)  # every sample, every axis
        node = node_at(UavState(t=0.0, p=[0.0, 0.0, 0.0], v=list(v0), a=[0.0, 0.0, 0.0]))
        children = expand(node, cfg, empty, [5, 0, 0])
        assert [tuple(c.a) for c in children] == [tuple(u) for u in U[sampled]], v0
        for c, i in zip(children, np.flatnonzero(sampled)):
            assert np.array_equal(c.v, V[i, -1])
        kept += len(children)
    assert 0 < kept < 27 * len(values) ** 3


def test_expand_costs_accumulate():
    cfg = default_cfg()
    children = expand(rest_node(), cfg, make_map(), [5, 0, 0])
    for c in children:
        u = c.state.a
        assert c.g == pytest.approx((np.dot(u, u) + TIME_WEIGHT) * 0.6)
        assert c.f >= c.g >= 0


def test_expand_ranks_children_by_the_heuristic_bit_for_bit():
    # the open set's f is g plus the weighted heuristic() that the admissibility tests check
    cfg = default_cfg()
    goal = np.array([5.0, -1.3, 0.7])
    m = make_map(sphere_shell([1.8, 0.2, -0.3], 0.5))
    node = node_at(UavState(t=0.4, p=[0.1, 0.2, -0.3], v=[1.0, -0.5, 0.3], a=[0, 0, 0]))
    node.g = 1.7
    children = expand(node, cfg, m, goal)
    assert 0 < len(children) < 27  # the shell ahead blocks some primitives
    for c in children:
        assert c.f == c.g + HEURISTIC_WEIGHT * heuristic(c.p, goal, cfg)


def test_heuristic_values():
    cfg = default_cfg()
    at_goal = UavState.hover([1, 2, 3])
    assert heuristic(at_goal.p, [1, 2, 3], cfg) == 0.0
    s = UavState.hover([0, 0, 0])
    assert heuristic(s.p, [6, 0, 0], cfg) == pytest.approx(3.0)


def test_analytic_expansion_degenerate_at_goal():
    cfg = default_cfg()
    seg = analytic_expansion(UavState.hover([1, 1, 1]), [1, 1, 1], cfg, make_map())
    assert seg is not None
    assert seg.duration == pytest.approx(cfg.check_dt)
    P, V, _ = seg.states_at(np.array([0.0, seg.duration]))
    assert np.max(np.abs(P - [1, 1, 1])) <= 1e-9
    assert np.max(np.abs(V)) <= 1e-9


def test_analytic_expansion_straight_line_free_space():
    cfg = default_cfg()
    seg = analytic_expansion(UavState.hover([0, 0, 0]), [5, 0, 0], cfg, make_map())
    assert seg is not None
    P, V, A = seg.states_at(np.array([seg.duration]))
    assert np.max(np.abs(P[0] - [5, 0, 0])) <= 1e-6
    assert np.max(np.abs(V[0])) <= 1e-6
    assert np.max(np.abs(A[0])) <= 1e-6
    # sampled limits hold along the way
    ts = np.linspace(0, seg.duration, 50)
    _, V, A = seg.states_at(ts)
    assert np.abs(V).max() <= cfg.limits.v_max + 1e-9
    assert np.abs(A).max() <= cfg.limits.a_max + 1e-9


def _shot_feasible(state, goal, tau, cfg, local_map):
    """The analytic shot's own acceptance test for one duration tau."""
    seg = QuinticSegment.solve(state, np.asarray(goal, dtype=float), np.zeros(3), np.zeros(3), tau)
    P, V, A = seg.states_at(sample_times(0.0, tau, min(cfg.check_dt, tau / 8.0)))
    return (
        (np.abs(V) <= cfg.limits.v_max).all()
        and not (np.abs(A) > cfg.limits.a_max + 1e-9).any()
        and not local_map.any_within(P, cfg.clearance).any()
    )


def test_analytic_expansion_tries_longer_durations_only_near_the_goal():
    """Moving at (1.5, 1, 0) m/s toward a goal straight ahead, the shot's base time is
    the braking time |v| / a_max at 0.9 m and at 1.3 m alike, and of the durations
    1, 1.5, 2, 3 and 4 times it only 3 and 4 keep the limits. A shot from 1.3 m tries
    only 1, 1.5 and 2, as before; from 0.9 m, within SHOT_STEP, it returns 3."""
    cfg = default_cfg()
    m = make_map()
    state = UavState(t=0.0, p=[0.0, 0.0, 0.0], v=[1.5, 1.0, 0.0], a=[0.0, 0.0, 0.0])
    base = float(np.linalg.norm(state.v)) / cfg.limits.a_max
    for d in (1.3, 0.9):
        assert base == max(d / cfg.limits.v_max, base, cfg.check_dt)
        feasible = [_shot_feasible(state, [d, 0.0, 0.0], s * base, cfg, m) for s in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert feasible == [False, False, False, True, True]
    assert 1.3 > SHOT_STEP >= 0.9
    assert analytic_expansion(state, [1.3, 0.0, 0.0], cfg, m) is None
    seg = analytic_expansion(state, [0.9, 0.0, 0.0], cfg, m)
    assert seg is not None and seg.duration == 3.0 * base
    P, V, _ = seg.states_at(np.array([0.0, seg.duration]))
    assert np.array_equal(P[0], state.p) and np.array_equal(V[0], state.v)
    assert np.max(np.abs(P[1] - [0.9, 0.0, 0.0])) <= 1e-9 and np.max(np.abs(V[1])) <= 1e-9


def wall_with_gap(x, gap_center_y=None, gap_width=None, half=3.0, spacing=0.05):
    """Dense vertical point wall at the given x, optionally with a y-gap."""
    ys = np.arange(-half, half + 1e-9, spacing)
    zs = np.arange(-half, half + 1e-9, spacing)
    Y, Z = np.meshgrid(ys, zs)
    pts = np.column_stack([np.full(Y.size, x), Y.ravel(), Z.ravel()])
    if gap_center_y is not None:
        keep = ~(
            (np.abs(pts[:, 1] - gap_center_y) < gap_width / 2)
            & (np.abs(pts[:, 2]) < gap_width / 2)
        )
        pts = pts[keep]
    return pts


def test_analytic_expansion_blocked_by_wall():
    cfg = default_cfg()
    m = make_map(wall_with_gap(2.5))
    seg = analytic_expansion(UavState.hover([0, 0, 0]), [5, 0, 0], cfg, m)
    assert seg is None


def audit_trajectory(traj, cfg, local_map):
    """Postcondition audit at the check sampling density.

    Speed and clearance are checked on each segment's own check-density grid
    (the planner's validation contract); acceleration is exact on primitives
    and sampled on the analytic tail. A 4x-denser pass then verifies the
    continuous-coverage guarantee: between validated samples the path cannot
    dip more than v_max * check_dt closer to an obstacle.
    """
    from cloudnav.core import ConstantAccelSegment, sample_times

    all_p = []
    for seg in traj.segments:
        if isinstance(seg, ConstantAccelSegment):
            ts = sample_times(0.0, seg.duration, cfg.check_dt)
            assert np.abs(seg.u).max() <= cfg.limits.a_max + 1e-9
        else:
            ts = sample_times(0.0, seg.duration, min(cfg.check_dt, seg.duration / 8))
            _, _, As = seg.states_at(ts)
            assert np.abs(As).max() <= cfg.limits.a_max + 1e-9, "tail acceleration breakout"
        P, V, _ = seg.states_at(ts)
        assert np.abs(V).max() <= cfg.limits.v_max + 1e-9, "velocity limit violated"
        assert not local_map.any_within(P, cfg.clearance).any(), "clearance violated"
        all_p.append(P)
    fine = np.linspace(traj.t0, traj.t_end, 4 * max(len(p) for p in all_p) * len(all_p))
    Pf, _, _ = traj.states_at(fine)
    slack = cfg.limits.v_max * cfg.check_dt
    assert not local_map.any_within(Pf, cfg.clearance - slack).any(), (
        "continuous-coverage clearance bound violated"
    )
    return np.concatenate(all_p)


def test_plan_free_space_postconditions():
    cfg = default_cfg()
    m = make_map()
    traj, report = plan(UavState.hover([0, 0, 1]), [6, 0, 1], cfg, m)
    P = audit_trajectory(traj, cfg, m)
    assert np.linalg.norm(P[-1] - [6, 0, 1]) <= cfg.goal_tolerance + 1e-9
    assert report.outcome in ("analytic", "primitive")
    assert report.wall_seconds >= 0.0


def test_plan_through_gap_keeps_clearance():
    cfg = default_cfg()
    pts = wall_with_gap(3.0, gap_center_y=0.8, gap_width=1.2)
    m = make_map(pts)
    traj, report = plan(UavState.hover([0, 0, 0]), [6, 0.8, 0], cfg, m)
    P = audit_trajectory(traj, cfg, m)
    # path crosses the wall plane inside the gap
    crossing = P[np.abs(P[:, 0] - 3.0) < 0.4]
    assert len(crossing) > 0
    assert np.all(np.abs(crossing[:, 1] - 0.8) < 0.8)
    # min distance to the wall points respects the clearance (points are exact here)
    from scipy.spatial import cKDTree

    d, _ = cKDTree(pts).query(P, k=1)
    assert d.min() >= cfg.clearance - 1e-9


def test_plan_start_in_collision_raises():
    cfg = default_cfg()
    m = make_map([[0.2, 0, 0]])
    with pytest.raises(StartInCollision) as err:
        plan(UavState.hover([0, 0, 0]), [5, 0, 0], cfg, m)
    assert err.value.distance == pytest.approx(0.2)


def test_plan_unreachable_goal_fails_with_stats():
    cfg = default_cfg(max_expansions=300)
    m = make_map(sphere_shell([5, 0, 0], 1.2, n=4000))
    with pytest.raises(PlanningFailed) as err:
        plan(UavState.hover([0, 0, 0]), [5, 0, 0], cfg, m)
    assert err.value.report.expansions <= 300
    assert err.value.report.outcome in ("expansion_budget_exhausted", "open_set_exhausted")


def test_plan_deterministic():
    cfg = default_cfg()
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1, 7, (800, 3))
    keep = np.linalg.norm(pts - np.array([0, 0, 0]), axis=1) > 0.6
    keep &= np.linalg.norm(pts - np.array([6, 0, 0]), axis=1) > 0.6
    m1 = make_map(pts[keep])
    m2 = make_map(pts[keep])
    t1, r1 = plan(UavState.hover([0, 0, 0]), [6, 0, 0], cfg, m1)
    t2, r2 = plan(UavState.hover([0, 0, 0]), [6, 0, 0], cfg, m2)
    assert r1.expansions == r2.expansions
    assert r1.cost == r2.cost
    ts = np.linspace(t1.t0, t1.t_end, 101)
    P1, _, _ = t1.states_at(ts)
    P2, _, _ = t2.states_at(ts)
    assert np.array_equal(P1, P2)


def test_plan_cost_monotone_along_chain():
    cfg = default_cfg()
    m = make_map(wall_with_gap(3.0, gap_center_y=1.2, gap_width=1.2))
    traj, report = plan(UavState.hover([0, 0, 0]), [6, 1.2, 0], cfg, m)
    assert report.expansions > 0
    assert any(isinstance(seg, ConstantAccelSegment) for seg in traj.segments)
    # re-run the search bookkeeping: g accumulates (||u||^2 + rho) * tau per edge
    g = 0.0
    for seg in traj.segments:
        if isinstance(seg, ConstantAccelSegment):
            step = (np.dot(seg.u, seg.u) + TIME_WEIGHT) * seg.duration
            assert step > 0
            g += step
    assert g <= report.cost + 1e-9


def test_plan_cost_bounded_below_by_heuristic():
    # empirical admissibility over random free-space instances
    cfg = default_cfg()
    m = make_map()
    rng = np.random.default_rng(123)
    for _ in range(120):
        start_p = rng.uniform(-2, 2, 3)
        goal = start_p + rng.uniform(-6, 6, 3)
        start = UavState.hover(start_p)
        traj, report = plan(start, goal, cfg, m)
        assert report.cost >= heuristic(start.p, goal, cfg) - 1e-9


# Searches for goals by the forest's trees used to exhaust 20000 expansions: the shot
# came only after each 1 m of progress, and its three durations were too short to
# brake near the goal. Within this bound each ends with the shot.
KNOWN_FAILURE_MAX_EXPANSIONS = 100


def test_forest_goals_by_the_trees_end_with_the_shot():
    """The goals (5, 1.5, 1.2) and (5, 1.5, 2.0) on both criterion-7 forest maps
    (100 scans from the start hover, the branch raised at t = 0 and lowered at t = 5)."""
    scenario = load_scenario(resolve_scenario_path("forest_branch"))
    env = scenario.environment()
    rotation = yaw_rotation(scenario.start_yaw)
    cfg = dataclasses.replace(scenario.planner_config, max_expansions=KNOWN_FAILURE_MAX_EXPANSIONS)
    start = UavState.hover(scenario.start_position)
    for t_scan in (0.0, 5.0):
        m = TemporalLocalMap(scenario.map_config)
        rng = np.random.default_rng(0)
        for k in range(100):
            m.update(generate_scan(env, scenario.sensor, scenario.start_position, rotation, t_scan, rng, frame_index=k))
        for goal in ([5.0, 1.5, 1.2], [5.0, 1.5, 2.0]):
            traj, report = plan(start, goal, cfg, m)
            assert report.outcome == "analytic"
            assert report.expansions <= KNOWN_FAILURE_MAX_EXPANSIONS
            P = audit_trajectory(traj, cfg, m)
            assert np.linalg.norm(P[-1] - goal) <= cfg.goal_tolerance + 1e-9
            assert np.array_equal(traj.state_at(traj.t0).p, start.p) and traj.t0 == start.t


def test_replan_step_keeps_clear_trajectory():
    cfg = default_cfg()
    m = make_map()
    traj, _ = plan(UavState.hover([0, 0, 0]), [6, 0, 0], cfg, m)
    decision = replan_step(traj, traj.t0, m, cfg, [6, 0, 0])
    assert decision.action == "keep"
    assert decision.trajectory is traj
    assert decision.report is None


def test_replan_step_replaces_on_new_obstacle():
    cfg = default_cfg()
    m = make_map()
    traj, _ = plan(UavState.hover([0, 0, 0]), [6, 0, 0], cfg, m)
    # a bar appears across the path mid-flight
    m.update(PointCloud(points=wall_with_gap(3.0, gap_center_y=1.5, gap_width=1.4), stamp=1.0))
    t_now = traj.t0 + 0.5
    decision = replan_step(traj, t_now, m, cfg, [6, 0, 0])
    assert decision.action == "replaced"
    assert decision.collision_time is not None
    new = decision.trajectory
    # handover continuity: new trajectory starts on the old one, one budget ahead
    handover = t_now + PLAN_BUDGET
    assert new.t0 == pytest.approx(handover)
    old_state = traj.state_at(handover)
    assert np.max(np.abs(new.start_state.p - old_state.p)) <= 1e-9
    assert np.max(np.abs(new.start_state.v - old_state.v)) <= 1e-9
    audit_trajectory(new, cfg, m)


def test_replan_step_propagates_failure():
    cfg = default_cfg(max_expansions=200)
    m = make_map()
    traj, _ = plan(UavState.hover([0, 0, 0]), [6, 0, 0], cfg, m)
    # corridor fully sealed: no gap
    m.update(PointCloud(points=wall_with_gap(3.0, half=8.0), stamp=1.0))
    with pytest.raises(PlanningFailed):
        replan_step(traj, traj.t0, m, cfg, [6, 0, 0])


def test_search_report_dict_roundtrip():
    cfg = default_cfg()
    _, report = plan(UavState.hover([0, 0, 0]), [3, 0, 0], cfg, make_map())
    d = dataclasses.asdict(report)
    for key in ("outcome", "expansions", "wall_seconds", "cost"):
        assert key in d


def test_relaxed_replan_shrinks_clearance_until_start_is_free(monkeypatch):
    import cloudnav.planner as planner

    tried = []
    search = planner.plan

    def recording_plan(start, goal, cfg, local_map):
        tried.append((cfg.clearance, cfg.prune_cell))
        return search(start, goal, cfg, local_map)

    monkeypatch.setattr(planner, "plan", recording_plan)
    cfg = default_cfg()
    m = make_map([[0.0, 0.3, 0.0]])  # 0.3 m from the start: inside 0.45, outside 0.288
    traj, report, used = relaxed_replan(UavState.hover([0, 0, 0]), [4, 0, 0], cfg, m)
    assert [c for c, _ in tried] == [0.45, 0.45 * 0.8, 0.45 * 0.8 * 0.8]
    assert used == tried[-1][0]
    assert {cell for _, cell in tried} == {cfg.prune_cell}  # dedup grid fixed
    assert report.outcome in ("analytic", "primitive")
    assert np.linalg.norm(traj.end_state.p - np.array([4, 0, 0])) <= cfg.goal_tolerance + 1e-9


def test_relaxed_replan_raises_at_clearance_floor(monkeypatch):
    import cloudnav.planner as planner

    tried = []
    search = planner.plan

    def recording_plan(start, goal, cfg, local_map):
        tried.append(cfg.clearance)
        return search(start, goal, cfg, local_map)

    monkeypatch.setattr(planner, "plan", recording_plan)
    m = make_map([[0.0, 0.05, 0.0]])  # closer than the 0.1 m floor
    with pytest.raises(StartInCollision):
        relaxed_replan(UavState.hover([0, 0, 0]), [4, 0, 0], default_cfg(), m)
    assert tried[-1] == 0.10 and tried[-2] > 0.10
    assert all(b == pytest.approx(0.8 * a) for a, b in zip(tried[:-2], tried[1:-1]))


# A cup of points open toward -x around the start, then three shells beyond it:
# every search first backs out of the cup, so each expands a few hundred nodes.
def _digest_map():
    cup = sphere_shell([0.0, 0.0, 0.0], 1.3, n=1500)
    return make_map(
        np.concatenate(
            [
                cup[cup[:, 0] > -0.5],
                sphere_shell([2.6, 0.0, 0.0], 0.6, n=500),
                sphere_shell([3.5, 1.6, 0.4], 0.7, n=400),
                sphere_shell([3.5, -1.4, -0.3], 0.7, n=400),
                sphere_shell([5.5, 0.3, 0.0], 0.9, n=600),
            ]
        )
    )


_HOVER = UavState.hover([0.0, 0.0, 0.0])
_MOVING = UavState(t=0.5, p=[0.0, 0.0, 0.0], v=[-0.8, 0.4, 0.1], a=[0.0, 0.0, 0.0])
# at v_max on x: every +x control breaks the velocity bound from the first expansion
_ON_BOUND = UavState(t=0.0, p=[0.0, 2.5, 0.0], v=[2.0, 0.0, 0.0], a=[0.0, 0.0, 0.0])
# (start, goal, extra PlannerConfig fields, sha256 of the search's outcome and trajectory)
_DIGEST_CASES = {
    "hover-far": (
        _HOVER,
        (7.0, 0.0, 0.0),
        {},
        "ea869467e493907a2708fcdc0bb8331a49c327040527b6697b2a39d696e40baf",
    ),
    "hover-up": (
        _HOVER,
        (3.5, 0.2, 1.5),
        {},
        "3869c761496173ad58aefcaeb2b9c09e58674fddc5a862c1742e9dcc4841d975",
    ),
    "moving-left": (
        _MOVING,
        (6.5, 2.5, 0.5),
        {},
        "a0514641450dc5c96decb717842b4883e4d24e48c173672cfa01c3bc96601f16",
    ),
    "moving-right": (
        _MOVING,
        (5.0, -3.0, 0.0),
        {},
        "c540075c2b6afcf7702180037cd3fc3f7bddf5f412a80f63a566908df5605d42",
    ),
    "on-bound": (
        _ON_BOUND,
        (5.5, -1.5, 0.5),
        {},
        "2ec361308e8d219912dab0d8fecf7ff240e60b8c2559d18f42b73ab99cb57437",
    ),
    "inside-shell": (
        _HOVER,
        (5.5, 0.3, 0.0),
        {},
        "7da37dabdc6627a9381b45143b5ad0074d01c048b64ef2fb8184af2a58970b1d",
    ),
}


def _search_digest(start, goal, cfg, local_map) -> str:
    try:
        traj, report = plan(start, goal, cfg, local_map)
    except PlanningFailed as err:
        traj, report = None, err.report
    h = hashlib.sha256()
    summary = (report.expansions, report.cost, report.open_size, report.closed_size, report.outcome)
    h.update(repr(summary).encode())
    if traj is None:
        return h.hexdigest()
    h.update(repr(traj.t0).encode())
    for seg in traj.segments:
        if isinstance(seg, ConstantAccelSegment):
            arrays = (seg.start.p, seg.start.v, seg.start.a, seg.u)
        else:
            arrays = (seg.coeffs,)
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr(seg.duration).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_DIGEST_CASES))
def test_plan_digests_are_pinned(case):
    """Pins every byte of six searches: a speed-up of the search loop must not
    change which nodes it expands, in what order, or the trajectory it returns."""
    start, goal, extra, want = _DIGEST_CASES[case]
    cfg = default_cfg(max_expansions=1500, **extra)
    assert _search_digest(start, goal, cfg, _digest_map()) == want
